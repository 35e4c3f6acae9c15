"""Initial community structures for each snapshot, under four variants.

dgts  starts every snapshot from singletons (no information carried).
dgt   seeds each node with the union of every community id it held in any
      earlier snapshot's evolved structure.
dgtp  is dgt restricted to the immediately previous snapshot.
dgtg  materializes a seeded random subset of ground-truth communities whose
      member count reaches floor(seed_fraction * n); nothing else carries.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

from .errors import ConfigError, FormatError
from .game_engine import CommunityStructure
from .rng import PCG64
from .snapshot_graph import SnapshotGraph, SnapshotSequence, write_csv

logger = logging.getLogger(__name__)

VARIANT_KINDS = ("dgt", "dgts", "dgtp", "dgtg")


@dataclass(frozen=True)
class VariantKind:
    kind: str
    seed_fraction: float = 0.0

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ConfigError(f"variant must be one of {VARIANT_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.seed_fraction <= 1.0:
            raise ConfigError("seed_fraction must be in [0, 1]")


@dataclass
class GroundTruth:
    """Per-snapshot node-id -> community-label maps (may be partial)."""

    by_snapshot: dict[int, dict[int, object]] = field(default_factory=dict)

    def labels_for(self, t: int) -> dict[int, object]:
        return self.by_snapshot.get(t, {})

    def communities_for(self, t: int) -> dict[object, set[int]]:
        groups: dict[object, set[int]] = {}
        for node, label in self.by_snapshot.get(t, {}).items():
            groups.setdefault(label, set()).add(node)
        return groups

    def community_count(self, t: int) -> int:
        return len(set(self.by_snapshot.get(t, {}).values()))


def load_ground_truth(path, seq: SnapshotSequence) -> GroundTruth:
    """Read the ground-truth CSV `snapshot,node_label,community_label`.

    The snapshot column holds the input ordinals of the edge list, and each
    row is stored under the dense index of the snapshot read from that
    ordinal.  Rows naming nodes that never appear in the sequence, or an
    ordinal no snapshot was read from, are skipped, and their count is
    logged as a warning.  A label of digits also matches the integer label
    of the same value.
    """
    truth = GroundTruth()
    snapshot_of = {t: k for k, t in enumerate(seq.ordinals)}
    # one str per distinct community label, not one per row
    labels: dict[str, str] = {}
    skipped = 0
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}: empty ground-truth file")
            if [h.strip().lower() for h in header[:3]] != ["snapshot", "node_label", "community_label"]:
                raise FormatError(f"{path}: expected header snapshot,node_label,community_label")
            for row in reader:
                # the physical line: a quoted field may span several
                lineno = reader.line_num
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 3:
                    raise FormatError(f"{path}:{lineno}: expected 3 columns")
                try:
                    t = int(row[0])
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: bad snapshot ordinal {row[0]!r}") from exc
                if t < 0:
                    raise FormatError(f"{path}:{lineno}: negative snapshot ordinal")
                k = snapshot_of.get(t)
                if k is None:
                    skipped += 1
                    continue
                label = row[1]
                node = seq.label_to_id.get(label)
                if node is None and label.isdigit():
                    try:
                        node = seq.label_to_id.get(int(label))
                    except ValueError:  # isdigit() accepts "²", which int() rejects
                        pass
                if node is None:
                    skipped += 1
                    continue
                truth.by_snapshot.setdefault(k, {})[node] = labels.setdefault(row[2], row[2])
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text") from exc
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    if skipped:
        logger.warning("skipped %d ground-truth row(s) naming unknown nodes or snapshots",
                       skipped)
    return truth


def write_ground_truth(truth: GroundTruth, seq: SnapshotSequence, path) -> None:
    """Write the ground-truth CSV, each snapshot under its input ordinal."""
    write_csv(path, ["snapshot", "node_label", "community_label"],
              [(seq.ordinals[t], seq.label_of(node), label)
               for t, labels in sorted(truth.by_snapshot.items())
               for node, label in sorted(labels.items())])


def carry(variant: VariantKind, carried: dict[int, set[int]],
          evolved: dict[int, set[int]]) -> dict[int, set[int]]:
    """The agent -> label-set map kept after a snapshot whose game ended with
    the memberships `evolved`: for dgt `carried` with `evolved` united into
    it in place, for dgtp `evolved` itself, for dgts and dgtg nothing."""
    if variant.kind == "dgt":
        for v, ks in evolved.items():
            carried.setdefault(v, set()).update(ks)
        return carried
    return evolved if variant.kind == "dgtp" else {}


def init_structure(variant: VariantKind, t: int, carried: dict[int, set[int]],
                   graph: SnapshotGraph, truth: GroundTruth | None = None,
                   rng: PCG64 | None = None,
                   next_id: int = 0) -> CommunityStructure:
    """Build the starting structure for snapshot `t`.

    dgts, dgt and dgtp start each node with its labels in `carried`, the
    map `carry` kept (empty at t = 0); a node with none gets a fresh
    singleton.  `next_id` continues the run-wide community id counter so
    ids are never reused across snapshots.
    """
    nodes = graph.nodes
    if variant.kind == "dgtg" and truth is None:
        raise ConfigError("variant dgtg requires ground truth")

    if variant.kind != "dgtg":
        return CommunityStructure.from_memberships(
            {v: carried[v] for v in nodes if v in carried}, next_id).fill_singletons(nodes)

    # dgtg: seeded fresh at every snapshot with whole ground-truth
    # communities, picked in seeded random order until their member total
    # reaches floor(seed_fraction * n); the community crossing the budget
    # is included in full.
    if rng is None:
        rng = PCG64(0)
    structure = CommunityStructure(next_id)
    node_set = set(nodes)
    groups = truth.communities_for(t)
    labels = sorted(groups, key=str)
    budget = int(variant.seed_fraction * graph.n)
    if budget > 0 and labels:
        order = rng.permutation(len(labels))
        total = 0
        for idx in order:
            if total >= budget:
                break
            members = groups[labels[idx]] & node_set
            if members:
                structure.create_community(members)
                total += len(members)
    return structure.fill_singletons(nodes)
