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

import numpy as np

from .errors import ConfigError, FormatError, PreconditionError
from .game_engine import CommunityStructure, SnapshotResult
from .snapshot_graph import SnapshotGraph, SnapshotSequence

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
    skipped = 0
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}: empty ground-truth file")
            if [h.strip().lower() for h in header[:3]] != ["snapshot", "node_label", "community_label"]:
                raise FormatError(f"{path}: expected header snapshot,node_label,community_label")
            for lineno, row in enumerate(reader, start=2):
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
                truth.by_snapshot.setdefault(k, {})[node] = row[2]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text") from exc
    if skipped:
        logger.warning("skipped %d ground-truth row(s) naming unknown nodes or snapshots",
                       skipped)
    return truth


def write_ground_truth(truth: GroundTruth, seq: SnapshotSequence, path) -> None:
    """Write the ground-truth CSV, each snapshot under its input ordinal."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["snapshot", "node_label", "community_label"])
        for t in sorted(truth.by_snapshot):
            labels = truth.by_snapshot[t]
            for node in sorted(labels):
                writer.writerow([seq.ordinals[t], seq.label_of(node), labels[node]])


def _carryover(nodes, results: list[SnapshotResult], next_id: int) -> CommunityStructure:
    """Each node starts with the union of the community ids it held in
    `results`; nodes with no prior labels get fresh singletons."""
    union: dict[int, set[int]] = {}
    for result in results:
        for v, ks in result.memberships.items():
            if ks:
                union.setdefault(v, set()).update(ks)
    carried = {v: union.get(v, set()) for v in nodes}
    structure = CommunityStructure.from_memberships(carried, next_id)
    for v in sorted(nodes):
        if not carried[v]:
            structure.create_community([v])
    return structure


def init_structure(variant: VariantKind, t: int, history: list[SnapshotResult],
                   graph: SnapshotGraph, truth: GroundTruth | None = None,
                   rng: np.random.Generator | None = None,
                   next_id: int = 0) -> CommunityStructure:
    """Build the starting structure for snapshot `t`.

    `history` holds the results of snapshots 0..t-1 in order (their evolved
    memberships feed the dgt/dgtp carryover).  `next_id` continues the
    run-wide community id counter so ids are never reused across snapshots.
    """
    nodes = graph.nodes
    if variant.kind == "dgtg" and truth is None:
        raise ConfigError("variant dgtg requires ground truth")
    if variant.kind in ("dgt", "dgtp") and t > 0 and len(history) != t:
        raise PreconditionError(f"history must have {t} entries, got {len(history)}")

    if variant.kind == "dgts" or (variant.kind in ("dgt", "dgtp") and t == 0):
        return CommunityStructure.from_singletons(nodes, next_id)

    if variant.kind == "dgt":
        return _carryover(nodes, history, next_id)
    if variant.kind == "dgtp":
        return _carryover(nodes, history[t - 1 : t], next_id)

    # dgtg: seeded fresh at every snapshot with whole ground-truth
    # communities, picked in seeded random order until their member total
    # reaches floor(seed_fraction * n); the community crossing the budget
    # is included in full.
    if rng is None:
        rng = np.random.default_rng(0)
    structure = CommunityStructure(next_id)
    node_set = set(nodes)
    groups = truth.communities_for(t)
    labels = sorted(groups, key=str)
    budget = int(variant.seed_fraction * graph.n)
    seeded: set[int] = set()
    if budget > 0 and labels:
        order = rng.permutation(len(labels))
        total = 0
        for idx in order:
            if total >= budget:
                break
            members = sorted(groups[labels[idx]] & node_set)
            if not members:
                continue
            for v in members:
                structure.add_agent(v)
            structure.create_community(members)
            seeded.update(members)
            total += len(members)
    for v in sorted(node_set - seeded):
        structure.add_agent(v)
        structure.create_community([v])
    return structure
