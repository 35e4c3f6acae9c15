"""Directed graph snapshots: loading, representation, diffing.

A dynamic network is a sequence of directed graph snapshots sharing one
node-id space.  External node labels (strings or ints) are mapped to dense
non-negative integer ids in order of first appearance and the mapping is
stable across every snapshot of a sequence.
"""

from __future__ import annotations

import csv
import logging
import math
import os
from collections import defaultdict, deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import FormatError, PreconditionError

logger = logging.getLogger(__name__)

Label = object  # external node labels may be any hashable (str, int, ...)


class SnapshotGraph:
    """One directed snapshot: no self-edges, no duplicate edges.

    Immutable after construction.  The graph is its two adjacency maps:
    `out_adj[i]` and `in_adj[i]` are the ascending targets and sources of
    node i.  Every node of the snapshot, an isolated one included, is a
    key of both maps, so `i in out_adj` tests membership.
    """

    __slots__ = (
        "index_t",
        "nodes",
        "out_adj",
        "in_adj",
        "n",
        "m",
        "max_node",
    )

    def __init__(self, index_t: int, nodes: tuple[int, ...], out_adj: dict, in_adj: dict):
        self.index_t = index_t
        self.nodes = nodes
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.n = len(nodes)
        self.m = sum(len(js) for js in out_adj.values())
        self.max_node = max(nodes) if nodes else -1

    @classmethod
    def from_edges(cls, edges, index_t: int = 0, nodes=()) -> "SnapshotGraph":
        """Build a snapshot from (source, target) integer id pairs.

        Duplicate edges collapse to one; self-edges and negative ids are
        rejected.  `nodes` may declare additional (possibly isolated) node
        ids.
        """
        targets: defaultdict[int, list[int]] = defaultdict(list)
        for i, j in edges:
            if i == j:
                raise PreconditionError(f"self-edge on node {i} is not allowed")
            targets[i].append(j)
        return cls._from_targets(targets, index_t, nodes)

    @classmethod
    def _from_targets(cls, targets: dict, index_t: int, nodes=()) -> "SnapshotGraph":
        """Build a snapshot from `targets[i]`, a list of the targets of
        source i that may repeat a target but never holds i.  Each list is
        popped from `targets` as its node's tuple is made, so the lists and
        the adjacency maps are never both held whole.
        """
        out_adj = {}
        ins: defaultdict[int, list[int]] = defaultdict(list)
        # sources in ascending order, so every in-list comes out sorted
        for i in sorted(targets):
            js = out_adj[i] = tuple(sorted(set(targets.pop(i))))
            for j in js:
                ins[j].append(i)
        node_ids = tuple(sorted(out_adj.keys() | ins.keys() | set(nodes)))
        if not node_ids:
            raise PreconditionError("a snapshot must contain at least one node")
        if node_ids[0] < 0:
            raise PreconditionError(f"node id {node_ids[0]} is negative")
        out_adj = {v: out_adj.pop(v, ()) for v in node_ids}
        in_adj = {v: tuple(ins.pop(v, ())) for v in node_ids}
        return cls(index_t, node_ids, out_adj, in_adj)

    def has_node(self, i: int) -> bool:
        return i in self.out_adj

    def __eq__(self, other):
        if not isinstance(other, SnapshotGraph):
            return NotImplemented
        return (
            self.index_t == other.index_t
            and self.nodes == other.nodes
            and self.out_adj == other.out_adj
        )

    def __hash__(self):
        return hash((self.index_t, self.nodes))

    def __repr__(self):
        return f"SnapshotGraph(t={self.index_t}, n={self.n}, m={self.m})"


@dataclass
class SnapshotSequence:
    """Ordered snapshots plus the shared label <-> id maps.

    `ordinals[k]` is the input ordinal snapshot k was loaded from; a
    sequence built without one numbers its snapshots 0..M-1.
    """

    snapshots: list[SnapshotGraph]
    label_to_id: dict = field(default_factory=dict)
    id_to_label: list = field(default_factory=list)
    self_edges_dropped: int = 0
    duplicates_collapsed: int = 0
    ordinals: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.ordinals:
            self.ordinals = list(range(len(self.snapshots)))

    @property
    def num_snapshots(self) -> int:
        return len(self.snapshots)

    def label_of(self, node_id: int):
        return self.id_to_label[node_id]


@dataclass(frozen=True)
class ChangeStats:
    """Edge churn between two consecutive snapshots."""

    edges_added: int
    edges_deleted: int
    nodes_changed: int


def load_edge_stream(records, extra_nodes=None, undirected: bool = False) -> SnapshotSequence:
    """Build a SnapshotSequence from (source-label, target-label, ordinal) records.

    `records` may be any iterable and is read once.  Node ids are assigned
    densely by first appearance in the record stream (then in
    `extra_nodes`).  Duplicate edges within a snapshot collapse to one;
    self-edges are dropped and counted.  Ordinals are densified: the k-th
    distinct ordinal (ascending) becomes snapshot k, so the snapshots'
    `index_t` always form the contiguous range 0..M-1, and `ordinals[k]`
    keeps the input ordinal of snapshot k.

    `extra_nodes` is an optional iterable of (label, ordinal) declaring
    nodes that belong to a snapshot even without incident edges.  With
    `undirected=True` every record is materialized as two directed edges.

    Raises FormatError on empty input, negative ordinals, or a snapshot (by
    its input ordinal) with no edges at all.  A negative ordinal is reported
    only once the whole stream has been read, so an error the stream itself
    raises (a parse error) comes first.
    """
    label_to_id: dict = {}
    # per input ordinal: source id -> its target ids, repeats included
    buckets: defaultdict[int, defaultdict[int, list[int]]] = defaultdict(
        lambda: defaultdict(list))
    kept = 0
    self_dropped = 0
    records = iter(records)
    for src, dst, t in records:
        t = int(t)
        if t < 0:
            deque(records, maxlen=0)  # a parse error later in the stream comes first
            raise FormatError(f"negative snapshot ordinal {t}")
        i = label_to_id.setdefault(src, len(label_to_id))
        j = label_to_id.setdefault(dst, len(label_to_id))
        bucket = buckets[t]
        if i == j:
            self_dropped += 1
            continue
        kept += 1
        bucket[i].append(j)
        if undirected:
            bucket[j].append(i)
    if not buckets:
        raise FormatError("no edges")

    declared: dict[int, set[int]] = {}
    for label, t in extra_nodes or ():
        t = int(t)
        if t < 0:
            raise FormatError(f"negative snapshot ordinal {t} in node list")
        declared.setdefault(t, set()).add(label_to_id.setdefault(label, len(label_to_id)))

    dense = {t: k for k, t in enumerate(sorted(buckets.keys() | declared.keys()))}
    snapshots = []
    edgeless = []
    for raw, k in dense.items():
        targets = buckets.pop(raw, None)
        if not targets:
            edgeless.append(raw)
            continue
        snapshots.append(SnapshotGraph._from_targets(targets, k, declared.get(raw, ())))

    # each record added 1 (2 if undirected) edges; the snapshots kept the rest
    duplicates = (2 if undirected else 1) * kept - sum(g.m for g in snapshots)
    if self_dropped:
        logger.warning("dropped %d self-edge(s) from input", self_dropped)
    if duplicates:
        logger.warning("collapsed %d duplicate edge(s) in input", duplicates)
    if edgeless:
        raise FormatError(f"snapshot {edgeless[0]} has no edges")

    return SnapshotSequence(
        snapshots=snapshots,
        label_to_id=label_to_id,
        id_to_label=list(label_to_id),
        self_edges_dropped=self_dropped,
        duplicates_collapsed=duplicates,
        ordinals=list(dense),
    )


def diff(prev: SnapshotGraph, next: SnapshotGraph) -> ChangeStats:
    """Edge additions/deletions between consecutive snapshots and the
    number of nodes incident to any changed edge.

    Walks the nodes of either snapshot and skips one whose out-tuples are
    equal; for any other it takes the set differences of its targets, so
    the memory it holds beyond the count of changed nodes is bounded by
    the largest out-degree.
    """
    added = deleted = 0
    touched = set()
    for i in prev.out_adj.keys() | next.out_adj.keys():
        before, after = prev.out_adj.get(i, ()), next.out_adj.get(i, ())
        if before == after:
            continue
        gone, new = set(before).difference(after), set(after).difference(before)
        deleted += len(gone)
        added += len(new)
        touched.add(i)
        touched.update(gone)
        touched.update(new)
    return ChangeStats(added, deleted, len(touched))


def _text_lines(path) -> Iterator[tuple[int, str]]:
    """Numbered lines of a UTF-8 text file, a leading BOM dropped; FormatError if not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text") from exc


def _edge_rows(path) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of every record line of an edge-list file."""
    for lineno, line in _text_lines(path):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) < 3:
            raise FormatError(f"{path}:{lineno}: expected at least 3 columns")
        yield lineno, parts


def _edge_records(path, snapshot_by: str):
    """A generator of the loader records of an edge-list file.  The mode
    is checked before the file is opened."""
    if snapshot_by == "column":
        return _column_records(path)
    if not snapshot_by.startswith("window:"):
        raise FormatError(f"unknown snapshot-by mode {snapshot_by!r}")
    try:
        window = float(snapshot_by.split(":", 1)[1])
    except ValueError as exc:
        raise FormatError(f"bad window width in {snapshot_by!r}") from exc
    if not math.isfinite(window) or window <= 0:
        raise FormatError("window width must be positive and finite")
    if os.path.exists(path) and not os.path.isfile(path):
        # a pipe or a terminal would be empty on the second read
        raise FormatError(f"{path}: window mode reads its input twice, so it must be "
                          "a regular file")
    return _window_records(path, window)


def _column_records(path) -> Iterator[tuple[str, str, int]]:
    """Records read line by line.  A short line is reported where it is
    found; a bad snapshot ordinal only after the last line, so that a short
    line anywhere in the file comes first."""
    bad_ordinal = None
    for lineno, parts in _edge_rows(path):
        try:
            t = int(parts[2])
        except ValueError:
            if bad_ordinal is None:
                bad_ordinal = f"{path}:{lineno}: bad snapshot ordinal {parts[2]!r}"
            continue
        yield parts[0], parts[1], t
    if bad_ordinal is not None:
        raise FormatError(bad_ordinal)


def _window_records(path, window: float) -> Iterator[tuple[str, str, int]]:
    """Records with the last column bucketed into windows from the earliest
    timestamp.  The file is read twice: the first pass checks every line
    and finds that timestamp, holding nothing else; the second streams the
    records.  A short line anywhere in the file is reported before any bad
    timestamp, and both before a timestamp too far from the earliest."""
    t0 = math.inf
    bad_stamp = None
    for lineno, parts in _edge_rows(path):
        try:
            ts = float(parts[-1])
        except ValueError:
            ts = None
        if ts is None or not math.isfinite(ts):
            if bad_stamp is None:
                kind = "bad" if ts is None else "non-finite"
                bad_stamp = f"{path}:{lineno}: {kind} timestamp {parts[-1]!r}"
            continue
        t0 = min(t0, ts)
    if bad_stamp is not None:
        raise FormatError(bad_stamp)
    for lineno, parts in _edge_rows(path):
        try:
            bucket = (float(parts[-1]) - t0) // window
        except ValueError as exc:  # the file changed between the passes
            raise FormatError(f"{path}:{lineno}: bad timestamp {parts[-1]!r}") from exc
        if not math.isfinite(bucket):
            raise FormatError(f"{path}:{lineno}: timestamp {parts[-1]!r} is too far "
                              f"from the earliest for window width {window!r}")
        yield parts[0], parts[1], int(bucket)


def parse_node_file(path):
    """Parse an optional node-list file: lines of `label snapshot`."""
    entries = []
    for lineno, line in _text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected `label snapshot`")
        try:
            t = int(parts[1])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad snapshot ordinal {parts[1]!r}") from exc
        entries.append((parts[0], t))
    return entries


def read_edge_list(path, snapshot_by: str = "column", extra_nodes=None,
                   undirected: bool = False) -> SnapshotSequence:
    """Parse an edge-list file and load it into a SnapshotSequence.

    Each non-comment line is `source target snapshot [timestamp]`.  With
    snapshot_by="window:<W>" the last column is read as a timestamp and
    bucketed into windows of W seconds starting at the earliest timestamp
    (the snapshot column may then be omitted entirely).

    The file is streamed line by line into per-snapshot lists of each
    source's targets, so no list of all records is held (window mode reads
    the file once more beforehand, to find the earliest timestamp), and
    the loader's peak stays near the size of the graph it returns.
    """
    return load_edge_stream(
        _edge_records(path, snapshot_by),
        extra_nodes=extra_nodes,
        undirected=undirected,
    )


def write_edge_list(seq: SnapshotSequence, path) -> None:
    """Serialize a sequence back to the edge-list text format, each
    snapshot under its input ordinal.

    Raises FormatError, before the file is opened, on a node that would
    not read back as itself: a label that is empty, starts with `#` (the
    line would read as a comment) or holds whitespace (the format is
    whitespace-separated); two labels with the same text (they would read
    back as one node); and a node with no edge in its snapshot (the format
    holds only edges).
    """
    texts = set()
    for label in seq.id_to_label:
        text = str(label)
        if text.split() != [text] or text.startswith("#"):
            raise FormatError(f"label {text!r} cannot be written to an edge list: "
                              "it is empty, starts with '#' or holds whitespace")
        if text in texts:
            raise FormatError(f"two labels are written as {text!r}: "
                              "they would read back as one node")
        texts.add(text)
    for ordinal, g in zip(seq.ordinals, seq.snapshots):
        for v in g.nodes:
            if not g.out_adj[v] and not g.in_adj[v]:
                raise FormatError(f"node {seq.label_of(v)!r} has no edge in snapshot "
                                  f"{ordinal}: an edge list cannot hold it")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for ordinal, g in zip(seq.ordinals, seq.snapshots):
            for i in g.nodes:
                for j in g.out_adj[i]:
                    fh.write(f"{seq.label_of(i)} {seq.label_of(j)} {ordinal}\n")


def churn_rows(seq: SnapshotSequence) -> list[tuple[int, int, int, int]]:
    """One (t, e_plus, e_minus, n_changed) row per consecutive snapshot
    pair; t is the dense index of the later snapshot (its position in
    `seq.snapshots`), not its input ordinal."""
    rows = []
    for t in range(1, seq.num_snapshots):
        stats = diff(seq.snapshots[t - 1], seq.snapshots[t])
        rows.append((t, stats.edges_added, stats.edges_deleted, stats.nodes_changed))
    return rows


def write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV, the one way every dgt output file
    is written: UTF-8, LF line ends, a float as its repr() and None as an
    empty cell (the csv module's own formatting of both)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_churn_report(seq: SnapshotSequence, path) -> None:
    """Write the churn CSV: header `t,e_plus,e_minus,n_changed`."""
    write_csv(path, ["t", "e_plus", "e_minus", "n_changed"], churn_rows(seq))
