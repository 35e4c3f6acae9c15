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
import operator
import os
from collections import defaultdict
from contextlib import contextmanager
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
    nodes that belong to a snapshot even without incident edges.  Every
    ordinal is read by `_ordinal`.  With `undirected=True` every record is
    materialized as two directed edges.

    FormatError at the first record that is not a (source, target,
    ordinal) tuple or list or whose ordinal `_ordinal` refuses, naming its
    position counted from 1; then on empty input, the first faulty
    `extra_nodes` ordinal, or a snapshot (by input ordinal) with no edges.
    """
    return _load(enumerate(records, 1), None, None, _ordinal, extra_nodes, undirected)


def _ordinal(raw) -> int:
    """The snapshot number `raw` names, for every reader: a `str` is read
    with `int()` (`10`, `+10`, `1_0` and `١٠` are one), any other value with
    `operator.index()` (not a float, even `2.0`).  ValueError, which the
    caller prefixes with where it read `raw`, if it is not a non-negative
    integer."""
    try:
        t = int(raw) if isinstance(raw, str) else operator.index(raw)
    except (TypeError, ValueError):
        raise ValueError(f"bad snapshot ordinal {raw!r}") from None
    if t < 0:
        raise ValueError(f"negative snapshot ordinal {t}")
    return t


# stands for "no previous line": equal to nothing a line holds
_UNSET = object()


def _load(rows, path, field: int | None, ordinal, extra_nodes,
          undirected: bool) -> SnapshotSequence:
    """The one loader loop behind `read_edge_list` and `load_edge_stream`.

    `rows` yields (position, row).  With a `path`, a row is a line of that
    file: it is split on whitespace, blank and `#` lines are skipped, and
    the ordinal is field `field` of at least 3.  Without one, a row is a
    (source, target, ordinal) record.  `ordinal` turns the ordinal into a
    snapshot number or raises ValueError.  The first faulty row raises.

    Consecutive lines mostly share their ordinal text, so `ordinal` runs
    on a line only when that text differs from the previous line's, and
    the snapshot bucket is looked up only when the snapshot changes.  A
    record's ordinal is always read (2.0 == 2, but only one is an ordinal).
    """
    text = path is not None
    where = f"{path}:" if text else "record "
    label_to_id: dict = {}
    get = label_to_id.get
    # per input ordinal: source id -> its target ids, repeats included
    buckets: dict[int, dict[int, list[int]]] = {}
    prev_raw = prev_t = _UNSET
    self_dropped = wide = 0
    for lineno, row in rows:
        if text:
            parts = row.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) == 3:
                src, dst, raw = parts
            else:
                if len(parts) < 3:
                    raise FormatError(f"{where}{lineno}: expected at least 3 columns")
                wide += len(parts) > 4
                src, dst, raw = parts[0], parts[1], parts[field]
        elif isinstance(row, (tuple, list)) and len(row) == 3:
            src, dst, raw = row
        else:
            raise FormatError(f"{where}{lineno}: expected a (source, target, ordinal) "
                              f"tuple or list, got {row!r}")
        if not text or raw != prev_raw:
            try:
                t = ordinal(raw)
            except ValueError as exc:
                raise FormatError(f"{where}{lineno}: {exc}") from None
            prev_raw = raw
            if t != prev_t:
                prev_t = t
                bucket = buckets.get(t)
                if bucket is None:
                    bucket = buckets[t] = {}
        i = get(src)
        if i is None:
            i = label_to_id[src] = len(label_to_id)
        j = get(dst)
        if j is None:
            j = label_to_id[dst] = len(label_to_id)
        if i == j:
            self_dropped += 1
            continue
        out = bucket.get(i)
        if out is None:
            bucket[i] = [j]
        else:
            out.append(j)
        if undirected:
            back = bucket.get(j)
            if back is None:
                bucket[j] = [i]
            else:
                back.append(i)
    if not buckets:
        raise FormatError("no edges")

    declared: dict[int, set[int]] = {}
    for label, t in extra_nodes or ():
        try:
            t = _ordinal(t)
        except ValueError as exc:
            raise FormatError(f"{exc} in node list") from None
        declared.setdefault(t, set()).add(label_to_id.setdefault(label, len(label_to_id)))

    # every kept row appended 1 (2 if undirected) targets; the snapshots keep the rest
    appended = sum(len(js) for targets in buckets.values() for js in targets.values())
    dense = {t: k for k, t in enumerate(sorted(buckets.keys() | declared.keys()))}
    snapshots = []
    edgeless = []
    for raw, k in dense.items():
        targets = buckets.pop(raw, None)
        if not targets:
            edgeless.append(raw)
            continue
        snapshots.append(SnapshotGraph._from_targets(targets, k, declared.get(raw, ())))

    duplicates = appended - sum(g.m for g in snapshots)
    if wide:
        logger.warning("ignored the extra fields of %d line(s) with more than 4", wide)
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


@contextmanager
def _text_file(path):
    """The open UTF-8 text file of every reader, a leading BOM dropped and
    line ends kept for csv; FormatError if a line is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text") from exc


def _snapshot_field(path, snapshot_by: str):
    """(field, ordinal) of `_load` for an edge-list file: the index of the
    field that names a line's snapshot, and the function that turns it
    into a snapshot number.  The mode is checked before the file is
    opened; window mode then reads the file once to find the earliest
    timestamp."""
    if snapshot_by == "column":
        return 2, _ordinal
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
    t0 = _earliest_timestamp(path)

    def window_of(stamp: str) -> int:
        try:
            ts = float(stamp)
        except ValueError:  # the file changed between the passes
            raise ValueError(f"bad timestamp {stamp!r}") from None
        bucket = (ts - t0) // window
        if not math.isfinite(bucket):
            raise ValueError(f"timestamp {stamp!r} is too far from the earliest "
                             f"for window width {window!r}")
        return int(bucket)

    return -1, window_of


def _earliest_timestamp(path) -> float:
    """The earliest last-field timestamp of an edge-list file, holding
    nothing else.  FormatError at the first short line or timestamp that
    is not a finite number."""
    t0 = math.inf
    with _text_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) < 3:
                raise FormatError(f"{path}:{lineno}: expected at least 3 columns")
            try:
                ts = float(parts[-1])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: bad timestamp {parts[-1]!r}") from None
            if not math.isfinite(ts):
                raise FormatError(f"{path}:{lineno}: non-finite timestamp {parts[-1]!r}")
            t0 = min(t0, ts)
    return t0


def parse_node_file(path):
    """Parse an optional node-list file: lines of `label snapshot`."""
    entries = []
    with _text_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected `label snapshot`")
            try:
                entries.append((parts[0], _ordinal(parts[1])))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from None
    return entries


def read_edge_list(path, snapshot_by: str = "column", extra_nodes=None,
                   undirected: bool = False) -> SnapshotSequence:
    """Parse an edge-list file and load it into a SnapshotSequence.

    Each non-comment line is `source target snapshot [timestamp]`, its
    snapshot field read by `_ordinal`.  With snapshot_by="window:<W>" the
    last field is read as a timestamp and bucketed into windows of W
    seconds from the earliest (the snapshot field may then be omitted).  The fields a mode does not read are ignored; the lines of
    more than 4 fields are counted in a warning.

    Column mode reads the file in one pass, window mode in two (the first
    finds the earliest timestamp).  Each line is split, checked and
    appended to its snapshot's list of its source's targets as it is read,
    so no list of all records is held and the loader's peak stays near the
    size of the graph it returns.  FormatError at the first faulty line,
    named as `path:line`: a short line, or an ordinal or timestamp that
    names no snapshot.  A timestamp too far from the earliest for the
    window width shows only in the second pass, after every other fault.
    """
    field, ordinal = _snapshot_field(path, snapshot_by)
    with _text_file(path) as fh:
        return _load(enumerate(fh, start=1), path, field, ordinal, extra_nodes, undirected)


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
