"""Independent literal implementations used as test oracles.

Everything here is written directly from the defining formulas with plain
loops and set algebra, deliberately sharing no code with the library's
computation paths (only the graph container and the move types are
reused).  The kernel, gain, utility and best-response oracles compute in
exact `Fraction` arithmetic, so the engine's integer scores can be checked
with `==` and its floats against the correctly rounded `float()` of the
exact value.  The snapshot builder, edge-list parser and loader oracles are
the earlier two-pass implementations, kept as the reference for the
one-pass code.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from dgt.errors import FormatError, PreconditionError
from dgt.gain_functions import Join, Leave, NoOp, Switch
from dgt.snapshot_graph import ChangeStats, SnapshotGraph, SnapshotSequence


def similarity_oracle(g: SnapshotGraph, i: int, j: int) -> Fraction:
    """Four-branch kernel evaluated straight from adjacency sets, exactly."""
    w = len(set(g.out_adj[i]) & set(g.out_adj[j]))
    adjacent = j in set(g.out_adj[i])
    dd = len(g.in_adj[i]) * len(g.out_adj[j])
    if adjacent and w >= 1:
        return w * (1 - Fraction(dd, 2 * g.m))
    if not adjacent and w >= 1:
        return Fraction(w, g.n)
    if adjacent:
        return Fraction(dd, 4 * g.m)
    return -Fraction(dd, 4 * g.m)


def gain_similarity_oracle(g: SnapshotGraph, communities: dict, agent: int, labels) -> Fraction:
    """Union-of-co-members similarity gain."""
    co_members = set()
    for k in labels:
        co_members |= set(communities[k])
    co_members.discard(agent)
    return sum((similarity_oracle(g, agent, j) for j in co_members), Fraction(0)) / g.m


def gain_modularity_oracle(g: SnapshotGraph, communities: dict, memberships: dict,
                           agent: int, labels) -> Fraction:
    """Literal triple sum: over held labels k, co-members j of k, and j's
    labels k'; delta(i,j) is the shared-community indicator and the null
    term counts only when k' == k."""
    m = g.m
    out_i = set(g.out_adj[agent])
    total = Fraction(0)
    for k in labels:
        for j in communities[k]:
            if j == agent:
                continue
            a_ij = 1 if j in out_i else 0
            delta_ij = 1 if set(memberships[agent]) & set(memberships[j]) else 0
            null = Fraction(len(g.in_adj[agent]) * len(g.out_adj[j]), 2 * m)
            for k_prime in memberships[j]:
                total += a_ij * delta_ij - null * (1 if k_prime == k else 0)
    return total / (2 * m)


def utility_oracle(g: SnapshotGraph, communities: dict, memberships: dict,
                   agent: int, labels, gain: str) -> Fraction:
    if gain == "similarity":
        benefit = gain_similarity_oracle(g, communities, agent, labels)
    else:
        benefit = gain_modularity_oracle(g, communities, memberships, agent, labels)
    return benefit - Fraction(len(labels), g.m)


def potential_oracle(g: SnapshotGraph, communities: dict, memberships: dict) -> Fraction:
    """Phi* = (1/2) * (total similarity gain) - (total loss) over all agents.

    A move by agent i changes co-membership only for pairs that contain i,
    so when the kernel is symmetric (a graph holding each edge both ways)
    Phi* changes by exactly i's utility change on every move: the
    similarity game is then an exact potential game (Monderer and Shapley,
    "Potential games", Games Econ. Behav. 14, 1996).  On a directed graph
    it is not a potential.
    """
    labels = {v: memberships.get(v, ()) for v in g.nodes}
    gain = sum((gain_similarity_oracle(g, communities, v, labels[v]) for v in g.nodes),
               Fraction(0))
    loss = Fraction(sum(len(ks) for ks in labels.values()), g.m)
    return gain / 2 - loss


def contribution_oracle(g: SnapshotGraph, communities: dict, memberships: dict,
                        agent: int, k: int, gain: str) -> Fraction:
    """Raw gain of community k taken alone, not divided by m or 2m.

    Similarity: the kernel summed over k's co-members.  Modularity: the
    triple sum restricted to k, whose sum over a co-member's labels is
    A[agent][j]*delta(agent,j)*|labels(j)| minus one null term.
    """
    m = g.m
    out_i = set(g.out_adj[agent])
    total = Fraction(0)
    for j in communities[k]:
        if j == agent:
            continue
        if gain == "similarity":
            total += similarity_oracle(g, agent, j)
        else:
            a_ij = 1 if j in out_i else 0
            delta_ij = 1 if set(memberships[agent]) & set(memberships[j]) else 0
            null = Fraction(len(g.in_adj[agent]) * len(g.out_adj[j]), 2 * m)
            total += a_ij * delta_ij * len(memberships[j]) - null
    return total


def delta_oracle(g: SnapshotGraph, communities: dict, memberships: dict, agent: int,
                 gain: str, leave=None, join=None) -> Fraction:
    """Exact utility change of `agent` leaving community `leave` and/or
    joining `join`: two full utility evaluations, before and after."""
    after_c = {k: set(vs) for k, vs in communities.items()}
    after_m = {v: set(ks) for v, ks in memberships.items()}
    after_m.setdefault(agent, set())
    if leave is not None:
        after_c[leave].discard(agent)
        after_m[agent].discard(leave)
    if join is not None:
        after_c[join].add(agent)
        after_m[agent].add(join)
    held = memberships.get(agent, set())
    return (utility_oracle(g, after_c, after_m, agent, after_m[agent], gain)
            - utility_oracle(g, communities, memberships, agent, held, gain))


def best_response_oracle(g: SnapshotGraph, communities: dict, memberships: dict,
                         agent: int, gain: str):
    """The game's best response in exact arithmetic: (action, delta).

    The action set is the engine's: every join of a community hosting one
    of the agent's in- or out-neighbours, every leave, and the one switch
    from the best leave to the best join, each of those the lowest id
    among equal deltas.  The highest strictly positive delta wins, switch
    before join before leave on equal deltas; NoOp with delta 0 when none
    is positive.
    """
    held = set(memberships.get(agent, ()))
    hosts = set()
    for v in set(g.out_adj[agent]) | set(g.in_adj[agent]):
        hosts |= set(memberships.get(v, ()))

    def delta(**move):
        return delta_oracle(g, communities, memberships, agent, gain, **move)

    joins = {k: delta(join=k) for k in hosts - held}
    leaves = {k: delta(leave=k) for k in held}
    k_in = max(joins, key=lambda k: (joins[k], -k), default=None)
    k_out = max(leaves, key=lambda k: (leaves[k], -k), default=None)
    moves = []  # in the order that wins a tie
    if k_in is not None and k_out is not None:
        moves.append((delta(leave=k_out, join=k_in), Switch(k_out, k_in)))
    if k_in is not None:
        moves.append((joins[k_in], Join(k_in)))
    if k_out is not None:
        moves.append((leaves[k_out], Leave(k_out)))
    best, action = Fraction(0), NoOp()
    for value, move in moves:
        if value > best:
            best, action = value, move
    return action, best


def modularity_directed_oracle(g: SnapshotGraph, p: dict) -> float:
    """Literal double loop over all ordered node pairs, i == j included."""
    m = g.m
    q = 0.0
    for i in g.nodes:
        out_i = set(g.out_adj[i])
        for j in g.nodes:
            if p[i] != p[j]:
                continue
            a = 1.0 if j in out_i else 0.0
            q += a - (len(g.in_adj[i]) * len(g.out_adj[j])) / m
    return q / m


def modularity_undirected_oracle(g: SnapshotGraph, p: dict) -> float:
    """Symmetrize, then the classic (1/2m) sum over ordered pairs."""
    und = {v: set() for v in g.nodes}
    for v in g.nodes:
        for j in g.out_adj[v]:
            und[v].add(j)
            und[j].add(v)
    two_m = sum(len(nbrs) for nbrs in und.values())
    q = 0.0
    for i in g.nodes:
        for j in g.nodes:
            if p[i] != p[j]:
                continue
            a = 1.0 if j in und[i] else 0.0
            q += a - (len(und[i]) * len(und[j])) / two_m
    return q / two_m


def nmi_oracle(x: dict, y: dict) -> float:
    """Direct probability-table evaluation of normalized mutual information.

    Same degenerate-entropy conventions as the library: both entropies zero
    means identical single-community partitions (1.0); exactly one zero
    means no shared information (0.0).
    """
    nodes = sorted(x)
    total = len(nodes)
    joint = Counter((x[v], y[v]) for v in nodes)
    px = Counter(x[v] for v in nodes)
    py = Counter(y[v] for v in nodes)
    hx = -sum((c / total) * math.log(c / total) for c in px.values())
    hy = -sum((c / total) * math.log(c / total) for c in py.values())
    if hx == 0.0 and hy == 0.0:
        return 1.0
    if hx == 0.0 or hy == 0.0:
        return 0.0
    info = 0.0
    for (lx, ly), c in joint.items():
        p_xy = c / total
        info += p_xy * math.log(p_xy / ((px[lx] / total) * (py[ly] / total)))
    return 2.0 * info / (hx + hy)


def random_digraph(rng: np.random.Generator, max_nodes: int, p: float = 0.3,
                   min_nodes: int = 3) -> SnapshotGraph:
    """Random directed graph with at least one edge."""
    while True:
        n = int(rng.integers(min_nodes, max_nodes + 1))
        edges = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
        if edges:
            return SnapshotGraph.from_edges(edges, nodes=range(n))


def random_partition(rng: np.random.Generator, nodes, max_groups: int | None = None) -> dict:
    nodes = list(nodes)
    k = int(rng.integers(1, (max_groups or len(nodes)) + 1))
    return {v: int(rng.integers(0, k)) for v in nodes}


def random_structure(rng: np.random.Generator, g: SnapshotGraph):
    """Random overlapping community structure covering every node."""
    from dgt.game_engine import CommunityStructure

    structure = CommunityStructure()
    for v in g.nodes:
        structure.add_agent(v)
    for _ in range(int(rng.integers(2, 7))):
        members = [v for v in g.nodes if rng.random() < 0.4]
        if members:
            structure.create_community(members)
    for v in g.nodes:
        if not structure.memberships[v]:
            structure.create_community([v])
    return structure


def common_neighbors(g: SnapshotGraph, i: int, j: int) -> int:
    """Number of nodes receiving a direct edge from both i and j."""
    if i == j:
        raise PreconditionError("common_neighbors requires i != j")
    if not g.has_node(i) or not g.has_node(j):
        raise PreconditionError(f"nodes {i}, {j} must both be in the snapshot")
    return len(set(g.out_adj[i]) & set(g.out_adj[j]))


def edge_set(g: SnapshotGraph) -> frozenset:
    """Every (source, target) pair of the snapshot."""
    return frozenset((i, j) for i, js in g.out_adj.items() for j in js)


def diff_oracle(prev: SnapshotGraph, next: SnapshotGraph) -> ChangeStats:
    """Churn from the two snapshots' whole edge sets."""
    e_prev, e_next = edge_set(prev), edge_set(next)
    added, deleted = e_next - e_prev, e_prev - e_next
    touched = {v for pair in added | deleted for v in pair}
    return ChangeStats(len(added), len(deleted), len(touched))


def sparse_pairs_oracle(g: SnapshotGraph, i: int) -> set[int]:
    """The nodes j whose pair (i, j) leaves the kernel's null-model branch:
    i's out-neighbours and every node sharing an out-neighbour with i."""
    return set(g.out_adj[i]) | {j for j in g.nodes
                                if j != i and common_neighbors(g, i, j) >= 1}


def from_edges_oracle(edges, index_t: int = 0, nodes=()) -> SnapshotGraph:
    """The set-of-pairs snapshot builder: every pair goes into one set
    before either adjacency map is filled."""
    pairs = set()
    for i, j in edges:
        if i == j:
            raise PreconditionError(f"self-edge on node {i} is not allowed")
        pairs.add((i, j))
    node_ids = set(nodes)
    for i, j in pairs:
        node_ids.add(i)
        node_ids.add(j)
    if not node_ids:
        raise PreconditionError("a snapshot must contain at least one node")
    out_adj = {v: [] for v in node_ids}
    in_adj = {v: [] for v in node_ids}
    for i, j in pairs:
        out_adj[i].append(j)
        in_adj[j].append(i)
    out_adj = {v: tuple(sorted(js)) for v, js in out_adj.items()}
    in_adj = {v: tuple(sorted(js)) for v, js in in_adj.items()}
    return SnapshotGraph(index_t, tuple(sorted(node_ids)), out_adj, in_adj)


def parse_edge_file_oracle(path, snapshot_by: str = "column"):
    """The two-pass edge-file parser: every line is split, checked in full
    and kept as a record before any record is loaded, so the first faulty
    line raises, named by its position.  In window mode a timestamp too far
    from the earliest is found once every timestamp has been read."""
    window = None
    if snapshot_by != "column":
        if not snapshot_by.startswith("window:"):
            raise FormatError(f"unknown snapshot-by mode {snapshot_by!r}")
        try:
            window = float(snapshot_by.split(":", 1)[1])
        except ValueError as exc:
            raise FormatError(f"bad window width in {snapshot_by!r}") from exc
        if not math.isfinite(window) or window <= 0:
            raise FormatError("window width must be positive and finite")

    rows = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                where = f"{path}:{lineno}"
                if len(parts) < 3:
                    raise FormatError(f"{where}: expected at least 3 columns")
                if window is None:
                    try:
                        t = int(parts[2])
                    except ValueError as exc:
                        raise FormatError(f"{where}: bad snapshot ordinal {parts[2]!r}") from exc
                    if t < 0:
                        raise FormatError(f"{where}: negative snapshot ordinal {t}")
                    rows.append((parts[0], parts[1], t))
                    continue
                try:
                    ts = float(parts[-1])
                except ValueError as exc:
                    raise FormatError(f"{where}: bad timestamp {parts[-1]!r}") from exc
                if not math.isfinite(ts):
                    raise FormatError(f"{where}: non-finite timestamp {parts[-1]!r}")
                rows.append((where, parts, ts))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text") from exc

    if window is None:
        return rows
    t0 = min((ts for _, _, ts in rows), default=0.0)
    records = []
    for where, parts, ts in rows:
        bucket = (ts - t0) // window
        if not math.isfinite(bucket):
            raise FormatError(f"{where}: timestamp {parts[-1]!r} is too far "
                              f"from the earliest for window width {window!r}")
        records.append((parts[0], parts[1], int(bucket)))
    return records


def load_edge_stream_oracle(records, extra_nodes=None, undirected: bool = False) -> SnapshotSequence:
    """The two-pass loader: ids and ordinals are collected over the whole
    record list first, each record checked before the next, then
    duplicates are counted edge by edge."""
    records = list(records)
    if not records:
        raise FormatError("no edges")
    extra_nodes = list(extra_nodes) if extra_nodes else []

    label_to_id: dict = {}
    id_to_label: list = []

    def intern(label) -> int:
        node = label_to_id.get(label)
        if node is None:
            node = len(id_to_label)
            label_to_id[label] = node
            id_to_label.append(label)
        return node

    raw = []
    ordinals = set()
    self_dropped = 0
    for position, (src, dst, t) in enumerate(records, 1):
        t = int(t)
        if t < 0:
            raise FormatError(f"record {position}: negative snapshot ordinal {t}")
        i = intern(src)
        j = intern(dst)
        ordinals.add(t)
        if i == j:
            self_dropped += 1
            continue
        raw.append((i, j, t))

    declared: dict[int, set[int]] = {}
    for label, t in extra_nodes:
        t = int(t)
        if t < 0:
            raise FormatError(f"negative snapshot ordinal {t} in node list")
        ordinals.add(t)
        declared.setdefault(t, set()).add(intern(label))

    dense = {t: k for k, t in enumerate(sorted(ordinals))}
    edges_by_t: dict[int, set] = {k: set() for k in range(len(dense))}
    duplicates = 0
    for i, j, t in raw:
        bucket = edges_by_t[dense[t]]
        before = len(bucket)
        bucket.add((i, j))
        if undirected:
            bucket.add((j, i))
            duplicates += before + 2 - len(bucket)
        else:
            duplicates += before + 1 - len(bucket)

    snapshots = []
    for t, k in dense.items():
        edges = edges_by_t[k]
        if not edges:
            raise FormatError(f"snapshot {t} has no edges")
        extras = {v for t, vs in declared.items() if dense[t] == k for v in vs}
        snapshots.append(SnapshotGraph.from_edges(edges, index_t=k, nodes=extras))

    return SnapshotSequence(snapshots=snapshots, label_to_id=label_to_id,
                            id_to_label=id_to_label, self_edges_dropped=self_dropped,
                            duplicates_collapsed=duplicates, ordinals=sorted(ordinals))
