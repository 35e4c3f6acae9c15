"""Partition quality measures: NMI, modularity, community-count error."""

from __future__ import annotations

import math
from collections import Counter

from .errors import EmptyGraphError, MetricsError
from .snapshot_graph import SnapshotGraph, write_csv


def _sum_floats(values) -> float:
    """Left-to-right sum from 0.0.  The builtin sum() of floats is
    compensated from Python 3.12 on, so it would make output bytes depend
    on the Python version."""
    total = 0.0
    for v in values:
        total += v
    return total


def nmi(x: dict, y: dict) -> float:
    """Normalized mutual information between two partitions of one node set.

    Computed from exact label-pair counts as 2*I(X,Y) / (H(X)+H(Y)), where
    I is the mutual information of the joint label distribution.  1 for
    identical partitions, 0 for independent ones.  Degenerate entropies:
    if both partitions are single-community the partitions are identical
    and the value is 1; if exactly one is, no information is shared and
    the value is 0.
    """
    if not x or not y:
        raise MetricsError("partitions must be non-empty")
    if set(x) != set(y):
        raise MetricsError("partitions must cover the same node set")
    total = len(x)
    # canonical node order makes the float sums independent of dict order
    # and exactly symmetric in (x, y)
    nodes = sorted(x, key=repr)
    joint = Counter((x[v], y[v]) for v in nodes)
    cx = Counter(x[v] for v in nodes)
    cy = Counter(y[v] for v in nodes)

    hx = -_sum_floats((c / total) * math.log(c / total) for c in cx.values())
    hy = -_sum_floats((c / total) * math.log(c / total) for c in cy.values())
    if hx == 0.0 and hy == 0.0:
        return 1.0
    if hx == 0.0 or hy == 0.0:
        return 0.0
    # log terms are split so that identical partitions reproduce the
    # entropy sums bitwise (the ratio is then exactly 1.0), and the
    # marginal logs are added before subtracting so the sum is exactly
    # symmetric in (x, y)
    info = 0.0
    for (lx, ly), c in joint.items():
        p_xy = c / total
        info += p_xy * (
            math.log(p_xy) - (math.log(cx[lx] / total) + math.log(cy[ly] / total))
        )
    value = 2.0 * info / (hx + hy)
    return min(1.0, max(0.0, value))


def _check_cover(g: SnapshotGraph, p: dict) -> None:
    missing = [v for v in g.nodes if v not in p]
    if missing:
        raise MetricsError(f"partition is missing nodes {missing[:5]}")


def modularity_directed(g: SnapshotGraph, p: dict) -> float:
    """Directed modularity: intra-community edge fraction minus the
    in-degree * out-degree null model, (1/m) sum_ij [A_ij - din_i*dout_j/m]
    over same-community pairs (including i = j)."""
    if g.m == 0:
        raise EmptyGraphError("empty graph")
    _check_cover(g, p)
    m = g.m
    intra: Counter = Counter()
    din_sum: Counter = Counter()
    dout_sum: Counter = Counter()
    for v in g.nodes:
        c = p[v]
        din_sum[c] += len(g.in_adj[v])
        dout_sum[c] += len(g.out_adj[v])
        for j in g.out_adj[v]:
            if p[j] == c:
                intra[c] += 1
    q = 0.0
    for c in din_sum:
        q += intra[c] - (din_sum[c] * dout_sum[c]) / m
    return q / m


def modularity_undirected(g: SnapshotGraph, p: dict) -> float:
    """Standard modularity of the symmetrized graph: each adjacent pair
    counts as one undirected edge regardless of direction multiplicity."""
    und: dict[int, set[int]] = {v: set() for v in g.nodes}
    for v in g.nodes:
        for j in g.out_adj[v]:
            und[v].add(j)
            und[j].add(v)
    m2 = sum(len(nbrs) for nbrs in und.values())  # 2m
    if m2 == 0:
        raise EmptyGraphError("empty graph")
    _check_cover(g, p)
    intra2: Counter = Counter()  # 2 * intra undirected edges
    deg_sum: Counter = Counter()
    for v in g.nodes:
        c = p[v]
        deg_sum[c] += len(und[v])
        for j in und[v]:
            if p[j] == c:
                intra2[c] += 1
    q = 0.0
    for c in deg_sum:
        q += intra2[c] / m2 - (deg_sum[c] / m2) ** 2
    return q


def count_error(predicted, actual) -> int:
    """Summed absolute difference between predicted and actual per-snapshot
    community counts."""
    predicted = list(predicted)
    actual = list(actual)
    if len(predicted) != len(actual):
        raise MetricsError(
            f"length mismatch: {len(predicted)} predicted vs {len(actual)} actual"
        )
    return sum(abs(int(p) - int(a)) for p, a in zip(predicted, actual))


def _mean_std(values) -> tuple[float, float]:
    values = [float(v) for v in values]
    n = len(values)
    mean = _sum_floats(values) / n
    if n < 2:
        return mean, 0.0
    var = _sum_floats((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def write_metrics_report(path, rows) -> None:
    """Write per-snapshot metric rows plus a mean +/- sample-std summary.

    `rows` are (t, n_communities_pred, n_communities_true, nmi, modularity)
    tuples; the truth-dependent cells may be None and are left blank.
    """
    summary = ["summary"]
    for col in range(1, 5):
        values = [row[col] for row in rows if row[col] is not None]
        if values:
            mean, std = _mean_std(values)
            summary.append(f"{mean!r}±{std!r}")
        else:
            summary.append("")
    write_csv(path, ["t", "n_communities_pred", "n_communities_true", "nmi", "modularity"],
              [*rows, summary])
