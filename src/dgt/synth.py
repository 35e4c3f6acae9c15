"""Planted-partition benchmark generator for dynamic directed networks.

Snapshot 0 plants equal-size communities and samples every ordered node
pair independently (p_in within a community, p_out across).  Each later
snapshot moves a fixed fraction of nodes to other communities and
resamples only the edges incident to moved nodes, so consecutive snapshots
keep realistic edge-churn locality.

The draws come from `dgt.rng` and replay numpy's `Generator.random`,
`choice(replace=False)` and `integers` call for call, so a fixed rng_seed
gives the benchmark it gave when this module called numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .initialization import GroundTruth
from .rng import PCG64
from .snapshot_graph import SnapshotGraph, SnapshotSequence


@dataclass(frozen=True)
class SynthConfig:
    communities: int = 4
    community_size: int = 25
    p_in: float = 0.3
    p_out: float = 0.01
    churn: float = 0.1
    num_snapshots: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        if self.communities < 1 or self.community_size < 1 or self.num_snapshots < 1:
            raise ConfigError("communities, community_size and num_snapshots must be >= 1")
        if not 0.0 <= self.p_out < self.p_in <= 1.0:
            raise ConfigError("need 0 <= p_out < p_in <= 1")
        if not 0.0 <= self.churn <= 1.0:
            raise ConfigError("churn must be in [0, 1]")

    @property
    def n(self) -> int:
        return self.communities * self.community_size


def _expected_edges(cfg: SynthConfig) -> float:
    n = cfg.n
    intra_pairs = cfg.communities * cfg.community_size * (cfg.community_size - 1)
    inter_pairs = n * (n - 1) - intra_pairs
    return intra_pairs * cfg.p_in + inter_pairs * cfg.p_out


def _attempt(cfg: SynthConfig, rng: PCG64) -> tuple[list[list[set[int]]], list[list[int]]]:
    """Each snapshot's out-neighbour sets and community list.

    Each snapshot replays numpy's `rng.random((n, n)) < probs`: one 64-bit
    draw per ordered pair, row-major, the diagonal (probability 0)
    included.  `random() < p` is tested as `next64() >> 11 < p * 2**53`,
    both sides scaled by 2**53 exactly.  Snapshot 0 counts every node as
    moved.
    """
    n, communities = cfg.n, cfg.communities
    assignment = [v // cfg.community_size for v in range(n)]
    p_in, p_out = cfg.p_in * 2**53, cfg.p_out * 2**53
    next64 = rng.next64
    moved_count = int(cfg.churn * n)
    moved: list[int] = list(range(n))
    rows: list[set[int]] = [set() for _ in range(n)]
    snapshots, assignments = [], []
    for t in range(cfg.num_snapshots):
        if t:
            moved = rng.choice(n, moved_count)
            if communities > 1:
                for v in moved:
                    assignment[v] = (assignment[v] + rng.integers(1, communities)) % communities
        moved_set = set(moved)
        by_community = [[p_in if a == c else p_out for a in assignment] for c in range(communities)]
        rows = list(rows)
        for i in range(n):
            fresh = {j for j, p in enumerate(by_community[assignment[i]]) if next64() >> 11 < p}
            fresh.discard(i)
            rows[i] = fresh if i in moved_set else (rows[i] - moved_set) | (fresh & moved_set)
        snapshots.append(rows)
        assignments.append(list(assignment))
    return snapshots, assignments


def generate(cfg: SynthConfig) -> tuple[SnapshotSequence, GroundTruth]:
    """Sample a benchmark; deterministic for a fixed rng_seed.

    Node labels equal node ids (0..n-1).  If a sampled snapshot comes out
    edgeless the whole draw retries on a fresh seed stream; a config whose
    expected edge count is zero is rejected outright.
    """
    if _expected_edges(cfg) == 0.0:
        raise ConfigError("infeasible config: expected edge count is zero")
    n = cfg.n
    for attempt in range(100):
        snapshots_rows, assignments = _attempt(cfg, PCG64(cfg.rng_seed, spawn_key=(attempt,)))
        if all(any(rows) for rows in snapshots_rows):
            break
    else:
        raise ConfigError("could not sample a sequence with edges in every snapshot")

    snapshots = []
    for t, rows in enumerate(snapshots_rows):
        edges = [(i, j) for i, row in enumerate(rows) for j in sorted(row)]
        snapshots.append(SnapshotGraph.from_edges(edges, index_t=t, nodes=range(n)))
    seq = SnapshotSequence(
        snapshots=snapshots,
        label_to_id={v: v for v in range(n)},
        id_to_label=list(range(n)),
    )
    truth = GroundTruth(by_snapshot={t: dict(enumerate(a)) for t, a in enumerate(assignments)})
    return seq, truth
