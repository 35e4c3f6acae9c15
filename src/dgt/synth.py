"""Planted-partition benchmark generator for dynamic directed networks.

Snapshot 0 plants equal-size communities and samples every ordered node
pair independently (p_in within a community, p_out across).  Each later
snapshot moves a fixed fraction of nodes to other communities and
resamples only the edges incident to moved nodes, so consecutive snapshots
keep realistic edge-churn locality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError
from .initialization import GroundTruth
from .snapshot_graph import SnapshotGraph, SnapshotSequence

if TYPE_CHECKING:
    import numpy as np


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


def _prob_matrix(assignment: np.ndarray, cfg: SynthConfig) -> np.ndarray:
    import numpy as np

    same = assignment[:, None] == assignment[None, :]
    probs = np.where(same, cfg.p_in, cfg.p_out)
    np.fill_diagonal(probs, 0.0)
    return probs


def _attempt(cfg: SynthConfig, rng: np.random.Generator):
    import numpy as np

    n = cfg.n
    assignment = np.repeat(np.arange(cfg.communities), cfg.community_size)
    adjacency = rng.random((n, n)) < _prob_matrix(assignment, cfg)
    snapshots_adj = [adjacency]
    assignments = [assignment.copy()]
    moved_count = int(cfg.churn * n)
    for _ in range(1, cfg.num_snapshots):
        assignment = assignment.copy()
        if moved_count > 0:
            moved = rng.choice(n, size=moved_count, replace=False)
            if cfg.communities > 1:
                shift = rng.integers(1, cfg.communities, size=moved_count)
                assignment[moved] = (assignment[moved] + shift) % cfg.communities
        else:
            moved = np.empty(0, dtype=np.int64)
        touched = np.zeros(n, dtype=bool)
        touched[moved] = True
        incident = touched[:, None] | touched[None, :]
        fresh = rng.random((n, n)) < _prob_matrix(assignment, cfg)
        adjacency = np.where(incident, fresh, snapshots_adj[-1])
        np.fill_diagonal(adjacency, False)
        snapshots_adj.append(adjacency)
        assignments.append(assignment.copy())
    return snapshots_adj, assignments


def generate(cfg: SynthConfig) -> tuple[SnapshotSequence, GroundTruth]:
    """Sample a benchmark; deterministic for a fixed rng_seed.

    Node labels equal node ids (0..n-1).  If a sampled snapshot comes out
    edgeless the whole draw retries on a fresh seed stream; a config whose
    expected edge count is zero is rejected outright.  numpy is imported
    here, not with the package, so that `dgt run` never loads it.
    """
    import numpy as np

    if _expected_edges(cfg) == 0.0:
        raise ConfigError("infeasible config: expected edge count is zero")
    n = cfg.n
    for attempt in range(100):
        seed_seq = np.random.SeedSequence(cfg.rng_seed, spawn_key=(attempt,))
        rng = np.random.Generator(np.random.PCG64(seed_seq))
        snapshots_adj, assignments = _attempt(cfg, rng)
        if all(adj.any() for adj in snapshots_adj):
            break
    else:
        raise ConfigError("could not sample a sequence with edges in every snapshot")

    snapshots = []
    for t, adj in enumerate(snapshots_adj):
        src, dst = np.nonzero(adj)
        edges = list(zip(src.tolist(), dst.tolist()))
        snapshots.append(SnapshotGraph.from_edges(edges, index_t=t, nodes=range(n)))
    seq = SnapshotSequence(
        snapshots=snapshots,
        label_to_id={v: v for v in range(n)},
        id_to_label=list(range(n)),
    )
    truth = GroundTruth(
        by_snapshot={
            t: {v: int(a[v]) for v in range(n)} for t, a in enumerate(assignments)
        }
    )
    return seq, truth
