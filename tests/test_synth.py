import hashlib
import math
from dataclasses import replace

import pytest

from dgt.errors import ConfigError
from dgt.snapshot_graph import diff
from dgt.synth import SynthConfig, generate

from oracles import edge_set
from test_acceptance import FIXTURE

# the sequence that the CLI tests write out and run
FIXTURE_CFG = SynthConfig(communities=3, community_size=6, p_in=0.5, p_out=0.02,
                          churn=0.1, num_snapshots=3, rng_seed=9)

# synth_digest of generate(cfg), computed when synth drew from numpy's Generator
DIGESTS = {
    replace(FIXTURE, rng_seed=0): "29c39f793e13f05b3932256926671b06e17d13aa110d0c6c83e77c31e3a1f8da",
    replace(FIXTURE, rng_seed=1): "a4d01c5764cb1914f5604db7430d8f15a7321e77919b17f7a2241b7b34ad2bd4",
    replace(FIXTURE, rng_seed=2): "cb62d661c8d812cad03a242be9a1cc5bad48de526de8b940ce18a91463bd0d1a",
    replace(FIXTURE, rng_seed=3): "249deec52e8485782c597182fafe6b6b36a8859fc3d4cda57072405855e8d271",
    replace(FIXTURE, rng_seed=4): "a9f7a36ee6f3f4859587e40849dbf63d58556d9efe9360d2a43aad7654832f15",
    replace(FIXTURE, rng_seed=5): "f16a070673286946c6fe621efd392e9d21ef74c1761247fbf6454e85442947c4",
    FIXTURE: "e6b9b3ff54f58e70edf67f70a68f8f41fd635138fa16199aa1a7f68eeb7ed890",
    FIXTURE_CFG: "27401dfa14cf7cf8584df7688138ed80f3757b7f1a9c3256eadb970cbd62d86c",
}


def synth_digest(seq, truth) -> str:
    """sha256 of a generated benchmark: an `e t i j` line per edge i -> j
    of snapshot t, then a `c t v k` line per node v of community k."""
    lines = [f"e {t} {i} {j}" for t, g in enumerate(seq.snapshots)
             for i in sorted(g.out_adj) for j in g.out_adj[i]]
    lines += [f"c {t} {v} {k}" for t, labels in truth.by_snapshot.items()
              for v, k in labels.items()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestSynthConfig:
    def test_probability_ordering_enforced(self):
        with pytest.raises(ConfigError):
            SynthConfig(p_in=0.1, p_out=0.2)
        with pytest.raises(ConfigError):
            SynthConfig(p_in=0.1, p_out=0.1)

    def test_counts_positive(self):
        with pytest.raises(ConfigError):
            SynthConfig(communities=0)
        with pytest.raises(ConfigError):
            SynthConfig(num_snapshots=0)

    def test_churn_bounds(self):
        with pytest.raises(ConfigError):
            SynthConfig(churn=1.2)

    def test_infeasible_expected_edges(self):
        with pytest.raises(ConfigError, match="infeasible"):
            generate(SynthConfig(communities=2, community_size=1, p_in=0.5, p_out=0.0))


@pytest.mark.parametrize("cfg", DIGESTS, ids=lambda cfg: f"seed{cfg.rng_seed}-n{cfg.n}")
def test_pinned_bytes(cfg):
    assert synth_digest(*generate(cfg)) == DIGESTS[cfg]


class TestGenerate:
    CFG = SynthConfig(communities=3, community_size=8, p_in=0.4, p_out=0.02,
                      churn=0.1, num_snapshots=4, rng_seed=5)

    def test_deterministic(self):
        seq1, truth1 = generate(self.CFG)
        seq2, truth2 = generate(self.CFG)
        assert truth1.by_snapshot == truth2.by_snapshot
        for g1, g2 in zip(seq1.snapshots, seq2.snapshots):
            assert edge_set(g1) == edge_set(g2)

    def test_shapes(self):
        seq, truth = generate(self.CFG)
        n = self.CFG.n
        assert seq.num_snapshots == 4
        assert seq.ordinals == [0, 1, 2, 3]
        for t, g in enumerate(seq.snapshots):
            assert g.n == n
            assert g.m >= 1
            assert sorted(truth.labels_for(t)) == list(range(n))

    def test_plant_is_partition(self):
        seq, truth = generate(self.CFG)
        for t in range(seq.num_snapshots):
            labels = truth.labels_for(t)
            assert set(labels.values()) <= set(range(self.CFG.communities))

    def test_churn_count_exact(self):
        seq, truth = generate(self.CFG)
        n = self.CFG.n
        expected_moves = int(self.CFG.churn * n)
        for t in range(1, seq.num_snapshots):
            prev, cur = truth.labels_for(t - 1), truth.labels_for(t)
            moved = sum(prev[v] != cur[v] for v in range(n))
            assert moved == expected_moves

    def test_zero_churn_freezes_everything(self):
        cfg = SynthConfig(communities=2, community_size=6, p_in=0.5, p_out=0.05,
                          churn=0.0, num_snapshots=3, rng_seed=1)
        seq, truth = generate(cfg)
        assert truth.labels_for(0) == truth.labels_for(1) == truth.labels_for(2)
        first = edge_set(seq.snapshots[0])
        assert all(edge_set(g) == first for g in seq.snapshots)

    def test_zero_out_probability_separates_blocks(self):
        cfg = SynthConfig(communities=2, community_size=10, p_in=0.5, p_out=0.0,
                          churn=0.0, num_snapshots=1, rng_seed=2)
        seq, truth = generate(cfg)
        labels = truth.labels_for(0)
        for i, j in edge_set(seq.snapshots[0]):
            assert labels[i] == labels[j]

    def test_resampling_touches_only_moved_nodes(self):
        seq, truth = generate(self.CFG)
        for t in range(1, seq.num_snapshots):
            prev, cur = truth.labels_for(t - 1), truth.labels_for(t)
            moved = {v for v in cur if prev[v] != cur[v]}
            changed_edges = (
                edge_set(seq.snapshots[t]) ^ edge_set(seq.snapshots[t - 1])
            )
            for i, j in changed_edges:
                assert i in moved or j in moved

    def test_intra_rate_within_three_sigma(self):
        cfg = SynthConfig(communities=4, community_size=25, p_in=0.3, p_out=0.01,
                          churn=0.1, num_snapshots=1, rng_seed=3)
        seq, truth = generate(cfg)
        labels = truth.labels_for(0)
        intra_pairs = cfg.communities * cfg.community_size * (cfg.community_size - 1)
        intra_edges = sum(
            1 for i, j in edge_set(seq.snapshots[0]) if labels[i] == labels[j]
        )
        sigma = math.sqrt(intra_pairs * cfg.p_in * (1 - cfg.p_in))
        assert abs(intra_edges - intra_pairs * cfg.p_in) <= 3 * sigma

    def test_churn_introduces_local_change(self):
        seq, _ = generate(self.CFG)
        for t in range(1, seq.num_snapshots):
            stats = diff(seq.snapshots[t - 1], seq.snapshots[t])
            assert stats.edges_added + stats.edges_deleted > 0
            assert stats.nodes_changed < self.CFG.n  # most nodes untouched
