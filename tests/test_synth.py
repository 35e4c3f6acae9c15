import math

import pytest

from dgt.errors import ConfigError
from dgt.snapshot_graph import diff
from dgt.synth import SynthConfig, generate

from oracles import edge_set


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
