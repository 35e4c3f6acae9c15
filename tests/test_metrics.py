import random
import tracemalloc

import numpy as np
import pytest

from dgt.errors import EmptyGraphError, MetricsError
from dgt.metrics import (
    count_error,
    modularity_directed,
    modularity_undirected,
    nmi,
    write_metrics_report,
)
from dgt.snapshot_graph import SnapshotGraph

from oracles import (
    edge_set,
    modularity_directed_oracle,
    modularity_undirected_oracle,
    nmi_oracle,
    random_digraph,
    random_partition,
)


def relabel(p: dict, rng: np.random.Generator) -> dict:
    labels = sorted(set(p.values()), key=str)
    perm = rng.permutation(len(labels))
    mapping = {lab: f"g{perm[i]}" for i, lab in enumerate(labels)}
    return {v: mapping[c] for v, c in p.items()}


class TestNmi:
    def test_identical_partitions(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = random_partition(rng, range(8))
            assert nmi(p, p) == 1.0

    def test_single_community_vs_singletons(self):
        x = {v: 0 for v in range(4)}
        y = {v: v for v in range(4)}
        assert nmi(x, y) == 0.0
        assert nmi(y, x) == 0.0

    def test_crossed_pairs_independent(self):
        x = {"a": 0, "b": 0, "c": 1, "d": 1}
        y = {"a": 0, "b": 1, "c": 0, "d": 1}
        assert nmi(x, y) == 0.0

    def test_both_single_community(self):
        x = {v: "only" for v in range(5)}
        y = {v: "whole" for v in range(5)}
        assert nmi(x, y) == 1.0

    def test_mismatched_node_sets(self):
        with pytest.raises(MetricsError):
            nmi({0: 0, 1: 0}, {0: 0, 2: 0})

    def test_empty(self):
        with pytest.raises(MetricsError):
            nmi({}, {})

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            nodes = range(int(rng.integers(2, 20)))
            x = random_partition(rng, nodes)
            y = random_partition(rng, nodes)
            v = nmi(x, y)
            assert 0.0 <= v <= 1.0
            assert v == nmi(y, x)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            nodes = range(int(rng.integers(2, 20)))
            x = random_partition(rng, nodes)
            y = random_partition(rng, nodes)
            assert nmi(relabel(x, rng), y) == pytest.approx(nmi(x, y), abs=1e-12)
            assert nmi(x, relabel(y, rng)) == pytest.approx(nmi(x, y), abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            nodes = range(int(rng.integers(2, 30)))
            x = random_partition(rng, nodes)
            y = random_partition(rng, nodes)
            assert nmi(x, y) == pytest.approx(nmi_oracle(x, y), abs=1e-12)


class TestModularityDirected:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            g = random_digraph(rng, 25)
            p = random_partition(rng, g.nodes)
            assert modularity_directed(g, p) == pytest.approx(
                modularity_directed_oracle(g, p), abs=1e-12
            )

    def test_all_singletons_formula(self):
        rng = np.random.default_rng(5)
        g = random_digraph(rng, 15)
        p = {v: v for v in g.nodes}
        expected = -sum(len(g.in_adj[v]) * len(g.out_adj[v]) for v in g.nodes) / g.m**2
        assert modularity_directed(g, p) == pytest.approx(expected, abs=1e-12)

    def test_two_three_cycles(self):
        g = SnapshotGraph.from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        p = {v: v // 3 for v in g.nodes}
        assert modularity_directed(g, p) == pytest.approx(0.5, abs=1e-12)

    def test_single_community_zero(self):
        rng = np.random.default_rng(6)
        g = random_digraph(rng, 10)
        p = {v: 0 for v in g.nodes}
        assert modularity_directed(g, p) == pytest.approx(0.0, abs=1e-12)

    def test_empty_graph_rejected(self):
        g = SnapshotGraph.from_edges([], nodes=[0, 1])
        with pytest.raises(EmptyGraphError):
            modularity_directed(g, {0: 0, 1: 0})

    def test_missing_node_rejected(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        with pytest.raises(MetricsError):
            modularity_directed(g, {0: 0})

    def test_relabel_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_digraph(rng, 15)
            p = random_partition(rng, g.nodes)
            assert modularity_directed(g, relabel(p, rng)) == pytest.approx(
                modularity_directed(g, p), abs=1e-12
            )


class TestModularityUndirected:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            g = random_digraph(rng, 25)
            p = random_partition(rng, g.nodes)
            assert modularity_undirected(g, p) == pytest.approx(
                modularity_undirected_oracle(g, p), abs=1e-12
            )

    def test_all_singletons_formula(self):
        rng = np.random.default_rng(9)
        g = random_digraph(rng, 12)
        und = {v: set() for v in g.nodes}
        for v in g.nodes:
            for j in g.out_adj[v]:
                und[v].add(j)
                und[j].add(v)
        m = sum(len(s) for s in und.values()) / 2
        expected = -sum(len(und[v]) ** 2 for v in g.nodes) / (4 * m**2)
        p = {v: v for v in g.nodes}
        assert modularity_undirected(g, p) == pytest.approx(expected, abs=1e-12)

    def test_two_disjoint_edges(self):
        g = SnapshotGraph.from_edges([(0, 1), (2, 3)])
        p = {0: "a", 1: "a", 2: "b", 3: "b"}
        assert modularity_undirected(g, p) == pytest.approx(0.5, abs=1e-12)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = random_digraph(rng, 15)
            p = random_partition(rng, g.nodes)
            assert modularity_undirected(g, relabel(p, rng)) == pytest.approx(
                modularity_undirected(g, p), abs=1e-12
            )


    def test_holds_one_neighbour_set_at_a_time(self):
        # a symmetric graph of 2 000 nodes and about 16 000 edges, which
        # with its partition traces 1.15 MB: a neighbour set per node at
        # once traced 1.25 times that; one set at a time traces 0.7%
        rng = random.Random(12)
        tracemalloc.start()
        try:
            pairs = {(rng.randrange(2000), rng.randrange(2000)) for _ in range(8000)}
            g = SnapshotGraph.from_edges({e for i, j in pairs if i != j
                                          for e in ((i, j), (j, i))})
            p = {v: v % 40 for v in g.nodes}
            del pairs
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            modularity_undirected(g, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m > 15_000
        assert peak - held < held / 20


class TestSymmetrizedEquivalence:
    def test_directed_reduces_to_undirected(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_digraph(rng, 18)
            sym_edges = set()
            for i, j in edge_set(g):
                sym_edges.add((i, j))
                sym_edges.add((j, i))
            gs = SnapshotGraph.from_edges(sym_edges, nodes=g.nodes)
            p = random_partition(rng, g.nodes)
            q_dir = modularity_directed(gs, p)
            q_und = modularity_undirected(g, p)
            assert q_dir == pytest.approx(q_und, abs=1e-12)
            assert modularity_undirected(gs, p) == pytest.approx(q_und, abs=1e-12)


class TestCountError:
    def test_identical(self):
        assert count_error([3, 4, 5], [3, 4, 5]) == 0

    def test_arithmetic(self):
        assert count_error([5, 6], [4, 8]) == 3

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            count_error([1], [1, 2])


class TestMetricsReport:
    def test_format(self, tmp_path):
        path = tmp_path / "metrics.csv"
        rows = [
            (0, 4.0, 4, 0.5, 0.25),
            (1, 6.0, 4, 1.0, 0.35),
        ]
        write_metrics_report(path, rows)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,n_communities_pred,n_communities_true,nmi,modularity"
        assert len(lines) == 4
        assert lines[-1].startswith("summary,")
        assert "±" in lines[-1]

    def test_blank_cells_without_truth(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_report(path, [(0, 4.0, None, None, 0.25)])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "0,4.0,,,0.25"
