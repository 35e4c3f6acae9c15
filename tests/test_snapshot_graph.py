import logging
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dgt
from dgt.errors import FormatError, PreconditionError
from dgt.snapshot_graph import (
    ChangeStats,
    SnapshotGraph,
    churn_rows,
    diff,
    load_edge_stream,
    parse_node_file,
    read_edge_list,
    write_churn_report,
    write_csv,
    write_edge_list,
)

from oracles import common_neighbors, random_digraph


@pytest.fixture(scope="module")
def random_edge_file(tmp_path_factory):
    """Three snapshots of 17 000 random edges on 5 000 labels each."""
    rng = random.Random(11)
    path = tmp_path_factory.mktemp("edges") / "e.txt"
    with open(path, "w", encoding="utf-8") as fh:
        for t in range(3):
            for _ in range(17_000):
                fh.write(f"n{rng.randrange(5000)} n{rng.randrange(5000)} {t}\n")
    return path


class TestLoadEdgeStream:
    def test_two_node_cycle(self):
        seq = load_edge_stream([("a", "b", 0), ("b", "a", 0)])
        assert seq.num_snapshots == 1
        g = seq.snapshots[0]
        assert g.n == 2 and g.m == 2

    def test_self_edge_dropped_and_counted(self):
        seq = load_edge_stream([("a", "a", 0), ("a", "b", 0)])
        g = seq.snapshots[0]
        assert g.n == 2 and g.m == 1
        assert seq.self_edges_dropped == 1

    def test_duplicates_collapse(self):
        seq = load_edge_stream([("a", "b", 0), ("a", "b", 0), ("a", "b", 0)])
        assert seq.snapshots[0].m == 1
        assert seq.duplicates_collapsed == 2

    @pytest.mark.parametrize("records, undirected, collapsed", [
        ([("a", "b", 0)] * 3, False, 2),
        ([("a", "b", 0), ("b", "a", 0)], True, 2),
        ([("a", "b", 0), ("b", "a", 0), ("a", "b", 1)], False, 0),
    ])
    def test_duplicates_reported(self, caplog, records, undirected, collapsed):
        with caplog.at_level(logging.WARNING, logger="dgt.snapshot_graph"):
            seq = load_edge_stream(records, undirected=undirected)
        assert seq.duplicates_collapsed == collapsed
        expected = [f"collapsed {collapsed} duplicate edge(s) in input"] if collapsed else []
        assert [r.getMessage() for r in caplog.records] == expected

    def test_negative_ordinal_reported_after_parse_errors(self):
        def records():
            yield ("a", "b", -1)
            raise FormatError("parse error later in the stream")

        with pytest.raises(FormatError, match="parse error"):
            load_edge_stream(records())

    def test_thirty_snapshots(self):
        records = [(f"u{t}", f"v{t}", t) for t in range(30)]
        seq = load_edge_stream(records)
        assert seq.num_snapshots == 30
        assert [g.index_t for g in seq.snapshots] == list(range(30))

    def test_empty_input(self):
        with pytest.raises(FormatError, match="no edges"):
            load_edge_stream([])

    def test_negative_ordinal(self):
        with pytest.raises(FormatError, match="negative"):
            load_edge_stream([("a", "b", -1)])

    def test_ordinals_densified(self):
        seq = load_edge_stream([("a", "b", 2), ("b", "c", 7)])
        assert seq.num_snapshots == 2
        assert [g.index_t for g in seq.snapshots] == [0, 1]
        assert seq.ordinals == [2, 7]

    def test_ids_stable_across_snapshots(self):
        seq = load_edge_stream([("x", "y", 0), ("y", "x", 1), ("z", "x", 1)])
        assert seq.label_to_id == {"x": 0, "y": 1, "z": 2}
        assert len(seq.id_to_label) == 3
        assert seq.snapshots[0].n == 2 and seq.snapshots[1].n == 3

    def test_snapshot_of_only_self_edges_rejected(self):
        with pytest.raises(FormatError, match="snapshot 0 has no edges"):
            load_edge_stream([("a", "a", 0), ("a", "b", 1)])

    def test_declared_isolated_nodes(self):
        seq = load_edge_stream([("a", "b", 0)], extra_nodes=[("ghost", 0)])
        g = seq.snapshots[0]
        assert g.n == 3 and g.m == 1
        assert g.out_adj[seq.label_to_id["ghost"]] == ()

    def test_declared_nodes_on_gapped_ordinals(self):
        seq = load_edge_stream([("a", "b", 2), ("a", "b", 5), ("a", "b", 9)],
                               extra_nodes=[("x", 2), ("y", 9), ("z", 5), ("w", 9)])
        assert seq.ordinals == [2, 5, 9]
        assert [[seq.label_of(v) for v in g.nodes] for g in seq.snapshots] == [
            ["a", "b", "x"], ["a", "b", "z"], ["a", "b", "y", "w"]]

    def test_undirected_mode(self):
        seq = load_edge_stream([("a", "b", 0)], undirected=True)
        g = seq.snapshots[0]
        assert g.m == 2
        assert g.out_adj == {0: (1,), 1: (0,)}

    def test_integer_labels(self):
        seq = load_edge_stream([(5, 9, 0)])
        assert seq.label_of(0) == 5 and seq.label_of(1) == 9


class TestGraphInvariants:
    def test_from_edges_rejects_self_edge(self):
        with pytest.raises(PreconditionError):
            SnapshotGraph.from_edges([(1, 1)])

    @pytest.mark.parametrize("edges, nodes, bad", [
        ([(-1, 0), (-1, 1), (0, 1)], (), -1),
        ([(0, -2)], (), -2),
        ([(0, 1)], (3, -4), -4),
    ], ids=["source", "target", "declared"])
    def test_from_edges_rejects_negative_ids(self, edges, nodes, bad):
        # GainContext indexes its degree lists by id, so -1 would read the
        # last slot
        with pytest.raises(PreconditionError, match=f"node id {bad} "):
            SnapshotGraph.from_edges(edges, nodes=nodes)

    def test_degree_sums_equal_m(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_digraph(rng, 20)
            assert sum(len(g.out_adj[v]) for v in g.nodes) == g.m
            assert sum(len(g.in_adj[v]) for v in g.nodes) == g.m

    def test_adjacency_consistency(self):
        rng = np.random.default_rng(1)
        g = random_digraph(rng, 15)
        for i in g.nodes:
            for j in g.out_adj[i]:
                assert i in g.in_adj[j]


class TestCommonNeighbors:
    def test_single_shared_target(self):
        g = SnapshotGraph.from_edges([(0, 2), (1, 2)])
        assert common_neighbors(g, 0, 1) == 1

    def test_set_intersection_cases(self):
        # i -> {k1, k2}, j -> {k2, k3}
        g = SnapshotGraph.from_edges([(0, 2), (0, 3), (1, 3), (1, 4)])
        assert common_neighbors(g, 0, 1) == 1

    def test_disjoint_out_neighborhoods(self):
        g = SnapshotGraph.from_edges([(0, 2), (1, 3)])
        assert common_neighbors(g, 0, 1) == 0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_digraph(rng, 15)
            nodes = list(g.nodes)
            for _ in range(20):
                i, j = rng.choice(nodes, size=2, replace=False)
                assert common_neighbors(g, int(i), int(j)) == common_neighbors(g, int(j), int(i))

    def test_matches_direct_intersection(self):
        rng = np.random.default_rng(3)
        g = random_digraph(rng, 20)
        for i in g.nodes:
            for j in g.nodes:
                if i != j:
                    expected = len(set(g.out_adj[i]) & set(g.out_adj[j]))
                    assert common_neighbors(g, i, j) == expected

    def test_rejects_same_node(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        with pytest.raises(PreconditionError):
            common_neighbors(g, 0, 0)


class TestDiff:
    def test_identical(self):
        g = SnapshotGraph.from_edges([(0, 1), (1, 2)])
        assert diff(g, g) == ChangeStats(0, 0, 0)

    def test_one_added_one_deleted(self):
        prev = SnapshotGraph.from_edges([(0, 1)], nodes=[0, 1, 2])
        next_ = SnapshotGraph.from_edges([(0, 2)], nodes=[0, 1, 2], index_t=1)
        assert diff(prev, next_) == ChangeStats(1, 1, 3)

    def test_one_deleted(self):
        prev = SnapshotGraph.from_edges([(0, 1), (1, 2)])
        next_ = SnapshotGraph.from_edges([(0, 1)], nodes=[0, 1, 2], index_t=1)
        assert diff(prev, next_) == ChangeStats(0, 1, 2)

    def test_diff_self_zero_on_loaded(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            g = random_digraph(rng, 12)
            assert diff(g, g) == ChangeStats(0, 0, 0)


class TestRoundTrip:
    def test_serialize_reload_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        records = []
        for t in range(3):
            g = random_digraph(rng, 12)
            records.extend((f"n{i}", f"n{j}", t) for i, j in sorted(g.edge_set()))
        seq = load_edge_stream(records)
        path = tmp_path / "edges.txt"
        write_edge_list(seq, path)
        reloaded = read_edge_list(path)
        assert reloaded.num_snapshots == seq.num_snapshots
        for g1, g2 in zip(seq.snapshots, reloaded.snapshots):
            labeled1 = {(seq.label_of(i), seq.label_of(j)) for i, j in g1.edge_set()}
            labeled2 = {(reloaded.label_of(i), reloaded.label_of(j)) for i, j in g2.edge_set()}
            assert labeled1 == labeled2
            assert (g1.n, g1.m) == (g2.n, g2.m)

    def test_isolated_node_rejected_before_writing(self, tmp_path):
        seq = load_edge_stream([("a", "b", 0), ("b", "a", 1)], extra_nodes=[("ghost", 1)])
        path = tmp_path / "edges.txt"
        with pytest.raises(FormatError, match="'ghost' has no edge in snapshot 1"):
            write_edge_list(seq, path)
        assert not path.exists()


class TestEdgeFileParsing:
    def test_comments_and_columns(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# comment\na b 0\nb c 1\n\n", encoding="utf-8")
        seq = read_edge_list(path)
        assert seq.num_snapshots == 2

    def test_bad_ordinal(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("a b zero\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_edge_list(path)

    def test_too_few_columns(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("a b\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_edge_list(path)

    def test_window_bucketing(self, tmp_path):
        path = tmp_path / "e.txt"
        # timestamps 0, 30, 100: windows of 60s -> buckets 0, 0, 1
        path.write_text("a b 0\nb c 30\nc a 100\n", encoding="utf-8")
        seq = read_edge_list(path, snapshot_by="window:60")
        assert seq.ordinals == [0, 1]
        assert [g.m for g in seq.snapshots] == [2, 1]

    def test_window_with_explicit_snapshot_column(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("a b 9 0\nb c 9 120\n", encoding="utf-8")
        seq = read_edge_list(path, snapshot_by="window:60")
        assert seq.ordinals == [0, 2]

    def test_bad_window_mode(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("a b 0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_edge_list(path, snapshot_by="window:abc")
        with pytest.raises(FormatError):
            read_edge_list(path, snapshot_by="bogus")

    def test_short_line_reported_before_earlier_bad_ordinal(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("a b zero\nb c 0\nc\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"e.txt:3: expected at least 3 columns"):
            read_edge_list(path)

    def test_loader_peak_memory_follows_the_loaded_graph(self, tmp_path):
        rng = random.Random(11)
        path = tmp_path / "e.txt"
        with open(path, "w", encoding="utf-8") as fh:
            for t in range(3):
                for _ in range(17_000):
                    fh.write(f"n{rng.randrange(5000)} n{rng.randrange(5000)} {t}\n")
        # a fresh interpreter: `size` leaves out objects CPython takes from
        # its free lists, so after other tests in the same process the
        # ratio drifts with what ran before (measured 1.89 to 2.49)
        script = ("import sys, tracemalloc\n"
                  "from dgt.snapshot_graph import read_edge_list\n"
                  "tracemalloc.start()\n"
                  "seq = read_edge_list(sys.argv[1])\n"
                  "size, peak = tracemalloc.get_traced_memory()\n"
                  "print(sum(g.m for g in seq.snapshots), size, peak)\n")
        src = str(Path(dgt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                             capture_output=True, text=True, check=True).stdout
        edges, size, peak = map(int, out.split())
        assert edges > 50_000
        assert peak <= 2 * size

    def test_loaded_sequence_holds_each_edge_once(self, random_edge_file):
        tracemalloc.start()
        try:
            seq = read_edge_list(random_edge_file)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        edges = sum(g.m for g in seq.snapshots)
        assert edges > 50_000
        # about 100 B per edge: adjacency both ways plus the node and label
        # maps; a frozenset of each node's out-neighbours adds about 110 more
        assert size <= 150 * edges

    def test_loaded_size_and_loader_peak_per_edge(self, random_edge_file):
        tracemalloc.start()
        try:
            seq = read_edge_list(random_edge_file)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        edges = sum(g.m for g in seq.snapshots)
        # measured 72 B per edge held and 136 B at the peak; a frozenset of
        # the node ids per snapshot, and a second set of pairs built before
        # the adjacency maps, raise them to 102 and 172
        assert size <= 85 * edges
        assert peak <= 150 * edges

    def test_node_file(self, tmp_path):
        path = tmp_path / "nodes.txt"
        path.write_text("# isolated\nghost 0\nother 2\n", encoding="utf-8")
        assert parse_node_file(path) == [("ghost", 0), ("other", 2)]


class TestChurnReport:
    def test_rows_match_diff(self):
        seq = load_edge_stream(
            [("a", "b", 0), ("a", "b", 1), ("a", "c", 1), ("a", "c", 2)]
        )
        rows = churn_rows(seq)
        assert rows[0] == (1, 1, 0, 2)   # added a->c
        assert rows[1] == (2, 0, 1, 2)   # deleted a->b

    def test_csv_format(self, tmp_path):
        seq = load_edge_stream([("a", "b", 0), ("a", "b", 1)])
        path = tmp_path / "churn.csv"
        write_churn_report(seq, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,e_plus,e_minus,n_changed"
        assert lines[1] == "1,0,0,0"

    def test_report_leaves_the_sequence_as_large_as_it_was(self, random_edge_file, tmp_path):
        tracemalloc.start()
        try:
            seq = read_edge_list(random_edge_file)
            before = tracemalloc.get_traced_memory()[0]
            write_churn_report(seq, tmp_path / "churn.csv")
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert seq.num_snapshots == 3
        assert after - before < 0.01 * before


class TestWriteCsv:
    def test_cells_are_written_one_way(self, tmp_path):
        # None blank, a float as its repr(), `\n` line ends, UTF-8
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b", "c"], [(None, 0.1 + 0.2, -0.0),
                                          (float("nan"), 1e22, 7), ("x y", "é,q", 0.0)])
        assert path.read_bytes() == (
            b"a,b,c\n,0.30000000000000004,-0.0\nnan,1e+22,7\nx y,\"\xc3\xa9,q\",0.0\n")
