import io
import logging
import os
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import dgt
from dgt import snapshot_graph
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

from oracles import (
    common_neighbors,
    edge_set,
    load_edge_stream_oracle,
    parse_edge_file_oracle,
    random_digraph,
)


def fresh_stdout(script: str, *args: str) -> str:
    """stdout of `script` run with `args` in a fresh interpreter that
    imports this source tree."""
    src = str(Path(dgt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


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

    @pytest.mark.parametrize("t", [1.5, 2.0, "x", "1.0", None, b"1", [0]])
    def test_an_ordinal_that_is_not_an_integer_is_refused(self, t):
        message = f"record 2: bad snapshot ordinal {t!r}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_edge_stream([("a", "b", 2), ("b", "c", t), ("c", "a", 2)])

    def test_a_float_equal_to_the_previous_ordinal_is_refused(self):
        with pytest.raises(FormatError, match=r"^record 3: bad snapshot ordinal 2\.0$"):
            load_edge_stream([("a", "b", 2), ("b", "c", 2), ("c", "a", 2.0)])

    @pytest.mark.parametrize("t, message", [
        (1.5, "bad snapshot ordinal 1.5 in node list"),
        ("x", "bad snapshot ordinal 'x' in node list"),
        (None, "bad snapshot ordinal None in node list"),
        ("-1", "negative snapshot ordinal -1 in node list"),
    ])
    def test_a_node_list_ordinal_that_is_not_a_snapshot_is_refused(self, t, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_edge_stream([("a", "b", 1)], extra_nodes=[("x", 1), ("y", t)])

    def test_integer_ordinals_of_any_kind(self):
        seq = load_edge_stream([("a", "b", True), ("b", "c", np.int64(3)), ("c", "a", "+3"),
                                ("a", "c", " 0_3 "), ("c", "b", np.uint8(1))])
        assert seq.ordinals == [1, 3]
        assert [g.m for g in seq.snapshots] == [2, 3]

    def test_bad_ordinal_reported_before_earlier_negative_ordinal(self):
        with pytest.raises(FormatError, match=r"^record 2: bad snapshot ordinal 0\.5$"):
            load_edge_stream([("a", "b", -1), ("b", "c", 0.5), ("c", "a", 0)])


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
            records.extend((f"n{i}", f"n{j}", t) for i, j in sorted(edge_set(g)))
        seq = load_edge_stream(records)
        path = tmp_path / "edges.txt"
        write_edge_list(seq, path)
        reloaded = read_edge_list(path)
        assert reloaded.num_snapshots == seq.num_snapshots
        for g1, g2 in zip(seq.snapshots, reloaded.snapshots):
            labeled1 = {(seq.label_of(i), seq.label_of(j)) for i, j in edge_set(g1)}
            labeled2 = {(reloaded.label_of(i), reloaded.label_of(j)) for i, j in edge_set(g2)}
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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_window_mode_refuses_a_pipe(self, tmp_path):
        # the second pass would read nothing; the check opens nothing, so
        # it cannot block on a pipe with no writer
        path = tmp_path / "pipe"
        os.mkfifo(path)
        with pytest.raises(FormatError, match="must be a regular file"):
            read_edge_list(path, snapshot_by="window:60")

    def test_window_mode_reports_a_file_changed_between_passes(self, tmp_path, monkeypatch):
        path = tmp_path / "e.txt"
        path.write_text("a b 0\nb c 30\n", encoding="utf-8")
        passes = iter([io.StringIO("a b 0\nb c 30\n"), io.StringIO("a b 0\nb c x\n")])
        monkeypatch.setattr(snapshot_graph, "_text_file", lambda _: nullcontext(next(passes)))
        with pytest.raises(FormatError, match=r":2: bad timestamp 'x'"):
            read_edge_list(path, snapshot_by="window:60")

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

    def test_bad_ordinal_reported_before_earlier_negative_ordinal(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("a b -1\nb c x\nc a 0\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"e.txt:2: bad snapshot ordinal 'x'"):
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
        edges, size, peak = map(int, fresh_stdout(script, str(path)).split())
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
        # measured 70 B per edge held and 84 B at the peak (136 B with a
        # set of pairs per snapshot in front of the adjacency maps); a
        # frozenset of the node ids per snapshot, and a second set of pairs
        # built before the adjacency maps, raise them to 102 and 172
        assert size <= 85 * edges
        assert peak <= 150 * edges

    @pytest.mark.parametrize("separator", ["\x0c", "\x85", "\u2028"],
                             ids=["form-feed", "nel", "line-separator"])
    def test_lines_of_more_than_four_fields_are_counted_in_a_warning(self, tmp_path, caplog,
                                                                     separator):
        # the file reader does not end a line at these characters, but
        # str.split() splits on them, so the second edge is fields 4 to 6
        path = tmp_path / "e.txt"
        path.write_text(f"a b 0{separator}c d 0\nb a 0\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="dgt.snapshot_graph"):
            seq = read_edge_list(path)
        assert (seq.snapshots[0].n, seq.snapshots[0].m) == (2, 2)
        assert [r.getMessage() for r in caplog.records] == [
            "ignored the extra fields of 1 line(s) with more than 4"]

    def test_window_mode_counts_lines_of_more_than_four_fields(self, tmp_path, caplog):
        # window mode reads the last field, so the ignored ones are 3 to n-1
        path = tmp_path / "e.txt"
        path.write_text("a b 9 x 0\nb c 9 120\nc a 9 x y 130\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="dgt.snapshot_graph"):
            seq = read_edge_list(path, snapshot_by="window:60")
        assert seq.ordinals == [0, 2]
        assert [r.getMessage() for r in caplog.records] == [
            "ignored the extra fields of 2 line(s) with more than 4"]

    def test_four_fields_raise_no_warning(self, tmp_path, caplog):
        path = tmp_path / "e.txt"
        path.write_text("a b 0 5\nb c 0\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="dgt.snapshot_graph"):
            read_edge_list(path)
            read_edge_list(path, snapshot_by="window:60")
        assert caplog.records == []

    # (lines, edges of each snapshot by label) where a loader that reused
    # the previous line's source or snapshot wrongly would misplace an edge
    REPEAT_CASES = {
        "self-edge-then-same-source": (["a a 0", "a b 0"], [{("a", "b")}]),
        # c is a node of no snapshot
        "self-edge-on-a-source-with-no-edge": (["a b 0", "c c 0", "b a 0"],
                                               [{("a", "b"), ("b", "a")}]),
        "source-run-across-snapshots": (["a b 0", "a c 1", "a d 0"],
                                        [{("a", "b"), ("a", "d")}, {("a", "c")}]),
        "one-ordinal-spelled-three-ways": (["a b 0", "a c 00", "a d \u0660", "b a 1"],
                                           [{("a", "b"), ("a", "c"), ("a", "d")}, {("b", "a")}]),
    }

    @pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
    @pytest.mark.parametrize("case", list(REPEAT_CASES))
    def test_lines_that_repeat_a_source_or_snapshot(self, tmp_path, case, undirected):
        lines, expected = self.REPEAT_CASES[case]
        path = tmp_path / "e.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        seq = read_edge_list(path, undirected=undirected)
        assert seq == load_edge_stream_oracle(parse_edge_file_oracle(path), undirected=undirected)
        assert seq == load_edge_stream([line.split() for line in lines], undirected=undirected)
        for g, edges in zip(seq.snapshots, expected, strict=True):
            if undirected:
                edges = edges | {(v, u) for u, v in edges}
            assert {(seq.label_of(i), seq.label_of(j)) for i, j in edge_set(g)} == edges
            assert {seq.label_of(v) for v in g.nodes} == {v for edge in edges for v in edge}
        assert seq.self_edges_dropped == sum(line.split()[0] == line.split()[1] for line in lines)

    def test_node_file(self, tmp_path):
        path = tmp_path / "nodes.txt"
        path.write_text("# isolated\nghost 0\nother 2\n", encoding="utf-8")
        assert parse_node_file(path) == [("ghost", 0), ("other", 2)]

    def test_byte_order_mark_is_not_part_of_a_label(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"\xef\xbb\xbfa b 0\nb c 0\nc a 0\n")
        seq = read_edge_list(path)
        assert seq.snapshots[0].n == 3
        assert seq.id_to_label == ["a", "b", "c"]
        nodes = tmp_path / "nodes.txt"
        nodes.write_bytes(b"\xef\xbb\xbfghost 0\n")
        assert parse_node_file(nodes) == [("ghost", 0)]


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


class TestTransientMemory:
    # Loads 2 000 nodes of 8 random out-edges over 3 snapshots, a tenth of
    # the nodes redrawing theirs at each step (about 48 000 edges), in a
    # fresh interpreter: what tracemalloc counts depends on the free lists
    # that earlier tests leave.  Prints the loaded size, the loader's
    # traced peak and what `churn_rows` holds above the loaded size.
    SCRIPT = """
import random, tracemalloc
from dgt.snapshot_graph import churn_rows, load_edge_stream
rng = random.Random(7)
n, degree = 2000, 8
targets = {v: rng.sample(range(n), degree) for v in range(n)}
records = []
for t in range(3):
    for v in (rng.sample(range(n), n // 10) if t else ()):
        targets[v] = rng.sample(range(n), degree)
    records += [(f"n{v}", f"n{u}", t) for v in range(n) for u in targets[v] if u != v]
tracemalloc.start()
seq = load_edge_stream(records)
size, peak = tracemalloc.get_traced_memory()
tracemalloc.reset_peak()
churn_rows(seq)
print(size, peak, tracemalloc.get_traced_memory()[1] - size)
"""

    @pytest.fixture(scope="class")
    def measured(self) -> tuple[int, int, int]:
        return tuple(map(int, fresh_stdout(self.SCRIPT).split()))

    def test_loader_peak_stays_near_the_loaded_sequence(self, measured):
        size, peak, _ = measured
        # measured 1.14x; with a set of (i, j) tuples per snapshot, 2.65x
        assert peak <= 1.5 * size

    def test_churn_rows_holds_no_edge_set(self, measured):
        size, _, transient = measured
        # measured 0.09x; with two frozensets of edge pairs per snapshot
        # pair, 1.60x
        assert transient <= 0.25 * size


class TestWindowLoadMemory:
    # Writes 2 000 nodes of 8 random out-edges over 3 snapshots (48 000
    # lines) with a timestamp column, then loads the file in window mode
    # in a fresh interpreter and prints the loaded size and the traced peak.
    SCRIPT = """
import random, sys, tracemalloc
from dgt.snapshot_graph import read_edge_list
rng = random.Random(7)
n, degree = 2000, 8
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    for t in range(3):
        for v in range(n):
            for u in rng.sample(range(n), degree):
                fh.write(f"n{v} n{u} {t * 100 + rng.random() * 50:.3f}\\n")
tracemalloc.start()
seq = read_edge_list(sys.argv[1], snapshot_by="window:100")
assert seq.num_snapshots == 3
print(*tracemalloc.get_traced_memory())
"""

    def test_loader_peak_stays_near_the_loaded_sequence(self, tmp_path):
        size, peak = map(int, fresh_stdout(self.SCRIPT, str(tmp_path / "edges.txt")).split())
        # measured 1.13x; holding every line to find the earliest
        # timestamp first, 11x
        assert peak <= 1.5 * size


class TestWriteCsv:
    def test_cells_are_written_one_way(self, tmp_path):
        # None blank, a float as its repr(), `\n` line ends, UTF-8
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b", "c"], [(None, 0.1 + 0.2, -0.0),
                                          (float("nan"), 1e22, 7), ("x y", "é,q", 0.0)])
        assert path.read_bytes() == (
            b"a,b,c\n,0.30000000000000004,-0.0\nnan,1e+22,7\nx y,\"\xc3\xa9,q\",0.0\n")
