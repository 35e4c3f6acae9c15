import logging

import numpy as np
import pytest

from dgt.errors import ConfigError, FormatError
from dgt.game_engine import GameConfig, run_snapshot
from dgt.initialization import (
    GroundTruth,
    VariantKind,
    carry,
    init_structure,
    load_ground_truth,
    write_ground_truth,
)
from dgt.snapshot_graph import SnapshotGraph, load_edge_stream, read_edge_list

from oracles import random_digraph


class TestVariantKind:
    def test_valid(self):
        assert VariantKind("dgtg", seed_fraction=0.2).seed_fraction == 0.2

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            VariantKind("dgtx")

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            VariantKind("dgtg", seed_fraction=1.5)


class TestSingletons:
    def test_dgts_five_singletons(self):
        g = SnapshotGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
        st = init_structure(VariantKind("dgts"), 0, {}, g)
        assert len(st.communities) == 5
        assert all(len(members) == 1 for members in st.communities.values())
        assert st.audit() == []

    def test_t0_always_singletons(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        for kind in ("dgt", "dgtp", "dgts"):
            st = init_structure(VariantKind(kind), 0, {}, g)
            assert all(len(members) == 1 for members in st.communities.values())

    def test_next_id_continues(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st = init_structure(VariantKind("dgts"), 1, {}, g, next_id=40)
        assert set(st.communities) == {40, 41}
        assert st.next_id == 42


def carried_over(kind: str, evolved_maps) -> dict[int, set[int]]:
    """The map `kind` carries after snapshots whose games ended with
    `evolved_maps`, in order."""
    carried: dict[int, set[int]] = {}
    for evolved in evolved_maps:
        carried = carry(VariantKind(kind), carried, evolved)
    return carried


class TestCarryover:
    def test_dgt_union_across_history(self):
        g = SnapshotGraph.from_edges([(0, 1), (1, 0)])
        carried = carried_over("dgt", [{0: {3}, 1: {3}}, {0: {7}, 1: {7}}])
        st = init_structure(VariantKind("dgt"), 2, carried, g, next_id=10)
        assert st.memberships[0] == {3, 7}
        assert st.memberships[1] == {3, 7}
        assert st.audit() == []

    def test_dgtp_uses_only_previous(self):
        g = SnapshotGraph.from_edges([(0, 1), (1, 0)])
        carried = carried_over("dgtp", [{0: {3}, 1: {3}}, {0: {7}, 1: {7}}])
        st = init_structure(VariantKind("dgtp"), 2, carried, g, next_id=10)
        assert st.memberships[0] == {7}

    def test_dgtp_equals_dgt_with_single_history(self):
        g = SnapshotGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        history = [{0: {2}, 1: {2}, 2: {1}}]
        a = init_structure(VariantKind("dgt"), 1, carried_over("dgt", history), g, next_id=5)
        b = init_structure(VariantKind("dgtp"), 1, carried_over("dgtp", history), g, next_id=5)
        assert a.memberships == b.memberships
        assert a.communities == b.communities

    @pytest.mark.parametrize("kind", ["dgts", "dgtg"])
    def test_restarting_variants_carry_nothing(self, kind):
        assert carried_over(kind, [{0: {3}, 1: {3}}, {0: {7}}]) == {}

    @pytest.mark.parametrize("kind", ["dgt", "dgtp"])
    def test_label_less_agents_get_singletons(self, kind):
        g = SnapshotGraph.from_edges([(0, 1), (1, 2)])
        carried = carried_over(kind, [{0: {3}, 1: set()}, {0: {3}, 1: set()}])
        st = init_structure(VariantKind(kind), 2, carried, g, next_id=5)
        assert st.memberships == {0: {3}, 1: {5}, 2: {6}}
        assert st.audit() == []

    def test_new_nodes_get_singletons(self):
        g = SnapshotGraph.from_edges([(0, 1), (2, 0)])
        carried = carried_over("dgt", [{0: {4}, 1: {4}}])
        st = init_structure(VariantKind("dgt"), 1, carried, g, next_id=5)
        assert st.memberships[2] == {5}
        assert st.next_id == 6

    def test_departed_nodes_filtered(self):
        # node 9 vanished from the snapshot; its labels must not appear
        g = SnapshotGraph.from_edges([(0, 1)])
        carried = carried_over("dgt", [{0: {3}, 9: {3, 4}}])
        st = init_structure(VariantKind("dgt"), 1, carried, g, next_id=5)
        assert set(st.communities) == {3, 5}
        assert st.communities[3] == [0]
        assert 4 not in st.communities

    def test_run_snapshot_accepts_carryover(self):
        rng = np.random.default_rng(31)
        g = random_digraph(rng, 12)
        st0 = init_structure(VariantKind("dgts"), 0, {}, g)
        evolved, _ = run_snapshot(g, st0, GameConfig(rng_seed=0))
        st1 = init_structure(VariantKind("dgt"), 1, carried_over("dgt", [evolved.memberships]),
                             g, next_id=evolved.next_id)
        assert st1.audit() == []


class TestDgtg:
    def graph(self):
        return SnapshotGraph.from_edges(
            [(i, j) for i in range(10) for j in range(10) if i != j and abs(i - j) <= 2]
        )

    def truth(self):
        return GroundTruth(by_snapshot={0: {v: "a" if v < 5 else "b" for v in range(10)}})

    def test_requires_truth(self):
        with pytest.raises(ConfigError):
            init_structure(VariantKind("dgtg", 0.1), 0, {}, self.graph())

    def test_zero_fraction_is_singletons(self):
        rng = np.random.default_rng(0)
        st = init_structure(VariantKind("dgtg", 0.0), 0, {}, self.graph(),
                            truth=self.truth(), rng=rng)
        assert all(len(m) == 1 for m in st.communities.values())

    def test_whole_communities_seeded(self):
        rng = np.random.default_rng(0)
        st = init_structure(VariantKind("dgtg", 0.3), 0, {}, self.graph(),
                            truth=self.truth(), rng=rng)
        sizes = sorted(len(m) for m in st.communities.values())
        # budget 3 -> one whole 5-member truth community, rest singletons
        assert sizes == [1, 1, 1, 1, 1, 5]
        assert st.audit() == []

    def test_full_fraction_seeds_everything(self):
        rng = np.random.default_rng(0)
        st = init_structure(VariantKind("dgtg", 1.0), 0, {}, self.graph(),
                            truth=self.truth(), rng=rng)
        sizes = sorted(len(m) for m in st.communities.values())
        assert sizes == [5, 5]

    def test_absent_truth_members_ignored(self):
        truth = GroundTruth(by_snapshot={0: {0: "a", 1: "a", 99: "a"}})
        rng = np.random.default_rng(0)
        st = init_structure(VariantKind("dgtg", 1.0), 0, {}, self.graph(),
                            truth=truth, rng=rng)
        assert 99 not in st.memberships
        assert st.audit() == []

    def test_deterministic_under_rng_seed(self):
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            st = init_structure(VariantKind("dgtg", 0.5), 0, {}, self.graph(),
                                truth=self.truth(), rng=rng)
            outs.append(sorted(tuple(sorted(m)) for m in st.communities.values()))
        assert outs[0] == outs[1]


class TestGroundTruthIO:
    def test_round_trip(self, tmp_path):
        seq = load_edge_stream([("a", "b", 0), ("b", "c", 1)])
        truth = GroundTruth(by_snapshot={
            0: {seq.label_to_id["a"]: "red", seq.label_to_id["b"]: "blue"},
            1: {seq.label_to_id["c"]: "red"},
        })
        path = tmp_path / "truth.csv"
        write_ground_truth(truth, seq, path)
        reloaded = load_ground_truth(path, seq)
        assert reloaded.by_snapshot == truth.by_snapshot

    def test_round_trip_keeps_input_ordinals(self, tmp_path):
        seq = load_edge_stream([("a", "b", 3), ("b", "c", 8)])
        truth = GroundTruth(by_snapshot={0: {seq.label_to_id["a"]: "red"},
                                         1: {seq.label_to_id["c"]: "blue"}})
        path = tmp_path / "truth.csv"
        write_ground_truth(truth, seq, path)
        assert path.read_text(encoding="utf-8").splitlines()[1:] == ["3,a,red", "8,c,blue"]
        assert load_ground_truth(path, seq).by_snapshot == truth.by_snapshot

    @pytest.mark.parametrize("ordinals", [(1, 2), (3, 8)])
    def test_rows_stored_under_the_dense_index(self, tmp_path, ordinals):
        t0, t1 = ordinals
        seq = load_edge_stream([("a", "b", t0), ("b", "c", t1)])
        path = tmp_path / "truth.csv"
        path.write_text(f"snapshot,node_label,community_label\n{t0},a,x\n{t1},c,y\n",
                        encoding="utf-8")
        truth = load_ground_truth(path, seq)
        assert truth.by_snapshot == {0: {seq.label_to_id["a"]: "x"},
                                     1: {seq.label_to_id["c"]: "y"}}

    def test_rows_of_unknown_ordinals_skipped(self, tmp_path, caplog):
        seq = load_edge_stream([("a", "b", 1)])
        path = tmp_path / "truth.csv"
        path.write_text("snapshot,node_label,community_label\n"
                        "0,a,x\n1,a,y\n2,b,z\n1,mystery,w\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="dgt"):
            truth = load_ground_truth(path, seq)
        assert truth.by_snapshot == {0: {seq.label_to_id["a"]: "y"}}
        assert [r.getMessage() for r in caplog.records] == [
            "skipped 3 ground-truth row(s) naming unknown nodes or snapshots"]

    def test_window_mode_rows_use_window_ordinals(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("a b 10.0\nb c 10.5\nc a 15.2\n", encoding="utf-8")
        seq = read_edge_list(edges, snapshot_by="window:1")
        assert seq.ordinals == [0, 5]
        path = tmp_path / "truth.csv"
        path.write_text("snapshot,node_label,community_label\n0,a,x\n5,c,y\n",
                        encoding="utf-8")
        truth = load_ground_truth(path, seq)
        assert truth.by_snapshot == {0: {seq.label_to_id["a"]: "x"},
                                     1: {seq.label_to_id["c"]: "y"}}

    def test_unknown_nodes_skipped(self, tmp_path):
        seq = load_edge_stream([("a", "b", 0)])
        path = tmp_path / "truth.csv"
        path.write_text(
            "snapshot,node_label,community_label\n0,a,x\n0,mystery,x\n",
            encoding="utf-8",
        )
        truth = load_ground_truth(path, seq)
        assert truth.by_snapshot == {0: {0: "x"}}

    def test_rows_share_one_string_per_label(self, tmp_path):
        seq = load_edge_stream([("a", "b", 0), ("b", "c", 1)])
        path = tmp_path / "truth.csv"
        path.write_text("snapshot,node_label,community_label\n"
                        "0,a,comm7\n0,b,comm7\n1,c,comm7\n1,b,comm8\n", encoding="utf-8")
        truth = load_ground_truth(path, seq)
        ids = seq.label_to_id
        a, b, c = truth.by_snapshot[0][ids["a"]], truth.by_snapshot[0][ids["b"]], \
            truth.by_snapshot[1][ids["c"]]
        assert a == "comm7" and a is b and a is c
        assert truth.by_snapshot[1][ids["b"]] == "comm8"

    def test_byte_order_mark_before_the_header(self, tmp_path):
        seq = load_edge_stream([("a", "b", 0)])
        path = tmp_path / "truth.csv"
        path.write_bytes(b"\xef\xbb\xbfsnapshot,node_label,community_label\n0,a,x\n")
        assert load_ground_truth(path, seq).by_snapshot == {0: {seq.label_to_id["a"]: "x"}}

    def test_bad_row_named_by_its_physical_line(self, tmp_path):
        # line 2 opens a quoted field that line 3 closes: the bad row is line 4
        seq = load_edge_stream([("a", "b", 0)])
        path = tmp_path / "truth.csv"
        path.write_text('snapshot,node_label,community_label\n0,a,"x\ny"\nzz,b,x\n',
                        encoding="utf-8")
        with pytest.raises(FormatError, match=r"truth\.csv:4: bad snapshot ordinal 'zz'"):
            load_ground_truth(path, seq)

    def test_bad_header(self, tmp_path):
        seq = load_edge_stream([("a", "b", 0)])
        path = tmp_path / "truth.csv"
        path.write_text("foo,bar,baz\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_ground_truth(path, seq)

    def test_community_count(self):
        truth = GroundTruth(by_snapshot={0: {0: "a", 1: "a", 2: "b"}})
        assert truth.community_count(0) == 2
        assert truth.community_count(5) == 0
