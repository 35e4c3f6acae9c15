import ast
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dgt import gain_functions, runner
from dgt.errors import EmptyGraphError, PreconditionError
from dgt.gain_functions import (
    GainContext,
    similarity,
    utility,
    utility_delta,
)
from dgt.game_engine import CommunityStructure, GameConfig, Join, Leave, NoOp, Switch
from dgt.initialization import VariantKind
from dgt.snapshot_graph import SnapshotGraph
from dgt.synth import SynthConfig, generate

from oracles import (
    common_neighbors,
    gain_modularity_oracle,
    gain_similarity_oracle,
    random_digraph,
    random_structure,
    similarity_oracle,
    utility_oracle,
)


def play_one_repetition(monkeypatch, seq) -> list[GainContext]:
    """Play one full-carryover repetition over `seq` for two passes a
    snapshot, and return the GainContexts it built, kept alive after it."""
    contexts = []

    def recording_context(graph):
        contexts.append(GainContext(graph))
        return contexts[-1]

    monkeypatch.setattr(runner, "GainContext", recording_context)
    runner.run_repetition(seq, VariantKind("dgt"), GameConfig(max_passes=2, trace=False))
    return contexts


def structure_over(g, *communities):
    st = CommunityStructure()
    for v in g.nodes:
        st.add_agent(v)
    ids = [st.create_community(members) for members in communities]
    return st, ids


class TestSimilarityKernel:
    def test_two_node_edge_zero_indegree(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        assert similarity(GainContext(g), 0, 1) == 0.0

    def test_triangle_connected_with_common_neighbor(self):
        g = SnapshotGraph.from_edges([(0, 2), (1, 2), (0, 1)])
        assert similarity(GainContext(g), 0, 1) == 1.0

    def test_disconnected_pair_negative(self):
        # d_in(0) = 1, d_out(1) = 1, no edge 0->1, no common neighbor, m=2
        g = SnapshotGraph.from_edges([(2, 0), (1, 3)])
        assert similarity(GainContext(g), 0, 1) == -1.0 / 8.0

    def test_same_node_rejected(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        with pytest.raises(PreconditionError):
            similarity(GainContext(g), 1, 1)

    def test_absent_node_rejected(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        with pytest.raises(PreconditionError):
            similarity(GainContext(g), 0, 5)

    def test_empty_graph_rejected(self):
        g = SnapshotGraph.from_edges([], nodes=[0, 1])
        with pytest.raises(EmptyGraphError):
            GainContext(g)

    @pytest.mark.parametrize("reverse", [True, False])
    def test_matches_branch_formula_everywhere(self, reverse):
        # rows are memoized and filled on demand, so the query order decides
        # which entries exist when; it must not change any value
        rng = np.random.default_rng(7)
        for _ in range(15):
            g = random_digraph(rng, 18)
            ctx = GainContext(g)
            order = sorted(g.nodes, reverse=reverse)
            for i in order:
                for j in order:
                    if i != j:
                        assert similarity(ctx, i, j) == float(similarity_oracle(g, i, j))

    def test_branch_totality(self):
        # every (A, w) combination hits exactly one branch
        rng = np.random.default_rng(8)
        seen = set()
        for _ in range(25):
            g = random_digraph(rng, 12, p=0.4)
            ctx = GainContext(g)
            for i in g.nodes:
                for j in g.nodes:
                    if i == j:
                        continue
                    adjacent = j in g.out_adj[i]
                    w = len(set(g.out_adj[i]) & set(g.out_adj[j]))
                    seen.add((adjacent, w >= 1))
                    similarity(ctx, i, j)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_large_sparse_graph_needs_no_quadratic_memory(self):
        # a 20 000-node cycle with chords: three n*n float matrices would
        # take 9.6 GB, so the context and its rows must stay O(n+m)
        n = 20_000
        g = SnapshotGraph.from_edges([(v, (v + 1) % n) for v in range(n)]
                                     + [(v, (v + 7) % n) for v in range(0, n, 3)])
        tracemalloc.start()
        try:
            ctx = GainContext(g)
            for i in range(0, n, 97):
                for j in (i + 1, i + 7, i + 6, (i + n // 2) % n):
                    similarity(ctx, i, j % n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert similarity(ctx, 0, 6) == float(similarity_oracle(g, 0, 6))

    def test_contexts_hold_only_sparse_rows_after_a_repetition(self, monkeypatch):
        # three snapshots of 12 planted 20-node communities, 9 081 edges in
        # all, played for two full-carryover passes each.  Measured: the
        # contexts then hold 231 B per edge, their sparse rows and degrees;
        # storing each null-model pair a walk reads raises it to 590 B
        seq, _ = generate(SynthConfig(communities=12, community_size=20, p_in=0.6,
                                      p_out=0.005, churn=0.1, num_snapshots=3, rng_seed=5))
        edges = sum(g.m for g in seq.snapshots)
        tracemalloc.start()
        try:
            contexts = play_one_repetition(monkeypatch, seq)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 8_000 < edges < 10_000
        assert held <= 350 * edges


    def test_null_rows_are_built_on_first_read_only(self):
        g = SnapshotGraph.from_edges([(0, 1), (0, 2), (1, 2)])
        ctx = GainContext(g)
        assert ctx._null_rows == {}
        assert ctx.null_row(1) is ctx.null_row(1)
        assert ctx._null_rows.keys() == {1}

    def test_contexts_hold_one_null_row_per_in_degree_after_a_repetition(self, monkeypatch):
        seq, _ = generate(SynthConfig(communities=4, community_size=10, p_in=0.6,
                                      p_out=0.02, churn=0.1, num_snapshots=3, rng_seed=5))
        contexts = play_one_repetition(monkeypatch, seq)
        assert [ctx.graph for ctx in contexts] == seq.snapshots
        for g, ctx in zip(seq.snapshots, contexts):
            in_degrees = {len(g.in_adj[v]) for v in g.nodes}
            width = max(len(g.out_adj[v]) for v in g.nodes) + 1
            assert ctx._null_rows and ctx._null_rows.keys() <= in_degrees
            assert all(len(row) == width for row in ctx._null_rows.values())

    def test_edge_values_are_shared_by_the_integers_that_fix_them(self):
        # an edge's kernel value depends only on w and d_in[i] * d_out[j],
        # so all rows hold one int per such pair, not one per edge.  A
        # table entry costs about six edge values, so on a sparse graph,
        # where few edges have a pair of their own, the table must save
        seq, _ = generate(SynthConfig(communities=8, community_size=100, p_in=0.05,
                                      p_out=0.002, churn=0.1, num_snapshots=1, rng_seed=4))
        g = seq.snapshots[0]
        ctx = GainContext(g)
        pairs, values = set(), set()
        for i in g.nodes:
            row = ctx.kernel_row(i)
            for j in g.out_adj[i]:
                assert Fraction(row[j], 4 * g.m * g.n) == similarity_oracle(g, i, j)
                pairs.add((common_neighbors(g, i, j), len(g.in_adj[i]) * len(g.out_adj[j])))
                values.add(id(row[j]))
        assert len(values) <= len(pairs) < g.m / 6


class TestGainSimilarity:
    def test_empty_labels(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st, _ = structure_over(g, [0], [1])
        assert utility(GainContext(g), 0, set(), st).gain == 0.0

    def test_agent_alone_in_community(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st, ids = structure_over(g, [0], [1])
        assert utility(GainContext(g), 0, {ids[0]}, st).gain == 0.0

    def test_three_clique_single_community(self):
        g = SnapshotGraph.from_edges([(i, j) for i in range(3) for j in range(3) if i != j])
        ctx = GainContext(g)
        st, ids = structure_over(g, [0, 1, 2])
        expected = (similarity(ctx, 0, 1) + similarity(ctx, 0, 2)) / 6.0
        assert utility(ctx, 0, {ids[0]}, st).gain == pytest.approx(expected, abs=1e-15)

    def test_duplicate_communities_add_nothing(self):
        g = SnapshotGraph.from_edges([(i, j) for i in range(4) for j in range(4) if i != j])
        ctx = GainContext(g)
        st, ids = structure_over(g, [0, 1, 2], [0, 1, 2])
        assert utility(ctx, 0, {ids[0]}, st).gain == utility(ctx, 0, set(ids), st).gain

    def test_unknown_label_rejected(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st, _ = structure_over(g, [0], [1])
        with pytest.raises(PreconditionError):
            utility(GainContext(g), 0, {99}, st)

    def test_matches_union_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            g = random_digraph(rng, 14)
            ctx = GainContext(g)
            st = random_structure(rng, g)
            agent = int(rng.choice(g.nodes))
            labels = set(st.memberships[agent])
            expected = gain_similarity_oracle(g, st.communities, agent, labels)
            assert utility(ctx, agent, labels, st).gain == float(expected)

    def test_additive_over_member_disjoint_labels(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_digraph(rng, 16)
            nodes = list(g.nodes)
            rng.shuffle(nodes)
            third = max(1, len(nodes) // 3)
            st, ids = structure_over(g, nodes[:third], nodes[third : 2 * third])
            ctx = GainContext(g)
            agent = nodes[-1]
            g1 = utility(ctx, agent, {ids[0]}, st).gain
            g2 = utility(ctx, agent, {ids[1]}, st).gain
            both = utility(ctx, agent, set(ids), st).gain
            assert both == pytest.approx(g1 + g2, abs=1e-12)

    def test_new_positive_co_member_strictly_increases(self):
        rng = np.random.default_rng(12)
        found = 0
        for _ in range(40):
            g = random_digraph(rng, 12)
            ctx = GainContext(g)
            nodes = list(g.nodes)
            agent = nodes[0]
            members = nodes[1 : max(2, len(nodes) // 2)]
            outside = [
                v for v in nodes[max(2, len(nodes) // 2) :]
                if v != agent and similarity(ctx, agent, v) > 0
            ]
            if not outside:
                continue
            st, ids = structure_over(g, members)
            before = utility(ctx, agent, {ids[0]}, st).gain
            st.join(outside[0], ids[0])
            after = utility(ctx, agent, {ids[0]}, st).gain
            assert after > before
            found += 1
        assert found >= 10


class TestGainModularity:
    def test_empty_labels(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st, _ = structure_over(g, [0], [1])
        assert utility(GainContext(g), 0, set(), st, "modularity").gain == 0.0

    def test_isolated_singleton_zero(self):
        g = SnapshotGraph.from_edges([(0, 1)], nodes=[0, 1, 2])
        st, ids = structure_over(g, [0], [1], [2])
        assert utility(GainContext(g), 2, {ids[2]}, st, "modularity").gain == 0.0

    def test_mutual_pair_value(self):
        # two nodes with edges both ways, one shared community
        g = SnapshotGraph.from_edges([(0, 1), (1, 0)])
        st, ids = structure_over(g, [0, 1])
        ctx = GainContext(g)
        u = utility(ctx, 0, {ids[0]}, st, "modularity")
        assert u.gain == 3.0 / 16.0
        assert gain_modularity_oracle(g, st.communities, st.memberships, 0, {ids[0]}) == Fraction(3, 16)

    def test_matches_triple_sum_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g = random_digraph(rng, 14)
            ctx = GainContext(g)
            st = random_structure(rng, g)
            agent = int(rng.choice(g.nodes))
            labels = set(st.memberships[agent])
            expected = gain_modularity_oracle(g, st.communities, st.memberships, agent, labels)
            u = utility(ctx, agent, labels, st, "modularity")
            assert u.gain == float(expected)


class TestLoss:
    def test_empty(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st, _ = structure_over(g, [0], [1])
        assert utility(GainContext(g), 0, set(), st).loss == 0.0

    def test_three_labels_m_twelve(self):
        edges = [(i, j) for i in range(4) for j in range(4) if i != j]  # m = 12
        g = SnapshotGraph.from_edges(edges)
        st, ids = structure_over(g, [0], [0, 1], [0, 2])
        assert utility(GainContext(g), 0, set(ids), st).loss == 0.25

    def test_one_label_m_8080(self):
        edges = [(i, j) for i in range(90) for j in range(90) if i != j]  # 8010
        edges += [(0, 90 + i) for i in range(70)]                         # +70
        g = SnapshotGraph.from_edges(edges)
        assert g.m == 8080
        st, ids = structure_over(g, [0])
        assert utility(GainContext(g), 0, set(ids), st).loss == 1.0 / 8080.0

    def test_strictly_increasing_in_label_count(self):
        g = SnapshotGraph.from_edges([(0, 1), (1, 2)])
        ctx = GainContext(g)
        st, ids = structure_over(g, *[[0]] * 5)
        values = [utility(ctx, 0, set(ids[:k]), st).loss for k in range(6)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestUtility:
    def test_empty_labels(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st, _ = structure_over(g, [0], [1])
        u = utility(GainContext(g), 0, set(), st)
        assert (u.gain, u.loss, u.utility) == (0.0, 0.0, 0.0)

    def test_singleton_membership(self):
        g = SnapshotGraph.from_edges([(0, 1), (1, 0)])
        st, ids = structure_over(g, [0], [1])
        u = utility(GainContext(g), 0, {ids[0]}, st)
        assert (u.gain, u.loss) == (0.0, 1.0 / g.m)
        assert u.utility == -1.0 / g.m

    def test_breakdown_identity(self):
        rng = np.random.default_rng(14)
        g = random_digraph(rng, 12)
        ctx = GainContext(g)
        st = random_structure(rng, g)
        for gain in ("similarity", "modularity"):
            for agent in g.nodes:
                u = utility(ctx, agent, st.memberships[agent], st, gain)
                assert u.utility == u.gain - u.loss
                assert u.loss >= 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(15):
            g = random_digraph(rng, 12)
            ctx = GainContext(g)
            st = random_structure(rng, g)
            agent = int(rng.choice(g.nodes))
            for gain in ("similarity", "modularity"):
                expected = utility_oracle(g, st.communities, st.memberships, agent,
                                          st.memberships[agent], gain)
                got = utility(ctx, agent, st.memberships[agent], st, gain).utility
                assert got == pytest.approx(expected, abs=1e-12)

    def test_bad_gain_kind(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st, _ = structure_over(g, [0], [1])
        with pytest.raises(PreconditionError):
            utility(GainContext(g), 0, set(), st, "entropy")

    @pytest.mark.parametrize("gain", ["similarity", "modularity"])
    def test_agent_outside_the_snapshot(self, gain):
        g = SnapshotGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        st, ids = structure_over(g, [0], [1], [2])
        ctx = GainContext(g)
        with pytest.raises(PreconditionError, match="agent 99 is not in the snapshot"):
            utility(ctx, 99, {ids[0]}, st, gain)
        with pytest.raises(PreconditionError, match="agent 99 is not in the snapshot"):
            utility_delta(ctx, 99, Join(ids[0]), st, gain)

    @pytest.mark.parametrize("gain", ["similarity", "modularity"])
    def test_member_outside_the_snapshot(self, gain, stray_members):
        g, members = stray_members
        st, (k, other) = structure_over(g, members, [2])
        ctx = GainContext(g)
        with pytest.raises(PreconditionError,
                           match=rf"agents \[{members[-1]}\] hold labels but are not in the snapshot"):
            utility(ctx, 0, {k}, st, gain)
        # only the communities scored are checked
        assert utility(ctx, 0, {other}, st, gain).loss == 1 / g.m

    @pytest.mark.parametrize("gain", ["similarity", "modularity"])
    def test_repeated_ids_rejected(self, gain):
        g = SnapshotGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        st = CommunityStructure.from_singletons(g.nodes)
        st.join(0, 1)
        ctx = GainContext(g)
        assert utility(ctx, 0, [1], st, gain).loss == 1 / g.m
        with pytest.raises(PreconditionError, match=r"repeated community ids: \[1\]"):
            utility(ctx, 0, [1, 1], st, gain)
        with pytest.raises(PreconditionError, match=r"repeated community ids: \[0, 1\]"):
            utility(ctx, 0, [1, 0, 1, 0], st, gain)


class TestUtilityDelta:
    @pytest.mark.parametrize("gain", ["similarity", "modularity"])
    @pytest.mark.parametrize("move", ["join", "leave", "switch"])
    def test_member_outside_the_snapshot(self, gain, move, stray_members):
        g, members = stray_members
        st, (k, other) = structure_over(g, members, [2])
        action = {"join": Join(other), "leave": Leave(k), "switch": Switch(k, other)}[move]
        with pytest.raises(PreconditionError,
                           match=rf"agents \[{members[-1]}\] hold labels but are not in the snapshot"):
            utility_delta(GainContext(g), 0, action, st, gain)

    def test_noop_zero(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st, _ = structure_over(g, [0], [1])
        assert utility_delta(GainContext(g), 0, NoOp(), st) == 0.0

    def test_join_with_zero_gain_costs_one_label(self):
        # community holding only an out-isolated node: kernel value is 0,
        # so joining costs exactly the extra label
        g = SnapshotGraph.from_edges([(0, 1)], nodes=[0, 1, 2])
        st, ids = structure_over(g, [2])
        ctx = GainContext(g)
        assert utility_delta(ctx, 0, Join(ids[0]), st) == -1.0 / g.m

    def test_join_held_rejected(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st, ids = structure_over(g, [0, 1])
        with pytest.raises(PreconditionError):
            utility_delta(GainContext(g), 0, Join(ids[0]), st)

    def test_leave_not_held_rejected(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st, ids = structure_over(g, [0], [1])
        with pytest.raises(PreconditionError):
            utility_delta(GainContext(g), 0, Leave(ids[1]), st)

    def test_switch_same_legs_rejected(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st, ids = structure_over(g, [0], [1])
        with pytest.raises(PreconditionError):
            utility_delta(GainContext(g), 0, Switch(ids[0], ids[0]), st)

    @pytest.mark.parametrize("action, message", [
        (Join(0), "agent 0 already holds community 0"),
        (Leave(1), "agent 0 does not hold community 1"),
        (Switch(0, 0), "switch legs must differ"),
        (Switch(1, 2), "agent 0 does not hold community 1"),
        (Switch(0, 3), "agent 0 already holds community 3"),
        (Join(99), r"unknown community ids: \[99\]"),
        (Switch(0, 99), r"unknown community ids: \[99\]"),
        ("join", "unknown action 'join'"),
    ])
    def test_precondition_messages(self, action, message):
        g = SnapshotGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        st = CommunityStructure.from_singletons(g.nodes)
        st.join(0, st.create_community([1]))
        with pytest.raises(PreconditionError, match=message):
            utility_delta(GainContext(g), 0, action, st)

    @pytest.mark.parametrize("gain", ["similarity", "modularity"])
    def test_matches_full_recompute(self, gain):
        rng = np.random.default_rng(16)
        trials = 0
        while trials < 200:
            g = random_digraph(rng, 15)
            rng.integers(0, 2)  # keeps the drawn graphs as they were
            ctx = GainContext(g)
            st = random_structure(rng, g)
            agent = int(rng.choice(g.nodes))
            held = sorted(st.memberships[agent])
            open_ids = sorted(set(st.communities) - set(held))
            actions = [NoOp()]
            if open_ids:
                actions.append(Join(int(rng.choice(open_ids))))
            if held:
                actions.append(Leave(int(rng.choice(held))))
            if held and open_ids:
                actions.append(Switch(int(rng.choice(held)), int(rng.choice(open_ids))))
            for action in actions:
                delta = utility_delta(ctx, agent, action, st, gain)
                after = st.copy()
                after.apply(agent, action)
                full = (
                    utility(ctx, agent, after.memberships[agent], after, gain).utility
                    - utility(ctx, agent, st.memberships[agent], st, gain).utility
                )
                assert delta == pytest.approx(full, abs=1e-12)
                trials += 1


def test_gain_functions_never_imports_game_engine():
    # the engine imports the gain layer; an import back, even one local to
    # a function, would make the two modules a cycle
    tree = ast.parse(Path(gain_functions.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [alias.name for alias in node.names]
    assert [name for name in imported if "game_engine" in name] == []
