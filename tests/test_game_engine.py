import csv

import numpy as np
import pytest

from dgt import game_engine
from dgt.cli import _write_diagnostics
from dgt.errors import AuditError, ConfigError, PreconditionError
from dgt.gain_functions import GainContext, utility_delta
from dgt.game_engine import (
    CommunityStructure,
    GameConfig,
    Join,
    Leave,
    NoOp,
    Switch,
    _hard_assignment,
    best_response,
    is_local_equilibrium,
    run_snapshot,
)
from dgt.metrics import nmi
from dgt.snapshot_graph import SnapshotGraph

from oracles import potential_oracle, random_digraph, random_structure


class TestCommunityStructure:
    def test_singletons(self):
        st = CommunityStructure.from_singletons([3, 1, 2])
        assert len(st.communities) == 3
        assert st.audit() == []
        assert st.next_id == 3

    def test_join_leave_roundtrip(self):
        st = CommunityStructure.from_singletons([0, 1])
        st.join(0, 1)
        assert st.memberships[0] == {0, 1}
        st.leave(0, 1)
        assert st.memberships[0] == {0}
        assert st.audit() == []

    def test_empty_community_collected(self):
        st = CommunityStructure.from_singletons([0, 1])
        st.leave(0, 0)
        assert 0 not in st.communities
        assert st.audit() == []

    def test_ids_never_reused(self):
        st = CommunityStructure.from_singletons([0, 1])
        st.leave(0, 0)
        k = st.create_community([0])
        assert k == 2

    def test_double_join_rejected(self):
        st = CommunityStructure.from_singletons([0])
        with pytest.raises(PreconditionError):
            st.join(0, 0)

    def test_leave_unknown_rejected(self):
        st = CommunityStructure.from_singletons([0])
        with pytest.raises(PreconditionError):
            st.leave(0, 99)

    def test_audit_reports_corruption(self):
        st = CommunityStructure.from_singletons([0, 1])
        st.memberships[0].add(1)  # label without membership
        report = st.audit()
        assert len(report) == 1
        assert "agent 0" in report[0] and "1" in report[0]

    def test_audit_reports_empty_community(self):
        st = CommunityStructure.from_singletons([0])
        st.communities[0].clear()
        assert any("empty" in p for p in st.audit())

    @pytest.mark.parametrize("corrupt, reported", [
        (lambda st: st.memberships[2].add(0), "agent 2 holds label 0 but is not a member"),
        (lambda st: st.communities[0].append(2), "agent 2 in community 0 but label missing"),
        (lambda st: st.communities[0].insert(0, 0), "community 0 lists a member more than once"),
        (lambda st: st.communities[2].clear(), "community 2 is empty"),
    ], ids=["label_without_member", "member_without_label", "duplicate", "empty"])
    def test_audit_reports_each_corruption(self, corrupt, reported):
        st = CommunityStructure.from_singletons([0, 1, 2])
        st.join(1, 0)
        assert st.audit() == []
        corrupt(st)
        assert any(reported in p for p in st.audit())

    def test_copy_is_independent(self):
        st = CommunityStructure.from_singletons([0, 1])
        dup = st.copy()
        dup.join(0, 1)
        assert st.memberships[0] == {0}

    def test_from_memberships_rejects_high_ids(self):
        with pytest.raises(PreconditionError):
            CommunityStructure.from_memberships({0: {5}}, next_id=3)

    def test_from_memberships_lists_a_repeated_label_once(self):
        st = CommunityStructure.from_memberships({0: [5, 5], 1: (5,)}, 10)
        assert st.communities == {5: [0, 1]}
        assert st.memberships == {0: {5}, 1: {5}}
        assert st.audit() == []


class TestGameConfig:
    def test_defaults(self):
        cfg = GameConfig()
        assert cfg.gain == "similarity"
        assert cfg.max_passes == 8
        assert cfg.change_fraction_threshold == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gain": "bogus"},
            {"max_passes": 0},
            {"change_fraction_threshold": -0.1},
            {"change_fraction_threshold": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            GameConfig(**kwargs)


class TestBestResponse:
    @pytest.mark.parametrize("gain", ["similarity", "modularity"])
    def test_member_outside_the_snapshot(self, gain, stray_members):
        g, members = stray_members
        st = CommunityStructure.from_singletons([2])
        st.create_community(members)
        ctx = GainContext(g)
        # agent 0 holds the community, agent 2 has it as a join candidate
        for agent in (0, 2):
            with pytest.raises(PreconditionError, match=rf"agents \[{members[-1]}\] hold labels"):
                best_response(ctx, agent, st, GameConfig(gain=gain))

    def test_isolated_agent_leaves_singleton(self):
        # losing the label refunds 1/m while no gain is at stake
        g = SnapshotGraph.from_edges([(0, 1)], nodes=[0, 1, 2])
        st = CommunityStructure.from_singletons(g.nodes)
        action = best_response(GainContext(g), 2, st, GameConfig())
        assert action == Leave(2)

    def test_label_free_agent_joins_neighbor_community(self):
        g = SnapshotGraph.from_edges([(i, j) for i in range(3) for j in range(3) if i != j])
        st = CommunityStructure()
        for v in g.nodes:
            st.add_agent(v)
        k = st.create_community([1, 2])
        action = best_response(GainContext(g), 0, st, GameConfig())
        assert action == Join(k)

    def test_noop_when_nothing_improves(self):
        g = SnapshotGraph.from_edges([(i, j) for i in range(3) for j in range(3) if i != j])
        st = CommunityStructure()
        for v in g.nodes:
            st.add_agent(v)
        st.create_community([0, 1, 2])
        action = best_response(GainContext(g), 0, st, GameConfig())
        assert action == NoOp()

    def test_agent_not_in_graph_rejected(self):
        g = SnapshotGraph.from_edges([(0, 1)])
        st = CommunityStructure.from_singletons(g.nodes)
        with pytest.raises(PreconditionError):
            best_response(GainContext(g), 42, st, GameConfig())

    def test_tie_breaks_to_lowest_community_id(self):
        # nodes 1 and 2 sit symmetrically around agent 0 (same adjacency,
        # same two common targets), so both join deltas are equal and
        # positive; the lower community id must win
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]
        g = SnapshotGraph.from_edges(edges)
        st = CommunityStructure()
        for v in g.nodes:
            st.add_agent(v)
        k1 = st.create_community([1])
        k2 = st.create_community([2])
        ctx = GainContext(g)
        d1 = utility_delta(ctx, 0, Join(k1), st)
        d2 = utility_delta(ctx, 0, Join(k2), st)
        assert d1 == d2 and d1 > 0
        assert best_response(ctx, 0, st, GameConfig()) == Join(k1)

    @pytest.mark.parametrize("gain, agent, edges, communities, tied, expected", [
        ("modularity", 5, [(1, 4), (2, 0), (2, 4), (3, 2), (4, 2), (5, 3)],
         [[2, 3, 4], [0, 1, 2, 5], [2, 3]], Leave(1), Switch(1, 0)),
        ("similarity", 3, [(0, 2), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)],
         [[2], [1, 3], [0, 3]], Join(0), Switch(1, 0)),
        ("modularity", 3, [(1, 2), (3, 0), (3, 4), (3, 5), (4, 2), (5, 3)],
         [[1], [0, 2, 4], [0, 3]], Join(1), Switch(2, 1)),
    ])
    def test_equal_deltas_prefer_switch_over_join_and_leave(self, gain, agent, edges,
                                                            communities, tied, expected):
        g = SnapshotGraph.from_edges(edges)
        st = CommunityStructure()
        for v in g.nodes:
            st.add_agent(v)
        for members in communities:
            st.create_community(members)
        ctx = GainContext(g)
        delta = utility_delta(ctx, agent, expected, st, gain)
        assert delta > 0 and delta == utility_delta(ctx, agent, tied, st, gain)
        assert best_response(ctx, agent, st, GameConfig(gain=gain)) == expected

    def test_switch_preferred_when_it_dominates(self, two_cliques):
        # leaving the worthless own singleton and joining a clique-mate
        # beats either move alone
        st = CommunityStructure.from_singletons(two_cliques.nodes)
        action = best_response(GainContext(two_cliques), 0, st, GameConfig())
        assert isinstance(action, Switch)
        assert action.out_community == 0

    @pytest.mark.parametrize("gain", ["similarity", "modularity"])
    def test_matches_exhaustive_enumeration(self, gain):
        rng = np.random.default_rng(21)
        config = GameConfig(gain=gain)
        checked = 0
        while checked < 120:
            g = random_digraph(rng, 12)
            ctx = GainContext(g)
            st = random_structure(rng, g)
            agent = int(rng.choice(g.nodes))
            held = set(st.memberships[agent])
            neighbor_coms = set()
            for v in set(g.out_adj[agent]) | set(g.in_adj[agent]):
                neighbor_coms.update(st.memberships[v])
            joins = sorted(neighbor_coms - held)
            candidates = [(0.0, NoOp())]
            best_join = None
            for k in joins:
                d = utility_delta(ctx, agent, Join(k), st, gain)
                candidates.append((d, Join(k)))
                if best_join is None or d > best_join[0]:
                    best_join = (d, k)
            best_leave = None
            for k in sorted(held):
                d = utility_delta(ctx, agent, Leave(k), st, gain)
                candidates.append((d, Leave(k)))
                if best_leave is None or d > best_leave[0]:
                    best_leave = (d, k)
            if best_join and best_leave:
                sw = Switch(best_leave[1], best_join[1])
                candidates.append((utility_delta(ctx, agent, sw, st, gain), sw))
            best_delta = max(d for d, _ in candidates)
            action = best_response(ctx, agent, st, config)
            if best_delta <= 0.0:
                assert action == NoOp()
            else:
                # each delta is its exact value rounded once, and rounding
                # keeps order, so the best exact delta is the best float
                assert utility_delta(ctx, agent, action, st, gain) == best_delta
            checked += 1


class TestExactTies:
    """Two communities whose raw gains are exactly equal, 14/13 each, though
    a float walk over their members would not find them equal: agent 0's
    kernel values are w/13 for co-members 9 and 10 (7 and 7 common
    out-neighbours) and 11 and 12 (6 and 8), and 7/13 + 7/13 rounds below
    6/13 + 8/13.  Both choices must go to the lower id."""

    @pytest.fixture
    def graph(self):
        edges = [(0, t) for t in range(1, 9)]
        for v, targets in {9: range(1, 8), 10: range(2, 9), 11: range(1, 7),
                           12: range(1, 9)}.items():
            edges += [(v, t) for t in targets] + [(v, 0)]
        return SnapshotGraph.from_edges(edges)

    def structure(self, graph, *communities):
        st = CommunityStructure()
        for v in graph.nodes:
            st.add_agent(v)
        return st, [st.create_community(members) for members in communities]

    def test_float_walks_would_not_tie(self):
        assert 7 / 13 + 7 / 13 < 6 / 13 + 8 / 13

    def test_equal_joins_go_to_the_lowest_id(self, graph):
        st, (low, high) = self.structure(graph, [9, 10], [11, 12])
        ctx = GainContext(graph)
        delta = utility_delta(ctx, 0, Join(low), st)
        assert delta > 0 and delta == utility_delta(ctx, 0, Join(high), st)
        assert best_response(ctx, 0, st, GameConfig()) == Join(low)

    def test_equal_contributions_go_to_the_lowest_id(self, graph):
        st, (low, high) = self.structure(graph, [0, 9, 10], [0, 11, 12])
        assert st.memberships[0] == {low, high}
        assert _hard_assignment(GainContext(graph), st, "similarity")[0] == low


class TestRunSnapshot:
    def test_two_clique_recovery(self, two_cliques, two_cliques_plant):
        ctx = GainContext(two_cliques)
        perfect = 0
        for seed in range(10):
            init = CommunityStructure.from_singletons(two_cliques.nodes)
            _, result = run_snapshot(two_cliques, init, GameConfig(rng_seed=seed), ctx=ctx)
            if nmi(result.partition, two_cliques_plant) == 1.0:
                perfect += 1
        assert perfect >= 9

    def test_deterministic_replay(self, two_cliques):
        ctx = GainContext(two_cliques)
        runs = []
        for _ in range(2):
            init = CommunityStructure.from_singletons(two_cliques.nodes)
            _, result = run_snapshot(two_cliques, init, GameConfig(rng_seed=11), ctx=ctx)
            runs.append(result)
        assert runs[0].partition == runs[1].partition
        assert runs[0].utility_trace == runs[1].utility_trace
        assert runs[0].actions_taken == runs[1].actions_taken
        assert runs[0].changed_trace == runs[1].changed_trace

    def test_does_not_mutate_initial(self, two_cliques):
        init = CommunityStructure.from_singletons(two_cliques.nodes)
        run_snapshot(two_cliques, init, GameConfig(rng_seed=0))
        assert len(init.communities) == 20

    def test_rejects_inconsistent_initial(self, two_cliques):
        init = CommunityStructure.from_singletons(two_cliques.nodes)
        init.memberships[0].add(19)
        with pytest.raises(AuditError):
            run_snapshot(two_cliques, init, GameConfig())

    @pytest.mark.parametrize("gain", ["similarity", "modularity"])
    @pytest.mark.parametrize("nodes, members", [((), [0, 1, 99]), ((5,), [0, 1, 3])],
                             ids=["above-every-node-id", "below-a-node-id"])
    def test_rejects_labelled_agents_outside_the_snapshot(self, gain, nodes, members):
        g = SnapshotGraph.from_edges([(0, 1), (1, 2), (2, 0)], nodes=nodes)
        init = CommunityStructure()
        init.create_community(members)
        with pytest.raises(PreconditionError, match=rf"agents \[{members[-1]}\] hold labels"):
            run_snapshot(g, init, GameConfig(gain=gain))

    def test_rejects_foreign_context(self, two_cliques):
        other = SnapshotGraph.from_edges([(0, 1)])
        init = CommunityStructure.from_singletons(two_cliques.nodes)
        with pytest.raises(PreconditionError):
            run_snapshot(two_cliques, init, GameConfig(), ctx=GainContext(other))

    def test_utility_trace_non_decreasing_at_threshold_zero(self, two_cliques):
        ctx = GainContext(two_cliques)
        init = CommunityStructure.from_singletons(two_cliques.nodes)
        config = GameConfig(rng_seed=3, max_passes=20, change_fraction_threshold=0.0)
        _, result = run_snapshot(two_cliques, init, config, ctx=ctx)
        assert result.passes_used == 20
        trace = result.utility_trace
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_trace_off_never_computes_totals(self, two_cliques, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("per-pass totals computed with trace=False")

        monkeypatch.setattr(game_engine, "_totals", boom)
        init = CommunityStructure.from_singletons(two_cliques.nodes)
        _, result = run_snapshot(two_cliques, init, GameConfig(rng_seed=1, trace=False))
        assert result.utility_trace == []
        assert len(result.changed_trace) == result.passes_used >= 1
        with pytest.raises(AssertionError, match="trace=False"):
            run_snapshot(two_cliques, init, GameConfig(rng_seed=1))

    def test_stop_reason(self, two_cliques):
        init = CommunityStructure.from_singletons(two_cliques.nodes)
        _, settled = run_snapshot(two_cliques, init, GameConfig(rng_seed=1))
        assert settled.stop_reason == "threshold"
        assert settled.passes_used < 8 and settled.changed_trace[-1] / two_cliques.n < 0.05
        # the final allowed pass meets the threshold: that counts as threshold
        _, last = run_snapshot(two_cliques, init,
                               GameConfig(rng_seed=1, max_passes=settled.passes_used))
        assert last.changed_trace == settled.changed_trace and last.stop_reason == "threshold"
        _, capped = run_snapshot(two_cliques, init,
                                 GameConfig(rng_seed=1, max_passes=settled.passes_used - 1))
        assert capped.stop_reason == "pass_cap"

    def test_stop_reason_with_one_pass(self, two_cliques, two_cliques_plant):
        singletons = CommunityStructure.from_singletons(two_cliques.nodes)
        _, capped = run_snapshot(two_cliques, singletons, GameConfig(rng_seed=1, max_passes=1))
        assert capped.changed_trace == [20] and capped.stop_reason == "pass_cap"
        planted = CommunityStructure.from_memberships(
            {v: {k} for v, k in two_cliques_plant.items()}, next_id=2)
        _, settled = run_snapshot(two_cliques, planted, GameConfig(rng_seed=1, max_passes=1))
        assert settled.changed_trace == [0] and settled.stop_reason == "threshold"

    def test_partition_covers_all_nodes_once(self):
        rng = np.random.default_rng(22)
        for seed in range(10):
            g = random_digraph(rng, 18)
            init = CommunityStructure.from_singletons(g.nodes)
            _, result = run_snapshot(g, init, GameConfig(rng_seed=seed))
            assert sorted(result.partition) == list(g.nodes)

    def test_label_free_agents_get_fresh_singletons(self):
        # isolated nodes drop their label mid-game and are re-singled out
        g = SnapshotGraph.from_edges([(0, 1), (1, 0)], nodes=[0, 1, 2, 3])
        init = CommunityStructure.from_singletons(g.nodes)
        structure, result = run_snapshot(g, init, GameConfig(rng_seed=0))
        assert not structure.memberships[2] and not structure.memberships[3]
        assert result.partition[2] != result.partition[3]
        assert result.partition[2] >= 4 and result.partition[3] >= 4

    def test_pass_accounting(self, two_cliques):
        init = CommunityStructure.from_singletons(two_cliques.nodes)
        structure, result = run_snapshot(two_cliques, init, GameConfig(rng_seed=1))
        n = two_cliques.n
        assert result.games_played == result.passes_used * n
        assert result.games_played <= 8 * n
        assert sum(result.actions_taken.values()) == result.games_played
        assert len(result.utility_trace) == result.passes_used
        assert structure.memberships.keys() == set(two_cliques.nodes)

    def test_audit_clean_after_runs(self):
        rng = np.random.default_rng(23)
        for seed in range(30):
            g = random_digraph(rng, 15)
            init = CommunityStructure.from_singletons(g.nodes)
            structure, _ = run_snapshot(g, init, GameConfig(rng_seed=seed))
            assert structure.audit() == []


class TestEquilibrium:
    @pytest.mark.parametrize("gain", ["similarity", "modularity"])
    def test_member_outside_the_snapshot(self, gain, stray_members):
        g, members = stray_members
        st = CommunityStructure.from_singletons(g.nodes)
        st.create_community(members)
        with pytest.raises(PreconditionError, match=rf"agents \[{members[-1]}\] hold labels"):
            is_local_equilibrium(GainContext(g), st, GameConfig(gain=gain))

    def test_a_community_no_node_holds_is_not_read(self, two_cliques):
        st = CommunityStructure.from_singletons(two_cliques.nodes)
        st.create_community([99])
        assert not is_local_equilibrium(GainContext(two_cliques), st, GameConfig())

    def test_converged_run_is_local_equilibrium(self, two_cliques):
        ctx = GainContext(two_cliques)
        init = CommunityStructure.from_singletons(two_cliques.nodes)
        config = GameConfig(rng_seed=5, max_passes=30, change_fraction_threshold=0.0)
        structure, result = run_snapshot(two_cliques, init, config, ctx=ctx)
        assert 0 in result.changed_trace
        assert is_local_equilibrium(ctx, structure, config)

    def test_singletons_not_equilibrium(self, two_cliques):
        ctx = GainContext(two_cliques)
        st = CommunityStructure.from_singletons(two_cliques.nodes)
        assert not is_local_equilibrium(ctx, st, GameConfig())

    def test_positive_join_available_breaks_equilibrium(self):
        # most agents hold no labels; one hosted community is joinable
        g = SnapshotGraph.from_edges([(i, j) for i in range(4) for j in range(4) if i != j])
        ctx = GainContext(g)
        st = CommunityStructure()
        for v in g.nodes:
            st.add_agent(v)
        st.create_community([0, 1])
        assert not is_local_equilibrium(ctx, st, GameConfig())


class TestPotential:
    def test_a_directed_kernel_is_not_a_potential(self):
        # on the 3-cycle s(0, 1) = 1/12 = -s(1, 0): agent 0 joining {1}
        # gains s(0, 1)/m, while Phi* moves by the pair's mean, zero
        g = SnapshotGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        st = CommunityStructure.from_singletons(g.nodes)
        after = st.copy()
        after.join(0, 1)
        change = (potential_oracle(g, after.communities, after.memberships)
                  - potential_oracle(g, st.communities, st.memberships))
        assert utility_delta(GainContext(g), 0, Join(1), st) == pytest.approx(1 / 36 - 1 / 3)
        assert change == pytest.approx(-1 / 3)

    def test_trace_mirrors_utility(self, two_cliques, tmp_path):
        ctx = GainContext(two_cliques)
        init = CommunityStructure.from_singletons(two_cliques.nodes)
        _, result = run_snapshot(two_cliques, init, GameConfig(rng_seed=2), ctx=ctx)
        path = tmp_path / "diagnostics.csv"
        _write_diagnostics(path, result)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["total_utility"]) for r in rows] == result.utility_trace
