"""Property tests over generated small digraphs and community structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgt.gain_functions import GainContext, utility_delta
from dgt.game_engine import (
    CommunityStructure,
    GameConfig,
    Join,
    Leave,
    NoOp,
    Switch,
    _best_response,
)
from dgt.snapshot_graph import SnapshotGraph

from oracles import similarity_oracle, utility_oracle

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def digraphs(draw, max_nodes: int = 9) -> SnapshotGraph:
    """Directed graphs on nodes 0..n-1 with at least one edge."""
    n = draw(st.integers(2, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return SnapshotGraph.from_edges(edges, nodes=range(n))


@st.composite
def graph_and_structure(draw):
    """A digraph plus an overlapping community structure over its nodes;
    nodes may hold no label at all."""
    g = draw(digraphs())
    structure = CommunityStructure()
    for v in g.nodes:
        structure.add_agent(v)
    node_sets = st.sets(st.sampled_from(g.nodes), min_size=1)
    for members in draw(st.lists(node_sets, min_size=1, max_size=5)):
        structure.create_community(members)
    return g, structure


@PROPERTY_SETTINGS
@given(digraphs())
def test_kernel_rows_equal_oracle(g):
    ctx = GainContext(g)
    for i in g.nodes:
        row = ctx.kernel_row(i)
        for j in g.nodes:
            if i != j:
                assert row[j] == similarity_oracle(g, i, j)


@pytest.mark.parametrize("gain", ["similarity", "modularity"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_utility_delta_matches_oracle_difference(gain, data):
    g, structure = data.draw(graph_and_structure())
    agent = data.draw(st.sampled_from(g.nodes))
    held = sorted(structure.memberships[agent])
    open_ids = sorted(set(structure.communities) - set(held))
    actions = [NoOp()]
    actions += [Join(k) for k in open_ids]
    actions += [Leave(k) for k in held]
    actions += [Switch(out, k) for out in held for k in open_ids]
    action = data.draw(st.sampled_from(actions))

    delta = utility_delta(GainContext(g), agent, action, structure, gain)
    after = structure.copy()
    after.apply(agent, action)
    full = utility_oracle(
        g, after.communities, after.memberships, agent, after.memberships[agent], gain,
    ) - utility_oracle(
        g, structure.communities, structure.memberships, agent,
        structure.memberships[agent], gain,
    )
    assert delta == pytest.approx(full, abs=1e-12)


@pytest.mark.parametrize("gain", ["similarity", "modularity"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_best_response_delta_equals_utility_delta(gain, data):
    g, structure = data.draw(graph_and_structure())
    agent = data.draw(st.sampled_from(g.nodes))
    ctx = GainContext(g)
    held = sorted(structure.memberships[agent])
    neighbor_coms = set()
    for v in set(g.out_adj[agent]) | set(g.in_adj[agent]):
        neighbor_coms.update(structure.memberships[v])
    joins = sorted(neighbor_coms - set(held))
    join_deltas = {k: utility_delta(ctx, agent, Join(k), structure, gain) for k in joins}
    leave_deltas = {k: utility_delta(ctx, agent, Leave(k), structure, gain) for k in held}
    scores = [*join_deltas.values(), *leave_deltas.values()]
    if joins and held:
        # the one switch the engine scores pairs the best leave with the
        # best join, each the lowest community id among ties
        k_in = max(joins, key=lambda k: (join_deltas[k], -k))
        k_out = max(held, key=lambda k: (leave_deltas[k], -k))
        scores.append(utility_delta(ctx, agent, Switch(k_out, k_in), structure, gain))

    action, delta, _ = _best_response(ctx, agent, structure, GameConfig(gain=gain))
    if isinstance(action, NoOp):
        assert all(score <= 0.0 for score in scores)
    else:
        assert delta > 0.0
        assert delta == max(scores)
        assert delta == utility_delta(ctx, agent, action, structure, gain)


def _structure_state(structure):
    return (
        structure.next_id,
        {k: sorted(vs) for k, vs in structure.communities.items()},
        {v: sorted(ks) for v, ks in structure.memberships.items()},
        {k: list(structure.members_sorted(k)) for k in structure.communities},
    )


@PROPERTY_SETTINGS
@given(data=st.data())
def test_audit_holds_under_random_actions(data):
    g, structure = data.draw(graph_and_structure())
    steps = data.draw(st.integers(1, 20))
    copy_at = data.draw(st.integers(0, steps - 1))
    for step in range(steps):
        if step == copy_at:
            dup = structure.copy()
            frozen = _structure_state(structure)
        agent = data.draw(st.sampled_from(g.nodes))
        held = sorted(structure.memberships[agent])
        open_ids = sorted(set(structure.communities) - set(held))
        actions = [Join(k) for k in open_ids]
        actions += [Leave(k) for k in held]
        actions += [Switch(out, k) for out in held for k in open_ids]
        if actions:
            structure.apply(agent, data.draw(st.sampled_from(actions)))
        assert structure.audit() == []
    assert _structure_state(dup) == frozen
    assert dup.audit() == []
