"""Property tests over generated small digraphs and community structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgt.gain_functions import GainContext, utility_delta
from dgt.game_engine import CommunityStructure, Join, Leave, NoOp, Switch
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
