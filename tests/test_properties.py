"""Property tests over generated small digraphs, community structures and
edge-list files."""

import random
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgt import cli, game_engine
from dgt.errors import FormatError
from dgt.gain_functions import GainContext, _SimilarityScorer, similarity, utility_delta
from dgt.game_engine import (
    CommunityStructure,
    GameConfig,
    Join,
    Leave,
    NoOp,
    Switch,
    _best_response,
    _candidate_communities,
    _hard_assignment,
    _totals,
    run_snapshot,
)
from dgt.snapshot_graph import (
    SnapshotGraph,
    diff,
    load_edge_stream,
    read_edge_list,
    write_edge_list,
)

from oracles import (
    best_response_oracle,
    contribution_oracle,
    delta_oracle,
    diff_oracle,
    edge_set,
    from_edges_oracle,
    load_edge_stream_oracle,
    parse_edge_file_oracle,
    potential_oracle,
    random_digraph,
    random_structure,
    similarity_oracle,
    sparse_pairs_oracle,
    utility_oracle,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def digraphs(draw, max_nodes: int = 9) -> SnapshotGraph:
    """Directed graphs on nodes 0..n-1 with at least one edge."""
    n = draw(st.integers(2, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return SnapshotGraph.from_edges(edges, nodes=range(n))


@st.composite
def symmetric_digraphs(draw, max_nodes: int = 9) -> SnapshotGraph:
    """Graphs on nodes 0..n-1 holding each of their edges both ways."""
    n = draw(st.integers(2, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return SnapshotGraph.from_edges([*edges, *((j, i) for i, j in edges)], nodes=range(n))


@st.composite
def graph_and_structure(draw, graphs=digraphs()):
    """A graph drawn from `graphs` plus an overlapping community structure
    over its nodes; nodes may hold no label at all."""
    g = draw(graphs)
    structure = CommunityStructure()
    for v in g.nodes:
        structure.add_agent(v)
    node_sets = st.sets(st.sampled_from(g.nodes), min_size=1)
    for members in draw(st.lists(node_sets, min_size=1, max_size=5)):
        structure.create_community(members)
    return g, structure


def unit(g: SnapshotGraph, gain: str) -> int:
    """Utility units per 1 of utility: 4m^2n for similarity, 4m^2 for
    modularity (one label, 1/m of utility, costs 4mn or 4m units)."""
    return 4 * g.m * g.m * (g.n if gain == "similarity" else 1)


@PROPERTY_SETTINGS
@given(digraphs())
def test_kernel_rows_equal_oracle(g):
    # a kernel value is an int in units of 1/(4mn); similarity() rounds it
    # once, so it is the correctly rounded float of the exact value (repr:
    # a zero null-model term must read 0.0, not -0.0)
    ctx = GainContext(g)
    for i in g.nodes:
        row, null = ctx.kernel_row(i), ctx.null_row(len(g.in_adj[i]))
        for j in g.nodes:
            if i != j:
                exact = similarity_oracle(g, i, j)
                value = row.get(j, null[len(g.out_adj[j])])
                assert type(value) is int
                assert Fraction(value, 4 * g.m * g.n) == exact
                assert repr(similarity(ctx, i, j)) == repr(float(exact))


@PROPERTY_SETTINGS
@given(digraphs())
def test_null_model_pairs_are_read_but_not_stored(g):
    ctx = GainContext(g)
    for i in g.nodes:
        sparse = sparse_pairs_oracle(g, i)
        row = ctx.kernel_row(i)
        assert row.keys() == sparse
        for j in g.nodes:
            if j != i and j not in sparse:
                assert similarity(ctx, i, j) == float(similarity_oracle(g, i, j))
        assert len(row) == len(sparse)


@PROPERTY_SETTINGS
@given(digraphs())
def test_null_rows_equal_the_inline_formula(g):
    # -d_in * d_out / (4m), exactly, in units of 1/(4mn)
    ctx = GainContext(g)
    width = max(len(g.out_adj[v]) for v in g.nodes) + 1
    for d in {0, *(len(g.in_adj[v]) for v in g.nodes)}:
        row = ctx.null_row(d)
        assert len(row) == width
        assert all(type(v) is int for v in row)
        assert [Fraction(v, 4 * g.m * g.n) for v in row] == [-Fraction(d * k, 4 * g.m)
                                                            for k in range(width)]
    assert set(ctx.null_row(0)) == {0}


def assert_moves_equal_exact_deltas(ctx, agent, structure) -> set[tuple[str, str]]:
    """Check every similarity move score and the raw total of `agent`
    against the exact reference, with `==` in units of 1/(4m^2n); return
    the (label count, k_in overlap) cases its switches met."""
    g = ctx.graph
    communities, memberships = structure.communities, structure.memberships
    held = sorted(memberships[agent])
    open_ids = sorted(set(communities) - set(held))
    score = _SimilarityScorer(ctx, agent, structure)
    co_members = {j for k in held for j in communities[k]} - {agent}

    def exact(**move):
        return delta_oracle(g, communities, memberships, agent, "similarity", **move)

    per = unit(g, "similarity")
    assert Fraction(score.raw_total(), per) == sum(
        (similarity_oracle(g, agent, j) for j in co_members), Fraction(0)) / g.m
    for k in open_ids:
        assert Fraction(score.join(k), per) == exact(join=k)
    for k in held:
        assert Fraction(score.leave(k), per) == exact(leave=k)
    labels = "one-label" if len(held) == 1 else "multi-label"
    cases = set()
    for k_out in held:
        for k_in in open_ids:
            overlap = "disjoint" if co_members.isdisjoint(communities[k_in]) else "overlapping"
            cases.add((labels, overlap))
            expected = exact(leave=k_out, join=k_in)
            # once after both legs were walked, once on a fresh scorer
            assert Fraction(score.switch(k_out, k_in), per) == expected
            fresh = _SimilarityScorer(ctx, agent, structure)
            assert Fraction(fresh.switch(k_out, k_in), per) == expected
    return cases


@PROPERTY_SETTINGS
@given(graph_and_structure())
def test_move_scores_equal_the_exact_deltas(case):
    g, structure = case
    ctx = GainContext(g)
    for agent in g.nodes:
        assert_moves_equal_exact_deltas(ctx, agent, structure)


def test_exact_delta_comparison_meets_every_switch_case():
    rng = np.random.default_rng(16)
    cases = set()
    for _ in range(30):
        g = random_digraph(rng, 10, p=0.3)
        structure = random_structure(rng, g)
        ctx = GainContext(g)
        for agent in g.nodes:
            cases |= assert_moves_equal_exact_deltas(ctx, agent, structure)
    assert cases == {(labels, overlap) for labels in ("one-label", "multi-label")
                     for overlap in ("disjoint", "overlapping")}


@pytest.mark.parametrize("gain", ["similarity", "modularity"])
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_rows_hold_only_sparse_pairs_after_a_game(gain, data, seed):
    g, initial = data.draw(graph_and_structure())
    ctx = GainContext(g)
    structure, _ = run_snapshot(g, initial, GameConfig(gain=gain, rng_seed=seed), ctx=ctx)
    _totals(ctx, g.nodes, structure, gain)
    _hard_assignment(ctx, structure, gain)
    if gain == "modularity":
        # the modularity gain reads degrees and adjacency only
        assert ctx._rows == {}
    else:
        # every agent plays in the first pass, so every row is built
        assert ctx._rows.keys() == set(g.nodes)
        for i, row in ctx._rows.items():
            assert row.keys() == sparse_pairs_oracle(g, i)


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
    assert delta == float(full)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_symmetric_moves_change_the_potential_by_the_movers_delta(data):
    g, structure = data.draw(graph_and_structure(symmetric_digraphs()))
    agent = data.draw(st.sampled_from(g.nodes))
    held = sorted(structure.memberships[agent])
    open_ids = sorted(set(structure.communities) - set(held))
    actions = [Join(k) for k in open_ids] + [Leave(k) for k in held]
    actions += [Switch(out, k) for out in held for k in open_ids]
    ctx = GainContext(g)
    before = potential_oracle(g, structure.communities, structure.memberships)
    for action in actions:
        after = structure.copy()
        after.apply(agent, action)
        change = potential_oracle(g, after.communities, after.memberships) - before
        assert utility_delta(ctx, agent, action, structure) == float(change)


def co_members(structure, agent) -> set[int]:
    return {j for k in structure.memberships[agent] for j in structure.communities[k]} - {agent}


@PROPERTY_SETTINGS
@given(graph_and_structure())
def test_directed_moves_change_the_potential_by_the_delta_and_the_kernel_skew(case):
    # Phi* counts the kernel of each co-member pair both ways, the mover's
    # utility only its own way, so a move changes Phi* by the mover's delta
    # plus (1/2m) * (s(j,i) - s(i,j)) summed over the co-members j gained,
    # less the same sum over those lost
    g, structure = case
    ctx = GainContext(g)
    before = potential_oracle(g, structure.communities, structure.memberships)
    for agent in g.nodes:
        held = sorted(structure.memberships[agent])
        open_ids = sorted(set(structure.communities) - set(held))
        actions = [Join(k) for k in open_ids] + [Leave(k) for k in held]
        actions += [Switch(out, k) for out in held for k in open_ids]
        old = co_members(structure, agent)

        def skew(js):
            return sum(similarity_oracle(g, j, agent) - similarity_oracle(g, agent, j)
                       for j in js)

        for action in actions:
            after = structure.copy()
            after.apply(agent, action)
            new = co_members(after, agent)
            residual = (skew(new - old) - skew(old - new)) / (2 * g.m)
            change = potential_oracle(g, after.communities, after.memberships) - before
            assert utility_delta(ctx, agent, action, structure) == float(change - residual)


@PROPERTY_SETTINGS
@given(graph_and_structure())
def test_one_switch_pair_is_a_full_best_response_for_modularity(case):
    # the modularity switch is exactly its two legs, so the best leave
    # paired with the best join is the best of every (held, candidate) pair
    g, structure = case
    ctx = GainContext(g)
    config = GameConfig(gain="modularity")
    for agent in g.nodes:
        held = structure.memberships[agent]
        _, best, _ = _best_response(ctx, agent, structure, config)
        for k_out in sorted(held):
            for k_in in _candidate_communities(ctx, agent, structure, held):
                switch = delta_oracle(g, structure.communities, structure.memberships, agent,
                                      "modularity", leave=k_out, join=k_in)
                assert switch <= Fraction(best, unit(g, "modularity"))


@pytest.mark.parametrize("gain", ["similarity", "modularity"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_best_response_delta_equals_utility_delta(gain, data):
    g, structure = data.draw(graph_and_structure())
    agent = data.draw(st.sampled_from(g.nodes))
    ctx = GainContext(g)
    expected, exact = best_response_oracle(g, structure.communities, structure.memberships,
                                           agent, gain)
    action, delta, _ = _best_response(ctx, agent, structure, GameConfig(gain=gain))
    assert action == expected
    assert type(delta) is int and Fraction(delta, unit(g, gain)) == exact
    assert utility_delta(ctx, agent, action, structure, gain) == float(exact)


@pytest.mark.parametrize("gain", ["similarity", "modularity"])
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_every_turn_plays_the_exact_best_response(gain, data, seed):
    g, initial = data.draw(graph_and_structure())
    real = game_engine._best_response
    turns = []

    def checked(ctx, agent, structure, config):
        action, delta, considered = real(ctx, agent, structure, config)
        expected, exact = best_response_oracle(g, structure.communities,
                                               structure.memberships, agent, gain)
        assert action == expected
        assert Fraction(delta, unit(g, gain)) == exact
        turns.append(action)
        return action, delta, considered

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(game_engine, "_best_response", checked)
        run_snapshot(g, initial, GameConfig(gain=gain, rng_seed=seed))
    assert len(turns) >= g.n


@pytest.mark.parametrize("gain", ["similarity", "modularity"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_hard_assignment_takes_the_best_contribution(gain, data):
    g, structure = data.draw(graph_and_structure())
    ctx = GainContext(g)
    first_fresh = structure.next_id
    partition = _hard_assignment(ctx, structure, gain)
    fresh = []
    for agent in g.nodes:
        held = sorted(structure.memberships[agent])
        if not held:
            fresh.append(partition[agent])
            continue
        contrib = {k: contribution_oracle(g, structure.communities, structure.memberships,
                                          agent, k, gain) for k in held}
        best = max(contrib.values())
        assert partition[agent] == next(k for k in held if contrib[k] == best)
    assert fresh == list(range(first_fresh, first_fresh + len(fresh)))
    assert structure.next_id == first_fresh + len(fresh)


@pytest.mark.parametrize("gain", ["similarity", "modularity"])
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_utility_trace_matches_the_final_structure(gain, data, seed):
    g, initial = data.draw(graph_and_structure())
    structure, result = run_snapshot(g, initial, GameConfig(gain=gain, rng_seed=seed))
    total = sum(utility_oracle(g, structure.communities, structure.memberships, agent,
                               structure.memberships[agent], gain) for agent in g.nodes)
    assert result.utility_trace[-1] == float(total)


@pytest.mark.parametrize("gain", ["similarity", "modularity"])
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_trace_off_plays_the_same_game(gain, data, seed):
    g, initial = data.draw(graph_and_structure())
    ctx = GainContext(g)
    runs = [run_snapshot(g, initial, GameConfig(gain=gain, rng_seed=seed, trace=trace),
                         ctx=ctx) for trace in (True, False)]
    (traced_structure, traced), (plain_structure, plain) = runs
    assert plain.utility_trace == [] and len(traced.utility_trace) == traced.passes_used
    assert plain_structure.memberships == traced_structure.memberships
    for field in ("partition", "passes_used", "changed_trace", "actions_taken", "games_played"):
        assert getattr(plain, field) == getattr(traced, field), field


@pytest.mark.parametrize("gain", ["similarity", "modularity"])
@PROPERTY_SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**16), shuffle_seed=st.integers(0, 2**16))
def test_member_order_never_matters(gain, data, seed, shuffle_seed):
    # every score is an exact integer sum, so a game whose member lists are
    # shuffled at the start and after each applied move plays every turn
    # alike: the same action with the same delta
    g, initial = data.draw(graph_and_structure())
    config = GameConfig(gain=gain, rng_seed=seed)
    real_best_response, real_apply = game_engine._best_response, CommunityStructure.apply
    shuffler = random.Random(shuffle_seed)

    def shuffle_members(structure):
        for members in structure.communities.values():
            shuffler.shuffle(members)

    def shuffled_apply(structure, agent, action):
        real_apply(structure, agent, action)
        shuffle_members(structure)

    def play(shuffled):
        turns = []

        def recorded(ctx, agent, structure, config):
            action, delta, considered = real_best_response(ctx, agent, structure, config)
            turns.append((agent, action, delta))
            return action, delta, considered

        structure = initial.copy()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(game_engine, "_best_response", recorded)
            if shuffled:
                shuffle_members(structure)
                patch.setattr(CommunityStructure, "apply", shuffled_apply)
            final, result = run_snapshot(g, structure, config, copy=False)
        return turns, final.memberships, result

    turns, memberships, result = play(shuffled=False)
    shuffled_turns, shuffled_memberships, shuffled_result = play(shuffled=True)
    assert all(type(delta) is int for _, _, delta in turns)
    assert shuffled_turns == turns
    assert shuffled_memberships == memberships
    assert shuffled_result.partition == result.partition
    assert shuffled_result.utility_trace == result.utility_trace


def _structure_state(structure):
    return (
        structure.next_id,
        {k: sorted(vs) for k, vs in structure.communities.items()},
        {v: sorted(ks) for v, ks in structure.memberships.items()},
        {k: list(structure.communities[k]) for k in structure.communities},
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


# Few labels, so that generated files repeat edges and hold self-edges; a
# "#" label starts a comment when it comes first on a line.
FILE_LABELS = ["a", "b"] * 3 + ["7", "07", "#c", "x#"]
# One integer spelled several ways, so a loader that compares an ordinal's
# text with the previous line's must still merge snapshots by value.
FILE_ORDINALS = ["0", "00", "+0", "0_0", "\u0660", "1", "-0", "+2", "1_0"]
# Space and tab, and three characters that str.split() splits on but the
# file reader ends no line at.
FIELD_SEPARATORS = [" ", "\t", "  ", " ", "\x0c", "\x85", "\u2028"]
# Lines that a loader must reject, put in about every other file; two or
# more in one file test which error is reported first.  The last one, a bad
# ordinal followed by a short line, would otherwise be drawn too rarely.
FILE_FAULTS = [b"a", b"a \xff 0", b"a b -1", b"b a x", b"a b 1.5 inf", b"b a x\na"]


@st.composite
def edge_file_bytes(draw) -> bytes:
    """Edge-list files of up to 40 lines with comments, blank lines, CRLF
    endings, an optional timestamp column, extra fields, self-edges and
    duplicates, plus faulty lines anywhere: short lines, bad or negative
    ordinals and bytes that are not UTF-8.  Records come in runs that share
    a source and mostly an ordinal's text, which also changes to another
    spelling of the same integer or returns to an earlier snapshot."""
    lines = []
    for kind in draw(st.lists(st.sampled_from(["run"] * 4 + ["comment", "blank"]),
                              max_size=14)):
        if kind == "run":
            src, t = draw(st.sampled_from(FILE_LABELS)), draw(st.sampled_from(FILE_ORDINALS))
            for _ in range(draw(st.sampled_from([1, 1, 2, 3, 4]))):
                if draw(st.sampled_from([False, False, True])):
                    t = draw(st.sampled_from(FILE_ORDINALS))
                cols = [src, draw(st.sampled_from(FILE_LABELS)), t]
                cols += [draw(st.sampled_from(FILE_ORDINALS))
                         for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2])))]
                lines.append(draw(st.sampled_from(FIELD_SEPARATORS)).join(cols).encode())
        elif kind == "comment":
            lines.append(b"# a b 0")
        else:
            lines.append(draw(st.sampled_from([b"", b"  ", b"\t"])))
    lines = lines[:40]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILE_FAULTS)))
    return b"".join(draw(st.sampled_from([b"", b" ", b"\t"])) + line
                    + draw(st.sampled_from([b"\n", b"\r\n"])) for line in lines)


def _outcome(call):
    """The call's result, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


@st.composite
def id_pairs(draw) -> list[tuple[int, int]]:
    """(source, target) id pairs with duplicates and, in some lists, one
    or two self-edges anywhere."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))
                          .filter(lambda p: p[0] != p[1])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        v = draw(st.integers(0, 6))
        pairs.insert(draw(st.integers(0, len(pairs))), (v, v))
    return pairs


@PROPERTY_SETTINGS
@given(edges=id_pairs(), nodes=st.lists(st.integers(0, 9), max_size=4))
def test_from_edges_equals_set_of_pairs_oracle(edges, nodes):
    built = _outcome(lambda: SnapshotGraph.from_edges(edges, index_t=1, nodes=nodes))
    reference = _outcome(lambda: from_edges_oracle(edges, index_t=1, nodes=nodes))
    if isinstance(reference, tuple):
        assert built == reference
        return
    for name in ("index_t", "nodes", "out_adj", "in_adj", "n", "m", "max_node"):
        assert getattr(built, name) == getattr(reference, name), name
    # every node, an isolated one included, is a key of both maps
    assert list(built.out_adj) == list(built.in_adj) == list(built.nodes)
    ids = range(-1, reference.max_node + 2)
    assert [built.has_node(v) for v in ids] == [v in reference.nodes for v in ids]


@st.composite
def snapshot_pairs(draw) -> tuple[SnapshotGraph, SnapshotGraph]:
    """Two snapshots whose node sets may differ (declared isolated nodes
    included); in some pairs both hold the same edges."""
    def snapshot(index_t):
        edges = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7))
                              .filter(lambda p: p[0] != p[1]), min_size=1))
        nodes = draw(st.lists(st.integers(0, 9), max_size=3))
        return SnapshotGraph.from_edges(edges, index_t=index_t, nodes=nodes)

    prev = snapshot(0)
    same = draw(st.booleans())
    return prev, SnapshotGraph.from_edges(edge_set(prev), index_t=1) if same else snapshot(1)


@PROPERTY_SETTINGS
@given(pair=snapshot_pairs())
def test_diff_equals_edge_set_oracle(pair):
    prev, next_ = pair
    assert diff(prev, next_) == diff_oracle(prev, next_)
    assert diff(next_, prev) == diff_oracle(next_, prev)


@PROPERTY_SETTINGS
@given(records=st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"),
                                  st.integers(0, 3)), min_size=1),
       undirected=st.booleans())
def test_load_edge_stream_equals_from_edges(records, undirected):
    loaded = _outcome(lambda: load_edge_stream(records, undirected=undirected))
    ids: dict = {}
    pairs_by_t: dict[int, list] = {t: [] for t in sorted({t for *_, t in records})}
    for src, dst, t in records:
        i, j = ids.setdefault(src, len(ids)), ids.setdefault(dst, len(ids))
        if i != j:
            pairs_by_t[t] += [(i, j), (j, i)] if undirected else [(i, j)]
    edgeless = [t for t, pairs in pairs_by_t.items() if not pairs]
    if edgeless:
        assert loaded == (FormatError, f"snapshot {edgeless[0]} has no edges")
        return
    expected = [SnapshotGraph.from_edges(pairs, index_t=k)
                for k, pairs in enumerate(pairs_by_t.values())]
    for built, reference in zip(loaded.snapshots, expected, strict=True):
        for name in ("index_t", "nodes", "out_adj", "in_adj", "n", "m", "max_node"):
            assert getattr(built, name) == getattr(reference, name), name
        assert list(built.out_adj) == list(built.in_adj) == list(built.nodes)
    assert loaded.self_edges_dropped == sum(src == dst for src, dst, _ in records)
    assert loaded.duplicates_collapsed == (sum(map(len, pairs_by_t.values()))
                                           - sum(g.m for g in expected))


@pytest.fixture(scope="module")
def scratch_dir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


@pytest.fixture(scope="module")
def scratch_file(scratch_dir):
    return scratch_dir / "edges.txt"


@PROPERTY_SETTINGS
@given(
    data=edge_file_bytes(),
    snapshot_by=st.sampled_from(["column", "window:2"]),
    undirected=st.booleans(),
    extra=st.lists(st.tuples(st.sampled_from(["a", "ghost"]), st.integers(-1, 3)), max_size=2),
)
def test_read_edge_list_equals_two_pass_oracle(scratch_file, data, snapshot_by, undirected,
                                               extra):
    scratch_file.write_bytes(data)
    streamed = _outcome(lambda: read_edge_list(
        scratch_file, snapshot_by=snapshot_by, extra_nodes=extra, undirected=undirected))
    reference = _outcome(lambda: load_edge_stream_oracle(
        parse_edge_file_oracle(scratch_file, snapshot_by=snapshot_by),
        extra_nodes=extra, undirected=undirected))
    assert streamed == reference


# Labels that would not read back: a comment, two fields, no field.
UNWRITABLE_LABELS = ["#a", "a b", ""]


@PROPERTY_SETTINGS
@given(records=st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "7", 7, "x#"] + UNWRITABLE_LABELS),
              st.sampled_from(["a", "b", "c", "7", 7] + UNWRITABLE_LABELS),
              st.integers(0, 3)).filter(lambda r: r[0] != r[1]),
    min_size=1))
def test_write_then_read_keeps_every_labeled_edge(scratch_file, records):
    seq = load_edge_stream(records)
    texts = [str(label) for label in seq.id_to_label]
    if set(seq.id_to_label) & set(UNWRITABLE_LABELS) or len(set(texts)) < len(texts):
        with pytest.raises(FormatError):
            write_edge_list(seq, scratch_file)
        return
    write_edge_list(seq, scratch_file)
    reloaded = read_edge_list(scratch_file)
    assert reloaded.num_snapshots == seq.num_snapshots
    assert reloaded.ordinals == seq.ordinals
    assert (reloaded.self_edges_dropped, reloaded.duplicates_collapsed) == (0, 0)
    for g1, g2 in zip(seq.snapshots, reloaded.snapshots):
        assert g2.index_t == g1.index_t
        assert ({(str(seq.label_of(i)), str(seq.label_of(j))) for i, j in edge_set(g1)}
                == {(reloaded.label_of(i), reloaded.label_of(j)) for i, j in edge_set(g2)})
        assert {str(seq.label_of(v)) for v in g1.nodes} == {reloaded.label_of(v) for v in g2.nodes}


# (valid lines, faulty lines) of the edge, node and truth files
EDGE_FILE_LINES = ([b"a b 0", b"b c 0", b"c a 0", b"a 7 1", b"7 b 1", b"b a 1 4", b"a a 0",
                    b"# c a 0", b""], FILE_FAULTS)
NODE_FILE_LINES = ([b"a 0", b"ghost 1", b"b 1", b"7 0"], [b"a", b"c -1", b"b x", b"\xff 0"])
TRUTH_FILE_LINES = ([b"0,a,1", b"0,b,2", b"1,7,1", b"0,ghost,1", b"2,c,1", b""],
                    [b"x,a,1", b"-1,a,1", b"0,a", b"0,\xff,1", b"t,node,label"])
TRUTH_HEADER = b"snapshot,node_label,community_label"

# flag -> (values the command accepts, values it must reject)
CLI_FLAGS = {
    "--seed": (["0", "5"], ["-1"]),
    "--max-passes": (["2"], ["0"]),
    "--repetitions": (["1", "2"], ["0"]),
    "--jobs": (["1"], ["0", "-1"]),
    "--threshold": (["0.05"], ["nan", "2"]),
    "--seed-fraction": (["0.3"], ["1.5"]),
    "--fractions": (["0,0.5"], ["x", ""]),
    "--snapshot-by": (["column", "column", "window:2"], ["bogus", "window:0"]),
}


def _text_file(draw, path: Path, lines, first: bytes = b"", min_size: int = 0) -> None:
    """Write mostly valid lines; one faulty line in about a third of files."""
    valid, faulty = lines
    body = [first] if first else []
    body += draw(st.lists(st.sampled_from(valid), min_size=min_size, max_size=8))
    if draw(st.sampled_from([False, False, True])):
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(faulty)))
    path.write_bytes(b"\n".join(body))


@st.composite
def cli_argvs(draw, root: Path) -> list[str]:
    """One `dgt` command line on freshly written small input files that
    are mostly valid; at most one flag takes a value that argparse accepts
    but the command must reject.  --jobs is never above 1, so no pool
    starts."""
    _text_file(draw, root / "edges.txt", EDGE_FILE_LINES, min_size=3)
    command = draw(st.sampled_from(["run", "sweep-seed-fraction", "churn-report"]))
    argv = [command, "--input", str(root / "edges.txt"), "--out", str(root / "out")]
    if command == "churn-report":
        flags = ["--snapshot-by"]
    else:
        flags = [f for f in CLI_FLAGS if command == "sweep-seed-fraction" or f != "--fractions"]
        variants = ["dgtg"] if command == "sweep-seed-fraction" else ["dgt", "dgts", "dgtp", "dgtg"]
        argv += ["--variant", draw(st.sampled_from(variants)),
                 "--gain", draw(st.sampled_from(["similarity", "modularity"]))]
    broken = draw(st.sampled_from([None, None, None, *flags]))
    for flag in flags:
        good, bad = CLI_FLAGS[flag]
        argv += [flag, draw(st.sampled_from(bad if flag == broken else good))]
    if draw(st.booleans()):
        argv.append("--undirected")
    if draw(st.booleans()):
        _text_file(draw, root / "nodes.txt", NODE_FILE_LINES)
        argv += ["--nodes", str(root / "nodes.txt")]
    if command == "churn-report":
        return argv
    if command == "sweep-seed-fraction" or draw(st.booleans()):
        _text_file(draw, root / "truth.csv", TRUTH_FILE_LINES, first=TRUTH_HEADER)
        argv += ["--truth", str(root / "truth.csv")]
    if draw(st.booleans()):
        argv.append("--diagnostics")
    if draw(st.booleans()):
        argv.append("--unlabeled-as-community")
    return argv


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_main_returns_an_exit_code(scratch_dir, data):
    argv = data.draw(cli_argvs(scratch_dir))
    assert cli.main(argv) in (0, 1, 2)
