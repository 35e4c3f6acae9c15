"""Similarity kernel, gain functions, loss, and utility for one agent.

The per-pair similarity used by the similarity gain is a four-branch kernel
over the adjacency bit A[i][j] and the common-neighbor count w[i][j]:

    A=1, w>=1:  w * (1 - d_in[i]*d_out[j] / (2m))
    A=0, w>=1:  w / n
    A=1, w=0:   d_in[i]*d_out[j] / (4m)
    A=0, w=0:  -d_in[i]*d_out[j] / (4m)

It peaks for directly connected pairs sharing neighbors, so agents profit
from joining communities of well-connected similar nodes.  Only pairs with
an edge or a common neighbor leave the last branch, so a GainContext costs
O(n+m) to build: it keeps the degree vectors and builds each agent's
sparse kernel row on first use, keeping it for later turns.  A row is a
plain dict holding only those pairs; `similarity()` and each member walk
of `_SimilarityScorer` read any other pair's null-model value from a table
kept per in-degree, `GainContext.null_row(d_in)[d_out]`, so kernel memory
does not grow with the pairs the game scores: the tables hold at most
(distinct in-degrees) x (max out-degree + 1) integers.

The similarity gain of an agent sums the kernel over the union of its
co-members: each node sharing at least one community with the agent
counts exactly once, however many communities they share.  Counting per
shared community instead would reward stacking redundant copies of one
community (and empirically sends best-response play into degenerate
merged states), while the union form makes duplicates worthless and extra
memberships pay only for genuinely new co-members.

The modularity gain instead scores how much better the agent's communities
capture its edges than a degree-preserving random rewiring, counting each
co-member once per shared community as its triple sum dictates.  Both
gains are normalized by the snapshot edge count, as is the loss (one unit
per held label), so utilities of different snapshots live on comparable
scales.

Every value the scorers hold and compare is a Python int in one fixed
unit per gain, so no decision depends on the order of a sum:

- a kernel value is counted in units of 1/(4mn): 2n*w*(2m - d_in*d_out),
  4m*w, n*d_in*d_out and -n*d_in*d_out for the four branches above, and
  one similarity label costs 4mn units;
- a modularity raw gain is sum(2m*A*|labels(j)| - d_in*d_out) over the
  co-members j, and one modularity label costs 4m units.

A label costs 1/m of utility in either gain, so a value of u units is the
utility u / (label cost * m).  Floats appear only at the public boundary,
each by one correctly rounded int division: `similarity()`, `utility()`,
`utility_delta()` and the game's per-pass totals.

The two gains are two algorithms, so each has its own scorer class,
`_SimilarityScorer` and `_ModularityScorer`: the only code that sums a
gain, an agent's total gain and the deltas of its join, leave and switch
moves.  `_SCORERS` maps each gain name to its scorer and is the one place
a gain name selects code.  `utility`, the one public scorer of a label
set, `utility_delta` and the game engine all build their scorer from it.
The move types live here beside `legs`, the one reader of a move's
communities, and `checked_legs`, the one place the move rules are checked,
which both `utility_delta` and `CommunityStructure.apply` use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import ClassVar

from .errors import EmptyGraphError, PreconditionError
from .snapshot_graph import SnapshotGraph

# `kind` names each action in `SnapshotResult.actions_taken`
@dataclass(frozen=True)
class Join:
    kind: ClassVar[str] = "join"
    community: int


@dataclass(frozen=True)
class Leave:
    kind: ClassVar[str] = "leave"
    community: int


@dataclass(frozen=True)
class Switch:
    kind: ClassVar[str] = "switch"
    out_community: int
    in_community: int


@dataclass(frozen=True)
class NoOp:
    kind: ClassVar[str] = "noop"


NOOP = NoOp()

Action = Join | Leave | Switch | NoOp


def legs(action) -> tuple[int | None, int | None]:
    """`(k_out, k_in)`: the community the action leaves and the one it
    joins, None where it has no such leg."""
    if isinstance(action, Join):
        return None, action.community
    if isinstance(action, Leave):
        return action.community, None
    if isinstance(action, Switch):
        return action.out_community, action.in_community
    if isinstance(action, NoOp):
        return None, None
    raise PreconditionError(f"unknown action {action!r}")


def checked_legs(action, agent: int, structure) -> tuple[int | None, int | None]:
    """`legs(action)` once the move rules hold for `agent`, checked in this
    order: the legs differ, it holds `k_out`, and `k_in` exists but is not
    held.  PreconditionError at the first rule broken; nothing changes."""
    k_out, k_in = legs(action)
    held = structure.memberships.get(agent, ())
    if k_out is not None:
        if k_out == k_in:
            raise PreconditionError("switch legs must differ")
        if k_out not in held:
            raise PreconditionError(f"agent {agent} does not hold community {k_out}")
    if k_in is not None:
        if k_in in held:
            raise PreconditionError(f"agent {agent} already holds community {k_in}")
        if k_in not in structure.communities:
            raise PreconditionError(f"unknown community ids: {[k_in]}")
    return k_out, k_in


class GainContext:
    """Per-snapshot state for utility evaluation: O(n+m) to build.

    Holds the degree vectors and, for each agent that has played, its
    sparse kernel row, built on first use and kept for later turns.  A
    row is a plain dict holding only the agent's out-neighbours and the
    nodes sharing one of its out-neighbours: at most its out-degree plus
    the in-degrees of its out-neighbours, so all rows together hold at
    most m plus the sum of squared in-degrees, whatever pairs the game
    scores.  Every kernel value is an int in units of 1/(4mn) (module
    docstring).  Null-model values come from `null_row`, one table per
    distinct in-degree of the agents read, each max out-degree + 1 ints
    long.  A pair with no edge and w common out-neighbours holds the one
    int 4m*w that every row shares, and an edge holds the one int its w
    and d_in * d_out give.  Safe to share across repeated runs on the
    same snapshot.
    """

    # Always False: bench/spans.py reads it for gain_functions.dense_contexts.
    dense = False

    def __init__(self, graph: SnapshotGraph):
        if graph.m == 0:
            raise EmptyGraphError("empty graph")
        self.graph = graph
        self.m = graph.m
        self.n = graph.n
        size = graph.max_node + 1
        self.twom = 2 * graph.m
        self.fourm = 4 * graph.m
        self.fourmn = self.fourm * graph.n
        self.d_in = [0] * size
        self.d_out = [0] * size
        for v in graph.nodes:
            self.d_in[v] = len(graph.in_adj[v])
            self.d_out[v] = len(graph.out_adj[v])
        self._rows: dict[int, dict[int, int]] = {}
        # d_in -> its null_row, each built on first read
        self._null_rows: dict[int, list[int]] = {}
        self._max_d_out = max(self.d_out)
        # _shared_values[w] is 4m * w, the kernel value of a pair with no
        # edge and w >= 1 common out-neighbours; a row stores this one int
        # rather than a new one per pair
        self._shared_values = [self.fourm * w for w in range(self._max_d_out + 1)]
        # (w, d_in[i] * d_out[j]) -> the kernel value of an edge (i, j) with
        # w common out-neighbours: the two integers fix the value, so every
        # row shares one int per pair of them
        self._edge_values: dict[tuple[int, int], int] = {}

    def kernel_row(self, agent: int) -> dict[int, int]:
        """The agent's sparse kernel row: `row[j]` is the kernel value of
        the ordered pair (agent, j) for each j it holds; every pair it
        lacks takes the null-model branch."""
        row = self._rows.get(agent)
        if row is None:
            row = self._rows[agent] = self._build_row(agent)
        return row

    def null_row(self, d_in: int) -> list[int]:
        """`null_row(d_in)[d]` is -n * d_in * d, the null-model kernel value
        of a pair (i, j) with in-degree d_in at i and out-degree d at j:
        the value of every pair a kernel row lacks.  Built on first use per
        in-degree and kept."""
        row = self._null_rows.get(d_in)
        if row is None:
            step = -self.n * d_in
            row = self._null_rows[d_in] = [step * d for d in range(self._max_d_out + 1)]
        return row

    def _build_row(self, i: int) -> dict[int, int]:
        g = self.graph
        # w[j]: targets that both i and j point to, for every j sharing one
        w: dict[int, int] = {}
        for t in g.out_adj[i]:
            for j in g.in_adj[t]:
                if j != i:
                    w[j] = w.get(j, 0) + 1
        row: dict[int, int] = {}
        d_in_i, d_out = self.d_in[i], self.d_out
        edge_values = self._edge_values
        for j in g.out_adj[i]:
            key = (w.get(j, 0), d_in_i * d_out[j])
            value = edge_values.get(key)
            if value is None:
                wj, dd = key
                value = edge_values[key] = (2 * self.n * wj * (self.twom - dd) if wj >= 1
                                            else self.n * dd)
            row[j] = value
        shared = self._shared_values
        for j, wj in w.items():
            if j not in row:
                row[j] = shared[wj]
        return row


@dataclass(frozen=True)
class UtilityBreakdown:
    """Gain and loss of one agent's label set; utility is their difference."""

    gain: float
    loss: float

    @property
    def utility(self) -> float:
        return self.gain - self.loss


def similarity(ctx: GainContext, i: int, j: int) -> float:
    """Kernel value for the ordered node pair (i, j)."""
    if i == j:
        raise PreconditionError("similarity requires i != j")
    if not ctx.graph.has_node(i) or not ctx.graph.has_node(j):
        raise PreconditionError(f"nodes {i}, {j} must both be in the snapshot")
    return ctx.kernel_row(i).get(j, ctx.null_row(ctx.d_in[i])[ctx.d_out[j]]) / ctx.fourmn


def _check_gain(gain: str) -> None:
    if gain not in GAIN_KINDS:
        raise PreconditionError(f"gain must be one of {GAIN_KINDS}, got {gain!r}")


def _check_agent(ctx: GainContext, agent: int) -> None:
    if not ctx.graph.has_node(agent):
        raise PreconditionError(f"agent {agent} is not in the snapshot")


def _check_labels(labels, structure) -> None:
    missing = [k for k in labels if k not in structure.communities]
    if missing:
        raise PreconditionError(f"unknown community ids: {sorted(missing)}")
    repeated = [k for k, count in Counter(labels).items() if count > 1]
    if repeated:
        raise PreconditionError(f"repeated community ids: {sorted(repeated)}")


def _check_members(graph: SnapshotGraph, structure, labels) -> None:
    """Every member of the communities `labels` must be a node of `graph`:
    a scorer indexes degrees and kernel rows by member id."""
    communities, has_node = structure.communities, graph.has_node
    strays = sorted({v for k in labels for v in communities[k] if not has_node(v)})
    if strays:
        raise PreconditionError(f"agents {strays} hold labels but are not in the snapshot")


def utility(ctx: GainContext, agent: int, labels, structure, gain: str = "similarity") -> UtilityBreakdown:
    """Gain-minus-loss breakdown for an agent holding `labels`, under
    either gain described above; the loss is one unit per held label,
    normalized by m."""
    _check_gain(gain)
    _check_agent(ctx, agent)
    _check_labels(labels, structure)
    _check_members(ctx.graph, structure, labels)
    score = _SCORERS[gain](ctx, agent, structure, labels)
    return UtilityBreakdown(gain=score.as_utility(score.raw_total()), loss=len(labels) / ctx.m)


class _Scorer:
    """One agent's gain against the current structure: its total and the
    utility changes of its join, leave and switch moves, all ints in the
    gain's units.  A subclass per gain sums it: `raw_total`, `_raw_gain`
    and `switch`; `_SCORERS` picks the subclass by gain name.

    `held` defaults to the agent's own labels and `cost` is one label's
    cost in the gain's units.  Built once per agent turn; each community's
    raw gain is memoized, so a switch reuses the values its two legs
    already computed.  Each subclass sets every slot in its own `__init__`
    rather than calling a base one, so building a scorer costs one call
    per turn.
    """

    __slots__ = ("ctx", "agent", "structure", "held", "cost", "raw")

    def join(self, k: int) -> int:
        return self._raw_gain(k) - self.cost

    def leave(self, k: int) -> int:
        return self.cost - self._raw_gain(k)

    def as_utility(self, units: int) -> float:
        """`units` of this gain as a utility: a label costs `cost` units
        and 1/m of utility."""
        return units / (self.cost * self.ctx.m)


class _SimilarityScorer(_Scorer):
    """The similarity gain: the kernel summed once over the union of the
    agent's co-members, normalized by m.

    Invariant: the agent is never a key of `cnt`, so the member walks of
    a held community need no `j != agent` test, and a join target (a
    community the agent is not in) is walked with `j not in cnt` alone.

    Each walk reads kernel values with `row.get(j, null[d_out[j]])`: a
    pair the sparse row does not hold takes its null-model value from the
    context's table for the agent's in-degree (`GainContext.null_row`).
    """

    __slots__ = ("cnt", "row", "null")

    def __init__(self, ctx: GainContext, agent: int, structure, held=None):
        self.ctx = ctx
        self.agent = agent
        self.structure = structure
        if held is None:
            held = structure.memberships.get(agent, frozenset())
        self.held = held
        self.cost = ctx.fourmn
        # cnt[j]: how many held communities contain co-member j
        labels = [*held]
        communities = structure.communities
        self.cnt = cnt = dict.fromkeys(communities[labels[0]], 1) if labels else {}
        for k in labels[1:]:
            for j in communities[k]:
                cnt[j] = cnt.get(j, 0) + 1
        cnt.pop(agent, None)
        self.row = ctx.kernel_row(agent)
        self.null = ctx.null_row(ctx.d_in[agent])
        self.raw: dict[int, int] = {}

    def raw_total(self) -> int:
        """The gain over the held labels: the kernel summed once over each
        co-member."""
        get, null, d_out = self.row.get, self.null, self.ctx.d_out
        return sum([get(j, null[d_out[j]]) for j in self.cnt])

    def _raw_gain(self, k: int) -> int:
        """Kernel sum over the members a join of k would add (covered by no
        held community) or a leave of k would drop (covered by k alone)."""
        raw = self.raw.get(k)
        if raw is None:
            raw = 0
            cnt = self.cnt
            get, null, d_out = self.row.get, self.null, self.ctx.d_out
            if k not in self.held:
                for j in self.structure.communities[k]:
                    if j not in cnt:
                        raw += get(j, null[d_out[j]])
            else:
                for j in self.structure.communities[k]:
                    if cnt.get(j) == 1:
                        raw += get(j, null[d_out[j]])
            self.raw[k] = raw
        return raw

    def switch(self, k_out: int, k_in: int) -> int:
        # k_in's members count as gained when no held community other
        # than k_out covers them
        cnt = self.cnt
        lost = self._raw_gain(k_out)
        members = self.structure.communities[k_in]
        if cnt.keys().isdisjoint(members):
            # no held community covers a member: the join walk's sum
            return self._raw_gain(k_in) - lost
        get, null, d_out = self.row.get, self.null, self.ctx.d_out
        memberships = self.structure.memberships
        gained = 0
        for j in members:
            covered = cnt.get(j, 0) - (1 if k_out in memberships[j] else 0)
            if covered == 0:
                gained += get(j, null[d_out[j]])
        return gained - lost


class _ModularityScorer(_Scorer):
    """The modularity gain: each co-member counted once per shared
    community, normalized by 2m.  A raw gain is 2m times the triple sum,
    an int, so the gain is raw / (4m^2) and a label costs 4m units.

    A community's raw gain depends on its members' label counts, never on
    which labels the agent holds, and the loss terms cancel across a
    switch's two legs (the agent's label count does not change).  So a
    switch is exactly its leave's raw gain taken from its join's, and the
    best switch pairs the best leave with the best join: the one pair the
    engine scores is a full best response.
    """

    __slots__ = ()

    def __init__(self, ctx: GainContext, agent: int, structure, held=None):
        self.ctx = ctx
        self.agent = agent
        self.structure = structure
        if held is None:
            held = structure.memberships.get(agent, frozenset())
        self.held = held
        self.cost = ctx.fourm
        self.raw: dict[int, int] = {}

    def raw_total(self) -> int:
        """The gain over the held labels: each held community's raw gain."""
        return sum(map(self._raw_gain, self.held))

    def _raw_gain(self, k: int) -> int:
        """Each co-member j of k adds 2m * A[agent][j] * |labels(j)| minus
        the degree null model's d_in[agent] * d_out[j]."""
        raw = self.raw.get(k)
        if raw is None:
            raw = 0
            agent, ctx = self.agent, self.ctx
            out = ctx.graph.out_adj[agent]
            memberships = self.structure.memberships
            d_in_agent, d_out, twom = ctx.d_in[agent], ctx.d_out, ctx.twom
            for j in self.structure.communities[k]:
                if j == agent:
                    continue
                if j in out:
                    raw += twom * len(memberships[j])
                raw -= d_in_agent * d_out[j]
            self.raw[k] = raw
        return raw

    def switch(self, k_out: int, k_in: int) -> int:
        return self._raw_gain(k_in) - self._raw_gain(k_out)


# the one place a gain name selects code
_SCORERS: dict[str, type[_Scorer]] = {
    "similarity": _SimilarityScorer,
    "modularity": _ModularityScorer,
}
GAIN_KINDS = tuple(_SCORERS)


def utility_delta(ctx: GainContext, agent: int, action, structure, gain: str = "similarity") -> float:
    """Utility change for `agent` if `action` were applied now.

    Computed incrementally from the agent's held communities and the
    action's, exactly in the gain's units, and rounded once: the exact
    difference of two full utility evaluations, correctly rounded.  For
    the similarity gain only genuinely new (or exclusively held)
    co-members move the gain, mirroring its union-of-co-members
    definition.  Every member of those communities must be a node of the
    snapshot.
    """
    _check_gain(gain)
    _check_agent(ctx, agent)
    k_out, k_in = checked_legs(action, agent, structure)
    if k_out is None and k_in is None:
        return 0.0
    held = structure.memberships.get(agent, frozenset())
    _check_members(ctx.graph, structure, held if k_in is None else {*held, k_in})
    score = _SCORERS[gain](ctx, agent, structure)
    if k_in is None:
        return score.as_utility(score.leave(k_out))
    if k_out is None:
        return score.as_utility(score.join(k_in))
    return score.as_utility(score.switch(k_out, k_in))
