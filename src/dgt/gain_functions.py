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
of `_MoveScorer` read any other pair's null-model value from a table kept
per in-degree, `GainContext.null_row(d_in)[d_out]`, so kernel memory does
not grow with the pairs the game scores: the tables hold at most (distinct
in-degrees) x (max out-degree + 1) floats.

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

`_MoveScorer` is the only code that sums a gain: an agent's total gain
and the deltas of its join, leave and switch moves.  The public gain
functions, `utility_delta` and the game engine all call it.  The move
types live here because `utility_delta` dispatches on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

from .errors import EmptyGraphError, PreconditionError
from .snapshot_graph import SnapshotGraph

GAIN_KINDS = ("similarity", "modularity")


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


class GainContext:
    """Per-snapshot state for utility evaluation: O(n+m) to build.

    Holds the degree vectors and, for each agent that has played, its
    sparse kernel row, built on first use and kept for later turns.  A
    row is a plain dict holding only the agent's out-neighbours and the
    nodes sharing one of its out-neighbours: at most its out-degree plus
    the in-degrees of its out-neighbours, so all rows together hold at
    most m plus the sum of squared in-degrees, whatever pairs the game
    scores.  Null-model values come from `null_row`, one table per
    distinct in-degree of the agents read, each max out-degree + 1 floats
    long.  Safe to share across repeated runs on the same snapshot.
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
        self.twom = 2.0 * graph.m
        self.fourm = 4.0 * graph.m
        self.d_in = [0] * size
        self.d_out = [0] * size
        for v in graph.nodes:
            self.d_in[v] = len(graph.in_adj[v])
            self.d_out[v] = len(graph.out_adj[v])
        self._rows: dict[int, dict[int, float]] = {}

    def kernel_row(self, agent: int) -> dict[int, float]:
        """The agent's sparse kernel row: `row[j]` is the kernel value of
        the ordered pair (agent, j) for each j it holds; every pair it
        lacks takes the null-model branch."""
        row = self._rows.get(agent)
        if row is None:
            row = self._rows[agent] = self._build_row(agent)
        return row

    def null_row(self, d_in: int) -> list[float]:
        """`null_row(d_in)[d]` is -(d_in * d) / (4m), the null-model kernel
        value of a pair (i, j) with in-degree d_in at i and out-degree d at
        j: the value of every pair a kernel row lacks.  Built on first use
        per in-degree and kept."""
        row = self._null_rows.get(d_in)
        if row is None:
            fourm = self.fourm
            row = self._null_rows[d_in] = [-(d_in * d) / fourm
                                           for d in range(self._max_d_out + 1)]
        return row

    # set on first use rather than in __init__, so building a context costs
    # no more when no null value is read
    @cached_property
    def _null_rows(self) -> dict[int, list[float]]:
        return {}

    @cached_property
    def _max_d_out(self) -> int:
        return max(self.d_out)

    def _build_row(self, i: int) -> dict[int, float]:
        g = self.graph
        # w[j]: targets that both i and j point to, for every j sharing one
        w: dict[int, int] = {}
        for t in g.out_adj[i]:
            for j in g.in_adj[t]:
                if j != i:
                    w[j] = w.get(j, 0) + 1
        row: dict[int, float] = {}
        d_in_i, d_out = self.d_in[i], self.d_out
        for j in g.out_adj[i]:
            dd = float(d_in_i * d_out[j])
            wj = w.get(j, 0)
            row[j] = wj * (1.0 - dd / self.twom) if wj >= 1 else dd / self.fourm
        for j, wj in w.items():
            if j not in row:
                row[j] = wj / self.n
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
    return ctx.kernel_row(i).get(j, ctx.null_row(ctx.d_in[i])[ctx.d_out[j]])


def _check_gain(gain: str) -> None:
    if gain not in GAIN_KINDS:
        raise PreconditionError(f"gain must be one of {GAIN_KINDS}, got {gain!r}")


def _check_labels(labels, structure) -> None:
    missing = [k for k in labels if k not in structure.communities]
    if missing:
        raise PreconditionError(f"unknown community ids: {sorted(missing)}")


def gain_similarity(ctx: GainContext, agent: int, labels, structure) -> float:
    """Similarity gain: (1/m) * sum of the kernel over the union of the
    agent's co-members.  A node sharing several communities with the agent
    counts once; holding overlapping communities pays only for the members
    they add."""
    _check_labels(labels, structure)
    return _MoveScorer(ctx, agent, structure, "similarity", labels).total()


def gain_modularity(ctx: GainContext, agent: int, labels, structure) -> float:
    """Personalized modularity gain, normalized by 1/(2m)."""
    _check_labels(labels, structure)
    return _MoveScorer(ctx, agent, structure, "modularity", labels).total()


def loss(ctx: GainContext, labels) -> float:
    """Membership cost: one unit per held label, normalized by m."""
    return len(labels) / ctx.m


def utility(ctx: GainContext, agent: int, labels, structure, gain: str = "similarity") -> UtilityBreakdown:
    """Gain-minus-loss breakdown for an agent holding `labels`."""
    _check_gain(gain)
    _check_labels(labels, structure)
    g = _MoveScorer(ctx, agent, structure, gain, labels).total()
    return UtilityBreakdown(gain=g, loss=loss(ctx, labels))


class _MoveScorer:
    """One agent's gain against the current structure: its total and the
    utility changes of its join, leave and switch moves.  The only code
    that sums a gain.

    `held` defaults to the agent's own labels.  Built once per agent turn,
    so the coverage counts and the loss terms are computed once; each
    community's raw gain is memoized, so a switch reuses the values its
    two legs already computed.

    Invariant: the agent is never a key of `cnt`, so the member walks of
    a held community need no `j != agent` test, and a join target (a
    community the agent is not in) is walked with `j not in cnt` alone.

    Each similarity walk reads kernel values with
    `row.get(j, null[d_out[j]])`: a pair the sparse row does not hold
    takes its null-model value from the context's table for the agent's
    in-degree (`GainContext.null_row`).
    """

    __slots__ = ("ctx", "agent", "structure", "held", "similarity", "norm",
                 "join_loss", "leave_loss", "cnt", "row", "null", "raw")

    def __init__(self, ctx: GainContext, agent: int, structure, gain: str, held=None):
        self.ctx = ctx
        self.agent = agent
        self.structure = structure
        if held is None:
            held = structure.memberships.get(agent, frozenset())
        self.held = held
        n_labels = len(held)
        m = ctx.m
        self.join_loss = (n_labels + 1) / m - n_labels / m
        self.leave_loss = (n_labels - 1) / m - n_labels / m
        self.similarity = gain == "similarity"
        if self.similarity:
            self.norm = m
            # cnt[j]: how many held communities contain co-member j, keyed
            # in first-seen order over ascending labels and members
            labels = sorted(held)
            communities = structure.communities
            self.cnt = cnt = dict.fromkeys(communities[labels[0]], 1) if labels else {}
            for k in labels[1:]:
                for j in communities[k]:
                    cnt[j] = cnt.get(j, 0) + 1
            cnt.pop(agent, None)
            self.row = ctx.kernel_row(agent)
            self.null = ctx.null_row(ctx.d_in[agent])
        else:
            self.norm = ctx.twom
        self.raw: dict[int, float] = {}

    def raw_total(self) -> float:
        """The gain over the held labels before normalization.  Similarity:
        the kernel summed once over each co-member, in `cnt` order.
        Modularity: each held community's raw gain, in ascending label
        order."""
        # not sum(): its float rounding changed in Python 3.12
        total = 0.0
        if self.similarity:
            get, null, d_out = self.row.get, self.null, self.ctx.d_out
            for j in self.cnt:
                total += get(j, null[d_out[j]])
        else:
            for k in sorted(self.held):
                total += self._raw_gain(k)
        return total

    def total(self) -> float:
        """The gain over the held labels, normalized."""
        return self.raw_total() / self.norm

    def _raw_gain(self, k: int) -> float:
        """Similarity: kernel sum over the members a join of k would add
        (covered by no held community) or a leave of k would drop (covered
        by k alone).  Modularity: each co-member j of k adds
        A[agent][j]*|labels(j)| minus the degree null model share."""
        raw = self.raw.get(k)
        if raw is None:
            raw = 0.0
            if self.similarity:
                cnt = self.cnt
                get, null, d_out = self.row.get, self.null, self.ctx.d_out
                if k not in self.held:
                    for j in self.structure.communities[k]:
                        if j not in cnt:
                            raw += get(j, null[d_out[j]])
                elif len(self.held) == 1:
                    # cnt is k's members less the agent, in member order
                    for j in cnt:
                        raw += get(j, null[d_out[j]])
                else:
                    for j in self.structure.communities[k]:
                        if cnt.get(j) == 1:
                            raw += get(j, null[d_out[j]])
            else:
                agent, ctx = self.agent, self.ctx
                out = ctx.graph.out_adj[agent]
                memberships = self.structure.memberships
                d_in_agent, d_out, twom = ctx.d_in[agent], ctx.d_out, ctx.twom
                for j in self.structure.communities[k]:
                    if j == agent:
                        continue
                    null = (d_in_agent * d_out[j]) / twom
                    if j in out:
                        raw += len(memberships[j]) - null
                    else:
                        raw -= null
            self.raw[k] = raw
        return raw

    def join(self, k: int) -> float:
        return self._raw_gain(k) / self.norm - self.join_loss

    def leave(self, k: int) -> float:
        return -(self._raw_gain(k) / self.norm) - self.leave_loss

    def switch(self, k_out: int, k_in: int) -> float:
        if not self.similarity:
            return self._raw_gain(k_in) / self.norm - self._raw_gain(k_out) / self.norm
        # k_in's members count as gained when no held community other
        # than k_out covers them
        cnt = self.cnt
        lost = self._raw_gain(k_out)
        members = self.structure.communities[k_in]
        if cnt.keys().isdisjoint(members):
            # no held community covers a member: the join walk's sum
            return (self._raw_gain(k_in) - lost) / self.norm
        get, null, d_out = self.row.get, self.null, self.ctx.d_out
        memberships = self.structure.memberships
        gained = 0.0
        for j in members:
            covered = cnt.get(j, 0) - (1 if k_out in memberships[j] else 0)
            if covered == 0:
                gained += get(j, null[d_out[j]])
        return (gained - lost) / self.norm


def utility_delta(ctx: GainContext, agent: int, action, structure, gain: str = "similarity") -> float:
    """Utility change for `agent` if `action` were applied now.

    Computed incrementally from the affected communities only; agrees with
    the difference of two full utility evaluations to 1e-12.  For the
    similarity gain only genuinely new (or exclusively held) co-members
    move the gain, mirroring its union-of-co-members definition.
    """
    _check_gain(gain)
    held = structure.memberships.get(agent, frozenset())
    if isinstance(action, NoOp):
        return 0.0
    if isinstance(action, Join):
        k = action.community
        if k in held:
            raise PreconditionError(f"agent {agent} already holds community {k}")
        _check_labels((k,), structure)
        return _MoveScorer(ctx, agent, structure, gain).join(k)
    if isinstance(action, Leave):
        k = action.community
        if k not in held:
            raise PreconditionError(f"agent {agent} does not hold community {k}")
        return _MoveScorer(ctx, agent, structure, gain).leave(k)
    if isinstance(action, Switch):
        k_out, k_in = action.out_community, action.in_community
        if k_out == k_in:
            raise PreconditionError("switch legs must differ")
        if k_out not in held:
            raise PreconditionError(f"agent {agent} does not hold community {k_out}")
        if k_in in held:
            raise PreconditionError(f"agent {agent} already holds community {k_in}")
        _check_labels((k_in,), structure)
        return _MoveScorer(ctx, agent, structure, gain).switch(k_out, k_in)
    raise PreconditionError(f"unknown action {action!r}")
