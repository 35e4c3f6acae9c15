"""The community formation game on one snapshot.

Each node is a selfish agent holding a set of community labels.  Agents are
visited in a fresh random permutation per pass; each plays the single
action (join / leave / switch / no-op) with the highest strictly positive
utility change, applied immediately.  Play stops when the fraction of
agents that changed strategy in a pass drops below the configured
threshold or when the pass cap is hit.  Agents may hold several labels
while the game runs; the returned partition collapses each agent to its
single best-gain community.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from .errors import AuditError, ConfigError, PreconditionError
from .gain_functions import (
    GAIN_KINDS,
    NOOP,
    Action,
    GainContext,
    Join,
    Leave,
    NoOp,
    Switch,
    _check_agent,
    _check_members,
    _SCORERS,
    checked_legs,
)
from .rng import PCG64
from .snapshot_graph import SnapshotGraph


@dataclass(frozen=True)
class GameConfig:
    """Knobs of one game run.

    The random generator is PCG64 seeded with `rng_seed`, so identical
    (graph, initial structure, config) triples replay identically on any
    platform.  `trace` False skips the per-pass totals, leaving
    `SnapshotResult.utility_trace` empty; the game itself is unchanged.
    """

    gain: str = "similarity"
    max_passes: int = 8
    change_fraction_threshold: float = 0.05
    rng_seed: int = 0
    trace: bool = True

    def __post_init__(self):
        if self.gain not in GAIN_KINDS:
            raise ConfigError(f"gain must be one of {GAIN_KINDS}, got {self.gain!r}")
        if self.max_passes < 1:
            raise ConfigError("max_passes must be >= 1")
        if not 0.0 <= self.change_fraction_threshold <= 1.0:
            raise ConfigError("change_fraction_threshold must be in [0, 1]")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")


class CommunityStructure:
    """Mutable communities <-> memberships bimap with a fresh-id counter.

    Ids are never reused: every new community draws from `next_id`, which
    only grows, including across snapshots when structures are carried
    forward.  Empty communities are removed as soon as their last member
    leaves.  `communities` maps each id to its member list, in no
    particular order: every score is an exact integer sum, so no decision
    depends on it.  Membership tests go through `memberships`.
    """

    __slots__ = ("communities", "memberships", "next_id")

    def __init__(self, next_id: int = 0):
        self.communities: dict[int, list[int]] = {}
        self.memberships: dict[int, set[int]] = {}
        self.next_id = next_id

    @classmethod
    def from_singletons(cls, nodes, next_id: int = 0) -> "CommunityStructure":
        return cls(next_id).fill_singletons(nodes)

    @classmethod
    def from_memberships(cls, memberships: dict, next_id: int) -> "CommunityStructure":
        """Rebuild a structure from agent -> label-set maps; every label
        must be below `next_id` (ids come from earlier allocations)."""
        s = cls(next_id)
        for v, ks in memberships.items():
            s.memberships[v] = labels = set(ks)
            for k in labels:
                if k >= next_id:
                    raise PreconditionError(f"label {k} is >= next_id {next_id}")
                s.communities.setdefault(k, []).append(v)
        return s

    def fill_singletons(self, nodes) -> "CommunityStructure":
        """Give each of `nodes` that holds no label a fresh singleton
        community, in ascending node order, and return the structure."""
        for v in sorted(nodes):
            if not self.memberships.get(v):
                self.create_community([v])
        return self

    def add_agent(self, agent: int) -> None:
        self.memberships.setdefault(agent, set())

    def create_community(self, members) -> int:
        members = list(set(members))
        if not members:
            raise PreconditionError("a new community needs at least one member")
        k = self.fresh_id()
        self.communities[k] = members
        for v in members:
            self.memberships.setdefault(v, set()).add(k)
        return k

    def fresh_id(self) -> int:
        """Consume an id: every community id, and every id the hard
        assignment gives a label-less agent, is drawn here."""
        k = self.next_id
        self.next_id += 1
        return k

    def join(self, agent: int, community: int) -> None:
        members = self.communities.get(community)
        if members is None:
            raise PreconditionError(f"no community {community}")
        labels = self.memberships.setdefault(agent, set())
        if community in labels:
            raise PreconditionError(f"agent {agent} already in community {community}")
        members.append(agent)
        labels.add(community)

    def leave(self, agent: int, community: int) -> None:
        members = self.communities.get(community)
        labels = self.memberships.get(agent, ())
        if members is None or community not in labels:
            raise PreconditionError(f"agent {agent} not in community {community}")
        members.remove(agent)
        labels.discard(community)
        if not members:
            del self.communities[community]

    def apply(self, agent: int, action: Action) -> None:
        """Play `action` for `agent`, or raise before any change."""
        k_out, k_in = checked_legs(action, agent, self)
        if k_out is not None:
            self.leave(agent, k_out)
        if k_in is not None:
            self.join(agent, k_in)

    def copy(self) -> "CommunityStructure":
        dup = CommunityStructure(self.next_id)
        dup.communities = {k: list(vs) for k, vs in self.communities.items()}
        dup.memberships = {v: set(ks) for v, ks in self.memberships.items()}
        return dup

    def audit(self) -> list[str]:
        """Consistency report; empty when the structure is sound."""
        problems = []
        member_sets = {}
        for k, members in self.communities.items():
            member_sets[k] = member_set = set(members)
            if not members:
                problems.append(f"community {k} is empty")
            if len(member_set) != len(members):
                problems.append(f"community {k} lists a member more than once")
            for v in member_set:
                if k not in self.memberships.get(v, ()):
                    problems.append(f"agent {v} in community {k} but label missing")
        for v, ks in self.memberships.items():
            for k in ks:
                if v not in member_sets.get(k, ()):
                    problems.append(f"agent {v} holds label {k} but is not a member")
        for k in self.communities:
            if k >= self.next_id:
                problems.append(f"community id {k} is >= next_id {self.next_id}")
        return problems

    def __repr__(self):
        return (
            f"CommunityStructure({len(self.communities)} communities, "
            f"{len(self.memberships)} agents)"
        )


@dataclass
class SnapshotResult:
    """Outcome of one snapshot's game.

    `partition` is the final disjoint assignment; the evolved multi-label
    state the game ended in is the structure `run_snapshot` returns beside
    this result.  The trace fields record per-pass telemetry:
    `changed_trace` always, `utility_trace` only under `GameConfig.trace`.
    `actions_taken` counts every turn under its action's `kind`, the no-op
    included, so `games_played` is its sum and `passes_used` the length of
    `changed_trace`.  `stop_reason` says why play stopped: "threshold" when
    the last pass changed fewer than the threshold fraction of agents (even
    when that pass was the last one allowed), "pass_cap" when every allowed
    pass ran and the last one still changed more.
    """

    partition: dict[int, int]
    actions_taken: dict[str, int]
    utility_trace: list[float]
    changed_trace: list[int] = field(default_factory=list)
    stop_reason: str = "threshold"
    max_candidates: int = 0

    @property
    def passes_used(self) -> int:
        return len(self.changed_trace)

    @property
    def games_played(self) -> int:
        return sum(self.actions_taken.values())

    @property
    def n_communities(self) -> int:
        return len(set(self.partition.values()))


def _candidate_communities(ctx: GainContext, agent: int, structure: CommunityStructure, held) -> list[int]:
    """Join targets: communities hosting at least one in- or out-neighbor,
    excluding the agent's `held` communities."""
    g, get = ctx.graph, structure.memberships.get
    seen = set().union(*map(get, g.out_adj[agent], repeat(())),
                       *map(get, g.in_adj[agent], repeat(())))
    return sorted(seen - held)


def _best_response(ctx: GainContext, agent: int, structure: CommunityStructure,
                   config: GameConfig) -> tuple[Action, int, int]:
    """Returns (action, delta, candidates_considered), the delta an int in
    the gain's units; NoOp when no action has a strictly positive utility
    change.  The one switch scored moves from the best leave k_out to the
    best join k_in.  Equal deltas prefer switch, then join, then leave,
    and among equal joins or leaves the lowest community id.

    The scans are loops, not max(key=...): under CPython 3.11 a key called
    from C made the carryover-n400 bench game 4-10% slower (2-CPU VM)."""
    score = _SCORERS[config.gain](ctx, agent, structure)
    held = score.held
    join_ids = _candidate_communities(ctx, agent, structure, held)
    # a strict `>` keeps the first, so the lowest id, of equal deltas
    k_in = None
    for k in join_ids:
        delta = score.join(k)
        if k_in is None or delta > d_in:
            k_in, d_in = k, delta
    k_out = None
    for k in sorted(held):
        delta = score.leave(k)
        if k_out is None or delta > d_out:
            k_out, d_out = k, delta

    # each strict `>` keeps the earlier kind on a tie: switch, join, leave
    best, action = 0, NOOP
    if k_in is not None:
        if k_out is not None:
            delta = score.switch(k_out, k_in)
            if delta > best:
                best, action = delta, Switch(k_out, k_in)
        if d_in > best:
            best, action = d_in, Join(k_in)
    if k_out is not None and d_out > best:
        best, action = d_out, Leave(k_out)
    # every join and leave, the no-op and the one switch
    return action, best, len(join_ids) + len(held) + 2


def best_response(ctx: GainContext, agent: int, structure: CommunityStructure,
                  config: GameConfig) -> Action:
    """The agent's best action against the current structure, or NoOp when
    nothing strictly improves its utility.  Every member of the communities
    it scores, its own and its neighbours', must be a node of the snapshot."""
    _check_agent(ctx, agent)
    held = structure.memberships.get(agent, frozenset())
    _check_members(ctx.graph, structure,
                   {*held, *_candidate_communities(ctx, agent, structure, held)})
    return _best_response(ctx, agent, structure, config)[0]


def _totals(ctx: GainContext, agents, structure: CommunityStructure, gain: str) -> float:
    """Total utility over the non-empty `agents`: the total gain minus the
    total loss, summed exactly and rounded once."""
    total = 0
    scorer = _SCORERS[gain]
    for agent in agents:
        score = scorer(ctx, agent, structure)
        total += score.raw_total() - len(score.held) * score.cost
    return score.as_utility(total)


def is_local_equilibrium(ctx: GainContext, structure: CommunityStructure,
                         config: GameConfig) -> bool:
    """True iff every agent's best response is the no-op.  Like the game,
    it scores each join and leave but one switch only, best leave to best
    join, so an improving switch may remain (2 of 250 zero-change C04
    games).  Every member of a held community must be a snapshot node."""
    get = structure.memberships.get
    _check_members(ctx.graph, structure, set().union(*map(get, ctx.graph.nodes, repeat(()))))
    for agent in ctx.graph.nodes:
        if not isinstance(_best_response(ctx, agent, structure, config)[0], NoOp):
            return False
    return True


def _hard_assignment(ctx: GainContext, structure: CommunityStructure, gain: str) -> dict[int, int]:
    """Collapse each agent to the held community with the highest raw gain
    taken alone, the lowest id among ties; agents holding no labels get a
    fresh singleton id."""
    partition: dict[int, int] = {}
    scorer = _SCORERS[gain]
    for agent in ctx.graph.nodes:
        held = structure.memberships.get(agent, ())
        if not held:
            partition[agent] = structure.fresh_id()
        elif len(held) == 1:
            (partition[agent],) = held
        else:
            # max() keeps the first of equal keys, so the lowest id
            partition[agent] = max(sorted(held), key=lambda k: scorer(
                ctx, agent, structure, (k,)).raw_total())
    return partition


def run_snapshot(graph: SnapshotGraph, initial: CommunityStructure, config: GameConfig,
                 ctx: GainContext | None = None, *,
                 copy: bool = True) -> tuple[CommunityStructure, SnapshotResult]:
    """Play the community formation game to convergence on one snapshot.

    Agents are visited once per pass in a fresh uniform permutation and
    each applied action must strictly improve the acting agent's utility
    (violations raise AuditError: they would mean the engine's incremental
    deltas disagree with the action taken).  Every agent of `initial`
    that holds a label must be a node of `graph`.  Returns the evolved
    multi-membership structure, whose `memberships` seed the carry-over of
    later snapshots, and the hard-assigned result.

    The game plays on a copy of `initial`.  With `copy=False` it plays on
    `initial` itself, which the caller hands over: the structure returned
    is then `initial`, evolved in place, and no second structure is held.
    """
    problems = initial.audit()
    if problems:
        raise AuditError("; ".join(problems))
    _check_members(graph, initial, initial.communities)
    if ctx is None:
        ctx = GainContext(graph)
    elif ctx.graph is not graph:
        raise PreconditionError("ctx was built for a different snapshot")

    structure = initial.copy() if copy else initial
    for agent in graph.nodes:
        structure.add_agent(agent)

    rng = PCG64(config.rng_seed)
    agents = graph.nodes
    n = len(agents)
    actions_taken = {"join": 0, "leave": 0, "switch": 0, "noop": 0}
    utility_trace: list[float] = []
    changed_trace: list[int] = []
    max_candidates = 0
    stop_reason = "pass_cap"

    for _ in range(config.max_passes):
        order = rng.permutation(n)
        changed = 0
        for idx in order:
            agent = agents[idx]
            action, delta, considered = _best_response(ctx, agent, structure, config)
            actions_taken[action.kind] += 1
            if considered > max_candidates:
                max_candidates = considered
            if isinstance(action, NoOp):
                continue
            if delta <= 0:
                raise AuditError(
                    f"non-improving action {action!r} selected for agent {agent}"
                )
            structure.apply(agent, action)
            changed += 1
        if config.trace:
            utility_trace.append(_totals(ctx, agents, structure, config.gain))
        changed_trace.append(changed)
        if changed / n < config.change_fraction_threshold:
            stop_reason = "threshold"
            break

    partition = _hard_assignment(ctx, structure, config.gain)
    result = SnapshotResult(
        partition=partition,
        actions_taken=actions_taken,
        utility_trace=utility_trace,
        changed_trace=changed_trace,
        stop_reason=stop_reason,
        max_candidates=max_candidates,
    )
    return structure, result
