"""Multi-snapshot orchestration: seed derivation, snapshot-major play of
the repetitions, and metric evaluation shared by the CLI and the demos."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

from .gain_functions import GainContext
from .game_engine import GameConfig, SnapshotResult, run_snapshot
from .initialization import GroundTruth, VariantKind, carry, init_structure
from .metrics import modularity_directed, modularity_undirected, nmi
from .rng import PCG64, SeedSequence
from .snapshot_graph import SnapshotSequence


def derive_seeds(master_seed: int, repetition: int, t: int) -> tuple[int, int]:
    """Two 64-bit seeds for (repetition, snapshot): the first drives the
    game, the second the initialization.  Documented derivation: numpy's
    SeedSequence(master_seed, spawn_key=(repetition, t)).generate_state(2,
    np.uint64), reproduced bit for bit by `dgt.rng`, so no numpy release
    can move the seeds.
    """
    game_seed, init_seed = SeedSequence(master_seed, (repetition, t)).generate_state(2)
    return game_seed, init_seed


def run_repetition(seq: SnapshotSequence, variant: VariantKind, config: GameConfig,
                   truth: GroundTruth | None = None, repetitions=range(1),
                   on_game: Callable[[int, int, SnapshotResult], object] | None = None,
                   ) -> list[list]:
    """Play every snapshot of `seq` for each repetition number in
    `repetitions`, seeded by `derive_seeds`; the entries returned are
    indexed [rep][t].  An entry is the game's SnapshotResult or, given
    `on_game`, what `on_game(t, rep, result)` returns; it is called as
    each game ends, so a caller that keeps only a summary of each game
    holds no result past its game.

    Snapshot t's one GainContext serves every repetition and is dropped
    before snapshot t + 1 is built.  A game plays on the structure
    `init_structure` built, not on a copy; dgts, dgtp and dgtg drop their
    carried map before play, since only dgt reads it after the game.
    Between snapshots a repetition keeps only its carried map
    (`initialization.carry`) and its id counter.
    """
    entries = {rep: [] for rep in repetitions}
    carried = {rep: {} for rep in entries}
    next_ids = dict.fromkeys(entries, 0)
    for t, graph in enumerate(seq.snapshots):
        ctx = GainContext(graph)
        # over the keys: an items() iterator would keep the last map alive
        for rep in entries:
            game_seed, init_seed = derive_seeds(config.rng_seed, rep, t)
            structure = init_structure(variant, t, carried[rep], graph, truth=truth,
                                       next_id=next_ids[rep], rng=PCG64(init_seed))
            if variant.kind != "dgt":
                carried[rep] = {}  # read only to build the start: released before play
            structure, result = run_snapshot(graph, structure,
                                             replace(config, rng_seed=game_seed), ctx=ctx,
                                             copy=False)
            carried[rep] = carry(variant, carried[rep], structure.memberships)
            next_ids[rep] = structure.next_id
            # neither may outlive this game: the names are rebound only
            # after the next structure is built and its game played
            del structure
            entries[rep].append(on_game(t, rep, result) if on_game else result)
            del result
        del ctx
    return list(entries.values())


# The reference label of the nodes ground truth leaves unlabeled: an object
# no truth label can equal, whatever the truth file names its communities.
_UNLABELED = object()


def evaluate_outcome(seq: SnapshotSequence, t: int, result: SnapshotResult,
                     truth: GroundTruth | None = None, undirected: bool = False,
                     unlabeled_as_community: bool = False):
    """(nmi, modularity, true community count) for snapshot `t`'s result.

    NMI compares against ground truth over the labeled nodes present in
    the snapshot, or over all nodes with unlabeled ones pooled into one
    extra community when `unlabeled_as_community` is set.  Both
    truth-dependent values are None when no ground truth is given or when
    it holds no label for this snapshot, with the flag or without it; NMI
    is also None when no labeled node is in the snapshot.
    """
    graph = seq.snapshots[t]
    partition = result.partition
    mod = (modularity_undirected if undirected else modularity_directed)(graph, partition)
    labels = truth.labels_for(t) if truth is not None else {}
    if not labels:
        return None, mod, None
    if unlabeled_as_community:
        reference = {v: labels.get(v, _UNLABELED) for v in graph.nodes}
        predicted = dict(partition)
    else:
        covered = [v for v in graph.nodes if v in labels]
        reference = {v: labels[v] for v in covered}
        predicted = {v: partition[v] for v in covered}
    score = nmi(predicted, reference) if reference else None
    return score, mod, truth.community_count(t)
