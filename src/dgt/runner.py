"""Multi-snapshot orchestration: seed derivation, snapshot-major play of
the repetitions, and metric evaluation shared by the CLI and the demos."""

from __future__ import annotations

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
                   truth: GroundTruth | None = None,
                   repetitions=range(1)) -> list[list[SnapshotResult]]:
    """Play every snapshot of `seq` for each repetition number in
    `repetitions`, seeded by `derive_seeds`; results are indexed [rep][t].

    Snapshot t's one GainContext serves every repetition and is dropped
    before snapshot t + 1 is built; between snapshots a repetition keeps
    only its carried map (`initialization.carry`) and its id counter.
    """
    results = {rep: [] for rep in repetitions}
    state = {rep: ({}, 0) for rep in results}
    for t, graph in enumerate(seq.snapshots):
        ctx = GainContext(graph)
        for rep, (carried, next_id) in state.items():
            game_seed, init_seed = derive_seeds(config.rng_seed, rep, t)
            initial = init_structure(variant, t, carried, graph, truth=truth, next_id=next_id,
                                     rng=PCG64(init_seed))
            structure, result = run_snapshot(graph, initial, replace(config, rng_seed=game_seed),
                                             ctx=ctx)
            state[rep] = carry(variant, carried, structure.memberships), structure.next_id
            results[rep].append(result)
        del ctx
    return list(results.values())


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
        reference = {v: labels.get(v, "__unlabeled__") for v in graph.nodes}
        predicted = dict(partition)
    else:
        covered = [v for v in graph.nodes if v in labels]
        reference = {v: labels[v] for v in covered}
        predicted = {v: partition[v] for v in covered}
    score = nmi(predicted, reference) if reference else None
    return score, mod, truth.community_count(t)
