"""Multi-snapshot orchestration: seed derivation, per-repetition runs,
and metric evaluation shared by the CLI and the demo scripts."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gain_functions import GainContext
from .game_engine import GameConfig, SnapshotResult, run_snapshot
from .initialization import GroundTruth, VariantKind, init_structure
from .metrics import modularity_directed, modularity_undirected, nmi
from .snapshot_graph import SnapshotSequence


def derive_seeds(master_seed: int, repetition: int, t: int) -> tuple[int, int]:
    """Two 64-bit seeds for (repetition, snapshot): the first drives the
    game, the second the initialization.  Documented derivation:
    SeedSequence(master_seed, spawn_key=(repetition, t)).generate_state(2).
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(repetition, t))
    game_seed, init_seed = ss.generate_state(2, np.uint64)
    return int(game_seed), int(init_seed)


@dataclass
class SnapshotOutcome:
    t: int
    result: SnapshotResult

    @property
    def n_communities(self) -> int:
        return len(set(self.result.partition.values()))


def run_repetition(seq: SnapshotSequence, variant: VariantKind, config: GameConfig,
                   truth: GroundTruth | None = None, repetition: int = 0,
                   contexts: list[GainContext] | None = None) -> list[SnapshotOutcome]:
    """Run every snapshot of `seq` in order, seeded from `config.rng_seed`.

    `contexts` may pass pre-built GainContexts (one per snapshot) to share
    kernel caches across repetitions.
    """
    history: list[dict[int, set[int]]] = []
    outcomes: list[SnapshotOutcome] = []
    next_id = 0
    for t, graph in enumerate(seq.snapshots):
        ctx = contexts[t] if contexts is not None else GainContext(graph)
        game_seed, init_seed = derive_seeds(config.rng_seed, repetition, t)
        rng = np.random.Generator(np.random.PCG64(init_seed))
        initial = init_structure(variant, t, history, graph, truth=truth,
                                 rng=rng, next_id=next_id)
        structure, result = run_snapshot(graph, initial, replace(config, rng_seed=game_seed), ctx=ctx)
        next_id = structure.next_id
        history.append(structure.memberships)
        outcomes.append(SnapshotOutcome(t, result))
    return outcomes


def evaluate_outcome(seq: SnapshotSequence, outcome: SnapshotOutcome,
                     truth: GroundTruth | None = None, undirected: bool = False,
                     unlabeled_as_community: bool = False):
    """(nmi, modularity, true community count) for one snapshot outcome.

    NMI compares against ground truth over the labeled nodes present in
    the snapshot, or over all nodes with unlabeled ones pooled into one
    extra community when `unlabeled_as_community` is set.  Both
    truth-dependent values are None when no ground truth is given or when
    it holds no label for this snapshot, with the flag or without it; NMI
    is also None when no labeled node is in the snapshot.
    """
    graph = seq.snapshots[outcome.t]
    partition = outcome.result.partition
    mod = (modularity_undirected if undirected else modularity_directed)(graph, partition)
    labels = truth.labels_for(outcome.t) if truth is not None else {}
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
    return score, mod, truth.community_count(outcome.t)
