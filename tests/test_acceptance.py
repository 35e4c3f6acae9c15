"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from dgt import cli
from dgt.gain_functions import GainContext, utility, utility_delta
from dgt.game_engine import (
    CommunityStructure,
    GameConfig,
    Join,
    Leave,
    NoOp,
    Switch,
    is_local_equilibrium,
    run_snapshot,
)
from dgt.initialization import VariantKind, write_ground_truth
from dgt.metrics import count_error, modularity_directed, nmi
from dgt.runner import evaluate_outcome, run_repetition
from dgt.snapshot_graph import SnapshotGraph, churn_rows, load_edge_stream, write_edge_list
from dgt.synth import SynthConfig, generate

from oracles import (
    modularity_directed_oracle,
    nmi_oracle,
    random_digraph,
    random_partition,
    random_structure,
    utility_oracle,
)

FIXTURE = SynthConfig(communities=4, community_size=25, p_in=0.3, p_out=0.01,
                      churn=0.1, num_snapshots=5, rng_seed=47)
SIMILARITY = GameConfig(gain="similarity")


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fixture_data():
    seq, truth = generate(FIXTURE)
    contexts = [GainContext(g) for g in seq.snapshots]
    return seq, truth, contexts


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept")
    seq, truth = generate(FIXTURE)
    write_edge_list(seq, path / "edges.txt")
    write_ground_truth(truth, seq, path / "truth.csv")
    return path


def test_c01_modularity_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        g = random_digraph(rng, 25)
        p = random_partition(rng, g.nodes)
        worst = max(worst, abs(modularity_directed(g, p) - modularity_directed_oracle(g, p)))
    elapsed = time.perf_counter() - start
    report(1, "modularity-oracle-equivalence", worst <= 1e-12 and elapsed < 5.0,
           f"worst={worst:.2e}, {elapsed:.2f}s")


def test_c02_nmi_oracle_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 31))
        x = random_partition(rng, range(n))
        y = random_partition(rng, range(n))
        worst = max(worst, abs(nmi(x, y) - nmi_oracle(x, y)))
        ok &= nmi(x, x) == 1.0
        remap = {lab: (str(lab), "alt") for lab in set(x.values())}
        ok &= abs(nmi({v: remap[c] for v, c in x.items()}, y) - nmi(x, y)) <= 1e-12
    report(2, "nmi-oracle-equivalence", ok and worst <= 1e-12, f"worst={worst:.2e}")


def test_c03_incremental_delta_correctness():
    rng = np.random.default_rng(103)
    worst = 0.0
    for gain in ("similarity", "modularity"):
        trials = 0
        while trials < 200:
            g = random_digraph(rng, 20)
            rng.integers(0, 2)  # keeps the drawn graphs as they were
            ctx = GainContext(g)
            st = random_structure(rng, g)
            agent = int(rng.choice(g.nodes))
            held = sorted(st.memberships[agent])
            open_ids = sorted(set(st.communities) - set(held))
            actions = [NoOp()]
            if open_ids:
                actions.append(Join(int(rng.choice(open_ids))))
            if held:
                actions.append(Leave(int(rng.choice(held))))
            if held and open_ids:
                actions.append(Switch(int(rng.choice(held)), int(rng.choice(open_ids))))
            for action in actions:
                delta = utility_delta(ctx, agent, action, st, gain)
                after = st.copy()
                after.apply(agent, action)
                full = utility_oracle(
                    g, after.communities, after.memberships, agent,
                    after.memberships[agent], gain,
                ) - utility_oracle(
                    g, st.communities, st.memberships, agent,
                    st.memberships[agent], gain,
                )
                worst = max(worst, abs(delta - full))
                trials += 1
    report(3, "incremental-delta-correctness", worst <= 1e-12, f"worst={worst:.2e}")


def test_c04_strict_improvement_and_termination(fixture_data):
    seq, truth, contexts = fixture_data
    ok_games = True
    # default config: strict improvement is asserted inside the engine
    # (an AuditError would fail this test); every run must stay within
    # 8n individual games per snapshot
    for results in run_repetition(seq, VariantKind("dgts"), SIMILARITY, repetitions=range(50)):
        for t, result in enumerate(results):
            ok_games &= result.games_played <= 8 * seq.snapshots[t].n
    # threshold 0 with a high pass cap: after any zero-change pass the
    # final state must be a local equilibrium
    zero_pass_runs = 0
    ok_equilibrium = True
    config = GameConfig(gain="similarity", max_passes=12, change_fraction_threshold=0.0)
    for seed in range(50):
        for t, g in enumerate(seq.snapshots):
            init = CommunityStructure.from_singletons(g.nodes)
            structure, result = run_snapshot(
                g, init, replace(config, rng_seed=seed * 31 + t), ctx=contexts[t])
            if 0 in result.changed_trace:
                zero_pass_runs += 1
                ok_equilibrium &= is_local_equilibrium(contexts[t], structure, config)
    report(4, "strict-improvement-and-termination",
           ok_games and ok_equilibrium and zero_pass_runs > 0,
           f"zero-change runs checked: {zero_pass_runs}")


def test_c05_planted_recovery_static(two_cliques, two_cliques_plant):
    ctx = GainContext(two_cliques)
    start = time.perf_counter()
    perfect = 0
    for seed in range(10):
        init = CommunityStructure.from_singletons(two_cliques.nodes)
        _, result = run_snapshot(two_cliques, init, GameConfig(rng_seed=seed), ctx=ctx)
        if nmi(result.partition, two_cliques_plant) == 1.0:
            perfect += 1
    elapsed = time.perf_counter() - start
    report(5, "planted-recovery-static", perfect >= 9 and elapsed < 1.0,
           f"{perfect}/10 perfect, {elapsed:.2f}s")


def test_c06_dynamic_carryover_beats_restart(fixture_data):
    seq, truth, _ = fixture_data
    start = time.perf_counter()
    dgt_scores, dgts_scores = [], []
    for variant, bucket in ((VariantKind("dgt"), dgt_scores),
                            (VariantKind("dgts"), dgts_scores)):
        for results in run_repetition(seq, variant, SIMILARITY, truth=truth,
                                      repetitions=range(20)):
            scores = [evaluate_outcome(seq, t, r, truth)[0] for t, r in enumerate(results)]
            bucket.append(float(np.mean(scores)))
    elapsed = time.perf_counter() - start
    mean_dgt, mean_dgts = float(np.mean(dgt_scores)), float(np.mean(dgts_scores))
    p_value = float(stats.ttest_rel(dgt_scores, dgts_scores, alternative="greater").pvalue)
    report(6, "dynamic-carryover-beats-restart",
           mean_dgt >= mean_dgts and p_value < 0.05 and elapsed < 60.0,
           f"dgt={mean_dgt:.4f} dgts={mean_dgts:.4f} p={p_value:.4f} {elapsed:.1f}s")


def test_c07_community_count_accuracy(fixture_data):
    seq, truth, _ = fixture_data
    actual = [truth.community_count(t) for t in range(seq.num_snapshots)]
    errors = []
    for results in run_repetition(seq, VariantKind("dgt"), SIMILARITY, truth=truth,
                                  repetitions=range(10)):
        predicted = [r.n_communities for r in results]
        errors.append(count_error(predicted, actual))
    mean_per_snapshot = float(np.mean(errors)) / seq.num_snapshots
    report(7, "community-count-accuracy", mean_per_snapshot <= 1.0,
           f"mean error/snapshot={mean_per_snapshot:.3f}")


def test_c08_seed_fraction_monotone(fixture_files, tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main([
        "sweep-seed-fraction",
        "--input", str(fixture_files / "edges.txt"),
        "--truth", str(fixture_files / "truth.csv"),
        "--variant", "dgtg", "--repetitions", "10", "--seed", "0",
        "--fractions", "0,0.1,0.2", "--out", str(out),
    ])
    assert rc == 0
    import csv as csv_mod

    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv_mod.DictReader(fh))
    means = [float(row["nmi_mean"]) for row in rows]
    non_decreasing = all(b >= a for a, b in zip(means, means[1:]))
    report(8, "seed-fraction-monotone-nmi", len(means) == 3 and non_decreasing,
           "means=" + ",".join(f"{v:.4f}" for v in means))


def test_c09_scaling_check():
    times = {}
    games_ok = True
    candidates_ok = True
    for size in (25, 50):
        cfg = replace(FIXTURE, community_size=size)
        seq, _ = generate(cfg)
        best = float("inf")
        for seed in range(3):
            start = time.perf_counter()
            [results] = run_repetition(seq, VariantKind("dgts"), SIMILARITY,
                                       repetitions=[seed])
            best = min(best, time.perf_counter() - start)
            for t, result in enumerate(results):
                n = seq.snapshots[t].n
                games_ok &= result.games_played <= 8 * n
                candidates_ok &= result.max_candidates <= n
        times[size] = best
    ratio = times[50] / times[25]
    report(9, "quadratic-scaling", ratio <= 6.0 and games_ok and candidates_ok,
           f"time ratio n=200/n=100: {ratio:.2f}")


def test_c10_cli_determinism(fixture_files, tmp_path):
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli.main([
            "run", "--input", str(fixture_files / "edges.txt"),
            "--truth", str(fixture_files / "truth.csv"),
            "--variant", "dgt", "--gain", "similarity",
            "--repetitions", "2", "--seed", "17", "--diagnostics",
            "--out", str(out),
        ])
        assert rc == 0
        digests.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    report(10, "cli-byte-determinism", digests[0] == digests[1],
           f"{len(digests[0])} files compared")


def test_c11_churn_report_correctness():
    records = [
        ("a", "b", 0), ("b", "c", 0),   # t0: a->b, b->c
        ("a", "b", 1),                  # t1: a->b          -> (0, 1, 2)
        ("a", "c", 2),                  # t2: a->c          -> (1, 1, 3)
    ]
    seq = load_edge_stream(records)
    rows = churn_rows(seq)
    expected = [(1, 0, 1, 2), (2, 1, 1, 3)]
    # standalone hand cases
    prev = SnapshotGraph.from_edges([(0, 1)], nodes=[0, 1, 2])
    nxt = SnapshotGraph.from_edges([(0, 2)], nodes=[0, 1, 2], index_t=1)
    from dgt.snapshot_graph import diff

    case1 = diff(prev, nxt)
    ok = (
        rows == expected
        and (case1.edges_added, case1.edges_deleted, case1.nodes_changed) == (1, 1, 3)
    )
    report(11, "churn-report-correctness", ok, f"rows={rows}")
