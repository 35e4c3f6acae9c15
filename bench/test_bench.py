"""Tests of the benchmark's own code: generator, tracer and output checks.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from spans import Tracer, load_spans, self_times, tail  # noqa: E402
from workloads import COMMUNITY_SIZE, MOVE_FRACTION, WORKLOADS, Workload, generate  # noqa: E402

SMALL = Workload(name="small", why="test", n=200, snapshots=3, repetitions=2,
                 dgt_args=("--variant", "dgt"))


def _generate(tmp_path: Path, name: str, workload: Workload, seed: int):
    edges, truth = tmp_path / f"{name}.edges", tmp_path / f"{name}.csv"
    counts = generate(workload, seed, edges, truth)
    return edges.read_bytes(), truth.read_bytes(), counts


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for workload in (SMALL, WORKLOADS["carryover-n400"]):
        first = _generate(tmp_path, "a", workload, 7)
        second = _generate(tmp_path, "b", workload, 7)
        assert first == second
        assert _generate(tmp_path, "c", workload, 8)[:2] != first[:2]


def test_generator_plants_moves_and_degree(tmp_path):
    edges, truth, counts = _generate(tmp_path, "a", SMALL, 3)
    rows = [line.split(",") for line in truth.decode().splitlines()[1:]]
    by_t = {}
    for t, node, label in rows:
        by_t.setdefault(int(t), {})[node] = label
    sizes = {}
    for label in by_t[0].values():
        sizes[label] = sizes.get(label, 0) + 1
    assert set(sizes.values()) == {COMMUNITY_SIZE}
    for t in range(1, SMALL.snapshots):
        moved = sum(by_t[t][v] != by_t[t - 1][v] for v in by_t[t])
        assert moved == int(MOVE_FRACTION * SMALL.n)
    lines = edges.decode().splitlines()
    assert [sum(line.endswith(f" {t}") for line in lines) for t in range(SMALL.snapshots)] == counts
    assert 6.0 < counts[0] / SMALL.n < 10.0
    intra = sum(by_t[0][src] == by_t[0][dst]
                for src, dst, t in (line.split() for line in lines) if t == "0")
    assert 0.8 < intra / counts[0] < 0.97


def test_benchmark_json_matches_workloads_and_notes():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    notes = json.loads((BENCH_DIR / "notes.json").read_text(encoding="utf-8"))
    assert set(notes["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert set(notes["end_to_end"]) >= {m["name"] for m in spec["end_to_end"]}


def test_self_time_subtracts_children_of_the_same_process():
    spans = [
        {"id": "1:0", "parent": None, "name": "root", "pid": 1, "start": 0.0, "end": 10.0},
        {"id": "1:1", "parent": "1:0", "name": "a", "pid": 1, "start": 1.0, "end": 4.0},
        {"id": "1:2", "parent": "1:0", "name": "b", "pid": 1, "start": 3.0, "end": 5.0},
        {"id": "2:0", "parent": "1:0", "name": "w", "pid": 2, "start": 2.0, "end": 9.0},
    ]
    got = self_times(spans)
    assert got == {"1:0": 6.0, "1:1": 3.0, "1:2": 2.0, "2:0": 7.0}


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert tail([float(i) for i in range(48)]) == (75.0, 36.0)
    assert tail([float(i) for i in range(200)]) == (95.0, 190.0)
    assert tail([1.0, 3.0, 2.0]) == (100.0, 3.0)


def _square(x):
    return x * x


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="dgt's pool inherits the wrappers only when workers are forked")
def test_forked_worker_spans_are_captured(tmp_path):
    tracer = Tracer(tmp_path)
    traced = tracer.wrap("demo.square", _square)
    module = sys.modules[__name__]
    original = module._square
    module._square = traced
    try:
        def parent():
            with ProcessPoolExecutor(max_workers=2) as pool:
                return list(pool.map(_call_square, range(6), timeout=60))
        assert tracer.call("cli.main", parent) == [x * x for x in range(6)]
        tracer.flush()
    finally:
        module._square = original
    spans = load_spans(tmp_path)
    (root,) = [s for s in spans if s["name"] == "cli.main"]
    workers = [s for s in spans if s["name"] == "demo.square"]
    assert len(workers) == 6
    assert all(s["pid"] != root["pid"] and s["parent"] == root["id"] for s in workers)


def _call_square(x):
    return _square(x)


def _write_outputs(out: Path, nodes: list[set[str]], reps: int, drop=None):
    out.mkdir()
    for t, labels in enumerate(nodes):
        for rep in range(reps):
            rows = sorted(labels - ({drop} if (t, rep) == (0, 0) else set()))
            (out / f"communities_t{t}_rep{rep}.csv").write_text(
                "node_label,community_id\n" + "".join(f"{v},0\n" for v in rows))
    body = "".join(f"{t},2.0,1,0.5,0.25\n" for t in range(len(nodes)))
    (out / "metrics.csv").write_text(
        "t,n_communities_pred,n_communities_true,nmi,modularity\n" + body + "summary,,,,\n")


def test_output_checks_accept_good_and_count_bad_outputs(tmp_path):
    nodes = [{"0", "1", "2"}, {"1", "2", "3"}]
    _write_outputs(tmp_path / "good", nodes, SMALL.repetitions)
    problems, quality = run.check_outputs(SMALL, tmp_path / "good", nodes)
    assert problems == []
    assert quality == {"nmi_mean": 0.5, "modularity_mean": 0.25, "count_error": 2.0}

    _write_outputs(tmp_path / "bad", nodes, SMALL.repetitions, drop="1")
    problems, _ = run.check_outputs(SMALL, tmp_path / "bad", nodes)
    assert problems and "communities_t0_rep0.csv" in problems[0]

    problems, _ = run.check_outputs(SMALL, tmp_path / "good", nodes + [{"9"}])
    assert any("metrics.csv" in p for p in problems)


def test_digest_store_keeps_the_first_digest(tmp_path):
    store = run.DigestStore(tmp_path / "digests.json", "w:1:code")
    assert store.check("aaa") and store.check("aaa")
    assert not store.check("bbb")
    assert not run.DigestStore(tmp_path / "digests.json", "w:1:code").check("bbb")
    assert run.DigestStore(tmp_path / "digests.json", "w:2:code").check("bbb")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_argv_names_every_input(name, tmp_path):
    argv = WORKLOADS[name].dgt_argv(tmp_path / "e", tmp_path / "t", tmp_path / "o", 5)
    assert argv[0] == "run" and argv[argv.index("--seed") + 1] == "5"
    assert ("--jobs" in argv) == (WORKLOADS[name].jobs > 1)


def test_traced_run_matches_untraced_and_reports_every_layer():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = Workload(name="small-jobs", why="test", n=200, snapshots=2, repetitions=2,
                        dgt_args=("--variant", "dgtp", "--diagnostics"), jobs=2)
    bench = run.Bench(workload, 1, seconds=0.0, traced=True)
    try:
        bench.measure()
    finally:
        bench.close()
    assert (bench.attempted, bench.failed, len(bench.traces)) == (2, 0, 1)
    values = bench.per_layer()
    assert values["trace.worker_spans"] > 0
    assert values["game_engine.run_snapshot_samples"] == 4
    missing = {m["name"] for m in spec["per_layer"]} - set(values)
    assert missing == {"quality.count_error", "bench.fail_frac"}
