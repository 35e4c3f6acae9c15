"""The dgt benchmark: seeded `dgt run` workloads, output checks and metrics.

    python3 bench/run.py --workload carryover-n400 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The workload's inputs are generated from `--seed` into
`.bench_work/`.  Every `dgt run` happens in a fresh process (`child.py`),
repeated until `--seconds` have passed, and every run's outputs are
checked.  A failed check is counted, not raised.

With `--trace 0` the last stdout line reports the end-to-end metrics of
BENCHMARK.json (medians over the runs).  With `--trace 1` untraced and
traced runs alternate and it reports the per-layer metrics instead.  The
lines before it are a human-readable table.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import load_spans, summarize
from workloads import WORKLOADS, dgt_seed, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Whole-benchmark limit; a stuck child is killed before it is reached.
HARD_LIMIT_S = 170.0
# Set-up timings per set-up process (one per iteration); the median of all
# of them is reported.
SETUP_REPEATS = 1


class Child:
    """Runs child.py steps, each in its own process group, against a deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.steps = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def __call__(self, request: dict) -> dict | None:
        self.steps += 1
        request_path = self.work / f"request-{self.steps}.json"
        result_path = self.work / f"result-{self.steps}.json"
        request_path.write_text(json.dumps(request), encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(request_path), str(result_path)],
            cwd=ROOT, env=self.env, stdout=sys.stderr, start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"bench: {request['mode']} step timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result_path.exists():
            print(f"bench: {request['mode']} step exited with {proc.returncode}", file=sys.stderr)
            return None
        return json.loads(result_path.read_text(encoding="utf-8"))


def snapshot_nodes(edges: Path) -> list[set[str]]:
    """Node labels with at least one incident edge, per snapshot."""
    nodes: dict[int, set[str]] = {}
    with open(edges, encoding="utf-8") as fh:
        for line in fh:
            src, dst, t = line.split()
            nodes.setdefault(int(t), set()).update((src, dst))
    return [nodes[t] for t in sorted(nodes)]


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class DigestStore:
    """First output digest per (workload, seed, code), kept across runs."""

    def __init__(self, path: Path, key: str):
        self.path = path
        self.key = key
        stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        self.reference = stored.get(key)

    def check(self, digest: str) -> bool:
        if self.reference is None:
            self.reference = digest
            stored = json.loads(self.path.read_text(encoding="utf-8")) if self.path.exists() else {}
            stored[self.key] = digest
            tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(stored, indent=1, sort_keys=True), encoding="utf-8")
            os.replace(tmp, self.path)
        return digest == self.reference


def check_outputs(workload, out: Path, nodes: list[set[str]]) -> tuple[list[str], dict]:
    """Problems found in one run's output directory, and its quality figures."""
    problems = []
    for t, expected in enumerate(nodes):
        for rep in range(workload.repetitions):
            path = out / f"communities_t{t}_rep{rep}.csv"
            if not path.exists():
                problems.append(f"{path.name} missing")
                continue
            with open(path, encoding="utf-8", newline="") as fh:
                labels = [row[0] for row in list(csv.reader(fh))[1:]]
            if len(labels) != len(expected) or set(labels) != expected:
                problems.append(f"{path.name} does not cover the {len(expected)} nodes "
                                f"of snapshot {t} exactly once")
    quality = {}
    try:
        with open(out / "metrics.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        body = rows[1:-1]
        if [row[0] for row in body] != [str(t) for t in range(len(nodes))] \
                or rows[-1][0] != "summary":
            problems.append(f"metrics.csv has {len(rows) - 1} rows, expected "
                            f"{len(nodes)} snapshots plus the summary")
        else:
            quality = {
                "nmi_mean": statistics.fmean(float(row[3]) for row in body),
                "modularity_mean": statistics.fmean(float(row[4]) for row in body),
                "count_error": sum(abs(float(row[1]) - float(row[2])) for row in body),
            }
    except (OSError, IndexError, ValueError) as exc:
        problems.append(f"metrics.csv unreadable: {exc}")
    return problems, quality


def directory_bytes(out: Path) -> int:
    return sum(path.stat().st_size for path in out.iterdir())


class Bench:
    def __init__(self, workload, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.start = time.monotonic()
        WORK.mkdir(exist_ok=True)
        self.work = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()
        self.child = Child(self.work, self.start + HARD_LIMIT_S)
        self.edges = self.work / "edges.txt"
        self.truth = self.work / "truth.csv"
        self.edges_per_snapshot = generate(workload, seed, self.edges, self.truth)
        self.nodes = snapshot_nodes(self.edges)
        self.digests = DigestStore(WORK / "digests.json",
                                   f"{workload.name}:{seed}:{code_hash()}")
        self.attempted = 0
        self.failed = 0
        self.runs: list[dict] = []
        self.traces: list[dict] = []
        self.quality: dict = {}
        self.setup_s: list[float] = []

    def dgt_run(self, mode: str) -> dict | None:
        """One checked `dgt run`; None when it failed."""
        self.attempted += 1
        out = self.work / f"out-{self.attempted}"
        trace_dir = self.work / f"spans-{self.attempted}"
        request = {"mode": mode, "trace_dir": str(trace_dir),
                   "argv": self.workload.dgt_argv(self.edges, self.truth, out,
                                                  dgt_seed(self.workload, self.seed))}
        result = self.child(request)
        problems = []
        if result is None:
            problems.append("no result")
        elif result["exit_code"] != 0:
            problems.append(f"exit code {result['exit_code']}")
        else:
            problems, quality = check_outputs(self.workload, out, self.nodes)
            if not problems and not self.digests.check(output_digest(out)):
                problems.append("output digest differs from the first run of this code and seed")
            if not problems:
                self.quality = quality
                result["output_bytes"] = directory_bytes(out)
                if mode == "trace":
                    result["layers"] = summarize(load_spans(trace_dir), self.workload.jobs)
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(trace_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"bench: {mode} run {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
            return None
        return result

    def measure(self) -> None:
        # Stop before an iteration that would overrun --seconds, so that a
        # run lasts about --seconds whatever the workload's iteration time.
        deadline = self.start + self.seconds
        while True:
            began = time.monotonic()
            run = self.dgt_run("run")
            if run is not None:
                self.runs.append(run)
            if self.traced:
                traced = self.dgt_run("trace")
                if traced is not None:
                    self.traces.append(traced)
            else:
                setup = self.child({"mode": "setup", "edges": str(self.edges),
                                    "truth": str(self.truth), "repeats": SETUP_REPEATS})
                if setup is not None:
                    self.setup_s.extend(setup["setup_s"])
            now = time.monotonic()
            if now + (now - began) > deadline:
                break

    def end_to_end(self) -> dict[str, float]:
        run_s = statistics.median(r["run_s"] for r in self.runs)
        edges = sum(self.edges_per_snapshot) * self.workload.repetitions
        return {
            "run_s": run_s,
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.runs),
            "edges_per_s": edges / run_s,
            "nmi_mean": self.quality["nmi_mean"],
            "modularity_mean": self.quality["modularity_mean"],
        }

    def per_layer(self) -> dict[str, float]:
        layers = [t["layers"] for t in self.traces]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["cli.output_bytes"] = statistics.median(t["output_bytes"] for t in self.traces)
        values["trace.overhead_frac"] = (
            statistics.median(t["run_s"] for t in self.traces)
            / statistics.median(r["run_s"] for r in self.runs) - 1.0)
        return values

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dgt" / "__init__.py").is_file():
        print(f"bench: no dgt package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        bench.measure()
    finally:
        bench.close()
    succeeded = bench.runs and (bench.traces if args.trace else bench.setup_s)
    if not succeeded:
        print(f"bench: every run failed ({bench.failed} of {bench.attempted})", file=sys.stderr)
        return 1

    # Printed with both result kinds; bounded metrics cannot carry them (see notes.json).
    quality = {"quality.count_error": bench.quality["count_error"],
               "bench.fail_frac": bench.failed / bench.attempted}
    if args.trace:
        values, group = {**bench.per_layer(), **quality}, "per_layer"
    else:
        values, group = bench.end_to_end(), "end_to_end"
    names = [m["name"] for m in spec[group]]
    shown = {**values, **quality}
    missing = [name for name in names if name not in values]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(f"# {args.workload} seed={args.seed} runs={len(bench.runs)} "
          f"traced={len(bench.traces)} setups={len(bench.setup_s)} "
          f"attempted={bench.attempted} failed={bench.failed}")
    print(f"# run_s samples {[round(r['run_s'], 3) for r in bench.runs]} "
          f"traced {[round(t['run_s'], 3) for t in bench.traces]} "
          f"setup_s samples {[round(s, 3) for s in bench.setup_s]}")
    for name, value in shown.items():
        print(f"{name:40s} {value:>16.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
