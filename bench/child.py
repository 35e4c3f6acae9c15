"""One measured step of the benchmark, in a fresh interpreter.

    python bench/child.py <request.json> <result.json>

`run.py` starts one process per step so that peak RSS belongs to that step
alone.  Imports finish before any clock starts.  Modes:

  run    time `dgt.cli.main(argv)`; report wall seconds and peak RSS
  trace  the same call with every traced wrapper installed; spans are
         written to the request's `trace_dir`
  setup  time `read_edge_list`, `load_ground_truth` and one `GainContext`
         per snapshot, `repeats` times
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def _main_exit_code(call) -> int:
    try:
        return call()
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def run(request: dict) -> dict:
    from dgt import cli

    start = time.perf_counter()
    code = _main_exit_code(lambda: cli.main(request["argv"]))
    run_s = time.perf_counter() - start
    return {"exit_code": code, "run_s": run_s, "peak_rss_mb": _peak_rss_mb()}


def trace(request: dict) -> dict:
    from dgt import cli
    from spans import Tracer

    tracer = Tracer(Path(request["trace_dir"]))
    tracer.install()
    start = time.perf_counter()
    code = _main_exit_code(lambda: tracer.call("cli.main", cli.main, (request["argv"],)))
    run_s = time.perf_counter() - start
    tracer.flush()
    return {"exit_code": code, "run_s": run_s}


def setup(request: dict) -> dict:
    from dgt import GainContext, load_ground_truth, read_edge_list

    samples = []
    for _ in range(request["repeats"]):
        start = time.perf_counter()
        seq = read_edge_list(request["edges"])
        load_ground_truth(request["truth"], seq)
        contexts = [GainContext(g) for g in seq.snapshots]
        samples.append(time.perf_counter() - start)
        del seq, contexts
    return {"setup_s": samples}


def main(argv: list[str]) -> int:
    request_path, result_path = argv
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    result = {"run": run, "trace": trace, "setup": setup}[request["mode"]](request)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
