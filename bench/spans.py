"""Span tracer for the traced benchmark run, and the per-layer summary.

Wrappers sit on the module attributes that dgt's callers look up, so the
package itself is not modified.  Each span holds a name, start, end, the
id of the span that caused it, and counters read from the call's public
return value.  Spans stay in memory and are written when the traced run
ends.  Under `--jobs` the pool workers are forked with the wrappers in
place; a worker writes its spans to its own file each time its outermost
span closes, because pool workers are never shut down through a path that
could flush them later.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import resource
import time
from pathlib import Path

# (module whose attribute is looked up, attribute, layer = defining module)
TARGETS = (
    ("dgt.cli", "read_edge_list", "snapshot_graph"),
    ("dgt.cli", "load_ground_truth", "initialization"),
    ("dgt.cli", "GainContext", "gain_functions"),
    ("dgt.cli", "run_repetition", "runner"),
    ("dgt.cli", "evaluate_outcome", "runner"),
    ("dgt.cli", "write_metrics_report", "metrics"),
    ("dgt.cli", "write_churn_report", "snapshot_graph"),
    ("dgt.runner", "GainContext", "gain_functions"),
    ("dgt.runner", "init_structure", "initialization"),
    ("dgt.runner", "run_snapshot", "game_engine"),
    ("dgt.runner", "nmi", "metrics"),
    ("dgt.runner", "modularity_directed", "metrics"),
)

# Spans whose self time is reported under a shorter metric name.
_SELF_TIME_NAMES = {"metrics.modularity_directed": "metrics.modularity", "cli.main": "cli.self"}

# Spans of the parent process that are not part of the repetition phase.
_IO_SPANS = ("snapshot_graph.read_edge_list", "initialization.load_ground_truth",
             "metrics.write_metrics_report", "snapshot_graph.write_churn_report")

# Spans that make up the repetition phase, wherever they run.
_WORK_SPANS = ("runner.run_repetition", "runner.evaluate_outcome")

_TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _count_gain_context(args, result, rss_before_kb):
    return {"dense": int(bool(result.dense)), "rss_kb": _max_rss_kb() - rss_before_kb}


def _count_run_snapshot(args, result, _):
    graph, _, config = args[:3]
    _, res = result
    nodes = len(graph.nodes)
    sizes: dict[int, int] = {}
    for k in res.partition.values():
        sizes[k] = sizes.get(k, 0) + 1
    capped = (res.passes_used == config.max_passes and bool(res.changed_trace)
              and res.changed_trace[-1] / nodes >= config.change_fraction_threshold)
    return {
        "nodes": nodes,
        "turns": res.games_played,
        "passes": res.passes_used,
        "join": res.actions_taken["join"],
        "leave": res.actions_taken["leave"],
        "switch": res.actions_taken["switch"],
        "max_candidates": res.max_candidates,
        "pass_cap_hit": int(capped),
        "singletons": sum(1 for size in sizes.values() if size == 1),
    }


def _count_init_structure(args, result, _):
    return {"communities": len(result.communities)}


def _count_read_edge_list(args, result, _):
    return {"input_bytes": os.path.getsize(args[0]),
            "edges": sum(g.m for g in result.snapshots)}


# attribute -> (counters from (args, result, before), value taken before the call)
_COUNTERS = {
    "GainContext": (_count_gain_context, _max_rss_kb),
    "run_snapshot": (_count_run_snapshot, None),
    "init_structure": (_count_init_structure, None),
    "read_edge_list": (_count_read_edge_list, None),
}


class Tracer:
    """In-memory span recorder; one per traced run, inherited by forked workers."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.inherited_parent: str | None = None
        self.ids = itertools.count()

    def _enter_process(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            # First span in a forked worker: drop the copy of the parent's
            # spans; the parent's open span becomes the cause of the worker's.
            self.inherited_parent = self.stack[-1] if self.stack else self.inherited_parent
            self.pid = pid
            self.spans = []
            self.stack = []
            self.ids = itertools.count()

    def call(self, name: str, fn, args=(), kwargs=None, counters=None):
        self._enter_process()
        span_id = f"{self.pid}:{next(self.ids)}"
        parent = self.stack[-1] if self.stack else self.inherited_parent
        count, before = counters if counters else (None, None)
        before_value = before() if before else None
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self.stack.pop()
        self.spans.append({
            "id": span_id, "parent": parent, "name": name, "pid": self.pid,
            "start": start, "end": end,
            "counters": count(args, result, before_value) if count else {},
        })
        if not self.stack and self.pid != self.owner:
            self.flush()
        return result

    def wrap(self, name: str, fn, counters=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counters)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target attribute with a traced wrapper."""
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            setattr(module, attr, self.wrap(f"{layer}.{attr}", fn, _COUNTERS.get(attr)))

    def flush(self) -> None:
        if not self.spans:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def load_spans(directory: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span id: its duration minus the part covered by
    child spans recorded in the same process."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None and s["parent"].split(":")[0] == str(s["pid"]):
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], ()),
                                                       s["start"], s["end"])
            for s in spans}


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, or the maximum (percentile 100) when none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in _TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, ordered[min(n - 1, int(pct / 100.0 * n))]
    return 100.0, ordered[-1]


def summarize(spans: list[dict], jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans and counters."""
    self_s = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total_self(name):
        return sum(self_s[s["id"]] for s in by_name.get(name, ()))

    def total_counter(name, key):
        return sum(s["counters"][key] for s in by_name.get(name, ()))

    out = {}
    for name in [f"{layer}.{attr}" for _, attr, layer in TARGETS] + ["cli.main"]:
        out[_SELF_TIME_NAMES.get(name, name) + "_s"] = total_self(name)

    contexts = by_name.get("gain_functions.GainContext", ())
    out["gain_functions.GainContext_calls"] = len(contexts)
    out["gain_functions.dense_contexts"] = total_counter("gain_functions.GainContext", "dense")
    out["gain_functions.GainContext_rss_mb"] = (
        total_counter("gain_functions.GainContext", "rss_kb") / 1024.0)

    games = by_name.get("game_engine.run_snapshot", ())
    durations = [s["end"] - s["start"] for s in games]
    turns = total_counter("game_engine.run_snapshot", "turns")
    applied = sum(total_counter("game_engine.run_snapshot", k) for k in ("join", "leave", "switch"))
    out["game_engine.run_snapshot_p50_s"] = sorted(durations)[len(durations) // 2]
    out["game_engine.run_snapshot_tail_pct"], out["game_engine.run_snapshot_tail_s"] = tail(durations)
    out["game_engine.run_snapshot_samples"] = len(durations)
    out["game_engine.turns"] = turns
    out["game_engine.turns_per_s"] = turns / sum(durations)
    out["game_engine.passes"] = total_counter("game_engine.run_snapshot", "passes")
    for kind in ("join", "leave", "switch"):
        out[f"game_engine.actions_{kind}"] = total_counter("game_engine.run_snapshot", kind)
    out["game_engine.useful_turn_ratio"] = applied / turns
    out["game_engine.max_candidates"] = max(s["counters"]["max_candidates"] for s in games)
    out["game_engine.pass_cap_hits"] = total_counter("game_engine.run_snapshot", "pass_cap_hit")
    out["game_engine.singleton_frac"] = (total_counter("game_engine.run_snapshot", "singletons")
                                         / total_counter("game_engine.run_snapshot", "nodes"))

    out["initialization.init_calls"] = len(by_name.get("initialization.init_structure", ()))
    out["initialization.initial_communities"] = total_counter(
        "initialization.init_structure", "communities")
    out["snapshot_graph.input_bytes"] = total_counter("snapshot_graph.read_edge_list", "input_bytes")
    out["snapshot_graph.edges"] = total_counter("snapshot_graph.read_edge_list", "edges")

    (root,) = by_name["cli.main"]
    main_pid = root["pid"]
    wall = root["end"] - root["start"]
    io_s = sum(s["end"] - s["start"] for s in spans
               if s["pid"] == main_pid and s["name"] in _IO_SPANS)
    work_s = sum(s["end"] - s["start"] for s in spans
                 if s["name"] in _WORK_SPANS or (s["name"] == "gain_functions.GainContext"
                                                 and s["parent"] == root["id"]))
    out["cli.parallel_efficiency"] = work_s / (jobs * (wall - io_s))
    out["trace.worker_spans"] = sum(1 for s in spans if s["pid"] != main_pid)
    return out
