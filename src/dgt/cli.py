"""Command-line entry point.

Subcommands:
  run                  detect communities and write assignments + reports
  sweep-seed-fraction  rerun dgtg across seed fractions, report mean NMI
  churn-report         edge churn statistics between consecutive snapshots

All randomness derives from --seed through a documented per-(repetition,
snapshot) derivation, so identical invocations write byte-identical files.
Exit codes: 0 success, 1 input/config error, 2 internal invariant failure.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from functools import partial
from pathlib import Path

from .errors import AuditError, DgtError
from .gain_functions import GAIN_KINDS, GainContext  # noqa: F401 (bench/spans.py wraps it)
from .game_engine import GameConfig
from .initialization import VARIANT_KINDS, GroundTruth, VariantKind, load_ground_truth
from .metrics import _mean_std, _sum_floats, write_metrics_report
from .runner import evaluate_outcome, run_repetition
from .snapshot_graph import (
    SnapshotSequence,
    parse_node_file,
    read_edge_list,
    write_churn_report,
    write_csv,
)

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; this tool reserves 2 for
    # internal invariant failures, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="edge-list file: source target snapshot")
    p.add_argument("--undirected", action="store_true",
                   help="treat records as undirected (materialize both directions)")
    p.add_argument("--snapshot-by", default="column", metavar="MODE",
                   help="'column' (default) or 'window:<W>' to bucket a trailing "
                        "timestamp column into W-second snapshots")
    p.add_argument("--nodes", default=None,
                   help="optional node-list file declaring isolated nodes: label snapshot")
    p.add_argument("--out", required=True, help="output directory")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    _add_input_flags(p)
    p.add_argument("--variant", default="dgt", choices=VARIANT_KINDS)
    p.add_argument("--gain", default="similarity", choices=GAIN_KINDS)
    p.add_argument("--seed-fraction", type=float, default=0.1,
                   help="fraction of nodes seeded from ground truth (dgtg only)")
    p.add_argument("--truth", default=None, help="ground-truth CSV: snapshot,node_label,community_label")
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--max-passes", type=int, default=8)
    p.add_argument("--threshold", type=float, default=0.05,
                   help="stop when the fraction of agents changing per pass drops below this")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="parallel repetitions")
    p.add_argument("--diagnostics", action="store_true",
                   help="write per-pass convergence telemetry CSVs")
    p.add_argument("--unlabeled-as-community", action="store_true",
                   help="score NMI with truth-unlabeled nodes pooled into one community "
                        "instead of excluding them")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dgt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_p = sub.add_parser("run", help="run community detection")
    _add_run_flags(run_p)

    sweep_p = sub.add_parser("sweep-seed-fraction", help="NMI vs dgtg seed fraction")
    _add_run_flags(sweep_p)
    sweep_p.add_argument("--fractions", required=True,
                         help="comma-separated seed fractions, e.g. 0,0.1,0.2")

    churn_p = sub.add_parser("churn-report", help="edge churn between snapshots")
    _add_input_flags(churn_p)
    return parser


def _load_sequence(args) -> SnapshotSequence:
    extra = parse_node_file(args.nodes) if args.nodes else None
    return read_edge_list(args.input, snapshot_by=args.snapshot_by,
                          extra_nodes=extra, undirected=args.undirected)


def _load_truth(args, seq: SnapshotSequence) -> GroundTruth | None:
    if args.truth is None:
        return None
    return load_ground_truth(args.truth, seq)


def _make_variant(args) -> VariantKind:
    if args.variant == "dgtg":
        if args.truth is None:
            raise DgtError("--variant dgtg requires --truth")
        return VariantKind("dgtg", seed_fraction=args.seed_fraction)
    return VariantKind(args.variant)


def _make_config(args, trace: bool) -> GameConfig:
    """The game's config; `trace` asks for the per-pass totals, which only
    the diagnostics files of `run` read."""
    if args.repetitions < 1:
        raise DgtError("--repetitions must be >= 1")
    if args.jobs < 1:
        raise DgtError("--jobs must be >= 1")
    return GameConfig(gain=args.gain, max_passes=args.max_passes,
                      change_fraction_threshold=args.threshold, rng_seed=args.seed,
                      trace=trace)


def _rep_rows(seq, config, truth, undirected, unlabeled, out_dir, variant, reps):
    """For each repetition in `reps`, one row per snapshot: (communities
    found, whether the game stopped at the pass cap, nmi, modularity, true
    count).

    With an `out_dir`, each game's partition file, and its diagnostics file
    under `config.trace`, is written as soon as the game ends, so no
    partition outlives its game; without one nothing is written.
    """
    def game_row(t, rep, result):
        if out_dir is not None:
            write_csv(out_dir / f"communities_t{t}_rep{rep}.csv",
                      ["node_label", "community_id"],
                      [(seq.label_of(v), k) for v, k in sorted(result.partition.items())])
            if config.trace:
                _write_diagnostics(out_dir / f"diagnostics_t{t}_rep{rep}.csv", result)
        return (result.n_communities, result.stop_reason == "pass_cap",
                *evaluate_outcome(seq, t, result, truth=truth, undirected=undirected,
                                  unlabeled_as_community=unlabeled))

    return run_repetition(seq, variant, config, truth=truth, repetitions=reps, on_game=game_row)


# The leading `_rep_rows` arguments of a --jobs pool worker, set once when
# the worker starts, so that no task has to carry the sequence.
_worker_fixed: tuple = ()


def _init_worker(*fixed):
    global _worker_fixed
    _worker_fixed = fixed


def _worker_rep_rows(variant, reps):
    return _rep_rows(*_worker_fixed, variant, reps)


def _run_all_reps(seq, variants, config, truth, args, out_dir=None):
    """Yields, for each variant in turn, the `_rep_rows` of every repetition,
    then warns once if any of the games stopped at the pass cap.

    With --jobs one process pool serves every variant: its workers get the
    fixed arguments once, a task carries only the variant and one rep, and
    it returns only that rep's rows, having written its own files.
    Without it, one task plays every repetition snapshot by snapshot.
    """
    fixed = (seq, config, truth, args.undirected, args.unlabeled_as_community, out_dir)
    reps = range(args.repetitions)
    # a fork pool starts all its workers up front: never more than tasks
    jobs = min(args.jobs, args.repetitions)
    if jobs > 1:
        # imported here: the pool machinery costs memory a serial run never uses
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                   initargs=fixed)
        play, rep_rows, tasks = pool.map, _worker_rep_rows, [[rep] for rep in reps]
    else:
        pool, play = contextlib.nullcontext(), map
        rep_rows, tasks = partial(_rep_rows, *fixed), [reps]
    games = capped = 0
    with pool:
        for variant in variants:
            per_rep = [rows for task in play(partial(rep_rows, variant), tasks)
                       for rows in task]
            for rows in per_rep:
                games += len(rows)
                capped += sum(at_cap for _, at_cap, *_ in rows)
            yield per_rep
    if capped:
        logger.warning("%d of %d game(s) stopped at the pass cap (--max-passes %d) with "
                       "agents still changing", capped, games, args.max_passes)


def _write_diagnostics(path, result) -> None:
    write_csv(path, ["pass", "changed_agents", "total_utility"],
              [(i, *row) for i, row
               in enumerate(zip(result.changed_trace, result.utility_trace))])


def _mean(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    return _sum_floats(values) / len(values)


def cmd_run(args) -> int:
    seq = _load_sequence(args)
    truth = _load_truth(args, seq)
    variant = _make_variant(args)
    config = _make_config(args, trace=args.diagnostics)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # unpacking reads the generator to its end, which reports the pass cap
    [per_rep] = _run_all_reps(seq, [variant], config, truth, args, out_dir)

    report_rows = []
    # zip(*per_rep) gives each snapshot's rows across the repetitions
    for t, snapshot_rows in enumerate(zip(*per_rep)):
        counts, _, nmis, mods, n_trues = zip(*snapshot_rows)
        report_rows.append((t, _mean(counts), n_trues[0], _mean(nmis), _mean(mods)))
    write_metrics_report(out_dir / "metrics.csv", report_rows)
    write_churn_report(seq, out_dir / "churn.csv")
    return 0


def cmd_sweep(args) -> int:
    try:
        fractions = [float(s) for s in args.fractions.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise DgtError(f"bad --fractions value: {exc}") from exc
    if not fractions:
        raise DgtError("--fractions must list at least one value")
    if any(not 0.0 <= f <= 1.0 for f in fractions):
        raise DgtError("--fractions values must lie in [0, 1]")
    if args.variant != "dgtg":
        raise DgtError("sweep-seed-fraction requires --variant dgtg")
    seq = _load_sequence(args)
    truth = _load_truth(args, seq)
    if truth is None:
        raise DgtError("--variant dgtg requires --truth")
    config = _make_config(args, trace=False)
    if args.diagnostics:
        logger.warning("--diagnostics applies to `run` only; "
                       "sweep-seed-fraction writes no diagnostics files")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    variants = [VariantKind("dgtg", seed_fraction=fraction) for fraction in fractions]
    rows = []
    # strict: zip reads the generator to its end, which closes the pool
    per_variant = _run_all_reps(seq, variants, config, truth, args)
    for fraction, per_rep in zip(fractions, per_variant, strict=True):
        rep_means = [_mean(score for _, _, score, _, _ in rep_rows) for rep_rows in per_rep]
        rep_means = [m for m in rep_means if m is not None]
        mean, std = _mean_std(rep_means) if rep_means else (float("nan"), 0.0)
        rows.append((fraction, mean, std))

    write_csv(out_dir / "sweep.csv", ["fraction", "nmi_mean", "nmi_std"], rows)
    return 0


def cmd_churn(args) -> int:
    seq = _load_sequence(args)
    if seq.num_snapshots < 2:
        raise DgtError("churn-report needs at least 2 snapshots")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_churn_report(seq, out_dir / "churn.csv")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "sweep-seed-fraction": cmd_sweep,
        "churn-report": cmd_churn,
    }
    try:
        return handlers[args.command](args)
    except AuditError as exc:
        print(f"dgt: internal invariant failure: {exc}", file=sys.stderr)
        return 2
    except (DgtError, OSError) as exc:
        print(f"dgt: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
