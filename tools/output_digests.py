"""Print one sha256 of `dgt run`'s output files per configuration.

    PYTHONPATH=src python tools/output_digests.py

The configurations are the three benchmark workloads of
`bench/workloads.py` at bench seeds 1 and 3, each run serially without
`--diagnostics` and again with `--jobs 2 --diagnostics`: twelve lines of
`<sha256>  <workload> seed=<s> <mode>`.  A change that must keep every
output byte prints the same lines as its parent, and the same lines under
any `PYTHONHASHSEED`.  The expected lines are pinned in
`tools/output_digests.txt`:

    PYTHONPATH=src python tools/output_digests.py | diff tools/output_digests.txt -

Inputs and outputs go to a temporary directory that
is removed on exit; nothing under `bench/` is written.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# importing the workloads must leave bench/ as it is: no __pycache__
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from dgt import cli  # noqa: E402
from workloads import WORKLOADS, dgt_seed, generate  # noqa: E402

SEEDS = (1, 3)
MODES = {"serial": (), "jobs2-diagnostics": ("--jobs", "2", "--diagnostics")}


def tree_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="dgt-digests-") as tmp:
        work = Path(tmp)
        for workload in WORKLOADS.values():
            # the workload's own argv less its --jobs and --diagnostics, which
            # the second mode adds back
            plain = dataclasses.replace(
                workload, jobs=1,
                dgt_args=tuple(a for a in workload.dgt_args if a != "--diagnostics"))
            for seed in SEEDS:
                edges, truth = work / "edges.txt", work / "truth.csv"
                generate(workload, seed, edges, truth)
                for mode, extra in MODES.items():
                    out = work / f"{workload.name}-{seed}-{mode}"
                    argv = plain.dgt_argv(edges, truth, out, dgt_seed(workload, seed))
                    code = cli.main([*argv, *extra])
                    if code != 0:
                        print(f"{workload.name} seed={seed} {mode}: dgt run exited {code}",
                              file=sys.stderr)
                        return 1
                    print(f"{tree_digest(out)}  {workload.name} seed={seed} {mode}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
