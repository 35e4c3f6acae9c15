"""Workload definitions and the benchmark's own seeded input generator.

The generator is deliberately independent of `dgt.synth`: a change to the
package's sampler must not change the benchmark's inputs.  It uses only
`random.Random` draws, so the same (workload, seed) pair writes
byte-identical edge and truth files on any platform.

Model: communities of `COMMUNITY_SIZE` nodes; every node draws
Poisson(`MEAN_OUT_DEGREE`) distinct out-neighbours, each inside its own
community with probability `P_INTRA` and otherwise outside it.  Each later
snapshot moves `MOVE_FRACTION` of the nodes to another community and redraws
the out-edges of the moved nodes only.  Cost is O(n * degree) per snapshot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

COMMUNITY_SIZE = 25
MEAN_OUT_DEGREE = 8.0
P_INTRA = 0.9
MOVE_FRACTION = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    snapshots: int
    repetitions: int
    dgt_args: tuple[str, ...]
    jobs: int = 1

    def dgt_argv(self, edges: Path, truth: Path, out: Path, dgt_seed: int) -> list[str]:
        """Arguments of `dgt.cli.main` for one run of this workload."""
        argv = ["run", "--input", str(edges), "--truth", str(truth), "--out", str(out),
                "--repetitions", str(self.repetitions), "--seed", str(dgt_seed),
                *self.dgt_args]
        if self.jobs > 1:
            argv += ["--jobs", str(self.jobs)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="carryover-n400",
            why="many repetitions of full-carryover dgt on a dense-kernel graph: "
                "contexts are built once and reused, so the game dominates",
            n=400, snapshots=6, repetitions=8,
            dgt_args=("--variant", "dgt", "--gain", "similarity"),
        ),
        Workload(
            name="dense-build-n2000",
            why="just under DENSE_LIMIT: the dense n*n kernel build and its memory "
                "dominate; the only modularity-gain and dgtg-seeded workload",
            n=2000, snapshots=3, repetitions=1,
            dgt_args=("--variant", "dgtg", "--seed-fraction", "0.3",
                      "--gain", "modularity"),
        ),
        Workload(
            name="lazy-jobs-n4000",
            why="above DENSE_LIMIT: lazy per-pair kernel, --jobs fan-out with cold "
                "contexts per task, and the diagnostics CSVs",
            n=4000, snapshots=3, repetitions=2,
            dgt_args=("--variant", "dgtp", "--gain", "similarity", "--diagnostics"),
            jobs=2,
        ),
    )
}


def dgt_seed(workload: Workload, seed: int) -> int:
    """The `dgt run --seed` value derived from the workload seed."""
    return random.Random(f"dgt-seed:{workload.name}:{seed}").randrange(2**31)


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's multiplication method; exact and cheap for small lambda.
    limit = math.exp(-lam)
    k, p = 0, rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


class _Planted:
    """Mutable planted partition with per-community member lists."""

    def __init__(self, n: int, rng: random.Random):
        self.n = n
        self.rng = rng
        self.k = n // COMMUNITY_SIZE
        self.community = [v // COMMUNITY_SIZE for v in range(n)]
        self.members = [list(range(c * COMMUNITY_SIZE, (c + 1) * COMMUNITY_SIZE))
                        for c in range(self.k)]

    def draw_out_edges(self, v: int) -> list[int]:
        rng = self.rng
        own = self.community[v]
        inside = self.members[own]
        degree = min(_poisson(rng, MEAN_OUT_DEGREE), self.n - 1)
        targets: set[int] = set()
        intra = 0
        while len(targets) < degree:
            # once every co-member is a target, remaining edges go outside
            if intra < len(inside) - 1 and rng.random() < P_INTRA:
                u = inside[rng.randrange(len(inside))]
                if u != v and u not in targets:
                    targets.add(u)
                    intra += 1
            else:
                u = rng.randrange(self.n)
                if self.community[u] != own:
                    targets.add(u)
        return sorted(targets)

    def move(self, v: int) -> None:
        old = self.community[v]
        new = self.rng.randrange(self.k - 1)
        if new >= old:
            new += 1
        self.members[old].remove(v)
        self.members[new].append(v)
        self.community[v] = new


def generate(workload: Workload, seed: int, edges_path: Path, truth_path: Path) -> list[int]:
    """Write the workload's edge list and truth CSV; return edges per snapshot."""
    rng = random.Random(f"inputs:{workload.name}:{seed}")
    planted = _Planted(workload.n, rng)
    out = [planted.draw_out_edges(v) for v in range(workload.n)]
    edges_per_snapshot = []
    with open(edges_path, "w", encoding="utf-8", newline="\n") as ef, \
            open(truth_path, "w", encoding="utf-8", newline="\n") as tf:
        tf.write("snapshot,node_label,community_label\n")
        for t in range(workload.snapshots):
            if t > 0:
                moved = rng.sample(range(workload.n), int(MOVE_FRACTION * workload.n))
                for v in moved:
                    planted.move(v)
                for v in moved:
                    out[v] = planted.draw_out_edges(v)
            m = 0
            for v in range(workload.n):
                for u in out[v]:
                    ef.write(f"{v} {u} {t}\n")
                m += len(out[v])
                tf.write(f"{t},{v},c{planted.community[v]}\n")
            edges_per_snapshot.append(m)
    return edges_per_snapshot
