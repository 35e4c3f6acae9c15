"""Compare initialization variants on a drifting planted benchmark.

Generates five snapshots of a 4-community planted graph where 10% of the
nodes switch community between snapshots, then runs three variants over
ten seeds each:

  dgts  every snapshot from scratch (static baseline)
  dgtp  warm start from the previous snapshot's evolved communities
  dgt   warm start from the union of all earlier snapshots

Carrying prior structure should match or beat the cold restart.
"""

from statistics import mean

from dgt import (
    GameConfig,
    SynthConfig,
    VariantKind,
    evaluate_outcome,
    generate,
    run_repetition,
)

config = SynthConfig(communities=4, community_size=25, p_in=0.3, p_out=0.01,
                     churn=0.1, num_snapshots=5, rng_seed=47)
sequence, truth = generate(config)
print(f"benchmark: {config.n} nodes, {config.num_snapshots} snapshots, "
      f"edges per snapshot {[g.m for g in sequence.snapshots]}")

game = GameConfig(gain="similarity")

for kind in ("dgts", "dgtp", "dgt"):
    per_seed = []
    for results in run_repetition(sequence, VariantKind(kind), game,
                                  truth=truth, repetitions=range(10)):
        scores = [evaluate_outcome(sequence, t, r, truth)[0] for t, r in enumerate(results)]
        per_seed.append(mean(scores))
    counts = [r.n_communities for r in results]
    print(f"{kind:5s} mean NMI over 10 seeds: {mean(per_seed):.4f} "
          f"(last-seed community counts {counts}, truth "
          f"{[truth.community_count(t) for t in range(config.num_snapshots)]})")
