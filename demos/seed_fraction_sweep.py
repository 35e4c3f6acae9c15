"""Effect of ground-truth seeding on detection quality.

The dgtg variant plants whole known communities covering a budgeted
fraction of the nodes before each snapshot's game.  Sweeping the fraction
shows how much partially known membership (say, published guild rosters)
improves recovery.
"""

from statistics import mean, stdev

from dgt import (
    GameConfig,
    SynthConfig,
    VariantKind,
    evaluate_outcome,
    generate,
    run_repetition,
)

# a deliberately noisy benchmark: with weak intra-community signal the
# game has real room to benefit from partial ground truth
config = SynthConfig(communities=4, community_size=25, p_in=0.15, p_out=0.03,
                     churn=0.15, num_snapshots=4, rng_seed=1)
sequence, truth = generate(config)
game = GameConfig(gain="similarity")

print("fraction  nmi_mean  nmi_std")
for fraction in (0.0, 0.1, 0.2, 0.3, 0.5):
    per_seed = []
    variant = VariantKind("dgtg", seed_fraction=fraction)
    for results in run_repetition(sequence, variant, game, truth=truth,
                                  repetitions=range(8)):
        scores = [evaluate_outcome(sequence, t, r, truth)[0] for t, r in enumerate(results)]
        per_seed.append(mean(scores))
    print(f"{fraction:8.1f}  {mean(per_seed):.4f}    {stdev(per_seed):.4f}")
