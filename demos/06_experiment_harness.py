"""Driving batch experiments from Python instead of the CLI.

An ExperimentConfig names an algorithm, an instance source, an oracle, and
a seeding policy; run_experiment expands it into per-trial seeds, runs each
trial (in processes when workers > 1), and returns one TrialRecord per seed.
Everything downstream of the seed is deterministic, so a rerun reproduces
every column except wall time.
"""

from noisymis import (
    ExperimentConfig,
    aggregate,
    derive_seed,
    records_to_csv,
    run_experiment,
    trial_seeds,
)

config = ExperimentConfig(
    algorithm="bandit",
    instance={"generator": "gnp", "n": 500, "alpha": 0.3, "p": 0.02,
              "ensure_maximal": True},
    oracle={"epsilon": 0.25, "mode": "bandit-bernoulli"},
    params={"delta": 0.1},
    trials=5,
    seed_base=7,
)

seeds = trial_seeds(config)
print(f"trial seeds from seed_base={config.seed_base}: {seeds}")
first = derive_seed(config.seed_base, 0)
assert first == seeds[0]
print(f"  (seed derivation is a keyed hash: derive_seed({config.seed_base}, 0) = {first})")
print()

records = run_experiment(config)
print(records_to_csv(records))

summary = aggregate(records, ratio_threshold=0.95)
print(f"aggregate over {summary.trials} trials:")
print(f"  ratio mean {summary.mean_ratio:.4f}, "
      f"p10/median/p90 = {summary.ratio_p10:.4f}/{summary.median_ratio:.4f}/{summary.ratio_p90:.4f}")
print(f"  queries mean {summary.mean_queries:,.0f}, max {summary.max_queries:,}")
print(f"  pass rate at ratio >= 0.95: {summary.pass_rate:.0%}")
print()

# explicit seeds override (seed_base, trials); handy for re-running one trial
pinned = ExperimentConfig(**{**config.to_dict(), "seeds": seeds[:2]})
rerun = run_experiment(pinned)
same = all(
    a.to_row()[:13] == b.to_row()[:13] and a.to_row()[14:] == b.to_row()[14:]
    for a, b in zip(rerun, records[:2])
)
print(f"rerun of the first two seeds matches modulo wall time: {same}")
