"""Two baselines: majority-vote sampling and success amplification.

The sampler ignores the graph entirely.  It draws each vertex with
probability 1/ln n, majority-votes the oracle on every drawn vertex, and
keeps the claimed members; on an edgeless planted instance the keepers form
an independent set outright.  Amplification goes the other way: it takes a
base algorithm that is only usually right, reruns it, and promotes the
vertices the reruns agree on, finishing with a direct vote on leftovers.
Both return ascending arrays of vertex ids, and the base algorithm gets the
residual vertices as one.
"""

import math

import numpy as np

from noisymis import (
    AmplifyParams,
    BanditParams,
    OracleConfig,
    SamplerParams,
    gen_planted_gnp,
    make_oracle,
    run_amplify,
    run_bandit,
    run_sampler,
)

eps = 0.25

# --- sampling: a cheap certificate-sized answer ---------------------------
n = 10_000
inst = gen_planted_gnp(n, 0.5, 0.0, seed=21)
oracle = make_oracle(inst, OracleConfig(epsilon=eps, mode="bandit-bernoulli", seed=22))

kept = run_sampler(n, oracle, SamplerParams(), seed=23)
q = math.ceil(math.log(n) / eps**2)
print(f"sampler on n={n}, |I*|={inst.planted_ids.size}:")
print(f"  expected sample ~ n/ln n = {n / math.log(n):.0f}, "
      f"{q} queries per sampled vertex")
print(f"  spent {oracle.total_queries:,} queries, kept {len(kept)} vertices")
print(f"  mistakes vs hidden set: {np.setdiff1d(kept, inst.planted_ids).size} outsiders kept")
print()

# --- amplification: many flaky runs, one reliable answer ------------------
n = 1024
alpha = 1.0 - 1.0 / math.log(n)
inst = gen_planted_gnp(n, alpha, 2.0 * math.log(n) / n, seed=31, ensure_maximal=True)
g = inst.graph
print(f"amplify on n={n}, m={g.m}, |I*|={inst.planted_ids.size}:")

# the base: an elimination run starved of repetitions and budget, so a
# single run strands a chunk of the hidden set
base_params = BanditParams(delta=0.9, schedule_coeff=0.35, budget_coeff=2.0)


def flaky_base(residual):
    o = make_oracle(inst, OracleConfig(epsilon=eps, mode="bandit-bernoulli", seed=flaky_base.calls + 100))
    flaky_base.calls += 1
    return run_bandit(g, o, base_params, initial=residual).independent_ids


flaky_base.calls = 0
singles = [np.setxor1d(flaky_base(np.arange(n)), inst.planted_ids).size for _ in range(5)]
print(f"  single runs, symmetric difference from I*: {singles}")

flaky_base.calls = 50
final_oracle = make_oracle(inst, OracleConfig(epsilon=eps, mode="bandit-bernoulli", seed=32))
amplified = run_amplify(flaky_base, final_oracle, n, AmplifyParams(rounds=2, reps_per_round=9))
print(f"  amplified ({flaky_base.calls - 50} base reruns + "
      f"{final_oracle.total_queries:,} direct queries): "
      f"symmetric difference {np.setxor1d(amplified, inst.planted_ids).size}")
print(f"  exact recovery: {np.array_equal(amplified, inst.planted_ids)}")
