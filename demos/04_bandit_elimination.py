"""Round-by-round view of the bandit elimination algorithm.

With fresh randomness per query, repetition buys certainty.  Each round
re-queries every surviving vertex q_r times and keeps those with a majority
of yes answers; q_r grows with the round index, so later rounds, which face
fewer survivors, can afford near-certain verdicts.  A 2-approximate vertex
cover of the survivors' induced subgraph turns each round's survivor set
into a feasible answer, and the best one across rounds is kept, as an
ascending array of vertex ids.
"""

import numpy as np

from noisymis import (
    BanditParams,
    OracleConfig,
    gen_planted_gnp,
    make_oracle,
    query_budget,
    query_schedule,
    run_bandit,
)

n, alpha, p, eps, delta = 3000, 0.3, 0.01, 0.25, 0.1
inst = gen_planted_gnp(n, alpha, p, seed=5, ensure_maximal=True)
oracle = make_oracle(inst, OracleConfig(epsilon=eps, mode="bandit-bernoulli", seed=6))

params = BanditParams(epsilon=eps, delta=delta)
budget = query_budget(n, params)
planted = inst.planted_ids
print(f"instance: n={n} m={inst.graph.m} |I*|={planted.size}")
print(f"query budget 30 n / eps^2 * ln(1/delta): {budget:,.0f}")
print(f"per-vertex schedule q_r for r=1..5: {[query_schedule(r, params) for r in range(1, 6)]}")
print()

result = run_bandit(inst.graph, oracle, params)

print(f"{'round':>5} {'q_r':>6} {'before':>7} {'after':>7} {'cover':>6} "
      f"{'candidate':>9} {'cumulative':>12}")
for t in result.trace:
    print(f"{t.r:>5} {t.q:>6} {t.survivors_before:>7} {t.survivors_after:>7} "
          f"{t.cover_size:>6} {t.candidate_size:>9} {t.cumulative_queries:>12,}")

print()
print(f"terminated: {result.terminated_reason} after {len(result.trace)} rounds")
print(f"the budget check runs after each round completes, so the final round")
print(f"may overshoot by at most its own cost: {result.total_queries:,} spent "
      f"vs {budget:,.0f} allowed")
out = result.independent_ids
print(f"output: {len(out)} vertices, {np.intersect1d(out, planted).size} planted, "
      f"ratio {len(out) / planted.size:.3f}, best round {result.best_round}")
