"""The persistent-noise filter algorithm, step by step.

One query per vertex is all a persistent oracle is worth, so the algorithm
spends them on the neighbors: for each vertex it counts how many neighbors
the oracle claims are hidden-set members.  A hidden-set member has only
outsider neighbors, so its claimed count sits near (1/2 - eps) * deg, while
a vertex blocking many members overshoots the threshold s_v and is dropped.
Vertices of degree at most 36 ln n bypass the filter entirely; a final
greedy pass over survivors plus bypassed vertices enforces independence.
The report keeps the bypassed and surviving vertices as boolean masks over
the vertex ids, and the output as an ascending id array.
"""

import math

import numpy as np

from noisymis import (
    OracleConfig,
    PersistentParams,
    gen_planted_gnp,
    make_oracle,
    neighbor_yes_counts,
    run_persistent,
    survival_threshold,
)

n, alpha, p, eps = 3000, 0.5, 0.15, 0.25
inst = gen_planted_gnp(n, alpha, p, seed=11)
g = inst.graph
oracle = make_oracle(inst, OracleConfig(epsilon=eps, mode="persistent-random", seed=12))

report = run_persistent(g, oracle)
cutoff = 36 * math.log(n)
planted = inst.planted_ids
print(f"instance: n={n} m={g.m} max_degree={g.max_degree} |I*|={planted.size}")
print(f"queries spent: {oracle.total_queries} (exactly one per vertex)")
print(f"degree cutoff 36 ln n = {cutoff:.0f}: hidden-set members average degree "
      f"{g.degrees()[planted].mean():.0f} here, so all of them bypass the filter")
print(f"  bypassed (low degree): {np.count_nonzero(report.low_degree_mask)}, "
      f"planted among them: {np.count_nonzero(report.low_degree_mask[planted])}")
print(f"  filtered and surviving: {np.count_nonzero(report.surviving_mask)}, "
      f"planted among them: {np.count_nonzero(report.surviving_mask[planted])}")

out = report.independent_ids
ratio = len(out) / planted.size
bound = (eps / 12.0) / math.sqrt(g.max_degree * math.log(n))
print(f"greedy over the union: {len(out)} vertices, {np.intersect1d(out, planted).size} planted, "
      f"ratio {ratio:.3f} (guarantee {bound:.5f}, {ratio / bound:.0f}x margin)")
print()

# the threshold in action on two filtered vertices
counts = neighbor_yes_counts(g, oracle)
dropped_ids = np.flatnonzero(~report.low_degree_mask & ~report.surviving_mask)
surviving_ids = np.flatnonzero(report.surviving_mask)
dropped = int(dropped_ids[np.argmax(counts[dropped_ids])])
kept = int(surviving_ids[np.argmin(counts[surviving_ids])])
for label, v in [("dropped", dropped), ("kept", kept)]:
    s_v = survival_threshold(g.degree(v), eps, n)
    print(f"  {label}: deg={g.degree(v)} claimed-member neighbors={int(counts[v])} "
          f"threshold={s_v:.1f}")
print()

# the assumed advantage sets the threshold; understate it and the filter
# admits every blocker, leaving plain greedy on the whole graph
for eps_eff in (0.25, 0.05):
    r = run_persistent(g, oracle, PersistentParams(epsilon_effective=eps_eff))
    print(f"assumed eps={eps_eff:.2f}: {np.count_nonzero(r.surviving_mask)} survivors, "
          f"output {len(r.independent_ids)}")
