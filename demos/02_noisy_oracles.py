"""The four oracle modes, persistence, and the advantage cap.

Every oracle answers "is v in the hidden set?" correctly with probability
1/2 + eps.  Persistent modes fix their coin flips once, so re-asking cannot
help; non-persistent modes draw fresh noise per query, so majorities do.
Persistent advantages above 1/4 are capped by a secondary flip whose rate
p = (eps - 1/4) / (1/2 + eps) restores incorrectness exactly 1/4.
"""

import numpy as np

from noisymis import Oracle, OracleConfig, cap_flip_probability, elimination_round, gen_planted_gnp, make_oracle

inst = gen_planted_gnp(200_000, 0.5, 0.0, seed=1)
members = np.zeros(inst.graph.n, dtype=bool)
members[inst.planted_ids] = True
verts = np.arange(inst.graph.n)

print("empirical correctness per mode (target = 1/2 + effective eps):")
for mode, eps in [
    ("persistent-random", 0.25),
    ("persistent-random", 0.4),     # capped back to 0.25
    ("persistent-kwise", 0.25),
    ("bandit-bernoulli", 0.25),
]:
    cfg = OracleConfig(epsilon=eps, mode=mode, k=4, seed=7)
    o = make_oracle(inst, cfg)
    correct = float(np.mean(o.query_bool_many(verts) == members))
    print(f"  {mode:18s} eps={eps:.2f} eff={cfg.effective_epsilon:.2f} observed={correct:.4f}")

print(f"\ncap flip rate at eps=1/2: {cap_flip_probability(0.5):.4f} (answers wrong 1/4 of the time)")

# persistence: the same vertex always gets the same answer
o = make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random", seed=3))
a, b = o.query_bool(123), o.query_bool(123)
print(f"persistent re-query: {a} then {b}, ledger counts both: {o.queries_for(123)} queries")

# non-persistent majority voting: error decays with the query count
o = make_oracle(inst, OracleConfig(epsilon=0.25, mode="bandit-bernoulli", seed=4))
for q in (1, 9, 81):
    majority = np.zeros(20_000, dtype=bool)
    majority[elimination_round(verts[:20_000], o, q)] = True  # at least half yes, ties win
    err = float(np.mean(majority != members[:20_000]))
    print(f"majority of {q:3d} queries: error rate {err:.4f}")

# gaussian rewards carry the same signal as a mean shift
o = make_oracle(inst, OracleConfig(epsilon=0.25, mode="bandit-gaussian", seed=5))
sums = o.query_reward_sums(verts[:50_000], 4)
print(f"gaussian mean reward, members: {float(np.mean(sums[members[:50_000]] / 4)):.3f}, "
      f"outsiders: {float(np.mean(sums[~members[:50_000]] / 4)):.3f}")
