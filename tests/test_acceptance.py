"""Acceptance criteria A1-A9: the package's headline guarantees, end to end.

Each test prints one PASS/FAIL line (replayed in the terminal summary).
Everything is seeded; re-running the module reproduces the same numbers.
"""

import math
import time

import numpy as np

from noisymis.bandit import BanditParams, query_budget, run_bandit
from noisymis.baselines import AmplifyParams, run_amplify, run_sampler
from noisymis.graph import exact_mis, greedy_mis, is_independent_set, is_maximal_independent_set
from noisymis.harness import ExperimentConfig, run_experiment
from noisymis.instances import gen_planted_gnp
from noisymis.montecarlo import (
    blocker_filter_violation,
    estimate_tail,
    member_elimination,
    member_filter_violation,
)
from noisymis.oracle import Oracle, OracleConfig, make_oracle
from noisymis.persistent import PersistentParams, run_persistent


def test_a1_filter_ratio_bound(criterion_report):
    # bounded-degree instances, one query per vertex, every trial above the
    # (eps/12)/sqrt(max_degree ln n) floor
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        algorithm="persistent",
        instance={"generator": "bounded-degree", "n": 2000, "alpha": 0.5, "d": 30},
        oracle={"epsilon": 0.25, "mode": "persistent-random"},
        trials=20,
        seed_base=101,
    )
    records = run_experiment(cfg)
    margins = []
    ok = True
    for r in records:
        bound = (0.25 / 12.0) / math.sqrt(r.max_degree * math.log(r.n))
        margins.append(r.ratio / bound)
        ok &= r.ratio >= bound
        ok &= r.total_queries == r.n
        ok &= r.independent_set_valid
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert criterion_report(
        "A1",
        ok,
        f"20/20 trials above the per-instance bound, margin {min(margins):.0f}x-"
        f"{max(margins):.0f}x, n queries each, {elapsed:.1f}s",
    )


def test_a2_elimination_ratio_and_budget(criterion_report):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        algorithm="bandit",
        instance={"generator": "gnp", "n": 5000, "alpha": 0.3, "p": 0.01, "ensure_maximal": True},
        oracle={"epsilon": 0.25, "mode": "bandit-bernoulli"},
        params={"delta": 0.1},
        trials=20,
        seed_base=202,
    )
    records, details = run_experiment(cfg, collect_details=True)
    budget = query_budget(5000, BanditParams(epsilon=0.25, delta=0.1))
    ratio_hits = sum(r.ratio >= 0.96 for r in records)
    budget_hits = 0
    worst_overshoot = 0.0
    for r in records:
        trace = details[r.seed].trace
        overshoot = trace[-1].survivors_before * trace[-1].q
        within = r.total_queries <= budget + overshoot and trace[-2].cumulative_queries <= budget
        budget_hits += within
        worst_overshoot = max(worst_overshoot, r.total_queries - budget)
    elapsed = time.perf_counter() - t0
    ok = ratio_hits >= 18 and budget_hits == 20 and elapsed < 60.0
    assert criterion_report(
        "A2",
        ok,
        f"ratio>=0.96 in {ratio_hits}/20, budget+overshoot kept in {budget_hits}/20 "
        f"(worst overshoot {worst_overshoot:.0f} of {budget:.0f}), {elapsed:.1f}s",
    )


def test_a3_noiseless_exactness(criterion_report):
    inst = gen_planted_gnp(500, 0.4, 0.02, seed=303, ensure_maximal=True)
    g = inst.graph

    bandit_oracle = make_oracle(inst, OracleConfig(epsilon=0.5, mode="bandit-bernoulli", seed=1))
    result = run_bandit(g, bandit_oracle, BanditParams(delta=0.1))
    bandit_ok = np.array_equal(result.independent_ids, inst.planted_ids) and result.best_round == 1

    pers_oracle = make_oracle(
        inst, OracleConfig(epsilon=0.5, mode="persistent-random", seed=2, apply_cap=False)
    )
    report = run_persistent(g, pers_oracle, PersistentParams(low_degree_cutoff_coeff=0.0))
    pers_ok = (
        np.array_equal(np.flatnonzero(report.surviving_mask), inst.planted_ids)
        and np.array_equal(report.independent_ids, inst.planted_ids)
        and is_maximal_independent_set(g, report.independent_ids)
    )
    assert criterion_report(
        "A3",
        bandit_ok and pers_ok,
        f"noiseless bandit exact in round 1: {bandit_ok}; noiseless filter exact+maximal: {pers_ok}",
    )


def test_a4_brute_force_equivalence(criterion_report):
    # 200 random tiny instances; the fixed master seed makes the draw (and
    # the verdict) reproducible
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    size_checked = size_ok = 0
    indep_ok = True
    for i in range(200):
        n = int(rng.integers(4, 15))
        alpha = float(rng.uniform(0.25, 0.6))
        if math.floor(alpha * n) < 1:
            alpha = 1.5 / n
        p = float(rng.uniform(0.0, 0.5))
        inst = gen_planted_gnp(n, alpha, p, seed=int(rng.integers(1 << 30)))
        g = inst.graph
        exact = exact_mis(g)

        perfect = make_oracle(inst, OracleConfig(epsilon=0.5, mode="bandit-bernoulli", seed=i))
        bandit_out = run_bandit(g, perfect, BanditParams(delta=0.1)).independent_ids
        if len(inst.planted_ids) == len(exact):
            size_checked += 1
            size_ok += len(bandit_out) == len(exact)

        noisy = make_oracle(inst, OracleConfig(epsilon=0.25, mode="bandit-bernoulli", seed=1000 + i))
        outputs = [run_bandit(g, noisy, BanditParams(delta=0.1)).independent_ids]
        pers = make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random", seed=2000 + i))
        outputs.append(run_persistent(g, pers).independent_ids)
        samp = make_oracle(inst, OracleConfig(epsilon=0.25, mode="bandit-bernoulli", seed=3000 + i))
        outputs.append(run_sampler(n, samp, seed=4000 + i))
        amp = make_oracle(inst, OracleConfig(epsilon=0.25, mode="bandit-bernoulli", seed=5000 + i))
        base = lambda residual: run_bandit(g, amp, BanditParams(delta=0.1), initial=residual).independent_ids
        outputs.append(run_amplify(base, amp, n, AmplifyParams(rounds=2, reps_per_round=9)))
        outputs.append(greedy_mis(g))
        outputs.append(exact)
        indep_ok &= all(is_independent_set(g, s) for s in outputs)
    elapsed = time.perf_counter() - t0
    ok = size_ok == size_checked and indep_ok and elapsed < 10.0
    assert criterion_report(
        "A4",
        ok,
        f"bandit matched exact_mis on {size_ok}/{size_checked} maximum-planted instances, "
        f"independence clean on 200x6 outputs: {indep_ok}, {elapsed:.1f}s",
    )


def test_a5_elimination_tail_bound(criterion_report):
    # member eliminated at round r: empirical tail stays under delta/(100 4^r)
    t0 = time.perf_counter()
    delta = math.exp(-1.0)
    ok = True
    worst = -math.inf
    for r in (1, 2):
        for eps in (0.25, 0.5):
            p_hat, ci = estimate_tail(member_elimination(r, eps, delta), 100_000, seed=50 + r)
            bound = delta / (100.0 * 4.0**r)
            ok &= p_hat - ci <= bound
            worst = max(worst, (p_hat - ci) / bound)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    assert criterion_report(
        "A5",
        ok,
        f"p_hat-ci <= delta/(100*4^r) for r in {{1,2}}, eps in {{0.25,0.5}} "
        f"(worst ratio {worst:.2f}), {elapsed:.1f}s",
    )


def test_a6_filter_tail_bounds(criterion_report):
    # the 1/n^3 targets sit at ~1e-6 here, far below Monte Carlo resolution;
    # the calibrated stand-in asserts <= 1e-3 observed frequency.  the
    # blocker count k is clamped to deg: the analyzed k would exceed the
    # degree at these parameters
    t0 = time.perf_counter()
    p32, _ = estimate_tail(member_filter_violation(200, 0.25, 100), 1_000_000, seed=61)
    p33, _ = estimate_tail(blocker_filter_violation(200, 200, 0.25, 100), 1_000_000, seed=62)
    elapsed = time.perf_counter() - t0
    ok = p32 <= 1e-3 and p33 <= 1e-3 and elapsed < 60.0
    assert criterion_report(
        "A6",
        ok,
        f"member-filter violations {p32:.2e}, blocker-filter violations {p33:.2e} "
        f"over 1e6 resamples each, {elapsed:.1f}s",
    )


def test_a7_oracle_statistics(criterion_report):
    t0 = time.perf_counter()
    n = 1_000_000
    members = np.arange(n) % 2 == 0
    verts = np.arange(n)
    tol = 4.0 * math.sqrt(0.25 / n)
    checks = {}

    # persistent-random at eps=0.4: the cap pulls the advantage down to 1/4
    cfg = OracleConfig(epsilon=0.4, mode="persistent-random", seed=71)
    o = Oracle(members, cfg)
    first = o.query_bool_many(verts)
    correct = float(np.mean(first == members))
    checks["persistent-random"] = abs(correct - (0.5 + cfg.effective_epsilon)) <= tol
    persistence_ok = bool(np.array_equal(first, o.query_bool_many(verts)))
    ledger_ok = o.total_queries == 2 * n and int(o.ledger.per_vertex[0]) == 2

    cfg = OracleConfig(epsilon=0.3, mode="persistent-kwise", k=4, seed=72)
    o = Oracle(members, cfg)
    answers = o.query_bool_many(verts)
    checks["persistent-kwise"] = abs(float(np.mean(answers == members)) - (0.5 + cfg.effective_epsilon)) <= tol
    persistence_ok &= bool(np.array_equal(answers, o.query_bool_many(verts)))

    cfg = OracleConfig(epsilon=0.25, mode="bandit-bernoulli", seed=73)
    o = Oracle(members, cfg)
    answers = o.query_bool_many(verts)
    checks["bandit-bernoulli"] = abs(float(np.mean(answers == members)) - 0.75) <= tol

    # gaussian rewards: same advantage, read as a mean shift of unit-variance
    # samples, so the 4-sigma band is 4/sqrt(n)
    cfg = OracleConfig(epsilon=0.25, mode="bandit-gaussian", seed=74)
    o = Oracle(members, cfg)
    sums = o.query_reward_sums(verts[members], 1)
    mean_member = float(np.mean(sums))
    checks["bandit-gaussian"] = abs(mean_member - 0.75) <= 4.0 / math.sqrt(sums.size)

    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and persistence_ok and ledger_ok and elapsed < 20.0
    assert criterion_report(
        "A7",
        ok,
        f"advantage within {tol:.4f} for {sorted(k for k, v in checks.items() if v)}, "
        f"persistence {persistence_ok}, ledger {ledger_ok}, {elapsed:.1f}s",
    )


def test_a8_sampler_guarantees(criterion_report):
    t0 = time.perf_counter()
    n = 10_000
    inst = gen_planted_gnp(n, 0.5, 0.0, seed=800)
    planted = set(inst.planted_ids.tolist())
    floor = len(planted) / (2.0 * math.log(n))
    subset_hits = size_hits = query_hits = 0
    for s in range(20):
        o = make_oracle(inst, OracleConfig(epsilon=0.25, mode="bandit-bernoulli", seed=900 + s))
        out = run_sampler(n, o, seed=1900 + s)
        subset_hits += set(out.tolist()) <= planted
        size_hits += len(out) >= floor
        query_hits += o.total_queries <= 4 * n / 0.25**2
    elapsed = time.perf_counter() - t0
    ok = subset_hits >= 19 and size_hits >= 13 and query_hits == 20 and elapsed < 30.0
    assert criterion_report(
        "A8",
        ok,
        f"subset of I* in {subset_hits}/20, size>={floor:.0f} in {size_hits}/20, "
        f"queries<=4n/eps^2 in {query_hits}/20, {elapsed:.1f}s",
    )


def test_a9_rerun_determinism(criterion_report, tmp_path):
    def run_twice(cfg_dict):
        rows = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cfg_dict['algorithm']}-{tag}.csv"
            run_experiment(ExperimentConfig(**{**cfg_dict, "output": str(out)}))
            lines = out.read_text().strip().splitlines()
            rows.append([",".join(line.split(",")[:13] + line.split(",")[14:]) for line in lines])
        return rows[0] == rows[1]

    filter_cfg = dict(
        algorithm="persistent",
        instance={"generator": "bounded-degree", "n": 2000, "alpha": 0.5, "d": 30},
        oracle={"epsilon": 0.25, "mode": "persistent-random"},
        trials=5,
        seed_base=101,
    )
    sampler_cfg = dict(
        algorithm="sampler",
        instance={"generator": "gnp", "n": 10_000, "alpha": 0.5, "p": 0.0},
        oracle={"epsilon": 0.25, "mode": "bandit-bernoulli"},
        trials=5,
        seed_base=808,
    )
    filter_same = run_twice(filter_cfg)
    sampler_same = run_twice(sampler_cfg)
    assert criterion_report(
        "A9",
        filter_same and sampler_same,
        f"byte-identical CSV modulo wall-time: filter {filter_same}, sampler {sampler_same}",
    )
