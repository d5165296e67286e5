"""Sampler, amplification, and greedy baselines."""

import math

import numpy as np
import pytest

from noisymis.bandit import BanditParams, run_bandit
from noisymis.baselines import (
    AmplifyParams,
    SamplerParams,
    run_amplify,
    run_sampler,
)
from noisymis.graph import build_graph
from noisymis.instances import gen_planted_gnp
from noisymis.oracle import BANDIT_BERNOULLI, ModeError, Oracle, OracleConfig, make_oracle


def bern(eps, seed=0):
    return OracleConfig(epsilon=eps, mode=BANDIT_BERNOULLI, seed=seed)


# -- sampler ---------------------------------------------------------------------


def test_sampler_perfect_oracle_returns_sampled_members():
    n = 500
    inst = gen_planted_gnp(n, 0.4, 0.02, seed=1)
    o = make_oracle(inst, bern(0.5, seed=2))
    out = run_sampler(n, o, seed=7)
    # reproduce the sample with the same generator stream
    prob = 1.0 / math.log(n)
    sampled = np.flatnonzero(np.random.default_rng(7).random(n) < prob)
    assert np.array_equal(out, np.intersect1d(sampled, inst.planted_ids))
    assert set(out.tolist()) <= set(sampled.tolist())


def test_sampler_full_probability_classifies_everything():
    inst = gen_planted_gnp(60, 0.5, 0.1, seed=3)
    o = make_oracle(inst, bern(0.5, seed=4))
    out = run_sampler(60, o, SamplerParams(sample_prob=1.0), seed=0)
    assert np.array_equal(out, inst.planted_ids)
    assert np.all(o.ledger.per_vertex > 0)


def test_sampler_query_accounting():
    n = 2000
    inst = gen_planted_gnp(n, 0.5, 0.0, seed=5)
    o = make_oracle(inst, bern(0.25, seed=6))
    params = SamplerParams()
    out = run_sampler(n, o, params, seed=11)
    q = math.ceil(math.log(n) / 0.25**2)
    sampled = np.flatnonzero(o.ledger.per_vertex > 0)
    assert np.all(o.ledger.per_vertex[sampled] == q)
    assert o.total_queries == sampled.size * q
    # sample size concentrates around n/ln n
    expect = n / math.log(n)
    sigma = math.sqrt(n * (1 / math.log(n)) * (1 - 1 / math.log(n)))
    assert abs(sampled.size - expect) <= 3 * sigma
    assert set(out.tolist()) <= set(sampled.tolist())


def test_sampler_appendix_guarantees():
    # 20 seeded trials at the analyzed scale: subset of the hidden set almost
    # always, and at least |I*| / (2 ln n) vertices in most trials
    n = 10_000
    inst = gen_planted_gnp(n, 0.5, 0.0, seed=800)
    planted = set(inst.planted_ids.tolist())
    floor = len(planted) / (2.0 * math.log(n))
    subset_ok = size_ok = 0
    for s in range(20):
        o = make_oracle(inst, bern(0.25, seed=900 + s))
        out = run_sampler(n, o, seed=1900 + s)
        subset_ok += set(out.tolist()) <= planted
        size_ok += len(out) >= floor
        assert o.total_queries <= 4 * n / 0.25**2
    assert subset_ok >= 19
    assert size_ok >= 13


def test_sampler_validation():
    inst = gen_planted_gnp(30, 0.5, 0.1, seed=0)
    pers = make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random"))
    with pytest.raises(ModeError, match="^the sampler votes by repeated queries; it needs the non-persistent Bernoulli oracle$"):
        run_sampler(30, pers)
    gauss = make_oracle(inst, OracleConfig(epsilon=0.25, mode="bandit-gaussian"))
    with pytest.raises(ModeError, match="^the sampler votes by repeated queries"):
        run_sampler(30, gauss)
    assert pers.total_queries == gauss.total_queries == 0
    o = make_oracle(inst, bern(0.25))
    with pytest.raises(ValueError, match="size"):
        run_sampler(29, o)
    with pytest.raises(ValueError, match="sample_prob"):
        run_sampler(30, o, SamplerParams(sample_prob=1.5))
    with pytest.raises(ValueError, match="queries_per_vertex"):
        run_sampler(30, o, SamplerParams(queries_per_vertex=0))
    for prob in (0.0, math.nan, "0.5"):
        with pytest.raises(ValueError, match="sample_prob"):
            SamplerParams(sample_prob=prob)
    # n = 0, and a sample that comes out empty: no query and no draw from the oracle's stream
    for n, oracle, params in ((0, Oracle(np.zeros(0, dtype=bool), bern(0.25)), None),
                              (30, make_oracle(inst, bern(0.25)), SamplerParams(sample_prob=1e-9))):
        state = oracle._rng.bit_generator.state
        assert run_sampler(n, oracle, params).size == 0
        assert oracle.total_queries == 0 and oracle._rng.bit_generator.state == state


def test_votes_over_the_largest_query_count_keep_their_majority():
    # a count near q < 2**63 would overflow as 2 * count; the sampler and the final sweep keep every member
    inst = gen_planted_gnp(60, 0.5, 0.1, seed=3)
    q = 2**63 - 1
    o = make_oracle(inst, bern(0.5, seed=4))
    assert np.array_equal(run_sampler(60, o, SamplerParams(sample_prob=1.0, queries_per_vertex=q)), inst.planted_ids)
    o = make_oracle(inst, bern(0.5, seed=4))
    out = run_amplify(lambda residual: [], o, 60, AmplifyParams(rounds=0, reps_per_round=1, final_queries=q))
    assert np.array_equal(out, inst.planted_ids)


# -- amplification ----------------------------------------------------------------


def test_amplify_perfect_base_and_oracle():
    inst = gen_planted_gnp(100, 0.4, 0.05, seed=10)
    o = make_oracle(inst, bern(0.5, seed=11))
    base = lambda residual: np.intersect1d(inst.planted_ids, residual)
    out = run_amplify(base, o, 100)
    assert np.array_equal(out, inst.planted_ids)
    # a base that selects every vertex promotes them all in the first round:
    # the final sweep is empty, so it records no query and draws no noise
    o = make_oracle(inst, bern(0.5, seed=11))
    state = o._rng.bit_generator.state
    assert run_amplify(lambda residual: residual, o, 100).tolist() == list(range(100))
    assert o.total_queries == 0 and o._rng.bit_generator.state == state


def test_amplify_fixed_subset_promoted_after_one_round():
    # base always answers the same 2/3 chunk of the hidden set; with one
    # round that chunk is promoted wholesale and the sweep finishes the rest
    n = 9
    planted = frozenset(range(6))
    g = build_graph(n, [(6, 7), (7, 8)])
    from noisymis.instances import PlantedInstance

    inst = PlantedInstance(graph=g, planted=planted, params={})
    o = make_oracle(inst, bern(0.5, seed=12))
    chunk = frozenset({0, 1, 2, 3})
    calls = []

    def base(residual):
        calls.append(set(residual.tolist()))
        return chunk

    out = run_amplify(base, o, n, AmplifyParams(rounds=1, reps_per_round=5, final_queries=3))
    assert set(out.tolist()) == planted
    assert len(calls) == 5
    assert all(c == set(range(n)) for c in calls)


def test_amplify_promotion_threshold_is_half_the_reps():
    # vertex 0 selected in exactly t/2 runs is promoted; vertex 1 selected
    # once is not (it comes back via the noiseless sweep instead)
    n = 4
    from noisymis.instances import PlantedInstance

    inst = PlantedInstance(graph=build_graph(n, [(2, 3)]), planted=frozenset({0, 1}), params={})
    o = make_oracle(inst, bern(0.5, seed=13))
    script = [{0, 1}, {0}, set(), set()]

    def base(residual):
        return script.pop(0)

    out = run_amplify(base, o, n, AmplifyParams(rounds=1, reps_per_round=4, final_queries=5))
    assert out.tolist() == [0, 1]
    assert not script


def test_amplify_round_votes_ignore_nonresidual_vertices():
    # a base that keeps naming already-promoted vertices must not double
    # count them; the residual shrinks monotonically
    n = 6
    from noisymis.instances import PlantedInstance

    inst = PlantedInstance(graph=build_graph(n, []), planted=frozenset(range(6)), params={})
    o = make_oracle(inst, bern(0.5, seed=14))
    seen = []

    def base(residual):
        seen.append(residual.tolist())
        return {0, 1, 2, 3, 4, 5}

    out = run_amplify(base, o, n, AmplifyParams(rounds=3, reps_per_round=2, final_queries=1))
    assert out.tolist() == list(range(6))
    # residual empties after round 1, so rounds 2..3 skip the base entirely
    assert len(seen) == 2


def test_amplify_drops_bad_ids_and_accepts_any_iterable():
    # negative and out-of-range ids carry no vote (a negative id must not wrap
    # around onto another vertex), repeats count once per run, and a base that
    # yields a generator works like one that returns a set
    n = 6
    from noisymis.instances import PlantedInstance

    inst = PlantedInstance(graph=build_graph(n, []), planted=frozenset(), params={})
    o = make_oracle(inst, bern(0.5, seed=15))
    runs = [[-1, -6, 6, 99, 2, 2, 2], [-1, -6, 6, 99, 2], (v for v in (3, 3, -3, 4)), iter([])]

    def base(residual):
        assert isinstance(residual, np.ndarray) and residual.dtype == np.int64
        return runs.pop(0)

    # a noiseless oracle answers no for every vertex, so only votes promote;
    # 2 of 4 runs name vertex 2; vertices 5 (via -1) and 0 (via -6) must not count
    out = run_amplify(base, o, n, AmplifyParams(rounds=1, reps_per_round=4, final_queries=1))
    assert out.tolist() == [2]
    assert not runs
    # a base that returns a bare generator over several rounds
    o2 = make_oracle(inst, bern(0.5, seed=16))
    out = run_amplify(lambda residual: (v for v in residual.tolist() if v % 2), o2, n,
                      AmplifyParams(rounds=2, reps_per_round=3, final_queries=1))
    assert out.tolist() == [1, 3, 5]
    # every run of a round gets the same read-only residual array, and an
    # integer array is taken as it is
    seen = []

    def array_base(residual):
        seen.append(residual)
        return np.array([v for v in residual.tolist() if v % 2 == 0] + [-1, 9], dtype=np.int32)

    out = run_amplify(array_base, make_oracle(inst, bern(0.5, seed=17)), n,
                      AmplifyParams(rounds=2, reps_per_round=3, final_queries=1))
    assert out.tolist() == [0, 2, 4]
    assert len(seen) == 6 and seen[0] is seen[1] is seen[2] and seen[0].tolist() == list(range(n))
    assert seen[3] is seen[4] is seen[5] and seen[3].tolist() == [1, 3, 5]
    assert not any(residual.flags.writeable for residual in seen)
    # an id that is not an integer raises instead of voting for a truncated id
    o3 = make_oracle(inst, bern(0.5, seed=18))
    for picks in ([1.5], np.array([1.5]), np.array([True, False]), [2**63]):
        with pytest.raises(ValueError, match="integers"):
            run_amplify(lambda residual: picks, o3, n, AmplifyParams(rounds=1, reps_per_round=1, final_queries=1))
    assert o3.total_queries == 0


def test_amplify_validation():
    inst = gen_planted_gnp(30, 0.5, 0.1, seed=0)
    base = lambda residual: np.intersect1d(inst.planted_ids, residual)
    pers = make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random"))
    with pytest.raises(ModeError):
        run_amplify(base, pers, 30)
    o = make_oracle(inst, bern(0.25))
    with pytest.raises(ValueError, match="size"):
        run_amplify(base, o, 29)
    with pytest.raises(ValueError, match="rounds"):
        run_amplify(base, o, 30, AmplifyParams(rounds=-1))
    with pytest.raises(ValueError, match="reps_per_round"):
        run_amplify(base, o, 30, AmplifyParams(reps_per_round=0))
    with pytest.raises(ValueError, match="final_queries"):
        AmplifyParams(final_queries=0)
    with pytest.raises(ValueError, match="'rounds' must be int"):
        AmplifyParams(rounds=2.0)
    two = gen_planted_gnp(2, 0.5, 0.0, seed=0)
    o2 = make_oracle(two, bern(0.25))
    with pytest.raises(ValueError, match="n >= 3"):
        run_amplify(base, o2, 2)
    assert run_amplify(base, Oracle(np.zeros(0, dtype=bool), bern(0.25)), 0).size == 0


def test_amplify_recovers_planted_with_bandit_base():
    # the full reduction at its analyzed parameterization: alpha = 1 - 1/ln n,
    # defaults for rounds/reps/final queries, exact recovery in >= 8/10 trials
    n = 4096
    alpha = 1.0 - 1.0 / math.log(n)
    inst = gen_planted_gnp(n, alpha, 0.005, seed=400, ensure_maximal=True)
    wins = 0
    for t in range(10):
        o = make_oracle(inst, bern(0.25, seed=500 + t))

        def base(residual):
            return run_bandit(inst.graph, o, BanditParams(delta=0.1), initial=residual).independent_ids

        wins += np.array_equal(run_amplify(base, o, n), inst.planted_ids)
    assert wins >= 8

