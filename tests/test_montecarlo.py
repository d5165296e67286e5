"""Tail-probability estimation and the event samplers behind the bound checks.

Bound checks are one-sided (p_hat - ci <= bound): the analytical tails are
upper bounds and often loose, so equality is never asserted.  Each claim gets
one check at the analyzed coefficients (where the event is usually invisible)
and one at softened coefficients where 10^5 trials resolve it.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from noisymis.montecarlo import (
    EVENT_BUILDERS,
    blocker_filter_violation,
    coin_event,
    estimate_tail,
    member_elimination,
    member_filter_violation,
    nonmember_survival,
)
from noisymis.persistent import survival_threshold


# -- estimator calibration ---------------------------------------------------------


def test_constant_false_hits_floor():
    p, ci = estimate_tail(lambda rng, count: np.zeros(count, dtype=bool), 2000, seed=0)
    assert p == 0.0
    assert ci == pytest.approx(2.58 / (2 * 2000))


def test_constant_true():
    p, ci = estimate_tail(lambda rng, count: np.ones(count, dtype=bool), 2000, seed=0)
    assert p == 1.0
    assert ci == pytest.approx(2.58 / (2 * 2000))


def test_fair_coin_million():
    p, ci = estimate_tail(coin_event(0.5), 1_000_000, seed=1)
    assert abs(p - 0.5) <= 0.0013
    assert ci == pytest.approx(2.58 * math.sqrt(p * (1 - p) / 1_000_000))


def test_batching_does_not_change_counts(monkeypatch):
    # identical seed, different chunking: same stream, same estimate
    monkeypatch.setattr("noisymis.montecarlo._BATCH", 10_000)
    a = estimate_tail(coin_event(0.3), 10_000, seed=3)
    monkeypatch.setattr("noisymis.montecarlo._BATCH", 997)
    b = estimate_tail(coin_event(0.3), 10_000, seed=3)
    assert a == b


def test_estimator_validation():
    with pytest.raises(ValueError, match="1000"):
        estimate_tail(coin_event(0.5), 999, seed=0)
    with pytest.raises(ValueError, match="one boolean"):
        estimate_tail(lambda rng, count: np.zeros(count + 1, dtype=bool), 2000, seed=0)


def test_seed_determinism():
    assert estimate_tail(coin_event(0.2), 5000, seed=9) == estimate_tail(coin_event(0.2), 5000, seed=9)


# -- member filter (3.2-style events) -----------------------------------------------


def test_member_filter_at_analyzed_coefficient():
    # coeff 6 pushes the tail to ~1e-13, far below the 1/n^3 target
    p, ci = estimate_tail(member_filter_violation(200, 0.25, 100), 1_000_000, seed=10)
    assert p - ci <= 1.0 / 100**3


def test_member_filter_resolvable_point():
    # coeff 2: the same Hoeffding bound becomes n^{-1/2} = 0.1 and the true
    # rate is ~0.0068, so the event is visible and the bound still holds
    p, ci = estimate_tail(member_filter_violation(200, 0.25, 100, coeff=2.0), 100_000, seed=11)
    bound = math.exp(-2 * (2.0 * math.sqrt(math.log(100)) * 0.25) ** 2)
    assert bound == pytest.approx(0.1)
    assert p > 0.003
    assert p - ci <= bound


# -- blocker filter (3.3-style events) -----------------------------------------------


def test_blocker_filter_at_analyzed_shape():
    # k just above the (c/2)(1/eps) sqrt(ln n) sqrt(deg) requirement at c=2
    k_req = (2.0 / 2.0) * (1 / 0.25) * math.sqrt(math.log(100)) * math.sqrt(200)
    assert k_req < 122
    p, ci = estimate_tail(blocker_filter_violation(200, 122, 0.25, 100, coeff=2.0), 1_000_000, seed=12)
    t = 2 * 122 * 0.25 - 2.0 * math.sqrt(math.log(100)) * 0.25 * math.sqrt(200)
    assert p - ci <= math.exp(-2 * t * t / 200)


def test_blocker_filter_resolvable_point():
    deg, k, eps, n, coeff = 32, 10, 0.25, 20, 0.5
    assert k >= (coeff / 2) * (1 / eps) * math.sqrt(math.log(n)) * math.sqrt(deg)
    p, ci = estimate_tail(blocker_filter_violation(deg, k, eps, n, coeff=coeff), 100_000, seed=13)
    s = survival_threshold(deg, eps, n, coeff)
    t = (k * (0.5 + eps) + (deg - k) * (0.5 - eps)) - s
    assert p > 0.03
    assert p - ci <= math.exp(-2 * t * t / deg)


def test_blocker_filter_noiseless_boundary():
    # at eps = 1/2 the threshold is 0 and a blocked outsider always reports
    # its k true neighbors, so the violation never fires
    p, ci = estimate_tail(blocker_filter_violation(128, 118, 0.5, 20), 10_000, seed=14)
    assert p == 0.0


def test_blocker_validation():
    with pytest.raises(ValueError, match="k must"):
        blocker_filter_violation(10, 11, 0.25, 100)
    with pytest.raises(ValueError, match="k must"):
        blocker_filter_violation(10, -1, 0.25, 100)


# -- elimination events (4.2-style) ---------------------------------------------------


def test_member_elimination_paper_point():
    # r=1, eps=1/2, delta=1/e: the paper's target is delta/(100*4^r)
    p, ci = estimate_tail(member_elimination(1, 0.5, math.exp(-1.0)), 100_000, seed=15)
    assert p + ci <= 1.0 / (400.0 * math.e)


def test_member_elimination_resolvable_point():
    # softened schedule (coeff 1/2, delta=1) gives q=8 and a ~3% event
    p, ci = estimate_tail(member_elimination(1, 0.25, 1.0, schedule_coeff=0.5), 100_000, seed=16)
    assert p > 0.01
    assert p - ci <= math.exp(-2 * 0.25**2 * 8)


def test_nonmember_survival_direct_q():
    # delta = 1 and coeff 2 make the round-1 schedule q = 2 / 0.25^2 = 32
    p, ci = estimate_tail(nonmember_survival(1, 0.25, 1.0, schedule_coeff=2.0), 1_000_000, seed=17)
    assert p - ci <= math.exp(-2 * 0.25**2 * 32)
    # cross-check against the exact binomial tail
    exact = binom.sf(15, 32, 0.25)
    assert abs(p - exact) <= ci


def test_nonmember_survival_schedule_form():
    p, ci = estimate_tail(nonmember_survival(1, 0.25, delta=math.exp(-1.0)), 100_000, seed=18)
    assert p - ci <= math.exp(-2 * 0.25**2 * 128)


def test_survival_validation():
    with pytest.raises(TypeError, match="delta"):
        nonmember_survival(1, 0.25)
    with pytest.raises(ValueError, match="round index"):
        nonmember_survival(0, 0.25, 1.0)


# -- registry ---------------------------------------------------------------------------


def test_event_builder_registry():
    assert set(EVENT_BUILDERS) == {
        "coin",
        "filter-member",
        "filter-blocker",
        "elim-member",
        "elim-survivor",
    }
    assert EVENT_BUILDERS["coin"] is coin_event
    assert EVENT_BUILDERS["filter-blocker"] is blocker_filter_violation
