"""Monte Carlo estimation of tail-event probabilities, with event samplers
for the package's filtering and elimination rules.

``estimate_tail`` drives any vectorized event sampler and returns the hit
frequency with a 99% normal-approximation half-width, floored so that a
zero-hit run still reports positive uncertainty.  Bound checks downstream
should be one-sided: assert ``p_hat - ci <= bound``.

The ranges in the annotations below are checked where ``noisymis stats
--mc`` reads its flags, not when these functions are called.
"""

from __future__ import annotations

import math
from typing import Annotated

import numpy as np

from .bandit import BanditParams, _at_least_half, query_schedule
from .persistent import survival_threshold
from .schema import _AT_LEAST_ONE, _INT64, _NONNEGATIVE, _UP_TO_HALF, _ZERO_TO_ONE

__all__ = [
    "estimate_tail",
    "coin_event",
    "member_filter_violation",
    "blocker_filter_violation",
    "member_elimination",
    "nonmember_survival",
    "EVENT_BUILDERS",
]

_Z99 = 2.58

# most draws one sampler call makes, which bounds the estimator's memory
_BATCH = 1_000_000


def estimate_tail(sampler, trials: int, seed: Annotated[int, _NONNEGATIVE]) -> tuple[float, float]:
    """Estimate P(event) over ``trials`` draws of ``sampler(rng, count)``.

    The sampler must return a boolean array of length ``count``.  Returns
    ``(p_hat, half_width)`` where the half-width is the 99% Wald interval
    ``2.58 * sqrt(p(1-p)/trials)`` floored at ``2.58 / (2 * trials)``.
    """
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials for a meaningful tail estimate, got {trials}")
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = trials
    while remaining > 0:
        count = min(remaining, _BATCH)
        out = np.asarray(sampler(rng, count))
        if out.shape != (count,):
            raise ValueError("sampler must return one boolean per requested trial")
        hits += int(np.count_nonzero(out))
        remaining -= count
    p_hat = hits / trials
    half = max(_Z99 * math.sqrt(p_hat * (1.0 - p_hat) / trials), _Z99 / (2.0 * trials))
    return p_hat, half


def coin_event(p: Annotated[float, _ZERO_TO_ONE]):
    """Bernoulli(p) hits; the estimator calibration case."""

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.random(count) < p

    return sample


def member_filter_violation(
    deg: Annotated[int, _NONNEGATIVE, _INT64],
    epsilon: Annotated[float, _UP_TO_HALF],
    n: Annotated[int, _AT_LEAST_ONE],
    coeff: float = 6.0,
):
    """A hidden-set vertex of degree ``deg`` fails the survival filter.

    All its neighbors are outsiders, so its claimed-neighbor count is
    Binomial(deg, 1/2 - eps); the event is that count exceeding the survival
    threshold.
    """
    s = survival_threshold(deg, epsilon, n, coeff)

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.binomial(deg, 0.5 - epsilon, size=count) > s

    return sample


def blocker_filter_violation(
    deg: Annotated[int, _NONNEGATIVE, _INT64],
    k: int,
    epsilon: Annotated[float, _UP_TO_HALF],
    n: Annotated[int, _AT_LEAST_ONE],
    coeff: float = 6.0,
):
    """An outsider with ``k`` hidden-set neighbors sneaks past the filter.

    Its claimed-neighbor count is Binomial(k, 1/2 + eps) + Binomial(deg - k,
    1/2 - eps); the event is that count landing at or below the threshold.
    """
    if not 0 <= k <= deg:
        raise ValueError(f"k must lie in [0, deg], got {k}")
    s = survival_threshold(deg, epsilon, n, coeff)

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        claimed = rng.binomial(k, 0.5 + epsilon, size=count)
        claimed = claimed + rng.binomial(deg - k, 0.5 - epsilon, size=count)
        return claimed <= s

    return sample


def member_elimination(r: int, epsilon: float, delta: float, schedule_coeff: float = 4.0):
    """A hidden-set vertex loses the round-``r`` majority vote."""
    q = query_schedule(r, BanditParams(epsilon=epsilon, delta=delta, schedule_coeff=schedule_coeff))

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        return ~_at_least_half(rng.binomial(q, 0.5 + epsilon, size=count), q)

    return sample


def nonmember_survival(r: int, epsilon: float, delta: float, schedule_coeff: float = 4.0):
    """An outsider wins the round-``r`` majority vote (ties survive)."""
    q = query_schedule(r, BanditParams(epsilon=epsilon, delta=delta, schedule_coeff=schedule_coeff))

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        return _at_least_half(rng.binomial(q, 0.5 - epsilon, size=count), q)

    return sample


# name -> builder, for the CLI's ad hoc Monte Carlo entry point
EVENT_BUILDERS = {
    "coin": coin_event,
    "filter-member": member_filter_violation,
    "filter-blocker": blocker_filter_violation,
    "elim-member": member_elimination,
    "elim-survivor": nonmember_survival,
}
