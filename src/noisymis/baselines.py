"""Baseline recovery procedures: subsample-and-vote, and repetition voting.

``run_sampler`` never looks at edges: it samples a small vertex subset and
keeps the majority-yes vertices, trading solution size for a tiny query
bill.  ``run_amplify`` boosts any constant-approximation subroutine into a
near-exact one by re-running it and promoting consistently selected
vertices, then sweeping the leftovers with direct majority votes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .bandit import _at_least_half, elimination_round
from .graph import _int_ids
from .oracle import ORACLE_MODES, Oracle, ModeError
from .schema import _AT_LEAST_ONE, _INT64, _NONNEGATIVE, _UP_TO_ONE, _check_types

__all__ = [
    "SamplerParams",
    "AmplifyParams",
    "run_sampler",
    "run_amplify",
]


@dataclass(frozen=True)
class SamplerParams:
    """Defaults: sample probability ``1/ln n``, ``ceil(ln n / eps^2)`` queries each."""

    sample_prob: Annotated[float | None, _UP_TO_ONE] = None
    queries_per_vertex: Annotated[int | None, _AT_LEAST_ONE, _INT64] = None

    def __post_init__(self):
        _check_types(SamplerParams, vars(self), "params")


@dataclass(frozen=True)
class AmplifyParams:
    """Defaults: ``ceil(log_1.5 ln n)`` rounds of ``ceil(100 ln ln n)`` reruns,
    then ``ceil(2 ln n / eps^2)`` direct queries per leftover vertex."""

    rounds: Annotated[int | None, _NONNEGATIVE] = None
    reps_per_round: Annotated[int | None, _AT_LEAST_ONE] = None
    final_queries: Annotated[int | None, _AT_LEAST_ONE, _INT64] = None

    def __post_init__(self):
        _check_types(AmplifyParams, vars(self), "params")


def run_sampler(n: int, oracle: Oracle, params: SamplerParams | None = None, seed: int = 0) -> np.ndarray:
    """Majority-vote a random ``~n / ln n``-vertex sample; returns the kept vertices' ascending ids.

    The vote is one elimination round on the sample, costing ``|sample| *
    queries_per_vertex``.  The sampling is the procedure's own randomness, driven
    by ``seed``, apart from the oracle noise.  Needs the non-persistent Bernoulli oracle.
    """
    params = params or SamplerParams()
    if "yes-counts" not in ORACLE_MODES[oracle.config.mode].answers:
        raise ModeError("the sampler votes by repeated queries; it needs the non-persistent Bernoulli oracle")
    if oracle.n != n:
        raise ValueError("oracle universe size does not match n")
    prob = params.sample_prob if params.sample_prob is not None else (min(1.0, 1.0 / math.log(n)) if n > 1 else 1.0)
    eps = oracle.config.epsilon
    q = params.queries_per_vertex if params.queries_per_vertex is not None else math.ceil(math.log(max(n, 2)) / eps**2)
    rng = np.random.default_rng(seed)
    return elimination_round(np.flatnonzero(rng.random(n) < prob), oracle, q)


def run_amplify(base_alg, oracle: Oracle, n: int, params: AmplifyParams | None = None) -> np.ndarray:
    """Promote vertices that ``base_alg`` selects consistently, round by round; returns ascending ids.

    ``base_alg(residual)`` gets the residual ids as an ascending read-only
    int64 array, the same array for every run of one round, so no run can
    change the input of the next; it may return any iterable of ids (an
    integer array is taken as it is).  Ids outside ``range(n)`` or outside
    the residual are ignored, and so are repeats within one run; an id that
    is not an integer fitting int64 raises ``ValueError``.  Each round reruns
    it ``reps_per_round`` times and promotes the vertices selected in at
    least half the runs, removing them from the residual.  After the last
    round the leftovers go through one elimination round of ``final_queries``
    queries each, and its survivors are promoted.  Requires the non-persistent
    Bernoulli oracle (the final sweep votes by repetition).
    """
    params = params or AmplifyParams()
    if "yes-counts" not in ORACLE_MODES[oracle.config.mode].answers:
        raise ModeError("the final sweep votes by repeated queries; it needs the non-persistent Bernoulli oracle")
    if oracle.n != n:
        raise ValueError("oracle universe size does not match n")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    eps = oracle.config.epsilon
    if (params.rounds is None or params.reps_per_round is None) and n < 3:
        raise ValueError("default rounds and reps_per_round need n >= 3; pass both explicitly")
    rounds = params.rounds if params.rounds is not None else math.ceil(math.log(math.log(n)) / math.log(1.5))
    reps = params.reps_per_round if params.reps_per_round is not None else math.ceil(100.0 * math.log(math.log(n)))
    final_q = params.final_queries if params.final_queries is not None else math.ceil(2.0 * math.log(max(n, 2)) / eps**2)

    residual = np.ones(n, dtype=bool)
    promoted = np.zeros(n, dtype=bool)
    for _ in range(rounds):
        if not residual.any():
            break
        residual_ids = np.flatnonzero(residual)
        residual_ids.setflags(write=False)
        votes = np.zeros(n, dtype=np.int64)
        for _ in range(reps):
            picked = _int_ids(base_alg(residual_ids), n)
            if not picked.size:
                continue
            # ids outside range(n) are dropped before they can index (a negative
            # one would wrap around); repeats within one run count once
            picked = picked[(picked >= 0) & (picked < n)]
            votes[picked[residual[picked]]] += 1
        selected = _at_least_half(votes, reps)
        promoted |= selected
        residual &= ~selected
    promoted[elimination_round(np.flatnonzero(residual), oracle, final_q)] = True
    return np.flatnonzero(promoted)
