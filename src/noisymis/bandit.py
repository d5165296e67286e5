"""Round-based elimination under fresh noise, with vertex-cover extraction.

Each round queries every surviving vertex a schedule-driven number of times
and drops the ones that fail a majority vote.  The survivors' induced
subgraph is then cleaned up by removing a 2-approximate vertex cover; the
complement is an independent set candidate, and the best candidate seen so
far is returned when the query budget runs out or no survivor remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Graph, _induce, _lazy_frozenset, _matched_mask, _sorted_ids, induced_subgraph
from .graph import vertex_cover_2approx  # noqa: F401  (bench/traced.py times calls through this binding)
from .oracle import Oracle, ModeError, BANDIT_BERNOULLI, BANDIT_GAUSSIAN

__all__ = [
    "BanditParams",
    "RoundRecord",
    "BanditResult",
    "log_inv_delta",
    "query_schedule",
    "query_budget",
    "elimination_round",
    "cover_complement",
    "run_bandit",
]

# delta this close to 1 is treated as exactly 1 (log(1/delta) floors at 0)
_DELTA_ONE = 1.0 - 1e-9


@dataclass
class BanditParams:
    """Schedule and budget knobs; coefficient defaults are the analyzed values.

    ``epsilon`` defaults to the oracle's advantage.
    """

    epsilon: float | None = None
    delta: float = 0.1
    schedule_coeff: float = 4.0
    budget_coeff: float = 30.0


@dataclass
class RoundRecord:
    r: int
    q: int
    survivors_before: int
    survivors_after: int
    cover_size: int
    candidate_size: int
    cumulative_queries: int


@dataclass
class BanditResult:
    independent_ids: np.ndarray  # ascending
    best_round: int
    trace: list[RoundRecord] = field(default_factory=list)
    total_queries: int = 0
    terminated_reason: str = ""  # "budget" | "survivors-empty"
    independent_set = _lazy_frozenset(lambda result: result.independent_ids)


def log_inv_delta(delta: float) -> float:
    """``ln(1/delta)``, floored at 0 for delta within 1e-9 of 1."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if delta >= _DELTA_ONE:
        return 0.0
    return math.log(1.0 / delta)


def query_schedule(r: int, params: BanditParams) -> int:
    """Queries per surviving vertex in round ``r`` (1-based).

    ``ceil((schedule_coeff / eps^2) * (r + ln(1/delta)))``; additive in the
    round index, so early rounds stay cheap while late rounds sharpen the
    majority vote.
    """
    if r < 1:
        raise ValueError(f"round index must be >= 1, got {r}")
    eps = params.epsilon
    if eps is None or not 0.0 < eps <= 0.5:
        raise ValueError(f"params.epsilon must lie in (0, 1/2], got {eps}")
    return math.ceil((params.schedule_coeff / eps**2) * (r + log_inv_delta(params.delta)))


def query_budget(n: int, params: BanditParams) -> float:
    """Total query allowance: ``budget_coeff * n / eps^2 * max(ln(1/delta), ln 2)``.

    The ``ln 2`` floor keeps the budget positive as delta approaches 1.
    """
    eps = params.epsilon
    if eps is None or not 0.0 < eps <= 0.5:
        raise ValueError(f"params.epsilon must lie in (0, 1/2], got {eps}")
    return params.budget_coeff * n / eps**2 * max(log_inv_delta(params.delta), math.log(2.0))


def elimination_round(survivors, oracle: Oracle, q: int) -> frozenset:
    """One vote: query each survivor ``q`` times, keep majority-yes vertices.

    A vertex is eliminated iff its yes-count (Bernoulli) or reward sum
    (Gaussian) is strictly below ``q / 2``; exact ties survive.  Requires a
    non-persistent oracle, since repeated queries must carry fresh noise.
    """
    verts = _sorted_ids(survivors, oracle.n)
    return frozenset(verts[_majority(verts, oracle, q)].tolist())


def _majority(verts: np.ndarray, oracle: Oracle, q: int) -> np.ndarray:
    """``elimination_round``'s vote on an ascending id array, as a keep mask over it."""
    if oracle.config.mode == BANDIT_BERNOULLI:
        counts = oracle.query_yes_counts(verts, q)
        keep = 2 * counts >= q
    elif oracle.config.mode == BANDIT_GAUSSIAN:
        sums = oracle.query_reward_sums(verts, q)
        keep = sums >= q / 2.0
    else:
        raise ModeError("elimination needs a non-persistent oracle; repeated queries must be fresh")
    return keep


def cover_complement(g: Graph, vertices) -> frozenset:
    """Independent subset of ``vertices``: drop a 2-approximate cover of G[vertices].

    Whenever members of the hidden set outnumber outsiders 50:1 inside
    ``vertices``, the result keeps at least 49/50 of those members (each
    matched edge spends at most one member per outsider).
    """
    sub, ids = induced_subgraph(g, vertices)
    return frozenset(ids[~_matched_mask(sub)].tolist())


def run_bandit(
    g: Graph,
    oracle: Oracle,
    params: BanditParams | None = None,
    initial=None,
) -> BanditResult:
    """Eliminate by repeated voting, extract candidates, return the best.

    ``initial`` restricts the run to a vertex subset (default: all of ``g``);
    the budget scales with that subset's size.  The budget check happens after
    each round's cover phase, so the final round may overshoot by at most its
    own cost; the trace records cumulative totals per round.
    """
    params = params or BanditParams()
    if oracle.n != g.n:
        raise ValueError("oracle universe size does not match the graph")
    if oracle.config.is_persistent:
        raise ModeError("elimination needs a non-persistent oracle; repeated queries must be fresh")
    if params.epsilon is None:
        params = replace(params, epsilon=oracle.config.epsilon)

    if initial is None:
        survivors = np.arange(g.n, dtype=np.int64)
    else:
        survivors = _sorted_ids(initial, g.n)
    n_eff = survivors.size
    result = BanditResult(independent_ids=survivors[:0], best_round=0)
    if n_eff == 0:
        result.terminated_reason = "survivors-empty"
        return result

    budget = query_budget(n_eff, params)
    spent = 0
    r = 0
    best = survivors[:0]
    candidate = None
    while True:
        r += 1
        q = query_schedule(r, params)
        before = survivors.size
        keep = _majority(survivors, oracle, q)
        survivors = survivors[keep]
        spent += before * q
        # survivors only shrink and ``sub`` is always G[survivors]: later rounds
        # induce from it by position, and a round that drops nobody keeps the
        # previous candidate, which depends on the survivors alone
        if candidate is None or survivors.size != before:
            sub = _induce(g, survivors) if candidate is None else _induce(sub, np.flatnonzero(keep))
            candidate = survivors[~_matched_mask(sub)]
        if candidate.size > best.size:
            best = candidate
            result.best_round = r
        result.trace.append(
            RoundRecord(
                r=r,
                q=q,
                survivors_before=before,
                survivors_after=survivors.size,
                cover_size=survivors.size - candidate.size,
                candidate_size=candidate.size,
                cumulative_queries=spent,
            )
        )
        if spent > budget:
            result.terminated_reason = "budget"
            break
        if not survivors.size:
            result.terminated_reason = "survivors-empty"
            break
    result.independent_ids = best
    result.total_queries = spent
    return result
