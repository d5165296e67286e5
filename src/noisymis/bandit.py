"""Round-based elimination under fresh noise, with vertex-cover extraction.

Each round queries every surviving vertex a schedule-driven number of times
and drops the ones that fail a majority vote.  The survivors' induced
subgraph is then cleaned up by removing a 2-approximate vertex cover; the
complement is an independent set candidate, and the best candidate seen so
far is returned when the query budget runs out or no survivor remains.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np

from .graph import Graph, _sorted_ids, induced_subgraph, vertex_cover_2approx
from .oracle import ORACLE_MODES, Oracle, ModeError
from .schema import _POSITIVE, _UP_TO_HALF, _UP_TO_ONE, _check_types

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


@dataclass(frozen=True)
class BanditParams:
    """Schedule and budget knobs; coefficient defaults are the analyzed values.

    ``epsilon`` defaults to the oracle's advantage.  An invalid field raises
    ``ValueError`` when built; so does a schedule or budget that leaves the floats, when computed.
    """

    epsilon: Annotated[float | None, _UP_TO_HALF] = None
    delta: Annotated[float, _UP_TO_ONE] = 0.1
    schedule_coeff: Annotated[float, _POSITIVE] = 4.0  # rounds of no queries would never end
    budget_coeff: Annotated[float, _POSITIVE] = 30.0

    def __post_init__(self):
        _check_types(BanditParams, vars(self), "params")


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


def log_inv_delta(delta: float) -> float:
    """``ln(1/delta)``, floored at 0 for delta within 1e-9 of 1."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if delta >= _DELTA_ONE:
        return 0.0
    return math.log(1.0 / delta)


def _squared_epsilon(params: BanditParams) -> float:
    """``params.epsilon ** 2``, once epsilon is set and its square is a positive float."""
    eps = params.epsilon
    if eps is None or eps**2 == 0.0:
        raise ValueError(f"params.epsilon must be set and square to a positive float, got {eps}")
    return eps**2


def query_schedule(r: int, params: BanditParams) -> int:
    """Queries per surviving vertex in round ``r`` (1-based).

    ``ceil((schedule_coeff / eps^2) * (r + ln(1/delta)))``; additive in the
    round index, so early rounds stay cheap while late rounds sharpen the
    majority vote.  A count that does not fit int64 raises ``ValueError``.
    """
    if r < 1:
        raise ValueError(f"round index must be >= 1, got {r}")
    q = (params.schedule_coeff / _squared_epsilon(params)) * (r + log_inv_delta(params.delta))
    if not q < 2**63:
        raise ValueError(f"round {r} needs {q} queries per vertex, more than int64 holds")
    return math.ceil(q)


def query_budget(n: int, params: BanditParams) -> float:
    """Total query allowance: ``budget_coeff * n / eps^2 * max(ln(1/delta), ln 2)``.

    The ``ln 2`` floor keeps the budget positive as delta approaches 1.  A
    budget that is not finite, or not below 2**63 as a schedule count must be,
    raises ``ValueError``: no run would ever exhaust it.
    """
    budget = params.budget_coeff * n / _squared_epsilon(params) * max(log_inv_delta(params.delta), math.log(2.0))
    if not math.isfinite(budget):
        raise ValueError(f"query budget {budget} is not finite")
    if budget >= 2**63:
        raise ValueError(f"query budget {budget} is not below 2**63")
    return budget


def _at_least_half(votes, q):
    """Where at least half of ``q`` answers say yes, ties included; unlike ``2 * votes >= q``, it cannot leave int64."""
    return votes >= q - votes


def elimination_round(survivors, oracle: Oracle, q: int) -> np.ndarray:
    """One vote: query each survivor ``q`` times, return the majority-yes ones' ascending ids.

    A vertex is eliminated iff its yes-count (Bernoulli) or reward sum
    (Gaussian) is strictly below ``q / 2``; exact ties survive.  Requires a
    non-persistent oracle, since repeated queries must carry fresh noise.
    """
    verts = _sorted_ids(survivors, oracle.n)
    gaussian = "reward-sums" in ORACLE_MODES[oracle.config.mode].answers
    votes = (oracle.query_reward_sums if gaussian else oracle.query_yes_counts)(verts, q)
    return verts[_at_least_half(votes, q)]


def cover_complement(g: Graph, vertices) -> np.ndarray:
    """Independent subset of ``vertices`` as ascending ids: drop a 2-approximate cover of G[vertices].

    Whenever members of the hidden set outnumber outsiders 50:1 inside
    ``vertices``, the result keeps at least 49/50 of those members (each
    matched edge spends at most one member per outsider).

    ``g`` remembers the last ids it was given and their result: a call with
    the same ids returns a fresh copy of that result, and the memo's arrays
    are never handed out.
    """
    ids = _sorted_ids(vertices, g.n)
    memo = g._cover
    if memo is not None and np.array_equal(memo[0], ids):
        return memo[1].copy()
    sub, _ = induced_subgraph(g, ids)  # its ids are a copy of ``ids``
    cover = vertex_cover_2approx(sub)
    ids.setflags(write=False)
    kept = np.delete(ids, cover) if cover.size else ids
    kept.setflags(write=False)
    g._cover = (ids, kept)
    return kept.copy()


@functools.lru_cache(maxsize=16)
def _with_epsilon(params: BanditParams, epsilon: float) -> BanditParams:
    """``params`` with ``epsilon`` filled in unless it has one; built and checked once, not on every run."""
    return params if params.epsilon is not None else replace(params, epsilon=epsilon)


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
    if oracle.n != g.n:
        raise ValueError("oracle universe size does not match the graph")
    if ORACLE_MODES[oracle.config.mode].persistent:
        raise ModeError("elimination needs a non-persistent oracle; repeated queries must be fresh")
    params = _with_epsilon(params or BanditParams(), oracle.config.epsilon)

    survivors = np.arange(g.n, dtype=np.int64) if initial is None else _sorted_ids(initial, g.n)
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
        survivors = elimination_round(survivors, oracle, q)
        spent += before * q
        # survivors only shrink, so a round that drops nobody keeps the previous
        # candidate, which depends on the survivors alone; no survivors, no cover
        if not survivors.size:
            candidate = survivors
        elif candidate is None or survivors.size != before:
            candidate = cover_complement(g, survivors)
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
