"""One-shot recovery under persistent noise: neighborhood vote filtering.

Each vertex is queried exactly once.  A vertex survives if few enough of its
neighbors are claimed to belong to the hidden set; low-degree vertices are
exempt from filtering because their votes are too noisy to read.  A greedy
pass over the surviving subgraph returns the final independent set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _block_slots, _greedy_ids, _lazy_frozenset, _row_blocks, induced_subgraph
from .graph import greedy_mis  # noqa: F401  (bench/traced.py wraps this binding; the filter calls _greedy_ids)
from .oracle import Oracle, ModeError

__all__ = [
    "PersistentParams",
    "PersistentReport",
    "neighbor_yes_counts",
    "survival_threshold",
    "run_persistent",
]

# ids per query in neighbor_yes_counts: the oracle's hash keeps about eight
# int64 values per id alive, so a block's temporaries stay near 256 KiB
_QUERY_BLOCK = 4096


@dataclass
class PersistentParams:
    """Tuning knobs; the defaults are the analyzed values.

    ``epsilon_effective`` defaults to the oracle's post-cap advantage.
    ``low_degree_cutoff_coeff * ln(n)`` is the degree below which vertices
    skip the filter; ``threshold_coeff`` scales the slack in the survival
    threshold.  Both are exposed because contrived test instances need to
    force the cutoff.
    """

    epsilon_effective: float | None = None
    low_degree_cutoff_coeff: float = 36.0
    threshold_coeff: float = 6.0
    greedy_order: str = "id"  # "id" | "degree" | "random"
    order_seed: int = 0


@dataclass
class PersistentReport:
    """Everything the filtering run decided, for inspection and dumps.

    ``low_degree_mask`` and ``surviving_mask`` are boolean masks over the
    vertex ids and ``independent_ids`` is ascending; ``low_degree``,
    ``surviving`` and ``independent_set`` are frozensets built on first read.
    """

    yes_counts: np.ndarray
    degrees: np.ndarray
    thresholds: np.ndarray
    low_degree_mask: np.ndarray
    surviving_mask: np.ndarray
    independent_ids: np.ndarray
    stats: dict = field(default_factory=dict)
    low_degree = _lazy_frozenset(lambda report: np.flatnonzero(report.low_degree_mask))
    surviving = _lazy_frozenset(lambda report: np.flatnonzero(report.surviving_mask))
    independent_set = _lazy_frozenset(lambda report: report.independent_ids)


def neighbor_yes_counts(g: Graph, oracle: Oracle) -> np.ndarray:
    """Number of neighbors of each vertex that the oracle claims are members.

    Queries every vertex exactly once, in ascending blocks of ids, then
    counts by symmetry: ``v`` gets one vote from every claimed vertex whose
    row lists ``v``, so counting the ids in the claimed rows gives every
    count.  Those rows are read in blocks too, so no temporary grows with
    the vertex or the edge count.  Requires a persistent Bernoulli oracle,
    whose answers do not change between reads.
    """
    if not oracle.config.is_persistent:
        raise ModeError("neighbor votes need a persistent oracle; answers must not change between reads")
    counts = np.zeros(g.n, dtype=np.int64)
    for start in range(0, g.n, _QUERY_BLOCK):
        block = np.arange(start, min(start + _QUERY_BLOCK, g.n), dtype=np.int64)
        for rows in _row_blocks(g, block[oracle.query_bool_many(block)]):
            np.add.at(counts, g.indices[_block_slots(g, rows)], 1)
    return counts


def survival_threshold(deg, epsilon: float, n: int, coeff: float = 6.0):
    """Largest claimed-neighbor count a degree-``deg`` vertex may have and survive.

    ``(1/2 - eps) * deg + coeff * sqrt(ln n) * (1/2 - eps) * sqrt(deg)``;
    accepts scalars or arrays for ``deg``.
    """
    # each term rounds as in the formula above, and adding them the other way round gives the same bits
    out = np.sqrt(deg, dtype=np.float64)
    out *= coeff * math.sqrt(math.log(n)) * (0.5 - epsilon)
    out += (0.5 - epsilon) * np.asarray(deg)
    return float(out) if np.ndim(out) == 0 else out


def _greedy_order(sub: Graph, policy: str, seed: int) -> np.ndarray | None:
    if policy == "id":
        return None
    if policy == "degree":
        return np.argsort(sub.degrees(), kind="stable")
    if policy == "random":
        return np.random.default_rng(seed).permutation(sub.n)
    raise ValueError(f"unknown greedy order policy {policy!r}")


def run_persistent(g: Graph, oracle: Oracle, params: PersistentParams | None = None) -> PersistentReport:
    """Filter on neighborhood votes, then take a greedy set on the survivors.

    Survivors are the union of the low-degree exemption set L (degree at most
    ``cutoff_coeff * ln n``, ties survive) and the filtered set S (vertices
    above the cutoff whose claimed-neighbor count is at most the survival
    threshold, ties survive).  Total oracle cost is exactly ``g.n`` queries.
    """
    params = params or PersistentParams()
    if oracle.n != g.n:
        raise ValueError("oracle universe size does not match the graph")
    t0 = time.perf_counter()
    n = g.n
    eps = params.epsilon_effective if params.epsilon_effective is not None else oracle.effective_epsilon
    yes = neighbor_yes_counts(g, oracle)
    degs = g.degrees()
    # ln n is read at max(n, 1), so the empty graph takes this path too
    cutoff = params.low_degree_cutoff_coeff * math.log(max(n, 1))
    low_mask = degs <= cutoff
    thresholds = survival_threshold(degs, eps, max(n, 1), params.threshold_coeff)
    surviving_mask = ~low_mask & (yes <= thresholds)
    kept = low_mask | surviving_mask
    # when nothing was filtered out the induced subgraph is g itself
    sub, ids = (g, None) if kept.all() else induced_subgraph(g, np.flatnonzero(kept))
    chosen = _greedy_ids(sub, _greedy_order(sub, params.greedy_order, params.order_seed))
    independent = chosen if ids is None else ids[chosen]
    return PersistentReport(
        yes_counts=yes,
        degrees=degs,
        thresholds=thresholds,
        low_degree_mask=low_mask,
        surviving_mask=surviving_mask,
        independent_ids=independent,
        stats={
            "num_low_degree": int(np.count_nonzero(low_mask)),
            "num_surviving": int(np.count_nonzero(surviving_mask)),
            "num_selected": len(independent),
            "wall_time_ms": (time.perf_counter() - t0) * 1000.0,
        },
    )
