"""One-shot recovery under persistent noise: neighborhood vote filtering.

Each vertex is queried exactly once.  A vertex survives if few enough of its
neighbors are claimed to belong to the hidden set; low-degree vertices are
exempt from filtering because their votes are too noisy to read.  A greedy
pass over the kept vertices of the graph itself, the dropped ones blocked from
the start, returns the final independent set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Annotated

import numpy as np

from .graph import Graph, _block_slots, _row_blocks, greedy_mis
from .graph import induced_subgraph  # noqa: F401  (bench/traced.py wraps this binding)
from .oracle import ORACLE_MODES, Oracle, ModeError
from .schema import _NONNEGATIVE, _UP_TO_HALF, _check_types, _one_of

__all__ = [
    "PersistentParams",
    "PersistentReport",
    "neighbor_yes_counts",
    "survival_threshold",
    "run_persistent",
]

# ids per query in neighbor_yes_counts: the oracle's hash keeps about eight
# int64 values per id alive, so a block's temporaries stay near 256 KiB; also
# the degrees per block of survival_threshold's root term
_QUERY_BLOCK = 4096


@dataclass(frozen=True)
class PersistentParams:
    """Tuning knobs; the defaults are the analyzed values.

    ``epsilon_effective`` defaults to the oracle's post-cap advantage.
    ``low_degree_cutoff_coeff * ln(n)`` is the degree below which vertices
    skip the filter; ``threshold_coeff`` scales the slack in the survival
    threshold.  Both are exposed because contrived test instances need to
    force the cutoff.  An invalid field raises ``ValueError`` when built.
    """

    epsilon_effective: Annotated[float | None, _UP_TO_HALF] = None
    low_degree_cutoff_coeff: float = 36.0
    threshold_coeff: float = 6.0
    greedy_order: Annotated[str, _one_of(("id", "degree", "random"))] = "id"
    order_seed: Annotated[int, _NONNEGATIVE] = 0  # numpy seeds no generator from a negative integer

    def __post_init__(self):
        _check_types(PersistentParams, vars(self), "params")


@dataclass
class PersistentReport:
    """Everything the filtering run decided, for inspection and dumps.

    ``yes_counts`` and ``degrees`` are int32, as a count is at most its
    vertex's degree and a degree is below ``n <= 2**31``; ``thresholds``
    are float64.  ``low_degree_mask`` and ``surviving_mask`` are boolean
    masks over the vertex ids and ``independent_ids`` is ascending.
    """

    yes_counts: np.ndarray
    degrees: np.ndarray
    thresholds: np.ndarray
    low_degree_mask: np.ndarray
    surviving_mask: np.ndarray
    independent_ids: np.ndarray
    stats: dict = field(default_factory=dict)


def neighbor_yes_counts(g: Graph, oracle: Oracle) -> np.ndarray:
    """Number of neighbors of each vertex that the oracle claims are members.

    Queries every vertex exactly once, in ascending blocks of ids, then
    counts by symmetry: ``v`` gets one vote from every claimed vertex whose
    row lists ``v``, so counting the ids in the claimed rows gives every
    count.  Those rows are read in blocks too, so no temporary grows with
    the vertex or the edge count.  The counts are int32: none exceeds its
    vertex's degree.  Requires a persistent Bernoulli oracle, whose answers
    do not change between reads.
    """
    if not ORACLE_MODES[oracle.config.mode].persistent:
        raise ModeError("neighbor votes need a persistent oracle; answers must not change between reads")
    counts = np.zeros(g.n, dtype=np.int32)
    for start in range(0, g.n, _QUERY_BLOCK):
        block = np.arange(start, min(start + _QUERY_BLOCK, g.n), dtype=np.int64)
        _add_neighbor_counts(g, block[oracle.query_bool_many(block)], counts)
    return counts


def _add_neighbor_counts(g: Graph, members: np.ndarray, counts: np.ndarray) -> None:
    """Add to the int32 ``counts[v]`` the number of neighbors of ``v`` in the id array ``members``.

    By symmetry ``v`` has one such neighbor for every member whose row lists
    ``v``, so counting the ids in the members' rows gives every count.  The
    rows are read in blocks, so no temporary grows with the edge count.
    """
    for rows in _row_blocks(g, members):
        # an int32 increment keeps np.add.at on its fast path; a Python 1 is over 20x slower
        np.add.at(counts, g.indices[_block_slots(g, rows)], np.int32(1))


def survival_threshold(deg, epsilon: float, n: int, coeff: float = 6.0):
    """Largest claimed-neighbor count a degree-``deg`` vertex may have and survive.

    ``(1/2 - eps) * deg + coeff * sqrt(ln n) * (1/2 - eps) * sqrt(deg)``;
    accepts scalars or arrays for ``deg``.
    """
    deg = np.asarray(deg)
    out = np.empty(deg.shape, dtype=np.float64)
    np.multiply(deg, 0.5 - epsilon, out=out)
    # the root term is added in blocks, so no other vertex-sized array is made;
    # each term rounds as in the formula above
    slack = coeff * math.sqrt(math.log(n)) * (0.5 - epsilon)
    flat_deg, flat_out = deg.reshape(-1), out.reshape(-1)
    for start in range(0, flat_out.size, _QUERY_BLOCK):
        term = np.sqrt(flat_deg[start : start + _QUERY_BLOCK], dtype=np.float64)
        term *= slack
        flat_out[start : start + _QUERY_BLOCK] += term
    return float(out) if out.ndim == 0 else out


def _greedy_order(g: Graph, degrees: np.ndarray, kept: np.ndarray, policy: str, seed: int) -> np.ndarray | None:
    """The ids of the vertex mask ``kept`` in the order the greedy pass scans them.

    ``id`` keeps them ascending; ``random`` permutes them with a generator
    seeded by ``seed``; ``degree`` sorts them stably by their degree in the
    subgraph induced on ``kept``.  That degree is a vertex's entry in the
    int32 ``degrees`` of ``g`` less its int32 count of dropped neighbors,
    which reads only the dropped rows.
    Where ``id`` keeps every vertex, the order is ``None``, which
    ``greedy_mis`` reads as every id ascending, so no id array is made.
    """
    if policy == "id" and kept.all():
        return None
    kept_ids = np.flatnonzero(kept)
    if policy == "degree":
        dropped_neighbors = np.zeros(g.n, dtype=np.int32)
        _add_neighbor_counts(g, np.flatnonzero(~kept), dropped_neighbors)
        kept_degrees = degrees[kept_ids] - dropped_neighbors[kept_ids]
        return kept_ids[np.argsort(kept_degrees, kind="stable")]
    if policy == "random":
        return kept_ids[np.random.default_rng(seed).permutation(kept_ids.size)]
    return kept_ids


def run_persistent(g: Graph, oracle: Oracle, params: PersistentParams | None = None) -> PersistentReport:
    """Filter on neighborhood votes, then take a greedy set on the survivors.

    Survivors are the union of the low-degree exemption set L (degree at most
    ``cutoff_coeff * ln n``, ties survive) and the filtered set S (vertices
    above the cutoff whose claimed-neighbor count is at most the survival
    threshold, ties survive).  Total oracle cost is exactly ``g.n`` queries.
    The yes-counts and degrees are held as int32, which no count or degree
    outgrows, so no vertex-sized int64 array is made.
    """
    params = params or PersistentParams()
    if oracle.n != g.n:
        raise ValueError("oracle universe size does not match the graph")
    t0 = time.perf_counter()
    n = g.n
    eps = params.epsilon_effective if params.epsilon_effective is not None else oracle.config.effective_epsilon
    yes = neighbor_yes_counts(g, oracle)
    degs = np.empty(n, dtype=np.int32)
    # each degree fits int32, and the ufunc casts in buffered blocks, so no int64 difference array exists
    np.subtract(g.offsets[1:], g.offsets[:-1], out=degs, casting="unsafe")
    # ln n is read at max(n, 1), so the empty graph takes this path too
    cutoff = params.low_degree_cutoff_coeff * math.log(max(n, 1))
    low_mask = degs <= cutoff
    thresholds = survival_threshold(degs, eps, max(n, 1), params.threshold_coeff)
    surviving_mask = ~low_mask & (yes <= thresholds)
    kept = low_mask | surviving_mask
    independent = greedy_mis(g, _greedy_order(g, degs, kept, params.greedy_order, params.order_seed))
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
