"""Planted-instance generators and the instance file format.

Every generator hides an independent set ("planted") of size
``floor(alpha * n)`` chosen by a seeded shuffle, and never places an edge
between two planted vertices.  Scoring elsewhere in the package is relative
to the planted set, which need not be the true maximum independent set; see
the README caveat.

Instance files are edge lists (``n m`` header, one ``u v`` line per edge)
with two special trailing comment lines: ``# planted: <ids>`` and
``# params: <json>``.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .graph import Graph, _sorted_ids, build_graph
from .graph import _block_slots, _code_shift, _csr_from_codes, _edge_codes, _row_blocks
from .graph import is_independent_set

__all__ = [
    "PlantedInstance",
    "gen_planted_gnp",
    "gen_planted_bounded_degree",
    "write_instance",
    "read_instance",
]


@dataclass(frozen=True, init=False, eq=False)
class PlantedInstance:
    """A graph and its hidden set; ``planted``, any iterable of ids, is kept as the ascending, read-only ``planted_ids``.

    Raises ``ValueError`` for an id outside ``range(graph.n)`` or a set that is not independent in ``graph``.
    """

    graph: Graph
    planted_ids: np.ndarray
    params: dict

    def __init__(self, graph: Graph, planted, params: dict):
        ids = _sorted_ids(planted, graph.n)
        if not is_independent_set(graph, ids):
            raise ValueError("set is not independent in the graph")
        ids.setflags(write=False)
        self.__dict__.update(graph=graph, planted_ids=ids, params=params)

    def __eq__(self, other):
        same = isinstance(other, PlantedInstance) and (self.graph, self.params) == (other.graph, other.params)
        return same and np.array_equal(self.planted_ids, other.planted_ids)


def _split_planted(n: int, alpha: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    k = int(alpha * n)
    if k < 1:
        raise ValueError(f"floor(alpha * n) must be at least 1, got {k}")
    _code_shift(n)  # rejects an n too large to encode before anything is allocated
    perm = rng.permutation(n)
    return np.sort(perm[:k]), np.sort(perm[k:])


def _skip_sample(total: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Ascending ranks in ``range(total)``, each kept independently with probability ``p``.

    Geometric skipping (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005):
    the gaps between consecutive kept ranks are i.i.d. Geometric(p), so the
    cost is proportional to the number of ranks kept, not to ``total``.
    """
    if p == 0.0 or total == 0:
        return np.zeros(0, dtype=np.int64)
    chunks: list[np.ndarray] = []
    last = -1
    while True:
        expected = (total - 1 - last) * p
        steps = rng.geometric(p, size=int(expected + 4.0 * math.sqrt(expected)) + 16)
        # any step past the end may be shortened to one that still ends past it;
        # that keeps the running sum far from int64 overflow for tiny p
        np.minimum(steps, total + 1, out=steps)
        ranks = last + np.cumsum(steps)
        if ranks[-1] >= total:
            chunks.append(ranks[: np.searchsorted(ranks, total)])
            return np.concatenate(chunks)
        chunks.append(ranks)
        last = int(ranks[-1])


def _unrank_pairs(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert the colex rank ``j * (j - 1) / 2 + i`` of index pairs ``i < j``."""
    j = ((1.0 + np.sqrt(8.0 * ranks + 1.0)) / 2.0).astype(np.int64)
    # rounding in the float root can leave j one off either way for large ranks
    j -= j * (j - 1) // 2 > ranks
    j += (j + 1) * j // 2 <= ranks
    return ranks - j * (j - 1) // 2, j


def gen_planted_gnp(n: int, alpha: float, p: float, seed: int, ensure_maximal: bool = False) -> PlantedInstance:
    """Random graph around a hidden independent set.

    The hidden set is a uniformly random ``floor(alpha * n)``-subset; every
    other vertex pair appears independently with probability ``p``.  With
    ``ensure_maximal``, any outside vertex that ended up with no planted
    neighbor is wired to a uniformly random planted vertex, which makes the
    planted set maximal.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    planted, outside = _split_planted(n, alpha, rng)
    edges = _gnp_edges(planted, outside, p, ensure_maximal, rng)
    params = {
        "generator": "gnp",
        "n": n,
        "alpha": alpha,
        "p": p,
        "seed": seed,
        "ensure_maximal": ensure_maximal,
    }
    return PlantedInstance(build_graph(n, edges), planted, params)


def _gnp_edges(planted: np.ndarray, outside: np.ndarray, p: float, ensure_maximal: bool, rng) -> np.ndarray:
    """The ``(m, 2)`` edge array of ``gen_planted_gnp``, filled in place.

    The sampled ranks and endpoint indices are locals, so they are freed
    before the caller builds the graph.
    """
    k = planted.size
    # outside-outside pairs, colex-ranked over outside indices i < j
    i, j = _unrank_pairs(_skip_sample(outside.size * (outside.size - 1) // 2, p, rng))
    # outside-planted pairs, ranked as outside index * k + planted index
    a, b = np.divmod(_skip_sample(outside.size * k, p, rng), k)
    lonely = outside[np.bincount(a, minlength=outside.size) == 0] if ensure_maximal else outside[:0]
    edges = np.empty((i.size + a.size + lonely.size, 2), dtype=np.int64)
    mid, end = i.size, i.size + a.size
    # mode="clip" lets take write into a column view unbuffered; every index is in range
    np.take(outside, i, out=edges[:mid, 0], mode="clip")
    np.take(outside, j, out=edges[:mid, 1], mode="clip")
    np.take(outside, a, out=edges[mid:end, 0], mode="clip")
    np.take(planted, b, out=edges[mid:end, 1], mode="clip")
    if ensure_maximal:
        edges[end:, 0] = lonely
        edges[end:, 1] = rng.choice(planted, size=lonely.size)
    return edges


def _distinct_picks(rng: np.random.Generator, rows: int, d: int, high: int) -> np.ndarray:
    """``rows`` independent uniform ``d``-subsets of ``range(high)``, one sorted row each.

    Draws with replacement, then redraws only the surplus copies of any
    repeated value until every row is distinct.  Each step treats all values
    alike, so the law of a finished row is invariant under relabeling values
    and is therefore uniform over ``d``-subsets; unlike redrawing whole rows,
    this also finishes quickly when ``d`` is close to ``high``.  The matrix
    owns its data, so the caller may grow it in place.
    """
    picks = rng.integers(0, high, size=(rows, d))
    picks.sort(axis=1)
    todo, sub = np.arange(rows), picks
    while True:
        surplus = np.zeros(sub.shape, dtype=bool)
        np.equal(sub[:, 1:], sub[:, :-1], out=surplus[:, 1:])
        repeated = surplus.any(axis=1)
        if not repeated.any():
            return picks
        todo, sub, surplus = todo[repeated], sub[repeated], surplus[repeated]
        sub[surplus] = rng.integers(0, high, size=int(surplus.sum()))
        sub.sort(axis=1)
        picks[todo] = sub


def gen_planted_bounded_degree(n: int, alpha: float, d: int, seed: int) -> PlantedInstance:
    """Planted instance where every outside vertex picks ``d`` distinct neighbors.

    Neighbors are drawn uniformly from all other vertices, so degrees stay
    within a small constant factor of ``d`` with overwhelming probability.
    Requires ``d <= n - 1`` and the slack ``d * (1 - alpha) <= alpha * n``.
    """
    if d < 0:
        raise ValueError(f"d must be nonnegative, got {d}")
    if d > n - 1:
        raise ValueError(f"d must be at most n - 1 = {n - 1}, got {d}")
    if d * (1.0 - alpha) > alpha * n:
        raise ValueError(f"infeasible parameters: d * (1 - alpha) = {d * (1 - alpha)} exceeds alpha * n = {alpha * n}")
    rng = np.random.default_rng(seed)
    planted, outside = _split_planted(n, alpha, rng)
    codes = _distinct_picks(rng, outside.size, d, n - 1)
    codes += codes >= outside[:, None]  # skip u itself; picks stay uniform over the rest
    # the pick matrix grows in place into the code buffer and the codes overwrite
    # it, so neither an (m, 2) edge array nor a second int64 copy of the picks exists
    size = codes.size
    codes.resize(2 * size, refcheck=False)
    codes[size:] = codes[:size]
    _edge_codes(n, outside[:, None], codes[size:].reshape(outside.size, d), out=codes)
    params = {"generator": "bounded-degree", "n": n, "alpha": alpha, "d": d, "seed": seed}
    return PlantedInstance(_csr_from_codes(n, codes), planted, params)


def write_instance(instance: PlantedInstance, path) -> None:
    """Write ``n m``, one ``u v`` line per edge (u < v, ascending), then the ``# planted:`` and ``# params:`` lines.

    Rows are read in blocks, so no temporary grows with the edge count, and
    each block's text is built in numpy, one fixed-width column per decimal
    digit, so no edge becomes a Python int.
    """
    g = instance.graph
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        width = len(str(max(g.n - 1, 0)))  # digits of the largest id
        for rows in _row_blocks(g, np.arange(g.n, dtype=np.int64)):
            src = np.repeat(rows, g.offsets[rows + 1] - g.offsets[rows])
            dst = g.indices[_block_slots(g, rows)]
            fwd = src < dst
            ends = np.empty(2 * np.count_nonzero(fwd), dtype=np.uint32)  # u, v, u, v, ...; n <= 2**31, so ids fit
            ends[0::2], ends[1::2] = src[fwd], dst[fwd]
            # one row per end: its zero-padded digits, then " " after a u or "\n" after a v
            text = np.empty((ends.size, width + 1), dtype=np.uint8)
            text[0::2, width], text[1::2, width] = ord(" "), ord("\n")
            for col in range(width - 1, -1, -1):
                text[:, col] = ends % 10 + ord("0")
                ends //= 10
            keep = np.logical_or.accumulate(text != ord("0"), axis=1)  # drops the leading zeros,
            keep[:, width - 1] = True  # but not the one digit of a 0
            fh.write(text[keep].tobytes().decode("ascii"))
        fh.write("# planted: " + " ".join(map(str, instance.planted_ids.tolist())) + "\n")
        fh.write("# params: " + json.dumps(instance.params, sort_keys=True) + "\n")


def read_instance(path) -> PlantedInstance:
    """Parse an instance file; errors name the first offending line.

    ``#`` lines other than the two sections and blank lines are skipped.
    Edges follow ``build_graph`` rules, so duplicate and self-loop lines are
    tolerated; an endpoint outside ``range(n)`` is an error.  The endpoints
    are collected in one flat ``array("q")``, 16 bytes an edge.  The planted
    section is required and must be independent in the parsed graph; the
    params section is optional (defaults to ``{}``), and an ``alpha`` in it
    must be a number in (0, 1), as every generator writes.
    """
    n = None
    ends = array("q")
    planted: list | None = None
    planted_line = 0
    params: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("planted:"):
                    try:
                        planted = [int(v) for v in body[len("planted:") :].split()]
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: planted ids must be integers") from None
                    planted_line = lineno
                elif body.startswith("params:"):
                    try:
                        params = json.loads(body[len("params:") :])
                    except (ValueError, RecursionError):  # a JSONDecodeError, or nesting too deep to parse
                        params = None
                    if not isinstance(params, dict):
                        raise ValueError(f"{path}:{lineno}: params must be a JSON object")
                    alpha = params.get("alpha", 0.5)  # none is fine: a run then records the planted share
                    if type(alpha) not in (int, float) or not 0.0 < alpha < 1.0:
                        raise ValueError(f"{path}:{lineno}: params 'alpha' must be a number in (0, 1), got {alpha!r}")
                continue
            if not line:
                continue
            try:
                u, v = map(int, line.split())
            except ValueError:
                what = "header 'n m'" if n is None else "edge 'u v'"
                raise ValueError(f"{path}:{lineno}: expected {what}") from None
            if n is None:
                # build_graph's limits, checked here so that the error names the line
                if not 0 <= u <= 2**31:
                    raise ValueError(f"{path}:{lineno}: vertex count {u} lies outside 0 <= n <= 2**31")
                n = u
            elif 0 <= u < n > v >= 0:
                ends.append(u)
                ends.append(v)
            else:
                raise ValueError(f"{path}:{lineno}: edge ({u}, {v}) has an endpoint outside range(0, {n})")
    if n is None:
        raise ValueError(f"{path}:1: missing header 'n m'")
    graph = build_graph(n, np.frombuffer(ends, dtype=np.int64).reshape(-1, 2))
    if planted is None:
        raise ValueError(f"{path}: missing '# planted:' section")
    try:
        return PlantedInstance(graph, planted, params)  # rejects ids outside range(n) and a dependent set
    except ValueError as exc:
        raise ValueError(f"{path}:{planted_line}: planted {exc}") from None
