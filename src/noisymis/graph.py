"""Immutable CSR graphs plus the combinatorial routines shared by every solver.

Vertex ids are 0-based and live in ``range(g.n)``.  Inside the library a
vertex set is an ascending int64 id array or a boolean mask over
``range(g.n)``; public functions accept any iterable of ids and return
``frozenset`` objects, converting once at that boundary.  Graphs are simple
(no self-loops, no parallel edges) and undirected, with every neighbor list
stored in ascending order so that scan order, and therefore each algorithm
built on top, is deterministic.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Graph",
    "build_graph",
    "induced_subgraph",
    "greedy_mis",
    "vertex_cover_2approx",
    "is_independent_set",
    "is_maximal_independent_set",
    "exact_mis",
    "EXACT_MIS_MAX_N",
    "read_edgelist",
    "write_edgelist",
]

# exact_mis is a branch-and-bound search; above this size we refuse to try.
EXACT_MIS_MAX_N = 30


class Graph:
    """Undirected simple graph in compressed sparse row layout.

    ``indices[offsets[v]:offsets[v + 1]]`` is the ascending neighbor list of
    ``v``.  Instances are immutable after construction and safe to share
    across concurrent trials.  Equality goes by content, and the lazily
    built owner array is a cache, not content.  Graphs are not hashable.
    """

    __slots__ = ("n", "m", "offsets", "indices", "_owner")

    def __init__(self, n: int, offsets: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.m = int(len(indices)) // 2
        self.offsets = offsets
        self.indices = indices
        for arr in (self.offsets, self.indices):
            arr.setflags(write=False)
        self._owner = None

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (read-only view)."""
        return self.indices[self.offsets[v] : self.offsets[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def owner(self) -> np.ndarray:
        """Source vertex of every CSR slot, so edge ``j`` is ``(owner()[j], indices[j])``.

        Built on first use and cached (read-only).  ``_induce`` is its only
        user: it reuses the array across the many induces of one graph.
        """
        if self._owner is None:
            owner = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
            owner.setflags(write=False)
            self._owner = owner
        return self._owner

    @property
    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n > 0 else 0

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges) -> Graph:
    """Build a graph from unordered id pairs.

    Self-loops and duplicate pairs (in either orientation) are dropped
    silently.  An endpoint outside ``range(n)`` raises ``ValueError`` naming
    the offending edge, and so does ``n > 2**31``.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    _code_shift(n)  # rejects an n too large to encode before anything is allocated
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an iterable of id pairs")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        i = int(np.flatnonzero(((arr < 0) | (arr >= n)).any(axis=1))[0])
        raise ValueError(
            f"edge ({int(arr[i, 0])}, {int(arr[i, 1])}) has an endpoint outside range(0, {n})"
        )
    loops = arr[:, 0] == arr[:, 1]
    if loops.any():
        arr = arr[~loops]
    return _csr_from_codes(n, _edge_codes(n, arr[:, 0], arr[:, 1]))


def _code_shift(n: int) -> int:
    """Bit width of ``dst`` in the edge codes ``src << shift | dst`` of a graph on ``n`` vertices.

    Two such fields must fit in an int64 code, which caps ``n`` at 2**31.
    """
    if n > 2**31:
        raise ValueError(f"vertex count {n} exceeds the limit n <= 2**31")
    return max(1, (int(n) - 1).bit_length())


def _edge_codes(n: int, src, dst, out: np.ndarray | None = None) -> np.ndarray:
    """Codes ``src << _code_shift(n) | dst`` of both orientations of the pairs ``(src, dst)``.

    ``src`` and ``dst`` broadcast together; the flat result holds the pairs
    as given, then the same pairs flipped.  It is a fresh buffer, or ``out``
    when given: a flat int64 array of exactly that size, which the caller
    hands over to be filled.  The pairs as given are written first, so
    ``dst`` may be a view of ``out``'s second half; ``src`` may not alias it.
    """
    shift = _code_shift(n)
    shape = np.broadcast_shapes(np.shape(src), np.shape(dst))
    size = int(np.prod(shape))
    codes = np.empty(2 * size, dtype=np.int64) if out is None else out
    for half, high, low in ((codes[:size], src, dst), (codes[size:], dst, src)):
        half = half.reshape(shape)
        np.left_shift(high, shift, out=half)
        half |= low
    return codes


def _csr_from_codes(n: int, codes: np.ndarray) -> Graph:
    """Graph on ``n`` vertices from the ``_edge_codes`` of both orientations of every edge.

    Sorts and deduplicates ``codes`` in place, so the sorted codes list every
    row in turn with ascending neighbors, then trims the buffer to its
    distinct codes and decodes it into the graph's ``indices``.  The trim
    frees the duplicate tail but leaves any view of ``codes`` dangling, so
    ``codes`` must own its data and nothing else may refer to it: this
    function owns the buffer ``_edge_codes`` returns, whether fresh or the
    caller's ``out``, and no view of it outlives the call.
    """
    shift = _code_shift(n)
    k = _sorted_unique(codes)
    if k < codes.size:
        codes.resize(k, refcheck=False)
    offsets = np.searchsorted(codes, np.arange(n + 1, dtype=np.int64) << shift)
    indices = np.bitwise_and(codes, (1 << shift) - 1, out=codes)
    return Graph(n, offsets, indices)


# values per step of _sorted_unique's compaction and CSR slots per row block of
# the edge-wise passes; it bounds the temporaries of both
_UNIQUE_CHUNK = 1 << 16


def _sorted_unique(a: np.ndarray) -> int:
    """Sort ``a`` in place, move its distinct values to ``a[:k]`` ascending, return ``k``.

    The compaction walks ``a`` in chunks of ``_UNIQUE_CHUNK`` values and
    copies the values of each chunk that differ from their predecessor down
    into the prefix.  The write position never passes the read position, so
    only chunk-sized temporaries are made; until the first repeat nothing is
    copied at all.  ``a[k:]`` is left with stale values.
    """
    a.sort()
    k = min(a.size, 1)  # a[:k] holds the distinct values found so far
    for start in range(1, a.size, _UNIQUE_CHUNK):
        stop = min(start + _UNIQUE_CHUNK, a.size)
        chunk = a[start:stop]
        # every write so far landed below start - 1, so a[start - 1] is still its sorted value
        new = chunk != a[start - 1 : stop - 1]
        if k == start and new.all():
            k = stop
            continue
        kept = chunk[new]
        a[k : k + kept.size] = kept
        k += kept.size
    return k


def _row_blocks(g: Graph, rows: np.ndarray) -> list[np.ndarray]:
    """Split the row list ``rows`` into consecutive blocks of about ``_UNIQUE_CHUNK`` CSR slots.

    Laid end to end, the rows' slots fall into windows of ``_UNIQUE_CHUNK``;
    each block holds the rows that start in one window, so it has fewer
    slots than that plus the length of its last row.  Returns the non-empty
    blocks as views of ``rows``.
    """
    lengths = g.offsets[rows + 1] - g.offsets[rows]
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends - lengths, np.arange(_UNIQUE_CHUNK, total, _UNIQUE_CHUNK)).tolist()
    return [rows[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, rows.size]) if hi > lo]


def _block_slots(g: Graph, rows: np.ndarray) -> np.ndarray:
    """CSR slot numbers of the row list ``rows``, row after row."""
    starts = g.offsets[rows]
    lengths = g.offsets[rows + 1] - starts
    ends = np.cumsum(lengths)
    # position j of a row's run is slot j + (row start - position of the row's first slot)
    slots = np.repeat(starts - (ends - lengths), lengths)
    slots += np.arange(slots.size)
    return slots


def _sorted_ids(vertices, n: int) -> np.ndarray:
    """Unique ascending id array from any iterable of vertex ids.

    The ids are copied first, so the caller's array is never sorted in place.
    The result may be a prefix view of that copy, which is vertex-sized.
    """
    if isinstance(vertices, np.ndarray):
        ids = vertices.astype(np.int64).ravel()
    elif isinstance(vertices, (set, frozenset)):
        ids = np.fromiter(vertices, dtype=np.int64, count=len(vertices))
    else:
        ids = np.fromiter((int(v) for v in vertices), dtype=np.int64)
    ids = ids[: _sorted_unique(ids)]
    if ids.size and (ids[0] < 0 or ids[-1] >= n):
        raise ValueError(f"vertex ids must lie in range(0, {n})")
    return ids


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on ``vertices`` with compacted ids.

    Returns ``(sub, ids)`` where ``ids[new] == old``; the old-to-new map is
    the rank of each kept id inside the ascending ``ids`` array.
    """
    ids = _sorted_ids(vertices, g.n)
    return _induce(g, ids), ids


def _induce(g: Graph, ids: np.ndarray) -> Graph:
    """Induced subgraph on the ascending distinct ids ``ids``, renumbered by rank."""
    mask = np.zeros(g.n, dtype=bool)
    mask[ids] = True
    slot = mask[g.indices]
    offsets = np.zeros(ids.size + 1, dtype=np.int64)
    # no kept id has a neighbor (always so for no ids): skip building the owner
    if not slot.any():
        return Graph(ids.size, offsets, np.zeros(0, dtype=np.int64))
    owner = g.owner()
    slot &= mask[owner]
    # row lengths come from the old ids, so no renumbered copy of the kept
    # slots' owners is ever alive next to the renumbered neighbor ids
    np.cumsum(np.bincount(owner[slot], minlength=g.n)[ids], out=offsets[1:])
    new_id = np.cumsum(mask, dtype=np.int64) - 1
    sub_indices = new_id[g.indices[slot]]
    return Graph(ids.size, offsets, sub_indices)


def greedy_mis(g: Graph, order=None) -> frozenset:
    """First-fit maximal independent set scanned along ``order``.

    ``order`` must be a permutation of ``range(g.n)``; the default is
    ascending vertex id.  A vertex is taken iff no earlier-taken neighbor
    exists, so the result is always maximal.
    """
    return frozenset(_greedy_ids(g, order).tolist())


def _greedy_ids(g: Graph, order=None) -> np.ndarray:
    """``greedy_mis`` as an ascending id array."""
    n = g.n
    if order is None:
        scan = range(n)
    else:
        arr = np.asarray(order, dtype=np.int64)
        if arr.shape != (n,) or not np.array_equal(np.sort(arr), np.arange(n)):
            raise ValueError("order must be a permutation of range(n)")
        scan = arr.tolist()
    blocked = np.zeros(n, dtype=bool)
    offsets, indices = g.offsets, g.indices
    for v in scan:
        if not blocked[v]:
            blocked[indices[offsets[v] : offsets[v + 1]]] = True
    # a taken vertex is never blocked later, as its later neighbors are
    # blocked by it and so never taken: the taken vertices are the unblocked
    return np.flatnonzero(~blocked)


def vertex_cover_2approx(g: Graph) -> frozenset:
    """Vertex cover at most twice the optimum, via greedy maximal matching.

    Edges are scanned lowest endpoint first (ascending u, then ascending v
    within N(u)); both endpoints of every matched edge enter the cover.
    """
    return frozenset(np.flatnonzero(_matched_mask(g)).tolist())


def _matched_mask(g: Graph) -> np.ndarray:
    """Mask of the vertices that ``vertex_cover_2approx``'s greedy matching covers.

    Isolated vertices can never be matched, so only vertices of nonzero
    degree are scanned; the matching is the same as a scan over every id.
    """
    offsets = g.offsets
    active = np.flatnonzero(offsets[1:] != offsets[:-1])
    matched = bytearray(g.n)
    indices = g.indices.tolist()
    for u, start, stop in zip(active.tolist(), offsets[active].tolist(), offsets[active + 1].tolist()):
        if matched[u]:
            continue
        for j in range(start, stop):
            v = indices[j]
            if not matched[v]:
                matched[u] = matched[v] = 1
                break
    return np.frombuffer(matched, dtype=bool)


def _lazy_frozenset(ids_of) -> functools.cached_property:
    """Cached property: the id array ``ids_of(self)`` as a frozenset, built on first read."""
    return functools.cached_property(lambda self: frozenset(ids_of(self).tolist()))


def _member_mask(g: Graph, s) -> np.ndarray:
    """Boolean mask over ``range(g.n)`` of the ids in ``s``; an id outside it raises ``ValueError``."""
    mask = np.zeros(g.n, dtype=bool)
    mask[_sorted_ids(s, g.n)] = True
    return mask


def _has_inner_edge(g: Graph, mask: np.ndarray) -> bool:
    """True iff some edge of ``g`` has both endpoints in the vertex mask ``mask``.

    Only the members' rows can hold such an edge; they are read block by
    block, stopping at the first block that holds one.
    """
    members = np.flatnonzero(mask)
    return any(mask[g.indices[_block_slots(g, rows)]].any() for rows in _row_blocks(g, members))


def is_independent_set(g: Graph, s) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``s``."""
    return not _has_inner_edge(g, _member_mask(g, s))


def is_maximal_independent_set(g: Graph, s) -> bool:
    """True iff ``s`` is independent and no outside vertex can be added."""
    mask = _member_mask(g, s)
    # by symmetry, the vertices with a member neighbor are the members' neighbors
    touched = mask.copy()
    for rows in _row_blocks(g, np.flatnonzero(mask)):
        neighbors = g.indices[_block_slots(g, rows)]
        if mask[neighbors].any():
            return False
        touched[neighbors] = True
    return bool(touched.all())


def exact_mis(g: Graph) -> frozenset:
    """Maximum independent set by branch and bound (only the size is canonical).

    Branches on the highest-degree remaining vertex (exclude it, or include
    it and delete its neighborhood), seeded with the greedy set as incumbent.
    Refuses graphs with more than ``EXACT_MIS_MAX_N`` vertices.
    """
    n = g.n
    if n > EXACT_MIS_MAX_N:
        raise ValueError(f"exact search is capped at {EXACT_MIS_MAX_N} vertices, got {n}")
    adj = [0] * n
    for v in range(n):
        for u in g.neighbors(v).tolist():
            adj[v] |= 1 << u
    best_mask = sum(1 << v for v in _greedy_ids(g).tolist())
    best_size = best_mask.bit_count()

    def solve(cand: int, cur_mask: int, cur_size: int):
        nonlocal best_size, best_mask
        if cand == 0:
            if cur_size > best_size:
                best_size, best_mask = cur_size, cur_mask
            return
        if cur_size + cand.bit_count() <= best_size:
            return
        # pick the highest-degree vertex inside the candidate subgraph
        pick, pick_deg = -1, -1
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            d = (adj[v] & cand).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        if pick_deg == 0:
            # candidates are pairwise nonadjacent: take them all
            best_size = cur_size + cand.bit_count()
            best_mask = cur_mask | cand
            return
        bit = 1 << pick
        solve(cand & ~bit & ~adj[pick], cur_mask | bit, cur_size + 1)
        solve(cand & ~bit, cur_mask, cur_size)

    solve((1 << n) - 1, 0, 0)
    return frozenset(v for v in range(n) if best_mask >> v & 1)


def write_edgelist(g: Graph, path) -> None:
    """Write ``n m`` then one ``u v`` line per edge (u < v, ascending)."""
    with open(path, "w") as fh:
        _write_edges(g, fh)


def _write_edges(g: Graph, fh) -> None:
    """The edge-list body shared with instance files: header, then edges.

    Rows are read in blocks, so no temporary grows with the edge count.
    """
    fh.write(f"{g.n} {g.m}\n")
    for rows in _row_blocks(g, np.arange(g.n, dtype=np.int64)):
        src = np.repeat(rows, g.offsets[rows + 1] - g.offsets[rows])
        dst = g.indices[_block_slots(g, rows)]
        fwd = src < dst
        pairs = np.column_stack((src[fwd], dst[fwd]))
        fh.write("%d %d\n" * len(pairs) % tuple(pairs.ravel().tolist()))


def read_edgelist(path) -> Graph:
    """Read the ``write_edgelist`` format; ``#`` comment lines are ignored.

    Duplicate or self-loop lines are tolerated per ``build_graph`` rules;
    malformed lines raise ``ValueError`` naming the line number.
    """
    return build_graph(*_read_edges(path))


def _read_edges(path, on_comment=None) -> tuple[int, list]:
    """Vertex count and ``(u, v)`` pairs of an edge-list file.

    Each ``#`` line's text after the ``#`` goes to ``on_comment(lineno, body)``
    as it is read, so an error always names the first bad line in the file.
    """
    n = None
    edges = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                if on_comment is not None:
                    on_comment(lineno, line[1:].strip())
                continue
            if not line:
                continue
            try:
                u, v = map(int, line.split())
            except ValueError:
                what = "header 'n m'" if n is None else "edge 'u v'"
                raise ValueError(f"{path}:{lineno}: expected {what}") from None
            if n is None:
                n = u
            else:
                edges.append((u, v))
    if n is None:
        raise ValueError(f"{path}:1: missing header 'n m'")
    return n, edges
