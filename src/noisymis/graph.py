"""Immutable CSR graphs plus the combinatorial routines shared by every solver.

Vertex ids are 0-based and live in ``range(g.n)``.  A vertex set is an
ascending int64 id array, or inside the library a boolean mask over
``range(g.n)``; public functions accept any iterable of ids and return id
arrays.  Graphs are simple
(no self-loops, no parallel edges) and undirected, with every neighbor list
stored in ascending order so that scan order, and therefore each algorithm
built on top, is deterministic.
"""

from __future__ import annotations

from array import array

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
    ``v``.  The graphs the library builds hold int32 ``indices``, as
    ``n <= 2**31`` lets every id fit, and int64 ``offsets``.  Instances are
    immutable after construction and safe to share across concurrent
    trials.  Equality goes by content, and the lazily built owner array is
    a cache, not content.  Graphs are not hashable.
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

        Built on first use and cached (read-only).  ``induced_subgraph`` is its only
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
    distinct codes and decodes them, chunk by chunk, into int32 neighbor ids
    packed at its front, and trims it again to the half they fill: that half
    is the graph's ``indices``.  ``n <= 2**31``, so every id fits.  Each trim
    leaves any view of ``codes`` dangling, so ``codes`` must own its data and
    nothing else may refer to it: this function owns the buffer
    ``_edge_codes`` returns, whether fresh or the caller's ``out``, and no
    view of it outlives the call.
    """
    shift = _code_shift(n)
    k = _sorted_unique(codes)
    if k < codes.size:
        codes.resize(k, refcheck=False)
    # row v starts at the first code at or above v << shift; filled in chunks,
    # so no temporary grows with n
    offsets = np.arange(n + 1, dtype=np.int64)
    for start in range(0, n + 1, _UNIQUE_CHUNK):
        block = offsets[start : start + _UNIQUE_CHUNK]
        block[:] = np.searchsorted(codes, block << shift)
    # id j goes to bytes [4j, 4j + 4), never past code j's bytes [8j, 8j + 8),
    # so a chunk's writes reach no later chunk's codes
    narrow = codes.view(np.int32)
    for start in range(0, k, _UNIQUE_CHUNK):
        stop = min(start + _UNIQUE_CHUNK, k)
        np.bitwise_and(codes[start:stop], (1 << shift) - 1, out=narrow[start:stop])
    codes.resize((k + 1) // 2, refcheck=False)
    return Graph(n, offsets, codes.view(np.int32)[:k])


# values per step of _sorted_unique's compaction and CSR slots per row block of
# the edge-wise passes; it bounds the temporaries of both
_UNIQUE_CHUNK = 1 << 16
# rows per window of greedy_mis's scan and CSR slots per block it widens to int64
_GREEDY_BLOCK = 1 << 12


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


def _row_blocks(g: Graph, rows: np.ndarray, size: int | None = None) -> list[np.ndarray]:
    """Split the row list ``rows`` into consecutive blocks of about ``size`` CSR slots.

    ``size`` defaults to ``_UNIQUE_CHUNK``.  Laid end to end, the rows'
    slots fall into windows of ``size``; each block holds the rows that
    start in one window, so it has fewer slots than that plus the length of
    its last row.  Returns the non-empty blocks as views of ``rows``.
    """
    size = _UNIQUE_CHUNK if size is None else size
    lengths = g.offsets[rows + 1] - g.offsets[rows]
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends - lengths, np.arange(size, total, size)).tolist()
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


def _int_ids(vertices, n: int) -> np.ndarray:
    """Vertex ids as an int64 array in the given order, not range-checked.

    An integer array is cast (an int64 one is returned as it is); anything
    else is read item by item, and an item that is not an integer fitting
    int64 raises ``ValueError``, as does a bool array (a mask, not ids).
    """
    if isinstance(vertices, np.ndarray) and vertices.dtype.kind in "iu":
        return vertices.astype(np.int64, copy=False)
    try:
        # array("q") checks each item in C: it takes only integers that fit int64
        return np.frombuffer(array("q", list(vertices)), dtype=np.int64)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"vertex ids must be integers in range(0, {n}): {exc}") from None


def _sorted_ids(vertices, n: int) -> np.ndarray:
    """Unique ascending id array from any iterable of integer vertex ids.

    Ids that are not integers raise ``ValueError``, and so does a bool array
    (a mask, not ids) or an id outside ``range(n)``.  The result is a copy,
    never the caller's array; unless the ids are already strictly ascending,
    that copy is sorted and deduplicated, and the result may be a prefix view.
    """
    ids = _int_ids(vertices, n)
    # an int64 array comes back as the caller's own, and the sort works in place
    ids = ids.flatten() if ids is vertices else ids.ravel()
    if not (ids[1:] > ids[:-1]).all():
        ids = ids[: _sorted_unique(ids)]
    if ids.size and (ids[0] < 0 or ids[-1] >= n):
        raise ValueError(f"vertex ids must lie in range(0, {n})")
    return ids


def _take(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``table[ids]``, gathered ``_UNIQUE_CHUNK`` ids at a time.

    numpy indexes through int32 ids several times slower than through intp
    ones; ``np.take`` casts each chunk instead, into a chunk-sized temporary.
    """
    out = np.empty(ids.shape, dtype=table.dtype)
    for start in range(0, ids.size, _UNIQUE_CHUNK):
        np.take(table, ids[start : start + _UNIQUE_CHUNK], out=out[start : start + _UNIQUE_CHUNK])
    return out


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on ``vertices`` with compacted ids.

    Returns ``(sub, ids)`` where ``ids[new] == old``; the old-to-new map is
    the rank of each kept id inside the ascending ``ids`` array.
    """
    ids = _sorted_ids(vertices, g.n)
    mask = np.zeros(g.n, dtype=bool)
    mask[ids] = True
    # no ids read no edge, and no kept id with a neighbor builds no owner
    slot = _take(mask, g.indices) if ids.size else mask[:0]
    offsets = np.zeros(ids.size + 1, dtype=np.int64)
    if not slot.any():
        return Graph(ids.size, offsets, np.zeros(0, dtype=np.int32)), ids
    owner = g.owner()
    slot &= mask[owner]
    # row lengths come from the old ids, so no renumbered copy of the kept
    # slots' owners is ever alive next to the renumbered neighbor ids
    np.cumsum(np.bincount(owner[slot], minlength=g.n)[ids], out=offsets[1:])
    new_id = np.cumsum(mask, dtype=np.int32)
    new_id -= 1
    sub_indices = _take(new_id, g.indices[slot])
    return Graph(ids.size, offsets, sub_indices), ids


def greedy_mis(g: Graph, order=None) -> np.ndarray:
    """First-fit maximal independent set scanned along ``order``, as ascending ids.

    ``order`` must be a permutation of ``range(g.n)``; the default is
    ascending vertex id.  A vertex is taken iff no earlier-taken neighbor
    exists, so the result is always maximal.
    """
    n = g.n
    if order is not None:
        order = _int_ids(order, n)
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of range(n)")
    blocked = np.zeros(n, dtype=bool)
    for start in range(0, n, _GREEDY_BLOCK):
        stop = min(start + _GREEDY_BLOCK, n)
        window = np.arange(start, stop) if order is None else order[start:stop]
        # a vertex blocked before its window or its block is reached is never
        # taken, so its row is never read
        for rows in _row_blocks(g, window[~blocked[window]], _GREEDY_BLOCK):
            rows = rows[~blocked[rows]]
            if not rows.size:
                continue
            # the block's neighbor ids, widened to int64 once, so no row's gather casts its ids
            neighbors = g.indices[_block_slots(g, rows)].astype(np.int64)
            ends = np.cumsum(g.offsets[rows + 1] - g.offsets[rows]).tolist()
            for v, lo, hi in zip(rows.tolist(), [0, *ends], ends):
                if not blocked[v]:
                    blocked[neighbors[lo:hi]] = True
    # a taken vertex is never blocked later, as its later neighbors are
    # blocked by it and so never taken: the taken vertices are the unblocked
    return np.flatnonzero(~blocked)


def vertex_cover_2approx(g: Graph) -> np.ndarray:
    """Vertex cover at most twice the optimum, via greedy maximal matching, as ascending ids.

    Edges are scanned lowest endpoint first (ascending u, then ascending v
    within N(u)); both endpoints of every matched edge enter the cover.
    Isolated vertices can never be matched, so only vertices of nonzero
    degree are scanned; the matching is the same as a scan over every id.
    """
    if not g.m:
        return np.zeros(0, dtype=np.int64)
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
    return np.flatnonzero(np.frombuffer(matched, dtype=bool))


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


def exact_mis(g: Graph) -> np.ndarray:
    """Maximum independent set by branch and bound, as ascending ids (only the size is canonical).

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
    best_mask = sum(1 << v for v in greedy_mis(g).tolist())
    best_size = best_mask.bit_count()

    def solve(cand: int, cur_mask: int, cur_size: int):
        nonlocal best_size, best_mask
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
        if pick_deg <= 0:
            # candidates are pairwise nonadjacent (or none are left; pick_deg is then -1): take them all
            best_size = cur_size + cand.bit_count()
            best_mask = cur_mask | cand
            return
        bit = 1 << pick
        solve(cand & ~bit & ~adj[pick], cur_mask | bit, cur_size + 1)
        solve(cand & ~bit, cur_mask, cur_size)

    solve((1 << n) - 1, 0, 0)
    return np.flatnonzero([best_mask >> v & 1 for v in range(n)])


def write_edgelist(g: Graph, path) -> None:
    """Write ``n m`` then one ``u v`` line per edge (u < v, ascending)."""
    with open(path, "w") as fh:
        _write_edges(g, fh)


def _write_edges(g: Graph, fh) -> None:
    """The edge-list body shared with instance files: header, then edges.

    Rows are read in blocks, so no temporary grows with the edge count, and
    each block's text is built in numpy, one fixed-width column per decimal
    digit, so no edge becomes a Python int.
    """
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


def read_edgelist(path) -> Graph:
    """Read the ``write_edgelist`` format; ``#`` comment lines are ignored.

    Duplicate or self-loop lines are tolerated per ``build_graph`` rules;
    malformed lines and endpoints outside ``range(n)`` raise ``ValueError``
    naming the line number.
    """
    return build_graph(*_read_edges(path))


def _read_edges(path, on_comment=None) -> tuple[int, np.ndarray]:
    """Vertex count and ``(m, 2)`` int64 endpoint array of an edge-list file.

    Each ``#`` line's text after the ``#`` goes to ``on_comment(lineno, body)``
    as it is read, so an error always names the first bad line in the file.
    The endpoints are collected in one flat ``array("q")``, 16 bytes an edge.
    """
    n = None
    ends = array("q")
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
    return n, np.frombuffer(ends, dtype=np.int64).reshape(-1, 2)
