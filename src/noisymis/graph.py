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
]

# exact_mis is a branch-and-bound search; above this size we refuse to try.
EXACT_MIS_MAX_N = 30


class Graph:
    """Undirected simple graph in compressed sparse row layout.

    ``indices[offsets[v]:offsets[v + 1]]`` is the ascending neighbor list of
    ``v``.  The graphs the library builds hold int32 ``indices``, as
    ``n <= 2**31`` lets every id fit, and int64 ``offsets``.  Instances are
    immutable after construction and safe to share across concurrent
    trials.  Equality goes by content.  The only cache, ``_cover``, holds
    the last survivor ids ``bandit.cover_complement`` was given and its
    result; it is not content.  Graphs are not hashable.
    """

    __slots__ = ("n", "m", "offsets", "indices", "_cover")

    def __init__(self, n: int, offsets: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.m = int(len(indices)) // 2
        self.offsets = offsets
        self.indices = indices
        for arr in (self.offsets, self.indices):
            arr.setflags(write=False)
        self._cover = None

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` (read-only view)."""
        return self.indices[self.offsets[v] : self.offsets[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def max_degree(self) -> int:
        """Largest degree, 0 without vertices.

        The offsets are differenced ``_GREEDY_BLOCK`` rows at a time, so no
        temporary grows with ``n``.
        """
        top = 0
        for start in range(0, self.n, _GREEDY_BLOCK):
            block = self.offsets[start : start + _GREEDY_BLOCK + 1]
            top = max(top, int((block[1:] - block[:-1]).max()))
        return top

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


def _edge_codes(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Codes ``src << _code_shift(n) | dst`` of the pairs ``(src, dst)``, then of the same pairs flipped.

    ``src`` and ``dst`` are id arrays of one length; the codes fill one
    fresh int64 buffer, twice that length.
    """
    shift = _code_shift(n)
    codes = np.empty(2 * src.size, dtype=np.int64)
    for half, high, low in ((codes[: src.size], src, dst), (codes[src.size :], dst, src)):
        np.left_shift(high, shift, out=half)
        half |= low
    return codes


def _csr_from_codes(n: int, codes: np.ndarray) -> Graph:
    """Graph on ``n`` vertices from the ``_edge_codes`` of both orientations of every edge.

    Sorts and deduplicates ``codes`` in place, so the sorted codes list every
    row in turn with ascending neighbors, then trims the buffer to its
    distinct codes and narrows them in place into the graph's int32
    ``indices``.  ``codes`` must own its data and nothing else may refer to
    it: this function owns the buffer ``_edge_codes`` returns, and no view
    of it outlives the call.
    """
    k = _sorted_unique(codes)
    if k < codes.size:
        codes.resize(k, refcheck=False)
    offsets = _row_offsets(n, codes)
    return Graph(n, offsets, _narrow_ids(n, codes))


def _row_offsets(n: int, codes: np.ndarray) -> np.ndarray:
    """Where each row of a graph on ``n`` vertices starts in its ascending edge codes ``codes``.

    Row ``v`` starts at the first code at or above ``v << _code_shift(n)``,
    and entry ``n`` is ``codes.size``.  Filled in chunks, so no temporary
    grows with ``n``.
    """
    shift = _code_shift(n)
    offsets = np.arange(n + 1, dtype=np.int64)
    for start in range(0, n + 1, _UNIQUE_CHUNK):
        block = offsets[start : start + _UNIQUE_CHUNK]
        block[:] = np.searchsorted(codes, block << shift)
    return offsets


def _narrow_ids(n: int, codes: np.ndarray) -> np.ndarray:
    """The low ids of the edge codes ``codes``, as int32 written over ``codes``' own buffer.

    The ids are packed at the front of the buffer, chunk by chunk, which is
    then trimmed to the half they fill; the result is an int32 view of it.
    ``n <= 2**31``, so every id fits.  ``codes`` must be a C-contiguous
    int64 array that owns its data; the trim leaves any other view of it
    dangling.
    """
    mask = (1 << _code_shift(n)) - 1
    flat = codes.reshape(-1)
    narrow = flat.view(np.int32)
    # id j goes to bytes [4j, 4j + 4), never past code j's bytes [8j, 8j + 8),
    # so a chunk's writes reach no later chunk's codes
    for start in range(0, flat.size, _UNIQUE_CHUNK):
        stop = min(start + _UNIQUE_CHUNK, flat.size)
        np.bitwise_and(flat[start:stop], mask, out=narrow[start:stop])
    codes.resize((flat.size + 1) // 2, refcheck=False)
    return codes.view(np.int32)[: flat.size]


def _csr_from_rows(n: int, rows: np.ndarray, picks: np.ndarray) -> Graph:
    """Graph on ``n`` vertices that joins each vertex ``rows[i]`` to every id in ``picks[i]``.

    ``rows`` lists distinct ids in ascending order.  ``picks`` is a
    C-contiguous int32 matrix that owns its data, as ``_distinct_picks``
    draws it, with one ascending row of ids per entry of ``rows``, none
    equal to that row's own id; a pair picked from both ends is one edge.
    The result equals ``build_graph`` on the same pairs.  ``picks`` is
    consumed: the call flattens it, reuses its buffer and leaves it trimmed.

    ``_in_list_codes`` writes each pick ``u -> v`` into one more 4-byte
    buffer as the uint32 code ``(v mod 2**bbits) << shift | u``, grouped by
    bucket ``v >> bbits``.  A bucket spans at most ``2**(32 - shift)``
    vertices, so the codes fit, and no int64 code exists.  The int32
    ``indices`` are then filled from the top, one bucket at a time: its
    rows' picks, coded alike, join its in-list codes in one uint32 block,
    which ``_sorted_unique`` sorts and deduplicates (mutual picks are the
    only repeats), so that it lists each row's neighbors in turn, and
    ``searchsorted`` finds where each row starts.  Both sources are trimmed
    past the bucket before its rows are written, so they shrink as the
    output fills, and the build never holds much more than 8 bytes a pick
    besides the offsets.  A chunked move then closes the slots that mutual
    picks left free at the bottom.

    A bucket is the widest power of two of vertices whose picks and
    in-lists, ``2m / n`` slots a vertex on average, fill at most about
    ``_UNIQUE_CHUNK`` slots, which bounds the block's temporaries; where the
    codes allow, it is widened until there are at most 256 buckets, so that
    their ids fit uint8.
    """
    shift = _code_shift(n)
    d = picks.shape[1]
    m = picks.size
    picks.resize(m, refcheck=False)  # the same bytes, one row after another
    bbits = min(32 - shift, max((_UNIQUE_CHUNK * n // max(2 * m, 1)).bit_length() - 1, shift - 8, 0))
    inl, counts = _in_list_codes(n, rows, picks.view(np.uint32), d, bbits)
    ends = np.cumsum(counts)
    firsts = np.searchsorted(rows, np.arange(counts.size + 1, dtype=np.int64) << bbits)  # each bucket's first row
    held = np.flatnonzero((counts > 0) | (firsts[1:] > firsts[:-1]))[::-1]  # buckets with rows or codes, top first
    offsets = np.empty(n + 1, dtype=np.int64)
    # allocated only now: tracemalloc counts its untouched pages, which RSS does not
    indices = np.empty(2 * m, dtype=np.int32)
    top = 2 * m  # indices[top:] is filled
    above = n + 1  # offsets[above:] are set
    starts = ends - counts
    for bucket, a, b, p, q in zip(*(x.tolist() for x in (held, firsts[held], firsts[held + 1], starts[held], ends[held]))):
        # vertices [lo, hi) hold the picks of rows[a:b] and the in-list codes inl[p:q]
        lo, hi = bucket << bbits, min((bucket + 1) << bbits, n)
        offsets[hi:above] = top  # the empty rows above
        block = np.empty((b - a) * d + q - p, dtype=np.uint32)
        high = (rows[a:b] - lo).astype(np.uint32) << shift
        np.bitwise_or(high[:, None], picks.view(np.uint32)[a * d : b * d].reshape(b - a, d),
                      out=block[: (b - a) * d].reshape(b - a, d))
        block[(b - a) * d :] = inl[p:q]
        picks.resize(a * d, refcheck=False)
        inl.resize(p, refcheck=False)
        block = block[: _sorted_unique(block)]
        top -= block.size
        np.add(np.searchsorted(block, np.arange(hi - lo, dtype=np.uint32) << shift), top, out=offsets[lo:hi])
        np.bitwise_and(block, (1 << shift) - 1, out=indices.view(np.uint32)[top : top + block.size])
        above = lo
    offsets[:above] = top
    if top:
        # the graph's ids lie in indices[top:]: move them down, chunk by chunk
        for start in range(top, 2 * m, _UNIQUE_CHUNK):
            stop = min(start + _UNIQUE_CHUNK, 2 * m)
            indices[start - top : stop - top] = indices[start:stop]
        indices.resize(2 * m - top, refcheck=False)
        offsets -= top
    return Graph(n, offsets, indices)


def _in_list_codes(n: int, rows: np.ndarray, forward: np.ndarray, d: int, bbits: int) -> tuple[np.ndarray, np.ndarray]:
    """The in-list codes of the picks ``forward``, grouped by bucket, and each bucket's count.

    ``forward`` holds the picks as uint32, ``d`` per entry of ``rows``.
    Each pick ``u -> v`` becomes ``(v mod 2**bbits) << _code_shift(n) | u``
    in a fresh uint32 buffer, where the ``counts[k]`` codes of bucket ``k``
    (the picks ``v`` with ``v >> bbits == k``) follow those of every lower
    bucket, in pick order.  One pass counts the buckets; one more groups
    each chunk of picks by bucket, through numpy's stable argsort of their
    ids (a radix sort, as the ids are uint8 or uint16 where there are at
    most 2**16 buckets), and scatters it.  A chunk holds half of
    ``_UNIQUE_CHUNK`` picks, so that its intp sort order and scatter
    targets fill 256 KiB each, but is never shorter than the bucket count,
    so that its per-bucket work costs no more than its per-pick work.
    """
    shift = _code_shift(n)
    low = (1 << bbits) - 1
    nb = (n + low) >> bbits
    counts = np.zeros(nb, dtype=np.int64)
    step = max(_UNIQUE_CHUNK >> 1, nb)
    for start in range(0, forward.size, step):
        counts += np.bincount(forward[start : start + step] >> bbits, minlength=nb)
    fill = np.cumsum(counts) - counts  # next free slot of each bucket
    inl = np.empty(forward.size, dtype=np.uint32)
    bucket_ids = np.min_scalar_type(max(nb - 1, 0))
    per = max(step // max(d, 1), 1)  # picking rows per chunk
    for a in range(0, rows.size if d else 0, per):
        b = min(a + per, rows.size)
        picked = forward[a * d : b * d]
        local = np.bitwise_and(picked, low)
        local <<= shift
        local.reshape(b - a, d)[...] |= rows[a:b, None].astype(np.uint32)
        ids = (picked >> bbits).astype(bucket_ids)
        order = np.argsort(ids, kind="stable")
        tops = np.searchsorted(ids[order], np.arange(nb, dtype=bucket_ids), "right")  # each bucket's end in order
        here = np.diff(tops, prepend=0)
        # the k-th code of a bucket in order goes to that bucket's fill + k
        dest = np.repeat(fill - tops + here, here)
        dest += np.arange(dest.size)
        inl[dest] = local[order]
        fill += here
    return inl, counts


# values per step of _sorted_unique's compaction, CSR slots per row block of the
# edge-wise passes and of _row_ranges, about the CSR slots per
# bucket of _csr_from_rows, and twice the picks per chunk of _in_list_codes; it
# bounds their temporaries
_UNIQUE_CHUNK = 1 << 16
# rows per window of greedy_mis's scan and CSR slots per block it widens to
# int64; also ids per window and CSR slots per block of _member_neighbors, and
# rows per block of Graph.max_degree
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


def _row_ranges(g: Graph) -> list[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` row ranges that cut ``g``'s CSR into blocks of about ``_UNIQUE_CHUNK`` slots.

    Each range holds the rows that start in one window of ``_UNIQUE_CHUNK``
    slots, so it has fewer slots than that plus the length of its last row;
    a range may be empty.  Together they cover ``range(g.n)`` in order.
    """
    cuts = np.searchsorted(g.offsets, np.arange(_UNIQUE_CHUNK, 2 * g.m, _UNIQUE_CHUNK)).tolist()
    return list(zip([0, *cuts], [*cuts, g.n]))


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


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on ``vertices`` with compacted ids.

    Returns ``(sub, ids)`` where ``ids[new] == old``; the old-to-new map is
    the rank of each kept id inside the ascending ``ids`` array.  Every row
    is read, in the blocks of ``_row_ranges``: a slot is kept when both its
    row and its neighbor are, and its neighbor is renumbered.  Row lengths
    come by symmetry: a new id appears once in the kept slots for every
    kept neighbor, so counting the renumbered ids, block by block, gives
    every length.
    """
    ids = _sorted_ids(vertices, g.n)
    if not ids.size:  # no ids read no edge
        return Graph(0, np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32)), ids
    mask = np.zeros(g.n, dtype=bool)
    mask[ids] = True
    new_id = np.cumsum(mask, dtype=np.int32)
    new_id -= 1
    offsets = np.zeros(ids.size + 1, dtype=np.int64)
    kept = []
    for lo, hi in _row_ranges(g):
        dst = g.indices[g.offsets[lo] : g.offsets[hi]]
        slot = np.repeat(mask[lo:hi], np.diff(g.offsets[lo : hi + 1]))
        slot &= mask[dst]
        kept.append(np.take(new_id, dst[slot]))
        np.add.at(offsets[1:], kept[-1], 1)  # a bincount would cast every kept id to intp at once
    np.cumsum(offsets, out=offsets)
    return Graph(ids.size, offsets, np.concatenate(kept)), ids


def greedy_mis(g: Graph, order=None) -> np.ndarray:
    """First-fit maximal independent set of the subgraph induced on ``order``, as ascending ids.

    ``order`` lists distinct ids of ``range(g.n)`` in scan order; the default
    is every id, ascending.  A listed vertex is taken iff no earlier-taken
    neighbor exists.  An id left out starts out blocked, so it is never taken
    and never blocks anyone: the result equals ``ids[greedy_mis(sub, ranks)]``
    for ``sub, ids = induced_subgraph(g, order)``, where ``ranks`` are the
    listed ids' ranks in ``ids``.  A repeated id, or one that is not an
    integer in ``range(g.n)``, raises ``ValueError``.
    """
    n = g.n
    if order is None:
        blocked, size = np.zeros(n, dtype=bool), n
    else:
        order = _int_ids(order, n)
        if order.ndim != 1 or order.size and (order.min() < 0 or order.max() >= n):
            raise ValueError(f"order must list distinct ids of range(0, {n})")
        blocked, size = np.ones(n, dtype=bool), order.size
        blocked[order] = False
        if n - np.count_nonzero(blocked) != size:
            raise ValueError(f"order must list distinct ids of range(0, {n})")
    for start in range(0, size, _GREEDY_BLOCK):
        stop = min(start + _GREEDY_BLOCK, size)
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
    return np.flatnonzero(np.logical_not(blocked, out=blocked))


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
    """Boolean mask over ``range(g.n)`` of the ids in ``s``; an id outside it raises ``ValueError``.

    An int64 id array is read where it lies, so the mask is the only array
    that grows with ``n``.
    """
    ids = _int_ids(s, g.n)
    if ids.size and (ids.min() < 0 or ids.max() >= g.n):
        raise ValueError(f"vertex ids must lie in range(0, {g.n})")
    mask = np.zeros(g.n, dtype=bool)
    mask[ids] = True
    return mask


def _member_neighbors(g: Graph, mask: np.ndarray):
    """The neighbor ids of the members of the vertex mask ``mask``, yielded one block of rows at a time.

    The members are listed one window of ``_GREEDY_BLOCK`` ids at a time,
    and their rows read in blocks of about ``_GREEDY_BLOCK`` CSR slots; so
    no temporary grows with ``n``, and a block's int64 slot numbers fill
    about 32 KiB besides its last row.
    """
    for start in range(0, g.n, _GREEDY_BLOCK):
        members = np.flatnonzero(mask[start : start + _GREEDY_BLOCK])
        members += start
        for rows in _row_blocks(g, members, _GREEDY_BLOCK):
            yield g.indices[_block_slots(g, rows)]


def is_independent_set(g: Graph, s) -> bool:
    """True iff no edge of ``g`` has both endpoints in ``s``.

    Only the members' rows can hold such an edge; the scan stops at the
    first block of them that holds one.
    """
    mask = _member_mask(g, s)
    return not any(mask[neighbors].any() for neighbors in _member_neighbors(g, mask))


def is_maximal_independent_set(g: Graph, s) -> bool:
    """True iff ``s`` is independent and no outside vertex can be added."""
    mask = _member_mask(g, s)
    # by symmetry, the vertices with a member neighbor are the members' neighbors
    touched = mask.copy()
    for neighbors in _member_neighbors(g, mask):
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
