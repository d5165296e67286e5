"""Graph core: construction, induced subgraphs, greedy/exact MIS, cover."""

import gc
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from noisymis.bandit import run_bandit
from noisymis.graph import (
    EXACT_MIS_MAX_N,
    _GREEDY_BLOCK,
    _UNIQUE_CHUNK,
    Graph,
    _sorted_ids,
    _sorted_unique,
    build_graph,
    exact_mis,
    greedy_mis,
    induced_subgraph,
    is_independent_set,
    is_maximal_independent_set,
    vertex_cover_2approx,
)
from noisymis.instances import PlantedInstance, gen_planted_bounded_degree, gen_planted_gnp, read_instance, write_instance
from noisymis.oracle import Oracle, OracleConfig


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def brute_force_mis_size(g):
    best = 0
    edges = [(u, v) for u in range(g.n) for v in g.neighbors(u).tolist() if u < v]
    for mask in range(1 << g.n):
        if all(not (mask >> u & 1 and mask >> v & 1) for u, v in edges):
            best = max(best, mask.bit_count())
    return best


# -- construction -----------------------------------------------------------


def test_build_graph_basic():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.degrees().tolist() == [1, 2, 2, 1]
    assert g.max_degree == 2


def test_build_graph_dedupes_and_drops_self_loops():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1), (2, 2)])
    assert g.m == 1
    assert g.degree(2) == 0


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\(0, 5\)"):
        build_graph(5, [(0, 5)])
    with pytest.raises(ValueError, match=r"edge \(2, 7\) has an endpoint outside range\(0, 5\)"):
        build_graph(5, [(0, 1), (2, 7), (9, 1)])
    with pytest.raises(ValueError):
        build_graph(3, [(-1, 0)])


def test_build_graph_empty():
    g = build_graph(0, [])
    assert g.n == 0 and g.m == 0 and g.max_degree == 0
    g1 = build_graph(3, [])
    assert g1.m == 0 and g1.degrees().tolist() == [0, 0, 0]


def reference_csr(n, edges):
    """CSR arrays as the np.unique + np.lexsort build produced them."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keep = lo != hi
    codes = np.unique(lo[keep] * np.int64(n) + hi[keep])
    lo, hi = codes // n, codes % n
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    indices = dst[order]
    counts = np.bincount(src, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, indices.astype(np.int32)


def reference_sorted_ids(vertices):
    if isinstance(vertices, np.ndarray):
        return np.unique(vertices.astype(np.int64, copy=False))
    return np.unique(np.fromiter((int(v) for v in vertices), dtype=np.int64))


def messy_edge_lists(rng):
    """Seeded edge lists with self-loops, repeats and both orientations."""
    yield 0, []
    yield 1, [(0, 0)]
    yield 7, []
    for n in (2, 3, 10, 57, 400):
        for m in (1, n // 2 + 1, 4 * n):
            arr = rng.integers(0, n, size=(m, 2))
            extra = [arr[rng.integers(0, m, size=m // 3 + 1)]]  # repeats
            extra.append(arr[rng.integers(0, m, size=m // 3 + 1)][:, ::-1])  # reversed
            loops = rng.integers(0, n, size=m // 5 + 1)
            extra.append(np.stack([loops, loops], axis=1))
            arr = np.concatenate([arr, *extra])
            arr = arr[rng.permutation(len(arr))]
            yield n, arr
            yield n, arr[arr[:, 0] != arr[:, 1]]  # loop-free: build_graph skips its loop filter
    # loop-free and repeat-free: the sorted codes are used without a dedup copy
    lo, hi = np.triu_indices(30, 1)
    pick = rng.random(lo.size) < 0.3
    yield 30, np.stack([hi[pick], lo[pick]], axis=1)


def test_build_graph_matches_reference_csr():
    rng = np.random.default_rng(11)
    for n, edges in messy_edge_lists(rng):
        offsets, indices = reference_csr(n, edges)
        for given in (edges, [tuple(e) for e in np.asarray(edges).tolist()]):
            g = build_graph(n, given)
            assert np.array_equal(g.offsets, offsets) and g.offsets.dtype == offsets.dtype
            assert np.array_equal(g.indices, indices) and g.indices.dtype == indices.dtype


def test_build_graph_matches_reference_at_code_width_boundaries():
    # the neighbor field of a code is (n - 1).bit_length() bits wide; ids that
    # fill it exactly, or just spill into one more bit, must decode the same
    rng = np.random.default_rng(13)
    for n in (1, 2, 3, 4, 5, 63, 64, 65, 1024, 1025):
        edges = rng.integers(0, n, size=(3 * n, 2))
        edges[0] = (0, n - 1)
        offsets, indices = reference_csr(n, edges)
        g = build_graph(n, edges)
        assert np.array_equal(g.offsets, offsets) and np.array_equal(g.indices, indices)


def test_build_graph_vertex_count_limit():
    # two ids share one int64 code, so n is capped; the check comes before any allocation
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"vertex count 2147483649 exceeds the limit n <= 2\*\*31"):
            build_graph(2**31 + 1, [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_sorted_ids_matches_reference():
    rng = np.random.default_rng(12)
    arrays = [np.zeros(0, dtype=np.int32), np.array(4), np.array([[3, 1], [1, 0]])]
    for size in (1, 2, 9, 300):
        arr = rng.integers(0, 50, size=size)
        arrays += [arr, arr.astype(np.int32), arr.astype(np.uint16)]
    for arr in arrays:
        before = arr.copy()
        expected = reference_sorted_ids(arr)
        got = _sorted_ids(arr, 50)
        assert np.array_equal(got, expected) and got.dtype == expected.dtype
        assert np.array_equal(arr, before)  # the caller's array stays unsorted
        ids = arr.ravel().tolist()
        for other in (ids, frozenset(ids), iter(ids)):
            got = _sorted_ids(other, 50)
            assert np.array_equal(got, expected) and got.dtype == expected.dtype


@pytest.mark.parametrize(
    "arr",
    [
        np.arange(0, 40, 3),  # strictly ascending: no sort
        np.array([9, 2, 30, 4]),
        np.array([2, 4, 4, 9, 9, 9, 30]),  # ascending but repeated
        np.zeros(0, dtype=np.int64),
        np.array([7]),
        np.array([[1, 2], [5, 8]]),  # ascending once flattened
        np.array([[5, 8], [1, 2]]),
        np.arange(0, 40, 3)[::2],  # a strided view
    ],
    ids=["ascending", "unsorted", "repeated", "empty", "single", "2d-ascending", "2d-unsorted", "strided"],
)
@pytest.mark.parametrize("writeable", [True, False])
def test_sorted_ids_returns_a_fresh_array_on_every_path(arr, writeable):
    arr = arr.copy() if arr.base is None else arr
    arr.setflags(write=writeable)
    before = arr.copy()
    got = _sorted_ids(arr, 40)
    assert got.dtype == np.int64 and np.array_equal(got, np.unique(arr))
    assert not np.shares_memory(got, arr)
    assert np.array_equal(arr, before) and arr.flags.writeable == writeable


@pytest.mark.parametrize(
    "arr",
    [np.array([0, 5, 40]), np.array([-1, 0, 5]), np.array([40, 5, 0]), np.array([[0, 1], [2, 40]])],
    ids=["ascending-high", "ascending-negative", "unsorted-high", "2d-high"],
)
def test_sorted_ids_range_checks_every_path(arr):
    with pytest.raises(ValueError, match=r"range\(0, 40\)"):
        _sorted_ids(arr, 40)


def unique_cases(chunk, rng):
    """Arrays with repeats placed around _sorted_unique's chunk boundaries."""
    yield from (np.zeros(0, dtype=np.int64), np.array([5]), np.array([5, 5]), np.array([7, 3]))
    yield np.full(2 * chunk + 3, 9)
    size = 3 * chunk + 5
    # chunks cover a[1 + j * chunk : 1 + (j + 1) * chunk] of the sorted array
    for edge in (1 + chunk, 1 + 2 * chunk):
        for start, stop in itertools.chain(
            ((edge + s, edge + s + 3) for s in (-1, 0, 1)),  # a run starts near the boundary
            ((edge + s - 3, edge + s) for s in (-1, 0, 1)),  # a run ends near the boundary
            ((edge - 2, edge + 2), (edge - chunk, edge + 1), (edge - 1, edge + chunk)),  # straddles
        ):
            a = np.arange(size, dtype=np.int64) * 3
            a[start:stop] = a[start]
            yield a
    for length in (chunk - 1, chunk, chunk + 1):
        a = np.arange(size, dtype=np.int64)
        a[:length] = 0  # repeats at the front
        a[-length:] = size  # and at the back
        yield a
        yield a[rng.permutation(size)]
    yield rng.integers(0, size // 2, size=size)
    for n in (chunk - 1, chunk, chunk + 1, chunk + 2):
        yield rng.integers(0, n, size=n)


@pytest.mark.parametrize("chunk", [4, 1024])
def test_sorted_unique_matches_np_unique(monkeypatch, chunk):
    # the chunk size only bounds the temporaries; small ones put many boundaries in reach
    monkeypatch.setattr("noisymis.graph._UNIQUE_CHUNK", chunk)
    rng = np.random.default_rng(17)
    for a in unique_cases(chunk, rng):
        expected = np.unique(a)
        # _sorted_ids copies first, so its caller's array is never touched
        before = a.copy()
        got = _sorted_ids(a, int(expected[-1]) + 1 if expected.size else 0)
        assert np.array_equal(got, expected) and np.array_equal(a, before)
        # the same values in a buffer this array does not own, contiguous or strided
        for step in (1, 2):
            outer = np.full(step * a.size + 6, -1, dtype=np.int64)
            view = outer[3 : 3 + step * a.size : step]
            view[:] = a[::-1]
            k = _sorted_unique(view)
            assert k == expected.size and np.array_equal(view[:k], expected)
            assert np.all(outer[:3] == -1) and np.all(outer[3 + step * a.size :] == -1)
        k = _sorted_unique(a)
        assert k == expected.size and np.array_equal(a[:k], expected)


def test_build_graph_keeps_no_duplicate_tail(tmp_path):
    # every edge in both orientations, some three times: the deduplicated
    # codes fill less than half the build buffer, and indices must not pin it
    rng = np.random.default_rng(19)
    n = 2000
    one_way = rng.integers(0, n, size=(10000, 2))
    one_way = one_way[one_way[:, 0] != one_way[:, 1]]
    triples = one_way[rng.integers(0, len(one_way), size=300)]
    edges = np.concatenate([one_way, one_way[:, ::-1], triples, triples[:, ::-1]])
    path = tmp_path / "edges.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges.tolist()) + "# planted:\n")
    expected = build_graph(n, one_way)
    for build in (lambda: build_graph(n, edges), lambda: read_instance(path).graph):
        tracemalloc.start()
        try:
            g = build()
            gc.collect()  # also empties the tuple free list that parsing leaves full
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert g == expected
        assert buffer_bytes(g.indices) <= g.indices.nbytes + 4  # no larger buffer behind indices
        assert held < g.offsets.nbytes + g.indices.nbytes + 64 * 1024


def buffer_bytes(arr):
    """Size of the buffer that holds ``arr``'s data: its own, or its base's."""
    base = arr if arr.base is None else arr.base
    assert base.base is None and base.flags.owndata
    return base.nbytes


def test_every_built_graph_holds_int32_indices_in_a_buffer_of_their_size(tmp_path):
    # the sorted int64 codes are narrowed in place, so at most one odd int32 slot of padding remains
    rng = np.random.default_rng(31)
    n = 300
    edges = rng.integers(0, n, size=(2000, 2))
    write_instance(PlantedInstance(build_graph(n, edges), [], {}), tmp_path / "edges.txt")
    bounded = gen_planted_bounded_degree(n, 0.3, 7, seed=2)
    write_instance(bounded, tmp_path / "inst.txt")
    graphs = [build_graph(0, []), build_graph(5, []), build_graph(n, edges), build_graph(3, [(0, 1), (1, 2)])]
    graphs += [bounded.graph, gen_planted_gnp(n, 0.3, 0.05, seed=2).graph, gen_planted_gnp(n, 0.3, 0.05, seed=2, ensure_maximal=True).graph]
    graphs += [read_instance(tmp_path / "edges.txt").graph, read_instance(tmp_path / "inst.txt").graph]
    for g in list(graphs):
        for ids in ([], [0], np.arange(0, g.n, 3), np.arange(g.n)):
            graphs.append(induced_subgraph(g, [v for v in ids if v < g.n])[0])
    for g in graphs:
        assert g.indices.dtype == np.int32 and g.offsets.dtype == np.int64
        assert buffer_bytes(g.indices) <= g.indices.nbytes + 4


def test_graph_is_immutable():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        g.indices[0] = 2


def test_graph_equality_is_structural():
    a = build_graph(3, [(0, 1), (1, 2)])
    b = build_graph(3, [(1, 2), (0, 1)])
    assert a == b
    assert a != build_graph(3, [(0, 1)])


def test_graph_hash_agrees_with_equality():
    # graphs compare by content and are not hashable
    a = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    b = build_graph(5, [(4, 3), (2, 1), (1, 0), (0, 1)])
    assert a is not b and a == b
    # the cached owner array is not content: building it changes nothing
    a.owner()
    assert a == b
    # equal content held in another integer dtype is equal
    c = Graph(5, a.offsets.astype(np.int32), a.indices.astype(np.int32))
    assert c == a
    assert build_graph(5, [(0, 1)]) != a
    assert build_graph(0, []) == build_graph(0, []) != build_graph(1, [])
    with pytest.raises(TypeError):
        hash(a)


def test_neighbor_lists_sorted():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 12, 0.4)
    for v in range(g.n):
        nb = g.neighbors(v).tolist()
        assert nb == sorted(nb)


# -- induced subgraph -------------------------------------------------------


def test_induced_subgraph_small():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    # no ids: the 0-vertex graph, induced without building the owner array
    sub, ids = induced_subgraph(g, [])
    assert sub == build_graph(0, []) and ids.size == 0
    assert g._owner is None
    sub, ids = induced_subgraph(g, [1, 2, 4])
    assert ids.tolist() == [1, 2, 4]
    assert sub.n == 3
    # only the 1-2 edge survives
    assert sub.m == 1
    assert sub.neighbors(0).tolist() == [1]
    assert sub.neighbors(2).tolist() == []


def test_induce_on_no_ids_reads_no_edge():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    g.indices = np.array([g.n])  # an out-of-range slot: any edge pass would fail on it
    sub, _ = induced_subgraph(g, np.zeros(0, dtype=np.int64))
    assert sub == build_graph(0, []) and sub.indices.dtype == np.int32
    assert g._owner is None


def test_induced_subgraph_preserves_adjacency(monkeypatch):
    rng = np.random.default_rng(77)
    for i in range(20):
        # a chunk of 3 splits every gather of the induce many ways
        monkeypatch.setattr("noisymis.graph._UNIQUE_CHUNK", (3, _UNIQUE_CHUNK)[i % 2])
        n = int(rng.integers(2, 15))
        g = random_graph(rng, n, 0.35)
        k = int(rng.integers(1, n + 1))
        vertices = rng.choice(n, size=k, replace=False)
        sub, ids = induced_subgraph(g, vertices)
        lookup = {int(old): new for new, old in enumerate(ids.tolist())}
        for u in range(g.n):
            for v in g.neighbors(u).tolist():
                if u in lookup and v in lookup:
                    assert lookup[v] in sub.neighbors(lookup[u]).tolist()
        # no edges invented
        assert 2 * sub.m == sum(
            1
            for u_new in range(sub.n)
            for v_new in sub.neighbors(u_new).tolist()
            if int(ids[v_new]) in set(g.neighbors(int(ids[u_new])).tolist())
        )


def test_induced_subgraph_rejects_bad_ids():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        induced_subgraph(g, [0, 3])


NOT_IDS = [
    {1.9, 2}, [1.9, 2], np.array([0.0, 1.9]), np.array([True, False, True]), np.array([False, True]), [2**70], [0, 2**63]
]


@pytest.mark.parametrize(
    "ids", NOT_IDS, ids=["float-set", "float-list", "float-array", "bool-mask", "ascending-bool-mask", "huge-id", "int64-max-plus-one"]
)
def test_vertex_ids_that_are_not_integers_are_rejected(ids):
    g = build_graph(3, [(1, 2)])
    oracle = Oracle(np.array([True, False, False]), OracleConfig(epsilon=0.25, seed=0))
    calls = (
        lambda: is_independent_set(g, ids),
        lambda: induced_subgraph(g, ids),
        lambda: run_bandit(g, oracle, initial=ids),
        # an order or a query list is not truncated to integers either
        lambda: greedy_mis(g, ids),
        lambda: oracle.query_yes_counts(ids, 5),
    )
    for call in calls:
        with pytest.raises(ValueError, match="integers"):
            call()
    assert oracle.total_queries == 0


# -- greedy ------------------------------------------------------------------


def test_greedy_on_five_cycle():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert greedy_mis(g).tolist() == [0, 2]


def test_greedy_can_be_suboptimal():
    # center scanned first blocks both leaves
    g = build_graph(3, [(0, 1), (0, 2)])
    assert greedy_mis(g).tolist() == [0]
    assert exact_mis(g).tolist() == [1, 2]


def test_greedy_respects_order():
    g = build_graph(3, [(0, 1), (0, 2)])
    assert greedy_mis(g, order=[1, 2, 0]).tolist() == [1, 2]


def test_greedy_order_must_list_distinct_ids():
    # an order may leave ids out: they are never taken and never block anyone
    g = build_graph(3, [(0, 1)])
    assert greedy_mis(g, order=[0, 1]).tolist() == [0]
    assert greedy_mis(g, order=[2]).tolist() == [2]
    for order in ([0, 0, 1], [0, 3], [-1, 0]):
        with pytest.raises(ValueError, match="distinct ids"):
            greedy_mis(g, order=order)
    with pytest.raises(ValueError, match="integers"):
        greedy_mis(g, order=[0, 1.0])


def test_greedy_output_always_maximal():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 16))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)))
        s = greedy_mis(g)
        assert is_maximal_independent_set(g, s)
        order = rng.permutation(n)
        s2 = greedy_mis(g, order)
        assert is_maximal_independent_set(g, s2)


def two_mask_greedy(g, order=None):
    # the greedy scan as it kept a taken mask beside the blocked mask
    chosen = np.zeros(g.n, dtype=bool)
    blocked = np.zeros(g.n, dtype=bool)
    for v in range(g.n) if order is None else order:
        if not blocked[v]:
            chosen[v] = True
            blocked[g.neighbors(v)] = True
    return np.flatnonzero(chosen)


def test_greedy_matches_two_mask_reference():
    rng = np.random.default_rng(23)
    graphs = [build_graph(0, []), build_graph(6, [])]
    graphs += [random_graph(rng, int(rng.integers(1, 40)), float(rng.uniform(0.02, 0.7))) for _ in range(40)]
    for g in graphs:
        assert np.array_equal(greedy_mis(g), two_mask_greedy(g))
        for _ in range(3):
            order = rng.permutation(g.n)
            assert np.array_equal(greedy_mis(g, order), two_mask_greedy(g, order.tolist()))


@pytest.mark.parametrize("block", [1, 3, 64, _GREEDY_BLOCK])
def test_greedy_matches_the_int64_graph_in_every_order(monkeypatch, block):
    # small blocks split the scan's windows and the widened rows many ways, and rows outgrow a block
    monkeypatch.setattr("noisymis.graph._GREEDY_BLOCK", block)
    rng = np.random.default_rng(29)
    graphs = [build_graph(0, []), build_graph(6, []), build_graph(200, [(0, v) for v in range(2, 200, 2)])]
    graphs += [random_graph(rng, int(rng.integers(1, 60)), float(rng.uniform(0.02, 0.5))) for _ in range(12)]
    graphs.append(gen_planted_bounded_degree(3000, 0.3, 8, seed=4).graph)
    for g in graphs:
        wide = Graph(g.n, g.offsets.copy(), g.indices.astype(np.int64))
        orders = [None, np.argsort(g.degrees(), kind="stable"), rng.permutation(g.n)]
        for order in orders:
            got = greedy_mis(g, order)
            assert np.array_equal(got, greedy_mis(wide, order))
            assert np.array_equal(got, two_mask_greedy(wide, None if order is None else order.tolist()))
        # an order that lists some of the ids scans the subgraph they induce: no id,
        # one id, random subsets in random order, and every id
        sizes = [0, min(1, g.n), *rng.integers(0, g.n + 1, size=3).tolist(), g.n]
        for order in [rng.permutation(g.n)[:size] for size in sizes]:
            got = greedy_mis(g, order)
            sub, ids = induced_subgraph(g, order)
            ranks = np.searchsorted(ids, order)
            assert np.array_equal(got, ids[greedy_mis(sub, ranks)])
            assert np.array_equal(got, ids[two_mask_greedy(sub, ranks.tolist())])
            assert np.array_equal(got, greedy_mis(wide, order))


# -- vertex cover -------------------------------------------------------------


def test_cover_on_path():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert vertex_cover_2approx(g).tolist() == [0, 1, 2, 3]


def test_cover_of_an_edgeless_graph_is_an_empty_id_array():
    for n in (0, 1, 9):
        cover = vertex_cover_2approx(build_graph(n, []))
        assert cover.dtype == np.int64 and cover.shape == (0,)


def test_cover_covers_all_edges_and_is_2approx():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 14))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.7)))
        cover = vertex_cover_2approx(g)
        for u in range(g.n):
            for v in g.neighbors(u).tolist():
                assert u in cover or v in cover
        optimum = g.n - brute_force_mis_size(g)
        assert len(cover) <= 2 * optimum
        # complement of a cover is independent
        assert is_independent_set(g, np.setdiff1d(np.arange(g.n), cover))


def reference_cover(g):
    """The cover as first written: a greedy matching scanned over every vertex id."""
    n = g.n
    offsets = g.offsets.tolist()
    indices = g.indices.tolist()
    matched = [False] * n
    for u in range(n):
        if matched[u]:
            continue
        for j in range(offsets[u], offsets[u + 1]):
            v = indices[j]
            if not matched[v]:
                matched[u] = True
                matched[v] = True
                break
    return np.flatnonzero(matched)


def sparse_graphs(rng):
    """Seeded graphs where most vertices are isolated, plus the edge cases."""
    yield build_graph(0, [])
    yield build_graph(1, [])
    yield build_graph(9, [])
    yield build_graph(9, [(7, 8)])
    for n in (5, 40, 300):
        for m in (1, n // 10 + 1, n // 2, 2 * n):
            hubs = rng.choice(n, size=max(2, n // 8), replace=False)
            yield build_graph(n, rng.choice(hubs, size=(m, 2)))
            yield build_graph(n, rng.integers(0, n, size=(m, 2)))


def test_cover_matches_all_vertex_reference():
    rng = np.random.default_rng(31)
    for g in sparse_graphs(rng):
        assert np.array_equal(vertex_cover_2approx(g), reference_cover(g))
        sub, ids = induced_subgraph(g, rng.permutation(g.n)[: g.n // 2])
        assert np.array_equal(vertex_cover_2approx(sub), reference_cover(sub))


def test_cover_against_networkx_matching():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(32)
    for g in sparse_graphs(rng):
        cover = vertex_cover_2approx(g)
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from((u, v) for u in range(g.n) for v in g.neighbors(u).tolist() if u < v)
        assert all(u in cover or v in cover for u, v in ref.edges)
        # any cover needs one endpoint per edge of a maximum matching, so
        # twice the matching size bounds a 2-approximation from above
        assert len(cover) <= 2 * len(nx.max_weight_matching(ref, maxcardinality=True))


# -- networkx differential checks ----------------------------------------------


def random_edge_lists(rng, count, max_n):
    """Seeded ``(n, edges)`` pairs whose edge lists hold self-loops, repeats and both orientations."""
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        yield n, rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist()


def edge_set(g):
    return {(u, v) for u in range(g.n) for v in g.neighbors(u).tolist() if u < v}


def networkx_graph(nx, n, edges):
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(edges)
    ref.remove_edges_from(list(nx.selfloop_edges(ref)))
    return ref


def test_build_graph_against_networkx():
    nx = pytest.importorskip("networkx")
    for n, edges in random_edge_lists(np.random.default_rng(41), 60, 40):
        g, ref = build_graph(n, edges), networkx_graph(nx, n, edges)
        assert edge_set(g) == {(min(e), max(e)) for e in ref.edges}
        assert g.m == ref.number_of_edges()
        assert g.degrees().tolist() == [ref.degree(v) for v in range(n)]


def test_induced_subgraph_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(42)
    for n, edges in random_edge_lists(rng, 60, 40):
        g, ref = build_graph(n, edges), networkx_graph(nx, n, edges)
        keep = rng.permutation(n)[: rng.integers(0, n + 1)].tolist()
        sub, ids = induced_subgraph(g, keep)
        assert ids.tolist() == sorted(keep)
        expected = nx.relabel_nodes(ref.subgraph(keep), {v: rank for rank, v in enumerate(sorted(keep))})
        assert sub.n == expected.number_of_nodes()
        assert edge_set(sub) == {(min(e), max(e)) for e in expected.edges}


def test_greedy_mis_is_independent_and_dominating_per_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(43)
    for n, edges in random_edge_lists(rng, 60, 40):
        g, ref = build_graph(n, edges), networkx_graph(nx, n, edges)
        for order in (None, rng.permutation(n)):
            chosen = greedy_mis(g, order)
            assert ref.subgraph(chosen).number_of_edges() == 0
            assert nx.is_dominating_set(ref, chosen)


# the search reaches a branch with no candidate left that beats its incumbent here
EMPTY_BRANCH_IMPROVES = (8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 4), (1, 6), (2, 3),
                             (2, 4), (3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (5, 7), (6, 7)])


def test_exact_mis_is_the_largest_clique_of_the_complement():
    nx = pytest.importorskip("networkx")
    for n, edges in [EMPTY_BRANCH_IMPROVES, *random_edge_lists(np.random.default_rng(44), 60, 14)]:
        g, ref = build_graph(n, edges), networkx_graph(nx, n, edges)
        assert len(exact_mis(g)) == max(len(c) for c in nx.find_cliques(nx.complement(ref)))


# -- membership predicates ----------------------------------------------------


def test_is_independent_set():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert is_independent_set(g, {0, 2})
    assert is_independent_set(g, set())
    assert not is_independent_set(g, {0, 1})


def test_is_maximal_independent_set():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert is_maximal_independent_set(g, {0, 2})
    assert not is_maximal_independent_set(g, {0})  # 2 or 3 could be added
    assert not is_maximal_independent_set(g, {0, 1})  # not even independent


def one_shot_is_independent(g, mask):
    """Independence over every CSR slot at once, through the repeated member mask."""
    return not np.any(np.repeat(mask, g.degrees()) & mask[g.indices])


def one_shot_is_maximal(g, mask):
    """Maximality through the owner of every slot whose neighbor is a member."""
    owner = np.repeat(np.arange(g.n), g.degrees())
    touched = np.zeros(g.n, dtype=bool)
    touched[owner[mask[g.indices]]] = True
    return one_shot_is_independent(g, mask) and bool(np.all(mask | touched))


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_membership_predicates_match_one_shot_references(monkeypatch, chunk):
    # small blocks split the members' rows many ways, and rows outgrow a block
    monkeypatch.setattr("noisymis.graph._UNIQUE_CHUNK", chunk)
    rng = np.random.default_rng(23)
    graphs = [build_graph(0, []), build_graph(5, [])]
    # isolated rows 0 and 10 open blocks of three slots and 12 ends the last; the star's centre outgrows 64
    graphs.append(build_graph(13, [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (4, 7), (4, 8), (9, 11)]))
    graphs.append(build_graph(200, [(0, v) for v in range(2, 200, 2)]))
    graphs += [random_graph(rng, n, p) for n, p in ((9, 0.3), (40, 0.05), (60, 0.2))]
    seen = set()
    for g in graphs:
        greedy = np.zeros(g.n, dtype=bool)
        greedy[greedy_mis(g)] = True
        masks = [np.zeros(g.n, dtype=bool), np.ones(g.n, dtype=bool), greedy]
        masks += [rng.random(g.n) < q for q in (0.1, 0.5)]
        for v in range(min(g.n, 4)):
            flipped = greedy.copy()
            flipped[v] = not flipped[v]  # drops a member (not maximal) or adds a neighbor (not independent)
            masks.append(flipped)
        for mask in masks:
            ids = np.flatnonzero(mask)
            independent, maximal = is_independent_set(g, ids), is_maximal_independent_set(g, ids)
            assert independent == one_shot_is_independent(g, mask)
            assert maximal == one_shot_is_maximal(g, mask)
            seen.add((independent, maximal))
        assert g._owner is None
    assert seen == {(True, True), (True, False), (False, False)}


# -- exact search --------------------------------------------------------------


def test_exact_on_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    g = build_graph(10, outer + inner + spokes)
    best = exact_mis(g)
    assert is_independent_set(g, best)
    assert len(best) == brute_force_mis_size(g) == 4


def test_exact_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 15))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.8)))
        best = exact_mis(g)
        assert is_independent_set(g, best)
        assert len(best) == brute_force_mis_size(g)


def test_exact_complement_is_minimum_cover():
    # max independent set and min vertex cover partition V
    rng = np.random.default_rng(9)
    for _ in range(15):
        n = int(rng.integers(2, 13))
        g = random_graph(rng, n, 0.4)
        cover = np.setdiff1d(np.arange(n), exact_mis(g))
        for u in range(g.n):
            for v in g.neighbors(u).tolist():
                assert u in cover or v in cover


def test_exact_edgeless_and_complete():
    assert exact_mis(build_graph(6, [])).tolist() == list(range(6))
    complete = build_graph(5, list(itertools.combinations(range(5), 2)))
    assert len(exact_mis(complete)) == 1


def test_exact_refuses_large_graphs():
    g = build_graph(EXACT_MIS_MAX_N + 1, [])
    with pytest.raises(ValueError, match=str(EXACT_MIS_MAX_N)):
        exact_mis(g)


# -- file round trip -----------------------------------------------------------


def test_edgelist_round_trip(tmp_path):
    # a graph with no planted set round-trips as an instance whose planted set is empty
    rng = np.random.default_rng(31)
    g = random_graph(rng, 20, 0.2)
    path = tmp_path / "g.txt"
    write_instance(PlantedInstance(g, [], {}), path)
    assert read_instance(path).graph == g


def test_edgelist_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1\n# planted:\n")
    with pytest.raises(ValueError, match=":1"):
        read_instance(path)
    path.write_text("3 2\n0 1\n0 x\n# planted:\n")
    with pytest.raises(ValueError, match=":3"):
        read_instance(path)
    path.write_text("# only a comment\n# planted:\n")
    with pytest.raises(ValueError, match="missing header"):
        read_instance(path)


def test_edgelist_endpoint_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    # an endpoint beyond int64, one beyond n, and a vertex count beyond the 2**31 limit
    for text, line in (
        ("3 1\n99999999999999999999 1\n# planted:\n", 2),
        ("3 2\n0 1\n# c\n1 3\n# planted:\n", 4),
        ("2147483649 0\n# planted:\n", 1),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: "):
            read_instance(path)


def test_edgelist_ignores_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# header comment\n3 1\n# mid comment\n0 2\n# planted:\n")
    g = read_instance(path).graph
    assert g.m == 1 and g.neighbors(0).tolist() == [2]
