"""Planted-instance generators and instance file I/O."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import noisymis.instances as instances
from noisymis.graph import _member_mask, build_graph, exact_mis, is_independent_set, is_maximal_independent_set
from noisymis.instances import (
    PlantedInstance,
    gen_planted_bounded_degree,
    gen_planted_gnp,
    read_instance,
    write_instance,
)


# -- gnp generator -----------------------------------------------------------------


def test_gnp_zero_probability_is_edgeless():
    inst = gen_planted_gnp(10, 0.5, 0.0, seed=0)
    assert inst.graph.m == 0
    assert len(inst.planted_ids) == 5
    assert is_independent_set(inst.graph, inst.planted_ids)


def test_gnp_full_probability_unique_maximum():
    # p=1 wires every allowed pair, so the planted side is the unique
    # maximum independent set
    inst = gen_planted_gnp(10, 0.5, 1.0, seed=3)
    assert inst.graph.m == 35  # C(10,2) - C(5,2)
    assert np.array_equal(exact_mis(inst.graph), inst.planted_ids)


def test_gnp_edge_count_moment():
    inst = gen_planted_gnp(2000, 0.3, 0.01, seed=7)
    assert len(inst.planted_ids) == 600
    pairs = 1400 * 1399 // 2 + 1400 * 600
    mu = 0.01 * pairs
    sigma = math.sqrt(pairs * 0.01 * 0.99)
    assert abs(inst.graph.m - mu) <= 4 * sigma


def test_gnp_planted_always_independent():
    for seed in range(8):
        inst = gen_planted_gnp(150, 0.35, 0.15, seed=seed)
        assert is_independent_set(inst.graph, inst.planted_ids)
        assert len(inst.planted_ids) == math.floor(0.35 * 150)


def test_gnp_ensure_maximal():
    inst = gen_planted_gnp(300, 0.3, 0.002, seed=5, ensure_maximal=True)
    assert is_maximal_independent_set(inst.graph, inst.planted_ids)
    mask = _member_mask(inst.graph, inst.planted_ids)
    for v in range(300):
        if not mask[v]:
            assert any(mask[u] for u in inst.graph.neighbors(v))
    # without the flag the same sparse draw leaves uncovered vertices
    sparse = gen_planted_gnp(300, 0.3, 0.002, seed=5)
    assert not is_maximal_independent_set(sparse.graph, sparse.planted_ids)
    # the check reads the planted rows alone and caches no edge-sized owner array
    assert inst.graph._owner is None


def test_gnp_determinism_and_seed_sensitivity():
    a = gen_planted_gnp(100, 0.4, 0.1, seed=9)
    b = gen_planted_gnp(100, 0.4, 0.1, seed=9)
    c = gen_planted_gnp(100, 0.4, 0.1, seed=10)
    assert a.graph == b.graph and np.array_equal(a.planted_ids, b.planted_ids) and a.params == b.params
    assert a.graph != c.graph or not np.array_equal(a.planted_ids, c.planted_ids)


def test_gnp_validation():
    with pytest.raises(ValueError, match="alpha"):
        gen_planted_gnp(10, 0.0, 0.5, seed=0)
    with pytest.raises(ValueError, match="alpha"):
        gen_planted_gnp(10, 1.0, 0.5, seed=0)
    with pytest.raises(ValueError, match="p must"):
        gen_planted_gnp(10, 0.5, 1.2, seed=0)
    with pytest.raises(ValueError, match="floor"):
        gen_planted_gnp(10, 0.05, 0.5, seed=0)


# -- bounded-degree generator --------------------------------------------------------


def test_bounded_degree_zero_is_edgeless():
    inst = gen_planted_bounded_degree(12, 0.5, 0, seed=0)
    assert inst.graph.m == 0


def test_bounded_degree_floor():
    inst = gen_planted_bounded_degree(10, 0.5, 2, seed=4)
    mask = _member_mask(inst.graph, inst.planted_ids)
    degs = inst.graph.degrees()
    for v in range(10):
        if not mask[v]:
            assert degs[v] >= 2
    assert is_independent_set(inst.graph, inst.planted_ids)


def test_bounded_degree_max_degree_band():
    for seed in (0, 1, 2):
        inst = gen_planted_bounded_degree(2000, 0.5, 30, seed=seed)
        assert 30 <= inst.graph.max_degree <= 90
        assert is_independent_set(inst.graph, inst.planted_ids)


def test_bounded_degree_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        gen_planted_bounded_degree(10, 0.5, -1, seed=0)
    with pytest.raises(ValueError, match="at most n - 1"):
        gen_planted_bounded_degree(10, 0.5, 10, seed=0)
    with pytest.raises(ValueError, match="infeasible"):
        gen_planted_bounded_degree(20, 0.1, 8, seed=0)


def test_bounded_degree_determinism():
    a = gen_planted_bounded_degree(200, 0.4, 6, seed=2)
    b = gen_planted_bounded_degree(200, 0.4, 6, seed=2)
    assert a.graph == b.graph and np.array_equal(a.planted_ids, b.planted_ids)


def _bounded_degree_reference(n, alpha, d, seed):
    """The generator as an ``(m, 2)`` edge array passed to ``build_graph``."""
    rng = np.random.default_rng(seed)
    planted, outside = instances._split_planted(n, alpha, rng)
    edges = np.empty((outside.size, d, 2), dtype=np.int64)
    edges[:, :, 0] = outside[:, None]
    nbrs = edges[:, :, 1]
    nbrs[...] = instances._distinct_picks(rng, outside.size, d, n - 1)
    nbrs += nbrs >= outside[:, None]
    return build_graph(n, edges.reshape(-1, 2)), planted


@pytest.mark.parametrize(
    "n, alpha, d, seeds",
    [(2, 0.5, 0, range(3)), (2, 0.5, 1, range(3)), (3, 0.4, 2, range(5)), (12, 0.5, 0, range(3)),
     (12, 0.5, 6, range(5)), (9, 0.9, 8, range(5)), (500, 0.3, 7, range(4)), (1025, 0.5, 12, range(2)),
     (40, 0.5, 39, range(3))],
)
def test_bounded_degree_codes_match_the_edge_array_reference(n, alpha, d, seeds):
    for seed in seeds:
        inst = gen_planted_bounded_degree(n, alpha, d, seed)
        graph, planted = _bounded_degree_reference(n, alpha, d, seed)
        assert np.array_equal(inst.planted_ids, planted)
        for got, want in ((inst.graph.offsets, graph.offsets), (inst.graph.indices, graph.indices)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        # the grown pick matrix became indices, so no larger buffer sits behind it
        held = inst.graph.indices.base
        assert held is None or (held.flags.owndata and held.nbytes <= inst.graph.indices.nbytes + 4)


def test_bounded_degree_peak_memory_stays_near_the_csr():
    # the pick matrix grows in place into the code buffer, no (m, 2) edge array
    # ever exists, and the codes are deduplicated in place, not into a second buffer
    gen_planted_bounded_degree(100, 0.3, 5, seed=0)  # first-call allocations are not the generator's
    for seed in (0, 1):
        tracemalloc.start()
        try:
            g = gen_planted_bounded_degree(20000, 0.3, 20, seed).graph
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2 * indices.nbytes is the int64 code buffer that the build narrows into indices
        assert peak <= 1.4 * (g.offsets.nbytes + 2 * g.indices.nbytes)


def test_independence_check_peak_memory_stays_far_below_the_indices():
    # only the planted rows are read, block by block; gen-filter's instance
    # is large enough that the blocks are a small share of its CSR
    inst = gen_planted_bounded_degree(100000, 0.3, 20, seed=0)
    tracemalloc.start()
    try:
        assert is_independent_set(inst.graph, inst.planted_ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * (2 * inst.graph.indices.nbytes)  # a tenth of an int64 copy of the indices


def test_write_instance_peak_memory_stays_below_the_indices(tmp_path):
    # rows are written block by block from the CSR: no owner array is built,
    # kept on the graph or formatted whole; gen-filter's instance again
    inst = gen_planted_bounded_degree(100000, 0.3, 20, seed=0)
    tracemalloc.start()
    try:
        write_instance(inst, tmp_path / "inst.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * inst.graph.indices.nbytes
    assert inst.graph._owner is None


def test_bounded_degree_vertex_count_limit():
    with pytest.raises(ValueError, match=r"n <= 2\*\*31"):
        gen_planted_bounded_degree(2**31 + 1, 0.5, 1, seed=0)


# -- sampler distributions -------------------------------------------------------------
# Seeds are fixed, so each test is deterministic; a p-value under 1e-3 means the
# sampler's law differs from the specified one, not bad luck on a rerun.


def binomial_gof_pvalue(counts, trials, p):
    """Chi-square goodness of fit of ``counts`` to Binomial(trials, p), in ~decile bins."""
    dist = stats.binom(trials, p)
    right = np.unique(dist.ppf(np.linspace(0.1, 0.9, 9)))  # inclusive right bin edges
    probs = np.diff(np.concatenate([[0.0], dist.cdf(right), [1.0]]))
    observed = np.bincount(np.searchsorted(right, counts), minlength=probs.size)
    return stats.chisquare(observed, probs * len(counts)).pvalue


def test_gnp_pair_frequencies_match_p():
    n, alpha, p, seeds = 8, 0.5, 0.3, 3000
    allowed = np.zeros((n, n))
    hits = np.zeros((n, n))
    for seed in range(seeds):
        inst = gen_planted_gnp(n, alpha, p, seed=seed)
        adj = np.zeros((n, n), dtype=bool)
        for u in range(n):
            adj[u, inst.graph.neighbors(u)] = True
        inside = _member_mask(inst.graph, inst.planted_ids)
        assert not adj[np.ix_(inside, inside)].any()
        allowed += ~np.outer(inside, inside)
        hits += adj
    iu = np.triu_indices(n, 1)
    a, h = allowed[iu], hits[iu]
    statistic = float(np.sum((h - a * p) ** 2 / (a * p * (1 - p))))
    assert stats.chi2.sf(statistic, df=a.size) > 1e-3


def test_gnp_universe_edge_counts_are_binomial():
    n, alpha, p = 30, 0.3, 0.2
    k = math.floor(alpha * n)
    inner_pairs, cross_pairs = (n - k) * (n - k - 1) // 2, (n - k) * k
    inner, cross = [], []
    for seed in range(1500):
        inst = gen_planted_gnp(n, alpha, p, seed=seed)
        g = inst.graph
        inside = _member_mask(inst.graph, inst.planted_ids)
        owner = np.repeat(np.arange(n), g.degrees())
        ends_inside = inside[owner].astype(int) + inside[g.indices]
        assert not np.any(ends_inside == 2)
        inner.append(int(np.sum(ends_inside == 0)) // 2)
        cross.append(int(np.sum(ends_inside == 1)) // 2)
    assert binomial_gof_pvalue(np.array(inner), inner_pairs, p) > 1e-3
    assert binomial_gof_pvalue(np.array(cross), cross_pairs, p) > 1e-3


class OneStepGenerator:
    """A stand-in generator whose geometric gaps are all 1, so every rank is kept."""

    def __init__(self):
        self.batches = 0

    def geometric(self, p, size):
        self.batches += 1
        return np.ones(size, dtype=np.int64)


def test_skip_sample_joins_its_batches_with_no_gap_and_no_repeat():
    # the first batch is sized for the expected count, so a kept-every-rank
    # stream runs past it and the batches that end short of total must join
    rng = OneStepGenerator()
    assert np.array_equal(instances._skip_sample(1000, 0.5, rng), np.arange(1000))
    assert rng.batches > 1


def test_unrank_pairs_inverts_colex_rank():
    # exhaustive at small ranks, then both sides of triangular numbers up to
    # ~2**61, where the float square root alone lands one off
    m = np.arange(2**31 - 2000, 2**31, dtype=np.int64)
    for ranks in (np.arange(100_000), np.concatenate([m * (m - 1) // 2, m * (m - 1) // 2 - 1])):
        i, j = instances._unrank_pairs(ranks)
        assert np.all((0 <= i) & (i < j)) and np.array_equal(j * (j - 1) // 2 + i, ranks)


def test_distinct_picks_are_uniform_subsets():
    rng = np.random.default_rng(21)
    high, d, rows = 6, 3, 20000
    picks = instances._distinct_picks(rng, rows, d, high)
    assert picks.shape == (rows, d)
    assert np.all(np.diff(picks, axis=1) > 0) and picks.min() >= 0 and picks.max() < high
    subsets = {c: i for i, c in enumerate(itertools.combinations(range(high), d))}
    observed = np.bincount([subsets[tuple(row)] for row in picks.tolist()], minlength=len(subsets))
    assert stats.chisquare(observed).pvalue > 1e-3
    # a row that must use every value still finishes
    full = instances._distinct_picks(rng, 50, high, high)
    assert np.array_equal(full, np.tile(np.arange(high), (50, 1)))


def test_bounded_degree_picks_are_distinct_and_uniform(monkeypatch):
    n, alpha, d = 7, 0.5, 2
    captured = []

    def capture(count, codes):
        # _csr_from_codes sorts its buffer in place, so keep the generator's order
        captured.append(codes.copy())
        return csr_from_codes(count, codes)

    csr_from_codes = instances._csr_from_codes
    monkeypatch.setattr(instances, "_csr_from_codes", capture)
    shift = instances._code_shift(n)
    counts = np.zeros((n, n), dtype=np.int64)
    for seed in range(2000):
        inst = gen_planted_bounded_degree(n, alpha, d, seed=seed)
        codes = captured.pop()
        forward = codes[: codes.size // 2]  # the picks, in generation order
        src, dst = forward >> shift, forward & ((1 << shift) - 1)
        outside = np.flatnonzero(~_member_mask(inst.graph, inst.planted_ids))
        assert np.array_equal(np.unique(src), outside)
        for u in outside:
            picks = dst[src == u]
            assert len(picks) == d and len(set(picks.tolist())) == d and u not in picks
        np.add.at(counts, (src, dst), 1)
    for u in range(n):
        others = np.delete(counts[u], u)
        assert others.sum() > 0
        assert stats.chisquare(others).pvalue > 1e-3


# -- file I/O ---------------------------------------------------------------------------


def test_round_trip(tmp_path):
    inst = gen_planted_gnp(40, 0.4, 0.2, seed=6, ensure_maximal=True)
    path = tmp_path / "inst.txt"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.graph == inst.graph
    assert np.array_equal(back.planted_ids, inst.planted_ids)
    assert back.params == inst.params


def test_instance_file_is_the_edge_list_plus_two_comment_lines(tmp_path):
    inst = gen_planted_gnp(40, 0.4, 0.2, seed=6)
    write_instance(inst, tmp_path / "inst.txt")
    pairs = [(u, v) for u in range(inst.graph.n) for v in inst.graph.neighbors(u).tolist() if u < v]
    edges = f"{inst.graph.n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
    tail = "# planted: " + " ".join(map(str, inst.planted_ids.tolist())) + "\n"
    tail += '# params: {"alpha": 0.4, "ensure_maximal": false, "generator": "gnp", "n": 40, "p": 0.2, "seed": 6}\n'
    assert (tmp_path / "inst.txt").read_bytes() == (edges + tail).encode()


def test_params_json_preserved(tmp_path):
    g = build_graph(3, [(0, 1)])
    inst = PlantedInstance(graph=g, planted=frozenset({2}), params={"note": "x", "k": 3})
    path = tmp_path / "i.txt"
    write_instance(inst, path)
    assert read_instance(path).params == {"note": "x", "k": 3}


def test_hand_authored_fixture(tmp_path):
    path = tmp_path / "five.txt"
    for text in (
        "5 3\n0 3\n1 3\n# a comment\n2 4\n# planted: 0 1 2\n# params: {}\n",
        # blank lines after the header, between edges and before the trailer are skipped
        "5 3\n\n0 3\n\n1 3\n# a comment\n  \n2 4\n\n\n# planted: 0 1 2\n# params: {}\n",
    ):
        path.write_text(text)
        inst = read_instance(path)
        assert inst.graph.n == 5 and inst.graph.m == 3
        assert sorted(inst.graph.neighbors(3).tolist()) == [0, 1]
        assert sorted(inst.graph.neighbors(4).tolist()) == [2]
        assert inst.planted_ids.tolist() == [0, 1, 2]
        assert inst.params == {}


def test_read_missing_planted_section(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 1\n")
    with pytest.raises(ValueError, match="planted"):
        read_instance(path)


def test_read_planted_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 1\n# planted: 5\n")
    with pytest.raises(ValueError, match="range"):
        read_instance(path)


def test_read_planted_not_independent(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 1\n# planted: 0 1\n")
    with pytest.raises(ValueError, match="independent"):
        read_instance(path)


def test_read_malformed_lines_name_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 x\n# planted: 0\n")
    with pytest.raises(ValueError, match=":2"):
        read_instance(path)
    # with two bad lines the first one in the file is named
    path.write_text("3 2\n# planted: 0 x\n0 1\n1 q\n")
    with pytest.raises(ValueError, match="bad.txt:2:"):
        read_instance(path)
    path.write_text("3 2\n0 1\n1 q\n# planted: 0\n# params: [1]\n")
    with pytest.raises(ValueError, match="bad.txt:3:"):
        read_instance(path)
    path.write_text("zz\n")
    with pytest.raises(ValueError, match=":1"):
        read_instance(path)
    path.write_text("")
    with pytest.raises(ValueError, match="header"):
        read_instance(path)


def test_read_instance_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.txt"
    for text, line in (
        ("3 1\n99999999999999999999 1\n# planted: 0\n", 2),  # an endpoint beyond int64
        ("3 1\n0 1\n# planted: 99999999999999999999\n", 3),
        ("3 1\n0 1\n# planted: 0 1\n# params: {}\n", 3),  # not independent
        ("3 1\n0 1\n# planted: 0\n# params: [1, 2]\n", 4),  # JSON, but not an object
        # an alpha that is not a number in (0, 1), which no generator writes
        ('3 1\n0 1\n# planted: 0\n# params: {"alpha": "x"}\n', 4),
        ('3 1\n0 1\n# params: {"alpha": 7.0}\n# planted: 0\n', 3),
        ('3 1\n0 1\n# planted: 0\n# params: {"alpha": true}\n', 4),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: "):
            read_instance(path)


def test_instance_is_frozen():
    inst = gen_planted_gnp(10, 0.5, 0.1, seed=0)
    with pytest.raises(AttributeError):
        inst.graph = None
    with pytest.raises(AttributeError):
        inst.planted_ids = inst.planted_ids[:0]


def test_planted_ids_are_ascending_and_read_only():
    for inst in (gen_planted_gnp(40, 0.4, 0.2, seed=6), gen_planted_bounded_degree(40, 0.3, 3, seed=6)):
        ids = inst.planted_ids
        assert ids.dtype == np.int64 and not ids.flags.writeable and np.all(np.diff(ids) > 0)


def test_instance_takes_planted_as_any_iterable_of_ids():
    g = build_graph(5, [(0, 1)])
    mine = np.array([4, 0, 2, 2])
    for planted in (frozenset({4, 0, 2}), [4, 2, 0, 2], mine, (v for v in (0, 4, 2))):
        inst = PlantedInstance(graph=g, planted=planted, params={"k": 1})
        assert inst.planted_ids.tolist() == [0, 2, 4]
        assert inst == PlantedInstance(g, [0, 2, 4], {"k": 1})
        assert inst != PlantedInstance(g, [0, 2], {"k": 1}) and inst != PlantedInstance(g, [0, 2, 4], {})
    assert mine.tolist() == [4, 0, 2, 2]  # the caller's array is copied, not sorted in place
    assert PlantedInstance(g, (), {}).planted_ids.size == 0
    with pytest.raises(ValueError, match="range"):
        PlantedInstance(g, [5], {})


def test_instance_rejects_a_dependent_planted_set():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError, match="^set is not independent in the graph$"):
        PlantedInstance(graph=g, planted=frozenset({0, 1}), params={})
    assert PlantedInstance(graph=g, planted=frozenset({0, 2}), params={}).planted_ids.tolist() == [0, 2]
