"""One-shot filter algorithm: yes-counts, thresholds, survival, greedy output."""

import collections
import math
import re
import tracemalloc

import numpy as np
import pytest

from noisymis.graph import _UNIQUE_CHUNK, build_graph, greedy_mis, induced_subgraph, is_independent_set
from noisymis.harness import ExperimentConfig, run_experiment
from noisymis.instances import PlantedInstance, gen_planted_bounded_degree, gen_planted_gnp
from noisymis.oracle import BANDIT_BERNOULLI, ModeError, Oracle, OracleConfig, make_oracle
from noisymis.persistent import (
    _QUERY_BLOCK,
    PersistentParams,
    _greedy_order,
    neighbor_yes_counts,
    run_persistent,
    survival_threshold,
)


def perfect_oracle(inst, seed=0):
    return make_oracle(inst, OracleConfig(epsilon=0.5, mode="persistent-random", seed=seed, apply_cap=False))


# -- neighbor yes counts ------------------------------------------------------


def test_yes_counts_star():
    # center 0 outside, three planted leaves
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    inst = PlantedInstance(graph=g, planted=frozenset({1, 2, 3}), params={})
    counts = neighbor_yes_counts(g, perfect_oracle(inst))
    assert counts.tolist() == [3, 0, 0, 0]


def test_yes_counts_edgeless():
    g = build_graph(5, [])
    inst = PlantedInstance(graph=g, planted=frozenset({0}), params={})
    assert neighbor_yes_counts(g, perfect_oracle(inst)).tolist() == [0] * 5


def test_yes_counts_path_hand_trace():
    # answers fixed at (true, false, true) via a noiseless oracle
    g = build_graph(3, [(0, 1), (1, 2)])
    inst = PlantedInstance(graph=g, planted=frozenset({0, 2}), params={})
    counts = neighbor_yes_counts(g, perfect_oracle(inst))
    assert counts.tolist() == [0, 2, 0]


def test_yes_counts_queries_each_vertex_once():
    inst = gen_planted_gnp(80, 0.4, 0.1, seed=2)
    o = make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random", seed=3))
    neighbor_yes_counts(inst.graph, o)
    assert np.all(o.ledger.per_vertex == 1)
    assert o.total_queries == 80


def test_yes_counts_rejects_nonpersistent():
    inst = gen_planted_gnp(10, 0.5, 0.2, seed=1)
    o = make_oracle(inst, OracleConfig(epsilon=0.25, mode=BANDIT_BERNOULLI, seed=0))
    with pytest.raises(ModeError):
        neighbor_yes_counts(inst.graph, o)


def reference_yes_counts(g, answers):
    """Yes-counts as the owner-array bincount over float weights produced them."""
    owner = np.repeat(np.arange(g.n), g.degrees())
    counts = np.bincount(owner, weights=answers[g.indices].astype(np.float64), minlength=g.n)
    return counts.astype(np.int64)


def one_shot_yes_counts(g, answers):
    """Yes-counts as one bincount over every claimed row's slots at once."""
    return np.bincount(g.indices[np.repeat(answers, g.degrees())], minlength=g.n)


def test_yes_counts_match_owner_bincount_reference(monkeypatch):
    for chunk, block in ((1, 1), (3, 2), (64, 7), (_UNIQUE_CHUNK, _QUERY_BLOCK)):
        # small blocks split the queried ids and the claimed rows many ways, and rows outgrow a block
        monkeypatch.setattr("noisymis.graph._UNIQUE_CHUNK", chunk)
        monkeypatch.setattr("noisymis.persistent._QUERY_BLOCK", block)
        check_yes_counts_against_references(np.random.default_rng(21))


def check_yes_counts_against_references(rng):
    graphs = [build_graph(0, []), build_graph(1, []), build_graph(6, [])]
    # isolated rows 0 and 10 open blocks of three slots and 12 ends the last; the star's centre outgrows 64
    graphs.append(build_graph(13, [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (4, 7), (4, 8), (9, 11)]))
    graphs.append(build_graph(200, [(0, v) for v in range(2, 200, 2)]))
    for n in (2, 9, 50, 400):
        for m in (1, n, 5 * n):
            # endpoints come from a random half of the ids: the rest are isolated, empty rows
            active = rng.choice(n, size=max(1, n // 2), replace=False)
            graphs.append(build_graph(n, active[rng.integers(0, active.size, size=(m, 2))]))
    for i, g in enumerate(graphs):
        mode = ("persistent-random", "persistent-kwise")[i % 2]
        noisy = (rng.random(g.n) < 0.4, OracleConfig(epsilon=0.2, mode=mode, seed=i))
        # a noiseless oracle answers membership itself: nothing claimed, then everything
        exact = OracleConfig(epsilon=0.5, mode=mode, seed=i, apply_cap=False)
        for members, cfg in (noisy, (np.zeros(g.n, dtype=bool), exact), (np.ones(g.n, dtype=bool), exact)):
            answers = Oracle(members, cfg).query_bool_many(np.arange(g.n, dtype=np.int64))
            oracle = Oracle(members, cfg)
            got = neighbor_yes_counts(g, oracle)
            for expected in (reference_yes_counts(g, answers), one_shot_yes_counts(g, answers)):
                assert got.dtype == expected.dtype and np.array_equal(got, expected)
            # however the ids are blocked, each vertex is queried exactly once
            assert oracle.total_queries == g.n and np.array_equal(oracle.ledger.per_vertex, np.ones(g.n, np.int64))
    assert any(g.m == 0 and g.n > 0 for g in graphs) and any(g.n == 0 for g in graphs)


def test_yes_counts_peak_memory_stays_below_the_indices():
    # the claimed rows are read in blocks, so no temporary grows with the edge count
    inst = gen_planted_bounded_degree(20000, 0.3, 20, seed=0)
    g = inst.graph
    for seed in (0, 1):
        oracle = make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random", seed=seed))
        tracemalloc.start()
        try:
            neighbor_yes_counts(g, oracle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.4 * g.indices.nbytes


# -- survival threshold --------------------------------------------------------


def test_threshold_formula_values():
    n = math.exp(16.0)  # ln n = 16
    assert survival_threshold(100, 0.25, n) == pytest.approx(85.0)
    assert survival_threshold(1, 0.25, n) == pytest.approx(6.25)
    assert survival_threshold(1000, 0.5, n) == 0.0


def test_threshold_vectorized():
    out = survival_threshold(np.asarray([100, 1]), 0.25, math.exp(16.0))
    assert out == pytest.approx([85.0, 6.25])


def reference_threshold(deg, epsilon, n, coeff=6.0):
    """The threshold as one expression over a float64 copy of ``deg``."""
    log_n = math.log(n)
    deg = np.asarray(deg, dtype=np.float64)
    out = (0.5 - epsilon) * deg + coeff * math.sqrt(log_n) * (0.5 - epsilon) * np.sqrt(deg)
    if out.ndim == 0:
        return float(out)
    return out


def test_threshold_matches_the_one_expression_reference_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(8)
    degs = np.concatenate([np.arange(300), rng.integers(0, 10**7, size=3000), [2**31, 2**40 + 1]])
    for eps in (0.001, 0.1, 0.2, 0.25, 1 / 3, 0.4999, 0.5):
        for n in (1, 2, 3, 1000, 100_000, 10**6, 2**31):
            for coeff in (0.0, 1.0, 6.0, 7.3):
                want = reference_threshold(degs, eps, n, coeff)
                # the root term is added block by block; a block of 7 splits every array many ways
                for block in (7, _QUERY_BLOCK):
                    monkeypatch.setattr("noisymis.persistent._QUERY_BLOCK", block)
                    # the two degrees past 2**31 are left out of the int32 copy
                    for deg in (degs, degs[:-2].astype(np.int32), degs.astype(np.float64), degs[:50].tolist()):
                        got = survival_threshold(deg, eps, n, coeff)
                        assert type(got) is np.ndarray and got.dtype == np.float64
                        assert got.tobytes() == want[: len(deg)].tobytes()
                for d in (0, 1, 7, 414, 10**6 + 3):
                    want_one = reference_threshold(d, eps, n, coeff)
                    for deg in (d, np.int64(d), float(d), np.asarray(d)):
                        got = survival_threshold(deg, eps, n, coeff)
                        assert type(got) is float and got.hex() == want_one.hex()


def test_threshold_peak_memory_stays_near_its_output():
    # the linear term is written into the result, and the root term is added in blocks
    degs = gen_planted_bounded_degree(100000, 0.3, 20, seed=0).graph.degrees()
    survival_threshold(degs[:10], 0.25, degs.size)
    tracemalloc.start()
    try:
        out = survival_threshold(degs, 0.25, degs.size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 8 * _QUERY_BLOCK


# -- run_persistent -------------------------------------------------------------


def test_run_peak_memory_stays_far_below_the_indices():
    # ids are queried and hashed in blocks, the thresholds are built in one
    # array, and with nothing filtered out no kept-id array is made
    inst = gen_planted_bounded_degree(20000, 0.3, 20, seed=0)
    g = inst.graph
    for seed in (0, 1):
        oracle = make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random", seed=seed))
        tracemalloc.start()
        try:
            report = run_persistent(g, oracle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.low_degree_mask.all()  # the unfiltered path
        assert peak <= 0.25 * (2 * g.indices.nbytes)  # a quarter of an int64 copy of the indices


def test_an_all_kept_id_run_scans_every_id_without_an_id_array():
    # with every vertex kept the id order is greedy_mis's own default, so
    # _greedy_order hands it None and allocates nothing
    inst = gen_planted_bounded_degree(20000, 0.3, 20, seed=0)
    g = inst.graph
    report = run_persistent(g, make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random", seed=0)))
    assert report.low_degree_mask.all()
    assert np.array_equal(report.independent_ids, greedy_mis(g, np.arange(g.n)))
    kept = np.ones(g.n, dtype=bool)
    tracemalloc.start()
    try:
        order = _greedy_order(g, kept, "id", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order is None and peak < 1024
    # one dropped vertex brings the ascending id array back
    kept[5] = False
    assert np.array_equal(_greedy_order(g, kept, "id", 0), np.flatnonzero(kept))


def test_edgeless_returns_everything():
    g = build_graph(7, [])
    inst = PlantedInstance(graph=g, planted=frozenset({0}), params={})
    report = run_persistent(g, perfect_oracle(inst))
    assert report.independent_ids.tolist() == list(range(7))


def test_empty_graph():
    g = build_graph(0, [])
    inst = PlantedInstance(graph=g, planted=frozenset(), params={})
    for mode in ("persistent-random", "persistent-kwise"):
        o = make_oracle(inst, OracleConfig(epsilon=0.25, mode=mode, seed=0))
        report = run_persistent(g, o)
        assert report.independent_ids.size == 0
        for name, dtype in (("yes_counts", np.int64), ("degrees", np.int64), ("thresholds", np.float64),
                            ("low_degree_mask", bool), ("surviving_mask", bool)):
            arr = getattr(report, name)
            assert arr.shape == (0,) and arr.dtype == dtype, name
        assert report.stats["num_low_degree"] == report.stats["num_surviving"] == report.stats["num_selected"] == 0
        assert o.total_queries == 0


def induced_greedy(g, kept, policy, seed):
    # the filter's greedy set as it was once taken: induce G[kept], order the
    # subgraph by the policy, scan it, then map its ids back to g's
    sub, ids = induced_subgraph(g, np.flatnonzero(kept))
    order = {"id": None, "degree": np.argsort(sub.degrees(), kind="stable"),
             "random": np.random.default_rng(seed).permutation(sub.n)}[policy]
    return ids[greedy_mis(sub, order)]


def forbid_induce(monkeypatch):
    """Make every binding of ``induced_subgraph`` that a run could reach raise."""

    def induce(g, vertices):
        raise AssertionError("the run induced a subgraph")

    monkeypatch.setattr("noisymis.persistent.induced_subgraph", induce)
    monkeypatch.setattr("noisymis.graph.induced_subgraph", induce)


def test_every_run_takes_its_greedy_set_on_the_graph_itself(monkeypatch):
    # on the bounded-degree instance every degree is at most the default cutoff
    # 36 ln n, so every vertex is kept; on the gnp one a cutoff of 0.5 ln n
    # exempts nobody, and a threshold coefficient of 1 keeps 224 of its 512
    # vertices.  No run induces a subgraph, and each returns the greedy set of
    # the subgraph induced on its kept vertices
    unfiltered = gen_planted_bounded_degree(3000, 0.3, 8, seed=5)
    assert unfiltered.graph.max_degree <= 36 * math.log(unfiltered.graph.n)
    filtered = gen_planted_gnp(512, 0.2, 0.08, seed=20)
    cfg = OracleConfig(epsilon=0.25, mode="persistent-random", seed=6)
    for inst, cutoff_coeff, threshold_coeff in ((unfiltered, 36.0, 6.0), (filtered, 0.5, 1.0)):
        g = inst.graph
        reports = {}
        with monkeypatch.context() as patched:
            forbid_induce(patched)
            for policy in ("id", "degree", "random"):
                params = PersistentParams(low_degree_cutoff_coeff=cutoff_coeff, threshold_coeff=threshold_coeff,
                                          greedy_order=policy, order_seed=2)
                reports[policy] = run_persistent(g, make_oracle(inst, cfg), params)
        yes = neighbor_yes_counts(g, make_oracle(inst, cfg))
        for policy, report in reports.items():
            kept = report.low_degree_mask | report.surviving_mask
            assert kept.all() == (inst is unfiltered)
            assert np.array_equal(report.yes_counts, yes)
            expected = induced_greedy(g, kept, policy, 2)
            assert report.independent_ids.dtype == expected.dtype
            assert np.array_equal(report.independent_ids, expected)
            assert report.stats["num_selected"] == len(expected)


def test_two_level_instance_recovers_planted_exactly():
    # complete bipartite between 25 planted and 25 outsiders; the cutoff is
    # forced to zero so every vertex faces the filter, and the noiseless
    # threshold s_v = 0 keeps exactly the planted side
    n = 50
    planted = list(range(25))
    outside = list(range(25, 50))
    edges = [(u, v) for u in planted for v in outside]
    g = build_graph(n, edges)
    inst = PlantedInstance(graph=g, planted=frozenset(planted), params={})
    params = PersistentParams(low_degree_cutoff_coeff=0.0)
    report = run_persistent(g, perfect_oracle(inst), params)
    assert not report.low_degree_mask.any()
    assert np.flatnonzero(report.surviving_mask).tolist() == planted
    assert report.independent_ids.tolist() == planted


def test_report_set_algebra_invariants():
    rng = np.random.default_rng(13)
    for trial in range(10):
        inst = gen_planted_gnp(120, 0.4, 0.08, seed=trial)
        o = make_oracle(inst, OracleConfig(epsilon=0.2, mode="persistent-random", seed=trial + 100))
        report = run_persistent(inst.graph, o, PersistentParams(low_degree_cutoff_coeff=float(rng.uniform(0, 2))))
        assert not (report.low_degree_mask & report.surviving_mask).any()
        assert (report.low_degree_mask | report.surviving_mask)[report.independent_ids].all()
        assert is_independent_set(inst.graph, report.independent_ids)
        assert o.total_queries == inst.graph.n


def test_output_independent_under_adversarial_answers(monkeypatch):
    # all-yes and all-no oracles; the filter may keep anything, greedy still
    # guarantees independence
    from noisymis.oracle import Oracle

    inst = gen_planted_gnp(60, 0.5, 0.15, seed=4)
    g = inst.graph
    for members in (np.zeros(60, dtype=bool), np.ones(60, dtype=bool)):
        o = Oracle(members, OracleConfig(epsilon=0.5, mode="persistent-random", seed=0, apply_cap=False))
        report = run_persistent(g, o, PersistentParams(low_degree_cutoff_coeff=0.5))
        assert is_independent_set(g, report.independent_ids)
    # all-yes answers and no exemption on a graph without isolated vertices:
    # every vertex is filtered out, and the empty survivor set is not induced
    forbid_induce(monkeypatch)
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    o = Oracle(np.ones(4, dtype=bool), OracleConfig(epsilon=0.5, mode="persistent-random", seed=0, apply_cap=False))
    report = run_persistent(path, o, PersistentParams(low_degree_cutoff_coeff=0.0))
    assert report.independent_ids.size == 0
    assert not report.low_degree_mask.any() and not report.surviving_mask.any()


def test_filter_is_monotone_in_epsilon():
    # lowering the assumed advantage only raises thresholds: S grows
    inst = gen_planted_gnp(300, 0.3, 0.2, seed=9)
    o = make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random", seed=11))
    surviving = []
    for eps in (0.25, 0.15, 0.05):
        report = run_persistent(
            inst.graph, o, PersistentParams(epsilon_effective=eps, low_degree_cutoff_coeff=0.0)
        )
        surviving.append(report.surviving_mask)
    assert not (surviving[0] & ~surviving[1]).any() and not (surviving[1] & ~surviving[2]).any()


def test_greedy_order_policies():
    inst = gen_planted_gnp(50, 0.4, 0.2, seed=6)
    o = make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random", seed=7))
    for policy in ("id", "degree", "random"):
        report = run_persistent(inst.graph, o, PersistentParams(greedy_order=policy, order_seed=3))
        assert is_independent_set(inst.graph, report.independent_ids)
    message = "params 'greedy_order' must be one of ('id', 'degree', 'random'), got 'nope'"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_persistent(inst.graph, o, PersistentParams(greedy_order="nope"))


def test_params_check_themselves_when_built():
    # outside (0, 1/2] the thresholds mean nothing: above 1/2, NaN or inf would leave no survivor
    bad = [("epsilon_effective", 0.7), ("epsilon_effective", math.nan), ("epsilon_effective", math.inf),
           ("epsilon_effective", -0.3), ("threshold_coeff", "x"), ("low_degree_cutoff_coeff", None),
           ("greedy_order", 1), ("order_seed", 1.5), ("order_seed", -1), ("threshold_coeff", math.nan),
           ("low_degree_cutoff_coeff", -math.inf)]
    for field, value in bad:
        with pytest.raises(ValueError, match=field):
            PersistentParams(**{field: value})
    assert PersistentParams(epsilon_effective=0.5, threshold_coeff=6).threshold_coeff == 6


def test_stats_fields():
    inst = gen_planted_gnp(40, 0.5, 0.1, seed=8)
    report = run_persistent(inst.graph, perfect_oracle(inst))
    assert report.stats["num_selected"] == len(report.independent_ids)
    assert report.stats["num_low_degree"] == np.count_nonzero(report.low_degree_mask)
    assert report.stats["num_surviving"] == np.count_nonzero(report.surviving_mask)
    assert report.stats["wall_time_ms"] >= 0.0


def test_report_sets_are_its_masks():
    inst = gen_planted_gnp(60, 0.4, 0.3, seed=9)
    params = PersistentParams(low_degree_cutoff_coeff=2.0, threshold_coeff=0.3)
    report = run_persistent(inst.graph, perfect_oracle(inst), params)
    low, surviving = report.low_degree_mask, report.surviving_mask
    for mask in (low, surviving):
        assert mask.dtype == bool and mask.shape == (inst.graph.n,)
    assert low.any() and surviving.any() and not (low | surviving).all()


def test_unfiltered_run_returns_the_greedy_set_itself(monkeypatch):
    import noisymis.persistent as persistent

    inst = gen_planted_bounded_degree(300, 0.3, 4, seed=1)
    sets = []

    def greedy(g, order=None):
        sets.append(greedy_mis(g, order))
        return sets[-1]

    monkeypatch.setattr(persistent, "greedy_mis", greedy)
    report = run_persistent(inst.graph, perfect_oracle(inst))
    assert report.independent_ids is sets.pop()


def test_size_mismatch_rejected():
    inst = gen_planted_gnp(30, 0.5, 0.1, seed=1)
    o = perfect_oracle(inst)
    with pytest.raises(ValueError, match="size"):
        run_persistent(build_graph(29, []), o)


def test_threshold_branch_decides_on_a_dense_gnp_and_the_a1_bound_holds():
    # at p = 0.3 every degree is far above the 36 ln n cutoff, so no vertex is exempt and the
    # threshold alone decides who survives; A1's instances exempt every vertex, so only greedy runs there
    config = ExperimentConfig(
        algorithm="persistent",
        instance={"generator": "gnp", "n": 2000, "alpha": 0.3, "p": 0.3},
        oracle={"epsilon": 0.25, "mode": "persistent-random"},
        trials=4,
        seed_base=303,
    )
    records, reports = run_experiment(config, collect_details=True)
    for record in records:
        stats = reports[record.seed].stats
        assert stats["num_low_degree"] == 0 and stats["num_surviving"] < record.n
        assert record.ratio >= (0.25 / 12.0) / math.sqrt(record.max_degree * math.log(record.n))


def test_each_filter_stage_reads_each_row_at_most_once(monkeypatch):
    # the filter's O(m) time as counted work: the CSR slots each stage reads, summed from the _block_slots
    # bindings every stage reads rows through.  No stage reads a row twice, so none reads more than 2m slots;
    # the claimed rows, the dropped rows and the output's rows are read whole, and greedy skips blocked rows
    import noisymis.graph as graph
    import noisymis.persistent as persistent

    reads, stage = collections.Counter(), [None]

    def counted(block_slots):
        def slots(g, rows):
            out = block_slots(g, rows)
            reads[stage[0]] += out.size
            return out

        return slots

    def staged(name, run):
        def in_stage(*args):
            stage[0] = name
            try:
                return run(*args)
            finally:
                stage[0] = None

        return in_stage

    monkeypatch.setattr(persistent, "_block_slots", counted(persistent._block_slots))
    monkeypatch.setattr(graph, "_block_slots", counted(graph._block_slots))
    for binding, name in (("neighbor_yes_counts", "claimed"), ("_greedy_order", "dropped"), ("greedy_mis", "greedy")):
        monkeypatch.setattr(persistent, binding, staged(name, getattr(persistent, binding)))
    check = staged("check", is_independent_set)
    cfg = OracleConfig(epsilon=0.25, mode="persistent-random", seed=1)
    params = PersistentParams(greedy_order="degree")

    # the size ladder, where every vertex is exempt from the threshold, and a dense gnp where it decides
    ladder = [gen_planted_bounded_degree(n, 0.3, d, seed=n + d) for n in (2000, 8000, 32000) for d in (10, 40)]
    dense = gen_planted_gnp(800, 0.3, 0.5, seed=7)
    for inst in (*ladder, dense):
        g, degrees = inst.graph, inst.graph.degrees()
        reads.clear()
        report = run_persistent(g, make_oracle(inst, cfg), params)
        assert check(g, report.independent_ids)
        kept = report.low_degree_mask | report.surviving_mask
        assert set(reads) <= {"claimed", "dropped", "greedy", "check"}  # no slot is read outside a stage
        assert reads["claimed"] == report.yes_counts.sum()  # v counts one vote per claimed row listing v
        assert reads["dropped"] == degrees[~kept].sum()
        assert reads["greedy"] <= degrees[kept].sum()
        assert reads["check"] == degrees[report.independent_ids].sum()
        assert max(reads.values()) <= 2 * g.m
    # the dense run, the last: its counts are exact for its seeds, so a change to which rows a stage reads shows here
    assert report.stats["num_low_degree"] == 0 and report.stats["num_surviving"] == 499  # of 800
    assert dense.graph.m == 145509
    assert reads == {"claimed": 119289, "dropped": 120867, "greedy": 67325, "check": 67325}
