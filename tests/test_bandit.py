"""Elimination algorithm: schedule, budget, voting rule, cover phase, full runs."""

import ast
import math
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

import noisymis.bandit as bandit
import noisymis.graph as graph
from noisymis.bandit import (
    BanditParams,
    BanditResult,
    _at_least_half,
    cover_complement,
    elimination_round,
    log_inv_delta,
    query_budget,
    query_schedule,
    run_bandit,
)
from noisymis.graph import Graph, build_graph, induced_subgraph, is_independent_set, vertex_cover_2approx
from noisymis.instances import PlantedInstance, gen_planted_bounded_degree, gen_planted_gnp
from noisymis.oracle import (
    BANDIT_BERNOULLI,
    BANDIT_GAUSSIAN,
    ModeError,
    Oracle,
    OracleConfig,
    make_oracle,
)


# derandomized and without an example database: the same examples every run; hypothesis's
# cache of local source files goes to the temp directory, not the working tree
SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir(), "noisymis-hypothesis"))


def bern(eps, seed=0):
    return OracleConfig(epsilon=eps, mode=BANDIT_BERNOULLI, seed=seed)


# -- schedule and budget --------------------------------------------------------


def test_log_inv_delta():
    assert log_inv_delta(0.1) == pytest.approx(math.log(10.0))
    assert log_inv_delta(1.0) == 0.0
    assert log_inv_delta(1.0 - 1e-10) == 0.0
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            log_inv_delta(bad)


def test_schedule_frozen_values():
    p = BanditParams(epsilon=0.5, delta=math.exp(-1.0))
    assert query_schedule(1, p) == 32
    assert query_schedule(2, p) == 48
    assert query_schedule(1, BanditParams(epsilon=0.5, delta=1.0 - 1e-9)) == 16
    # the working point used throughout: eps=0.25, delta=0.1
    p = BanditParams(epsilon=0.25, delta=0.1)
    assert [query_schedule(r, p) for r in (1, 2, 3)] == [212, 276, 340]


def test_schedule_strictly_increasing_with_constant_gap():
    p = BanditParams(epsilon=0.5, delta=math.exp(-1.0))
    qs = [query_schedule(r, p) for r in range(1, 12)]
    gaps = {b - a for a, b in zip(qs, qs[1:])}
    assert gaps == {16}


def test_schedule_validation():
    with pytest.raises(ValueError, match="round"):
        query_schedule(0, BanditParams(epsilon=0.5))
    with pytest.raises(ValueError, match="epsilon"):
        query_schedule(1, BanditParams())
    with pytest.raises(ValueError, match="epsilon"):
        query_schedule(1, BanditParams(epsilon=0.7))


def test_params_check_themselves_when_built():
    bad = [("epsilon", 0.7), ("epsilon", 0.0), ("epsilon", math.nan), ("epsilon", "0.25"), ("delta", 0.0),
           ("delta", 1.5), ("delta", math.nan), ("delta", None), ("schedule_coeff", 0), ("schedule_coeff", -1.0),
           ("schedule_coeff", math.nan), ("budget_coeff", True), ("budget_coeff", math.inf), ("budget_coeff", 0.0),
           ("budget_coeff", -5.0)]
    for field, value in bad:
        with pytest.raises(ValueError, match=field):
            BanditParams(**{field: value})
    params = BanditParams(epsilon=0.25)
    with pytest.raises(AttributeError):
        params.epsilon = 0.7


def test_schedule_and_budget_reject_counts_no_run_can_use():
    # each value is finite and passes its range check, yet the arithmetic would
    # leave floats: a zero eps^2, an infinite count, a count beyond int64
    for params in (
        BanditParams(epsilon=1e-200),
        BanditParams(epsilon=0.25, delta=5e-324),
        BanditParams(epsilon=0.25, schedule_coeff=1e308),
        BanditParams(epsilon=1e-8, delta=1e-300),
    ):
        with pytest.raises(ValueError):
            query_schedule(1, params)
    for params in (BanditParams(epsilon=1e-200), BanditParams(epsilon=0.25, budget_coeff=1e300)):
        with pytest.raises(ValueError):
            query_budget(10, params)
    assert query_schedule(1, BanditParams(epsilon=1e-8)) > 10**17


def test_budget_values():
    assert query_budget(5000, BanditParams(epsilon=0.25, delta=0.1)) == pytest.approx(5526204.223185711)
    assert query_budget(100, BanditParams(epsilon=0.5, delta=0.1)) == pytest.approx(27631.02111592855)
    # delta close to 1 falls back to the ln 2 floor
    assert query_budget(100, BanditParams(epsilon=0.5, delta=0.9)) == pytest.approx(8317.766166719344)
    assert query_budget(100, BanditParams(epsilon=0.5, delta=1.0)) == pytest.approx(12000 * math.log(2.0))
    # a budget that overflows the floats is refused by name
    with pytest.raises(ValueError, match="^query budget inf is not finite$"):
        query_budget(10**10, BanditParams(epsilon=0.5, budget_coeff=1e300))


# -- elimination rounds ----------------------------------------------------------


def test_elimination_perfect_oracle_keeps_members_exactly():
    inst = gen_planted_gnp(200, 0.4, 0.05, seed=3)
    o = make_oracle(inst, bern(0.5, seed=5))
    for q in (1, 2, 7):
        assert np.array_equal(elimination_round(frozenset(range(200)), o, q), inst.planted_ids)


def test_elimination_keeps_members_at_the_largest_query_counts():
    # a yes-count above 2**62 would overflow as 2 * count
    inst = gen_planted_gnp(200, 0.4, 0.05, seed=3)
    for q in (2**62 + 1, 2**63 - 1):
        o = make_oracle(inst, bern(0.5, seed=5))
        assert np.array_equal(elimination_round(frozenset(range(200)), o, q), inst.planted_ids)


def test_elimination_matches_majority_rule_and_ties_survive():
    # two oracles with the same seed emit the same counts; replay the rule
    members = np.arange(60) % 2 == 0
    cfg = bern(0.05, seed=42)
    counts = Oracle(members, cfg).query_yes_counts(np.arange(60), 4)
    kept = elimination_round(frozenset(range(60)), Oracle(members, cfg), 4)
    assert np.array_equal(kept, np.flatnonzero(2 * counts >= 4))
    assert np.any(2 * counts == 4), "no tie occurred; seed no longer exercises the boundary"
    assert set(np.flatnonzero(2 * counts == 4).tolist()) <= set(kept.tolist())


def test_elimination_gaussian_rule():
    members = np.arange(50) < 25
    cfg = OracleConfig(epsilon=0.2, mode=BANDIT_GAUSSIAN, seed=9)
    sums = Oracle(members, cfg).query_reward_sums(np.arange(50), 6)
    kept = elimination_round(frozenset(range(50)), Oracle(members, cfg), 6)
    assert np.array_equal(kept, np.flatnonzero(sums >= 3.0))


def test_elimination_q1_keeps_iff_single_yes():
    members = np.arange(40) % 3 == 0
    cfg = bern(0.5, seed=0)
    kept = elimination_round(frozenset(range(40)), Oracle(members, cfg), 1)
    assert np.array_equal(kept, np.flatnonzero(members))


def test_elimination_ledger_and_subset():
    inst = gen_planted_gnp(90, 0.5, 0.1, seed=1)
    o = make_oracle(inst, bern(0.25, seed=2))
    survivors = frozenset(range(0, 90, 2))
    kept = elimination_round(survivors, o, 11)
    assert set(kept.tolist()) <= survivors
    assert o.total_queries == len(survivors) * 11
    assert all(o.queries_for(v) == 11 for v in survivors)


def test_elimination_rejects_persistent_oracle():
    inst = gen_planted_gnp(20, 0.5, 0.2, seed=0)
    o = make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random", seed=0))
    with pytest.raises(ModeError):
        elimination_round(frozenset(range(20)), o, 4)


# counts, and counts within 2 of half of q, where a tie or its neighbours decide
COUNTS = st.integers(0, 2**61 - 1).flatmap(
    lambda q: st.tuples(st.lists(st.integers(0, 2**61 - 1) | st.integers(-2, 2).map(lambda d: max(q // 2 + d, 0))), st.just(q))
)


@SETTINGS
@given(COUNTS)
def test_the_majority_rule_is_twice_the_yes_count_against_q(case):
    votes, q = case
    counts = np.array(votes, dtype=np.int64)
    assert np.array_equal(_at_least_half(counts, q), 2 * counts >= q)
    assert np.array_equal(_at_least_half(counts, np.int64(q)), 2 * counts >= q)


def test_the_integer_majority_rule_is_exact_at_the_extremes():
    # integer votes meet a scalar, ceil(q / 2); Python's integers double a vote exactly
    for q in (0, 1, 2, 212, 2**62, 2**63 - 1):
        for v in (0, q // 2, -(-q // 2), q):
            assert bool(_at_least_half(np.array([v], dtype=np.int64), q)[0]) == (2 * v >= q), (q, v)


@SETTINGS
@given(st.integers(1, 2**63 - 1), st.lists(st.floats(width=64)))
def test_the_majority_rule_is_half_of_q_on_reward_sums(q, drawn):
    half = q / 2.0
    sums = np.array([*drawn, half, np.nextafter(half, np.inf), np.nextafter(half, -np.inf), np.inf, -np.inf, np.nan])
    assert np.array_equal(_at_least_half(sums, q), sums >= half)


def test_the_majority_rule_has_one_owner():
    # only bandit.py defines the rule; only the oracle and elimination name the repeated
    # queries; and no comparison anywhere doubles an operand, as a copied vote would
    def doubled(node) -> bool:
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and 2 in (
            getattr(node.left, "value", None), getattr(node.right, "value", None)
        )

    owners, callers, doubling = set(), set(), []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "noisymis").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.FunctionDef) and node.name == "_at_least_half":
                owners.add(path.name)
            if isinstance(node, ast.Attribute) and node.attr in ("query_yes_counts", "query_reward_sums"):
                callers.add(path.name)
            if isinstance(node, ast.Compare) and any(doubled(side) for side in (node.left, *node.comparators)):
                doubling.append(f"{path.name}:{node.lineno}")
    assert owners == {"bandit.py"}
    assert callers <= {"oracle.py", "bandit.py"}
    assert not doubling, f"a comparison doubles an operand at {', '.join(doubling)}"


def test_nonmember_survival_rate_below_chernoff():
    # one vectorized round = 1e5 resamples of a non-member at q=32, eps=1/4;
    # true rate is about 0.002, the bound is e^-4
    n = 100_000
    o = Oracle(np.zeros(n, dtype=bool), bern(0.25, seed=77))
    kept = elimination_round(frozenset(range(n)), o, 32)
    rate = len(kept) / n
    assert rate <= math.exp(-2 * 0.25**2 * 32) + 0.002
    assert rate > 0.0005  # sanity: the event is rare but not impossible


# -- cover complement ------------------------------------------------------------


def test_cover_complement_edgeless_keeps_all():
    g = build_graph(8, [])
    assert cover_complement(g, frozenset(range(8))).tolist() == list(range(8))


def test_cover_complement_is_independent_subset():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(5, 40))
        pairs = rng.integers(0, n, size=(n * 2, 2))
        edges = [(int(a), int(b)) for a, b in pairs if a != b]
        g = build_graph(n, edges)
        verts = frozenset(int(v) for v in rng.choice(n, size=max(1, n // 2), replace=False))
        out = cover_complement(g, verts)
        assert set(out.tolist()) <= verts
        assert is_independent_set(g, out)


def test_cover_complement_lopsided_survivors():
    # hidden members outnumber outsiders 60:1, so each matched edge burns at
    # most one member per outsider: at least 295 of 300 members remain
    inst = gen_planted_gnp(400, 0.75, 0.02, seed=11)
    planted = set(inst.planted_ids.tolist())
    assert len(planted) == 300
    outsiders = sorted(set(range(400)) - planted)[:5]
    survivors = planted | set(outsiders)
    out = cover_complement(inst.graph, survivors)
    assert is_independent_set(inst.graph, out)
    assert len(set(out.tolist()) & planted) >= 295
    assert len(out) >= math.ceil((49 / 50) * len(planted))


def counted(monkeypatch, name):
    """Wrap ``bandit.<name>`` so that each call through the module binding is recorded; returns the list of calls' arguments."""
    calls = []
    wrapped = getattr(bandit, name)

    def call(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(bandit, name, call)
    return calls


def reference_cover_complement(g, vertices):
    """``cover_complement`` without the memo, through the library's own induce and cover."""
    sub, ids = induced_subgraph(g, vertices)
    return np.delete(ids, vertex_cover_2approx(sub))


def test_cover_complement_remembers_the_last_ids_per_graph(monkeypatch):
    inst = gen_planted_gnp(200, 0.5, 0.05, seed=3)
    g = inst.graph
    covers = counted(monkeypatch, "vertex_cover_2approx")
    verts = list(range(0, 200, 3))
    first = cover_complement(g, verts)
    want = first.copy()
    assert g.m and 0 < want.size < len(verts)  # the cover drops someone
    # a frozenset and an unsorted array of the same ids hit the list's entry
    again = cover_complement(g, frozenset(verts))
    third = cover_complement(g, np.array(verts[::-1]))
    assert len(covers) == 1
    assert np.array_equal(again, want) and np.array_equal(third, want)
    assert first is not again and not np.shares_memory(again, third)
    # writing to a result reaches neither the memo nor the next result
    for out in (first, again, third):
        out[:] = -1
    assert np.array_equal(cover_complement(g, verts), want) and len(covers) == 1
    held, kept = g._cover
    assert not held.flags.writeable and not kept.flags.writeable
    # a graph with the same content is another graph: it misses
    twin = Graph(g.n, g.offsets.copy(), g.indices.copy())
    assert twin == g
    assert np.array_equal(cover_complement(twin, verts), want) and len(covers) == 2
    # one id fewer misses, and so does one id swapped in a caller's array
    # after the call: the memo holds its own copy of the ids
    ids = np.array(verts[1:])
    assert np.array_equal(cover_complement(g, ids), reference_cover_complement(g, ids))
    ids[0] = 1
    assert np.array_equal(cover_complement(g, ids), reference_cover_complement(g, ids))
    assert len(covers) == 4
    # the swapped set, given as a list, hits
    assert np.array_equal(cover_complement(g, [1, *verts[2:]]), reference_cover_complement(g, ids))
    assert len(covers) == 4


@SETTINGS
@given(
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
    st.lists(st.frozensets(st.integers(0, 11)), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from([frozenset, sorted, np.array])), max_size=10),
)
def test_cover_complement_memo_matches_a_fresh_graph(edges, pool, picks):
    # a sequence of sets, drawn with repeats from a small pool and passed in
    # several forms, on one graph: each result equals the cover taken on a fresh copy
    g = build_graph(12, edges)
    for i, form in picks:
        vertices = pool[i % len(pool)]
        out = cover_complement(g, form(list(vertices)) if form is np.array else form(vertices))
        want = reference_cover_complement(build_graph(12, edges), list(vertices))
        assert out.dtype == np.int64 and np.array_equal(out, want)
        out[:] = -1  # the next hit must not see this


# -- run_bandit ------------------------------------------------------------------


def test_run_perfect_oracle_returns_planted_in_round_one():
    inst = gen_planted_gnp(300, 0.4, 0.03, seed=21, ensure_maximal=True)
    o = make_oracle(inst, bern(0.5, seed=4))
    result = run_bandit(inst.graph, o, BanditParams(delta=0.1))
    assert np.array_equal(result.independent_ids, inst.planted_ids)
    assert result.best_round == 1
    assert result.trace[0].survivors_after == len(inst.planted_ids)
    assert result.trace[0].cover_size == 0


def test_run_edgeless_candidates_equal_survivors():
    g = build_graph(30, [])
    inst = PlantedInstance(graph=g, planted=frozenset(range(30)), params={})
    o = make_oracle(inst, bern(0.25, seed=8))
    result = run_bandit(g, o, BanditParams(delta=0.1))
    for rec in result.trace:
        assert rec.cover_size == 0
        assert rec.candidate_size == rec.survivors_after
    assert result.independent_ids.tolist() == list(range(30))


def test_run_trace_invariants_and_budget_overshoot():
    inst = gen_planted_gnp(400, 0.3, 0.04, seed=31)
    o = make_oracle(inst, bern(0.25, seed=32))
    params = BanditParams(delta=0.1)
    result = run_bandit(inst.graph, o, params)
    budget = query_budget(400, BanditParams(epsilon=0.25, delta=0.1))
    trace = result.trace
    assert result.total_queries == trace[-1].cumulative_queries
    assert result.total_queries == o.total_queries
    # cumulative totals nondecreasing, survivors monotone
    for a, b in zip(trace, trace[1:]):
        assert b.cumulative_queries >= a.cumulative_queries
        assert b.survivors_before == a.survivors_after
    for rec in trace:
        assert rec.survivors_after <= rec.survivors_before
        assert rec.q == query_schedule(rec.r, BanditParams(epsilon=0.25, delta=0.1))
    assert result.terminated_reason == "budget"
    # every round but the last fit inside the budget; the last may overshoot
    # by at most its own cost
    assert trace[-2].cumulative_queries <= budget
    assert result.total_queries <= budget + trace[-1].survivors_before * trace[-1].q
    assert len(result.independent_ids) == max(r.candidate_size for r in trace)
    assert result.best_round == min(r.r for r in trace if r.candidate_size == len(result.independent_ids))
    assert is_independent_set(inst.graph, result.independent_ids)


def test_a_round_that_spends_exactly_the_budget_is_not_the_last():
    # only overspending ends a run: a first round whose n * q1 queries meet the budget
    # exactly is followed by a second, which overspends it
    inst = gen_planted_gnp(200, 0.3, 0.05, seed=4)
    q1 = query_schedule(1, BanditParams(epsilon=0.25, delta=0.1))
    params = BanditParams(delta=0.1, budget_coeff=q1 * 0.25**2 / math.log(10.0))
    assert query_budget(200, replace(params, epsilon=0.25)) == 200 * q1  # exactly, in floats
    result = run_bandit(inst.graph, make_oracle(inst, bern(0.25, seed=5)), params)
    assert [rec.cumulative_queries for rec in result.trace][:1] == [200 * q1]
    assert result.trace[0].survivors_after > 0
    assert (len(result.trace), result.terminated_reason) == (2, "budget")


def test_run_builds_no_cover_of_no_survivors(monkeypatch):
    # a noiseless oracle drops every vertex of an instance with nothing planted
    # in round one: that round's candidate is empty and needs no cover
    g = build_graph(20, [(0, 1), (2, 3)])
    inst = PlantedInstance(graph=g, planted=frozenset(), params={})
    covers = counted(monkeypatch, "cover_complement")
    result = run_bandit(g, make_oracle(inst, bern(0.5, seed=9)), BanditParams(delta=0.1))
    assert not covers
    assert result.terminated_reason == "survivors-empty" and result.independent_ids.size == 0
    [rec] = result.trace
    assert (rec.survivors_after, rec.cover_size, rec.candidate_size) == (0, 0, 0)


def test_run_restricted_to_initial_subset():
    inst = gen_planted_gnp(200, 0.4, 0.05, seed=41)
    o = make_oracle(inst, bern(0.25, seed=42))
    initial = range(100)
    result = run_bandit(inst.graph, o, BanditParams(delta=0.1), initial=initial)
    assert set(result.independent_ids.tolist()) <= set(initial)
    assert np.all(o.ledger.per_vertex[100:] == 0)
    # the budget scales with the subset, not the whole graph
    if result.terminated_reason == "budget":
        assert result.trace[-2].cumulative_queries <= query_budget(
            100, BanditParams(epsilon=0.25, delta=0.1)
        )


def test_run_empty_cases():
    g = build_graph(0, [])
    o = Oracle(np.zeros(0, dtype=bool), bern(0.25))
    result = run_bandit(g, o)
    assert result.independent_ids.size == 0
    assert result.terminated_reason == "survivors-empty"
    assert result.total_queries == 0 and result.trace == []

    inst = gen_planted_gnp(10, 0.5, 0.2, seed=0)
    o = make_oracle(inst, bern(0.25))
    result = run_bandit(inst.graph, o, initial=[])
    assert result.independent_ids.size == 0 and result.total_queries == 0


def test_run_takes_epsilon_from_the_oracle_without_touching_params():
    inst = gen_planted_gnp(300, 0.4, 0.03, seed=51)
    params = BanditParams(delta=0.1)
    explicit = replace(params, epsilon=0.25)
    runs = []
    for p in (params, explicit, params):
        o = make_oracle(inst, bern(0.25, seed=52))
        runs.append((run_bandit(inst.graph, o, p), o))
    assert params == BanditParams(delta=0.1) and params.epsilon is None
    (got, o_got), (want, o_want), (again, _) = runs
    assert got.trace == want.trace == again.trace
    assert got.total_queries == want.total_queries and got.terminated_reason == want.terminated_reason == "budget"
    assert np.array_equal(got.independent_ids, want.independent_ids)
    assert np.array_equal(o_got.ledger.per_vertex, o_want.ledger.per_vertex)
    # each round's q follows the schedule, and the run stops at the budget of the explicit params
    assert [rec.q for rec in got.trace] == [query_schedule(rec.r, explicit) for rec in got.trace]
    assert got.trace[-2].cumulative_queries <= query_budget(300, explicit) < got.total_queries


def test_run_result_never_aliases_initial():
    # an edgeless graph and a perfect oracle: no cover, every member survives
    g = build_graph(30, [])
    inst = PlantedInstance(graph=g, planted=frozenset(range(0, 30, 2)), params={})
    for ids in (np.zeros(0, dtype=np.int64), np.arange(0, 30, 2), np.arange(30)):
        for writeable in (True, False):
            initial = ids.copy()
            initial.setflags(write=writeable)
            result = run_bandit(g, make_oracle(inst, bern(0.5, seed=9)), BanditParams(delta=0.1), initial=initial)
            assert result.independent_ids.tolist() == [v for v in ids.tolist() if v % 2 == 0]
            assert not np.shares_memory(result.independent_ids, initial)


def test_run_validation_errors():
    inst = gen_planted_gnp(20, 0.5, 0.2, seed=0)
    o = make_oracle(inst, bern(0.25))
    with pytest.raises(ValueError, match="size"):
        run_bandit(build_graph(19, []), o)
    pers = make_oracle(inst, OracleConfig(epsilon=0.25, mode="persistent-random", seed=0))
    with pytest.raises(ModeError):
        run_bandit(inst.graph, pers)


def test_run_gaussian_mode_end_to_end():
    inst = gen_planted_gnp(150, 0.4, 0.05, seed=51, ensure_maximal=True)
    o = make_oracle(inst, OracleConfig(epsilon=0.25, mode=BANDIT_GAUSSIAN, seed=52))
    result = run_bandit(inst.graph, o, BanditParams(delta=0.1))
    assert is_independent_set(inst.graph, result.independent_ids)
    assert len(result.independent_ids) >= 0.9 * len(inst.planted_ids)


def test_run_output_independent_on_noisy_instances():
    for seed in range(5):
        inst = gen_planted_gnp(120, 0.3, 0.08, seed=seed)
        o = make_oracle(inst, bern(0.25, seed=seed + 100))
        result = run_bandit(inst.graph, o, BanditParams(delta=0.2))
        assert is_independent_set(inst.graph, result.independent_ids)


def test_two_rounds_clean_almost_all_noise():
    # after ceil(1 + ln(1/alpha)) = 2 rounds at alpha = 1/2, at most
    # alpha*n/100 outsiders survive and at least (49/50)*alpha*n members do,
    # in >= 90% of trials
    inst = gen_planted_gnp(2000, 0.5, 0.005, seed=61)
    planted = set(inst.planted_ids.tolist())
    assert len(planted) == 1000
    params = BanditParams(epsilon=0.25, delta=0.1)
    q1, q2 = query_schedule(1, params), query_schedule(2, params)
    assert (q1, q2) == (212, 276)
    good = 0
    trials = 50
    for seed in range(trials):
        o = make_oracle(inst, bern(0.25, seed=1000 + seed))
        v1 = elimination_round(frozenset(range(2000)), o, q1)
        v2 = set(elimination_round(v1, o, q2).tolist())
        if len(v2 - planted) <= 10 and len(v2 & planted) >= 980:
            good += 1
    assert good >= 45


def test_runtime_tracks_edge_count():
    # doubling m at fixed n should land in a loose near-linear band
    def min_wall(d):
        best = math.inf
        for seed in range(3):
            inst = gen_planted_bounded_degree(3000, 0.3, d, seed=seed)
            o = make_oracle(inst, bern(0.25, seed=seed + 1))
            t0 = time.perf_counter()
            run_bandit(inst.graph, o, BanditParams(delta=0.1))
            best = min(best, time.perf_counter() - t0)
        return best

    ratio = min_wall(120) / min_wall(60)
    assert 1.2 <= ratio <= 4.0


def test_edge_reads_track_edge_count(monkeypatch):
    # the timing test above as counted work, which host speed cannot move: the same
    # six runs, each summing the CSR slots of the graphs its covers read
    cover = bandit.vertex_cover_2approx

    def slots_read(d):
        total = 0
        for seed in range(3):
            inst = gen_planted_bounded_degree(3000, 0.3, d, seed=seed)
            o = make_oracle(inst, bern(0.25, seed=seed + 1))
            reads = []
            monkeypatch.setattr(
                bandit, "vertex_cover_2approx", lambda g, vertices: reads.append(g.indices.size) or cover(g, vertices)
            )
            result = run_bandit(inst.graph, o, BanditParams(delta=0.1))
            m = inst.graph.m
            assert reads[0] == 2 * m  # the first cover reads the whole graph once
            assert sum(reads) <= len(result.trace) * 2 * m  # and no round reads more
            total += sum(reads)
        return total

    ratio = slots_read(120) / slots_read(60)
    assert 1.2 <= ratio <= 4.0


# a schedule this light leaves outsiders alive for a few rounds, so that later rounds
# cover again and their covers match real edges
LIGHT = BanditParams(delta=0.1, schedule_coeff=0.1)


def elimination_slot_reads(monkeypatch, inst, seed):
    """A ``LIGHT`` bandit run on ``inst``, and the CSR slots each of its induces and covers read, in call order."""
    induce, cover = graph.induced_subgraph, bandit.vertex_cover_2approx
    induced, covered = [], []
    for owner in (bandit, graph):  # every binding of the induce that a run could reach
        monkeypatch.setattr(owner, "induced_subgraph", lambda g, vertices: induced.append(g.indices.size) or induce(g, vertices))
    monkeypatch.setattr(bandit, "vertex_cover_2approx", lambda g, vertices: covered.append(g.indices.size) or cover(g, vertices))
    result = run_bandit(inst.graph, make_oracle(inst, bern(0.25, seed=seed)), LIGHT)
    return result, induced, covered


@pytest.mark.parametrize("n, d", [*[(n, d) for n in (2000, 8000, 32000) for d in (10, 40)], (400, None)])
def test_elimination_reads_track_rounds_times_graph_size(monkeypatch, n, d):
    # the elimination half of the O(rounds * (n + m)) claim as counted work: a round covers its
    # survivors on the whole graph at most once, and induces nothing, and the budget caps the
    # rounds at the least r whose schedule alone, one survivor a round, overspends it
    inst = gen_planted_bounded_degree(n, 0.3, d, seed=7) if d else gen_planted_gnp(n, 0.3, 0.3, seed=7)
    m = inst.graph.m
    result, induced, covered = elimination_slot_reads(monkeypatch, inst, seed=8)
    assert not induced and len(covered) <= len(result.trace)
    assert sum(covered) <= len(result.trace) * 2 * (n + 2 * m)
    params = replace(LIGHT, epsilon=0.25)
    budget, spent, rounds = query_budget(n, params), 0, 0
    while spent <= budget:
        rounds += 1
        spent += query_schedule(rounds, params)
    assert len(result.trace) <= rounds


def test_elimination_slot_reads_of_one_small_instance(monkeypatch):
    inst = gen_planted_bounded_degree(2000, 0.3, 10, seed=7)
    result, induced, covered = elimination_slot_reads(monkeypatch, inst, seed=8)
    assert (inst.graph.m, len(result.trace), result.total_queries) == (13981, 74, 2211326)
    # 14 rounds drop someone and cover their survivors on the whole graph again; the other 60
    # keep their candidate, and no round induces
    assert induced == []
    assert covered == [2 * 13981] * 14
