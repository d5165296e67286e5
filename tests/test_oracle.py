"""Oracle modes: persistence, advantage, capping, k-wise hashing, ledger."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from noisymis.graph import build_graph
from noisymis.instances import PlantedInstance
from noisymis.oracle import (
    ADVANTAGE_CAP,
    BANDIT_BERNOULLI,
    BANDIT_GAUSSIAN,
    KWISE_PRIME,
    ORACLE_MODES,
    PERSISTENT_KWISE,
    PERSISTENT_RANDOM,
    ModeError,
    Oracle,
    OracleConfig,
    QueryLedger,
    cap_flip_probability,
    kwise_answer,
    kwise_coefficients,
    kwise_hash,
    make_oracle,
)


def half_members(n):
    members = np.zeros(n, dtype=bool)
    members[::2] = True
    return members


# -- config ---------------------------------------------------------------


def test_config_validation():
    OracleConfig(epsilon=0.25)
    with pytest.raises(ValueError, match="epsilon"):
        OracleConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        OracleConfig(epsilon=0.51)
    modes = "('persistent-random', 'persistent-kwise', 'bandit-bernoulli', 'bandit-gaussian')"
    with pytest.raises(ValueError, match=re.escape(f"oracle 'mode' must be one of {modes}, got 'nope'")):
        OracleConfig(epsilon=0.25, mode="nope")
    with pytest.raises(ValueError, match="k >= 2"):
        OracleConfig(epsilon=0.25, mode=PERSISTENT_KWISE, k=1)
    with pytest.raises(ValueError, match="'seed' must be >= 0"):
        OracleConfig(epsilon=0.25, seed=-2)


@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_config_rejects_fields_of_the_wrong_type(mode):
    bad = [("seed", "x"), ("seed", True), ("seed", 1.0), ("seed", None), ("apply_cap", "no"),
           ("apply_cap", 1), ("apply_cap", None), ("k", 2.5), ("k", "3"), ("k", True)]
    for field, value in bad:
        with pytest.raises(ValueError, match=field):
            OracleConfig(epsilon=0.25, mode=mode, **{field: value})

    # numpy integers are integers, and answer as the same Python ints do
    def answers(config):
        oracle, verts = Oracle(half_members(64), config), np.arange(64)
        if ORACLE_MODES[config.mode].persistent:
            return oracle.query_bool_many(verts)
        if config.mode == BANDIT_GAUSSIAN:
            return oracle.query_reward_sums(verts, 3)
        return oracle.query_yes_counts(verts, 3)

    numpy_ints = OracleConfig(epsilon=0.25, mode=mode, k=np.int64(3), seed=np.int64(7))
    assert np.array_equal(answers(numpy_ints), answers(OracleConfig(epsilon=0.25, mode=mode, k=3, seed=7)))


def test_effective_epsilon_caps_persistent_only():
    assert OracleConfig(epsilon=0.5, mode=PERSISTENT_RANDOM).effective_epsilon == ADVANTAGE_CAP
    assert OracleConfig(epsilon=0.5, mode=PERSISTENT_RANDOM, apply_cap=False).effective_epsilon == 0.5
    assert OracleConfig(epsilon=0.5, mode=BANDIT_BERNOULLI).effective_epsilon == 0.5
    assert OracleConfig(epsilon=0.2, mode=PERSISTENT_RANDOM).effective_epsilon == 0.2


# -- capping ----------------------------------------------------------------


def test_cap_flip_probability_values():
    assert cap_flip_probability(0.5) == pytest.approx(0.25)  # (1/2 - 1/4)/(1/2 + 1/2)
    assert cap_flip_probability(0.25) == 0.0
    assert cap_flip_probability(0.1) == 0.0


def test_cap_incorrectness_identity():
    # (1/2 - eps) + p (1/2 + eps) = 1/4 for every eps above the cap
    for eps in np.linspace(0.26, 0.5, 13):
        p = cap_flip_probability(float(eps))
        assert (0.5 - eps) + p * (0.5 + eps) == pytest.approx(0.25, abs=1e-12)


def test_cap_empirical_incorrectness_is_one_quarter():
    n = 1_000_000
    members = half_members(n)
    for eps in (0.35, 0.5):
        o = Oracle(members, OracleConfig(epsilon=eps, mode=PERSISTENT_RANDOM, seed=901))
        answers = o.query_bool_many(np.arange(n))
        wrong = float((answers != members).mean())
        assert abs(wrong - 0.25) <= 4 * math.sqrt(0.25 / n)


# -- persistence ----------------------------------------------------------


def test_persistent_answers_are_stable():
    members = half_members(50)
    o = Oracle(members, OracleConfig(epsilon=0.25, mode=PERSISTENT_RANDOM, seed=3))
    first = o.query_bool(7)
    second = o.query_bool(7)
    assert first == second
    assert o.queries_for(7) == 2
    # batch interleaving agrees with single queries
    batch = o.query_bool_many(np.arange(50))
    assert bool(batch[7]) == first
    assert np.array_equal(batch, o.query_bool_many(np.arange(50)))


def test_persistent_kwise_answers_are_stable():
    members = half_members(40)
    o = Oracle(members, OracleConfig(epsilon=0.25, mode=PERSISTENT_KWISE, k=4, seed=5))
    a = o.query_bool_many(np.arange(40))
    b = o.query_bool_many(np.arange(40))
    assert np.array_equal(a, b)


def test_persistent_seeds_differ():
    members = half_members(2000)
    a = Oracle(members, OracleConfig(epsilon=0.25, mode=PERSISTENT_RANDOM, seed=1))
    b = Oracle(members, OracleConfig(epsilon=0.25, mode=PERSISTENT_RANDOM, seed=2))
    va = a.query_bool_many(np.arange(2000))
    vb = b.query_bool_many(np.arange(2000))
    assert not np.array_equal(va, vb)


def test_nonpersistent_answers_vary():
    members = np.ones(1, dtype=bool)
    o = Oracle(members, OracleConfig(epsilon=0.05, mode=BANDIT_BERNOULLI, seed=0))
    draws = {o.query_bool(0) for _ in range(64)}
    assert draws == {True, False}


# -- correctness rates -------------------------------------------------------


def test_perfect_oracle_always_correct():
    members = half_members(500)
    for mode in (PERSISTENT_RANDOM, BANDIT_BERNOULLI):
        o = Oracle(members, OracleConfig(epsilon=0.5, mode=mode, seed=8, apply_cap=False))
        answers = o.query_bool_many(np.arange(500))
        assert np.array_equal(answers, members)


def test_nonpersistent_nonmember_true_rate():
    # v outside the hidden set answers yes with probability 1/2 - eps = 0.25
    members = np.zeros(1, dtype=bool)
    o = Oracle(members, OracleConfig(epsilon=0.25, mode=BANDIT_BERNOULLI, seed=17))
    n_draws = 1_000_000
    yes = int(o.query_yes_counts(np.asarray([0]), n_draws)[0])
    assert abs(yes / n_draws - 0.25) <= 0.005


def test_advantage_all_bool_modes():
    n = 1_000_000
    members = half_members(n)
    for mode in (PERSISTENT_RANDOM, PERSISTENT_KWISE, BANDIT_BERNOULLI):
        cfg = OracleConfig(epsilon=0.25, mode=mode, k=16, seed=99)
        o = Oracle(members, cfg)
        answers = o.query_bool_many(np.arange(n))
        correct = float((answers == members).mean())
        assert abs(correct - 0.75) <= 4 * math.sqrt(0.25 / n), mode


# -- gaussian mode -------------------------------------------------------------


def test_gaussian_mean_and_variance():
    members = np.ones(1, dtype=bool)
    o = Oracle(members, OracleConfig(epsilon=0.25, mode=BANDIT_GAUSSIAN, seed=4))
    draws = np.asarray([o.query_real(0) for _ in range(100_000)])
    assert abs(draws.mean() - 0.75) <= 0.02
    assert abs(draws.var() - 1.0) <= 0.05

    outsider = Oracle(np.zeros(1, dtype=bool), OracleConfig(epsilon=0.25, mode=BANDIT_GAUSSIAN, seed=4))
    draws_out = np.asarray([outsider.query_real(0) for _ in range(100_000)])
    assert abs(draws_out.mean() - 0.25) <= 0.02


def test_gaussian_draws_not_persistent():
    o = Oracle(np.ones(1, dtype=bool), OracleConfig(epsilon=0.25, mode=BANDIT_GAUSSIAN, seed=6))
    assert o.query_real(0) != o.query_real(0)


def test_gaussian_reward_sums():
    members = half_members(10)
    o = Oracle(members, OracleConfig(epsilon=0.25, mode=BANDIT_GAUSSIAN, seed=10))
    sums = o.query_reward_sums(np.arange(10), 400)
    # sum of q draws concentrates at q * mu within ~4 sqrt(q) = 80
    mu = np.where(members, 0.75, 0.25) * 400
    assert np.all(np.abs(sums - mu) < 100)
    assert o.total_queries == 4000


def test_mode_errors():
    members = half_members(4)
    gauss = Oracle(members, OracleConfig(epsilon=0.25, mode=BANDIT_GAUSSIAN, seed=0))
    with pytest.raises(ModeError):
        gauss.query_bool(0)
    with pytest.raises(ModeError):
        gauss.query_bool_many([0, 1])
    with pytest.raises(ModeError):
        gauss.query_yes_counts([0], 3)
    bern = Oracle(members, OracleConfig(epsilon=0.25, mode=BANDIT_BERNOULLI, seed=0))
    with pytest.raises(ModeError):
        bern.query_real(0)
    with pytest.raises(ModeError):
        bern.query_reward_sums([0], 3)
    persistent = Oracle(members, OracleConfig(epsilon=0.25, mode=PERSISTENT_RANDOM, seed=0))
    with pytest.raises(ModeError):
        persistent.query_yes_counts([0], 3)


@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_each_mode_answers_the_query_kinds_of_its_table_entry(mode):
    # every query method answers, or raises ModeError and counts nothing, as the mode's entry says
    o = Oracle(half_members(4), OracleConfig(epsilon=0.25, mode=mode, seed=3))
    queries = {
        "yes/no": (lambda: o.query_bool(1), lambda: o.query_bool_many([0, 1])),
        "yes-counts": (lambda: o.query_yes_counts([0, 1], 3),),
        "reward-sums": (lambda: o.query_real(1), lambda: o.query_reward_sums([0, 1], 3)),
    }
    assert set(ORACLE_MODES[mode].answers) <= set(queries)
    for kind, calls in queries.items():
        for call in calls:
            before = o.total_queries
            if kind in ORACLE_MODES[mode].answers:
                call()
                assert o.total_queries > before
            else:
                with pytest.raises(ModeError):
                    call()
                assert o.total_queries == before


def parent_query_bool(o, v):
    # the scalar formula single yes/no queries had before they became size-1 batches
    o.ledger.per_vertex[v] += 1
    o.ledger.total += 1
    arr = np.asarray([v], dtype=np.int64)
    if ORACLE_MODES[o.config.mode].persistent:
        return bool(o._fixed_answers(arr)[0])
    eps = o.config.epsilon
    return bool(o._rng.random() < np.where(o._members[arr], 0.5 + eps, 0.5 - eps)[0])


def parent_query_real(o, v):
    # the scalar formula single real rewards had before they became size-1 batches
    o.ledger.per_vertex[v] += 1
    o.ledger.total += 1
    eps = o.config.epsilon
    mu = 0.5 + eps if o._members[v] else 0.5 - eps
    return float(o._rng.normal(mu, 1.0))


@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_single_queries_keep_the_scalar_stream(mode):
    # single and batch calls interleaved: the draws, totals and per-vertex
    # counts must equal those of the scalar single-query formulas
    n = 40
    members = half_members(n)
    cfg = OracleConfig(epsilon=0.375, mode=mode, k=3, seed=17)
    new, old = Oracle(members, cfg), Oracle(members, cfg)
    single = (new.query_real, parent_query_real) if mode == BANDIT_GAUSSIAN else (new.query_bool, parent_query_bool)
    batch = {
        BANDIT_GAUSSIAN: lambda o, verts: o.query_reward_sums(verts, 3),
        BANDIT_BERNOULLI: lambda o, verts: o.query_yes_counts(verts, 3),
    }.get(mode, lambda o, verts: o.query_bool_many(verts))
    rng = np.random.default_rng(5)
    got, want = [], []
    for step in range(120):
        if step % 4 == 3:
            verts = rng.integers(0, n, size=int(rng.integers(0, 6)))
            got += batch(new, verts).tolist()
            want += batch(old, verts).tolist()
        else:
            v = int(rng.integers(0, n))
            got.append(single[0](v))
            want.append(single[1](old, v))
    assert got == want
    assert all(type(a) is type(b) for a, b in zip(got, want))
    assert new.total_queries == old.total_queries
    assert np.array_equal(new.ledger.per_vertex, old.ledger.per_vertex)


@pytest.mark.parametrize("mode", [BANDIT_BERNOULLI, BANDIT_GAUSSIAN])
def test_single_queries_take_any_integer_id_as_its_int(mode):
    # a plain int in range takes the scalar path; numpy integers and bools
    # take the batch path's checks, and both make the same draws and counts
    cfg = OracleConfig(epsilon=0.25, mode=mode, seed=29)
    ints, others = Oracle(half_members(6), cfg), Oracle(half_members(6), cfg)
    single = Oracle.query_real if mode == BANDIT_GAUSSIAN else Oracle.query_bool
    for v in (np.int64(3), np.uint8(0), True, np.int32(5), False):
        got, want = single(others, v), single(ints, int(v))
        assert got == want and type(got) is type(want)
    assert others.total_queries == ints.total_queries == 5
    assert np.array_equal(others.ledger.per_vertex, ints.ledger.per_vertex)
    assert others._rng.bit_generator.state == ints._rng.bit_generator.state


def per_vertex_yes_counts(o, verts, q):
    # the ledger update and the per-vertex-probability draw every yes-count
    # call made before equal inner probabilities shared one scalar-p draw
    arr = np.asarray(verts, dtype=np.int64)
    np.add.at(o.ledger.per_vertex, arr, q)
    o.ledger.total += int(len(arr)) * int(q)
    eps = o.config.epsilon
    return o._rng.binomial(q, np.where(o._members[arr], 0.5 + eps, 0.5 - eps))


@pytest.mark.parametrize("eps", [0.1, 0.15, 0.2, 0.25, 0.3, 1 / 3, 0.5])
def test_yes_counts_keep_the_per_vertex_stream(eps):
    # q = 0 draws nothing; the others reach numpy's inversion branch
    # (q * min(p, 1 - p) <= 30) and its BTPE branch; repeated ids included
    n = 5000
    members = np.random.default_rng(3).random(n) < 0.5
    cfg = OracleConfig(epsilon=eps, mode=BANDIT_BERNOULLI, seed=23)
    new, old = Oracle(members, cfg), Oracle(members, cfg)
    pick = np.random.default_rng(4)
    for q in (0, 1, 3, 30, 212, 404):
        for size in (0, 1, 493, 4096):
            verts = pick.integers(0, n, size=size)
            got, want = new.query_yes_counts(verts, q), per_vertex_yes_counts(old, verts, q)
            assert got.dtype == want.dtype and np.array_equal(got, want), (q, size)
            assert new._rng.bit_generator.state == old._rng.bit_generator.state, (q, size)
    assert new.total_queries == old.total_queries
    assert np.array_equal(new.ledger.per_vertex, old.ledger.per_vertex)


def test_package_exports_every_module_public_name():
    import importlib

    import noisymis

    for name in ("graph", "oracle", "persistent", "bandit", "baselines", "instances", "montecarlo", "harness"):
        module = importlib.import_module(f"noisymis.{name}")
        for public in module.__all__:
            assert getattr(noisymis, public) is getattr(module, public)
    assert noisymis.ADVANTAGE_CAP == ADVANTAGE_CAP and noisymis.kwise_answer is kwise_answer


def test_value_checking_has_one_module_and_the_oracle_lends_out_only_its_k_rule():
    # schema.py alone builds ranges and defines the checkers, and the only private
    # name any module imports from oracle.py is _check_k
    checkers = {"_Range", "_one_of", "_schema", "_check_types", "_fits", "_check_args", "_checked"}

    def made(node) -> set:
        """The checkers ``node`` defines, and "_Range(" if it builds a range."""
        if isinstance(node, ast.Call):
            return {"_Range("} if getattr(node.func, "id", getattr(node.func, "attr", None)) == "_Range" else set()
        if isinstance(node, ast.FunctionDef):
            return {node.name} & checkers
        if isinstance(node, ast.Assign):
            return {getattr(target, "id", None) for target in node.targets} & checkers
        return set()

    found, posts, generators = {}, {}, {}
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "noisymis").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if made(node):
                found.setdefault(path.name, set()).update(made(node))
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "oracle"), (0, "noisymis.oracle")):
                private = {alias.name for alias in node.names if alias.name.startswith("_")} - {"_check_k"}
                assert not private, f"{path.name} imports {sorted(private)} from oracle.py"
            if isinstance(node, ast.ClassDef) and node.name.endswith("Params"):
                posts.update({node.name: f.body for f in node.body if getattr(f, "name", None) == "__post_init__"})
            if isinstance(node, ast.FunctionDef) and node.name.startswith("gen_"):
                generators[node.name] = node.body[1] if ast.get_docstring(node) else node.body[0]
    assert found == {"schema.py": checkers | {"_Range("}}
    # and single-field rules live only in annotations: each params class checks its fields in one
    # _check_types call and nothing else, and each generator's first statement after its docstring
    # checks its own arguments as the instance block
    assert set(posts) == {"PersistentParams", "BanditParams", "SamplerParams", "AmplifyParams"}
    for cls, body in posts.items():
        assert [ast.unparse(stmt) for stmt in body] == [f"_check_types({cls}, vars(self), 'params')"], cls
    assert set(generators) == {"gen_planted_gnp", "gen_planted_bounded_degree"}
    for name, first in generators.items():
        assert ast.unparse(first) == f"_check_types({name}, locals(), 'instance')", name


# -- k-wise hash ---------------------------------------------------------------


def test_kwise_hash_is_deterministic():
    coeffs = kwise_coefficients(seed=12, k=2)
    assert np.array_equal(kwise_hash(coeffs, [0, 1, 2]), kwise_hash(coeffs, [0, 1, 2]))
    assert kwise_answer(coeffs, 5, 0.3) == kwise_answer(coeffs, 5, 0.3)


def test_kwise_hash_range_and_horner():
    coeffs = kwise_coefficients(seed=2, k=5)
    vals = kwise_hash(coeffs, np.arange(1000))
    assert vals.min() >= 0 and vals.max() < KWISE_PRIME
    # independent Horner evaluation
    v = 123
    expected = 0
    for c in coeffs[::-1].tolist():
        expected = (expected * v + c) % KWISE_PRIME
    assert int(kwise_hash(coeffs, [v])[0]) == expected


def test_kwise_bias_extremes():
    coeffs = kwise_coefficients(seed=7, k=3)
    assert np.all(kwise_answer(coeffs, np.arange(100), 1.0))
    assert not np.any(kwise_answer(coeffs, np.arange(100), 0.0))
    with pytest.raises(ValueError):
        kwise_answer(coeffs, 0, 1.5)


def test_kwise_empirical_bias():
    # bias 3/4 hit rate over a large id range, k = 64
    coeffs = kwise_coefficients(seed=21, k=64)
    hits = kwise_answer(coeffs, np.arange(100_000), 0.75)
    assert abs(float(hits.mean()) - 0.75) <= 0.01


def test_kwise_coefficients_validation():
    with pytest.raises(ValueError):
        kwise_coefficients(seed=0, k=1)


# -- ledger ----------------------------------------------------------------------


def test_ledger_counts_every_entry_point():
    members = half_members(6)
    o = Oracle(members, OracleConfig(epsilon=0.25, mode=BANDIT_BERNOULLI, seed=1))
    assert o.total_queries == 0
    o.query_bool(0)
    o.query_bool(0)
    o.query_bool(3)
    assert o.total_queries == 3
    o.query_bool_many([1, 2, 4])
    o.query_yes_counts([0, 5], 10)
    assert o.total_queries == 3 + 3 + 20
    assert o.total_queries == int(o.ledger.per_vertex.sum())
    assert o.queries_for(0) == 2 + 10
    # ids that are not integers are refused before anything is counted or drawn
    state = o._rng.bit_generator.state
    for verts in ([0.7, 1.2], np.array([0.7, 1.2]), np.array([True, False])):
        with pytest.raises(ValueError, match="integers"):
            o.query_yes_counts(verts, 5)
        with pytest.raises(ValueError, match="integers"):
            o.query_bool_many(verts)
    assert o.total_queries == 26 and o._rng.bit_generator.state == state


@pytest.mark.parametrize("mode", ORACLE_MODES)
def test_queries_reject_ids_outside_the_universe(mode):
    o = Oracle(half_members(3), OracleConfig(epsilon=0.25, mode=mode, seed=1))
    batch_calls = {
        BANDIT_BERNOULLI: [o.query_bool_many, lambda v: o.query_yes_counts(v, 5)],
        BANDIT_GAUSSIAN: [lambda v: o.query_reward_sums(v, 5)],
    }.get(mode, [o.query_bool_many])
    single = o.query_real if mode == BANDIT_GAUSSIAN else o.query_bool
    state = o._rng.bit_generator.state if hasattr(o, "_rng") else None
    bad = (
        [-1], [3], [0, 1, 2, 3], [2, -3], [2**40], [2**63 - 1],
        np.array([-1]), np.array([0, 3], dtype=np.int32),
        np.array([2**63 + 5, 2**64 - 1], dtype=np.uint64),
    )
    for verts in bad:
        for call in batch_calls:
            with pytest.raises(ValueError, match=r"range\(0, 3\)"):
                call(verts)
    for v in (-1, 3, 2**62):
        with pytest.raises(ValueError, match=r"range\(0, 3\)"):
            single(v)
    # an id too large for int64 is refused as not an integer id
    for call in batch_calls:
        with pytest.raises(ValueError, match="integers"):
            call([10**30])
    # nothing was counted or drawn
    assert o.total_queries == 0 and not o.ledger.per_vertex.any()
    if state is not None:
        assert o._rng.bit_generator.state == state
    for call in batch_calls:
        assert len(call([0, 1, 2])) == 3


def test_ledger_refuses_a_negative_query_count():
    with pytest.raises(ValueError, match="^query count must be nonnegative$"):
        QueryLedger(3).record([0], -1)


def test_ledger_refuses_a_count_past_int64_and_keeps_what_it_had():
    ledger = QueryLedger(1)
    ledger.record([0], 2**63 - 1)
    for times in (2, 1):
        with pytest.raises(ValueError, match=rf"^{times} queries per listed id would take a vertex's query count past 2\*\*63 - 1$"):
            ledger.record([0], times)
    assert ledger.per_vertex.tolist() == [2**63 - 1] and ledger.total == 2**63 - 1
    # a count that no counter can hold is refused whatever the ids, before they are read
    for times in (2**63, 2**64):
        with pytest.raises(ValueError, match=rf"^query count must be < 2\*\*63, got {times}$"):
            QueryLedger(1).record([], times)
    # a repeated id counts once per listing, as np.add.at adds it
    ledger = QueryLedger(1)
    with pytest.raises(ValueError, match="past 2"):
        ledger.record([0, 0], 2**62)
    assert ledger.per_vertex.tolist() == [0] and ledger.total == 0
    ledger.record([0, 0], 2**62 - 1)
    ledger.record([0], 1)
    assert ledger.per_vertex.tolist() == [2**63 - 1] and ledger.total == 2**63 - 1
    # the total is a Python int and may pass int64 while every counter fits
    ledger = QueryLedger(4)
    ledger.record([0, 1, 2, 3], 2**62)
    ledger.record([3, 2, 1, 0], 2**62 - 1)
    assert ledger.per_vertex.tolist() == [2**63 - 1] * 4 and ledger.total == 4 * (2**63 - 1)


def test_ledger_one_query_per_distinct_vertex():
    members = half_members(100)
    o = Oracle(members, OracleConfig(epsilon=0.25, mode=PERSISTENT_RANDOM, seed=2))
    o.query_bool_many(np.arange(100))
    assert np.all(o.ledger.per_vertex == 1)
    assert o.total_queries == 100


# -- make_oracle -------------------------------------------------------------------


def test_make_oracle_answers_for_planted():
    g = build_graph(4, [(0, 1), (2, 3)])
    inst = PlantedInstance(graph=g, planted=frozenset({0, 2}), params={})
    o = make_oracle(inst, OracleConfig(epsilon=0.5, mode=PERSISTENT_RANDOM, seed=0, apply_cap=False))
    assert o.query_bool_many(np.arange(4)).tolist() == [True, False, True, False]
