"""Experiment harness: seeded trials, dispatch, aggregation, CSV persistence."""

import concurrent.futures
import dataclasses
import functools
import json
import math
import pickle
import re
import time
from copy import deepcopy
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import noisymis.bandit as bandit
import noisymis.harness as harness
from noisymis.baselines import run_amplify, run_sampler
from noisymis.bandit import run_bandit
from noisymis.cli import main
from noisymis.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    TrialRecord,
    aggregate,
    derive_seed,
    records_from_csv,
    records_to_csv,
    run_experiment,
    run_trial,
    trial_seeds,
)
from noisymis.graph import build_graph
from noisymis.instances import PlantedInstance, gen_planted_bounded_degree, gen_planted_gnp, write_instance
from noisymis.oracle import ORACLE_MODES, ModeError, OracleConfig, make_oracle
from noisymis.persistent import run_persistent


def gnp_config(**overrides):
    base = dict(
        algorithm="greedy",
        instance={"generator": "gnp", "n": 60, "alpha": 0.4, "p": 0.1},
        oracle={},
        params={},
        trials=3,
        seed_base=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -- seed derivation -----------------------------------------------------------------


def test_derive_seed_frozen_values():
    # values pinned so stored CSVs stay reproducible across releases
    assert derive_seed(0, 0) == 6213027144842677344
    assert derive_seed("a") == 7299139317422481125
    assert derive_seed(7, "instance") == 4984146351090408910


def test_derive_seed_range_and_sensitivity():
    seen = {derive_seed(i) for i in range(200)}
    assert len(seen) == 200
    assert all(0 <= s < 2**63 for s in seen)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(12) != derive_seed("12", "")


def test_trial_seeds_prefix_property():
    short = trial_seeds(gnp_config(trials=2))
    long = trial_seeds(gnp_config(trials=5))
    assert long[:2] == short
    assert trial_seeds(gnp_config(seed_base=5, trials=3)) == [
        6479648920341115476,
        5963952902427572244,
        126683205473431827,
    ]


def test_explicit_seed_list_wins():
    cfg = gnp_config(seeds=[11, 22, 33], trials=3)
    assert trial_seeds(cfg) == [11, 22, 33]


# -- config validation ------------------------------------------------------------------


def test_config_validation():
    algorithms = "('persistent', 'bandit', 'sampler', 'amplify', 'greedy', 'exact')"
    with pytest.raises(ValueError, match=re.escape(f"config 'algorithm' must be one of {algorithms}, got 'simulated-annealing'")):
        gnp_config(algorithm="simulated-annealing")
    with pytest.raises(ValueError, match="^config must be a JSON object, got list$"):
        ExperimentConfig.from_dict([1])
    for seeds in (None, [1, 2]):  # a trials below 1 is refused even where seeds set the trials
        with pytest.raises(ValueError, match="'trials' must be >= 1, got 0"):
            gnp_config(trials=0, seeds=seeds)
    with pytest.raises(ValueError, match="workers"):
        gnp_config(workers=0)
    with pytest.raises(ValueError, match="not_a_knob"):
        gnp_config(algorithm="persistent", oracle={"epsilon": 0.25}, params={"not_a_knob": 1}, workers=2)
    # an empty seed list would run no trial and leave nothing to record
    with pytest.raises(ValueError, match=re.escape("config 'seeds' must be a non-empty list of integers, got []")):
        gnp_config(seeds=[])
    with pytest.raises(ValueError, match="instance"):
        ExperimentConfig(algorithm="greedy", instance={})
    # the oracle-free algorithms take no params and no oracle at all
    for algorithm in ("greedy", "exact"):
        with pytest.raises(ValueError, match="junk"):
            gnp_config(algorithm=algorithm, params={"delta": 0.1, "junk": 1})
        with pytest.raises(ValueError, match=rf"{algorithm} takes no oracle, got \['epsilon', 'mode'\]"):
            gnp_config(algorithm=algorithm, oracle={"epsilon": 0.25, "mode": "nope"})
    # an explicit seed list sidesteps the trials knob entirely
    assert trial_seeds(gnp_config(seeds=[1, 2], trials=3)) == [1, 2]


def test_a_kwise_k_on_a_generators_n_follows_make_oracles_rule():
    # the least k, 2, stays allowed on fewer than 2 vertices, in the config as on a file's instance
    kwise = {"epsilon": 0.25, "mode": "persistent-kwise"}
    one = {"generator": "bounded-degree", "n": 1, "alpha": 0.5, "d": 0}
    assert gnp_config(algorithm="persistent", instance=one, oracle={**kwise, "k": 2})._oracle.k == 2
    make_oracle(PlantedInstance(build_graph(1, []), [0], {}), OracleConfig(**kwise, k=2))
    two = {"generator": "gnp", "n": 2, "alpha": 0.5, "p": 0.0}
    with pytest.raises(ValueError, match=re.escape("oracle 'k' must be <= n = 2, got 3")):
        gnp_config(algorithm="persistent", instance=two, oracle={**kwise, "k": 3})


def test_config_round_trip_and_unknown_keys():
    cfg = gnp_config(algorithm="bandit", oracle={"epsilon": 0.25}, params={"delta": 0.2})
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_dict({**cfg.to_dict(), "typo_key": 1})


# -- a built config is read-only ------------------------------------------------------------

BLOCK_EDITS = {
    "__setitem__": lambda block: block.__setitem__("n", 10**9),
    "__delitem__": lambda block: block.__delitem__(next(iter(block))),
    "__ior__": lambda block: block.__ior__({"bogus": 1}),
    "clear": lambda block: block.clear(),
    "pop": lambda block: block.pop(next(iter(block))),
    "popitem": lambda block: block.popitem(),
    "setdefault": lambda block: block.setdefault("bogus", 1),
    "update": lambda block: block.update(bogus=1),
}


def bandit_config(**overrides):
    return gnp_config(algorithm="bandit", oracle={"epsilon": 0.25}, params={"delta": 0.1}, **overrides)


@pytest.mark.parametrize("edit", sorted(BLOCK_EDITS))
@pytest.mark.parametrize("what", ["instance", "oracle", "params"])
def test_every_block_mutator_raises(what, edit):
    config = bandit_config()
    before = dict(getattr(config, what))
    with pytest.raises(TypeError, match="read-only.*dataclasses.replace"):
        BLOCK_EDITS[edit](getattr(config, what))
    assert getattr(config, what) == before and config == bandit_config()


def test_seeds_cannot_change():
    config = bandit_config(seeds=[3, 4])
    assert config.seeds == (3, 4)
    with pytest.raises(AttributeError):
        config.seeds.append(5)
    with pytest.raises(TypeError):
        config.seeds[0] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seeds = [5]
    assert trial_seeds(config) == [3, 4]


def test_refused_edits_leave_the_record_as_built():
    config = bandit_config()
    for what, key, value in [("params", "delta", 0.5), ("oracle", "epsilon", 0.4), ("instance", "n", 61)]:
        with pytest.raises(TypeError):
            getattr(config, what)[key] = value
    record, _ = run_trial(config, 1)
    assert (record.delta, record.epsilon, record.n) == (0.1, 0.25, 60)
    fresh, _ = run_trial(bandit_config(), 1)
    assert dataclasses.replace(record, wall_time_ms=0.0) == dataclasses.replace(fresh, wall_time_ms=0.0)


def test_read_only_config_round_trips():
    config = bandit_config(seeds=(3, 4))
    assert config == bandit_config(seeds=[3, 4])
    for copy in (pickle.loads(pickle.dumps(config)), deepcopy(config), dataclasses.replace(config)):
        assert copy == config and copy.params is not config.params
        with pytest.raises(TypeError):
            copy.params["delta"] = 0.5
        assert copy._params == config._params and copy._oracle == config._oracle
    changed = dataclasses.replace(config, params={"delta": 0.5})
    assert changed._params.delta == 0.5 and config._params.delta == 0.1
    with pytest.raises(ValueError, match="unknown params keys"):
        dataclasses.replace(config, params={"bogus": 1})
    strip = lambda recs: [r.to_row()[:13] + r.to_row()[14:] for r in recs]
    assert strip(run_experiment(dataclasses.replace(config, workers=2))) == strip(run_experiment(config))


# algorithm -> (oracle, params, an edit to the params)
ROUND_TRIP_CONFIGS = {
    "persistent": ({"epsilon": 0.25}, {"threshold_coeff": 5.0}, {"threshold_coeff": 4.0}),
    "bandit": ({"epsilon": 0.25}, {"delta": 0.1}, {"delta": 0.2}),
    "sampler": ({"epsilon": 0.25}, {"sample_prob": 0.5}, {"sample_prob": 0.25}),
    "amplify": ({"epsilon": 0.25}, {"delta": 0.1, "rounds": 2}, {"delta": 0.2, "rounds": 3}),
    "greedy": ({}, {}, {}),
    "exact": ({}, {}, {}),
}


@pytest.mark.parametrize("algorithm", harness.ALGORITHMS)
def test_to_dict_round_trips_and_is_the_edit_path(algorithm):
    oracle, params, edit = ROUND_TRIP_CONFIGS[algorithm]
    instance = {"generator": "gnp", "n": 30, "alpha": 0.4, "p": 0.1}  # within exact's cap, checked when built
    config = gnp_config(algorithm=algorithm, instance=instance, oracle=oracle, params=params, seeds=list(np.arange(3, 5)))
    d = config.to_dict()
    assert [type(s) for s in config.seeds] == [int, int] and json.loads(json.dumps(d)) == d
    assert ExperimentConfig.from_dict(d) == config
    assert [type(d[what]) for what in ("instance", "oracle", "params", "seeds")] == [dict, dict, dict, list]
    d["instance"]["n"] = 20
    d["seeds"].append(5)
    d["params"].update(edit)
    edited = ExperimentConfig.from_dict(d)
    assert edited.instance["n"] == 20 and edited.seeds == (3, 4, 5) and edited.params == {**params, **edit}
    assert config == gnp_config(algorithm=algorithm, instance=instance, oracle=oracle, params=params, seeds=[3, 4])
    if oracle:
        params_class = harness.ALGORITHMS[algorithm].params
        assert edited._params == harness._build_params(params_class, {**params, **edit}) != config._params
    d["instance"]["bogus"] = 1
    with pytest.raises(ValueError, match=r"unknown instance keys: \['bogus'\]"):
        ExperimentConfig.from_dict(d)


# each oracle algorithm's solver, called directly on a graph and an oracle
SOLVERS = {
    "persistent": run_persistent,
    "bandit": run_bandit,
    "sampler": lambda g, oracle: run_sampler(g.n, oracle),
    "amplify": lambda g, oracle: run_amplify(lambda residual: residual, oracle, g.n),
}


@pytest.mark.parametrize("mode", ORACLE_MODES)
@pytest.mark.parametrize("algorithm", SOLVERS)
def test_algorithm_table_holds_the_modes_each_solver_runs_on(algorithm, mode, capsys, monkeypatch):
    modes = harness.ALGORITHMS[algorithm].modes
    fields = dict(algorithm=algorithm, instance={"generator": "gnp", "n": 30, "alpha": 0.3, "p": 0.1},
                  oracle={"epsilon": 0.25, "mode": mode})
    if mode in modes:
        record, _ = run_trial(ExperimentConfig(**fields), 1)
        assert (record.n, record.independent_set_valid) == (30, True)
        return
    message = f"{algorithm} cannot run on a {mode} oracle; it takes {' or '.join(modes)}"
    with pytest.raises(ValueError) as info:
        ExperimentConfig(**fields)
    assert str(info.value) == message

    @functools.wraps(gen_planted_gnp)
    def generate(*args, **kwargs):
        raise AssertionError("an instance was generated for a config that cannot run")

    monkeypatch.setattr(harness, "gen_planted_gnp", generate)
    for workers in ("1", "2"):
        rc = main(["run", "--algo", algorithm, "--n", "30", "--alpha", "0.3", "--p", "0.1", "--eps", "0.25",
                   "--mode", mode, "--trials", "2", "--workers", workers])
        assert (rc, capsys.readouterr().err) == (1, f"error: {message}\n")
    # the solvers keep their own check for library callers
    instance = gen_planted_gnp(30, 0.3, 0.1, seed=1)
    with pytest.raises(ModeError):
        SOLVERS[algorithm](instance.graph, make_oracle(instance, OracleConfig(epsilon=0.25, mode=mode)))


# -- run_trial ----------------------------------------------------------------------------


def test_greedy_trial_record_shape():
    record, detail = run_trial(gnp_config(), 123)
    assert record.algorithm == "greedy"
    assert record.n == 60
    assert record.epsilon is None and record.delta is None and record.rounds is None
    assert record.total_queries == 0
    assert record.output_size == int(round(record.ratio * record.planted_size))
    assert record.independent_set_valid is True
    assert record.wall_time_ms >= 0.0


def test_perfect_bandit_trial_is_exact():
    cfg = gnp_config(
        algorithm="bandit",
        instance={"generator": "gnp", "n": 150, "alpha": 0.4, "p": 0.05, "ensure_maximal": True},
        oracle={"epsilon": 0.5, "mode": "bandit-bernoulli"},
        params={"delta": 0.1},
    )
    record, detail = run_trial(cfg, 999)
    assert record.ratio == 1.0
    assert record.rounds == 1
    assert detail.best_round == 1
    assert record.total_queries == detail.total_queries


def test_instance_path_reused_across_trials(tmp_path):
    inst = gen_planted_gnp(40, 0.5, 0.1, seed=3)
    path = tmp_path / "fixed.txt"
    write_instance(inst, path)
    cfg = gnp_config(instance={"path": str(path)}, trials=3)
    records = run_experiment(cfg)
    assert {r.m for r in records} == {inst.graph.m}
    assert {r.planted_size for r in records} == {len(inst.planted_ids)}
    # greedy on a fixed instance is deterministic across trial seeds
    assert len({(r.output_size, r.ratio) for r in records}) == 1


def test_instance_file_parsed_once_per_process(tmp_path, monkeypatch):
    reads = []
    real_read = harness.read_instance
    monkeypatch.setattr(harness, "read_instance", lambda path: reads.append(path) or real_read(path))
    path = tmp_path / "fixed.txt"
    write_instance(gen_planted_gnp(40, 0.5, 0.1, seed=3), path)
    cfg = gnp_config(instance={"path": str(path)}, trials=3)
    assert {r.n for r in run_experiment(cfg)} == {40}
    assert len(reads) == 1
    # a rewritten file is parsed again
    write_instance(gen_planted_gnp(50, 0.5, 0.1, seed=3), path)
    assert {r.n for r in run_experiment(cfg)} == {50}
    assert len(reads) == 2


def test_generated_instances_differ_per_trial():
    records = run_experiment(gnp_config(trials=4))
    assert len({r.seed for r in records}) == 4
    assert len({r.m for r in records}) > 1


def test_missing_epsilon_rejected():
    with pytest.raises(ValueError, match="epsilon"):
        gnp_config(algorithm="bandit", oracle={})


def test_unknown_param_key_rejected():
    with pytest.raises(ValueError, match="not_a_knob"):
        gnp_config(algorithm="persistent", oracle={"epsilon": 0.25, "mode": "persistent-random"},
                   params={"not_a_knob": 1})


@pytest.mark.parametrize(
    "algorithm, params, key",
    [
        ("persistent", {"threshold_coeff": "x"}, "threshold_coeff"),
        ("persistent", {"epsilon_effective": [0.2]}, "epsilon_effective"),
        ("persistent", {"greedy_order": 1}, "greedy_order"),
        ("persistent", {"order_seed": 1.5}, "order_seed"),
        ("bandit", {"delta": "0.1"}, "delta"),
        ("bandit", {"budget_coeff": True}, "budget_coeff"),
        ("sampler", {"queries_per_vertex": "5"}, "queries_per_vertex"),
        ("amplify", {"rounds": 2.0}, "rounds"),
        ("amplify", {"delta": "x"}, "delta"),
    ],
)
def test_param_values_are_type_checked(algorithm, params, key):
    with pytest.raises(ValueError, match=f"'{key}' must be"):
        gnp_config(algorithm=algorithm, oracle={"epsilon": 0.25}, params=params)


def test_param_values_of_the_declared_types_are_accepted():
    # ints stand in for floats, as JSON writes 6.0 as 6; None fills optional fields
    cfg = gnp_config(
        algorithm="persistent",
        oracle={"epsilon": 0.25},
        params={"epsilon_effective": None, "threshold_coeff": 6, "low_degree_cutoff_coeff": 36.0,
                "greedy_order": "degree", "order_seed": 3},
    )
    record, report = run_trial(cfg, 1)
    assert record.total_queries == record.n and report.independent_ids.size


def test_output_must_be_a_path_string():
    for output in (1, ["out.csv"], True):
        with pytest.raises(ValueError, match="output"):
            gnp_config(output=output)


def test_from_dict_names_a_missing_required_key():
    with pytest.raises(ValueError, match="'algorithm'"):
        ExperimentConfig.from_dict({"instance": {"path": "x"}})
    with pytest.raises(ValueError, match="'instance'"):
        ExperimentConfig.from_dict({"algorithm": "greedy"})


def test_bad_oracle_config_wrapped_as_value_error():
    with pytest.raises(ValueError, match="oracle"):
        gnp_config(algorithm="bandit", oracle={"epsilon": 0.25, "bogus": True})


def test_amplify_delta_plumbs_through():
    cfg = gnp_config(
        algorithm="amplify",
        instance={"generator": "gnp", "n": 80, "alpha": 0.4, "p": 0.05, "ensure_maximal": True},
        oracle={"epsilon": 0.5, "mode": "bandit-bernoulli"},
        params={"delta": 0.2, "rounds": 1, "reps_per_round": 3, "final_queries": 5},
    )
    record, _ = run_trial(cfg, 5)
    assert record.delta == 0.2
    assert record.ratio == 1.0  # noiseless, so the reduction is exact


def test_independence_check_failure_is_fatal(monkeypatch):
    monkeypatch.setattr(harness, "is_independent_set", lambda g, s: False)
    with pytest.raises(RuntimeError, match="seed=123") as err:
        run_trial(gnp_config(), 123)
    assert "greedy" in str(err.value)


# -- run_experiment -------------------------------------------------------------------------


def test_rerun_is_deterministic_modulo_wall_time():
    cfg = gnp_config(
        algorithm="persistent",
        oracle={"epsilon": 0.25, "mode": "persistent-random"},
        trials=3,
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    strip = lambda recs: [r.to_row()[:13] + r.to_row()[14:] for r in recs]
    assert strip(a) == strip(b)


def test_parallel_matches_serial():
    cfg = gnp_config(
        algorithm="bandit",
        instance={"generator": "gnp", "n": 100, "alpha": 0.4, "p": 0.05},
        oracle={"epsilon": 0.25},
        params={"delta": 0.2},
        trials=4,
    )
    serial = run_experiment(cfg)
    parallel = run_experiment(ExperimentConfig(**{**cfg.to_dict(), "workers": 4}))
    strip = lambda recs: [r.to_row()[:13] + r.to_row()[14:] for r in recs]
    assert strip(serial) == strip(parallel)


def test_output_file_written(tmp_path):
    out = tmp_path / "res.csv"
    cfg = gnp_config(output=str(out), trials=2)
    records = run_experiment(cfg)
    assert records_from_csv(out) == records


def test_collect_details_keyed_by_seed():
    cfg = gnp_config(
        algorithm="bandit",
        instance={"generator": "gnp", "n": 60, "alpha": 0.4, "p": 0.1},
        oracle={"epsilon": 0.25},
        trials=2,
    )
    records, details = run_experiment(cfg, collect_details=True)
    assert set(details) == {r.seed for r in records}


@pytest.mark.parametrize("algorithm, oracle", [
    ("persistent", {"epsilon": 0.25}),
    ("bandit", {"epsilon": 0.25}),
    ("sampler", {"epsilon": 0.25}),
])
def test_details_come_back_from_worker_processes(monkeypatch, algorithm, oracle):
    built = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = gnp_config(
        algorithm=algorithm,
        instance={"generator": "bounded-degree", "n": 300, "alpha": 0.3, "d": 5},
        oracle=oracle,
        trials=3,
    )
    serial_records, serial = run_experiment(cfg, collect_details=True)
    assert built == []
    pool_records, pooled = run_experiment(dataclasses.replace(cfg, workers=2), collect_details=True)
    assert built == [2]
    strip = lambda recs: [dataclasses.replace(r, wall_time_ms=0.0) for r in recs]
    assert strip(pool_records) == strip(serial_records)
    assert list(pooled) == list(serial)
    if algorithm == "sampler":
        assert serial == {}  # the sampler keeps no detail
    for seed, detail in serial.items():
        other = pooled[seed]
        assert type(other) is type(detail)
        for f in dataclasses.fields(detail):
            a, b = getattr(detail, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), f.name
            elif f.name == "stats":  # the filter's stats time the run
                assert {**a, "wall_time_ms": 0} == {**b, "wall_time_ms": 0}
            else:
                assert a == b, f.name


# -- aggregation ------------------------------------------------------------------------------


def rec(ratio, seed=0):
    # the sizes that give the ratio, as a run writes them; a CSV row must agree with them
    output, planted = Fraction(ratio).limit_denominator(10).as_integer_ratio()
    return TrialRecord(
        algorithm="greedy", n=10, m=5, max_degree=2, alpha=0.5, epsilon=None,
        delta=None, seed=seed, planted_size=planted, output_size=output, ratio=ratio,
        total_queries=0, rounds=None, wall_time_ms=1.5, independent_set_valid=True,
    )


def test_aggregate_single_record():
    s = aggregate([rec(0.8)])
    assert s.trials == 1
    assert s.mean_ratio == s.min_ratio == s.median_ratio == 0.8
    assert s.ratio_p10 == s.ratio_p90 == 0.8
    assert s.pass_rate is None


def test_aggregate_quantiles_frozen():
    s = aggregate([rec(r, i) for i, r in enumerate([0.8, 0.5, 1.0, 0.6, 0.9, 0.7])])
    assert s.ratio_p10 == pytest.approx(0.55)
    assert s.median_ratio == pytest.approx(0.75)
    assert s.ratio_p90 == pytest.approx(0.95)
    assert s.min_ratio == 0.5


def test_aggregate_mean_and_pass_rate():
    s = aggregate([rec(0.9, 1), rec(1.0, 2)], ratio_threshold=0.96)
    assert s.mean_ratio == pytest.approx(0.95)
    assert s.pass_rate == pytest.approx(0.5)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        aggregate([])


# -- CSV persistence ----------------------------------------------------------------------------


def test_csv_round_trip_preserves_types(tmp_path):
    rows = [rec(1 / 3, 11), rec(0.8, 12), rec(0.5, -1)]  # a config's "seeds" may hold a negative seed
    rows.append(dataclasses.replace(rec(0.0, 13), planted_size=0, output_size=3))  # no planted set: ratio 0.0
    rows.append(dataclasses.replace(rec(1.0, 14), m=45, max_degree=9, planted_size=10, output_size=10))  # the complete graph's sizes
    rows.append(dataclasses.replace(rec(0.0, 15), n=0, m=0, max_degree=0, planted_size=0, output_size=0))  # the empty graph's
    path = tmp_path / "r.csv"
    path.write_text(records_to_csv(rows))
    assert records_from_csv(path) == rows


def test_csv_header_and_cell_errors(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("algorithm,n\ngreedy,10\n")
    with pytest.raises(ValueError, match="header"):
        records_from_csv(path)
    path.write_text(",".join(CSV_COLUMNS) + "\ngreedy,10\n")
    with pytest.raises(ValueError, match="cells"):
        records_from_csv(path)


@pytest.mark.parametrize(
    "column, cell",
    [("ratio", ""), ("total_queries", ""), ("n", "x"), ("independent_set_valid", "yes"), ("rounds", "1.5"),
     # parsed, but out of range: a float that is not finite, a negative count
     ("ratio", "NaN"), ("alpha", "Infinity"), ("epsilon", "-Infinity"), ("delta", "1e999"), ("wall_time_ms", "NaN"),
     ("n", "-1"), ("m", "-1"), ("max_degree", "-2"), ("planted_size", "-1"), ("output_size", "-1"),
     ("total_queries", "-3"), ("rounds", "-1"),
     # a value no run writes: alpha outside [0, 1], epsilon outside (0, 1/2], delta outside (0, 1],
     # a ratio other than output_size / planted_size (1 / 2 in these rows)
     ("alpha", "7.0"), ("alpha", "-0.1"), ("alpha", "1.0000001"), ("epsilon", "3.0"), ("epsilon", "0.0"),
     ("epsilon", "0.51"), ("delta", "-1.0"), ("delta", "0"), ("delta", "1.5"), ("ratio", "-0.5"),
     ("ratio", "0.8"), ("ratio", "0.5000000000000001"), ("ratio", "1"),
     # a size that no graph on n = 10 vertices has, alone or in a row of them (then a dict of its cells)
     ("m", "46"), ("max_degree", "10"), ("planted_size", "11"), ("output_size", "11"),
     ("m", {"m": "500", "max_degree": "90", "planted_size": "50", "output_size": "40", "ratio": "0.8"}),
     ("max_degree", {"n": "1", "m": "0", "max_degree": "1"}), ("m", {"n": "0", "m": "1", "max_degree": "0"})],
)
def test_csv_cells_that_do_not_parse_name_the_line_and_column(tmp_path, column, cell):
    rows = [rec(0.5, 1).to_row(), rec(0.5, 2).to_row()]
    for name, text in (cell if isinstance(cell, dict) else {column: cell}).items():
        rows[1][CSV_COLUMNS.index(name)] = text
    path = tmp_path / "r.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(",".join(row) + "\n" for row in rows))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: column '{column}' must be "):
        records_from_csv(path)


def test_pool_starts_no_more_workers_than_trials(monkeypatch):
    built = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    records = run_experiment(gnp_config(trials=2, workers=4))
    assert built == [2]
    assert len(records) == 2


def test_a_failing_pooled_trial_ends_the_trials_still_running(tmp_path, monkeypatch):
    def trial(config, seed):
        if seed == 0:
            raise RuntimeError("trial 0 fails")
        time.sleep(0.3)
        (tmp_path / str(seed)).touch()
        return None, None

    monkeypatch.setattr(harness, "run_trial", trial)
    config = gnp_config(seeds=list(range(8)), workers=2)
    with pytest.raises(RuntimeError, match="^trial 0 fails$"):
        run_experiment(config)
    time.sleep(0.4)  # long enough for any trial left running to finish
    assert list(tmp_path.iterdir()) == []


FAILING_INSTANCES = {
    "infeasible": ({"generator": "bounded-degree", "n": 100, "alpha": 0.3, "d": 99},
                   "infeasible parameters: d * (1 - alpha) = 69.3 exceeds alpha * n = 30.0"),
    "dependent-planted": ({"path": "dependent.txt"}, ":3: planted set is not independent in the graph"),
    "missing-file": ({"path": "absent.txt"}, "No such file or directory"),
}


@pytest.mark.parametrize("case", FAILING_INSTANCES)
def test_a_failing_trial_fails_alike_under_any_workers(tmp_path, capsys, case):
    """A trial's own exception reaches the caller as is, serially or pooled, and the CLI prints it as one line."""
    (tmp_path / "dependent.txt").write_text("3 1\n0 1\n# planted: 0 1\n")
    instance, message = FAILING_INSTANCES[case]
    if "path" in instance:
        instance = {"path": str(tmp_path / instance["path"])}
    config = ExperimentConfig(algorithm="persistent", instance=instance, oracle={"epsilon": 0.25}, trials=2)
    raised = []
    for workers in (1, 2):
        with pytest.raises(Exception) as err:
            run_experiment(dataclasses.replace(config, workers=workers))
        raised.append((type(err.value), str(err.value)))
    assert raised[0] == raised[1]
    assert message in raised[0][1]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    for workers in ("1", "2"):
        assert main(["run", "--config", str(path), "--workers", workers]) == 1
        assert capsys.readouterr() == ("", f"error: {raised[0][1]}\n")


def test_trials_read_only_the_id_arrays(monkeypatch):
    made = []

    @functools.wraps(gen_planted_bounded_degree)
    def generate(*args, **kwargs):
        made.append(gen_planted_bounded_degree(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(harness, "gen_planted_bounded_degree", generate)
    instance = {"generator": "bounded-degree", "n": 300, "alpha": 0.3, "d": 4}
    for algorithm in ("persistent", "bandit"):
        config = ExperimentConfig(algorithm=algorithm, instance=instance, oracle={"epsilon": 0.25})
        record, detail = run_trial(config, 5)
        inst = made.pop()
        ids = detail.independent_ids
        assert record.planted_size == inst.planted_ids.size and record.output_size == ids.size > 0
        assert ids.dtype == np.int64 and np.all(np.diff(ids) > 0)
    # amplify: every elimination run of a round starts from that round's one
    # read-only residual id array
    residuals = []
    run_bandit = harness.run_bandit

    def bandit(*args, initial, **kwargs):
        residuals.append(initial)
        return run_bandit(*args, initial=initial, **kwargs)

    monkeypatch.setattr(harness, "run_bandit", bandit)
    rounds = 3
    config = ExperimentConfig(algorithm="amplify", instance=instance, oracle={"epsilon": 0.25},
                              params={"rounds": rounds, "reps_per_round": 7})
    record, _ = run_trial(config, 5)
    assert record.output_size > 0 and len(residuals) > rounds
    assert 1 <= len({id(residual) for residual in residuals}) <= rounds
    for residual in residuals:
        assert residual.dtype == np.int64 and not residual.flags.writeable and np.all(np.diff(residual) > 0)


def recording(calls, name, wrapped):
    """``wrapped``, appending ``name`` to ``calls`` on every call."""

    def call(*args):
        calls.append(name)
        return wrapped(*args)

    return call


def test_bench_shaped_amplify_trial_keeps_its_record(monkeypatch):
    # the benchmark's amplify workload, which the golden fixture does not cover
    calls = []
    for name in ("cover_complement", "vertex_cover_2approx"):
        monkeypatch.setattr(bandit, name, recording(calls, name, getattr(bandit, name)))
    instance = {"generator": "gnp", "n": 4096, "alpha": 0.8797, "p": 0.005, "ensure_maximal": True}
    config = ExperimentConfig(algorithm="amplify", instance=instance, oracle={"epsilon": 0.25}, seed_base=1)
    record, _ = run_trial(config, trial_seeds(config)[0])
    assert (record.total_queries, record.output_size, record.planted_size) == (1074121935, 3603, 3603)
    assert (record.m, record.max_degree, record.ratio) == (9571, 34, 1.0)
    # the 212 runs that keep survivors all keep the same set, so the graph's
    # memo covers it once; the 1,060 runs left without survivors cover nothing
    assert (calls.count("cover_complement"), calls.count("vertex_cover_2approx")) == (212, 1)


def amplify_reference(config, seed):
    # the public reduction with a base that runs on frozensets, built from the
    # trial's own instance and oracle seeds
    build, kwargs = harness._instance_source(config.instance, seed)
    instance = build(**kwargs)
    oracle = harness.make_oracle(instance, dataclasses.replace(config._oracle, seed=derive_seed(seed, "oracle")))
    g = instance.graph
    params = harness.BanditParams()
    amplify = harness.AmplifyParams(**config.params)

    def base(residual):
        result = harness.run_bandit(g, oracle, params, initial=frozenset(residual.tolist()))
        return frozenset(result.independent_ids.tolist())

    return harness.run_amplify(base, oracle, g.n, amplify), oracle


@pytest.mark.parametrize("seed", [5, 6])
def test_amplify_trial_equals_the_public_frozenset_reduction(monkeypatch, seed):
    seen = []
    run_amplify = harness.run_amplify

    def amplify(base, oracle, n, params):
        seen.append((run_amplify(base, oracle, n, params), oracle))
        return seen[-1][0]

    monkeypatch.setattr(harness, "run_amplify", amplify)
    config = ExperimentConfig(algorithm="amplify", instance={"generator": "bounded-degree", "n": 400, "alpha": 0.5, "d": 3},
                              oracle={"epsilon": 0.25}, params={"rounds": 3, "reps_per_round": 9})
    record, _ = run_trial(config, seed)
    [(output, oracle)] = seen
    monkeypatch.undo()
    want, reference = amplify_reference(config, seed)
    assert np.array_equal(output, want) and record.output_size == len(want) > 0
    assert oracle.total_queries == reference.total_queries == record.total_queries
    assert oracle._rng.random() == reference._rng.random()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert "np.intersect1d(result.independent_ids, inst.planted_ids)" in example
    exec(example, {})
    overlap, queries = map(int, capsys.readouterr().out.split())
    assert 0 < overlap <= 900 and queries > 0


def test_readme_config_example_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"A config file is JSON with the same shape as `ExperimentConfig`:\n\n```json\n(.*?)```", readme, re.S)
    config = ExperimentConfig.from_dict(json.loads(example.group(1)))
    assert config.algorithm == "bandit" and config.instance["generator"] == "gnp" and config.trials == 20
    # to_dict gives back the same JSON a config of plain dicts gave
    assert json.dumps(config.to_dict(), sort_keys=True) == (
        '{"algorithm": "bandit", "instance": {"alpha": 0.3, "ensure_maximal": true, "generator": "gnp", "n": 5000,'
        ' "p": 0.01}, "oracle": {"epsilon": 0.25, "mode": "bandit-bernoulli"}, "output": null, "params": {"delta": 0.1},'
        ' "seed_base": 202, "seeds": null, "trials": 20, "workers": 1}'
    )
