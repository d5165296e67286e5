"""Experiment harness: seeded trials, dispatch, aggregation, CSV persistence."""

import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import noisymis.harness as harness
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
from noisymis.instances import gen_planted_bounded_degree, gen_planted_gnp, write_instance


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
    with pytest.raises(ValueError, match="algorithm"):
        gnp_config(algorithm="simulated-annealing")
    with pytest.raises(ValueError, match="trials"):
        gnp_config(trials=0)
    with pytest.raises(ValueError, match="workers"):
        gnp_config(workers=0)
    with pytest.raises(ValueError, match="instance"):
        ExperimentConfig(algorithm="greedy", instance={})
    # the oracle-free algorithms take no params at all
    for algorithm in ("greedy", "exact"):
        with pytest.raises(ValueError, match="junk"):
            gnp_config(algorithm=algorithm, params={"delta": 0.1, "junk": 1})
    # an explicit seed list sidesteps the trials knob entirely
    assert trial_seeds(gnp_config(seeds=[1, 2], trials=3)) == [1, 2]


def test_config_round_trip_and_unknown_keys():
    cfg = gnp_config(algorithm="bandit", oracle={"epsilon": 0.25}, params={"delta": 0.2})
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_dict({**cfg.to_dict(), "typo_key": 1})


def test_config_from_json_file(tmp_path):
    cfg = gnp_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert ExperimentConfig.from_json_file(path) == cfg


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
    assert {r.planted_size for r in records} == {len(inst.planted)}
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
    cfg = gnp_config(algorithm="bandit", oracle={})
    with pytest.raises(ValueError, match="epsilon"):
        run_trial(cfg, 1)


def test_unknown_param_key_rejected():
    cfg = gnp_config(algorithm="persistent", oracle={"epsilon": 0.25, "mode": "persistent-random"},
                     params={"not_a_knob": 1})
    with pytest.raises(ValueError, match="not_a_knob"):
        run_trial(cfg, 1)


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
    cfg = gnp_config(algorithm=algorithm, oracle={"epsilon": 0.25}, params=params)
    with pytest.raises(ValueError, match=f"'{key}' must be"):
        run_trial(cfg, 1)


def test_param_values_of_the_declared_types_are_accepted():
    # ints stand in for floats, as JSON writes 6.0 as 6; None fills optional fields
    cfg = gnp_config(
        algorithm="persistent",
        oracle={"epsilon": 0.25},
        params={"epsilon_effective": None, "threshold_coeff": 6, "low_degree_cutoff_coeff": 36.0,
                "greedy_order": "degree", "order_seed": 3},
    )
    record, report = run_trial(cfg, 1)
    assert record.total_queries == record.n and report.independent_set


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
    cfg = gnp_config(algorithm="bandit", oracle={"epsilon": 0.25, "bogus": True})
    with pytest.raises(ValueError, match="oracle"):
        run_trial(cfg, 1)


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


# -- aggregation ------------------------------------------------------------------------------


def rec(ratio, seed=0):
    return TrialRecord(
        algorithm="greedy", n=10, m=5, max_degree=2, alpha=0.5, epsilon=None,
        delta=None, seed=seed, planted_size=5, output_size=4, ratio=ratio,
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
    rows = [rec(1 / 3, 11), rec(0.8, 12)]
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


def test_worker_errors_name_seed_and_algorithm(tmp_path):
    cfg = gnp_config(
        algorithm="persistent",
        oracle={"epsilon": 0.25, "mode": "persistent-random"},
        params={"not_a_knob": 1},
        trials=2,
        workers=2,
    )
    first = trial_seeds(cfg)[0]
    with pytest.raises(RuntimeError, match=rf"trial seed={first} algorithm=persistent: ValueError: .*not_a_knob"):
        run_experiment(cfg)
    missing = gnp_config(instance={"path": str(tmp_path / "absent.txt")}, workers=2)
    with pytest.raises(RuntimeError, match=rf"trial seed={trial_seeds(missing)[0]} algorithm=greedy: FileNotFoundError"):
        run_experiment(missing)


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
        # nothing on the run path builds the planted or the output frozenset
        assert "planted" not in vars(inst) and "independent_set" not in vars(detail)
        ids = detail.independent_ids
        assert record.planted_size == inst.planted_ids.size and record.output_size == ids.size > 0
        assert ids.dtype == np.int64 and np.all(np.diff(ids) > 0)
        # once read, each frozenset holds its array's ids and is kept
        assert inst.planted == frozenset(inst.planted_ids.tolist()) and vars(inst)["planted"] is inst.planted
        assert detail.independent_set == frozenset(ids.tolist())
        assert vars(detail)["independent_set"] is detail.independent_set


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    assert "result.independent_set & inst.planted" in example
    exec(example, {})
    overlap, queries = map(int, capsys.readouterr().out.split())
    assert 0 < overlap <= 900 and queries > 0
