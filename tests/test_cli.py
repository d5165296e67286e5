"""Command-line interface: gen / run / exact / verify / stats."""

import concurrent.futures
import functools
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import noisymis
import noisymis.cli as cli
import noisymis.harness as harness
from noisymis.bandit import BanditParams, query_schedule
from noisymis.cli import build_parser, main
from noisymis.graph import exact_mis, is_maximal_independent_set
from noisymis.harness import ALGORITHMS, CSV_COLUMNS, ExperimentConfig, _instance_source, records_from_csv
from noisymis.instances import gen_planted_bounded_degree, gen_planted_gnp, read_instance, write_instance
from noisymis.montecarlo import EVENT_BUILDERS
from noisymis.persistent import PersistentParams, survival_threshold
from noisymis.schema import _checked


def strip_wall(csv_text):
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    return [r[:13] + r[14:] for r in rows]


@pytest.fixture
def inst_path(tmp_path):
    path = tmp_path / "inst.txt"
    assert main(["gen", "--n", "20", "--alpha", "0.5", "--p", "0.2", "--seed", "3", "--out", str(path)]) == 0
    return str(path)


# -- gen ---------------------------------------------------------------------------


def test_gen_writes_readable_instance(tmp_path, capsys):
    path = tmp_path / "g.txt"
    assert main(["gen", "--n", "20", "--alpha", "0.5", "--p", "0.2", "--seed", "3",
                 "--out", str(path)]) == 0
    assert "planted=10" in capsys.readouterr().out
    inst = read_instance(path)
    assert inst.graph.n == 20
    assert len(inst.planted_ids) == 10


def test_gen_maximal_flag(tmp_path):
    path = tmp_path / "m.txt"
    assert main(["gen", "--n", "50", "--alpha", "0.3", "--p", "0.01", "--seed", "1",
                 "--maximal", "--out", str(path)]) == 0
    inst = read_instance(path)
    assert is_maximal_independent_set(inst.graph, inst.planted_ids)


def test_gen_bounded_degree(tmp_path):
    path = tmp_path / "b.txt"
    assert main(["gen", "--n", "30", "--alpha", "0.5", "--d", "3", "--seed", "2", "--out", str(path)]) == 0
    assert read_instance(path).params["generator"] == "bounded-degree"


def test_gen_maximal_with_degree_generator_fails(tmp_path, capsys, monkeypatch):
    # the flag is rejected before anything is generated
    def generator(*args, **kwargs):
        raise AssertionError("generated an instance for a rejected flag")

    monkeypatch.setattr(cli, "gen_planted_bounded_degree", generator)
    rc = main(["gen", "--n", "30", "--alpha", "0.5", "--d", "3", "--maximal",
               "--out", str(tmp_path / "x.txt")])
    assert rc == 1
    assert "error: --maximal" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


def test_gen_requires_exactly_one_density_flag(tmp_path):
    assert main(["gen", "--n", "10", "--alpha", "0.5", "--out", str(tmp_path / "x.txt")]) == 2
    assert main(["gen", "--n", "10", "--alpha", "0.5", "--p", "0.1", "--d", "2",
                 "--out", str(tmp_path / "x.txt")]) == 2


@pytest.mark.parametrize(
    "message", ["Unable to allocate 7.45 GiB for an array with shape (1000000000,) and data type int64", ""]
)
def test_an_instance_too_large_for_memory_is_one_error_line(tmp_path, capsys, monkeypatch, message):
    # the generator's pick draw stands in for an allocation that does not fit
    def picks(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("noisymis.instances._distinct_picks", picks)
    expected = f"error: out of memory: {message}\n" if message else "error: out of memory\n"
    for argv in (["gen", "--out", str(tmp_path / "x.txt")], ["run", "--algo", "persistent", "--eps", "0.25"]):
        assert main([*argv, "--n", "50", "--alpha", "0.3", "--d", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == expected and captured.out == ""
    assert not (tmp_path / "x.txt").exists()


# -- run ---------------------------------------------------------------------------


def test_run_emits_csv(capsys):
    rc = main(["run", "--algo", "greedy", "--n", "30", "--alpha", "0.4", "--p", "0.1", "--trials", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("greedy,30,")


def test_run_json_summary(capsys):
    rc = main(["run", "--algo", "bandit", "--n", "50", "--alpha", "0.4", "--p", "0.1",
               "--eps", "0.5", "--delta", "0.2", "--trials", "2", "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 2
    assert summary["mean_ratio"] == 1.0
    assert {"min_ratio", "median_ratio", "ratio_p10", "ratio_p90", "max_queries"} <= set(summary)


def test_run_writes_output_file(tmp_path, capsys):
    out = tmp_path / "r.csv"
    rc = main(["run", "--algo", "greedy", "--n", "25", "--alpha", "0.4", "--p", "0.1",
               "--trials", "2", "--out", str(out)])
    assert rc == 0
    assert len(records_from_csv(out)) == 2


def test_run_deterministic_modulo_wall_time(capsys):
    args = ["run", "--algo", "persistent", "--n", "40", "--alpha", "0.4", "--p", "0.1",
            "--eps", "0.25", "--mode", "persistent-random", "--trials", "2", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert strip_wall(first) == strip_wall(second)


def test_run_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = {
        "algorithm": "greedy",
        "instance": {"generator": "gnp", "n": 30, "alpha": 0.4, "p": 0.1},
        "trials": 1,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--trials", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4


def test_run_instance_file(inst_path, capsys):
    capsys.readouterr()
    rc = main(["run", "--algo", "exact", "--instance", inst_path])
    assert rc == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    inst = read_instance(inst_path)
    assert int(row[9]) == len(exact_mis(inst.graph))


def test_run_flag_conflicts_and_gaps(inst_path, capsys):
    # an instance file precludes generator flags
    assert main(["run", "--algo", "greedy", "--instance", inst_path, "--n", "9"]) == 1
    # oracle algorithms need an epsilon
    assert main(["run", "--algo", "bandit", "--n", "20", "--alpha", "0.5", "--p", "0.1"]) == 1
    # no algorithm anywhere
    assert main(["run", "--n", "20", "--alpha", "0.5", "--p", "0.1"]) == 1
    assert capsys.readouterr().err.count("error:") == 3


def test_run_trace_lines_on_stderr(capsys):
    rc = main(["run", "--algo", "bandit", "--n", "40", "--alpha", "0.4", "--p", "0.1",
               "--eps", "0.25", "--delta", "0.2", "--trials", "1", "--trace"])
    assert rc == 0
    err = capsys.readouterr().err
    assert err.startswith("# seed=")
    assert "survivors=" in err and "best_round=" in err


def test_trace_and_debug_dump_honour_workers(tmp_path, capsys, monkeypatch):
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    shape = ["--n", "200", "--alpha", "0.3", "--d", "4", "--eps", "0.25", "--trials", "3"]
    outputs = {}
    for workers in ("1", "2"):
        dump = tmp_path / f"dd{workers}.csv"
        args = ["--workers", workers, "--trace"]
        assert main(["run", "--algo", "persistent", *shape, *args, "--debug-dump", str(dump)]) == 0
        persistent = capsys.readouterr()
        assert main(["run", "--algo", "bandit", *shape, *args]) == 0
        bandit = capsys.readouterr()
        # the filter's trace line and the CSV both carry a wall time
        err = re.sub(r"wall_time_ms=\S+", "", persistent.err) + bandit.err
        outputs[workers] = (strip_wall(persistent.out), strip_wall(bandit.out), err, dump.read_text())
    assert pools == [2, 2]
    assert outputs["1"] == outputs["2"]
    assert outputs["1"][2].count("# seed=") > 6


def test_run_debug_dump_for_persistent(tmp_path, capsys):
    dump = tmp_path / "dd.csv"
    rc = main(["run", "--algo", "persistent", "--n", "30", "--alpha", "0.4", "--p", "0.2",
               "--eps", "0.25", "--mode", "persistent-random", "--trials", "1",
               "--debug-dump", str(dump)])
    assert rc == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "seed,v,deg,yes_count,threshold,in_low,in_surviving"
    assert len(lines) == 31


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"params": {"budget_coeff": "x"}}, "params 'budget_coeff' must be float, got 'x'"),
        ({"oracle": {"epsilon": 0.25, "k": 1.5}}, "oracle 'k' must be int, got 1.5"),
        ({"instance": {"generator": "bounded-degree", "n": 300, "alpha": 0.3, "d": 5, "degree": 5}},
         "unknown instance keys: ['degree']"),
        ({"algorithm": "greedy", "oracle": {"epsilon": 0.25, "mode": "nope"}},
         "greedy takes no oracle, got ['epsilon', 'mode']"),
        ({"algorithm": "exact", "oracle": {"k": 3}}, "exact takes no oracle, got ['k']"),
        # a key the oracle's mode does not read, such as --k on any mode but persistent-kwise
        ({"oracle": {"epsilon": 0.25, "k": 7}}, "bandit-bernoulli oracle takes no k"),
        ({"oracle": {"epsilon": 0.25, "apply_cap": False}}, "bandit-bernoulli oracle takes no apply_cap"),
        ({"algorithm": "persistent", "oracle": {"epsilon": 0.25, "k": 1}}, "persistent-random oracle takes no k"),
        # a coefficient that is not finite, which the filter's threshold cannot use
        ({"algorithm": "persistent", "oracle": {"epsilon": 0.25}, "params": {"threshold_coeff": math.nan}},
         "params 'threshold_coeff' must be finite, got nan"),
        # exact's cap, on a generator's n
        ({"algorithm": "exact", "oracle": {}, "instance": {"generator": "bounded-degree", "n": 10**6, "alpha": 0.3, "d": 20}},
         "exact search is capped at 30 vertices, got 1000000"),
        # a budget at or below 0, which the first round always overspends
        ({"instance": {"generator": "gnp", "n": 300, "alpha": 0.3, "p": 0.1}, "oracle": {"epsilon": 0.25},
          "params": {"budget_coeff": -5.0}}, "params 'budget_coeff' must be > 0, got -5.0"),
        # a k-wise family over n ids is fully independent at k = n
        ({"algorithm": "persistent", "oracle": {"epsilon": 0.25, "mode": "persistent-kwise", "k": 301}},
         "oracle 'k' must be <= n = 300, got 301"),
        # each generator's own argument ranges
        ({"instance": {"generator": "gnp", "n": 300, "alpha": 1.5, "p": 0.1}}, "instance 'alpha' must be in (0, 1), got 1.5"),
        ({"instance": {"generator": "gnp", "n": 300, "alpha": 0.3, "p": -0.5}}, "instance 'p' must be in [0, 1], got -0.5"),
        ({"instance": {"generator": "bounded-degree", "n": 300, "alpha": 0.3, "d": -2}}, "instance 'd' must be >= 0, got -2"),
        # a vote count that numpy's binomial draws could not take
        ({"algorithm": "sampler", "params": {"queries_per_vertex": 10**20}},
         "params 'queries_per_vertex' must be < 2**63, got 100000000000000000000"),
        ({"algorithm": "amplify", "params": {"final_queries": 10**20}},
         "params 'final_queries' must be < 2**63, got 100000000000000000000"),
    ],
)
def test_bad_config_fails_before_any_instance_or_worker(tmp_path, capsys, monkeypatch, overrides, message):
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    def refuse(generator):
        @functools.wraps(generator)
        def generate(*args, **kwargs):
            raise AssertionError("an instance was generated for a bad config")

        return generate

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for generator in (gen_planted_gnp, gen_planted_bounded_degree):
        monkeypatch.setattr(harness, generator.__name__, refuse(generator))
    config = {"algorithm": "bandit", "instance": {"generator": "bounded-degree", "n": 300, "alpha": 0.3, "d": 5},
              "oracle": {"epsilon": 0.25}, "trials": 2, **overrides}
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig.from_dict(config)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    for workers in ("1", "2"):
        assert main(["run", "--config", str(path), "--workers", workers]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert pools == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_oracle_flags_for_an_oracle_free_algorithm_are_one_error_line(capsys, workers):
    argv = ["run", "--algo", "greedy", "--n", "30", "--alpha", "0.3", "--p", "0.1", "--eps", "0.25",
            "--mode", "nope", "--trials", "2", "--workers", workers]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: greedy takes no oracle, got ['epsilon', 'mode']\n")


def reference_filter_dump(config, details):
    # the dump as it was first written: regenerate each trial's instance and
    # recompute its thresholds from the config
    params = _checked(PersistentParams, config.params, "params")
    lines = ["seed,v,deg,yes_count,threshold,in_low,in_surviving\n"]
    for seed, report in details.items():
        build, kwargs = _instance_source(config.instance, seed)
        g = build(**kwargs).graph
        degs = g.degrees()
        eps = params.epsilon_effective
        if eps is None:
            eps = config._oracle.effective_epsilon
        thresholds = survival_threshold(degs, eps, g.n, params.threshold_coeff)
        for v in range(g.n):
            lines.append(
                f"{seed},{v},{int(degs[v])},{int(report.yes_counts[v])},{float(thresholds[v])!r},"
                f"{str(bool(report.low_degree_mask[v])).lower()},{str(bool(report.surviving_mask[v])).lower()}\n"
            )
    return "".join(lines)


@pytest.mark.parametrize(
    "oracle, params",
    [
        ({"epsilon": 0.2, "mode": "persistent-random"}, {}),
        ({"epsilon": 0.2, "mode": "persistent-kwise", "k": 4}, {}),
        ({"epsilon": 0.4, "mode": "persistent-random"}, {"epsilon_effective": 0.15}),
    ],
    ids=["random", "kwise", "epsilon-override"],
)
def test_debug_dump_matches_recomputed_thresholds(tmp_path, monkeypatch, oracle, params):
    cfg = {
        "algorithm": "persistent",
        "instance": {"generator": "bounded-degree", "n": 400, "alpha": 0.3, "d": 6},
        "oracle": oracle,
        "params": {"low_degree_cutoff_coeff": 1.0, "threshold_coeff": 0.3, **params},
        "trials": 3,
        "seed_base": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    dump = tmp_path / "dd.csv"
    seen = {}
    real_run = cli.run_experiment

    def run_and_keep(config, collect_details=False):
        records, details = real_run(config, collect_details)
        seen.update(config=config, details=details)
        return records, details

    monkeypatch.setattr(cli, "run_experiment", run_and_keep)
    assert main(["run", "--config", str(path), "--debug-dump", str(dump)]) == 0
    text = dump.read_text()
    assert text == reference_filter_dump(seen["config"], seen["details"])
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows) == 3 * 400
    # the filter is at work: some vertices face it and fail, some pass
    assert any(r[5] == "false" and r[6] == "false" for r in rows)
    assert any(r[5] == "false" and r[6] == "true" for r in rows)


def test_run_debug_dump_rejected_for_other_algorithms(capsys, monkeypatch):
    trials = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: trials.append(a))
    rc = main(["run", "--algo", "bandit", "--n", "20", "--alpha", "0.5", "--p", "0.1",
               "--eps", "0.25", "--debug-dump", "/tmp/never.csv"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert trials == []  # rejected before any trial runs


def test_algo_choices_follow_the_algorithm_table():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    algo = next(a for a in sub.choices["run"]._actions if a.dest == "algo")
    assert tuple(algo.choices) == tuple(ALGORITHMS)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = next(line for line in readme.splitlines() if line.startswith("Algorithms:"))
    assert tuple(re.findall(r"`([a-z]+)`", line)) == tuple(ALGORITHMS)
    rows = re.findall(r"^\| `([a-z]+)` \| (.*) \|$", readme, re.M)
    listed = {name: tuple(re.findall(r"`([a-z-]+)`", modes)) for name, modes in rows}
    assert listed == {name: entry.modes for name, entry in ALGORITHMS.items()}
    assert tuple(listed) == tuple(ALGORITHMS)


@pytest.mark.parametrize(
    "config, flags, key",
    [
        ([], [], "JSON object"),
        ({"trials": "3"}, [], "trials"),
        ({"oracle": {"epsilon": "x"}}, [], "epsilon"),
        ({"instance": {"generator": "gnp", "n": 30, "alpha": 0.4, "p": 0.1, "bogus": 1}}, [], "bogus"),
        (None, ["--n", "30", "--alpha", "0.4", "--d", "3", "--maximal"], "--maximal"),
        ({"params": {"threshold_coeff": "x"}}, [], "threshold_coeff"),
        ({"output": 1}, [], "output"),
        ({"output": ["out.csv"]}, [], "output"),
        ({"instance": {"path": None}}, [], "path"),
        ({"instance": {"path": ["x"]}}, [], "path"),
        ({"instance": {"generator": "gnp", "n": 30, "alpha": 0.4, "p": 0.1, "ensure_maximal": "no"}}, [],
         "ensure_maximal"),
        ({"oracle": {"epsilon": 0.25, "apply_cap": "no"}}, [], "apply_cap"),
        ({"trials": True}, [], "trials"),
        ({"instance": {"generator": "gnp", "n": "100", "alpha": 0.4, "p": 0.1}}, [], "'n'"),
        ({"instance": {"generator": "gnp", "n": 10**15, "alpha": 0.4, "p": 0.0}}, [], "n <= 2**31"),
        ({"instance": {"generator": ["gnp"], "n": 30, "alpha": 0.4, "p": 0.1}}, [], "generator"),
        ({"instance": {"generator": "gnp", "n": 30, "alpha": 0.4, "p": 0.1, "seed": "junk"}}, [], "seed"),
        ({"oracle": {"epsilon": 0.25, "seed": 5}}, [], "seed"),
        ({"algorithm": "bandit", "oracle": {"epsilon": 0.25, "mode": "bandit-bernoulli"}, "params": {"epsilon": 1e-200}},
         [], "epsilon"),
        ({"algorithm": "bandit", "oracle": {"epsilon": 0.25, "mode": "bandit-bernoulli"}, "params": {"delta": 5e-324}},
         [], "not finite"),
    ],
    ids=["list-config", "string-trials", "string-epsilon", "unknown-generator-key", "maximal-with-d",
         "string-threshold-coeff", "integer-output", "list-output", "null-path", "list-path",
         "string-ensure-maximal", "string-apply-cap", "boolean-trials", "string-n", "huge-n", "list-generator",
         "instance-seed", "oracle-seed", "tiny-bandit-epsilon", "tiny-bandit-delta"],
)
def test_bad_run_input_is_an_error_line_not_a_traceback(tmp_path, config, flags, key):
    argv = ["run", *flags]
    if config is not None:
        if isinstance(config, dict):
            config = {
                "algorithm": "persistent",
                "instance": {"generator": "gnp", "n": 30, "alpha": 0.4, "p": 0.1},
                "oracle": {"epsilon": 0.25},
                **config,
            }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    else:
        argv += ["--algo", "greedy"]
    env = {**os.environ, "PYTHONPATH": str(Path(noisymis.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "noisymis.cli", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    error = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(error) == 1 and key in error[0]


@pytest.mark.parametrize(
    "config, flags, message",
    [
        ([1], [], "{path}: config must be a JSON object"),
        ({"oracle": 5}, ["--eps", "0.25"], "config key 'oracle' must be a JSON object"),
        (None, ["--algo", "greedy"], "no instance source given; pass --instance, generator flags, or a --config file"),
        ({"instance": {"generator": "gnp", "n": 30, "alpha": 0.4, "p": 0.1, "seed": 5}}, [],
         "instance 'seed' cannot be set: every seed derives from seed_base/seeds"),
        ({"oracle": {"epsilon": 0.25, "seed": 5}}, [], "oracle 'seed' cannot be set: every seed derives from seed_base/seeds"),
    ],
    ids=["array-config", "number-oracle-block", "no-instance", "instance-seed", "oracle-seed"],
)
def test_run_input_errors_print_their_own_message(tmp_path, capsys, config, flags, message):
    path = tmp_path / "cfg.json"
    if config is not None:
        if isinstance(config, dict):
            config = {"algorithm": "bandit", "instance": {"generator": "gnp", "n": 30, "alpha": 0.4, "p": 0.1}, **config}
        path.write_text(json.dumps(config))
        flags = ["--config", str(path), *flags]
    assert main(["run", *flags]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")


# -- exact / verify -------------------------------------------------------------------


def test_exact_prints_size_and_set(inst_path, capsys):
    capsys.readouterr()
    assert main(["exact", "--instance", inst_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("size=")
    ids = [int(v) for v in out.splitlines()[1].removeprefix("set=").split(",")]
    inst = read_instance(inst_path)
    assert len(ids) == len(exact_mis(inst.graph))


def test_exact_refuses_large_instances(tmp_path, capsys):
    big = tmp_path / "big.txt"
    write_instance(gen_planted_gnp(40, 0.5, 0.1, seed=0), big)
    assert main(["exact", "--instance", str(big)]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_paths(inst_path, tmp_path, capsys):
    inst = read_instance(inst_path)
    ok = ",".join(map(str, inst.planted_ids.tolist()))
    assert main(["verify", "--instance", inst_path, "--set", ok]) == 0
    out = capsys.readouterr().out
    assert "independent:" in out and f"planted_overlap={len(inst.planted_ids)}/{len(inst.planted_ids)}" in out

    u, v = next((a, b) for a in range(20) for b in inst.graph.neighbors(a).tolist() if a < b)
    assert main(["verify", "--instance", inst_path, "--set", f"{u},{v}"]) == 1
    assert "not independent" in capsys.readouterr().err

    listing = tmp_path / "set.txt"
    listing.write_text("\n".join(map(str, inst.planted_ids.tolist())) + "\n")
    assert main(["verify", "--instance", inst_path, "--set", str(listing)]) == 0

    assert main(["verify", "--instance", inst_path, "--set", "99"]) == 1
    # text that names no file and holds no id is the empty set
    capsys.readouterr()
    assert main(["verify", "--instance", inst_path, "--set", ""]) == 0
    assert f"size=0 planted_overlap=0/{len(inst.planted_ids)}" in capsys.readouterr().out


def test_verify_names_the_first_out_of_range_id_as_given(tmp_path, capsys):
    path = tmp_path / "six.txt"
    path.write_text("6 1\n0 1\n# planted: 0 2\n")
    for given, first in (("7,100", 7), ("100,7", 100), ("0,9,6", 9)):
        assert main(["verify", "--instance", str(path), "--set", given]) == 1
        assert capsys.readouterr() == ("", f"vertex {first} out of range for n=6\n")
    # a repeated id counts once
    assert main(["verify", "--instance", str(path), "--set", "2,3,2,0,0"]) == 0
    assert capsys.readouterr().out == "independent: size=3 planted_overlap=2/2\n"


@pytest.mark.parametrize("bad", ["file", "list", "float"])
def test_verify_names_an_id_that_is_not_an_integer(inst_path, tmp_path, capsys, bad):
    listing = tmp_path / "set.txt"
    listing.write_text("0\n\nx\n")
    vertex_set, where = {"file": (str(listing), f"{listing}:3:"), "list": ("0,x", "--set:"), "float": ("1.9", "--set:")}[bad]
    assert main(["verify", "--instance", inst_path, "--set", vertex_set]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {where}")


def test_unreadable_inputs_are_one_error_line(tmp_path, capsys):
    inst = tmp_path / "big.txt"
    inst.write_text("3 1\n99999999999999999999 1\n# planted: 0\n")
    records = tmp_path / "r.csv"
    main(["run", "--algo", "greedy", "--n", "25", "--alpha", "0.4", "--p", "0.1", "--trials", "2", "--out", str(records)])
    rows = records.read_text().splitlines()
    cells = rows[2].split(",")
    cells[CSV_COLUMNS.index("ratio")] = ""
    records.write_text("\n".join([*rows[:2], ",".join(cells)]) + "\n")
    capsys.readouterr()
    for argv, where in (
        (["verify", "--instance", str(inst), "--set", "0"], f"{inst}:2:"),
        (["run", "--algo", "greedy", "--instance", str(inst)], f"{inst}:2:"),
        (["stats", "--input", str(records)], f"{records}:3:"),
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {where}"), err


# -- stats ------------------------------------------------------------------------------


def test_stats_on_csv_input(tmp_path, capsys):
    out = tmp_path / "r.csv"
    main(["run", "--algo", "greedy", "--n", "25", "--alpha", "0.4", "--p", "0.1",
          "--trials", "3", "--out", str(out)])
    capsys.readouterr()
    assert main(["stats", "--input", str(out), "--threshold", "0.5"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 3
    assert 0.0 <= summary["pass_rate"] <= 1.0


def test_a_run_on_an_instance_file_reads_back_in_stats(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("5 2\n0 1\n2 3\n# planted: 0 2\n")  # no params line: the alpha column is the planted share
    out = tmp_path / "r.csv"
    for algo in (["greedy"], ["persistent", "--eps", "0.25"]):
        assert main(["run", "--algo", *algo, "--instance", str(inst), "--trials", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["stats", "--input", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["trials"] == 2
        assert {r.alpha for r in records_from_csv(out)} == {0.4}
    # an alpha no record could hold fails where the file is read, not where the CSV is
    inst.write_text('5 2\n0 1\n2 3\n# planted: 0 2\n# params: {"alpha": "x"}\n')
    assert main(["run", "--algo", "greedy", "--instance", str(inst), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {inst}:5: params 'alpha' must be a number in (0, 1), got 'x'\n")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_kwise_k_above_a_files_n_is_an_error_line(tmp_path, capsys, workers):
    # a file's n is read per trial, so the oracle refuses the k that the config could not check
    inst = tmp_path / "inst.txt"
    write_instance(gen_planted_gnp(30, 0.3, 0.1, seed=1), inst)
    run = ["run", "--algo", "persistent", "--instance", str(inst), "--eps", "0.25", "--mode", "persistent-kwise",
           "--trials", "2", "--workers", workers]
    assert main([*run, "--k", "31"]) == 1
    assert capsys.readouterr() == ("", "error: oracle 'k' must be <= n = 30, got 31\n")
    assert main([*run, "--k", "30"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_stats_monte_carlo(capsys):
    assert main(["stats", "--mc", "coin", "--prob", "0.5", "--trials", "2000", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["event"] == "coin"
    assert abs(out["p_hat"] - 0.5) < 0.05
    assert out["ci99_half_width"] > 0


def test_stats_mc_elimination_votes_past_2_62_keep_their_majority(capsys):
    # this epsilon schedules q = 9,223,372,019,674,907,648 queries, so twice a count would wrap;
    # a member then loses its vote with probability about 0
    assert query_schedule(1, BanditParams(epsilon=1.1967739869017714e-09, delta=0.1)) == 9_223_372_019_674_907_648
    argv = ["stats", "--mc", "elim-member", "--round", "1", "--eps", "1.1967739869017714e-09", "--delta", "0.1"]
    assert main([*argv, "--trials", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["p_hat"] == 0.0


def test_stats_argument_errors(tmp_path, capsys):
    assert main(["stats"]) == 1
    empty = tmp_path / "e.csv"
    empty.write_text("")
    assert main(["stats", "--input", str(empty), "--mc", "coin"]) == 1
    # filter events need their shape flags
    assert main(["stats", "--mc", "filter-member", "--eps", "0.25"]) == 1
    assert capsys.readouterr().err.count("error:") == 3


# the flags each Monte Carlo event needs, by the builder parameter each one sets
MC_NEEDS = {
    "coin": {"p": "--prob"},
    "filter-member": {"deg": "--deg", "epsilon": "--eps", "n": "--n"},
    "filter-blocker": {"deg": "--deg", "epsilon": "--eps", "k": "--blockers", "n": "--n"},
    "elim-member": {"delta": "--delta", "epsilon": "--eps", "r": "--round"},
    "elim-survivor": {"delta": "--delta", "epsilon": "--eps", "r": "--round"},
}


def test_stats_mc_names_every_missing_builder_parameter(capsys):
    assert MC_NEEDS.keys() == EVENT_BUILDERS.keys()
    for event, flags in MC_NEEDS.items():
        params = inspect.signature(EVENT_BUILDERS[event]).parameters.values()
        assert list(flags) == sorted(p.name for p in params if p.default is p.empty)
        assert main(["stats", "--mc", event]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --mc {event} needs: {', '.join(sorted(flags.values()))}\n"


@pytest.mark.parametrize("event", MC_NEEDS)
def test_stats_mc_runs_on_exactly_the_flags_its_error_names(capsys, event):
    assert main(["stats", "--mc", event]) == 1
    named = capsys.readouterr().err.strip().split("needs: ")[1].split(", ")
    values = {"--prob": "0.5", "--deg": "20", "--eps": "0.25", "--blockers": "2", "--n": "1000", "--delta": "0.1", "--round": "1"}
    argv = ["stats", "--mc", event, "--trials", "1000"]
    for flag in named:
        argv += [flag, values[flag]]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["event"] == event


# a valid flag set for each event, which the cases below override one flag of
MC_VALID = {
    "coin": {"--prob": "0.5"},
    "filter-member": {"--deg": "20", "--eps": "0.25", "--n": "1000"},
    "filter-blocker": {"--deg": "20", "--eps": "0.25", "--n": "1000", "--blockers": "2"},
}


@pytest.mark.parametrize(
    "event, flag, value, message",
    [
        ("coin", "--prob", "1.5", "'p' must be in [0, 1], got 1.5"),
        ("coin", "--prob", "nan", "'p' must be finite, got nan"),
        ("coin", "--seed", "-1", "'seed' must be >= 0, got -1"),
        *[
            (event, flag, value, message)
            for event in ("filter-member", "filter-blocker")
            for flag, value, message in [
                ("--eps", "-0.2", "'epsilon' must be in (0, 1/2], got -0.2"),
                ("--eps", "0.7", "'epsilon' must be in (0, 1/2], got 0.7"),
                ("--n", "0", "'n' must be >= 1, got 0"),
                ("--deg", "-10", "'deg' must be >= 0, got -10"),
                # beyond int64, and beyond uint64, where numpy's errors differ
                ("--deg", "9999999999999999999", "'deg' must be < 2**63, got 9999999999999999999"),
                ("--deg", "99999999999999999999", "'deg' must be < 2**63, got 99999999999999999999"),
            ]
        ],
    ],
)
def test_stats_mc_refuses_a_flag_outside_its_range_in_one_error_line(capsys, event, flag, value, message):
    argv = ["stats", "--mc", event, "--trials", "1000"]
    for name, given in {**MC_VALID[event], flag: value}.items():
        argv += [name, given]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: --mc {event} {message}\n")


# -- parser-level behavior ------------------------------------------------------------------


def test_help_and_unknown_command():
    assert main(["--help"]) == 0
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
