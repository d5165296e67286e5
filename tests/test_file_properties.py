"""Property tests over input files: instance files, with a planted set or an
empty one, round-trip through the writer, a one-line edit to an instance file reads back or names
its line, any JSON in a config field is a result or one error line, and any
such value in a field of a params class is rejected when the class is built
or runs through its solver."""

import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import typing
from pathlib import Path

from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from noisymis.bandit import BanditParams, run_bandit
from noisymis.baselines import AmplifyParams, SamplerParams, run_amplify, run_sampler
from noisymis.cli import main
from noisymis.graph import build_graph, greedy_mis
from noisymis.instances import PlantedInstance, gen_planted_gnp, read_instance, write_instance
from noisymis.oracle import BANDIT_BERNOULLI, ORACLE_MODES, PERSISTENT_RANDOM, ModeError, OracleConfig, make_oracle
from noisymis.persistent import PersistentParams, run_persistent

# derandomized and without an example database: the same examples every run
SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)
# hypothesis still caches what it reads from local source files, whatever the
# database setting; keep that cache in the temp directory, not the working tree
configuration.set_hypothesis_home_dir(Path(tempfile.gettempdir(), "noisymis-hypothesis"))


@st.composite
def instances(draw):
    # n = 0 and vertices that no edge touches both occur
    n = draw(st.integers(0, 40))
    ids = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=3 * n)) if n else []
    g = build_graph(n, edges)
    planted = greedy_mis(g, draw(st.permutations(range(n))))
    return PlantedInstance(g, planted, {"n": n, "note": draw(st.text(max_size=5))})


def expected_edge_list(g):
    pairs = sorted({(min(u, v), max(u, v)) for u in range(g.n) for v in g.neighbors(u).tolist()})
    return f"{g.n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


@SETTINGS
@given(instances())
def test_edge_list_and_instance_files_round_trip(inst):
    with tempfile.TemporaryDirectory() as tmp:
        edges_path, inst_path = Path(tmp, "edges.txt"), Path(tmp, "inst.txt")
        write_instance(PlantedInstance(inst.graph, [], {}), edges_path)
        write_instance(inst, inst_path)
        assert edges_path.read_text() == expected_edge_list(inst.graph) + "# planted: \n# params: {}\n"
        assert read_instance(edges_path).graph == inst.graph
        back = read_instance(inst_path)
    assert back.graph == inst.graph
    assert back.planted_ids.tolist() == inst.planted_ids.tolist()
    assert back.params == inst.params
    assert inst.graph._owner is None


# the one-line edits of the mutation property; each keeps or drops the line it edits
BIG = "12345678901234567890"  # 20 digits, beyond int64
MUTATIONS = ("big", "float", "empty", "add", "drop", "duplicate")


def mutate(lines, at, kind, pick):
    """``lines`` with line ``at`` edited by ``kind``; ``pick`` chooses the token to edit."""
    line = lines[at]
    if line.startswith("#"):  # a section line keeps its '# planted:' or '# params:' keyword
        head, tokens = " ".join(line.split()[:2]) + " ", line.split()[2:]
    else:
        head, tokens = "", line.split()
    if kind in ("big", "float", "empty") and tokens:
        tokens[pick % len(tokens)] = {"big": BIG, "float": "1.5", "empty": ""}[kind]
    elif kind == "add":
        tokens.append("7")
    edited = [head + " ".join(t for t in tokens if t)]
    return lines[:at] + {"drop": [], "duplicate": [line, line]}.get(kind, edited) + lines[at + 1 :]


@SETTINGS
@given(instances(), st.integers(0, 200), st.integers(0, 50))
def test_a_one_line_mutation_reads_back_or_names_the_line(inst, at, pick):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "inst.txt")
        write_instance(inst, path)
        lines = path.read_text().splitlines()
        at %= len(lines)
        for kind in MUTATIONS:
            path.write_text("\n".join(mutate(lines, at, kind, pick)) + "\n")
            try:
                read_instance(path)
            except ValueError as exc:
                message = str(exc)
            else:
                continue
            if kind == "drop":
                # the edited line is gone, so the error can name only the file
                assert message.startswith(f"{path}:"), message
            else:
                named = {at + 1, at + 2} if kind == "duplicate" else {at + 1}
                assert any(message.startswith(f"{path}:{k}:") for k in named), (kind, at + 1, message)


# a small valid config per algorithm that takes params, and every field of
# them that the fuzz may replace; greedy and exact share the other fields
BASE = {
    "instance": {"generator": "gnp", "n": 30, "alpha": 0.4, "p": 0.1, "ensure_maximal": False},
    "oracle": {"epsilon": 0.25},  # a k or apply_cap that the mode does not read is an error
    "seeds": None,
    "seed_base": 0,
    "trials": 1,
    "workers": 1,
    "output": "out.csv",
}
PARAMS = {
    "persistent": {"epsilon_effective": None, "low_degree_cutoff_coeff": 36.0, "threshold_coeff": 6.0,
                   "greedy_order": "id", "order_seed": 0},
    "bandit": {"epsilon": None, "delta": 0.1, "schedule_coeff": 4.0, "budget_coeff": 30.0},
    "sampler": {"sample_prob": None, "queries_per_vertex": None},
    "amplify": {"rounds": 1, "reps_per_round": 3, "final_queries": None, "delta": 0.1},
}
FIELDS = [(key,) for key in ("algorithm", "params", *BASE)]
FIELDS += [("instance", key) for key in ("generator", "n", "alpha", "p", "d", "ensure_maximal", "path")]
FIELDS += [("oracle", key) for key in ("epsilon", "mode", "k", "apply_cap")]
FIELDS += [("params", key) for key in sorted({key for params in PARAMS.values() for key in params})]
# small ints keep every run small (at most 3 trials, workers or vertices from the
# fuzz), and so do floats within 1e3: a budget_coeff of 1e300 is refused, as its
# budget is not below 2**63, but 1e15 is a valid request for ~5e7 rounds
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-1e3, 1e3)
    | st.sampled_from([math.inf, -math.inf, math.nan]) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(SETTINGS, max_examples=150)
@given(st.sampled_from(sorted(PARAMS)), st.sampled_from(FIELDS), JSON)
def test_any_json_in_a_config_field_is_a_result_or_one_error_line(algorithm, field, value):
    config = {"algorithm": algorithm, **json.loads(json.dumps(BASE)), "params": dict(PARAMS[algorithm])}
    *block, key = field
    (config[block[0]] if block else config)[key] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # an "output" or "path" string names a file in here
        try:
            Path("cfg.json").write_text(json.dumps(config))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", "--config", "cfg.json"])
        finally:
            os.chdir(cwd)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert (code, len(errors)) in ((0, 0), (1, 1)), (config, code, err.getvalue())


# every field of every config class that a library caller builds directly
CLASS_FIELDS = [(cls, f.name) for cls in (OracleConfig, PersistentParams, BanditParams, SamplerParams, AmplifyParams)
                for f in dataclasses.fields(cls)]
SMALL = gen_planted_gnp(30, 0.4, 0.1, seed=0)


def fits(value, hint) -> bool:
    """Whether ``value`` is of a type ``hint`` names; an int stands in for a float, a bool only for a bool,
    and a float is finite."""
    kinds = typing.get_args(hint) or (hint,)
    kinds += (int,) if float in kinds else ()
    finite = not isinstance(value, float) or math.isfinite(value)
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool)) and finite


def solve(built):
    """Run ``built`` through the solver that takes it, on a 30-vertex instance."""
    if isinstance(built, OracleConfig):
        oracle = make_oracle(SMALL, built)
        solver = run_persistent if ORACLE_MODES[built.mode].persistent else run_bandit
        return solver(SMALL.graph, oracle)
    mode = PERSISTENT_RANDOM if isinstance(built, PersistentParams) else BANDIT_BERNOULLI
    oracle = make_oracle(SMALL, OracleConfig(epsilon=0.25, mode=mode, seed=1))
    if isinstance(built, PersistentParams):
        return run_persistent(SMALL.graph, oracle, built)
    if isinstance(built, BanditParams):
        return run_bandit(SMALL.graph, oracle, built)
    if isinstance(built, SamplerParams):
        return run_sampler(SMALL.graph.n, oracle, built, seed=2)
    return run_amplify(lambda residual: residual[::2], oracle, SMALL.graph.n, built)


@settings(SETTINGS, max_examples=150)
@given(st.sampled_from(CLASS_FIELDS), JSON)
def test_any_value_in_a_params_field_is_rejected_when_built_or_runs(class_field, value):
    cls, name = class_field
    try:
        built = cls(**{"epsilon": 0.25, name: value} if cls is OracleConfig else {name: value})
    except ValueError:
        return
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(built):
        assert fits(getattr(built, f.name), hints[f.name]), (cls.__name__, f.name, value)
    try:
        solve(built)
    except (ValueError, ModeError):
        pass
