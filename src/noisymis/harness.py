"""Config-driven experiment runner: build, run, validate, record.

Each trial builds its own instance and oracle from seeds derived stably from
the trial seed, runs the requested algorithm, checks the output's
independence (a failure aborts the run), and emits one record.  Identical
configs reproduce identical records bit for bit, except wall-clock times.
Parallel execution only changes who computes each trial, not its seed, so
serial and parallel runs agree.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import os
import time
import typing
from dataclasses import dataclass, field
from typing import Annotated

from .graph import EXACT_MIS_MAX_N, exact_mis, greedy_mis, is_independent_set
from .oracle import ORACLE_MODES, OracleConfig, _check_k, make_oracle
from .persistent import PersistentParams, run_persistent
from .bandit import BanditParams, run_bandit
from .baselines import AmplifyParams, SamplerParams, run_amplify, run_sampler
from .instances import PlantedInstance, gen_planted_gnp, gen_planted_bounded_degree, read_instance
from .schema import _AT_LEAST_ONE, _NONEMPTY_INTS, _NONNEGATIVE, _UP_TO_HALF, _UP_TO_ONE, _ZERO_TO_ONE  # field ranges
from .schema import _check_args, _check_types, _checked, _one_of

__all__ = [
    "ALGORITHMS",
    "CSV_COLUMNS",
    "ExperimentConfig",
    "TrialRecord",
    "AggregateSummary",
    "derive_seed",
    "trial_seeds",
    "run_trial",
    "run_experiment",
    "aggregate",
    "records_to_csv",
    "records_from_csv",
]


def _run_persistent(g, oracle, params, seed):
    report = run_persistent(g, oracle, params)
    return report.independent_ids, None, None, report


def _run_bandit(g, oracle, params, seed):
    result = run_bandit(g, oracle, params)
    return result.independent_ids, result.best_round, params.delta, result


def _run_sampler(g, oracle, params, seed):
    return run_sampler(g.n, oracle, params, seed=derive_seed(seed, "sampler")), None, None, None


def _run_amplify(g, oracle, params, seed):
    amplify_params, bandit_params = params

    def base(residual):
        return run_bandit(g, oracle, bandit_params, initial=residual).independent_ids

    return run_amplify(base, oracle, g.n, amplify_params), None, bandit_params.delta, None


_Algorithm = typing.NamedTuple("_Algorithm", [("modes", tuple), ("params", type), ("run", typing.Callable)])
# each algorithm's oracle modes, native mode first (the default), its params class, and its run: from a trial's
# graph, oracle, params and seed, the output ids and the record's rounds, delta and detail object; greedy and exact
# take no oracle and no params, and every run looks its solver up as a module global per call
ALGORITHMS = {
    "persistent": _Algorithm(("persistent-random", "persistent-kwise"), PersistentParams, _run_persistent),
    "bandit": _Algorithm(("bandit-bernoulli", "bandit-gaussian"), BanditParams, _run_bandit),
    "sampler": _Algorithm(("bandit-bernoulli",), SamplerParams, _run_sampler),
    "amplify": _Algorithm(("bandit-bernoulli",), AmplifyParams, _run_amplify),
    "greedy": _Algorithm((), None, lambda g, oracle, params, seed: (greedy_mis(g), None, None, None)),
    "exact": _Algorithm((), None, lambda g, oracle, params, seed: (exact_mis(g), None, None, None)),
}


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from the given parts.

    sha256 over the ':'-joined decimal/string forms, truncated to 8 bytes;
    stable across platforms and sessions, and extending a seed list never
    perturbs earlier trials.
    """
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class _ReadOnlyDict(dict):
    """A built config's block: a dict whose every mutator raises, and which pickles and copies whole."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("config blocks are read-only; change a config with dataclasses.replace or from_dict")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: an algorithm, an instance source, an oracle, seeds.

    ``instance`` is either ``{"path": ...}`` or a generator spec
    (``{"generator": "gnp" | "bounded-degree", ...}``).  ``seeds`` wins over
    ``(seed_base, trials)`` when given.  ``params`` holds algorithm-specific
    overrides.  Building the config checks every block for unknown keys and
    values that do not fit their annotations, and the oracle's mode and keys
    against ``ALGORITHMS`` and ``ORACLE_MODES``, before any instance exists.
    Neither ``instance`` nor ``oracle`` may hold a ``seed``.  A built
    config's blocks are read-only dicts and its ``seeds`` a tuple.
    """

    algorithm: Annotated[str, _one_of(ALGORITHMS)]
    instance: dict
    oracle: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    seeds: Annotated[list | tuple | None, _NONEMPTY_INTS] = None
    seed_base: int = 0
    trials: Annotated[int, _AT_LEAST_ONE] = 1
    workers: Annotated[int, _AT_LEAST_ONE] = 1
    output: str | None = None

    def __post_init__(self):
        _check_types(ExperimentConfig, vars(self), "config")
        for what in ("instance", "oracle", "params"):
            object.__setattr__(self, what, _ReadOnlyDict(getattr(self, what)))
            if what != "params" and "seed" in getattr(self, what):
                raise ValueError(f"{what} 'seed' cannot be set: every seed derives from seed_base/seeds")
        object.__setattr__(self, "seeds", self.seeds and tuple(int(s) for s in self.seeds))  # None stays None
        modes, params_class, _ = ALGORITHMS[self.algorithm]
        for what in ("oracle", "params"):
            if not modes and getattr(self, what):
                raise ValueError(f"{self.algorithm} takes no {what}, got {sorted(getattr(self, what))}")
        _check_args(*_instance_source(self.instance, 0), "instance")  # trial seed 0 stands in; nothing is read
        if self.algorithm == "exact" and self.instance.get("n", 0) > EXACT_MIS_MAX_N:  # a file's n is read per trial
            raise ValueError(f"exact search is capped at {EXACT_MIS_MAX_N} vertices, got {self.instance['n']}")
        if modes:
            # built once, outside the fields, so a trial only swaps in its oracle seed
            oracle = _checked(OracleConfig, {**self.oracle, "mode": self.oracle.get("mode", modes[0])}, "oracle")
            if oracle.mode not in modes:
                raise ValueError(f"{self.algorithm} cannot run on a {oracle.mode} oracle; it takes {' or '.join(modes)}")
            if ignored := sorted(self.oracle.keys() - {"epsilon", "mode", *ORACLE_MODES[oracle.mode].reads}):
                raise ValueError(f"{oracle.mode} oracle takes no {' or '.join(ignored)}")
            # make_oracle's k <= n rule, checked here too before any instance is generated; a file's n is read per trial
            if "n" in self.instance:
                _check_k(oracle, self.instance["n"])
            object.__setattr__(self, "_oracle", oracle)
            object.__setattr__(self, "_params", _build_params(params_class, self.params))

    def to_dict(self) -> dict:
        values = ((f.name, getattr(self, f.name)) for f in dataclasses.fields(self))
        return {k: dict(v) if isinstance(v, dict) else list(v) if isinstance(v, tuple) else v for k, v in values}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _checked(cls, d, "config")


@dataclass
class TrialRecord:
    algorithm: str
    n: Annotated[int, _NONNEGATIVE]
    m: Annotated[int, _NONNEGATIVE]
    max_degree: Annotated[int, _NONNEGATIVE]
    alpha: Annotated[float, _ZERO_TO_ONE]
    epsilon: Annotated[float | None, _UP_TO_HALF]
    delta: Annotated[float | None, _UP_TO_ONE]
    seed: int  # any integer: a config's seeds may be negative
    planted_size: Annotated[int, _NONNEGATIVE]
    output_size: Annotated[int, _NONNEGATIVE]
    ratio: float
    total_queries: Annotated[int, _NONNEGATIVE]
    rounds: Annotated[int | None, _NONNEGATIVE]
    wall_time_ms: float
    independent_set_valid: bool = True

    def to_row(self) -> list[str]:
        return [_fmt(getattr(self, c)) for c in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialRecord))
# each size column's largest value on an n-vertex graph and its text
_SIZE_BOUNDS = {
    "m": (lambda n: n * (n - 1) // 2, "n * (n - 1) / 2"),
    "max_degree": (lambda n: max(n - 1, 0), "max(n - 1, 0)"),
    **dict.fromkeys(("planted_size", "output_size"), (lambda n: n, "n")),
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def trial_seeds(config: ExperimentConfig) -> list[int]:
    if config.seeds is not None:
        return list(config.seeds)
    return [derive_seed(config.seed_base, i) for i in range(config.trials)]


@functools.lru_cache(maxsize=1)
def _read_instance_cached(path, stamp: tuple) -> PlantedInstance:
    return read_instance(path)


def _read_instance_file(path: str) -> PlantedInstance:
    st = os.stat(path)
    # instances are immutable, so the trials a process runs on one file
    # share a single parse for as long as its size and mtime stay put
    return _read_instance_cached(path, (os.path.abspath(path), st.st_mtime_ns, st.st_size))


def _instance_source(spec: dict, trial_seed: int) -> tuple:
    """The function that reads or generates a trial's instance from ``spec``, and its arguments."""
    if "path" in spec:
        return _read_instance_file, spec
    if "generator" not in spec:
        raise ValueError("instance must be a dict with either a 'path' or a 'generator' key")
    # looked up per call, so rebinding a generator on this module takes effect
    generators = {"gnp": gen_planted_gnp, "bounded-degree": gen_planted_bounded_degree}
    kind = spec["generator"]
    if not isinstance(kind, str) or kind not in generators:
        raise ValueError(f"unknown instance generator {kind!r}")
    kwargs = {k: v for k, v in spec.items() if k != "generator"}
    kwargs["seed"] = derive_seed(trial_seed, "instance")
    return generators[kind], kwargs


def _build_params(cls, values: dict):
    """The ``cls`` params object an oracle algorithm runs with; amplify's ``delta`` goes to its elimination runs."""
    if cls is AmplifyParams:
        amplify = _checked(AmplifyParams, {k: v for k, v in values.items() if k != "delta"}, "params")
        return amplify, _checked(BanditParams, {k: v for k, v in values.items() if k == "delta"}, "params")
    return _checked(cls, values, "params")


def run_trial(config: ExperimentConfig, seed: int) -> tuple[TrialRecord, object]:
    """Run one seeded trial; returns the record and the algorithm's detail
    object (elimination trace or filter report) when one exists."""
    build, kwargs = _instance_source(config.instance, seed)
    instance = build(**kwargs)
    g = instance.graph
    planted = instance.planted_ids
    modes, _, run = ALGORITHMS[config.algorithm]
    oracle = params = None
    t0 = time.perf_counter()
    if modes:
        oracle = make_oracle(instance, dataclasses.replace(config._oracle, seed=derive_seed(seed, "oracle")))
        params = config._params
    output, rounds, delta, detail = run(g, oracle, params, seed)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if not is_independent_set(g, output):
        raise RuntimeError(f"trial seed={seed} algorithm={config.algorithm}: output failed the independence check")
    alpha = instance.params.get("alpha", len(planted) / g.n if g.n else 0.0)
    record = TrialRecord(
        algorithm=config.algorithm,
        n=g.n,
        m=g.m,
        max_degree=g.max_degree,
        alpha=alpha,
        epsilon=oracle.config.epsilon if oracle else None,
        delta=delta,
        seed=seed,
        planted_size=len(planted),
        output_size=len(output),
        ratio=len(output) / len(planted) if len(planted) else 0.0,
        total_queries=oracle.total_queries if oracle else 0,
        rounds=rounds,
        wall_time_ms=wall_ms,
        independent_set_valid=True,
    )
    return record, detail


def _run_trial_task(config: ExperimentConfig, seed: int, keep_detail: bool) -> tuple[TrialRecord, object]:
    # run_trial is looked up as a module global, so rebinding it takes effect here
    record, detail = run_trial(config, seed)
    return record, detail if keep_detail else None


def run_experiment(config: ExperimentConfig, collect_details: bool = False):
    """Run all trials; returns the record list, plus a seed-keyed detail map
    when ``collect_details`` is set.  A failing trial raises its own
    exception under any ``workers``; a pool's other trials end with it."""
    seeds = trial_seeds(config)
    task = functools.partial(_run_trial_task, config, keep_detail=collect_details)
    if config.workers > 1:
        # imported here: serial runs, the common case, skip the pool machinery's import cost
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers up front, so it gets no more than there are trials;
        # the results, read in seed order, re-raise a worker's exception unchanged, as the serial map does
        with ProcessPoolExecutor(max_workers=min(config.workers, len(seeds))) as pool:
            # submit, not map: map cancels the rest as it raises, and the broken pool's cleanup
            # then fails on the cancelled futures in Python 3.11
            futures = [pool.submit(task, seed) for seed in seeds]
            try:
                results = [future.result() for future in futures]
            except BaseException:
                # end the workers at once, so the broken pool fails the queued trials instead of running
                # them; holding the result queue's write lock meanwhile keeps any from dying halfway
                # through a result that the pool's reader would wait on forever (Pool.terminate can)
                with pool._result_queue._wlock:
                    for worker in list(pool._processes.values()):
                        worker.terminate()
                        worker.join()
                raise
    else:
        results = list(map(task, seeds))
    records = [record for record, _ in results]
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(records_to_csv(records))
    if collect_details:
        return records, {s: detail for s, (_, detail) in zip(seeds, results) if detail is not None}
    return records


@dataclass
class AggregateSummary:
    trials: int
    mean_ratio: float
    min_ratio: float
    median_ratio: float
    ratio_p10: float
    ratio_p90: float
    mean_queries: float
    max_queries: int
    pass_rate: float | None = None


def _percentile(sorted_vals: list[float], fraction: float) -> float:
    pos = fraction * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def aggregate(records: list[TrialRecord], ratio_threshold: float | None = None) -> AggregateSummary:
    """Summary statistics over records; exact arithmetic over the given rows."""
    if not records:
        raise ValueError("cannot aggregate an empty record list")
    ratios = sorted(r.ratio for r in records)
    queries = [r.total_queries for r in records]
    k = len(ratios)
    return AggregateSummary(
        trials=k,
        mean_ratio=sum(ratios) / k,
        min_ratio=ratios[0],
        median_ratio=_percentile(ratios, 0.5),
        ratio_p10=_percentile(ratios, 0.1),
        ratio_p90=_percentile(ratios, 0.9),
        mean_queries=sum(queries) / k,
        max_queries=max(queries),
        pass_rate=(sum(1 for r in records if r.ratio >= ratio_threshold) / k) if ratio_threshold is not None else None,
    )


def records_to_csv(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for record in records:
        buf.write(",".join(record.to_row()) + "\n")
    return buf.getvalue()


def _parse_cell(text: str):
    """A CSV cell as the JSON it holds (a number, true or false), else as text; empty is None.

    The record checker then rejects any cell that does not fit its column's
    type, a float that is not finite and a value outside its column's range,
    and ``records_from_csv`` a size larger than ``n`` allows, or a ratio other
    than the one its sizes give.
    """
    if text == "":
        return None
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return text


def records_from_csv(path) -> list[TrialRecord]:
    with open(path) as fh:
        rows = [(lineno, line.rstrip("\n")) for lineno, line in enumerate(fh, start=1) if line.strip()]
    if not rows or rows[0][1].split(",") != list(CSV_COLUMNS):
        raise ValueError(f"{path}: not a trial record CSV (unexpected header)")
    records = []
    for lineno, line in rows[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"{path}:{lineno}: row has {len(cells)} cells, expected {len(CSV_COLUMNS)}")
        values = {name: _parse_cell(cell) for name, cell in zip(CSV_COLUMNS, cells)}
        where = f"{path}:{lineno}: column"
        record = _checked(TrialRecord, values, where)
        for name, (bound, text) in _SIZE_BOUNDS.items():
            if getattr(record, name) > bound(record.n):
                raise ValueError(f"{where} {name!r} must be <= {text} = {bound(record.n)}, got {getattr(record, name)!r}")
        # the ratio run_trial writes, to the bit
        ratio = record.output_size / record.planted_size if record.planted_size else 0.0
        if record.ratio != ratio:
            raise ValueError(f"{where} 'ratio' must be output_size / planted_size = {ratio!r}, got {record.ratio!r}")
        records.append(record)
    return records
