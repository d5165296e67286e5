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
import inspect
import io
import json
import numbers
import os
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, exact_mis, is_independent_set
from .oracle import (
    BANDIT_BERNOULLI,
    PERSISTENT_RANDOM,
    OracleConfig,
    make_oracle,
)
from .persistent import PersistentParams, run_persistent
from .bandit import BanditParams, run_bandit
from .baselines import AmplifyParams, SamplerParams, run_amplify, run_greedy_baseline, run_sampler
from .instances import PlantedInstance, gen_planted_gnp, gen_planted_bounded_degree, read_instance

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

# each algorithm's native oracle mode, used unless the config names another;
# None marks the oracle-free algorithms, which also take no params
ALGORITHMS = {
    "persistent": PERSISTENT_RANDOM,
    "bandit": BANDIT_BERNOULLI,
    "sampler": BANDIT_BERNOULLI,
    "amplify": BANDIT_BERNOULLI,
    "greedy": None,
    "exact": None,
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


@dataclass
class ExperimentConfig:
    """One experiment: an algorithm, an instance source, an oracle, seeds.

    ``instance`` is either ``{"path": ...}`` or a generator spec
    (``{"generator": "gnp" | "bounded-degree", ...}``).  ``seeds`` wins over
    ``(seed_base, trials)`` when given.  ``params`` holds algorithm-specific
    overrides.  Each block rejects unknown keys and values that do not fit
    their annotations; the nested ones are checked when a trial runs.
    Neither ``instance`` nor ``oracle`` may hold a ``seed``.
    """

    algorithm: str
    instance: dict
    oracle: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    seeds: list | tuple | None = None
    seed_base: int = 0
    trials: int = 1
    workers: int = 1
    output: str | None = None

    def __post_init__(self):
        _check_types(ExperimentConfig, vars(self), "config")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {tuple(ALGORITHMS)}")
        if not ({"path", "generator"} & self.instance.keys()):
            raise ValueError("instance must be a dict with either a 'path' or a 'generator' key")
        for what in ("instance", "oracle"):
            if "seed" in getattr(self, what):
                raise ValueError(f"{what} 'seed' cannot be set: every seed derives from seed_base/seeds")
        if self.seeds is not None and not all(_fits(s, (int,)) for s in self.seeds):
            raise ValueError(f"seeds must be a list of integers, got {self.seeds!r}")
        if ALGORITHMS[self.algorithm] is None and self.params:
            raise ValueError(f"{self.algorithm} takes no params, got {sorted(self.params)}")
        if self.seeds is None and self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return _checked(cls, d, "config")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class TrialRecord:
    algorithm: str
    n: int
    m: int
    max_degree: int
    alpha: float
    epsilon: float | None
    delta: float | None
    seed: int
    planted_size: int
    output_size: int
    ratio: float
    total_queries: int
    rounds: int | None
    wall_time_ms: float
    independent_set_valid: bool = True

    def to_row(self) -> list[str]:
        return [_fmt(getattr(self, c)) for c in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialRecord))


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
        return [int(s) for s in config.seeds]
    return [derive_seed(config.seed_base, i) for i in range(config.trials)]


@functools.lru_cache(maxsize=1)
def _read_instance_cached(path, stamp: tuple) -> PlantedInstance:
    return read_instance(path)


def _read_instance_file(path: str) -> PlantedInstance:
    st = os.stat(path)
    # instances are immutable, so the trials a process runs on one file
    # share a single parse for as long as its size and mtime stay put
    return _read_instance_cached(path, (os.path.abspath(path), st.st_mtime_ns, st.st_size))


def _build_instance(spec: dict, trial_seed: int) -> PlantedInstance:
    if "path" in spec:
        return _checked(_read_instance_file, spec, "instance")
    # looked up per call, so rebinding a generator on this module takes effect
    generators = {"gnp": gen_planted_gnp, "bounded-degree": gen_planted_bounded_degree}
    kind = spec["generator"]
    if not isinstance(kind, str) or kind not in generators:
        raise ValueError(f"unknown instance generator {kind!r}")
    kwargs = {k: v for k, v in spec.items() if k != "generator"}
    kwargs["seed"] = derive_seed(trial_seed, "instance")
    return _checked(generators[kind], kwargs, "instance")


def _oracle_config(config: ExperimentConfig, trial_seed: int) -> OracleConfig:
    spec = dict(config.oracle)
    spec.setdefault("mode", ALGORITHMS[config.algorithm])
    return _checked(OracleConfig, {**spec, "seed": derive_seed(trial_seed, "oracle")}, "oracle")


def _params_for(cls, overrides: dict):
    return _checked(cls, overrides, cls.__name__)


def _checked(target, values, what: str):
    """``target(**values)``, once ``values`` fits ``target``'s parameters.

    ``values`` must be a dict with no unknown key, every required key, and
    each value of its annotated type; errors name the key and the block ``what``.
    """
    if not isinstance(values, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(values).__name__}")
    params = inspect.signature(target).parameters
    unknown = values.keys() - params.keys()
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for name, param in params.items():
        if param.default is param.empty and name not in values:
            raise ValueError(f"{what} is missing the required key {name!r}")
    _check_types(target, values, what)
    return target(**values)


def _check_types(target, values: dict, what: str) -> None:
    types = typing.get_type_hints(target)
    for key, value in values.items():
        kinds = typing.get_args(types[key]) or (types[key],)
        if not _fits(value, kinds):
            names = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
            raise ValueError(f"{what} {key!r} must be {names}, got {value!r}")


def _fits(value, kinds: tuple) -> bool:
    """Whether ``value`` suits a field typed as the union of ``kinds``; bools are not numbers here."""
    if isinstance(value, bool):
        return bool in kinds
    if float in kinds and isinstance(value, numbers.Real):
        return True
    if int in kinds and isinstance(value, numbers.Integral):
        return True
    return isinstance(value, kinds)


def run_trial(config: ExperimentConfig, seed: int) -> tuple[TrialRecord, object]:
    """Run one seeded trial; returns the record and the algorithm's detail
    object (elimination trace or filter report) when one exists."""
    instance = _build_instance(config.instance, seed)
    g = instance.graph
    planted = instance.planted_ids
    algorithm = config.algorithm
    detail = None
    epsilon = None
    delta = None
    rounds = None
    queries = 0
    t0 = time.perf_counter()
    if algorithm == "greedy":
        output = run_greedy_baseline(g)
    elif algorithm == "exact":
        output = exact_mis(g)
    else:
        ocfg = _oracle_config(config, seed)
        oracle = make_oracle(instance, ocfg)
        epsilon = ocfg.epsilon
        if algorithm == "persistent":
            report = run_persistent(g, oracle, _params_for(PersistentParams, config.params))
            output = report.independent_ids
            detail = report
        elif algorithm == "bandit":
            params = _params_for(BanditParams, config.params)
            result = run_bandit(g, oracle, params)
            output = result.independent_ids
            rounds = result.best_round
            delta = params.delta
            detail = result
        elif algorithm == "sampler":
            output = run_sampler(g.n, oracle, _params_for(SamplerParams, config.params), seed=derive_seed(seed, "sampler"))
        elif algorithm == "amplify":
            amplify_params = _params_for(AmplifyParams, {k: v for k, v in config.params.items() if k != "delta"})
            bandit_params = _params_for(BanditParams, {k: v for k, v in config.params.items() if k == "delta"})
            delta = bandit_params.delta

            def base(residual):
                return run_bandit(g, oracle, bandit_params, initial=residual).independent_set

            output = run_amplify(base, oracle, g.n, amplify_params)
        queries = oracle.total_queries
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if not is_independent_set(g, output):
        raise RuntimeError(f"{_trial_name(seed, algorithm)}: output failed the independence check")
    alpha = instance.params.get("alpha", len(planted) / g.n if g.n else 0.0)
    record = TrialRecord(
        algorithm=algorithm,
        n=g.n,
        m=g.m,
        max_degree=g.max_degree,
        alpha=alpha,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        planted_size=len(planted),
        output_size=len(output),
        ratio=len(output) / len(planted) if len(planted) else 0.0,
        total_queries=queries,
        rounds=rounds,
        wall_time_ms=wall_ms,
        independent_set_valid=True,
    )
    return record, detail


def _trial_name(seed: int, algorithm: str) -> str:
    return f"trial seed={seed} algorithm={algorithm}"


def _run_trial_task(config: ExperimentConfig, seed: int) -> TrialRecord:
    return run_trial(config, seed)[0]


def run_experiment(config: ExperimentConfig, collect_details: bool = False):
    """Run all trials; returns the record list, plus a seed-keyed detail map
    when ``collect_details`` is set (details force serial execution)."""
    seeds = trial_seeds(config)
    records: list[TrialRecord] = []
    details: dict[int, object] = {}
    if config.workers > 1 and not collect_details:
        # imported here: serial runs, the common case, skip the pool machinery's import cost
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_run_trial_task, config, s) for s in seeds]
            for s, future in zip(seeds, futures):
                try:
                    records.append(future.result())
                except Exception as exc:
                    # a worker's traceback names no trial, so say which one failed
                    pool.shutdown(cancel_futures=True)
                    name = _trial_name(s, config.algorithm)
                    if str(exc).startswith(name):
                        raise
                    raise RuntimeError(f"{name}: {type(exc).__name__}: {exc}") from exc
    else:
        for s in seeds:
            record, detail = run_trial(config, s)
            records.append(record)
            if collect_details and detail is not None:
                details[s] = detail
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(records_to_csv(records))
    if collect_details:
        return records, details
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


def _parse_cell(hint, text: str):
    if text == "":
        return None
    kind = next(k for k in typing.get_args(hint) or (hint,) if k is not type(None))
    return text == "true" if kind is bool else kind(text)


def records_from_csv(path) -> list[TrialRecord]:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0].split(",") != list(CSV_COLUMNS):
        raise ValueError(f"{path}: not a trial record CSV (unexpected header)")
    types = typing.get_type_hints(TrialRecord)
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"{path}: row has {len(cells)} cells, expected {len(CSV_COLUMNS)}")
        kwargs = {name: _parse_cell(types[name], cell) for name, cell in zip(CSV_COLUMNS, cells)}
        records.append(TrialRecord(**kwargs))
    return records
