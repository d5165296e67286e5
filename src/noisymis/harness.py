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
import os
import time
from dataclasses import dataclass, field

from .graph import exact_mis, greedy_mis, is_independent_set
from .oracle import (
    BANDIT_BERNOULLI,
    BANDIT_GAUSSIAN,
    PERSISTENT_KWISE,
    PERSISTENT_RANDOM,
    OracleConfig,
    _check_types,
    _fits,
    make_oracle,
)
from .persistent import PersistentParams, run_persistent
from .bandit import BanditParams, run_bandit
from .baselines import AmplifyParams, SamplerParams, run_amplify, run_sampler
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

# each algorithm's oracle modes, native mode first (the default), and its params class;
# greedy and exact take no oracle and no params
ALGORITHMS = {
    "persistent": ((PERSISTENT_RANDOM, PERSISTENT_KWISE), PersistentParams),
    "bandit": ((BANDIT_BERNOULLI, BANDIT_GAUSSIAN), BanditParams),
    "sampler": ((BANDIT_BERNOULLI,), SamplerParams),
    "amplify": ((BANDIT_BERNOULLI,), AmplifyParams),
    "greedy": ((), None),
    "exact": ((), None),
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
    values that do not fit their annotations, and the oracle mode against
    the algorithm's ``ALGORITHMS`` entry, before any instance exists.
    Neither ``instance`` nor ``oracle`` may hold a ``seed``.  A built
    config's blocks are read-only dicts and its ``seeds`` a tuple.
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
        for what in ("instance", "oracle", "params"):
            object.__setattr__(self, what, _ReadOnlyDict(getattr(self, what)))
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {tuple(ALGORITHMS)}")
        for what in ("instance", "oracle"):
            if "seed" in getattr(self, what):
                raise ValueError(f"{what} 'seed' cannot be set: every seed derives from seed_base/seeds")
        if self.seeds is not None and not (self.seeds and all(_fits(s, (int,)) for s in self.seeds)):
            raise ValueError(f"seeds must be a non-empty list of integers, got {self.seeds!r}")
        object.__setattr__(self, "seeds", self.seeds and tuple(int(s) for s in self.seeds))  # None stays None
        modes, params_class = ALGORITHMS[self.algorithm]
        for what in ("oracle", "params"):
            if not modes and getattr(self, what):
                raise ValueError(f"{self.algorithm} takes no {what}, got {sorted(getattr(self, what))}")
        if self.seeds is None and self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        _check_args(*_instance_source(self.instance, 0), "instance")  # trial seed 0 stands in; nothing is read
        if modes:
            # built once, outside the fields, so a trial only swaps in its oracle seed
            oracle = _checked(OracleConfig, {**self.oracle, "mode": self.oracle.get("mode", modes[0])}, "oracle")
            if oracle.mode not in modes:
                raise ValueError(f"{self.algorithm} cannot run on a {oracle.mode} oracle; it takes {' or '.join(modes)}")
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


def _check_args(target, values, what: str) -> None:
    """Raise unless ``values`` is a dict of ``target``'s parameters, the required ones included,
    each of its annotated type; errors name the key and the block ``what``."""
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


def _checked(target, values, what: str):
    _check_args(target, values, what)
    return target(**values)


def run_trial(config: ExperimentConfig, seed: int) -> tuple[TrialRecord, object]:
    """Run one seeded trial; returns the record and the algorithm's detail
    object (elimination trace or filter report) when one exists."""
    build, kwargs = _instance_source(config.instance, seed)
    instance = build(**kwargs)
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
        output = greedy_mis(g)
    elif algorithm == "exact":
        output = exact_mis(g)
    else:
        ocfg = dataclasses.replace(config._oracle, seed=derive_seed(seed, "oracle"))
        oracle = make_oracle(instance, ocfg)
        epsilon = ocfg.epsilon
        params = config._params
        if algorithm == "persistent":
            report = run_persistent(g, oracle, params)
            output = report.independent_ids
            detail = report
        elif algorithm == "bandit":
            result = run_bandit(g, oracle, params)
            output = result.independent_ids
            rounds = result.best_round
            delta = params.delta
            detail = result
        elif algorithm == "sampler":
            output = run_sampler(g.n, oracle, params, seed=derive_seed(seed, "sampler"))
        elif algorithm == "amplify":
            amplify_params, bandit_params = params
            delta = bandit_params.delta

            def base(residual):
                return run_bandit(g, oracle, bandit_params, initial=residual).independent_ids

            output = run_amplify(base, oracle, g.n, amplify_params)
        queries = oracle.total_queries
    wall_ms = (time.perf_counter() - t0) * 1000.0
    if not is_independent_set(g, output):
        raise RuntimeError(f"trial seed={seed} algorithm={algorithm}: output failed the independence check")
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


def _run_trial_task(config: ExperimentConfig, seed: int, keep_detail: bool) -> tuple[TrialRecord, object]:
    # run_trial is looked up as a module global, so rebinding it takes effect here
    record, detail = run_trial(config, seed)
    return record, detail if keep_detail else None


def run_experiment(config: ExperimentConfig, collect_details: bool = False):
    """Run all trials; returns the record list, plus a seed-keyed detail map
    when ``collect_details`` is set.  A failing trial raises its own
    exception under any ``workers``."""
    seeds = trial_seeds(config)
    task = functools.partial(_run_trial_task, config, keep_detail=collect_details)
    if config.workers > 1:
        # imported here: serial runs, the common case, skip the pool machinery's import cost
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers up front, so it gets no more than there are trials;
        # its map re-raises a worker's exception unchanged, as the serial map does
        with ProcessPoolExecutor(max_workers=min(config.workers, len(seeds))) as pool:
            results = list(pool.map(task, seeds))
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

    The record checker then rejects any cell that does not fit its column.
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
        records.append(_checked(TrialRecord, values, f"{path}:{lineno}: column"))
    return records
