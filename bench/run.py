#!/usr/bin/env python3
"""End-to-end benchmark of ``noisymis run``, with a traced run for per-layer numbers.

Usage, from the root of the repository::

    python3 bench/run.py --workload gen-filter --seed 1 --seconds 40 --trace 0

Every measured run is a fresh ``python -m noisymis.cli run`` child process,
one at a time (``--workers 1``), with ``src`` on ``PYTHONPATH``.  Its output
CSV must pass the correctness gate (exit code 0, one row per trial, every
``independent_set_valid`` true, and bytes equal to the first run's apart from
``wall_time_ms``).  With ``--trace 1`` untraced and traced runs alternate, and
the per-layer metrics come from ``traced.py``.  See ``README.md`` beside this
file for every metric and workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the machine, the inputs and every raw sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# Every child must end before this many seconds after start, so that the
# whole benchmark exits within three minutes even on a slow run.
HARD_LIMIT_S = 165.0
# Set-up is repeated and its median reported, so a single slow start does not
# read as a regression.
IMPORT_SETUP_REPS = 7
GEN_SETUP_REPS = 3


@dataclass(frozen=True)
class Workload:
    """``noisymis`` flags of one workload; ``--n`` is kept apart so the
    smoke test can shrink it."""

    name: str
    run_args: tuple[str, ...]
    n: int
    tiny_n: int
    trials: int
    gen_args: tuple[str, ...] | None = None  # set: the run reads a file that set-up writes

    def size(self, tiny: bool) -> int:
        return self.tiny_n if tiny else self.n


WORKLOADS = {
    wl.name: wl
    for wl in (
        # Generating the 100k-vertex bounded-degree instance, build_graph
        # included, is ~90% of a trial; filter and greedy are the rest.
        Workload(
            "gen-filter",
            ("--algo", "persistent", "--alpha", "0.3", "--d", "20", "--eps", "0.25"),
            n=100_000,
            tiny_n=2_000,
            trials=1,
        ),
        # Re-parsing a 4.7 MB instance file dominates every trial; the
        # quadratic G(n, p) generator and the writer run in set-up.  Not in
        # BENCHMARK.json: its run time spread the most across seeds.
        Workload(
            "file-bandit",
            ("--algo", "bandit", "--eps", "0.25", "--delta", "0.1", "--mode", "bandit-gaussian"),
            n=30_000,
            tiny_n=2_000,
            trials=2,
            gen_args=("--alpha", "0.3", "--p", "0.001"),
        ),
        # Thousands of small run_bandit calls; cover_complement dominates.
        Workload(
            "amplify",
            ("--algo", "amplify", "--alpha", "0.8797", "--p", "0.005", "--maximal", "--eps", "0.25"),
            n=4_096,
            tiny_n=512,
            trials=1,
        ),
    )
}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ratio_mean": "1",
    "queries_per_trial": "queries",
    "ok_frac": "1",
}

PER_LAYER_UNITS = {
    "instances.gen_s": "s",
    "instances.gen_self_s": "s",
    "instances.gen_calls": "count",
    "graph.build_s": "s",
    "graph.build_calls": "count",
    "graph.build_pairs": "count",
    "graph.induce_s": "s",
    "graph.induce_calls": "count",
    "graph.cover_s": "s",
    "graph.cover_calls": "count",
    "graph.greedy_s": "s",
    "graph.indep_s": "s",
    "graph.indep_calls": "count",
    "oracle.setup_s": "s",
    "oracle.query_s": "s",
    "oracle.query_calls": "count",
    "oracle.queries": "queries",
    "persistent.run_s": "s",
    "persistent.self_s": "s",
    "bandit.run_s": "s",
    "bandit.run_calls": "count",
    "bandit.rounds": "count",
    "bandit.elim_s": "s",
    "bandit.cover_complement_s": "s",
    "bandit.self_s": "s",
    "bandit.unchanged_rounds": "count",
    "bandit.unchanged_round_frac": "1",
    "baselines.amplify_s": "s",
    "baselines.amplify_self_s": "s",
    "harness.trial_s": "s",
    "harness.trial_calls": "count",
    "harness.self_s": "s",
    "cli.import_s": "s",
    "cli.total_s": "s",
    "trace.overhead_frac": "1",
    "trace.coverage_frac": "1",
}

# Reported only by a workload that reads an instance file written in set-up.
FILE_IO_UNITS = {
    "instances.read_s": "s",
    "instances.read_self_s": "s",
    "instances.read_mb_per_s": "MB/s",
    "instances.write_s": "s",
    "instances.setup_gen_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot measure anything: set-up failed."""


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mib: float
    stdout: str
    stderr: str


def _log(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr, flush=True)


def _normalized_csv(text: str) -> str | None:
    """The CSV with every ``wall_time_ms`` cell blanked; None if the column is missing."""
    lines = text.splitlines()
    if not lines:
        return None
    header = lines[0].split(",")
    if "wall_time_ms" not in header:
        return None
    col = header.index("wall_time_ms")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            return None
        cells[col] = ""
        out.append(",".join(cells))
    return "\n".join(out)


def _csv_rows(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class Session:
    """One benchmark run: set-up, the timed children, and the correctness gate."""

    def __init__(self, workload: Workload, seed: int, tiny: bool):
        self.wl = workload
        self.seed = seed
        self.n = workload.size(tiny)
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.workdir = WORK / f"{workload.name}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.reference: str | None = None
        self.rows: list[dict[str, str]] | None = None
        self.instance: Path | None = None
        self.numpy_version = "unknown"
        self._spans = 0

    # -- children ------------------------------------------------------------

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to completion; peak RSS comes from its own rusage."""
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        return Child(
            code=proc.returncode,
            wall_s=wall,
            rss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
        )

    def cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "noisymis.cli", *args]

    def traced(self, spans: Path, *args: str) -> list[str]:
        return [sys.executable, str(BENCH / "traced.py"), str(spans), *args]

    def run_args(self) -> list[str]:
        args = ["run", *self.wl.run_args, "--seed", str(self.seed), "--trials", str(self.wl.trials), "--workers", "1"]
        if self.instance is not None:
            return args + ["--instance", str(self.instance)]
        return args + ["--n", str(self.n)]

    def gen_args(self, out: Path) -> list[str]:
        return ["gen", "--n", str(self.n), *self.wl.gen_args, "--seed", str(self.seed), "--out", str(out)]

    def next_spans_path(self) -> Path:
        self._spans += 1
        return self.workdir / f"spans{self._spans}.json"

    # -- correctness gate ----------------------------------------------------

    def fail(self, what: str, problem: str) -> None:
        self.failed += 1
        _log(f"FAILED {what}: {problem}")

    def check_run(self, child: Child, what: str) -> bool:
        """Count the run as attempted and judge its CSV; failures are counted, never retried."""
        self.attempted += 1
        if child.code != 0:
            self.fail(what, f"exit code {child.code}: {child.stderr.strip()[-500:]}")
            return False
        normalized = _normalized_csv(child.stdout)
        if normalized is None:
            self.fail(what, "output is not a record CSV with a wall_time_ms column")
            return False
        rows = _csv_rows(child.stdout)
        if len(rows) != self.wl.trials:
            self.fail(what, f"{len(rows)} rows, expected {self.wl.trials}")
            return False
        if any(row.get("independent_set_valid") != "true" for row in rows):
            self.fail(what, "a row has independent_set_valid other than true")
            return False
        if any(row.get("n") != str(self.n) for row in rows):
            self.fail(what, f"a row has n other than {self.n}")
            return False
        if self.reference is None:
            self.reference, self.rows = normalized, rows
        elif normalized != self.reference:
            self.fail(what, "CSV differs from the first run with this seed (wall_time_ms aside)")
            return False
        return True

    # -- set-up --------------------------------------------------------------

    def setup_child(self, argv: list[str]) -> Child:
        """Spawn a set-up step; without it nothing can be measured, so failing is fatal."""
        child = self.spawn(argv)
        if child.code != 0:
            raise BenchError(f"set-up step {argv[1:]} exited {child.code}: {child.stderr.strip()[-500:]}")
        return child

    def warm_up(self) -> None:
        """Import once untimed, which also compiles bytecode, and read the numpy version."""
        child = self.setup_child([sys.executable, "-c", "import noisymis.cli, numpy; print(numpy.__version__)"])
        self.numpy_version = child.stdout.strip()

    def setup(self) -> list[float]:
        """Timed set-up repetitions; for a file workload each writes the instance."""
        self.warm_up()
        if self.wl.gen_args is None:
            times = []
            for _ in range(IMPORT_SETUP_REPS):
                times.append(self.setup_child([sys.executable, "-c", "import noisymis.cli"]).wall_s)
            return times
        times = []
        first: bytes | None = None
        for i in range(GEN_SETUP_REPS):
            path = self.workdir / f"instance{i}.txt"
            times.append(self.setup_child(self.cli(*self.gen_args(path))).wall_s)
            data = path.read_bytes()
            self.attempted += 1
            if first is None:
                first, self.instance = data, path
            else:
                path.unlink()
                if data != first:
                    self.fail(f"gen repeat {i}", "instance file differs from the first with this seed")
        return times

    def traced_setup(self) -> dict | None:
        """Write a file workload's instance under the tracer; None for generated workloads."""
        self.warm_up()
        if self.wl.gen_args is None:
            return None
        path = self.workdir / "instance0.txt"
        spans = self.next_spans_path()
        self.setup_child(self.traced(spans, *self.gen_args(path)))
        self.instance = path
        return json.loads(spans.read_text())

    # -- measurement ---------------------------------------------------------

    def time_left_for(self, iteration_s: float) -> bool:
        return time.monotonic() + iteration_s < self.deadline

    def measure(self, seconds: float) -> tuple[dict, dict]:
        setup = self.setup()
        walls, rss = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            child = self.spawn(self.cli(*self.run_args()))
            if self.check_run(child, f"run {len(walls)}"):
                walls.append(child.wall_s)
                rss.append(child.rss_mib)
            if time.monotonic() - start >= seconds or not self.time_left_for(time.monotonic() - t0):
                break
        rows = self.rows or []
        metrics = {
            "run_s": statistics.median(walls) if walls else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "ratio_mean": _mean(int(r["output_size"]) / int(r["planted_size"]) for r in rows),
            "queries_per_trial": _mean(int(r["total_queries"]) for r in rows),
            "ok_frac": 1.0 - self.failed / self.attempted,
        }
        samples = {"run_s": walls, "setup_s": setup, "peak_rss_mb": rss}
        return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, samples

    def measure_traced(self, seconds: float) -> tuple[dict, dict]:
        setup_spans = self.traced_setup()
        plain, traced, per_run = [], [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            child = self.spawn(self.cli(*self.run_args()))
            if self.check_run(child, f"untraced run {len(plain)}"):
                plain.append(child.wall_s)
            spans_path = self.next_spans_path()
            child = self.spawn(self.traced(spans_path, *self.run_args()))
            if self.check_run(child, f"traced run {len(traced)}"):
                spans = json.loads(spans_path.read_text())
                problem = self.check_spans(spans)
                if problem:
                    self.fail(f"traced run {len(traced)}", problem)
                else:
                    traced.append(child.wall_s)
                    per_run.append(layer_metrics(spans, child.wall_s))
            if time.monotonic() - start >= seconds or not self.time_left_for(time.monotonic() - t0):
                break
        units = dict(PER_LAYER_UNITS, **(FILE_IO_UNITS if setup_spans is not None else {}))
        metrics = {name: 0.0 for name in units}
        if per_run:
            for name in units.keys() & per_run[0].keys():
                metrics[name] = statistics.median(m[name] for m in per_run)
        if setup_spans is not None:
            metrics["instances.write_s"] = _span_s(setup_spans, "instances.write")
            metrics["instances.setup_gen_s"] = _span_s(setup_spans, "instances.gen")
        if plain and traced:
            metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        samples = {"run_s": plain, "traced_run_s": traced}
        return {k: (v, units[k]) for k, v in metrics.items()}, samples

    def check_spans(self, spans: dict) -> str | None:
        """The traced layers must account for the CSV: one trial span per row, same queries."""
        stats = spans["stats"]
        trials = stats.get("harness.trial", {}).get("calls", 0)
        if trials != self.wl.trials:
            return f"{trials} harness.trial spans, expected {self.wl.trials}"
        queries = stats.get("oracle.query", {}).get("queries", 0)
        expected = sum(int(r["total_queries"]) for r in self.rows or [])
        if queries != expected:
            return f"oracle spans counted {queries} queries, the CSV {expected}"
        return None


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _span_s(spans: dict, name: str, key: str = "ns") -> float:
    return spans["stats"].get(name, {}).get(key, 0) / 1e9


def layer_metrics(spans: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced ``noisymis run`` process."""
    stats = spans["stats"]

    def s(name: str, key: str = "ns") -> float:
        return _span_s(spans, name, key)

    def count(name: str, key: str = "calls") -> int:
        return stats.get(name, {}).get(key, 0)

    def layer_self(layer: str) -> float:
        return sum(v["self_ns"] for k, v in stats.items() if k.startswith(layer + ".")) / 1e9

    read_s = s("instances.read")
    rounds = count("bandit.elim")
    unchanged = count("bandit.elim", "unchanged")
    return {
        "instances.gen_s": s("instances.gen"),
        "instances.gen_self_s": s("instances.gen", "self_ns"),
        "instances.gen_calls": count("instances.gen"),
        "instances.read_s": read_s,
        "instances.read_self_s": s("instances.read", "self_ns"),
        "instances.read_mb_per_s": count("instances.read", "bytes") / 1e6 / read_s if read_s else 0.0,
        "graph.build_s": s("graph.build"),
        "graph.build_calls": count("graph.build"),
        "graph.build_pairs": count("graph.build", "pairs"),
        "graph.induce_s": s("graph.induce"),
        "graph.induce_calls": count("graph.induce"),
        "graph.cover_s": s("graph.cover"),
        "graph.cover_calls": count("graph.cover"),
        "graph.greedy_s": s("graph.greedy"),
        "graph.indep_s": s("graph.indep"),
        "graph.indep_calls": count("graph.indep"),
        "oracle.setup_s": s("oracle.setup"),
        "oracle.query_s": s("oracle.query"),
        "oracle.query_calls": count("oracle.query"),
        "oracle.queries": count("oracle.query", "queries"),
        "persistent.run_s": s("persistent.run"),
        "persistent.self_s": layer_self("persistent"),
        "bandit.run_s": s("bandit.run"),
        "bandit.run_calls": count("bandit.run"),
        "bandit.rounds": rounds,
        "bandit.elim_s": s("bandit.elim"),
        "bandit.cover_complement_s": s("bandit.cover_complement"),
        "bandit.self_s": layer_self("bandit"),
        "bandit.unchanged_rounds": unchanged,
        "bandit.unchanged_round_frac": unchanged / rounds if rounds else 0.0,
        "baselines.amplify_s": s("baselines.amplify"),
        "baselines.amplify_self_s": s("baselines.amplify", "self_ns"),
        "harness.trial_s": s("harness.trial"),
        "harness.trial_calls": count("harness.trial"),
        "harness.self_s": layer_self("harness"),
        "cli.import_s": spans["import_ns"] / 1e9,
        "cli.total_s": spans["main_ns"] / 1e9,
        "trace.coverage_frac": (spans["import_ns"] + spans["covered_ns"]) / 1e9 / wall_s,
    }


# -- the stamp -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own ``.git``, read directly; ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over the package sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "noisymis").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stamp(session: Session, args, samples: dict) -> dict:
    return {
        "workload": session.wl.name,
        "seed": session.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "n": session.n,
        "trials_per_run": session.wl.trials,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": session.numpy_version,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "samples": samples,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seed of the instance and the trials")
    parser.add_argument("--seconds", type=float, required=True, help="keep starting runs until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced runs")
    parser.add_argument("--tiny", action="store_true", help="shrink n (smoke test only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "noisymis" / "cli.py").is_file():
        _log(f"no noisymis sources under {SRC}; run from a full checkout")
        return 2
    session = Session(WORKLOADS[args.workload], args.seed, args.tiny)
    session.workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, samples = session.measure_traced(args.seconds)
        else:
            metrics, samples = session.measure(args.seconds)
    except BenchError as exc:
        _log(str(exc))
        return 1
    finally:
        shutil.rmtree(session.workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"bench": stamp(session, args, samples)}))
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
