#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny size, both modes.

Usage, from the root of the repository::

    python3 bench/smoke.py

For each workload of ``run.py``, including file-bandit, which
``BENCHMARK.json`` does not list, runs ``run.py --tiny`` once untraced and
once traced. Checks that the run exits 0 with a correct result, that the
metrics are exactly the ones ``BENCHMARK.json`` names (end-to-end untraced,
per-layer traced, plus the file I/O metrics on a file workload) with the
units it gives, and that every ``*_self_s`` is at least 0.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import FILE_IO_UNITS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def check(spec: dict, workload: str, trace: int) -> list[str]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1"]
    argv += ["--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}: {proc.stderr.strip()[-500:]}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace and WORKLOADS[workload].gen_args is not None:
        expected.update(FILE_IO_UNITS)
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}")
    for name, metric in metrics.items():
        if name in expected and metric["unit"] != expected[name]:
            problems.append(f"{where}: {name} has unit {metric['unit']!r}, BENCHMARK.json says {expected[name]!r}")
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number: {metric['value']!r}")
        elif name.endswith("_self_s") and metric["value"] < 0:
            problems.append(f"{where}: {name} = {metric['value']} < 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
