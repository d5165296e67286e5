"""Run the noisymis CLI with a span around each layer's public functions.

Usage::

    python3 bench/traced.py SPANS_JSON <noisymis CLI arguments>

Each wrapped function is replaced where its caller looks it up (for example
``noisymis.harness.read_instance`` rather than ``noisymis.instances``), so
the library runs unchanged and every call from those callers is timed.
Spans are aggregated in memory per name and written to SPANS_JSON when the
CLI returns: total and self nanoseconds, call count, and per-span counters.
The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Layers that only dispatch to the others. The outermost span of any other
# layer counts towards coverage; a working layer the wrappers miss is a gap.
ORCHESTRATION = ("cli", "harness")


class Tracer:
    """Nested spans aggregated per name; self time excludes wrapped children."""

    def __init__(self):
        self.stats: dict[str, dict[str, int]] = {}
        self.covered_ns = 0
        self._stack: list[list] = []  # [layer, nanoseconds spent in child spans]

    def wrap(self, fn, name: str, count=None):
        layer = name.split(".", 1)[0]
        stat = self.stats.setdefault(name, {"ns": 0, "self_ns": 0, "calls": 0})
        stack = self._stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                stat["ns"] += dt
                stat["self_ns"] += dt - frame[1]
                stat["calls"] += 1
                if stack:
                    stack[-1][1] += dt
                if layer not in ORCHESTRATION and (not stack or stack[-1][0] in ORCHESTRATION):
                    self.covered_ns += dt
            if count is not None:
                for key, value in count(args, kwargs, out).items():
                    stat[key] = stat.get(key, 0) + value
            return out

        return wrapped


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _edge_pairs(args, kwargs, out):
    return {"pairs": len(_arg(args, kwargs, 1, "edges"))}


def _repeated_queries(args, kwargs, out):
    return {"queries": len(out) * int(_arg(args, kwargs, 2, "q"))}


def _batch_queries(args, kwargs, out):
    return {"queries": len(out)}


def _single_query(args, kwargs, out):
    return {"queries": 1}


def _unchanged_round(args, kwargs, out):
    return {"unchanged": int(len(out) == len(_arg(args, kwargs, 0, "survivors")))}


def install(tracer: Tracer) -> None:
    """Replace each layer function at the binding its callers use."""
    from noisymis import bandit, cli, harness, instances, oracle, persistent

    points = [
        (harness, "gen_planted_gnp", "instances.gen", None),
        (harness, "gen_planted_bounded_degree", "instances.gen", None),
        (cli, "gen_planted_gnp", "instances.gen", None),
        (cli, "gen_planted_bounded_degree", "instances.gen", None),
        (harness, "read_instance", "instances.read", _file_bytes),
        (cli, "write_instance", "instances.write", None),
        (instances, "build_graph", "graph.build", _edge_pairs),
        (persistent, "induced_subgraph", "graph.induce", None),
        (bandit, "induced_subgraph", "graph.induce", None),
        (bandit, "vertex_cover_2approx", "graph.cover", None),
        (persistent, "greedy_mis", "graph.greedy", None),
        (harness, "is_independent_set", "graph.indep", None),
        (oracle, "is_independent_set", "graph.indep", None),
        (instances, "is_independent_set", "graph.indep", None),
        (harness, "make_oracle", "oracle.setup", None),
        (oracle.Oracle, "query_bool", "oracle.query", _single_query),
        (oracle.Oracle, "query_real", "oracle.query", _single_query),
        (oracle.Oracle, "query_bool_many", "oracle.query", _batch_queries),
        (oracle.Oracle, "query_yes_counts", "oracle.query", _repeated_queries),
        (oracle.Oracle, "query_reward_sums", "oracle.query", _repeated_queries),
        (harness, "run_persistent", "persistent.run", None),
        (harness, "run_bandit", "bandit.run", None),
        (bandit, "elimination_round", "bandit.elim", _unchanged_round),
        (bandit, "cover_complement", "bandit.cover_complement", None),
        (harness, "run_amplify", "baselines.amplify", None),
        (harness, "run_trial", "harness.trial", None),
        (cli, "run_experiment", "harness.experiment", None),
    ]
    for owner, attr, name, count in points:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py SPANS_JSON <noisymis CLI arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter_ns()
    import noisymis.cli

    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter_ns()
    code = noisymis.cli.main(cli_args)
    main_ns = time.perf_counter_ns() - t0
    with open(spans_path, "w") as fh:
        json.dump(
            {"import_ns": import_ns, "main_ns": main_ns, "covered_ns": tracer.covered_ns, "stats": tracer.stats},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
