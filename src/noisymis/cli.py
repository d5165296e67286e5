"""Command line front end.

Subcommands::

    noisymis gen     write a planted instance to a file
    noisymis run     run an algorithm over seeded trials, emit CSV records
    noisymis exact   brute-force optimum of a small instance
    noisymis verify  check a vertex set against an instance
    noisymis stats   summarize a record CSV, or Monte Carlo a tail event

Exit codes: 0 on success, 1 on a validation or runtime failure (message on
stderr), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from .graph import exact_mis, is_independent_set
from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    aggregate,
    records_from_csv,
    records_to_csv,
    run_experiment,
)
from .instances import gen_planted_bounded_degree, gen_planted_gnp, read_instance, write_instance
from .montecarlo import EVENT_BUILDERS, estimate_tail

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisymis",
        description="Planted independent set recovery with noisy membership oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a planted instance file")
    p_gen.add_argument("--n", type=int, required=True, help="number of vertices")
    p_gen.add_argument("--alpha", type=float, required=True, help="planted fraction in (0, 1)")
    group = p_gen.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float, help="G(n, p) edge probability outside the planted set")
    group.add_argument("--d", type=int, help="distinct neighbors each outside vertex picks, instead of G(n, p)")
    p_gen.add_argument("--maximal", action="store_true", help="wire orphan outside vertices into the planted set (gnp only)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output path")

    p_run = sub.add_parser("run", help="run seeded trials and emit one CSV record per trial")
    p_run.add_argument("--config", help="JSON experiment config; flags below override its fields")
    p_run.add_argument("--algo", choices=ALGORITHMS)
    p_run.add_argument("--instance", help="read the instance from this file instead of generating")
    p_run.add_argument("--n", type=int)
    p_run.add_argument("--alpha", type=float)
    p_run.add_argument("--p", type=float)
    p_run.add_argument("--d", type=int)
    p_run.add_argument("--maximal", action="store_true", default=None)
    p_run.add_argument("--eps", type=float, help="oracle advantage in (0, 1/2]")
    p_run.add_argument("--delta", type=float, help="failure budget for the adaptive algorithm")
    p_run.add_argument("--mode", help="oracle mode (defaults to the algorithm's native mode)")
    p_run.add_argument("--k", type=int, help="independence order for the k-wise oracle")
    p_run.add_argument("--seed", type=int, help="base seed for trial derivation")
    p_run.add_argument("--trials", type=int)
    p_run.add_argument("--workers", type=int)
    p_run.add_argument("--out", help="also write the CSV here")
    p_run.add_argument("--json", action="store_true", help="print the aggregate summary as JSON instead of CSV rows")
    p_run.add_argument("--trace", action="store_true", help="print per-round traces (adaptive) or filter stats (one-shot) to stderr")
    p_run.add_argument(
        "--debug-dump",
        metavar="PATH",
        help="write a per-vertex CSV (seed,v,deg,yes_count,threshold,in_low,in_surviving); persistent algorithm only",
    )

    p_exact = sub.add_parser("exact", help="brute-force optimum of a small instance file")
    p_exact.add_argument("--instance", required=True)

    p_verify = sub.add_parser("verify", help="check a vertex set against an instance")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--set", required=True, dest="vertex_set", help="comma-separated vertex ids, or a file with one id per line")

    p_stats = sub.add_parser("stats", help="summarize a record CSV or estimate a tail probability")
    p_stats.add_argument("--input", help="record CSV written by 'run'")
    p_stats.add_argument("--threshold", type=float, help="ratio threshold for the pass rate column")
    p_stats.add_argument("--mc", choices=sorted(EVENT_BUILDERS), help="Monte Carlo event to estimate instead of reading a CSV")
    p_stats.add_argument("--trials", type=int, default=100_000)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--eps", type=float)
    p_stats.add_argument("--n", type=int)
    p_stats.add_argument("--deg", type=int)
    p_stats.add_argument("--blockers", type=int, help="planted neighbors of the non-member (filter-blocker)")
    p_stats.add_argument("--round", type=int)
    p_stats.add_argument("--delta", type=float)
    p_stats.add_argument("--prob", type=float, help="success probability for the plain coin event")

    return parser


def _check_maximal(maximal, generator: str) -> None:
    """Reject ``--maximal`` for any generator but gnp, before anything is generated."""
    if maximal and generator != "gnp":
        raise ValueError("--maximal only applies to --p instances")


def _cmd_gen(args) -> int:
    _check_maximal(args.maximal, "bounded-degree" if args.d is not None else "gnp")
    if args.d is not None:
        instance = gen_planted_bounded_degree(args.n, args.alpha, args.d, seed=args.seed)
    else:
        instance = gen_planted_gnp(args.n, args.alpha, args.p, seed=args.seed, ensure_maximal=args.maximal)
    write_instance(instance, args.out)
    print(f"wrote {args.out}: n={instance.graph.n} m={instance.graph.m} planted={instance.planted_ids.size}")
    return 0


def _run_config_from_args(args) -> ExperimentConfig:
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
    if args.algo:
        base["algorithm"] = args.algo
    if args.instance:
        base["instance"] = {"path": args.instance}
    gen_keys = {"n": args.n, "alpha": args.alpha, "p": args.p, "d": args.d, "ensure_maximal": args.maximal}
    given = {k: v for k, v in gen_keys.items() if v is not None}
    if given:
        spec = _config_block(base, "instance")
        if "path" in spec:
            raise ValueError("generator flags conflict with a file-backed instance")
        spec.update(given)
        spec.setdefault("generator", "bounded-degree" if args.d is not None else "gnp")
        _check_maximal(args.maximal, spec["generator"])
        base["instance"] = spec
    oracle_keys = {"epsilon": args.eps, "mode": args.mode, "k": args.k}
    oracle = {k: v for k, v in oracle_keys.items() if v is not None}
    if oracle:
        base["oracle"] = {**_config_block(base, "oracle"), **oracle}
    if args.delta is not None:
        base["params"] = {**_config_block(base, "params"), "delta": args.delta}
    top_keys = {"seed_base": args.seed, "trials": args.trials, "workers": args.workers, "output": args.out}
    base.update({k: v for k, v in top_keys.items() if v is not None})
    if "algorithm" not in base:
        raise ValueError("no algorithm given; pass --algo or a --config file")
    if "instance" not in base:
        raise ValueError("no instance source given; pass --instance, generator flags, or a --config file")
    return ExperimentConfig.from_dict(base)


def _config_block(base: dict, key: str) -> dict:
    """A copy of the config's ``key`` object, for flags to update."""
    block = base.get(key, {})
    if not isinstance(block, dict):
        raise ValueError(f"config key {key!r} must be a JSON object")
    return dict(block)


def _print_trace(detail, seed: int) -> None:
    if hasattr(detail, "trace"):  # adaptive elimination
        for rr in detail.trace:
            print(
                f"# seed={seed} round={rr.r} q={rr.q} survivors={rr.survivors_before}->{rr.survivors_after}"
                f" cover={rr.cover_size} candidate={rr.candidate_size} queries={rr.cumulative_queries}",
                file=sys.stderr,
            )
        print(f"# seed={seed} best_round={detail.best_round} reason={detail.terminated_reason}", file=sys.stderr)
    elif hasattr(detail, "stats"):  # one-shot filter
        pairs = " ".join(f"{k}={v}" for k, v in sorted(detail.stats.items()))
        print(f"# seed={seed} {pairs}", file=sys.stderr)


def _dump_filter_details(details: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("seed,v,deg,yes_count,threshold,in_low,in_surviving\n")
        for seed, report in details.items():
            columns = (report.degrees, report.yes_counts, report.thresholds)
            columns += (report.low_degree_mask, report.surviving_mask)
            for v, (deg, yes, threshold, low, surviving) in enumerate(zip(*(c.tolist() for c in columns))):
                fh.write(f"{seed},{v},{deg},{yes},{threshold!r},{str(low).lower()},{str(surviving).lower()}\n")


def _cmd_run(args) -> int:
    config = _run_config_from_args(args)
    if args.debug_dump and config.algorithm != "persistent":
        raise ValueError("--debug-dump only applies to the persistent algorithm")
    if args.trace or args.debug_dump:
        records, details = run_experiment(config, collect_details=True)
        if args.trace:
            for s, detail in details.items():
                _print_trace(detail, s)
        if args.debug_dump:
            _dump_filter_details(details, args.debug_dump)
    else:
        records = run_experiment(config)
    if args.json:
        summary = aggregate(records)
        print(json.dumps(summary.__dict__, indent=2, sort_keys=True))
    else:
        sys.stdout.write(records_to_csv(records))
    return 0


def _cmd_exact(args) -> int:
    instance = read_instance(args.instance)
    best = exact_mis(instance.graph)
    print(f"size={len(best)}")
    print("set=" + ",".join(map(str, best.tolist())))
    return 0


def _parse_vertex_set(text: str) -> list[int]:
    """Ids in the order given, from the file ``text``, one per line, or else from ``text`` as a comma-separated list."""
    try:
        with open(text) as fh:
            items = [(f"{text}:{lineno}", line) for lineno, line in enumerate(fh, start=1)]
    except OSError:
        items = [("--set", tok) for tok in text.split(",")]
    ids = []
    for where, token in items:
        if token.strip():
            try:
                ids.append(int(token))
            except ValueError:
                raise ValueError(f"{where}: expected an integer vertex id, got {token.strip()!r}") from None
    return ids


def _cmd_verify(args) -> int:
    instance = read_instance(args.instance)
    ids = _parse_vertex_set(args.vertex_set)
    bad = [v for v in ids if not 0 <= v < instance.graph.n]
    if bad:
        print(f"vertex {bad[0]} out of range for n={instance.graph.n}", file=sys.stderr)
        return 1
    vertices = set(ids)
    if not is_independent_set(instance.graph, vertices):
        print("not independent", file=sys.stderr)
        return 1
    inside = len(vertices.intersection(instance.planted_ids.tolist()))
    print(f"independent: size={len(vertices)} planted_overlap={inside}/{instance.planted_ids.size}")
    return 0


# the stats flag that sets each Monte Carlo builder parameter; its argparse dest is the flag's name
_MC_FLAGS = {"p": "--prob", "deg": "--deg", "k": "--blockers", "epsilon": "--eps", "n": "--n", "r": "--round", "delta": "--delta"}


def _cmd_stats(args) -> int:
    if (args.mc is None) == (args.input is None):
        raise ValueError("pass exactly one of --input or --mc")
    if args.input:
        records = records_from_csv(args.input)
        summary = aggregate(records, ratio_threshold=args.threshold)
        print(json.dumps(summary.__dict__, indent=2, sort_keys=True))
        return 0
    builder = EVENT_BUILDERS[args.mc]
    # the event needs each of its builder's parameters that has no default
    required = [p.name for p in inspect.signature(builder).parameters.values() if p.default is p.empty]
    kwargs = {name: getattr(args, _MC_FLAGS[name][2:]) for name in required}
    missing = [_MC_FLAGS[k] for k, v in kwargs.items() if v is None]
    if missing:
        raise ValueError(f"--mc {args.mc} needs: {', '.join(sorted(missing))}")
    sampler = builder(**kwargs)
    p_hat, half_width = estimate_tail(sampler, trials=args.trials, seed=args.seed)
    print(json.dumps({"event": args.mc, "trials": args.trials, "p_hat": p_hat, "ci99_half_width": half_width}))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "exact": _cmd_exact,
    "verify": _cmd_verify,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
