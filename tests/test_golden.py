"""Golden outputs of every solver over a seed sweep, asserted bit for bit.

``tests/data/golden.json`` holds sets, round traces, query totals and ledger
digests recorded before vertex sets moved to arrays inside the library.  Any
change to how sets are represented must reproduce them exactly: the same
oracle calls in the same order, so the same RNG stream and the same results.

To re-record after a deliberate change of behaviour::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from noisymis.bandit import BanditParams, cover_complement, elimination_round, run_bandit
from noisymis.baselines import AmplifyParams, run_amplify
from noisymis.graph import greedy_mis, vertex_cover_2approx
from noisymis.instances import gen_planted_bounded_degree, gen_planted_gnp
from noisymis.oracle import (
    BANDIT_BERNOULLI,
    BANDIT_GAUSSIAN,
    PERSISTENT_KWISE,
    PERSISTENT_RANDOM,
    OracleConfig,
    make_oracle,
)
from noisymis.persistent import PersistentParams, run_persistent

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"


def _instances():
    for s in range(4):
        yield f"gnp300-s{s}", gen_planted_gnp(300, 0.4, 0.03, seed=s, ensure_maximal=s % 2 == 0)
    for s in range(3):
        yield f"bd400-s{s}", gen_planted_bounded_degree(400, 0.3, 6, seed=10 + s)
    yield "gnp512-dense", gen_planted_gnp(512, 0.2, 0.08, seed=20)


def _ids(s) -> list[int]:
    return sorted(int(v) for v in s)


def _ledger(o) -> dict:
    per_vertex = o.ledger.per_vertex
    return {
        "total": int(o.total_queries),
        "max": int(per_vertex.max()) if per_vertex.size else 0,
        "sha256": hashlib.sha256(per_vertex.astype("<i8").tobytes()).hexdigest(),
    }


def _next_draw(o) -> int | float:
    """The oracle's next fresh answer, which pins the RNG stream position."""
    if o.config.mode == BANDIT_GAUSSIAN:
        return float(o.query_reward_sums(np.array([0]), 4)[0])
    return int(o.query_yes_counts(np.array([0]), 1000)[0])


def _bandit_case(g, o, params, initial):
    result = run_bandit(g, o, params, initial=initial)
    return {
        "independent_set": _ids(result.independent_ids),
        "best_round": result.best_round,
        "total_queries": result.total_queries,
        "terminated_reason": result.terminated_reason,
        "trace": [dataclasses.asdict(rec) for rec in result.trace],
        "ledger": _ledger(o),
        "next_draw": _next_draw(o),
    }


def compute() -> dict:
    """Every recorded output, keyed by a readable case name."""
    out: dict[str, object] = {}
    rng = np.random.default_rng(2024)
    for name, inst in _instances():
        g = inst.graph
        n = g.n
        out[f"{name}/greedy"] = _ids(greedy_mis(g))
        out[f"{name}/greedy-random-order"] = _ids(greedy_mis(g, rng.permutation(n)))
        out[f"{name}/cover"] = _ids(vertex_cover_2approx(g))
        for i, frac in enumerate((0.2, 0.5, 0.9, 1.0)):
            subset = frozenset(np.flatnonzero(rng.random(n) < frac).tolist())
            out[f"{name}/cover_complement-{i}"] = _ids(cover_complement(g, subset))
        out[f"{name}/cover_complement-planted-plus"] = _ids(
            cover_complement(g, np.union1d(inst.planted_ids, np.arange(0, n, 7)))
        )

        for mode in (BANDIT_BERNOULLI, BANDIT_GAUSSIAN):
            o = make_oracle(inst, OracleConfig(epsilon=0.2, mode=mode, seed=n + 1))
            kept = elimination_round(frozenset(range(n)), o, 9)
            kept2 = elimination_round(np.union1d(kept, np.arange(0, n, 5)), o, 4)
            out[f"{name}/elimination/{mode}"] = {
                "first": _ids(kept),
                "second": _ids(kept2),
                "ledger": _ledger(o),
                "next_draw": _next_draw(o),
            }

        for mode in (BANDIT_BERNOULLI, BANDIT_GAUSSIAN):
            for eps, delta in ((0.25, 0.1), (0.15, 0.3)):
                params = BanditParams(delta=delta)
                for label, initial in (
                    ("all", None),
                    ("subset", frozenset(v for v in range(n) if v % 3)),
                    ("range", range(n // 2, n)),
                ):
                    o = make_oracle(inst, OracleConfig(epsilon=eps, mode=mode, seed=7 * n + len(label)))
                    out[f"{name}/bandit/{mode}/eps{eps}-delta{delta}/{label}"] = _bandit_case(g, o, params, initial)

        for mode, params in (
            (PERSISTENT_RANDOM, PersistentParams()),
            (PERSISTENT_RANDOM, PersistentParams(low_degree_cutoff_coeff=0.5)),
            (PERSISTENT_RANDOM, PersistentParams(low_degree_cutoff_coeff=0.5, greedy_order="degree")),
            (PERSISTENT_KWISE, PersistentParams(low_degree_cutoff_coeff=0.5, greedy_order="random", order_seed=3)),
        ):
            o = make_oracle(inst, OracleConfig(epsilon=0.3, mode=mode, seed=n + 5))
            report = run_persistent(g, o, params)
            key = f"{name}/persistent/{mode}/{params.low_degree_cutoff_coeff}-{params.greedy_order}"
            out[key] = {
                "independent_set": _ids(report.independent_ids),
                "low_degree": _ids(np.flatnonzero(report.low_degree_mask)),
                "surviving": _ids(np.flatnonzero(report.surviving_mask)),
                "yes_counts_sha256": hashlib.sha256(report.yes_counts.astype("<i8").tobytes()).hexdigest(),
                "ledger": _ledger(o),
            }

    amplify_cases = [
        ("gnp300-small", gen_planted_gnp(300, 0.6, 0.02, seed=30, ensure_maximal=True), AmplifyParams(rounds=2, reps_per_round=5), 0.25),
        ("bd400-small", gen_planted_bounded_degree(400, 0.5, 3, seed=31), AmplifyParams(rounds=3, reps_per_round=4, final_queries=9), 0.2),
    ]
    for s in range(2):
        n = 512
        inst = gen_planted_gnp(n, 1.0 - 1.0 / math.log(n), 0.01, seed=40 + s, ensure_maximal=True)
        amplify_cases.append((f"gnp512-analyzed-s{s}", inst, AmplifyParams(), 0.25))
    for name, inst, params, eps in amplify_cases:
        g = inst.graph
        o = make_oracle(inst, OracleConfig(epsilon=eps, mode=BANDIT_BERNOULLI, seed=g.n + 9))

        def base(residual, g=g, o=o):
            return run_bandit(g, o, BanditParams(delta=0.1), initial=residual).independent_ids

        promoted = run_amplify(base, o, g.n, params)
        out[f"amplify/{name}"] = {"output": _ids(promoted), "ledger": _ledger(o), "next_draw": _next_draw(o)}
    return out


EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def outputs():
    return compute()


@pytest.mark.parametrize("group", sorted({case.split("/")[0] for case in EXPECTED}))
def test_matches_golden(outputs, group):
    cases = [case for case in EXPECTED if case.split("/")[0] == group]
    for case in sorted(cases):
        assert json.loads(json.dumps(outputs[case])) == EXPECTED[case], case


def test_golden_covers_every_case(outputs):
    assert sorted(outputs) == sorted(EXPECTED)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
