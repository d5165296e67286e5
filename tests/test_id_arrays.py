"""Every public function that returns a vertex set returns an ascending int64 id array.

The expected ids are the sets these calls returned when the library still
handed out frozensets, so the move to arrays changed no result.
"""

import numpy as np
import pytest

from noisymis import (
    AmplifyParams,
    BanditParams,
    OracleConfig,
    SamplerParams,
    cover_complement,
    elimination_round,
    exact_mis,
    gen_planted_gnp,
    greedy_mis,
    make_oracle,
    run_amplify,
    run_bandit,
    run_persistent,
    run_sampler,
    vertex_cover_2approx,
)

INST = gen_planted_gnp(40, 0.4, 0.1, seed=3)
G = INST.graph
SMALL = gen_planted_gnp(16, 0.4, 0.3, seed=4).graph


def bern(seed):
    return make_oracle(INST, OracleConfig(epsilon=0.25, mode="bandit-bernoulli", seed=seed))


def amplify():
    oracle = bern(6)

    def base(residual):
        return run_bandit(G, oracle, BanditParams(delta=0.1), initial=residual).independent_ids

    return run_amplify(base, oracle, G.n, AmplifyParams(rounds=2, reps_per_round=3))


def persistent():
    oracle = make_oracle(INST, OracleConfig(epsilon=0.25, mode="persistent-random", seed=5))
    return run_persistent(G, oracle).independent_ids


CASES = {
    "greedy_mis": (lambda: greedy_mis(G), [0, 2, 3, 4, 5, 6, 8, 9, 11, 12, 16, 20, 21, 23, 24, 25, 29, 30, 33, 34, 39]),
    "greedy_mis-order": (
        lambda: greedy_mis(G, list(range(G.n))[::-1]),
        [12, 13, 14, 15, 16, 17, 20, 22, 23, 24, 25, 26, 30, 31, 32, 33, 34, 35, 36, 38, 39],
    ),
    "vertex_cover_2approx": (
        lambda: vertex_cover_2approx(G),
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 15, 16, 17, 18, 19, 21, 22, 24, 27, 28, 30, 32, 34, 35, 36, 37],
    ),
    "exact_mis": (lambda: exact_mis(SMALL), [0, 1, 2, 4, 7, 10, 12, 13]),
    "elimination_round": (lambda: elimination_round(range(0, 40, 3), bern(1), 5), [9, 12, 21, 30, 33]),
    "cover_complement": (lambda: cover_complement(G, range(0, 40, 2)), [12, 14, 20, 24, 26, 30, 32, 34]),
    "run_sampler": (lambda: run_sampler(G.n, bern(2), SamplerParams(sample_prob=0.5), seed=3), [4, 12, 20, 22, 23, 30]),
    "run_amplify": (amplify, [2, 3, 4, 11, 12, 17, 20, 21, 22, 23, 25, 29, 30, 32, 33, 38]),
    "run_bandit": (
        lambda: run_bandit(G, bern(4), BanditParams(delta=0.1)).independent_ids,
        [2, 3, 4, 11, 12, 17, 20, 21, 22, 23, 25, 29, 30, 32, 33, 38],
    ),
    "run_persistent": (persistent, [0, 2, 3, 4, 5, 6, 8, 9, 11, 12, 16, 20, 21, 23, 24, 25, 29, 30, 33, 34, 39]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_vertex_sets_come_back_as_ascending_int64_id_arrays(case):
    call, expected = CASES[case]
    out = call()
    assert isinstance(out, np.ndarray) and out.dtype == np.int64 and out.ndim == 1
    assert np.all(np.diff(out) > 0)
    assert out.tolist() == expected


def test_amplify_base_cannot_write_into_its_residual():
    def base(residual):
        residual[0] = residual[-1]
        return residual

    with pytest.raises(ValueError, match="read-only"):
        run_amplify(base, bern(7), G.n, AmplifyParams(rounds=1, reps_per_round=1, final_queries=1))
