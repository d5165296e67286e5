"""Noisy vertex-membership oracles with exact query accounting.

An oracle answers "is v in the hidden independent set?" correctly with
probability ``1/2 + epsilon``, independently across vertices.  Persistent
modes fix one answer per vertex (lazily, from a counter-mode hash keyed by
seed and vertex id, so untouched vertices cost nothing); bandit modes draw
fresh noise on every query.  Every query is counted in a ledger, including
the ones issued through the batch entry points.

Confine each instance to a single trial: the ledger and the internal RNG
mutate under queries.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass

import numpy as np

from .graph import _int_ids, _member_mask
from .graph import is_independent_set  # noqa: F401  (bench/traced.py times calls through this binding)
from .schema import _NONNEGATIVE, _UP_TO_HALF, _check_types, _one_of

__all__ = [
    "ADVANTAGE_CAP",
    "PERSISTENT_RANDOM",
    "PERSISTENT_KWISE",
    "BANDIT_BERNOULLI",
    "BANDIT_GAUSSIAN",
    "ORACLE_MODES",
    "ModeError",
    "OracleConfig",
    "QueryLedger",
    "Oracle",
    "make_oracle",
    "cap_flip_probability",
    "KWISE_PRIME",
    "kwise_coefficients",
    "kwise_hash",
    "kwise_answer",
]

# each mode, in order: the config fields it reads beyond epsilon and seed, answers fixed per vertex, query kinds
_Mode = typing.NamedTuple("_Mode", [("reads", tuple), ("persistent", bool), ("answers", tuple)])
ORACLE_MODES = {
    "persistent-random": _Mode(("apply_cap",), True, ("yes/no",)),
    "persistent-kwise": _Mode(("k", "apply_cap"), True, ("yes/no",)),
    "bandit-bernoulli": _Mode((), False, ("yes/no", "yes-counts")),
    "bandit-gaussian": _Mode((), False, ("reward-sums",)),
}
PERSISTENT_RANDOM, PERSISTENT_KWISE, BANDIT_BERNOULLI, BANDIT_GAUSSIAN = ORACLE_MODES

# advantage above this value is degraded back to it when capping is on
ADVANTAGE_CAP = 0.25

KWISE_PRIME = (1 << 31) - 1  # Mersenne prime field for the k-wise hash


class ModeError(RuntimeError):
    """An operation was issued against an oracle of the wrong noise mode."""


def cap_flip_probability(epsilon: float) -> float:
    """Probability of the extra error event used to cap the advantage.

    ``p = (eps - 1/4) / (1/2 + eps)``.  The capped oracle answers wrong iff
    the base oracle was wrong or this independent event fires, so its
    incorrectness is ``(1/2 - eps) + p * (1/2 + eps) = 1/4`` exactly, for
    every ``eps > 1/4``.  At ``eps = 1/2`` this is 1/4; at or below the cap
    it is 0 and the oracle is untouched.
    """
    if epsilon <= ADVANTAGE_CAP:
        return 0.0
    return (epsilon - ADVANTAGE_CAP) / (0.5 + epsilon)


@dataclass(frozen=True)
class OracleConfig:
    """Oracle description used by the harness JSON configs; an invalid one raises ``ValueError`` when built."""

    epsilon: typing.Annotated[float, _UP_TO_HALF]
    mode: typing.Annotated[str, _one_of(ORACLE_MODES)] = BANDIT_BERNOULLI
    k: int = 2
    seed: typing.Annotated[int, _NONNEGATIVE] = 0  # numpy seeds no generator from a negative integer
    apply_cap: bool = True

    def __post_init__(self):
        _check_types(OracleConfig, vars(self), "oracle")
        if "k" in ORACLE_MODES[self.mode].reads and self.k < 2:
            raise ValueError(f"k-wise mode needs k >= 2, got {self.k}")

    @property
    def effective_epsilon(self) -> float:
        """Advantage after capping (capping applies to the modes that read ``apply_cap``)."""
        if self.apply_cap and "apply_cap" in ORACLE_MODES[self.mode].reads:
            return min(self.epsilon, ADVANTAGE_CAP)
        return self.epsilon


class QueryLedger:
    """Per-vertex and total query counters."""

    __slots__ = ("per_vertex", "total")

    def __init__(self, n: int):
        self.per_vertex = np.zeros(n, dtype=np.int64)
        self.total = 0

    def record(self, verts, times: int) -> np.ndarray:
        """Count ``times`` queries of each listed id in ``range(n)``; returns the ids as an int64 array.

        A count that some vertex's int64 counter cannot hold raises ``ValueError``
        before anything is counted; a repeated id counts once per listing.
        """
        if times < 0:
            raise ValueError("query count must be nonnegative")
        if times >= 2**63:
            raise ValueError(f"query count must be < 2**63, got {times}")
        n = len(self.per_vertex)
        arr = _int_ids(verts, n)
        # a negative id reads as a huge unsigned one, so one max checks both ends
        if arr.size and arr.view(np.uint64).max() >= n:
            raise ValueError(f"vertex ids must lie in range(0, {n})")
        added = len(arr) * int(times)
        # total bounds every counter, so only a total this large needs the per-vertex check
        if self.total + added >= 2**63:
            ids, listed = np.unique(arr, return_counts=True)
            if np.any((2**63 - 1 - self.per_vertex[ids]) // listed < times):
                raise ValueError(f"{times} queries per listed id would take a vertex's query count past 2**63 - 1")
        np.add.at(self.per_vertex, arr, times)
        self.total += added
        return arr


# ---------------------------------------------------------------------------
# counter-mode randomness for persistent answers: a splitmix64-style mixer
# applied to (key, vertex id), so each vertex's bit is fixed yet never stored.

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _derive_key(seed: int, salt: int) -> np.uint64:
    base = np.uint64((int(seed) ^ (salt * 0x9E3779B97F4A7C15)) & 0xFFFFFFFFFFFFFFFF)
    return np.uint64(_mix64(base))


def _hash_uniform(key: np.uint64, verts: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in [0, 1), one per vertex id."""
    v = np.asarray(verts, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix64((v + np.uint64(1)) * _GOLDEN + key)
    return (z >> np.uint64(11)) * (2.0 ** -53)


# ---------------------------------------------------------------------------
# k-wise independent bit family: random degree-(k-1) polynomial over F_q.


def kwise_coefficients(seed: int, k: int) -> np.ndarray:
    """The k polynomial coefficients, drawn once from ``seed``."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, KWISE_PRIME, size=k, dtype=np.int64)


def kwise_hash(coeffs: np.ndarray, verts) -> np.ndarray:
    """Evaluate the polynomial at each vertex id (Horner, mod 2^31 - 1)."""
    v = np.atleast_1d(np.asarray(verts, dtype=np.int64)) % KWISE_PRIME
    acc = np.zeros_like(v)
    for c in coeffs[::-1].tolist():
        acc = (acc * v + c) % KWISE_PRIME  # products stay below 2^62
    return acc


def kwise_answer(coeffs: np.ndarray, verts, bias: float):
    """Biased bit per vertex: true iff h(v) < floor(bias * q).

    The realized bias differs from the requested one by less than 1/q due to
    threshold quantization; that error is documented and ignored.
    """
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must lie in [0, 1], got {bias}")
    threshold = math.floor(bias * KWISE_PRIME)
    out = kwise_hash(coeffs, verts) < threshold
    if np.isscalar(verts):
        return bool(out[0])
    return out


class Oracle:
    """Stateful noisy membership oracle over a fixed universe of ``n`` ids.

    ``members`` is a boolean mask of the hidden set.  Use :func:`make_oracle`
    to build one from a planted instance with validation.
    """

    def __init__(self, members: np.ndarray, config: OracleConfig):
        self._members = np.asarray(members, dtype=bool)
        self._members.setflags(write=False)
        self.n = int(len(self._members))
        self.config = config
        self.ledger = QueryLedger(self.n)
        self._mode = ORACLE_MODES[config.mode]
        if not self._mode.persistent:
            self._rng = np.random.default_rng(config.seed)
        elif "k" in self._mode.reads:  # the k-wise family, a polynomial of degree k - 1
            self._coeffs = kwise_coefficients(config.seed, config.k)
        else:
            self._key_noise = _derive_key(config.seed, 1)
            self._key_flip = _derive_key(config.seed, 2)
            self._flip_p = cap_flip_probability(config.epsilon) if config.apply_cap else 0.0

    # -- fixed persistent answers (no ledger side effects) ------------------

    def _fixed_answers(self, verts: np.ndarray) -> np.ndarray:
        truth = self._members[verts]
        if "k" in self._mode.reads:
            # the flip layer is folded into one hash threshold here: a second
            # k-wise layer would halve the independence guarantee for nothing
            wrong = kwise_answer(self._coeffs, verts, 0.5 - self.config.effective_epsilon)
        else:
            wrong = _hash_uniform(self._key_noise, verts) < (0.5 - self.config.epsilon)
            if self._flip_p > 0.0:
                # error union, not xor: a wrong answer stays wrong, so
                # incorrectness is (1/2 - eps) + p (1/2 + eps) = 1/4 exactly
                wrong = wrong | (_hash_uniform(self._key_flip, verts) < self._flip_p)
        return truth ^ wrong

    def _means(self, verts: np.ndarray) -> np.ndarray:
        """Mean of one fresh answer per vertex: ``1/2 + eps`` for members, ``1/2 - eps`` otherwise.

        It is the yes probability of a Bernoulli answer and the mean of a
        Gaussian reward.
        """
        eps = self.config.epsilon
        return np.where(self._members[verts], 0.5 + eps, 0.5 - eps)

    # -- query surface: a single query is a batch of one.  Public methods call
    # the private bodies, never each other, so a wrapper around every public
    # method (bench/traced.py) sees each query once.

    def _yes_no(self, verts) -> np.ndarray:
        """One yes/no answer per listed id; the mode is checked and the ids checked and counted first."""
        if "yes/no" not in self._mode.answers:
            raise ModeError("yes/no queries need a Bernoulli oracle; this one returns real rewards")
        arr = self.ledger.record(verts, 1)
        if self._mode.persistent:
            return self._fixed_answers(arr)
        return self._rng.random(arr.size) < self._means(arr)

    def _reward_sums(self, verts, q: int) -> np.ndarray:
        """Sums of ``q`` fresh real rewards per listed id; the mode is checked and the ids checked and counted first."""
        if "reward-sums" not in self._mode.answers:
            raise ModeError("real rewards are only available in bandit-gaussian mode")
        arr = self.ledger.record(verts, q)
        return q * self._means(arr) + math.sqrt(q) * self._rng.standard_normal(arr.size)

    def query_bool(self, v: int) -> bool:
        """One yes/no membership answer for ``v``; counts one query."""
        return bool(self._yes_no([v])[0])

    def query_bool_many(self, verts) -> np.ndarray:
        """One answer per listed vertex; counts ``len(verts)`` queries."""
        return self._yes_no(verts)

    def query_real(self, v: int) -> float:
        """One real reward: N(1/2 + eps, 1) for members, N(1/2 - eps, 1) otherwise."""
        return float(self._reward_sums([v], 1)[0])

    def query_yes_counts(self, verts, q: int) -> np.ndarray:
        """Yes-counts of ``q`` fresh queries per vertex; counts ``len(verts) * q``.

        Distributionally identical to issuing ``q`` single queries per vertex;
        only available on the non-persistent Bernoulli oracle, where repeated
        queries actually carry fresh noise.
        """
        if "yes-counts" not in self._mode.answers:
            raise ModeError("repeated querying needs the non-persistent Bernoulli oracle")
        arr = self.ledger.record(verts, q)
        low = 0.5 - self.config.epsilon
        if not 0.0 < low == 1.0 - (0.5 + self.config.epsilon):
            return self._rng.binomial(q, self._means(arr))
        # numpy draws Binomial(q, p > 1/2) as q - Binomial(q, 1 - p): when both
        # means share that inner probability, one scalar-p call makes the same
        # draws (p = 0 draws nothing, so eps = 1/2 keeps the per-vertex path)
        counts = self._rng.binomial(q, low, size=arr.size)
        np.putmask(counts, self._members[arr], q - counts)  # counts lie in [0, q]: no overflow
        return counts

    def query_reward_sums(self, verts, q: int) -> np.ndarray:
        """Sums of ``q`` fresh real rewards per vertex; counts ``len(verts) * q``."""
        return self._reward_sums(verts, q)

    @property
    def total_queries(self) -> int:
        return self.ledger.total

    def queries_for(self, v: int) -> int:
        return int(self.ledger.per_vertex[v])


def _check_k(config: OracleConfig, n: int) -> None:
    """Raise ``ValueError`` for a ``k`` above ``n`` on a mode that reads ``k``.

    A k-wise family over ``n`` ids is fully independent at ``k = n``, so a
    larger ``k`` would only cost coefficients and hash steps.  The least
    ``k``, 2, stays allowed on fewer than 2 vertices.
    """
    if "k" in ORACLE_MODES[config.mode].reads and config.k > max(n, 2):
        raise ValueError(f"oracle 'k' must be <= n = {n}, got {config.k}")


def make_oracle(instance, config: OracleConfig) -> Oracle:
    """Oracle for a planted instance; ``PlantedInstance`` has already checked that its planted set is independent.

    A persistent-kwise ``k`` above the instance's ``n`` raises ``ValueError``
    (see ``_check_k``).
    """
    _check_k(config, instance.graph.n)
    return Oracle(_member_mask(instance.graph, instance.planted_ids), config)
