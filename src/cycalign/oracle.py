"""Simulated faulty oracle for pairwise-difference queries.

The oracle hides a ground-truth labeling and answers a query on the
unordered pair {i, j} (canonically i < j) with

    (truth(i) - truth(j) + noise) mod k

where the noise draw is 0 with probability 1/k + delta and each nonzero
value with probability 1/k - delta/(k-1).

Noise is derived statelessly from (rng_seed, i, j) with a SplitMix64-style
mixer, so a transcript depends only on the seed and the set of pairs,
never on query order. This keeps any split of a plan into chunks, and
any parallel schedule, byte-for-byte reproducible.

An oracle answers one plan. Algorithm 1 is non-adaptive: its whole
query set is fixed before any answer is seen, so it is one plan, and a
second plan on the same oracle is an error whatever pairs it holds.
The oracle keeps no history of pairs, only the size of the plan it
answered.

The oracle never asks which form a plan has (see core): it answers
the plan's tiles, pair arrays (lo, hi) that broadcast together, in the
plan's order, from g[lo] - g[hi] and the noise of the broadcast pairs,
into one answer array. A tile of a seed x rest plan is a column of
seed rows against the row of rest nodes, so on that path no pair
array is gathered or built. The noise of a pair depends only on its
(i, j), so a pair's answer is the same in any plan answered by an
oracle with the same seed.

Answers are written straight into the transcript's compact answer type
(int8 up to k = 127) and handed over, so the transcript is the plan
plus that array, kept without a copy.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Labeling,
    NoiseParams,
    QueryPlan,
    QueryTranscript,
    _answer_dtype,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Pairs answered per tile: the hash and noise temporaries of a tile
# stay in cache instead of each streaming a full plan-sized array.
_BLOCK = 1 << 16


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer; wraps mod 2^64. z itself is not modified."""
    z = z ^ (z >> np.uint64(30))  # a new array: the rest updates it in place
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def pair_uniform(seed: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Deterministic uniform [0, 1) variate per (seed, lo, hi) triple."""
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        key = (lo.astype(np.uint64) << np.uint64(32)) ^ hi.astype(np.uint64)
        h = _mix64(base + _mix64(key + _GOLDEN))
    return (h >> np.uint64(11)) * 2.0**-53


def noise_from_uniform(u: np.ndarray, k: int, delta: float) -> np.ndarray:
    """Map uniform [0, 1) variates to noise values by inverse CDF.

    Value 0 owns the mass 1/k + delta; the remaining mass is split
    evenly over 1 .. k-1. delta = 0 is permitted here (uniform noise);
    parameter validation happens in NoiseParams.
    """
    u = np.asarray(u, dtype=np.float64)
    p_zero = 1.0 / k + delta
    if p_zero >= 1.0:
        return np.zeros(u.shape, dtype=np.int64)
    step = (1.0 - p_zero) / (k - 1)
    nonzero = 1 + np.minimum(
        ((u - p_zero) / step).astype(np.int64), np.int64(k - 2)
    )
    return np.where(u < p_zero, np.int64(0), nonzero)


def sample_noise(params: NoiseParams, rng: np.random.Generator,
                 size: int | tuple[int, ...] | None = None) -> int | np.ndarray:
    """Draw noise values from the zero-biased law using a numpy Generator."""
    vals = noise_from_uniform(rng.random(size), params.k, params.delta)
    return int(vals) if size is None else vals


class FaultyOracle:
    """Answers one plan of pairwise-difference queries about a hidden labeling.

    Parameters
    ----------
    truth : Labeling
        Hidden ground truth; never exposed by the oracle.
    params : NoiseParams
        Noise law for the answers.
    rng_seed : int
        64-bit seed; together with the pair it fully determines each
        noise draw.
    noiseless : bool
        Test mode forcing every noise draw to 0, which makes answers
        exact differences.
    """

    def __init__(self, truth: Labeling, params: NoiseParams, rng_seed: int,
                 noiseless: bool = False):
        if truth.k != params.k:
            raise ValueError(f"truth has k={truth.k} but params.k={params.k}")
        self._truth = truth
        self.params = params
        self.rng_seed = int(rng_seed)
        self.noiseless = bool(noiseless)
        # (a mod k) at index a + k for every a in [-k, 2k), in the
        # transcript's answer type: a lookup is ~4x cheaper than the
        # integer division of %
        self._residues = (np.arange(-self.k, 2 * self.k) % self.k).astype(
            _answer_dtype(self.k))
        self._answered: int | None = None  # size of the answered plan, None before it

    @property
    def n(self) -> int:
        return self._truth.n

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def query_count(self) -> int:
        return self._answered or 0

    def execute_plan(self, plan: QueryPlan) -> QueryTranscript:
        """Answer every pair in the plan and return their transcript.

        An oracle answers one plan: a second call raises ValueError and
        changes nothing. The query count becomes len(plan).
        """
        if plan.n != self.n:
            raise ValueError(f"plan is for n={plan.n}, oracle has n={self.n}")
        if self._answered is not None:
            raise ValueError(f"oracle already answered a plan of {self._answered} "
                             "pairs; an oracle answers one plan")
        g = self._truth.labels
        out = np.empty(len(plan), dtype=self._residues.dtype)
        at = 0
        for lo, hi in plan._tiles(_BLOCK):
            d = g[lo] - g[hi]  # in (-k, k)
            if not self.noiseless:
                d += noise_from_uniform(pair_uniform(self.rng_seed, lo, hi),
                                        self.k, self.params.delta)  # now in (-k, 2k)
            d += self.k
            out[at:at + d.size] = self._residues[d].reshape(-1)
            at += d.size
        self._answered = len(plan)
        return QueryTranscript._from_plan(plan, self.k, out)
