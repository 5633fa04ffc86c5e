"""Simulated faulty oracle for pairwise-difference queries.

The oracle hides a ground-truth labeling and answers a query on the
unordered pair {i, j} (canonically i < j) with

    (truth(i) - truth(j) + noise) mod k

where the noise draw is 0 with probability 1/k + delta and each nonzero
value with probability 1/k - delta/(k-1).

Noise is derived statelessly from (rng_seed, i, j) with the SplitMix64
finalizer mix: the seed's base is mix(rng_seed + golden), the pair's
hash mix(base + mix(((i << 32) ^ j) + golden)) mod 2^64, and its top
53 bits are a uniform u in [0, 1) that the inverse CDF of the law
turns into the noise. So a transcript depends only on the seed and
the set of pairs, never on query order. This keeps any split of a plan
into chunks, and any parallel schedule, byte-for-byte reproducible.

An oracle answers one plan. Algorithm 1 is non-adaptive: its whole
query set is fixed before any answer is seen, so it is one plan, and a
second plan on the same oracle is an error whatever pairs it holds.
The oracle keeps no history of pairs, only the size of the plan it
answered.

Every answer comes from one kernel, _answer_rows, which answers one
plan for a stack of T oracles under the same noise law, one row of
answers per oracle. FaultyOracle.execute_plan is its one-row call; the
small-instance MLE check answers a batch of trials with one call. The
kernel never asks which form a plan has (see core): it answers the
plan's tiles, pair arrays (lo, hi) that broadcast together, in the
plan's order. A tile of a seed x rest plan is a column of seed rows
against the row of rest nodes, so on that path no pair array is
gathered or built. The noise of a pair depends only on its (i, j) and
the seed, so a pair's answer is the same in any plan and in any row
answered with the same seed.

A tile holds about _BLOCK / T pairs, and it runs one fused pass over
buffers sized to the largest tile's T rows and reused by the rest. The
pair's part of the hash, mix(((i << 32) ^ j) + golden), is computed
once per tile for all rows, and each row adds its own seed's base. The
hash is mixed in place in one uint64 buffer, its uniform goes to a
float buffer (the hash's scratch), the inverse CDF works in place
there, and the noise, cast to a small signed type, is added to
g[lo] - g[hi] + k. A lookup of the residue of that sum writes the
tile's answers straight into the answer rows.

Answers are written straight into the transcript's compact answer type
(int8 up to k = 127) and handed over, so the transcript is the plan
plus that array, kept without a copy.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Labeling,
    NoiseParams,
    QueryPlan,
    QueryTranscript,
    _answer_dtype,
    _as_seed,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT = {b: np.uint64(b) for b in (11, 27, 30, 31, 32)}  # shift counts

# Answers per tile, over all of its rows: the tile's buffers stay in
# cache, where plan-sized temporaries would stream through memory.
_BLOCK = 1 << 16


def _mix64(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer of z in place, mod 2^64; tmp is scratch
    of z's shape."""
    z ^= np.right_shift(z, _SHIFT[30], out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, _SHIFT[27], out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, _SHIFT[31], out=tmp)


def _noise_law(k: int, delta: float) -> tuple[float, float] | None:
    """(mass of value 0, mass of each nonzero value) for the inverse
    CDF, or None when value 0 owns all the mass."""
    p_zero = 1.0 / k + delta
    if p_zero >= 1.0:
        return None
    return p_zero, (1.0 - p_zero) / (k - 1)


def _noise_minus_one(u: np.ndarray, k: int, p_zero: float, step: float) -> None:
    """Turn uniform [0, 1) variates u, in place, into noise - 1 by the
    inverse CDF: -1 below p_zero, then one unit per step, at most k - 2.

    u - p_zero is negative exactly when u < p_zero and dividing by
    step > 0 keeps the sign, so the floor is -1 there after the clip
    and equals the truncation of (u - p_zero) / step everywhere else.
    """
    u -= p_zero
    u /= step
    np.floor(u, out=u)
    np.clip(u, -1, k - 2, out=u)


def noise_from_uniform(u: np.ndarray, k: int, delta: float) -> np.ndarray:
    """Map uniform [0, 1) variates to noise values by inverse CDF.

    Value 0 owns the mass 1/k + delta; the remaining mass is split
    evenly over 1 .. k-1. delta = 0 is permitted here (uniform noise);
    parameter validation happens in NoiseParams.
    """
    u = np.array(u, dtype=np.float64)  # a copy: the law works in place
    law = _noise_law(k, delta)
    if law is None:
        return np.zeros(u.shape, dtype=np.int64)
    _noise_minus_one(u, k, *law)
    return u.astype(np.int64) + 1


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
        64-bit seed, read mod 2^64; together with the pair it fully
        determines each noise draw. An integral float is read as its
        integer; 2.7, text or None raises ValueError naming rng_seed.
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
        self.rng_seed = _as_seed(rng_seed, "rng_seed")
        self.noiseless = bool(noiseless)
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
        answers = _answer_rows(self._truth.labels[None], [self.rng_seed], self.params,
                               plan, self.noiseless)[0]
        self._answered = len(plan)
        return QueryTranscript._from_plan(plan, self.k, answers)


def _answer_rows(labels: np.ndarray, seeds, params: NoiseParams, plan: QueryPlan,
                 noiseless: bool = False) -> np.ndarray:
    """Answers of T oracles under one noise law to one plan, one row
    per oracle: the package's one answer kernel.

    Row t equals the answers of FaultyOracle(Labeling(labels[t], k),
    params, seeds[t], noiseless).execute_plan(plan), byte for byte:
    labels is (T, n), seeds holds T integers, each read mod 2^64, and
    the result is (T, len(plan)) in the transcript's answer type. No
    temporary is larger than a tile's T rows.
    """
    k, rows = params.k, len(labels)
    law = None if noiseless else _noise_law(k, params.delta)
    # g_lo[:, i] - g_hi[:, j] + (noise - 1), or + 0 without noise, lies
    # in [0, 3k) (the +1 of the noise is folded into g_lo) and indexes
    # its residue in the table: a lookup is ~4x cheaper than the integer
    # division of %
    wide = np.int16 if 3 * k <= np.iinfo(np.int16).max else np.int64
    g_hi = labels.astype(wide)
    g_lo = g_hi + (k if law is None else k + 1)
    residues = (np.arange(-k, 2 * k) % k).astype(_answer_dtype(k))
    if law is not None:  # each row's seed base, mix(seed + golden)
        bases = np.array([_as_seed(seed, "seeds") for seed in seeds], dtype=np.uint64)
        bases += _GOLDEN
        _mix64(bases, np.empty_like(bases))
    out = np.empty((rows, len(plan)), dtype=residues.dtype)
    z = tmp = np.empty(0, dtype=np.uint64)
    d = np.empty(0, dtype=wide)
    at = 0
    hi_seen = g_at_hi = None
    for lo, hi in plan._tiles(max(1, _BLOCK // rows)):
        shape = np.broadcast(lo, hi).shape
        m = math.prod(shape)
        if rows * m > d.size:  # buffers for the largest tile, reused by the rest
            z, tmp = np.empty(rows * m, np.uint64), np.empty(rows * m, np.uint64)
            d = np.empty(rows * m, wide)
        dt = d[:rows * m].reshape(rows, *shape)
        # np.take gathers along the node axis as fast as a 1-d index;
        # g[:, hi] goes through numpy's slower mixed-index path. Every
        # tile of a seed x rest plan shares one rest row, gathered once.
        if hi is not hi_seen:
            hi_seen, g_at_hi = hi, np.take(g_hi, hi, axis=1)
        np.subtract(np.take(g_lo, lo, axis=1), g_at_hi, out=dt)
        if law is not None:
            zt, tt = z[:rows * m].reshape(dt.shape), tmp[:rows * m].reshape(dt.shape)
            # the pair's part of the hash, once for all rows: a single
            # row's keys are zt itself, so its base is added in place (a
            # keys array that only overlaps zt would be copied first)
            keys, scratch = ((zt, tt) if rows == 1 else
                             (tmp[:m].reshape(shape), z[:m].reshape(shape)))
            np.bitwise_xor(lo.view(np.uint64) << _SHIFT[32], hi.view(np.uint64), out=keys)
            keys += _GOLDEN
            _mix64(keys, scratch)
            np.add(keys, bases.reshape(rows, *(1,) * len(shape)), out=zt)
            _mix64(zt, tt)
            zt >>= _SHIFT[11]
            u = np.multiply(zt, 2.0**-53, out=tt.view(np.float64))  # top 53 bits
            _noise_minus_one(u, k, *law)
            # noise - 1 over z, which is free from here; a local view, so
            # z is freed after tmp: freeing it first makes malloc hand the
            # pages back to the system on every call, and the next call
            # faults them in again
            noise = z.view(wide)[:rows * m].reshape(dt.shape)
            np.copyto(noise, u, casting="unsafe")  # whole numbers in [-1, k-2]
            dt += noise
        np.take(residues, dt, out=out[:, at:at + m].reshape(dt.shape))
        at += m
    return out
