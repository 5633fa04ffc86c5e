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

The oracle never asks which form a plan has (see core): it answers
the plan's tiles, pair arrays (lo, hi) that broadcast together, in the
plan's order, into one answer array. A tile of a seed x rest plan is a
column of seed rows against the row of rest nodes, so on that path no
pair array is gathered or built. The noise of a pair depends only on
its (i, j), so a pair's answer is the same in any plan answered by an
oracle with the same seed.

Each tile runs one fused kernel over buffers sized to the largest tile
and reused by the rest: the hash is computed in place in one uint64
buffer, its uniform goes to a float buffer (the hash's scratch), the
inverse CDF works in place there, and the noise, cast to a small signed
type, is added to g[lo] - g[hi] + k. A lookup of the residue of that
sum writes the tile's answers straight into the answer array. On a
seed x rest tile no temporary is larger than one row.

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
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT = {b: np.uint64(b) for b in (11, 27, 30, 31, 32)}  # shift counts

# Pairs answered per tile: the tile's buffers stay in cache, where
# plan-sized temporaries would stream through memory.
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
        k = self.k
        law = None if self.noiseless else _noise_law(k, self.params.delta)
        # g_lo[i] - g_hi[j] + (noise - 1) lies in [0, 3k): the index of
        # its residue (the +1 of the noise is folded into g_lo)
        wide = np.int16 if 3 * k <= np.iinfo(np.int16).max else np.int64
        g_hi = self._truth.labels.astype(wide)
        g_lo = g_hi + (k if law is None else k + 1)
        if law is not None:
            base = np.array([self.rng_seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
            base += _GOLDEN
            _mix64(base, np.empty_like(base))
            base = base[0]
        out = np.empty(len(plan), dtype=self._residues.dtype)
        z = tmp = np.empty(0, dtype=np.uint64)
        d = np.empty(0, dtype=wide)
        at = 0
        for lo, hi in plan._tiles(_BLOCK):
            shape = np.broadcast_shapes(lo.shape, hi.shape)
            m = math.prod(shape)
            if m > d.size:  # buffers for the largest tile, reused by the rest
                z, tmp, d = np.empty(m, np.uint64), np.empty(m, np.uint64), np.empty(m, wide)
            dt = d[:m].reshape(shape)
            np.subtract(g_lo[lo], g_hi[hi], out=dt)
            if law is not None:
                zt, tt = z[:m].reshape(shape), tmp[:m].reshape(shape)
                # h = mix(base + mix(((lo << 32) ^ hi) + golden))
                np.bitwise_xor(lo.view(np.uint64) << _SHIFT[32], hi.view(np.uint64), out=zt)
                zt += _GOLDEN
                _mix64(zt, tt)
                zt += base
                _mix64(zt, tt)
                zt >>= _SHIFT[11]
                u = np.multiply(zt, 2.0**-53, out=tt.view(np.float64))  # top 53 bits
                _noise_minus_one(u, k, *law)
                noise = z.view(wide)[:m].reshape(shape)  # z is free from here
                np.copyto(noise, u, casting="unsafe")  # whole numbers in [-1, k-2]
                dt += noise
            np.take(self._residues, d[:m], out=out[at:at + m])
            at += m
        self._answered = len(plan)
        return QueryTranscript._from_plan(plan, self.k, out)
