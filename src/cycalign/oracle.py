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

The hash is composed in two helpers, the only copy of it: _pair_keys
computes mix(((i << 32) ^ j) + golden), which depends on the pair
alone, and _seeded_noise adds a seed's base, mixes again and turns the
top bits into noise. FaultyOracle.execute_plan calls both per tile
with one scalar base. _answer_rows answers one small plan for a batch
of oracles, as the small-instance MLE check needs: it computes the
plan's keys once and the noise of every oracle in one pass, with a
column of bases, and each row equals that oracle's execute_plan.

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


def _seed_bases(seeds) -> np.ndarray:
    """mix(seed + golden) of each 64-bit seed (Python ints, masked to
    64 bits), as a uint64 array."""
    bases = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF for seed in seeds], dtype=np.uint64)
    bases += _GOLDEN
    _mix64(bases, np.empty_like(bases))
    return bases


def _pair_keys(lo: np.ndarray, hi: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = mix(((lo << 32) ^ hi) + golden), the part of each pair's
    hash that depends on the pair alone; lo and hi broadcast to out's
    shape and tmp is uint64 scratch of that shape."""
    np.bitwise_xor(lo.view(np.uint64) << _SHIFT[32], hi.view(np.uint64), out=out)
    out += _GOLDEN
    _mix64(out, tmp)


def _seeded_noise(keys: np.ndarray, base, z: np.ndarray, tmp: np.ndarray,
                  k: int, law: tuple[float, float], wide: type) -> np.ndarray:
    """noise - 1 of the pairs with these keys under the seed base(s):
    the hash mix(base + key), its top 53 bits as a uniform, then the
    inverse CDF of law, cast to wide.

    base is a uint64 scalar, or a column of one base per row; z and tmp
    are C-contiguous uint64 scratch of the shape keys and base broadcast
    to (z may be keys itself). The result is a view of z.
    """
    np.add(keys, base, out=z)
    _mix64(z, tmp)
    z >>= _SHIFT[11]
    u = np.multiply(z, 2.0**-53, out=tmp.view(np.float64))  # top 53 bits
    _noise_minus_one(u, k, *law)
    noise = z.reshape(-1).view(wide)[:z.size].reshape(z.shape)  # z is free from here
    np.copyto(noise, u, casting="unsafe")  # whole numbers in [-1, k-2]
    return noise


def _label_terms(labels: np.ndarray, k: int,
                 noisy: bool) -> tuple[np.ndarray, np.ndarray]:
    """(g_lo, g_hi) with g_lo[..., i] - g_hi[..., j] + (noise - 1), or
    + 0 without noise, in [0, 3k): the index of its residue in
    _residue_table(k) (the +1 of the noise is folded into g_lo). Their
    type is int16 where 3k fits, else int64."""
    wide = np.int16 if 3 * k <= np.iinfo(np.int16).max else np.int64
    g_hi = labels.astype(wide)
    return g_hi + (k + 1 if noisy else k), g_hi


def _residue_table(k: int) -> np.ndarray:
    """(a mod k) at index a + k for every a in [-k, 2k), in the
    transcript's answer type: a lookup is ~4x cheaper than the integer
    division of %."""
    return (np.arange(-k, 2 * k) % k).astype(_answer_dtype(k))


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
        g_lo, g_hi = _label_terms(self._truth.labels, k, law is not None)
        wide = g_hi.dtype.type
        if law is not None:
            base = _seed_bases([self.rng_seed])[0]
        residues = _residue_table(k)
        out = np.empty(len(plan), dtype=residues.dtype)
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
                _pair_keys(lo, hi, zt, tt)
                # a local view of z, so z is freed after tmp: freeing it
                # first makes malloc hand the pages back to the system on
                # every call, and the next call faults them in again
                noise = _seeded_noise(zt, base, zt, tt, k, law, wide)
                dt += noise
            np.take(residues, d[:m], out=out[at:at + m])
            at += m
        self._answered = len(plan)
        return QueryTranscript._from_plan(plan, self.k, out)


def _answer_rows(labels: np.ndarray, seeds, params: NoiseParams, plan: QueryPlan,
                 noiseless: bool = False) -> np.ndarray:
    """Answers of many oracles to one small plan, one row per oracle.

    Row t equals the answers of FaultyOracle(Labeling(labels[t], k),
    params, seeds[t], noiseless).execute_plan(plan), byte for byte:
    labels is (T, n), seeds holds T ints, and the result is (T,
    len(plan)) in the transcript's answer type. The pair keys are
    computed once for all rows, and the noise of all rows in one pass
    with a column of seed bases. Every temporary is T x len(plan), so
    this is for tiny plans, such as the full triangle of the MLE check.
    """
    k = params.k
    law = None if noiseless else _noise_law(k, params.delta)
    g_lo, g_hi = _label_terms(labels, k, law is not None)
    d = g_lo[:, plan.lo] - g_hi[:, plan.hi]
    if law is not None:
        keys, z = np.empty(len(plan), np.uint64), np.empty(d.shape, np.uint64)
        _pair_keys(plan.lo, plan.hi, keys, np.empty_like(keys))
        d += _seeded_noise(keys, _seed_bases(seeds)[:, None], z, np.empty_like(z),
                           k, law, d.dtype.type)
    return np.take(_residue_table(k), d)
