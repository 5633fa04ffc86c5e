"""Simulated faulty oracle for pairwise-difference queries.

The oracle hides a ground-truth labeling and answers a query on the
unordered pair {i, j} (canonically i < j) with

    (truth(i) - truth(j) + noise) mod k

where the noise draw is 0 with probability 1/k + delta and each nonzero
value with probability 1/k - delta/(k-1).

Noise is derived statelessly from (rng_seed, i, j) with the SplitMix64
finalizer mix, one finalizer per two answers: the seed's base is
mix(rng_seed + golden), and the canonical pair (i, j) reads its 32 bits
w from the hash z = mix(base + ((i << 32) ^ (j >> 1)) * golden) mod
2^64, the low half of z when j is even and the high half when j is
odd. So the sibling pairs (i, 2h) and (i, 2h + 1) share one hash and
take its two halves. The uniform u = w * 2^-32 in [0, 1) goes through
the inverse CDF of the law to the noise (_noise_minus_one, the
definition), so every mass of the law is a multiple of 2^-32: within
2^-32 of 1/k + delta and of (1 - 1/k - delta) / (k - 1). A transcript
depends only on the seed and the set of pairs, never on query order.
This keeps any split of a plan into chunks, and any parallel schedule,
byte-for-byte reproducible.

The hash is a keyed counter hash (Salmon et al., Parallel Random
Numbers: As Easy as 1, 2, 3, SC 2011): base + key * golden is the
SplitMix64 state at counter key of a stream started at base, and mix is
its output function, whose halves are taken as independent 32-bit
words. Within one oracle the keys (i << 32) ^ h are distinct and golden
is odd, so no two hashes share an input. Two oracles' inputs meet only
if their bases differ by golden * dkey for a key difference dkey that
the plan can produce. A seed x rest plan of seed s on n nodes produces
fewer than 2 s n of them (2 s - 1 row differences times fewer than n
differences of h), so for mixed 64-bit bases the chance is below
2 s n / 2^64 per pair of oracles: ~8e-13 at s = 737 and n = 10^4.

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
plan's tiles, pair arrays (lo, hi) that broadcast together, each with
the position of its first pair, in the plan's order. A tile of a
seed x rest plan is a column of seed rows against a chunk of the row
of rest nodes, so on that path no pair array is gathered or built. The
noise of a pair depends only on its (i, j) and the seed, so a pair's
answer is the same in any plan and in any row answered with the same
seed.

A tile holds at most _BLOCK / T pairs, cut by core._windows, the rule
that also cuts the vote kernel's tiles (whole rows while a row fits,
else column chunks of equal width), and it runs one fused pass over
buffers sized to the largest tile's T rows and reused by the rest.

The tiles of a call on the float path (k > _THRESHOLD_MAX_K) run on
W = min(usable CPUs, tiles // 8) workers (_WORKER_TILES), the calling
thread among them: usable CPUs is the size of the process's CPU
affinity set, and a call of fewer than 16 tiles runs on the calling
thread alone and starts no thread. A call that counts its noise by
threshold compares runs on the calling thread alone: on a 2-vCPU guest
its tiles ran 5-30% slower on two workers than on one, while the float
path's ran ~35% faster (table in CHANGES.md). Every worker
runs the same tile loop, _answer_tiles, over every W-th tile, with its
own full-size buffers, and writes only its tiles' columns of the answer
rows; a tile's answers do not depend on which worker answers it or
when, so the output is the same bytes on any W. Numpy's loops release
the GIL but its call dispatch does not, so tiles stay full size: on
two threads, tiles of a quarter of _BLOCK ran twice as slow as one
thread. The extra workers are threads made for the call by
core._run_shares, which waits for all of them to end before the call
returns or raises, so no thread outlives a call.

A seed x rest tile is an (r, 1) column of seed rows against a (1, c)
chunk of consecutive rest nodes, whose hashes are the (r, nh) grid over
h = j >> 1, nh about c / 2. Its input splits, mod 2^64, into a row part
(i << 32) * golden + base of shape (T, r, 1) and a column part
h * golden of shape (1, nh), because (i << 32) ^ h = (i << 32) + h for
h < 2^32 (true of any n whose labels fit in memory). One add of the two
fills the tile's hash buffer and one mix finishes it, so each finalizer
serves two answers. The buffer's uint32 view is then the (T, r, 2 nh)
grid of answers' words in column order, low half first (on a big-endian
host the halves are swapped first); a chunk that starts at an odd node
starts one element in. A tile of explicit pairs hashes (i, j >> 1) per
pair and shifts each hash right by 32 (j & 1) bits, so its word is the
low half of every element. The hash is mixed in place in one uint64
buffer with a second one as scratch, and the noise is added to
g[lo] - g[hi] + k in a small signed type: int8 while 3k <= 127. Each
of these buffers starts on a 64-byte line, so a call's speed does not
depend on where malloc put them.

Up to k = _THRESHOLD_MAX_K the noise is counted, not computed. Every
step from w to the noise is monotone in w: the product by 2^-32 is
exact, and subtracting p_zero, dividing by step > 0, the floor and the
clip never reverse an order. So the noise is a step function of w with
k - 1 least step points t_c in [0, 2^32) (noise >= c exactly when
w >= t_c). _noise_thresholds finds the t_c once per law by bisection on
_noise_minus_one itself, and the kernel adds each compare of the uint32
view with t_c to the tile's sum, as the int8 view of its bool plane.
Above that k the k - 1 compares cost more than the float path, which
the kernel then runs on the same 32 bits as the definition does.

The sum lies in [0, 3k). Two conditional subtractions of k, each the
minimum of d and d - k read as unsigned (d - k wraps above d when
d < k), leave its residue, written straight into the answer rows in
the transcript's compact answer type (int8 up to k = 127); the
transcript keeps that array without a copy.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .core import (
    Labeling,
    NoiseParams,
    QueryPlan,
    QueryTranscript,
    _answer_dtype,
    _as_seed,
    _run_shares,
    _usable_cpus,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT = {b: np.uint64(b) for b in (1, 5, 27, 30, 31, 32)}  # shift counts
# Index of a uint64's low half in its uint32 view
_LOW = 0 if sys.byteorder == "little" else 1

# Answers per tile, over all of its rows: the tile's buffers (~9 bytes
# an answer) stay in cache, where plan-sized temporaries would stream
# through memory; 2^16 and 2^18 ran 10-40% slower (CHANGES.md).
_BLOCK = 1 << 17
# Largest k counted by threshold compares, ~0.2 ns an answer each on
# one worker against ~3 ns for the float path on two (per-k table in
# CHANGES.md)
_THRESHOLD_MAX_K = 8

# Fewest tiles a worker takes on the float path. Sweeps, whose calls
# have 1-13 tiles, ran 15-25% slower on two workers, though each call
# alone timed faster; calls of 16 tiles or more (a large trial's ~50)
# gain.
_WORKER_TILES = 8


def _workers(tiles: int) -> int:
    """Workers, the calling thread among them, for a call of this many
    tiles: one per usable CPU, but each with at least _WORKER_TILES."""
    if tiles < 2 * _WORKER_TILES:
        return 1
    return min(_usable_cpus(), tiles // _WORKER_TILES)


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


@functools.lru_cache(maxsize=64)
def _noise_thresholds(k: int, delta: float) -> np.ndarray:
    """The words t_c at which the noise of a law reaches c, for
    c = 1 .. k - 1 up to the last value any 32-bit w reaches, as uint32,
    read-only: the noise of word w is the number of them at or below w.

    t_c is the least w in [0, 2^32) whose _noise_minus_one(w * 2^-32)
    is at least c - 1, found for every c at once by bisection; the map
    is monotone in w (see the module docstring). Called only for a law
    that has noise (_noise_law is not None).
    """
    p_zero, step = _noise_law(k, delta)
    want = np.arange(k - 1, dtype=np.float64)  # noise - 1 >= c - 1
    lo = np.zeros(k - 1, dtype=np.int64)
    hi = np.full(k - 1, 1 << 32, dtype=np.int64)  # 2^32: never reached
    while (lo < hi).any():
        mid = (lo + hi) >> 1
        u = mid * 2.0**-32
        _noise_minus_one(u, k, p_zero, step)
        reached = u >= want
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid + 1)
    thresholds = lo[lo < 1 << 32].astype(np.uint32)
    thresholds.flags.writeable = False
    return thresholds


class FaultyOracle:
    """Answers one plan of pairwise-difference queries about a hidden labeling.

    The answer to the canonical pair (i, j) is (truth(i) - truth(j) +
    noise) mod k. The noise comes from 32 bits of a SplitMix64 hash of
    (rng_seed, i, j >> 1), its low half for even j and its high half
    for odd j, through the inverse CDF of params' law (see the module
    docstring). So the law is exact on a 32-bit grid: each mass is a
    multiple of 2^-32, within 2^-32 of 1/k + delta for 0 and of
    (1 - 1/k - delta) / (k - 1) for each other value.

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
    temporary is larger than a tile's T rows, and each worker of the
    call (_workers(tiles) on the float path, else one) holds one tile's
    buffers.
    """
    k, rows = params.k, len(labels)
    law = None if noiseless else _noise_law(k, params.delta)
    floats = law is not None and k > _THRESHOLD_MAX_K
    # g_lo[:, i] - g_hi[:, j] + noise lies in [0, 3k); the float path
    # adds noise - 1, so its +1 is folded into g_lo
    wide = np.int8 if 3 * k <= 127 else np.int16 if 3 * k <= 32767 else np.int64
    g_hi = labels.astype(wide)
    g_lo = g_hi + (k + 1 if floats else k)
    bases = thresholds = None
    if law is not None:  # each row's seed base, mix(seed + golden)
        bases = np.array([_as_seed(seed, "seeds") for seed in seeds], dtype=np.uint64)
        bases += _GOLDEN
        _mix64(bases, np.empty_like(bases))
        thresholds = None if floats else _noise_thresholds(k, params.delta)
    out = np.empty((rows, len(plan)), dtype=_answer_dtype(k))
    tiles = list(plan._tiles(max(1, _BLOCK // rows)))
    answer = functools.partial(_answer_tiles, out=out, g_lo=g_lo, g_hi=g_hi, k=k,
                               law=law, bases=bases, thresholds=thresholds)
    workers = _workers(len(tiles)) if floats else 1
    _run_shares(answer, [tiles[w::workers] for w in range(workers)])
    return out


def _empty_on_line(size: int, dtype) -> np.ndarray:
    """np.empty(size, dtype), starting on a 64-byte cache line.

    malloc aligns a block to 16 bytes only, so where a buffer starts
    within its line hung on the heap's history. Off a line, _mix64 on a
    tile's hash ran 15-35% slower (the AVX-512 loads straddle two lines),
    and identical sweeps read up to ~20% apart between processes.
    """
    nbytes = size * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 63, np.uint8)
    lead = -raw.ctypes.data % 64
    return raw[lead:lead + nbytes].view(dtype)


def _answer_tiles(tiles, out: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray, k: int,
                  law, bases, thresholds) -> None:
    """Answer each tile (lo, hi, at) into its columns out[:, at:at + m]:
    the tile loop that every worker of _answer_rows runs, with its own
    buffers sized to its largest tile and reused by the rest."""
    rows, wide = len(g_lo), g_lo.dtype
    floats = law is not None and thresholds is None
    z = tmp = np.empty(0, dtype=np.uint64)
    d = np.empty(0, dtype=wide)
    hi_seen = g_at_hi = columns = None
    for lo, hi, at in tiles:
        shape = np.broadcast(lo, hi).shape
        m = math.prod(shape)
        chunk = hi.ndim == 2  # a seed x rest tile: (r, 1) rows by a (1, c) chunk
        if rows * m > d.size:
            # buffers for the largest tile, reused by the rest: within a
            # call every size below grows with m. The hash takes at most
            # c // 2 + 1 cells a row of a chunk; z also holds the noise
            # and the residue's scratch in the sum's type, tmp the float
            # path's uniforms. The hash and its scratch share one block,
            # which malloc keeps for the next call; two blocks went back
            # to the system at return and every call faulted their pages
            # in again. Each starts on a 64-byte line (_empty_on_line)
            hashes = 0 if law is None else rows * (
                shape[0] * (shape[1] // 2 + 1) if chunk else m)
            cut = -(-max(hashes, -(-rows * m * wide.itemsize // 8)) // 8) * 8
            both = _empty_on_line(cut + max(hashes, rows * m if floats else 0), np.uint64)
            z, tmp = both[:cut], both[cut:]
            d = _empty_on_line(rows * m, wide)
        dt = d[:rows * m].reshape(rows, *shape)
        # np.take gathers along the node axis as fast as a 1-d index;
        # g[:, hi] goes through numpy's slower mixed-index path. Every
        # tile of a seed x rest plan shares one rest row, gathered once.
        if hi is not hi_seen:
            hi_seen, g_at_hi = hi, np.take(g_hi, hi, axis=1)
            if chunk and law is not None:  # the hash's column part, h * golden
                first = int(hi[0, 0]) >> 1
                columns = np.arange(first, (int(hi[0, -1]) >> 1) + 1, dtype=np.uint64)
                columns *= _GOLDEN
        np.subtract(np.take(g_lo, lo, axis=1), g_at_hi, out=dt)
        if law is not None:
            if chunk:
                # row part (i << 32) * golden + base plus column part,
                # mixed once: the (rows, r, 2 nh) words, the chunk's
                # first node at its own parity
                grid = (rows, shape[0], columns.size)
                zt, tt = z[:math.prod(grid)].reshape(grid), tmp[:math.prod(grid)].reshape(grid)
                row_part = (lo.view(np.uint64) << _SHIFT[32]) * _GOLDEN
                np.add(row_part + bases.reshape(rows, 1, 1), columns, out=zt)
                _mix64(zt, tt)
                if _LOW:  # big-endian: swap the halves, so the low one is first
                    np.left_shift(zt, _SHIFT[32], out=tt)
                    zt >>= _SHIFT[32]
                    zt |= tt
                odd = int(hi[0, 0]) & 1
                words = zt.view(np.uint32)[..., odd:odd + shape[1]]
            else:
                # per pair: key (i << 32) ^ (j >> 1), then the half j & 1
                zt, tt = z[:rows * m].reshape(dt.shape), tmp[:rows * m].reshape(dt.shape)
                key, half = tt[0], zt[0]
                np.left_shift(lo.view(np.uint64), _SHIFT[32], out=key)
                key |= np.right_shift(hi.view(np.uint64), _SHIFT[1], out=half)
                key *= _GOLDEN
                np.add(key, bases.reshape(rows, *(1,) * len(shape)), out=zt)
                _mix64(zt, tt)
                shift = np.bitwise_and(hi.view(np.uint64), _SHIFT[1], out=tt[0])
                zt >>= np.left_shift(shift, _SHIFT[5], out=shift)  # 32 (j & 1) bits
                words = zt.view(np.uint32).reshape(*dt.shape, 2)[..., _LOW]
            if thresholds is not None:
                # noise >= c exactly when w >= t_c: each compare adds its
                # bool plane, over tmp, which is free from here
                plane = tmp.view(np.bool_)[:rows * m].reshape(dt.shape)
                for threshold in thresholds:
                    np.greater_equal(words, threshold, out=plane)
                    dt += plane.view(np.int8)
            else:
                u = np.multiply(words, 2.0**-32, out=tmp.view(np.float64)[:rows * m]
                                .reshape(dt.shape))
                _noise_minus_one(u, k, *law)
                # noise - 1 over z, which is free from here
                noise = z.view(wide)[:rows * m].reshape(dt.shape)
                np.copyto(noise, u, casting="unsafe")  # whole numbers in [-1, k-2]
                dt += noise
        # residue: d - k read as unsigned wraps above d when d < k, so
        # each minimum subtracts k from d >= k only; z is free as scratch
        d_u = dt.view(f"u{dt.itemsize}")
        less = z.view(d_u.dtype)[:rows * m].reshape(dt.shape)
        np.subtract(d_u, k, out=less)
        np.minimum(d_u, less, out=d_u)
        np.subtract(d_u, k, out=less)
        rows_out = out[:, at:at + m].reshape(dt.shape)
        np.minimum(d_u, less, out=rows_out.view(f"u{out.itemsize}"), casting="unsafe")
