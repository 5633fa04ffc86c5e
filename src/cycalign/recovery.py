"""Seeded plurality-vote recovery of cyclic labels.

The recovery strategy is non-adaptive: pick a seed set S (the first
|S| node indices), query every pair between S and the rest of the
graph in one batch, then

1. anchor the first seed node at label 0;
2. label every other seed node s' by a plurality vote over the rest
   nodes b of (answer(s', b) - answer(anchor, b)) mod k, which
   estimates the label difference between s' and the anchor;
3. label every non-seed node v by a plurality vote over seed nodes s
   of (label(s) + answer(v, s)) mod k.

Step 2 works because the difference of two independent noise draws is
again zero-biased, with the smaller effective bias k*delta^2/(k-1);
this is what drives the seed-size formulas and the validity boundary
delta >~ (ln n / (n k))^(1/4) below which seed reconciliation starves.

All votes break ties toward the smallest label, making every outcome a
deterministic function of the transcript.

_recover_blocks is the one place that runs steps 1-3, on a stack of
seed x rest answer blocks. recover_from_transcript reads a transcript's
block once, by the plan's one block read behind oriented_matrix (see
core), runs it as a stack of one (through views, with no copy of the
block) and returns every node's label and vote margin, so each step's
outcome can be read off its RecoveryResult; the small-instance MLE
check runs a batch of trials' blocks through it at once.
run_algorithm1 sizes the seed, queries the block from a fresh oracle
and hands the transcript to it. On that path no pair array exists:
seed_rest_plan records only (n, s), the oracle fills the s x (n - s)
answer block directly, and the read is a view of that block.

Every vote goes through one kernel, _vote_rows, which counts each row's
votes (a - ref) mod k. Step 2 reads a = the seed rows of the seed x rest
answer block against ref = the anchor row, step 3 a = the seed labels
against ref = the block's columns, so neither builds a vote array of
its own. Up to k = _PLANES_MAX_K = 16 the counts are equality planes:
a vote equals c exactly when the block equals a target taken from the
small operand, (anchor + c) mod k in step 2 and (label - c) mod k in
step 3. So the int8 block is only compared with k - 1 targets, never
subtracted, indexed or widened, and each plane is summed in the
block's memory order: along its rows in step 2, down them in step 3.
Above k = 16, where k - 1 planes cost more than one pass, a bincount
over row * 2k + (a - ref + k) counts every residue without a modulus.
Both cut the block by core._windows, the oracle's tile rule, into
windows of about _VOTE_BLOCK bytes: no vote temporary grows with a row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import tail_regime
from .core import (
    Labeling,
    NoiseParams,
    QueryPlan,
    QueryTranscript,
    _as_int,
    _as_real,
    _check_size,
    _windows,
)
from .oracle import FaultyOracle

# Bytes of temporaries per vote window (bool plane cells, or intp cell
# indices for the bincount): a window stays in cache instead of
# streaming the whole vote matrix through memory.
_VOTE_BLOCK = 1 << 19

# Largest k counted by equality planes. Their cost grows with k, one
# bincount's does not: on n = 10^4 blocks the planes took ~0.5-0.75x
# the bincount's time at k = 16 and up to ~1.5x at k = 32.
_PLANES_MAX_K = 16

# The most 0/1 cells one uint8, or one byte lane of a uint64, can count.
_U8_MAX = 255


@dataclass(frozen=True)
class SeedConfig:
    """The seed rule's knobs, which only seed_size applies.

    constant_c (positive, finite) scales both formulas; explicit_size,
    an integer >= 1, replaces them; budget_scale (positive, finite)
    multiplies the size from either before the clamp to [1, n/2].
    """

    constant_c: float = 40.0
    explicit_size: int | None = None
    budget_scale: float | None = None

    def __post_init__(self):
        _as_real(self.constant_c, "constant_c")
        if self.budget_scale is not None:
            _as_real(self.budget_scale, "budget_scale")
        if not self.constant_c > 0:
            raise ValueError(f"constant_c must be positive, got {self.constant_c}")
        if self.constant_c == math.inf:
            raise ValueError(f"constant_c must be finite, got {self.constant_c}")
        if self.explicit_size is not None:
            size = _as_int(self.explicit_size, "explicit_size")
            if size < 1:
                raise ValueError(f"explicit_size must be >= 1, got {size}")
            object.__setattr__(self, "explicit_size", size)
        if self.budget_scale is not None and not 0 < self.budget_scale < math.inf:
            raise ValueError(
                f"budget_scale must be positive and finite, got {self.budget_scale}")


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one recovery run.

    per_node_margin[v] is the winning-vote count minus the runner-up
    count in the vote that fixed v's label; the anchor node, whose
    label is set by convention rather than by vote, gets the maximum
    attainable margin (its vote count) as a sentinel.
    """

    labeling: Labeling
    seed: tuple[int, ...]
    query_count: int
    per_node_margin: np.ndarray


class ValidityRegimeWarning(UserWarning):
    """The bias is below the boundary where seed reconciliation is reliable."""


def validity_threshold(n: int, k: int) -> float:
    """Smallest bias for which n rest nodes can reconcile a seed set,
    (ln n / (n k))^(1/4) up to constants; n and k are integers >= 2."""
    _check_size("n", n)
    _check_size("k", k)
    return (math.log(n) / (n * k)) ** 0.25


def seed_size(n: int, params: NoiseParams, cfg: SeedConfig = SeedConfig()) -> int:
    """Seed-set size for an n-node instance, an integer n >= 4.

    The base is cfg.explicit_size, else ceil(c * ln n / (k delta^2))
    when delta <= 1/(2k) and ceil(c * ln n / delta) otherwise, clamped
    to [1, floor(n/2)]; cfg.budget_scale then gives ceil(scale * base),
    clamped again. Warns (never errors) once per call when delta is
    below the validity threshold, so size once per run or sweep cell.
    """
    size = _seed_size(n, params, cfg)
    if params.delta < validity_threshold(n, params.k):
        warnings.warn(
            f"delta={params.delta:g} is below the validity boundary "
            f"{validity_threshold(n, params.k):.4g} for n={n}, k={params.k}; "
            "seed reconciliation is unreliable here",
            ValidityRegimeWarning,
            stacklevel=2,
        )
    return size


def _seed_size(n: int, params: NoiseParams, cfg: SeedConfig) -> int:
    """seed_size without the validity warning, for checking a run
    before it starts; the run's own seed_size call gives the warning."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer >= 4, got {n!r}")
    if n < 4:
        raise ValueError(f"need n >= 4 for a seeded split, got n={n}")
    if cfg.explicit_size is not None:
        if not cfg.explicit_size <= n // 2:
            raise ValueError(
                f"explicit_size={cfg.explicit_size} outside [1, n/2] for n={n}"
            )
        size = cfg.explicit_size
    elif tail_regime(params) == "small":
        size = cfg.constant_c * math.log(n) / (params.k * params.delta**2)
    else:
        size = cfg.constant_c * math.log(n) / params.delta
    # > 0, so ceil >= 1; clamped first, as a huge finite c or scale gives inf
    size = math.ceil(min(size, n // 2))
    if cfg.budget_scale is not None:
        size = math.ceil(min(cfg.budget_scale * size, n // 2))
    return size


def effective_bias(params: NoiseParams) -> float:
    """Zero-bias of the difference of two independent noise draws,
    k * delta^2 / (k - 1)."""
    return params.k * params.delta**2 / (params.k - 1)


def _vote_rows(a: np.ndarray, k: int,
               ref: np.ndarray | int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise plurality winners and (top - runner-up) margins of the
    votes (a - ref) mod k.

    a and ref hold labels in [0, k) of any integer type and memory
    layout and broadcast together to a (..., rows, width) stack of vote
    matrices; winners and margins are (..., rows), and ties go to the
    smallest label. This is the package's one vote kernel. Up to
    k = _PLANES_MAX_K it counts equality planes (_plane_counts), above
    it one bincount (_bincount_counts), whose cost does not grow with
    k; both work a window of about _VOTE_BLOCK bytes at a time.
    """
    a, ref = np.asarray(a), np.asarray(ref)
    shape = np.broadcast(a, ref).shape
    count = _plane_counts if k <= _PLANES_MAX_K else _bincount_counts
    counts = count(a, ref, k, shape)
    # the running top two over the contiguous count planes; a label
    # takes the lead only with a strictly larger count
    top, second = np.maximum(counts[0], counts[1]), np.minimum(counts[0], counts[1])
    winners = (counts[1] > counts[0]).astype(np.intp)
    for v in range(2, k):
        np.maximum(second, np.minimum(counts[v], top), out=second)
        np.copyto(winners, v, where=counts[v] > top)
        np.maximum(top, counts[v], out=top)
    return winners, top - second


def _plane_counts(a, ref, k: int, shape) -> np.ndarray:
    """(k, ..., rows) counts of the votes (a - ref) mod k, one equality
    plane per residue.

    For a and ref in [0, k), (a - ref) mod k == c exactly when
    a == (ref + c) mod k, and exactly when ref == (a - c) mod k. So the
    targets of c = 1 .. k-1 are computed on the smaller operand (the
    anchor row in step 2, the seed labels in step 3) and the larger
    one, the answer block, is only compared with them: it is never
    subtracted, indexed or widened. The count of c = 0 is width minus
    the others. Each plane is summed in the block's memory order, a
    core._windows window of the block's memory at a time.
    """
    *lead, rows, width = shape
    c = np.arange(1, k).reshape(k - 1, *(1,) * len(shape))
    if a.size >= ref.size:
        block, targets = a, (ref + c) % k
    else:
        block, targets = ref, (a - c) % k
    targets = targets.astype(block.dtype)  # labels < k fit the block's type
    block, targets = np.broadcast_to(block, shape), np.broadcast_to(targets, (k - 1, *shape))
    cells = _VOTE_BLOCK // math.prod(lead)
    counts = np.zeros((k, *lead, rows), dtype=np.intp)  # each plane's counts contiguous
    eq = np.empty(0, dtype=bool)  # grown to the largest window
    if abs(block.strides[-2]) < abs(block.strides[-1]):
        # The votes of a row run down the block's memory rows (step 3):
        # sum up to _U8_MAX whole memory rows at a time in uint8, which
        # cannot overflow, and add those sums into the counts.
        block, targets = block.swapaxes(-1, -2), targets.swapaxes(-1, -2)
        for j, i in _windows(width, rows, cells, _U8_MAX):
            tile, goal = block[..., j, i], targets[..., j, i]
            eq = eq if eq.size >= tile.size else np.empty(tile.size, dtype=bool)
            e = eq[:tile.size].reshape(tile.shape)
            for v in range(1, k):
                np.equal(tile, goal[v - 1], out=e)
                counts[v, ..., i] += e.view(np.uint8).sum(axis=-2, dtype=np.uint8)
    else:
        # The votes of a row run along its memory row (step 2): read the
        # plane's bytes as uint64 words, which add byte lane by byte lane
        # without a carry for up to _U8_MAX words, then add each sum's
        # 8 lanes.
        for i, j in _windows(rows, width, cells):
            tile, goal = block[..., i, j], targets[..., i, j]
            *_, r, w = tile.shape
            sums = -(-w // (8 * _U8_MAX))
            words = -(-w // (8 * sums))  # per sum, at most _U8_MAX
            size = math.prod(lead) * r * 8 * words * sums
            # zeros, not empty: empty read ~0.12 MB more peak RSS on sweeps
            eq = eq if eq.size >= size else np.zeros(size, dtype=bool)
            e = eq[:size].reshape(*lead, r, 8 * words * sums)
            e[..., w:] = False  # the pad past w counts no vote
            lanes = e.view(np.uint64).reshape(*lead, r, sums, words)
            for v in range(1, k):
                np.equal(tile, goal[v - 1], out=e[..., :w])
                counts[v, ..., i] += (lanes.sum(axis=-1).view(np.uint8)
                                      .sum(axis=-1, dtype=np.intp))
    counts[0] = width - counts[1:].sum(axis=0)
    return counts


def _bincount_counts(a, ref, k: int, shape) -> np.ndarray:
    """(k, ..., rows) counts of the votes (a - ref) mod k by bincount.

    a - ref + k lies in (0, 2k), so one bincount over
    row * 2k + (a - ref + k) needs no modulus; the count of residue v
    is then raw[v] + raw[v + k]. The intp cell indices are built a
    core._windows window at a time, the same window of every matrix.
    """
    *lead, rows, width = shape
    a, ref = np.broadcast_to(a, shape), np.broadcast_to(ref, shape)
    counts = np.zeros((k, *lead, rows), dtype=np.intp)
    for i, j in _windows(rows, width, _VOTE_BLOCK // (8 * math.prod(lead))):
        cells = np.subtract(a[..., i, j], ref[..., i, j], dtype=np.intp)
        tile = cells.shape[:-1]
        cells += np.arange(k, 2 * k * math.prod(tile), 2 * k).reshape(*tile, 1)
        # order="K" reads the cells in memory order, so a transposed ref
        # is not copied; the counts do not depend on the order
        raw = np.bincount(cells.ravel(order="K"),
                          minlength=2 * k * math.prod(tile)).reshape(*tile, 2 * k)
        counts[..., i] += np.moveaxis(raw[..., :k] + raw[..., k:], -1, 0)
    return counts


def seed_rest_plan(n: int, seed_count: int) -> QueryPlan:
    """All pairs between the first seed_count nodes and the rest.

    This is the full non-adaptive query set: a pure function of
    (n, seed_count), computable before any answer is observed. The plan
    records only the rectangle; its pair arrays lo and hi are built on
    first access, which the oracle and the recovery never make. n is
    an integer >= 2 and seed_count one in [1, n) (see core._as_int).
    """
    _check_size("n", n)
    return QueryPlan._seed_rest(n, _seed_count(seed_count, n))


def _seed_count(seed_count, n: int) -> int:
    """seed_count as an int in [1, n), else ValueError (see core._as_int)."""
    seed_count = _as_int(seed_count, "seed_count")
    if not 1 <= seed_count < n:
        raise ValueError(f"seed_count must lie in [1, n), got {seed_count}")
    return seed_count


def recover_from_transcript(transcript: QueryTranscript,
                            seed_count: int) -> RecoveryResult:
    """Run seed alignment plus extension against an existing transcript.

    The transcript must contain every pair between the first
    seed_count nodes and the rest; extra pairs are ignored. Reported
    query_count is the number of pairs the votes consumed,
    seed_count * (n - seed_count). seed_count is an integer in [1, n)
    (see core._as_int).
    """
    n, k = transcript.n, transcript.k
    s = _seed_count(seed_count, n)
    labels, margins = _recover_blocks(transcript._plan._block(transcript._ans, s)[None], k)
    return RecoveryResult(
        labeling=Labeling(labels[0], k),
        seed=tuple(range(s)),
        query_count=s * (n - s),
        per_node_margin=margins[0],
    )


def _recover_blocks(mats: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Steps 1-3 on a stack of T seed x rest answer blocks (T, s, w),
    block t of trial t: every node's labels and vote margins, each
    (T, s + w).

    Each step is one _vote_rows call on the whole stack: step 2 reads
    each block's seed rows against its anchor row, step 3 each block's
    seed labels against its columns. Both read the blocks through
    views, so a block is never copied.
    """
    t, s, w = mats.shape
    labels = np.zeros((t, s + w), dtype=np.int64)
    margins = np.zeros((t, s + w), dtype=np.int64)
    margins[:, 0] = w  # anchor: fixed by convention, not by vote
    if s > 1:
        labels[:, 1:s], margins[:, 1:s] = _vote_rows(mats[:, 1:], k, mats[:, :1])
    labels[:, s:], margins[:, s:] = _vote_rows(labels[:, None, :s], k,
                                               mats.transpose(0, 2, 1))
    return labels, margins


def run_algorithm1(n: int, params: NoiseParams, cfg: SeedConfig,
                   oracle: FaultyOracle) -> RecoveryResult:
    """Full non-adaptive recovery against a fresh oracle.

    Sizes the seed, issues the single batched seed-vs-rest plan, then
    reconciles the seed and extends to the rest. Total work and query
    count are both seed_count * (n - seed_count). An oracle that
    already answered a plan rejects this one with ValueError, as does
    one for another n or k. params.delta only sizes the seed and is not
    checked against the oracle's noise law: a larger delta than the
    oracle's gives a smaller seed, and recovery may fail.
    """
    if oracle.n != n:
        raise ValueError(f"oracle is for n={oracle.n}, requested n={n}")
    if params.k != oracle.k:
        raise ValueError(f"params.k={params.k} does not match oracle k={oracle.k}")
    s = seed_size(n, params, cfg)
    return recover_from_transcript(oracle.execute_plan(seed_rest_plan(n, s)), s)
