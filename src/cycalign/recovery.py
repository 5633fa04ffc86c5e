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

recover_from_transcript is the one place that runs steps 1-3: it reads
the seed x rest block once, with QueryTranscript.oriented_matrix, and
returns every node's label and vote margin, so each step's outcome can
be read off its RecoveryResult. run_algorithm1 sizes the seed, queries
the block from a fresh oracle and hands the transcript to it. On that
path no pair array exists: seed_rest_plan records only (n, s), the
oracle fills the s x (n - s) answer block directly, and the read is a
view of that block, as it is for any transcript of exactly those pairs.
Any other transcript that holds the block, such as the full triangle
of the small-instance MLE check, is read by one gather where its runs
are not consecutive: its plan says where each seed row's run of rest
answers starts.

Every vote goes through one kernel, _vote_rows, which counts each row's
values (a - ref) mod k without computing a modulus: with a and ref in
[0, k), a - ref + k lies in (0, 2k), so one bincount over
row * 2k + (a - ref + k) counts every residue v in two bins, v (from
a < ref) and v + k (from a >= ref), which are then added. Step 2 reads
a = the seed rows of the seed x rest answer block against ref = the
anchor row, step 3 a = the seed labels against ref = the block's
columns, so neither builds a vote array of its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import tail_regime
from .core import Labeling, NoiseParams, QueryPlan, QueryTranscript, _as_int, _as_real
from .oracle import FaultyOracle

# Vote cells counted per bincount; a block's int index array stays in
# cache instead of streaming the whole vote matrix through memory.
_VOTE_BLOCK = 1 << 16


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
    (ln n / (n k))^(1/4) up to constants."""
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
    layout and broadcast together to a (rows, width) vote matrix. This
    is the package's one vote kernel. a - ref + k lies in (0, 2k), so
    one bincount over row * 2k + (a - ref + k) needs no modulus; the
    count of residue v is then raw[v] + raw[v + k]. The cell indices
    are built a tile of whole rows at a time, about _VOTE_BLOCK cells
    and at least one row, as the oracle tiles a plan, so the cost per
    vote does not depend on k.
    """
    rows, width = np.broadcast(a, ref).shape
    if rows * width <= _VOTE_BLOCK:
        raw = _raw_vote_counts(a, ref, k)
    else:
        a, ref = np.broadcast_to(a, (rows, width)), np.broadcast_to(ref, (rows, width))
        step = max(1, _VOTE_BLOCK // width)
        raw = np.empty((rows, 2 * k), dtype=np.intp)
        for i in range(0, rows, step):
            raw[i:i + step] = _raw_vote_counts(a[i:i + step], ref[i:i + step], k)
    counts = raw[:, :k] + raw[:, k:]
    winners = counts.argmax(axis=1)
    top2 = np.partition(counts, k - 2, axis=1)[:, k - 2:]
    margins = top2[:, 1] - top2[:, 0]
    return winners, margins


def _raw_vote_counts(a, ref, k: int) -> np.ndarray:
    """(rows, 2k) counts of a - ref + k per row of the broadcast (a, ref)."""
    cells = np.subtract(a, ref, dtype=np.intp)
    rows = cells.shape[0]
    cells += np.arange(k, 2 * k * rows, 2 * k)[:, None]
    # order="K" reads the cells in memory order, so a transposed ref is
    # not copied; the counts do not depend on the order
    return np.bincount(cells.ravel(order="K"),
                       minlength=2 * k * rows).reshape(rows, 2 * k)


def seed_rest_plan(n: int, seed_count: int) -> QueryPlan:
    """All pairs between the first seed_count nodes and the rest.

    This is the full non-adaptive query set: a pure function of
    (n, seed_count), computable before any answer is observed. The plan
    records only the rectangle; its pair arrays lo and hi are built on
    first access, which the oracle and the recovery never make.
    """
    if not 1 <= seed_count < n:
        raise ValueError(f"seed_count must lie in [1, n), got {seed_count}")
    return QueryPlan._seed_rest(n, seed_count)


def recover_from_transcript(transcript: QueryTranscript,
                            seed_count: int) -> RecoveryResult:
    """Run seed alignment plus extension against an existing transcript.

    The transcript must contain every pair between the first
    seed_count nodes and the rest; extra pairs are ignored. Reported
    query_count is the number of pairs the votes consumed,
    seed_count * (n - seed_count).
    """
    n, k = transcript.n, transcript.k
    if not 1 <= seed_count < n:
        raise ValueError(f"seed_count must lie in [1, n), got {seed_count}")
    seed = np.arange(seed_count, dtype=np.int64)
    rest = np.arange(seed_count, n, dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    margins = np.zeros(n, dtype=np.int64)
    mat = transcript.oriented_matrix(seed, rest)

    margins[0] = rest.size  # anchor: fixed by convention, not by vote
    if seed_count > 1:
        winners, m = _vote_rows(mat[1:], k, mat[0])
        labels[1:seed_count] = winners
        margins[1:seed_count] = m

    winners, m = _vote_rows(labels[:seed_count], k, mat.T)
    labels[seed_count:] = winners
    margins[seed_count:] = m

    return RecoveryResult(
        labeling=Labeling(labels, k),
        seed=tuple(range(seed_count)),
        query_count=seed_count * (n - seed_count),
        per_node_margin=margins,
    )


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
    return _recover_seeded(oracle, seed_size(n, params, cfg))


def _recover_seeded(oracle: FaultyOracle, seed_count: int) -> RecoveryResult:
    """Query a fresh oracle's seed_count x rest block and recover."""
    transcript = oracle.execute_plan(seed_rest_plan(oracle.n, seed_count))
    return recover_from_transcript(transcript, seed_count)
