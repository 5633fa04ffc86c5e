"""Exact and statistical oracles for recovery experiments.

Contents:

* success scoring up to a global cyclic shift, plus a graded Hamming
  distance after the best shift;
* transcript log-likelihood of a candidate labeling and brute-force
  maximum-likelihood enumeration for tiny instances;
* the tail probability P(sum_i X_i <= 0) for i.i.d. signed votes
  (X_i = +1 with probability 1/k + delta, -1 with probability
  1/k - delta/(k-1), else 0), evaluated exactly as a band-limited
  log-space sum, estimated by Monte Carlo, and summarized by a
  regime-wise exponent fit.

The tail quantity is the failure mode of a single plurality contest:
the correct label fails to beat one fixed wrong label exactly when the
signed vote sum is <= 0. Its exponential decay rate is delta^2 * n * k
for delta <= 1/(2k) and delta * n for larger delta, up to constants,
which the fit helper checks empirically.

brute_force_mle builds a candidate table for the transcript's plan
(_MleTable: every labeling's labels and pair differences mod k, in
mixed-radix order) and then scores the answers against it. The table
depends on the plan alone, so run_mle_comparison builds it once and
scores a stack of trials' answers against it at a time
(_MleTable.score); both go through the table's one agree count.

_log_tail is the one exact tail engine: it sums the trinomial terms
of the tail in log space, visiting only those within _BAND_NATS of the
largest, so it stays finite at vote counts where the tail underflows a
float. Each line of terms is walked as arrays a chunk at a time, with
the products and sums of a walk one term at a time in the same order,
so the result does not depend on the chunk size. tail_probability_exact
is its exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    DegenerateGridError,
    DegenerateLikelihoodError,
    DimensionMismatchError,
    InstanceTooLargeError,
    Labeling,
    NoiseParams,
    QueryPlan,
    QueryTranscript,
    RegimeMixingError,
    _answer_dtype,
    _as_int,
)

_MLE_ENUMERATION_LIMIT = 10**7
_MLE_CHUNK_CELLS = 1 << 22
_TAIL_VOTE_LIMIT = 10**5
_BAND_NATS = 40.0  # terms further below the largest are dropped
_WALK_CHUNK = 256  # terms per array step of a line's walk
_Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


def _check_same_shape(estimate: Labeling, truth: Labeling) -> None:
    if estimate.n != truth.n or estimate.k != truth.k:
        raise DimensionMismatchError(
            f"labelings disagree: (n={estimate.n}, k={estimate.k}) vs "
            f"(n={truth.n}, k={truth.k})"
        )


def recover_success(estimate: Labeling, truth: Labeling) -> bool:
    """True iff estimate equals truth plus some global shift mod k."""
    return hamming_after_best_shift(estimate, truth) == 0


def hamming_after_best_shift(estimate: Labeling, truth: Labeling) -> int:
    """Minimum number of mismatched nodes over all global shifts."""
    _check_same_shape(estimate, truth)
    return int(_hamming_rows(estimate.labels[None], truth.labels[None], truth.k)[0])


def _hamming_rows(labels: np.ndarray, truths: np.ndarray, k: int) -> np.ndarray:
    """hamming_after_best_shift of each row of the (T, n) labels against
    that row of truths, unchecked: one bincount, with row t's offsets
    (labels - truths) mod k in bins t*k .. t*k + k - 1."""
    rows, n = labels.shape
    offset = (labels - truths) % k + np.arange(0, rows * k, k)[:, None]
    counts = np.bincount(offset.ravel(), minlength=rows * k).reshape(rows, k)
    return n - counts.max(axis=1)


def log_likelihood(transcript: QueryTranscript, g: Labeling,
                   params: NoiseParams) -> float:
    """Log-probability of the transcript's answers given the labeling.

    Equals agree * ln(1/k + delta) + disagree * ln(1/k - delta/(k-1)),
    where a pair agrees when its answer is the labeling's difference.
    At the extreme delta = (k-1)/k a disagreeing edge has probability
    zero; that case raises instead of silently returning -inf.
    """
    if g.n != transcript.n or g.k != transcript.k:
        raise DimensionMismatchError(
            f"labeling (n={g.n}, k={g.k}) does not fit transcript "
            f"(n={transcript.n}, k={transcript.k})"
        )
    plan = transcript._plan
    residual = (g.labels[plan.lo] - g.labels[plan.hi] - transcript._ans) % g.k
    agree = int(np.count_nonzero(residual == 0))
    disagree = len(transcript) - agree
    if disagree and params.p_nonzero <= 0.0:
        raise DegenerateLikelihoodError(
            f"{disagree} edges disagree but delta={params.delta:g} "
            "makes disagreement impossible"
        )
    out = agree * math.log(params.p_zero)
    if disagree:
        out += disagree * math.log(params.p_nonzero)
    return out


class _MleTable:
    """The k^(n-1) candidate labelings of a plan, with node 0 pinned to
    label 0, ready to score against any answers to that plan.

    Candidates are held a chunk at a time as an (n, chunk) table of
    their labels in the answers' type (int8 up to k = 127): node 0 is
    0 and node i > 0 is digit i - 1 of the candidate id in base k, so
    the columns run in mixed-radix order. Beside it sits
    (labels[lo] - labels[hi]) mod k, one row per pair: a pair agrees
    with answer a exactly when its value equals a. A chunk holds at
    most _MLE_CHUNK_CELLS // max(n, |pairs|) candidates, so both arrays
    stay within _MLE_CHUNK_CELLS cells whatever n and the plan size
    are. When the whole enumeration fits in one chunk the table keeps
    it and every score reads it; otherwise each score rebuilds the
    chunks one at a time.
    """

    def __init__(self, plan: QueryPlan, k: int):
        n, k = plan.n, int(k)
        total = k ** (n - 1)  # Python ints: an int64 power would wrap
        if total > _MLE_ENUMERATION_LIMIT:
            raise InstanceTooLargeError(
                f"k^(n-1) = {total} exceeds the enumeration guard "
                f"{_MLE_ENUMERATION_LIMIT}"
            )
        self.n, self.k, self.total = n, k, total
        self.lo, self.hi = plan.lo, plan.hi
        self.cell = _answer_dtype(k)  # holds every label difference and k
        self.count = np.min_scalar_type(self.lo.size)  # holds every agree count
        self.chunk = max(1, _MLE_CHUNK_CELLS // max(n, self.lo.size))
        self._kept = self._chunk(0) if self.chunk >= total else None

    def _chunk(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Labels and pair differences mod k of candidates start, start + 1, ..."""
        rest = np.arange(start, min(start + self.chunk, self.total), dtype=np.int64)
        labels = np.zeros((self.n, rest.size), dtype=self.cell)
        for node in range(1, self.n):
            rest, labels[node] = np.divmod(rest, self.k)
        diffs = labels[self.lo] - labels[self.hi]
        diffs += (diffs < 0) * self.cell.type(self.k)  # mod k: % is ~10x slower
        return labels, diffs

    def _agree(self, answers: np.ndarray, diffs: np.ndarray) -> np.ndarray:
        """(T, chunk) agree counts of a chunk's candidates, diffs from
        _chunk, under each row of the (T, |pairs|) answers.

        The one agree count: a cell agrees when its difference mod k
        equals the answer, and a candidate's count is summed in the
        narrowest unsigned type that holds the number of pairs (uint8 up
        to 255 pairs), which is exact and about three times faster than
        numpy's default int64 sum. The rows are compared one at a time
        into one buffer of diffs' shape, so T rows cost no more memory
        than one.
        """
        answers = answers.astype(self.cell, copy=False)
        agree = np.empty((answers.shape[0], diffs.shape[1]), dtype=self.count)
        hit = np.empty(diffs.shape, dtype=np.bool_)
        for row, out in zip(answers, agree):
            np.equal(diffs, row[:, None], out=hit)
            np.add.reduce(hit.view(np.uint8), axis=0, dtype=self.count, out=out)
        return agree

    def winners(self, answers: np.ndarray) -> np.ndarray:
        """The (n, m) labels of every candidate with the most agreeing
        pairs under answers (one per pair, in [0, k)), in mixed-radix
        order."""
        chunks = ([self._kept] if self._kept is not None else
                  map(self._chunk, range(0, self.total, self.chunk)))
        best_agree = -1
        best: list[np.ndarray] = []
        for labels, diffs in chunks:
            agree = self._agree(answers[None], diffs)[0]
            top = int(agree.max())
            if top > best_agree:
                best_agree = top
                best = [labels[:, agree == top]]
            elif top == best_agree:
                best.append(labels[:, agree == top])
        return np.concatenate(best, axis=1)

    def score(self, answers: np.ndarray, labels: np.ndarray) -> tuple[int, int]:
        """For T trials of this plan, their (T, |pairs|) answers and the
        (T, n) labels a recovery gave them: how many trials' labels,
        shifted so that node 0 is 0, are a maximum-likelihood candidate,
        and how many trials have more than one.

        A trial's candidate is column id of the table, id being the
        mixed-radix number of its shifted labels, so no winner's labels
        are compared. Needs a table kept whole.
        """
        assert self._kept is not None, "score reads a table kept whole"
        agree = self._agree(answers, self._kept[1])
        best = agree == agree.max(axis=1, keepdims=True)
        shifted = (labels[:, 1:] - labels[:, :1]) % self.k
        ids = shifted @ self.k ** np.arange(self.n - 1, dtype=np.int64)
        return (int(np.count_nonzero(best[np.arange(len(ids)), ids])),
                int(np.count_nonzero(np.count_nonzero(best, axis=1) > 1)))


def brute_force_mle(transcript: QueryTranscript, n: int,
                    params: NoiseParams) -> list[Labeling]:
    """All maximum-likelihood labelings with node 0 pinned to label 0.

    Enumerates the k^(n-1) candidates in deterministic (mixed-radix)
    order. Because delta > 0 makes the log-likelihood strictly
    increasing in the agree count, candidates are ranked by their
    integer agree counts, which sidesteps float ties entirely.

    Builds the candidate table of the transcript's plan (_MleTable),
    then scores the answers against it once. The table depends only on
    the plan, so a caller with many transcripts of one plan, such as
    harness.run_mle_comparison, builds it once and scores each
    transcript against it.
    """
    k = params.k
    if n != transcript.n or k != transcript.k:
        raise DimensionMismatchError(
            f"(n={n}, k={k}) does not fit transcript "
            f"(n={transcript.n}, k={transcript.k})"
        )
    table = _MleTable(transcript._plan, k)
    return [Labeling(column, k) for column in table.winners(transcript._ans).T]


@dataclass(frozen=True)
class TailSpec:
    """A tail-probability instance: vote_count i.i.d. signed votes with
    the given noise parameters."""

    vote_count: int
    params: NoiseParams

    def __post_init__(self):
        vote_count = _as_int(self.vote_count, "vote_count")
        if vote_count < 1:
            raise ValueError(f"vote_count must be >= 1, got {vote_count}")
        object.__setattr__(self, "vote_count", vote_count)


def vote_probabilities(params: NoiseParams) -> tuple[float, float, float]:
    """(P[X=+1], P[X=-1], P[X=0]) for one signed vote."""
    up = params.p_zero
    down = params.p_nonzero
    zero = (params.k - 2) * params.p_nonzero
    return up, down, zero


def _check_tail_votes(vote_count: int) -> None:
    """Raise InstanceTooLargeError above the exact tail's vote guard."""
    if vote_count > _TAIL_VOTE_LIMIT:
        raise InstanceTooLargeError(
            f"vote_count {vote_count} exceeds the exact-tail guard "
            f"{_TAIL_VOTE_LIMIT}"
        )


def _log_tail(spec: TailSpec) -> float:
    """log P(U - D <= 0) for (U, D, Z) ~ Multinomial(m; up, down, zero),
    the counts of +1, -1 and 0 votes among m = spec.vote_count.

    The terms with u <= d are walked one line d - u = j at a time,
    from j = 0 outward. Each line's largest term is found by bisection
    on the ratio of neighbouring terms and taken in log space from
    math.lgamma; the rest of the line is walked outward from it by
    that exact ratio (_walk_side), up to the last term within
    _BAND_NATS of the largest term seen so far. The law's mode has
    u > d, so line peaks fall as j grows, and the walk stops at the
    first line whose peak is below that band. Lines are added with a
    running log-sum-exp, so no term underflows, and only the band's
    terms are visited: no O(m) array is built.

    k = 2 has no zero votes, so each line is the one term u + d = m;
    the maximal bias has no down votes, so the tail is empty and the
    result is -inf.
    """
    m = spec.vote_count
    _check_tail_votes(m)
    up, down, zero = vote_probabilities(spec.params)
    if down == 0.0:
        return -math.inf
    log_up, log_down = math.log(up), math.log(down)
    log_zero = math.log(zero) if zero else 0.0  # k = 2: z is 0 on every term
    rise = up * down / (zero * zero) if zero else 0.0
    head = math.lgamma(m + 1)
    top, total = -math.inf, 0.0  # largest log term so far; the sum / exp(top)
    for j in range(m + 1):
        last = (m - j) // 2  # largest u on the line: z = m - 2u - j >= 0
        if zero:
            # the first u whose next term, ratio z(z-1) rise / ((u+1)(d+1)), is no larger
            peak, hi = 0, last
            while peak < hi:
                mid = (peak + hi) // 2
                z = m - 2 * mid - j
                if z * (z - 1) * rise > (mid + 1) * (mid + j + 1):
                    peak = mid + 1
                else:
                    hi = mid
        elif (m - j) % 2:
            continue
        else:
            peak = last
        d, z = peak + j, m - 2 * peak - j
        t = (head - math.lgamma(peak + 1) - math.lgamma(d + 1) - math.lgamma(z + 1)
             + peak * log_up + d * log_down + z * log_zero)
        if t < top - _BAND_NATS:
            break
        if t > top:
            total, top = total * math.exp(top - t), t
        line = 1.0  # the line's sum / exp(t)
        if zero:
            floor = math.exp(top - _BAND_NATS - t)
            line = _walk_side(line, floor, m - j, j, rise, peak, 1)
            line = _walk_side(line, floor, m - j, j, rise, peak, -1)
        total += line * math.exp(t - top)
    return top + math.log(total)


def _walk_side(line: float, floor: float, width: int, j: int, rise: float,
               peak: int, step: int) -> float:
    """line plus the terms of line d - u = j (width = m - j, so
    z = width - 2u) next to its peak on one side, as ratios to the peak
    term, up to the first ratio below floor.

    u runs from peak by step (+1 up the line, -1 down it) at most to
    the line's end, u = width // 2 or u = 0, where the ratio is 0. The
    ratios of neighbouring terms are computed _WALK_CHUNK at a time as
    arrays, their running product by one sequential accumulate and the
    kept terms added to line by another, so every product and partial
    sum is the same float operation, in the same order, as a walk one
    term at a time.
    """
    count = width // 2 - peak + 1 if step > 0 else peak + 1
    r = 1.0  # the running product, carried from chunk to chunk
    for a in range(0, count, _WALK_CHUNK):
        c = min(_WALK_CHUNK, count - a)
        # u, z and their products are whole numbers below 2^53: exact in
        # floats, as they are in the Python ints of a scalar walk
        u = np.arange(peak + step * a, peak + step * (a + c), step, dtype=np.float64)
        z = width - 2 * u
        if step > 0:  # term u + 1 over term u
            p = z * (z - 1)
            p *= rise
            u += 1
            p /= u * (u + j)
        else:  # term u - 1 over term u
            z += 1
            q = z * (z + 1)
            q *= rise
            p = u * (u + j)
            p /= q
        p[0] *= r
        np.multiply.accumulate(p, out=p)
        cut = int((p < floor).argmax())
        if p[cut] >= floor:  # no ratio below floor in this chunk
            cut = c
        if cut:
            r = float(p[cut - 1])
            p[0] += line
            line = float(np.add.accumulate(p[:cut], out=p[:cut])[-1])
        if cut < c:
            break
    return line


def tail_probability_exact(spec: TailSpec) -> float:
    """P(sum of signed votes <= 0), as exp of the log-space sum _log_tail.

    Below about exp(-745) the float underflows to 0.0, though the sum
    itself stays finite. The log terms' rounding grows as
    m ln m * machine epsilon, m the vote count, from math.lgamma of
    numbers up to m, so counts above 10^5 raise InstanceTooLargeError.
    The test suite pins agreement with exact rational enumeration to
    1e-12 at small sizes, and with exact binomial sums to 1e-9 in log
    up to 10 000 votes.
    """
    return math.exp(_log_tail(spec))


class TailEstimate(NamedTuple):
    """Monte Carlo tail estimate with a 99% normal half-width."""

    value: float
    half_width: float


def tail_probability_mc(spec: TailSpec, trials: int,
                        rng: np.random.Generator) -> TailEstimate:
    """Monte Carlo estimate of P(sum of signed votes <= 0).

    Samples the sufficient statistic (#up, #down) per trial from the
    trinomial law rather than individual votes; the event {sum <= 0}
    has identical distribution either way.
    """
    trials = _as_int(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    pv = np.asarray(vote_probabilities(spec.params))
    pv = pv / pv.sum()  # renormalize away float round-off for multinomial
    counts = rng.multinomial(spec.vote_count, pv, size=trials)
    hits = counts[:, 0] <= counts[:, 1]
    value = float(np.mean(hits))
    half_width = _Z_99 * math.sqrt(value * (1.0 - value) / trials)
    return TailEstimate(value, half_width)


def tail_regime(params: NoiseParams) -> str:
    """'small' when delta <= 1/(2k), else 'large'."""
    return "small" if params.delta <= 1.0 / (2 * params.k) else "large"


def tail_predictor(spec: TailSpec) -> float:
    """Regime predictor: delta^2 * n * k (small) or delta * n (large)."""
    p = spec.params
    if tail_regime(p) == "small":
        return p.delta**2 * spec.vote_count * p.k
    return p.delta * spec.vote_count


@dataclass(frozen=True)
class TailFit:
    """Least-squares fit of -ln(tail) against the regime predictor."""

    slope: float
    intercept: float
    r_squared: float
    regime: str
    predictors: tuple[float, ...]
    neg_log_tails: tuple[float, ...]


def fit_tail_exponent(specs: Sequence[TailSpec],
                      tails: Sequence[float] | None = None) -> TailFit:
    """Fit -ln(tail) = slope * predictor + intercept over a spec grid.

    All specs must fall in one bias regime; tails default to
    tail_probability_exact of each spec and must lie strictly in (0, 1).
    """
    specs = list(specs)
    if len(specs) < 5:
        raise ValueError(f"need at least 5 grid points to fit, got {len(specs)}")
    regimes = {tail_regime(s.params) for s in specs}
    if len(regimes) != 1:
        raise RegimeMixingError(
            "grid straddles the delta = 1/(2k) regime boundary"
        )
    regime = regimes.pop()
    if tails is None:
        tails = [tail_probability_exact(s) for s in specs]
    tails = [float(t) for t in tails]
    if len(tails) != len(specs):
        raise ValueError(f"got {len(tails)} tail probabilities for {len(specs)} specs")
    if any(not 0.0 < t < 1.0 for t in tails):
        raise ValueError("all tail probabilities must lie strictly in (0, 1)")
    x = np.asarray([tail_predictor(s) for s in specs])
    y = -np.log(tails)
    if np.ptp(x) == 0.0:
        raise DegenerateGridError("predictor is constant across the grid")
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 0.0
    return TailFit(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        r_squared=r_squared,
        regime=regime,
        predictors=tuple(float(v) for v in x),
        neg_log_tails=tuple(float(v) for v in y),
    )
