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
float. A group of lines of terms is walked as one (lines x terms)
array a chunk of terms at a time, with the products and sums of a walk
one line and one term at a time in the same order, so the result does
not depend on the group or chunk size. tail_probability_exact is its
exponential. tail_probability_mc draws each trial's vote counts as two
binomials, all trials' first counts before any second one, so it holds
a histogram and a chunk of trials, never an array over all trials.
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
_WALK_LINES = 64  # lines per group of a tail's walk
_WALK_CHUNK = 16  # terms per array step of a group's walk
_MC_CHUNK = 1 << 14  # trials per array step of the Monte Carlo draws
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
    that exact ratio, up to the last term within _BAND_NATS of the
    largest term seen so far. The law's mode has u > d, so line peaks
    fall as j grows, and the walk stops at the first line whose peak is
    below that band. Lines are added with a running log-sum-exp, so no
    term underflows, and only the band's terms are visited: no O(m)
    array is built.

    The lines are taken _WALK_LINES at a time: their peaks by one
    bisection over the group (_line_peaks), their peak terms, the
    stopping rule and the band floors line by line in Python floats,
    and their walks as one (lines x terms) array (_walk_lines). So
    every float operation is the one a walk one line and one term at a
    time makes, in the same order.

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
    # k = 2: a line holds a term only where m - j is even
    lines = range(0, m + 1) if zero else range(m % 2, m + 1, 2)
    for g in range(0, len(lines), _WALK_LINES):
        group = lines[g:g + _WALK_LINES]
        j = np.arange(group.start, group.stop, group.step)
        peak = _line_peaks(m, j, rise) if zero else (m - j) // 2
        seen, terms, floors = top, [], []  # seen: the top replayed below
        for jj, pk in zip(j.tolist(), peak.tolist()):
            d, z = pk + jj, m - 2 * pk - jj
            t = (head - math.lgamma(pk + 1) - math.lgamma(d + 1) - math.lgamma(z + 1)
                 + pk * log_up + d * log_down + z * log_zero)
            if t < top - _BAND_NATS:
                break
            top = max(top, t)
            terms.append(t)
            floors.append(math.exp(top - _BAND_NATS - t))
        count = len(terms)
        sums = np.ones(count)  # each line's sum / exp(its peak term)
        if zero and count:
            j, peak = j[:count], peak[:count]
            sums = _walk_lines(sums, floors, m - j, j, rise, peak, 1)
            sums = _walk_lines(sums, floors, m - j, j, rise, peak, -1)
        for t, line in zip(terms, sums.tolist()):
            if t > seen:
                total, seen = total * math.exp(seen - t), t
            total += line * math.exp(t - seen)
        if count < len(group):
            break
    return top + math.log(total)


def _line_peaks(m: int, j: np.ndarray, rise: float) -> np.ndarray:
    """The peak u of each line d - u = j (int64 j): the first u whose
    next term, ratio z(z-1) rise / ((u+1)(d+1)), is no larger, or the
    line's last u = (m - j) // 2.

    One bisection runs on all the lines at once, each line's bounds
    moving only while they differ, so each line takes the steps of its
    own bisection. Its products are integers below 2^53, exact in
    int64 and as floats, so each comparison is the scalar one.
    """
    peak, hi = np.zeros_like(j), (m - j) // 2
    while True:
        live = peak < hi
        if not live.any():
            return peak
        mid = (peak + hi) // 2
        z = m - 2 * mid - j
        rising = (z * (z - 1)) * rise > (mid + 1) * (mid + j + 1)
        rising &= live
        peak = np.where(rising, mid + 1, peak)
        hi = np.where(rising, hi, mid)


def _walk_lines(sums: np.ndarray, floors: list[float], width: np.ndarray,
                j: np.ndarray, rise: float, peak: np.ndarray,
                step: int) -> np.ndarray:
    """sums plus the terms of each line d - u = j (width = m - j, so
    z = width - 2u) next to its peak on one side, as ratios to the peak
    term, up to the first ratio below that line's floor.

    u runs from peak by step (+1 up the line, -1 down it) to the
    line's end, u = width // 2 or u = 0, where the ratio is 0; later
    columns repeat the end, so they hold 0 too. The lines are the rows
    of a (lines x _WALK_CHUNK) array of ratios, computed in the scalar
    operation order; a row's running product is one sequential
    accumulate along it, and its kept terms are added to its sum by
    another, so every product and partial sum is the same float
    operation, in the same order, as a walk one term at a time. A row
    that has stopped carries a product of 0, which stops it at once in
    every later step.
    """
    rows = np.arange(len(sums))
    floor = np.array(floors)[:, None]
    end = width // 2 if step > 0 else np.zeros_like(width)
    # u, z and their products are whole numbers below 2^53: exact in
    # floats, as they are in the Python ints of a scalar walk
    first = (peak[:, None] + step * np.arange(_WALK_CHUNK)).astype(np.float64)
    width, j = width[:, None].astype(np.float64), j[:, None].astype(np.float64)
    clip = np.minimum if step > 0 else np.maximum
    r = np.ones(len(sums))  # each row's running product, carried from step to step
    for a in range(0, int(abs(end - peak).max()) + 1, _WALK_CHUNK):
        u = first + step * a
        clip(u, end[:, None], out=u)
        z = width - 2 * u
        if step > 0:  # term u + 1 over term u
            p = z * (z - 1)
            p *= rise
            u += 1
            u *= u + j
            p /= u
        else:  # term u - 1 over term u
            z += 1
            z *= z + 1
            z *= rise
            p = u * (u + j)
            p /= z
        p[:, 0] *= r
        np.multiply.accumulate(p, axis=1, out=p)
        below = p < floor
        cut = below.argmax(axis=1)
        cut[~below[rows, cut]] = _WALK_CHUNK  # no ratio below the floor yet
        r = np.where(cut < _WALK_CHUNK, 0.0, p[:, -1])
        p[:, 0] += sums
        np.add.accumulate(p, axis=1, out=p)
        sums = np.where(cut > 0, p[rows, cut - 1], sums)
        if (cut < _WALK_CHUNK).all():
            break
    return sums


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

    Each trial draws the sufficient statistic, the counts (U, D, Z) ~
    Multinomial(m; up, down, zero) of +1, -1 and 0 votes, rather than
    the votes, as U ~ Bin(m, up) and then D | U ~ Bin(m - U, q) with
    q = down / (down + zero), which is the same law; it is a hit when
    U <= D. Every trial's U is drawn first, _MC_CHUNK at a time, and
    kept only as a histogram; the D are then drawn in ascending order
    of U, from the histogram expanded a chunk at a time. Trials are
    i.i.d., so the order in which their D are drawn does not change the
    law of the hit count; and in that order numpy's binomial sampler
    keeps its setup from one draw to the next while m - U repeats.
    Memory is O(m + _MC_CHUNK) for any trial count, and the draws, so
    the value, do not depend on _MC_CHUNK. At k = 2 there are no zero
    votes, so D = m - U and each trial makes one draw; with no down
    votes (the maximal bias) no trial can hit, and none draws.
    """
    trials = _as_int(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {rng!r}")
    m = spec.vote_count
    up, down, zero = vote_probabilities(spec.params)
    if not down:  # U = m > 0 = D in every trial
        return TailEstimate(0.0, 0.0)
    counts = np.zeros(m + 1, dtype=np.int64)  # trials with U = u
    for a in range(0, trials, _MC_CHUNK):
        u = rng.binomial(m, up / (up + down + zero), size=min(_MC_CHUNK, trials - a))
        counts += np.bincount(u, minlength=m + 1)
    if not zero:  # k = 2: D = m - U
        hits = int(counts[:m // 2 + 1].sum())
    else:
        hits, ends = 0, np.cumsum(counts)  # ends[u]: trials with U <= u
        for a in range(0, trials, _MC_CHUNK):
            # the sorted trials a .. b-1 hold the U values lo .. hi
            b = min(a + _MC_CHUNK, trials)
            lo, hi = np.searchsorted(ends, [a, b - 1], side="right")
            sizes = np.diff(np.clip(ends[lo:hi + 1], a, b), prepend=a)
            u = np.repeat(np.arange(lo, hi + 1), sizes)
            hits += int(np.count_nonzero(u <= rng.binomial(m - u, down / (down + zero))))
    value = hits / trials
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
