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
(_MleTable: every labeling's labels and pair differences, in
mixed-radix order) and then scores the answers against it. The table
depends on the plan alone, so run_mle_comparison builds it once and
scores each trial's transcript against the same table.

_log_tail is the one exact tail engine: it sums the trinomial terms
of the tail in log space, visiting only those within _BAND_NATS of the
largest, so it stays finite at vote counts where the tail underflows a
float. tail_probability_exact is its exponential.
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
    _as_int,
)

_MLE_ENUMERATION_LIMIT = 10**7
_MLE_CHUNK_CELLS = 1 << 22
_TAIL_VOTE_LIMIT = 10**5
_BAND_NATS = 40.0  # terms further below the largest are dropped
_Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


def _check_same_shape(estimate: Labeling, truth: Labeling) -> None:
    if estimate.n != truth.n or estimate.k != truth.k:
        raise DimensionMismatchError(
            f"labelings disagree: (n={estimate.n}, k={estimate.k}) vs "
            f"(n={truth.n}, k={truth.k})"
        )


def recover_success(estimate: Labeling, truth: Labeling) -> bool:
    """True iff estimate equals truth plus some global shift mod k."""
    _check_same_shape(estimate, truth)
    offset = (estimate.labels - truth.labels) % truth.k
    return bool(np.all(offset == offset[0]))


def hamming_after_best_shift(estimate: Labeling, truth: Labeling) -> int:
    """Minimum number of mismatched nodes over all global shifts."""
    _check_same_shape(estimate, truth)
    offset = (estimate.labels - truth.labels) % truth.k
    counts = np.bincount(offset, minlength=truth.k)
    return int(truth.n - counts.max())


@dataclass(frozen=True)
class LikelihoodSplit:
    """Edge counts splitting a transcript against a candidate labeling:
    agree edges have zero residual noise, disagree edges do not."""

    agree: int
    disagree: int


def likelihood_split(transcript: QueryTranscript, g: Labeling) -> LikelihoodSplit:
    """Count transcript pairs whose answer matches the labeling's difference."""
    if g.n != transcript.n or g.k != transcript.k:
        raise DimensionMismatchError(
            f"labeling (n={g.n}, k={g.k}) does not fit transcript "
            f"(n={transcript.n}, k={transcript.k})"
        )
    if len(transcript) == 0:
        return LikelihoodSplit(0, 0)
    plan = transcript._plan
    residual = (g.labels[plan.lo] - g.labels[plan.hi] - transcript._ans) % g.k
    agree = int(np.count_nonzero(residual == 0))
    return LikelihoodSplit(agree, len(transcript) - agree)


def log_likelihood(transcript: QueryTranscript, g: Labeling,
                   params: NoiseParams) -> float:
    """Log-probability of the transcript's answers given the labeling.

    Equals agree * ln(1/k + delta) + disagree * ln(1/k - delta/(k-1)).
    At the extreme delta = (k-1)/k a disagreeing edge has probability
    zero; that case raises instead of silently returning -inf.
    """
    split = likelihood_split(transcript, g)
    if split.disagree and params.p_nonzero <= 0.0:
        raise DegenerateLikelihoodError(
            f"{split.disagree} edges disagree but delta={params.delta:g} "
            "makes disagreement impossible"
        )
    out = split.agree * math.log(params.p_zero)
    if split.disagree:
        out += split.disagree * math.log(params.p_nonzero)
    return out


class _MleTable:
    """The k^(n-1) candidate labelings of a plan, with node 0 pinned to
    label 0, ready to score against any answers to that plan.

    Candidates are held a chunk at a time as an (n, chunk) table of
    their labels in the cell type (int8 unless k > 128): node 0 is 0
    and node i > 0 is digit i - 1 of the candidate id in base k, so the
    columns run in mixed-radix order. Beside it sits d = labels[lo] -
    labels[hi], one row per pair, each value in (-k, k). A chunk holds
    at most _MLE_CHUNK_CELLS // max(n, |pairs|) candidates, so both
    arrays stay within _MLE_CHUNK_CELLS cells whatever n and the plan
    size are. When the whole enumeration fits in one chunk the table
    keeps it and every score reads it; otherwise each score rebuilds
    the chunks one at a time.
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
        self.cell = np.min_scalar_type(-k)  # holds every d and every a - k
        self.count = np.min_scalar_type(self.lo.size)  # holds every agree count
        self.chunk = max(1, _MLE_CHUNK_CELLS // max(n, self.lo.size))
        self._kept = self._chunk(0) if self.chunk >= total else None

    def _chunk(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Labels and pair differences of candidates start, start + 1, ..."""
        rest = np.arange(start, min(start + self.chunk, self.total), dtype=np.int64)
        labels = np.zeros((self.n, rest.size), dtype=self.cell)
        for node in range(1, self.n):
            rest, labels[node] = np.divmod(rest, self.k)
        return labels, labels[self.lo] - labels[self.hi]

    def winners(self, answers: np.ndarray) -> np.ndarray:
        """The (n, m) labels of every candidate with the most agreeing
        pairs under answers (one per pair, in [0, k)), in mixed-radix
        order. Pair t agrees exactly when d[t] == a or d[t] == a - k;
        the counts are summed in the narrowest unsigned type that holds
        the number of pairs (uint8 up to 255 pairs), which is exact and
        about three times faster than numpy's default int64 sum."""
        # subtract k in int64: cell need not hold k (it is int8 at k = 128)
        wide = answers.astype(np.int64)[:, None]
        ans = wide.astype(self.cell)
        ans_wrapped = (wide - self.k).astype(self.cell)
        chunks = ([self._kept] if self._kept is not None else
                  map(self._chunk, range(0, self.total, self.chunk)))
        best_agree = -1
        best: list[np.ndarray] = []
        for labels, d in chunks:
            hit = d == ans
            hit |= d == ans_wrapped
            agree = hit.sum(axis=0, dtype=self.count)
            top = int(agree.max())
            if top > best_agree:
                best_agree = top
                best = [labels[:, agree == top]]
            elif top == best_agree:
                best.append(labels[:, agree == top])
        return np.concatenate(best, axis=1)


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
            r, u = 1.0, peak
            while True:  # up the line; r becomes 0 past its last term
                z = m - 2 * u - j
                r *= z * (z - 1) * rise / ((u + 1) * (u + j + 1))
                if r < floor:
                    break
                line, u = line + r, u + 1
            r, u = 1.0, peak
            while True:  # down the line; r becomes 0 past u = 0
                z = m - 2 * u - j
                r *= u * (u + j) / ((z + 1) * (z + 2) * rise)
                if r < floor:
                    break
                line, u = line + r, u - 1
        total += line * math.exp(t - top)
    return top + math.log(total)


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
