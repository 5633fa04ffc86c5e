"""Exact and statistical oracles for recovery experiments.

Contents:

* success scoring up to a global cyclic shift, plus a graded Hamming
  distance after the best shift;
* transcript log-likelihood of a candidate labeling and brute-force
  maximum-likelihood enumeration for tiny instances;
* the tail probability P(sum_i X_i <= 0) for i.i.d. signed votes
  (X_i = +1 with probability 1/k + delta, -1 with probability
  1/k - delta/(k-1), else 0), evaluated exactly by dynamic
  programming, estimated by Monte Carlo, and summarized by a
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

tail_probabilities_exact evaluates a whole grid with one dynamic
program per noise law: the pass runs to the law's largest vote count
and reads each smaller count's tail on the way. The cells a pass keeps
after t votes are computed from the cells kept after t - 1 votes alone,
so they hold the same floats whichever count the pass runs to, and each
tail equals its own pass's bit for bit.
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
_DP_VOTE_LIMIT = 10**5
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


def _check_dp_votes(vote_count: int) -> None:
    """Raise InstanceTooLargeError above the exact tail's vote guard."""
    if vote_count > _DP_VOTE_LIMIT:
        raise InstanceTooLargeError(
            f"vote_count {vote_count} exceeds the dynamic-programming guard "
            f"{_DP_VOTE_LIMIT}"
        )


def tail_probabilities_exact(specs: Sequence[TailSpec]) -> list[float]:
    """tail_probability_exact of each spec, in order, with one dynamic
    program per noise law.

    The specs are grouped by params in first-seen order. Every law's
    largest vote count is checked against the vote guard before any
    tail is computed; then each law gets one windowed pass up to its
    largest count, and the tail at a smaller count m is read at step m.
    That reading is exact: a kept cell with sum s after t votes depends
    only on the cells s - 1, s and s + 1 after t - 1 votes, so it holds
    the same float whatever count the pass runs to. A longer pass keeps
    more cells above the tail (those with s up to its own count minus
    t), never fewer, and the cells it trims are exact zeros in every
    pass. At step m the cells with s <= 0 are copied at index s + m
    into a zero array of m + 1 cells, which is the array the final sum
    of a pass to m receives, so the summation order is the same too.
    A grid of one law costs about what its largest count costs alone.
    """
    laws: dict[NoiseParams, dict[int, list[int]]] = {}
    for i, spec in enumerate(specs):
        laws.setdefault(spec.params, {}).setdefault(spec.vote_count, []).append(i)
    for wanted in laws.values():
        _check_dp_votes(max(wanted))
    tails = [0.0] * len(specs)
    for params, wanted in laws.items():
        for votes, tail in _law_tails(params, set(wanted)).items():
            for i in wanted[votes]:
                tails[i] = tail
    return tails


def _law_tails(params: NoiseParams, counts: set[int]) -> dict[int, float]:
    """The exact tail at each vote count in counts, from one windowed
    pass of the dynamic program up to the largest of them."""
    n = max(counts)
    up, down, zero = vote_probabilities(params)
    cur = np.zeros(2 * n + 1)
    nxt = np.zeros(2 * n + 1)
    term = np.empty(2 * n + 1)
    cur[n] = 1.0
    lo, hi = n, n + 1
    tails = {}
    for step in range(1, n + 1):
        w = cur[lo:hi]
        t = term[: hi - lo]
        nxt[lo - 1] = nxt[hi] = 0.0
        np.multiply(w, zero, out=nxt[lo:hi])
        np.multiply(w, up, out=t)
        np.add(nxt[lo + 1 : hi + 1], t, out=nxt[lo + 1 : hi + 1])
        np.multiply(w, down, out=t)
        np.add(nxt[lo - 1 : hi - 1], t, out=nxt[lo - 1 : hi - 1])
        # a sum above n - step cannot get back to <= 0 in the votes left
        lo, hi = lo - 1, min(hi + 1, 2 * n - step + 1)
        while lo < hi and nxt[lo] == 0.0:
            lo += 1
        while hi > lo and nxt[hi - 1] == 0.0:
            hi -= 1
        cur, nxt = nxt, cur
        if step in counts:
            # zero-pad the cells with sum <= 0 to the support {-step, ..., 0}
            top = min(hi, n + 1)
            pad = np.zeros(step + 1)
            pad[lo - n + step : top - n + step] = cur[lo:top]
            tails[step] = float(pad.sum())
    return tails


def tail_probability_exact(spec: TailSpec) -> float:
    """Exact P(sum of signed votes <= 0) by convolution over {-n, ..., n}.

    A one-spec call of tail_probabilities_exact, which holds the one
    dynamic-programming loop. Give that function a whole grid: a law's
    pass to its largest count yields every smaller count's tail, since
    the cells kept after t votes are the same floats whatever count the
    pass runs to.

    The distribution of the running sum lives on 2n + 1 cells, sum s at
    index s + n, but only a window [lo, hi) of them is kept: after
    each vote the window grows by one cell on each side, exact zeros
    are trimmed off both ends, and cells with s above the number of
    votes still to come are dropped. Each step multiplies the window by
    P[X=0] into the new window, then adds P[X=+1] times it one cell up
    and P[X=-1] times it one cell down, in that order. That is the
    sequence of float operations a convolution over all 2n + 1 cells
    performs on every kept cell. The cells it skips either hold exactly
    zero there, and adding a product with a zero leaves a nonzero value
    unchanged, or lie above the votes still to come, so neither they
    nor anything they feed is ever summed. The final sum runs over the
    zero-padded cells s <= 0, so numpy's pairwise summation order is
    unchanged too, and the result equals that of the full-width
    convolution bit for bit. Cost is O(n * window): the window stays
    near the width over which the tails have not underflowed, ~4 600
    cells on average at 20 000 votes for k = 4, delta = 0.05, against
    40 001 for the full support.

    Float accumulation error is O(vote_count * machine epsilon); the
    test suite pins agreement with exact rational enumeration to 1e-12
    at small sizes.
    """
    return tail_probabilities_exact([spec])[0]


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

    All specs must fall in one bias regime; tails default to the exact
    dynamic-programming values and must lie strictly in (0, 1).
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
        tails = tail_probabilities_exact(specs)
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
