"""Independent test-side oracles.

Everything here recomputes package results by a different route:
exact rational arithmetic over outcome counts, literal enumeration of
outcome patterns, or plain loops over definitions. Keeping these
implementations separate from the package is the point; do not import
package internals beyond public constructors.
"""

import hashlib
import math
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np

from cycalign import (
    ExperimentRecord,
    FaultyOracle,
    Labeling,
    NoiseParams,
    SeedConfig,
    derive_trial_seed,
    hamming_after_best_shift,
    recover_from_transcript,
    seed_rest_plan,
    seed_size,
)


def vote_probs_fraction(k: int, delta: float):
    """Exact (P[+1], P[-1], P[0]) as Fractions of the float inputs."""
    d = Fraction(delta)
    up = Fraction(1, k) + d
    down = Fraction(1, k) - d / (k - 1)
    zero = (k - 2) * down
    return up, down, zero


def tail_enum_multinomial(vote_count: int, k: int, delta: float) -> Fraction:
    """P(sum of signed votes <= 0) by exact summation over outcome counts."""
    up, down, zero = vote_probs_fraction(k, delta)
    total = Fraction(0)
    for n_up in range(vote_count + 1):
        for n_down in range(vote_count - n_up + 1):
            if n_up - n_down <= 0:
                ways = comb(vote_count, n_up) * comb(vote_count - n_up, n_down)
                total += (ways * up**n_up * down**n_down
                          * zero ** (vote_count - n_up - n_down))
    return total


def tail_enum_patterns(vote_count: int, k: int, delta: float) -> Fraction:
    """P(sum <= 0) by literal enumeration of all 3^vote_count patterns.

    Only viable for tiny vote counts; used to validate the multinomial
    oracle, which in turn validates the package evaluator.
    """
    up, down, zero = vote_probs_fraction(k, delta)
    mass = {+1: up, -1: down, 0: zero}
    total = Fraction(0)
    for pattern in product((+1, -1, 0), repeat=vote_count):
        if sum(pattern) <= 0:
            p = Fraction(1)
            for v in pattern:
                p *= mass[v]
            total += p
    return total


def tail_dp_full_array(vote_count: int, k: int, delta: float) -> float:
    """P(sum of signed votes <= 0) by float convolution over all 2n + 1 sums.

    A float reference for the package's log-space tail sum, by another
    route: the running sum's distribution, one vote at a time. Its
    rounding grows as vote_count * machine epsilon, so the two agree to
    a relative tolerance, not bit for bit, and it underflows to 0.0
    where the true tail is below the smallest float.
    P[X=-1] is exactly 0 at delta = (k-1)/k, as in NoiseParams.p_nonzero,
    where float round-off would leave it off zero.
    """
    up = 1.0 / k + delta
    down = 0.0 if delta == (k - 1) / k else 1.0 / k - delta / (k - 1)
    zero = (k - 2) * down
    n = vote_count
    dist = np.zeros(2 * n + 1)
    dist[n] = 1.0  # sum s lives at index s + n
    for _ in range(n):
        nxt = zero * dist
        nxt[1:] += up * dist[:-1]
        nxt[:-1] += down * dist[1:]
        dist = nxt
    return float(dist[: n + 1].sum())


def log_tail_binomial_exact(vote_count: int, up: float, down: float) -> float:
    """log P(U <= D) for U + D = vote_count, U ~ Binomial(vote_count, up),
    from the big-integer sum of C(m, u) up^u down^(m-u) over u <= m/2.

    up > down are the floats given (they need not sum to exactly 1).
    Writing up = a / 2^e and down = b / 2^e, every term is the integer
    C(m, u) a^u b^(m-u) over 2^(e m). The terms are summed in integers
    from u = m // 2 down, each from the one before exactly; each is at
    most b / a times the one before, so once a term is below 2^-128 of
    the sum, the rest add less than a float can resolve. Only the sum's
    top 64 bits meet a float, so the result is finite where the tail
    underflows.
    """
    (a, da), (b, db) = up.as_integer_ratio(), down.as_integer_ratio()
    scale = max(da, db)  # the denominators are powers of two
    a, b = a * (scale // da), b * (scale // db)
    m, u = vote_count, vote_count // 2
    term, total = comb(m, u) * a**u * b ** (m - u), 0
    while term > total >> 128:
        total += term
        term = term * u * b // ((m - u + 1) * a)
        u -= 1
    shift = max(total.bit_length() - 64, 0)
    return math.log(total >> shift) + (shift - m * (scale.bit_length() - 1)) * math.log(2)


def log_tail_by_scalar_walk(vote_count: int, up: float, down: float,
                            zero: float, band_nats: float = 40.0) -> float:
    """log P(U - D <= 0) for (U, D, Z) ~ Multinomial(vote_count; up,
    down, zero), by the package's band-limited log-space walk taken one
    term at a time in Python floats.

    The same algorithm as the package's exact tail: per line d - u = j
    a bisection for the peak, math.lgamma at the peak, and a walk out
    from it by the ratio of neighbouring terms while they stay within
    band_nats of the largest term so far. Every product and sum is a
    scalar float operation in walk order, so the package's array walk
    must agree with it bit for bit.
    """
    m = vote_count
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
        if t < top - band_nats:
            break
        if t > top:
            total, top = total * math.exp(top - t), t
        line = 1.0  # the line's sum / exp(t)
        if zero:
            floor = math.exp(top - band_nats - t)
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


def tail_mc_by_multinomial(vote_count: int, up: float, down: float, zero: float,
                           trials: int, rng: np.random.Generator) -> int:
    """Trials out of trials in which U <= D, for (U, D, Z) drawn per
    trial from Multinomial(vote_count; up, down, zero) by
    rng.multinomial: the package's former Monte Carlo estimator."""
    pv = np.array([up, down, zero])
    counts = rng.multinomial(vote_count, pv / pv.sum(), size=trials)
    return int(np.count_nonzero(counts[:, 0] <= counts[:, 1]))


_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def splitmix64_finalize(z: int) -> int:
    """The SplitMix64 finalizer on a Python int, masked to 64 bits."""
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def oracle_noise_by_definition(seed: int, i: int, j: int, k: int, delta: float) -> int:
    """The oracle's noise for the canonical pair (i, j), one pair at a time.

    The seed's base is mix(seed + golden) and the pair's hash
    z = mix(base + ((i << 32) ^ (j >> 1)) * golden); its low 32 bits
    when j is even, else its high 32 bits, are w, and u = w * 2^-32.
    Value 0 owns u < 1/k + delta, then each nonzero value a step of
    (1 - 1/k - delta) / (k - 1), the last one up to 1.
    """
    base = splitmix64_finalize(((seed & _MASK64) + _GOLDEN64) & _MASK64)
    z = splitmix64_finalize((base + (((i << 32) ^ (j >> 1)) * _GOLDEN64)) & _MASK64)
    u = ((z >> 32) if j & 1 else z & 0xFFFFFFFF) * 2.0**-32
    p_zero = 1.0 / k + delta
    if p_zero >= 1.0 or u < p_zero:
        return 0
    return 1 + min(int((u - p_zero) / ((1.0 - p_zero) / (k - 1))), k - 2)


def oracle_answers_by_definition(labels, pairs, k: int, delta: float, seed: int,
                                 noiseless: bool = False) -> list[int]:
    """(labels[i] - labels[j] + noise) mod k for each canonical pair (i, j)."""
    return [(int(labels[i]) - int(labels[j])
             + (0 if noiseless else oracle_noise_by_definition(seed, i, j, k, delta))) % k
            for i, j in pairs]


def hamming_by_scan(estimate, truth, k: int) -> int:
    """Min mismatches over all shifts, by explicit loop."""
    best = len(truth)
    for alpha in range(k):
        mism = sum(1 for e, t in zip(estimate, truth) if e != (t + alpha) % k)
        best = min(best, mism)
    return best


def success_by_scan(estimate, truth, k: int) -> bool:
    return hamming_by_scan(estimate, truth, k) == 0


def mle_by_scan(n: int, k: int, answers: dict) -> list[tuple]:
    """All labelings with node 0 at 0 maximizing the agree-edge count.

    answers maps canonical pairs (i, j), i < j, to values in [0, k).
    """
    best = -1
    winners = []
    for rest in product(range(k), repeat=n - 1):
        g = (0,) + rest
        agree = sum(1 for (i, j), a in answers.items()
                    if (g[i] - g[j] - a) % k == 0)
        if agree > best:
            best, winners = agree, [g]
        elif agree == best:
            winners.append(g)
    return winners


def plurality_by_count(values, k: int) -> int:
    """Smallest label among those with maximal multiplicity."""
    counts = [0] * k
    for v in values:
        counts[v] += 1
    top = max(counts)
    return counts.index(top)


def plurality_margin_by_count(values, k: int) -> int:
    """Count of the most frequent label minus the count of the runner-up."""
    counts = sorted((list(values).count(v) for v in range(k)), reverse=True)
    return counts[0] - counts[1]


def plurality_by_one_hot(a, ref, k: int):
    """Winners and margins of the votes (a - ref) mod k per row of the
    broadcast (..., rows, width): each vote as a one-hot row of k, the
    rows summed, the first largest count wins, and the margin is the
    top count minus the next after a full sort."""
    votes = (np.asarray(a, dtype=np.int64) - np.asarray(ref, dtype=np.int64)) % k
    counts = (votes[..., None] == np.arange(k)).sum(axis=-2)
    ranked = np.sort(counts, axis=-1)
    return counts.argmax(axis=-1), ranked[..., -1] - ranked[..., -2]


def pairwise_diffs_by_scan(labels, k: int) -> dict:
    """Exact (label(i) - label(j)) mod k for every canonical pair."""
    n = len(labels)
    return {(i, j): (labels[i] - labels[j]) % k
            for i, j in combinations(range(n), 2)}


def linear_fit_by_formula(x, y):
    """Slope and R^2 from the closed-form least-squares expressions."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xbar, ybar = x.mean(), y.mean()
    slope = float(((x - xbar) * (y - ybar)).sum() / ((x - xbar) ** 2).sum())
    intercept = float(ybar - slope * xbar)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - ybar) ** 2).sum())
    return slope, intercept, 1.0 - ss_res / ss_tot


def substream_by_definition(seed: int, tag: str) -> int:
    """A trial's derived seed: the first 8 bytes of blake2b("seed:tag"), big-endian."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def sweep_by_trial(config, noiseless: bool = False) -> list:
    """run_sweep's records, timing 0.0, one trial at a time: for each
    derive_trial_seed, the truth from its "truth" stream (node 0 pinned
    to 0), FaultyOracle on its "oracle" stream, recover_from_transcript
    on the seed x rest plan and hamming_after_best_shift."""
    records = []
    for n, k, delta, c in product(config.n_values, config.k_values,
                                  config.delta_values, config.constant_c_values):
        try:
            params = NoiseParams(k, delta)
            s = seed_size(n, params, SeedConfig(constant_c=c,
                                                budget_scale=config.budget_scale))
        except ValueError:
            continue
        cell = (n, k, delta, c, config.budget_scale)
        successes = hamming_total = 0
        for t in range(config.trials):
            trial_seed = derive_trial_seed(config.base_seed, cell, t)
            rng = np.random.default_rng(substream_by_definition(trial_seed, "truth"))
            labels = rng.integers(0, k, size=n)
            labels[0] = 0
            truth = Labeling(labels, k)
            oracle = FaultyOracle(truth, params, substream_by_definition(trial_seed, "oracle"),
                                  noiseless=noiseless)
            result = recover_from_transcript(oracle.execute_plan(seed_rest_plan(n, s)), s)
            hamming = hamming_after_best_shift(result.labeling, truth)
            successes += hamming == 0
            hamming_total += hamming
        records.append(ExperimentRecord(
            n=n, k=k, delta=float(delta), constant_c=float(c), seed_size=s,
            query_count=s * (n - s), trials=config.trials, successes=successes,
            mean_hamming=hamming_total / config.trials, wall_time_seconds=0.0))
    return records
