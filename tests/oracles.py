"""Independent test-side oracles.

Everything here recomputes package results by a different route:
exact rational arithmetic over outcome counts, literal enumeration of
outcome patterns, or plain loops over definitions. Keeping these
implementations separate from the package is the point; do not import
package internals beyond public constructors.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np


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

    The reference for the package's windowed dynamic program: the same
    vote probabilities and the same three array operations per vote,
    applied to the whole support, so both must agree bit for bit.
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

    The seed's base is mix(seed + golden), the pair's key (i << 32) ^ j,
    the hash mix(base + mix(key + golden)); its top 53 bits are the
    uniform u. Value 0 owns u < 1/k + delta, then each nonzero value a
    step of (1 - 1/k - delta) / (k - 1), the last one up to 1.
    """
    base = splitmix64_finalize(((seed & _MASK64) + _GOLDEN64) & _MASK64)
    key = splitmix64_finalize((((i << 32) ^ j) + _GOLDEN64) & _MASK64)
    u = (splitmix64_finalize((base + key) & _MASK64) >> 11) * 2.0**-53
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
