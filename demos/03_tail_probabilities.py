"""Tail probabilities of plurality contests: exact, sampled, and fitted.

A plurality vote between the correct label and one wrong label fails
exactly when the sum of signed votes (+1 for correct, -1 for that
wrong label, 0 otherwise) is <= 0. This script evaluates that tail
P(sum <= 0) three ways and shows its exponential decay rate switching
between the two bias regimes:

  delta <= 1/(2k):  -ln(tail) grows like delta^2 * n * k
  delta  > 1/(2k):  -ln(tail) grows like delta * n
"""

import numpy as np

import cycalign as ca

print("=" * 70)
print("exact log-space sum vs Monte Carlo")
print("=" * 70)
params = ca.NoiseParams(4, 0.05)
rng = np.random.default_rng(7)
print(f"{'votes':>6} {'exact':>12} {'monte carlo':>14} {'99% half-width':>15}")
for votes in (10, 50, 100, 200, 400):
    spec = ca.TailSpec(votes, params)
    exact = ca.tail_probability_exact(spec)
    est = ca.tail_probability_mc(spec, 200_000, rng)
    print(f"{votes:>6} {exact:>12.6f} {est.value:>14.6f} {est.half_width:>15.6f}")

print()
print("=" * 70)
print("small-bias regime: -ln(tail) against delta^2 * n * k")
print("=" * 70)
small = [ca.TailSpec(n, ca.NoiseParams(4, 0.02)) for n in range(200, 2001, 200)]
fit = ca.fit_tail_exponent(small)
print(f"{'n':>6} {'predictor':>10} {'-ln(tail)':>10}")
for spec, x, y in zip(small, fit.predictors, fit.neg_log_tails):
    print(f"{spec.vote_count:>6} {x:>10.3f} {y:>10.3f}")
print(f"fit: slope={fit.slope:.4f}, intercept={fit.intercept:.4f}, "
      f"R^2={fit.r_squared:.5f}")

print()
print("=" * 70)
print("large-bias regime: -ln(tail) against delta * n")
print("=" * 70)
large = [ca.TailSpec(n, ca.NoiseParams(2, 0.3)) for n in range(20, 201, 20)]
fit = ca.fit_tail_exponent(large)
print(f"{'n':>6} {'predictor':>10} {'-ln(tail)':>10}")
for spec, x, y in zip(large, fit.predictors, fit.neg_log_tails):
    print(f"{spec.vote_count:>6} {x:>10.1f} {y:>10.3f}")
print(f"fit: slope={fit.slope:.4f}, intercept={fit.intercept:.4f}, "
      f"R^2={fit.r_squared:.5f}")

print()
print("mixing the regimes in one grid is refused:")
mixed = [ca.TailSpec(50, ca.NoiseParams(4, d)) for d in (0.05, 0.1, 0.15, 0.2, 0.3)]
try:
    ca.fit_tail_exponent(mixed)
except ca.RegimeMixingError as exc:
    print(f"  RegimeMixingError: {exc}")
