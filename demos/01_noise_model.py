"""The faulty-oracle noise model, measured against its closed form.

A query on the pair {i, j} returns (label(i) - label(j) + noise) mod k,
where the noise is 0 with probability 1/k + delta and each nonzero
value with probability 1/k - delta/(k-1). This script asks an oracle
whose hidden labels are all 0 a large plan, so that each answer is its
own noise draw, compares the answers' frequencies to the law, and
shows the two properties the rest of the package leans on: per-pair
determinism and orientation consistency.
"""

import numpy as np

import cycalign as ca

k, delta = 4, 0.2
params = ca.NoiseParams(k, delta)

print("=" * 64)
print(f"noise law at k={k}, delta={delta}")
print("=" * 64)
print(f"P[noise = 0]     = 1/k + delta          = {params.p_zero:.4f}")
print(f"P[noise = i!=0]  = 1/k - delta/(k-1)    = {params.p_nonzero:.4f}")

# with every label 0, the answer to (i, j) is its noise
n, s = 1001, 500
zeros = ca.Labeling(np.zeros(n, dtype=np.int64), k)
noise = ca.FaultyOracle(zeros, params, rng_seed=12345).execute_plan(ca.seed_rest_plan(n, s))
block = noise.oriented_matrix(range(s), range(s, n))
freq = np.bincount(block.ravel(), minlength=k) / block.size
print(f"\nanswer frequencies over {block.size:,} pairs of an all-zero truth:")
for value in range(k):
    expected = params.p_zero if value == 0 else params.p_nonzero
    print(f"  value {value}: {freq[value]:.4f}   (expected {expected:.4f})")

print("\n" + "=" * 64)
print("per-pair determinism")
print("=" * 64)
rng = np.random.default_rng(12345)
truth = ca.sample_truth(10, k, rng)
plan = ca.seed_rest_plan(10, 3)
first = ca.FaultyOracle(truth, params, rng_seed=7).execute_plan(plan)
second = ca.FaultyOracle(truth, params, rng_seed=7).execute_plan(plan)
print(f"same seed, same plan  -> identical transcripts: "
      f"{first.to_text() == second.to_text()}")
third = ca.FaultyOracle(truth, params, rng_seed=8).execute_plan(plan)
print(f"different seed        -> different transcripts: "
      f"{first.to_text() != third.to_text()}")

# noise attaches to the unordered pair, so the block's pairs, shuffled,
# split into chunks and each chunk answered by a fresh oracle with the
# same seed, get the block's answers exactly
pairs = list(zip(plan.lo.tolist(), plan.hi.tolist()))
rng.shuffle(pairs)
agree = True
for chunk in np.array_split(np.arange(len(pairs)), 4):
    part = ca.QueryPlan([pairs[t] for t in chunk], n=10)
    answers = ca.FaultyOracle(truth, params, rng_seed=7).execute_plan(part)
    agree &= all(a == first.lookup_oriented(i, j) for i, j, a in answers.items())
print(f"shuffled chunks on fresh oracles match the block: {agree}")

print("\n" + "=" * 64)
print("orientation convention")
print("=" * 64)
i, j = 1, 6
a = first.lookup_oriented(i, j)
b = first.lookup_oriented(j, i)
print(f"read ({i},{j}) = {a}, read ({j},{i}) = {b}, "
      f"sum mod k = {(a + b) % k} (always 0)")

print("\ntranscript serialization (first 5 lines):")
print("\n".join(first.to_text().splitlines()[:5]))
round_trip = ca.QueryTranscript.from_text(first.to_text())
print(f"text round trip preserves everything: "
      f"{round_trip.to_text() == first.to_text()}")
