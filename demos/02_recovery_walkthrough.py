"""One recovery, step by step.

The method is non-adaptive: all queries between a seed set S (the
first |S| nodes) and the rest are fixed upfront. The anchor seed node
is declared label 0; each other seed node is labeled by a plurality
vote over difference-of-answer estimates; the rest of the graph is
labeled by plurality votes against the reconciled seed.

recover_from_transcript runs all of these steps in one call on the
seed x rest block. Each step's outcome is read off its result: the
seed labels against the truth shifted so that the anchor reads 0, and
the vote margins of the seed votes against those of the rest votes.
The output can only ever match the truth up to a global cyclic shift,
which is exactly what the success check allows.
"""

import numpy as np

import cycalign as ca

n, k, delta = 120, 3, 0.45
params = ca.NoiseParams(k, delta)
cfg = ca.SeedConfig()  # constant_c=40 by default

print("=" * 64)
print(f"instance: n={n}, k={k}, delta={delta}")
print("=" * 64)
boundary = ca.validity_threshold(n, k)
print(f"validity boundary (ln n/(n k))^(1/4) = {boundary:.3f}; "
      f"delta {'above' if delta >= boundary else 'below'} it")

rng = np.random.default_rng(99)
truth = ca.sample_truth(n, k, rng)
print(f"hidden truth (first 12 nodes): {truth.labels[:12].tolist()} ...")

s = ca.seed_size(n, params, cfg)
plan = ca.seed_rest_plan(n, s)
print(f"\nseed size {s}, plan size {len(plan)} = {s} * {n - s}")

oracle = ca.FaultyOracle(truth, params, rng_seed=2718)
transcript = oracle.execute_plan(plan)
result = ca.recover_from_transcript(transcript, s)
estimate = result.labeling
margins = result.per_node_margin
anchored = ca.shift_labeling(truth, (0 - truth.labels[0]) % k).labels

print("\nstep 1: reconcile the seed against the anchor (node 0)")
seed_ok = estimate.labels[:s] == anchored[:s]
print(f"  seed labels equal to the truth shifted to the anchor: "
      f"{seed_ok.sum()}/{s}")
print(f"  seed labels (first 12): {estimate.labels[:12].tolist()} ...")
print(f"  anchored truth        : {anchored[:12].tolist()} ...")

print("\nstep 2: extend to the remaining nodes by plurality vote")
rest_ok = estimate.labels[s:] == anchored[s:]
print(f"  rest labels equal to the anchored truth: {rest_ok.sum()}/{n - s}")

print("\nvote margins (winner minus runner-up; low margins flag near-failures)")
seed_m, rest_m = margins[1:s], margins[s:]  # margins[0] is the anchor's sentinel
print(f"  seed votes over {n - s} rest nodes: min={seed_m.min()}, "
      f"median={np.median(seed_m):g}, max={seed_m.max()}")
print(f"  rest votes over {s} seed nodes:  min={rest_m.min()}, "
      f"median={np.median(rest_m):g}, max={rest_m.max()}")

print("\nscoring")
success = ca.recover_success(estimate, truth)
hamming = ca.hamming_after_best_shift(estimate, truth)
print(f"  exact up to shift: {success}   residual mismatches: {hamming}")
print(f"  queries used: {result.query_count}")

print("\nthe same thing through the single entry point")
oracle2 = ca.FaultyOracle(truth, params, rng_seed=2718)
again = ca.run_algorithm1(n, params, cfg, oracle2)
print(f"  same labels: {again.labeling == estimate}")

print("\neffective bias note: seed reconciliation votes carry bias")
print(f"  k delta^2/(k-1) = {ca.effective_bias(params):.4f} "
      f"versus the raw delta = {delta} used by the extension votes,")
print("  which is why the seed stage is the fragile one at small delta.")
