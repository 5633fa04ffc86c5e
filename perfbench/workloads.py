"""The benchmark's workloads.

Each workload turns the benchmark seed into inputs and offers one or
more steps. A step runs through the program's public entry points (the
untraced run) or through a mirror that calls the public stage
functions in the order the entry point uses them, with a span around
each call (the traced run). Both return a ``StepOutput`` whose digests
must agree byte for byte, so a refactor that the mirror no longer
follows fails instead of measuring a different program.

The mirrors use one private helper, ``cycalign.harness._substream``,
which derives the truth and oracle seeds of a trial; the traced runs
cannot reproduce the program's outputs without it.

Why each workload was chosen:

* ``trial_large``: one ``seed x rest`` block of 6.83 M queries
  (n = 10^4, k = 4, delta = 0.5, c = 40, unclamped |S| = 737). Plan
  construction, oracle answering, transcript build and recovery do
  almost all the work; there is no per-trial loop and scoring is
  negligible. Block-native data path changes show here first.
* ``sweep_boundary``: one sweep over n in {200, 400, 800}, k in {2, 4},
  delta in {0.2, 0.3, 0.45}, 10 trials per cell, then the CSV. All 18
  cells clamp |S| to n/2 and the grid straddles the validity boundary,
  so exact-recovery rates span 0 to 1 and the many small independent
  trials stress the trial loop. A trial pool or a recovery-quality
  change shows here and not on ``trial_large``.
* ``verify_small``: the theory checks. The small-regime lemma grid is
  nearly all exact tail DP; the large-regime grid fails today with the
  tail underflow and is counted as a failed operation; the n = 8 MLE
  comparison uses many tiny full-triangle plans. Here ``analysis`` does
  the work and ``core``/``oracle`` run on tiny plans instead of one
  large block.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from cycalign import harness
from cycalign.analysis import (
    TailSpec,
    brute_force_mle,
    fit_tail_exponent,
    hamming_after_best_shift,
    recover_success,
    tail_predictor,
    tail_probability_exact,
    tail_probability_mc,
    tail_regime,
)
from cycalign.core import Labeling, NoiseParams
from cycalign.oracle import FaultyOracle
from cycalign.recovery import (
    SeedConfig,
    ValidityRegimeWarning,
    recover_from_transcript,
    seed_rest_plan,
    seed_size,
)

# Seed sizes below the validity boundary warn on every call; the
# sweep and MLE grids sit there on purpose.
warnings.simplefilter("ignore", ValidityRegimeWarning)

INPUT_SETS = 64  # distinct inputs a run can draw; pass j uses input j // 2


@dataclass
class StepOutput:
    digests: dict[str, str]
    problems: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)


class Step(NamedTuple):
    """One operation of a pass.

    ``run(i)`` calls the program's entry point on input set i and
    ``mirror(i, tracer)`` repeats it stage by stage under spans; only
    these two are timed. ``check`` turns either raw result into a
    StepOutput afterwards.
    """

    run: Callable
    mirror: Callable
    check: Callable


def sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype="<i8").tobytes())
        else:
            h.update(str(part).encode())
    return h.hexdigest()


def derive_seeds(seed: int, tag: str) -> list[int]:
    """INPUT_SETS 63-bit seeds from the benchmark seed, one stream per tag."""
    entropy = int.from_bytes(hashlib.sha256(f"{seed}:{tag}".encode()).digest()[:8], "big")
    return np.random.default_rng(entropy).integers(0, 2**63, size=INPUT_SETS).tolist()


def expected_seed_size(n: int, k: int, delta: float, c: float) -> int:
    """|S| from the paper's formula, computed apart from recovery.seed_size."""
    if delta <= 1.0 / (2 * k):
        raw = math.ceil(c * math.log(n) / (k * delta**2))
    else:
        raw = math.ceil(c * math.log(n) / delta)
    return max(1, min(raw, n // 2))


def array_bytes(obj) -> int:
    """Bytes held by the numpy arrays an object stores (computed, not measured)."""
    names = getattr(type(obj), "__slots__", None) or vars(obj)
    values = (getattr(obj, name, None) for name in names)
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def vote_count(n: int, s: int) -> int:
    """Votes cast by recover_from_transcript: seed reconciliation plus extension."""
    return (s - 1) * (n - s) + s * (n - s)


# ---------------------------------------------------------------- trials

def mirror_trial(tr, n, params, cfg, trial_seed):
    """harness.run_trial_detailed (noisy, budget_scale None), stage by stage."""
    with tr.span("harness.trial"):
        rng = np.random.default_rng(harness._substream(trial_seed, "truth"))
        truth = tr.call("harness.sample_truth", harness.sample_truth, n, params.k, rng)
        oracle = FaultyOracle(truth, params, harness._substream(trial_seed, "oracle"))
        # run_algorithm1
        s = tr.call("recovery.seed_size", seed_size, n, params, cfg)
        plan = tr.call("recovery.seed_rest_plan", seed_rest_plan, n, s)
        tr.count("core.plan_bytes", array_bytes(plan))
        transcript = tr.call("oracle.execute_plan", oracle.execute_plan, plan)
        tr.count("oracle.queries", oracle.query_count)
        tr.count("core.transcript_bytes", array_bytes(transcript))
        result = tr.call("recovery.recover_from_transcript",
                         recover_from_transcript, transcript, s)
        tr.count("recovery.votes", vote_count(n, s))
        with tr.span("analysis.score"):
            outcome = harness.TrialOutcome(
                success=recover_success(result.labeling, truth),
                hamming=hamming_after_best_shift(result.labeling, truth),
                query_count=result.query_count,
            )
    return truth, result, outcome, plan, transcript, oracle


def check_trial(truth, result, outcome, s_expected: int) -> StepOutput:
    n, k = truth.n, truth.k
    labels = result.labeling.labels
    problems = []
    if labels.shape != (n,) or labels.min() < 0 or labels.max() >= k:
        problems.append(f"labels are not {n} values in [0, {k})")
    expected_queries = s_expected * (n - s_expected)
    if len(result.seed) != s_expected:
        problems.append(f"seed size {len(result.seed)} != {s_expected}")
    if not result.query_count == outcome.query_count == expected_queries:
        problems.append(f"query count {result.query_count}/{outcome.query_count} "
                        f"!= |S|(n-|S|) = {expected_queries}")
    offset = (labels - truth.labels) % k
    hamming = n - int(np.bincount(offset, minlength=k).max())
    if outcome.hamming != hamming or outcome.success != (hamming == 0):
        problems.append(f"scored hamming {outcome.hamming} (success {outcome.success}) "
                        f"but labels are {hamming} from the best shift of the truth")
    return StepOutput(
        digests={"truth": sha(truth.labels), "labels": sha(labels),
                 "margins": sha(result.per_node_margin)},
        problems=problems,
        stats={"trials": 1, "successes": int(outcome.success),
               "hamming": outcome.hamming, "queries": outcome.query_count},
    )


def check_block(plan, transcript, oracle, s: int) -> list[str]:
    """The executed plan is the seed x rest block, every pair once."""
    n = plan.n
    problems = []
    if not len(plan) == len(transcript) == oracle.query_count == s * (n - s):
        problems.append(f"plan/transcript/oracle sizes {len(plan)}/{len(transcript)}/"
                        f"{oracle.query_count} != |S|(n-|S|) = {s * (n - s)}")
    keys = plan.lo * np.int64(n) + plan.hi
    if np.unique(keys).size != keys.size:
        problems.append("the plan repeats a pair")
    if plan.lo.max() >= s or plan.hi.min() < s:
        problems.append("the plan leaves the seed x rest block")
    return problems


class TrialLarge:
    name = "trial_large"
    PASS_METRIC = "trial_s_p50"  # one pass is one trial
    RATE = ("queries_per_s", "queries")
    N, K, DELTA, C = 10_000, 4, 0.5, 40.0

    def __init__(self, seed: int):
        self.params = NoiseParams(self.K, self.DELTA)
        self.cfg = SeedConfig(constant_c=self.C)
        self.s = expected_seed_size(self.N, self.K, self.DELTA, self.C)
        self.trial_seeds = derive_seeds(seed, self.name)
        self.steps = {"trial": Step(self.run, self.mirror, self.check)}

    def run(self, i: int):
        return *harness.run_trial_detailed(self.N, self.params, self.cfg,
                                           self.trial_seeds[i]), None

    def mirror(self, i: int, tr):
        truth, result, outcome, *block = mirror_trial(
            tr, self.N, self.params, self.cfg, self.trial_seeds[i])
        return truth, result, outcome, block

    def check(self, raw) -> StepOutput:
        truth, result, outcome, block = raw
        out = check_trial(truth, result, outcome, self.s)
        if block is not None:
            plan, transcript, oracle = block
            out.problems += check_block(plan, transcript, oracle, self.s)
            seed, rest = np.arange(self.s), np.arange(self.s, self.N)
            out.digests["answers"] = sha(transcript.oriented_matrix(seed, rest))
        return out


# ---------------------------------------------------------------- sweep

class SweepBoundary:
    name = "sweep_boundary"
    PASS_METRIC = None
    RATE = ("trials_per_s", "trials")
    GRID = {"n_values": (200, 400, 800), "k_values": (2, 4),
            "delta_values": (0.2, 0.3, 0.45), "constant_c_values": (40.0,)}
    TRIALS = 10

    def __init__(self, seed: int):
        self.base_seeds = derive_seeds(seed, self.name)
        self.steps = {"sweep": Step(self.run, self.mirror, self.check)}

    def config(self, i: int) -> harness.SweepConfig:
        return harness.SweepConfig(**self.GRID, trials=self.TRIALS,
                                   base_seed=self.base_seeds[i])

    def run(self, i: int) -> str:
        return harness.records_to_csv(harness.run_sweep(self.config(i)),
                                      include_timing=False)

    def mirror(self, i: int, tr) -> str:
        """harness.run_sweep plus records_to_csv, stage by stage.

        Every cell of the grid is valid and budget_scale is None, so
        run_sweep's skip path and budget scaling are not mirrored.
        """
        config = self.config(i)
        records = []
        for n, k, delta, c in itertools.product(*self.GRID.values()):
            params = NoiseParams(k, delta)
            cfg = SeedConfig(constant_c=c)
            s = tr.call("recovery.seed_size", seed_size, n, params, cfg)
            cell = (n, k, delta, c, config.budget_scale)
            start = time.perf_counter()
            successes = hamming = 0
            for t in range(config.trials):
                trial_seed = harness.derive_trial_seed(config.base_seed, cell, t)
                outcome = mirror_trial(tr, n, params, cfg, trial_seed)[2]
                successes += outcome.success
                hamming += outcome.hamming
            records.append(harness.ExperimentRecord(
                n=n, k=k, delta=float(delta), constant_c=float(c), seed_size=s,
                query_count=outcome.query_count, trials=config.trials,
                successes=successes, mean_hamming=hamming / config.trials,
                wall_time_seconds=time.perf_counter() - start))
        return tr.call("harness.records_to_csv", harness.records_to_csv,
                       records, include_timing=False)

    def check(self, csv: str) -> StepOutput:
        lines = csv.splitlines()
        cells = list(itertools.product(*self.GRID.values()))
        problems = []
        if lines[0] != harness.CSV_HEADER:
            problems.append(f"CSV header {lines[0]!r} differs from the schema")
        if len(lines) != len(cells) + 1:
            problems.append(f"{len(lines) - 1} CSV rows for {len(cells)} cells")
        stats = {"trials": 0, "successes": 0, "hamming": 0.0, "queries": 0}
        for line, (n, k, delta, c) in zip(lines[1:], cells):
            f = line.split(",")
            s = expected_seed_size(n, k, delta, c)
            trials, successes, mean_hamming = int(f[6]), int(f[7]), float(f[8])
            expected = [str(n), str(k), repr(delta), repr(c), str(s),
                        str(s * (n - s)), str(self.TRIALS)]
            if f[:7] != expected or f[9] != "0.000000":
                problems.append(f"row {line!r} should start {','.join(expected)}")
            if not (0 <= successes <= trials and 0.0 <= mean_hamming <= n
                    and (successes == trials) == (mean_hamming == 0.0)):
                problems.append(f"row {line!r}: successes and mean Hamming disagree")
            stats["trials"] += trials
            stats["successes"] += successes
            stats["hamming"] += mean_hamming * trials
            stats["queries"] += int(f[5]) * trials
        return StepOutput(digests={"sweep_csv": sha(csv)}, problems=problems, stats=stats)


# ---------------------------------------------------------------- verify

def mirror_lemma_check(tr, specs, trials, base_seed):
    """harness.run_lemma_check on a single-regime grid of five points."""
    points, exact_tails = [], []
    for idx, spec in enumerate(specs):
        exact = tr.call("analysis.tail_probability_exact", tail_probability_exact, spec)
        tr.count("analysis.dp_cells", spec.vote_count * (2 * spec.vote_count + 1))
        rng = np.random.default_rng(harness._substream(
            harness.derive_trial_seed(base_seed, ("lemma", idx), 0), "mc"))
        mc = tr.call("analysis.tail_probability_mc", tail_probability_mc, spec, trials, rng)
        tr.count("analysis.mc_draws", trials)
        exact_tails.append(exact)
        points.append(harness.LemmaPoint(
            vote_count=spec.vote_count, k=spec.params.k, delta=spec.params.delta,
            regime=tail_regime(spec.params), predictor=tail_predictor(spec),
            exact_tail=exact, mc_tail=mc.value, mc_half_width=mc.half_width))
    with tr.span("analysis.fit_tail_exponent"):
        try:
            fit = fit_tail_exponent(specs, tails=exact_tails)
        except ValueError:
            tr.count("analysis.fit_failures", 1)
            raise
    return harness.LemmaCheckReport(points=tuple(points), fit=fit, trials=trials)


def mirror_mle_comparison(tr, n, params, trials, base_seed, cfg=SeedConfig()):
    """harness.run_mle_comparison (noisy), stage by stage.

    Also returns a digest of every trial's recovered labels and
    transcript text, which the untraced entry point does not expose.
    """
    plan = tr.call("harness.full_pairwise_plan", harness.full_pairwise_plan, n)
    tr.count("core.plan_bytes", array_bytes(plan))
    agreements = nonunique = 0
    chain = hashlib.sha256()
    for t in range(trials):
        with tr.span("harness.trial"):
            trial_seed = harness.derive_trial_seed(
                base_seed, ("mle", n, params.k, params.delta), t)
            rng = np.random.default_rng(harness._substream(trial_seed, "truth"))
            truth = tr.call("harness.sample_truth", harness.sample_truth, n, params.k, rng)
            oracle = FaultyOracle(truth, params, harness._substream(trial_seed, "oracle"))
            transcript = tr.call("oracle.execute_plan", oracle.execute_plan, plan)
            tr.count("oracle.queries", oracle.query_count)
            tr.count("core.transcript_bytes", array_bytes(transcript))
            s = tr.call("recovery.seed_size", seed_size, n, params, cfg)
            result = tr.call("recovery.recover_from_transcript",
                             recover_from_transcript, transcript, s)
            tr.count("recovery.votes", vote_count(n, s))
            normalized = Labeling(
                (result.labeling.labels - result.labeling.labels[0]) % params.k, params.k)
            candidates = tr.call("analysis.brute_force_mle", brute_force_mle,
                                 transcript, n, params)
            tr.count("analysis.mle_candidate_pairs", params.k ** (n - 1) * len(transcript))
            nonunique += len(candidates) > 1
            agreements += any(normalized == c for c in candidates)
        chain.update(result.labeling.labels.astype("<i8").tobytes())
        chain.update(transcript.to_text().encode())
    report = harness.MleComparisonReport(trials=trials, agreements=agreements,
                                         nonunique_mle=nonunique)
    return report, chain.hexdigest()


class VerifySmall:
    name = "verify_small"
    PASS_METRIC = RATE = None
    LEMMA_TRIALS = 200_000
    LEMMA_SMALL = (NoiseParams(4, 0.05), (4000, 8000, 12000, 16000, 20000), "small")
    # Fails today: the exact tails underflow to 0 and the fit rejects them.
    LEMMA_LARGE = (NoiseParams(2, 0.3), (2000, 4000, 6000, 8000, 10000), "large")
    MLE_N, MLE_PARAMS, MLE_TRIALS = 8, NoiseParams(3, 0.45), 1000

    def __init__(self, seed: int):
        self.base_seeds = derive_seeds(seed, self.name)
        self.steps = {}
        for step, grid in (("lemma_small", self.LEMMA_SMALL),
                           ("lemma_large", self.LEMMA_LARGE)):
            self.steps[step] = Step(partial(self.run_lemma, grid),
                                    partial(self.mirror_lemma, grid),
                                    partial(self.check_lemma, grid))
        self.steps["mle"] = Step(self.run_mle, self.mirror_mle, self.check_mle)

    def run_lemma(self, grid, i: int):
        params, votes, _ = grid
        return harness.run_lemma_check([TailSpec(v, params) for v in votes],
                                       self.LEMMA_TRIALS, base_seed=self.base_seeds[i])

    def mirror_lemma(self, grid, i: int, tr):
        params, votes, _ = grid
        return mirror_lemma_check(tr, [TailSpec(v, params) for v in votes],
                                  self.LEMMA_TRIALS, self.base_seeds[i])

    def check_lemma(self, grid, report) -> StepOutput:
        _, votes, regime = grid
        pts = report.points
        problems = []
        if [p.vote_count for p in pts] != list(votes):
            problems.append("lemma report lost or reordered grid points")
        if any(not (0.0 < p.exact_tail < 1.0 and 0.0 <= p.mc_tail <= 1.0) for p in pts):
            problems.append("a tail probability lies outside (0, 1)")
        if any(a.exact_tail <= b.exact_tail for a, b in zip(pts, pts[1:])):
            problems.append("exact tails do not fall as the vote count grows")
        if report.fit is None or report.fit.regime != regime or pts[0].regime != regime:
            problems.append(f"expected a {regime}-regime report with a fit")
        return StepOutput(digests={"lemma_csv": sha(harness.lemma_report_to_csv(report)),
                                   "lemma_text": sha(harness.lemma_report_to_text(report))},
                          problems=problems)

    def run_mle(self, i: int):
        return harness.run_mle_comparison(self.MLE_N, self.MLE_PARAMS, self.MLE_TRIALS,
                                          base_seed=self.base_seeds[i]), None

    def mirror_mle(self, i: int, tr):
        return mirror_mle_comparison(tr, self.MLE_N, self.MLE_PARAMS,
                                     self.MLE_TRIALS, self.base_seeds[i])

    def check_mle(self, raw) -> StepOutput:
        report, chain = raw
        problems = []
        if not (report.trials == self.MLE_TRIALS
                and 0 <= report.agreements <= report.trials
                and 0 <= report.nonunique_mle <= report.trials):
            problems.append(f"inconsistent MLE report {report}")
        digests = {"mle_report": sha(report.trials, report.agreements, report.nonunique_mle)}
        if chain is not None:
            digests["labels_and_transcripts"] = chain
        return StepOutput(digests=digests, problems=problems,
                          stats={"mle_trials": report.trials,
                                 "mle_agreements": report.agreements})


WORKLOADS = {w.name: w for w in (TrialLarge, SweepBoundary, VerifySmall)}
