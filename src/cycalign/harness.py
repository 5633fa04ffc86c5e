"""Experiment engine: trials, parameter sweeps, and verification reports.

Every random choice descends from explicit 64-bit seeds through a
stable hash, so any run is reproducible from its configuration alone:
trial seeds are base_seed XOR blake2b(cell, trial index), independent
of sweep ordering or parallel scheduling.

Trials run in batches of _batch_size, each answered, recovered and
scored as one stack (_run_trials) with every trial on its own seeds, so
each result equals that of the trial run alone.

Failed recovery is data (a zero in the success column); an exception
inside a batch is a bug and aborts the sweep with the cell and the
batch's trial range.

Two calls run on more than one thread, both through core._run_shares
and each on threads of its own that end before it returns: an answer
call of 16 tiles or more (a large trial's; see oracle) and the Monte
Carlo points of run_lemma_check. A sweep's cells run in processes
instead, through core._run_forked: its numpy calls are small and hold
the GIL for their dispatch, so whole sweeps ran 15-25% slower on two
threads, while on two processes sweep_boundary's pass took ~23% less
(0.087 -> 0.067 s, medians of 10 benchmark runs on two vCPUs). The
calling process runs one share of the cells and a child forked for
the call each other share; every child is reaped before run_sweep
returns or raises. Where os.fork is missing or another Python thread
is alive, the cells run one after another in the calling process.
Each cell's wall_time_seconds is timed in the process that ran it.
The MLE comparison is serial: its batches each draw their truths,
which holds the GIL, so with its batches split over two threads its
1 000 trials took ~100 ms against ~50 ms on one, and in processes they
showed no clear gain.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import time
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .analysis import (
    TailFit,
    TailSpec,
    _check_tail_votes,
    _hamming_rows,
    _MleTable,
    fit_tail_exponent,
    tail_predictor,
    tail_probability_exact,
    tail_probability_mc,
    tail_regime,
)
from .core import (
    DegenerateGridError,
    Labeling,
    NoiseParams,
    QueryPlan,
    RegimeMixingError,
    _as_int,
    _as_real,
    _as_seed,
    _run_forked,
    _run_shares,
    _usable_cpus,
)
from .oracle import _answer_rows
from .recovery import (
    RecoveryResult,
    SeedConfig,
    _recover_blocks,
    _seed_size,
    seed_rest_plan,
    seed_size,
)

logger = logging.getLogger(__name__)

_BATCH_TRIALS = 32  # most trials answered, recovered and scored as one stack
_BATCH_BYTES = 1 << 20  # most answer bytes a batch holds at once

CSV_HEADER = ("n,k,delta,constant_c,seed_size,query_count,"
              "trials,successes,mean_hamming,wall_time_seconds")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for a parameter sweep."""

    n_values: tuple[int, ...]
    k_values: tuple[int, ...]
    delta_values: tuple[float, ...]
    constant_c_values: tuple[float, ...] = (40.0,)
    trials: int = 100
    base_seed: int = 0
    budget_scale: float | None = None

    def __post_init__(self):
        for name in ("n_values", "k_values", "delta_values", "constant_c_values"):
            vals = tuple(getattr(self, name))
            if not vals:
                raise ConfigError(f"{name} must be nonempty")
            object.__setattr__(self, name, vals)
        try:  # valid or not whatever the cell
            deltas = tuple(_as_real(delta, "delta") for delta in self.delta_values)
            for constant_c in self.constant_c_values:
                SeedConfig(constant_c=constant_c, budget_scale=self.budget_scale)
            trials = _as_int(self.trials, "trials")
            base_seed = _as_seed(self.base_seed, "base_seed")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if trials < 1:
            raise ConfigError(f"trials must be >= 1, got {trials}")
        # a trial seed hashes the repr of its cell, so each value is stored
        # as the plain int or float that its CSV row prints
        for name in ("n_values", "k_values"):
            object.__setattr__(self, name, tuple(map(_plain_int, getattr(self, name))))
        object.__setattr__(self, "delta_values", deltas)
        object.__setattr__(self, "constant_c_values", tuple(map(float, self.constant_c_values)))
        if self.budget_scale is not None:
            object.__setattr__(self, "budget_scale", float(self.budget_scale))
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "base_seed", base_seed)


@dataclass(frozen=True)
class ExperimentRecord:
    """One sweep cell: parameters, outcome counts, and timing."""

    n: int
    k: int
    delta: float
    constant_c: float
    seed_size: int
    query_count: int
    trials: int
    successes: int
    mean_hamming: float
    wall_time_seconds: float


class TrialOutcome(NamedTuple):
    success: bool
    hamming: int
    query_count: int


def _plain_int(value):
    """value, with a numpy integer read as the int it holds; anything
    else, such as 20.0, as given, for the seed rule to accept or reject."""
    return int(value) if isinstance(value, np.integer) else value


def _hash64(payload: str) -> int:
    digest = hashlib.blake2b(payload.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_trial_seed(base_seed: int, cell: tuple, trial_index: int) -> int:
    """base_seed, read mod 2^64, XOR a stable hash of (cell, trial
    index). Raises ValueError naming base_seed if it is not an integer
    (see core._as_seed)."""
    payload = "|".join(repr(part) for part in (*cell, trial_index))
    return _as_seed(base_seed, "base_seed") ^ _hash64(payload)


def _substream(seed: int, tag: str) -> int:
    return _hash64(f"{seed}:{tag}")


def sample_truth(n: int, k: int, rng: np.random.Generator) -> Labeling:
    """Uniform ground truth with node 0 pinned to label 0."""
    return Labeling(_truth_labels(n, k, rng), k)


def _truth_labels(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """The labels of sample_truth, unchecked."""
    labels = rng.integers(0, k, size=n)
    labels[0] = 0
    return labels


def run_trial_detailed(
        n: int, params: NoiseParams, cfg: SeedConfig, trial_seed: int,
        noiseless: bool = False,
) -> tuple[Labeling, RecoveryResult, TrialOutcome]:
    """One end-to-end trial, returning the hidden truth and the full
    recovery result alongside the scored outcome.

    trial_seed is read mod 2^64 like every other seed (see
    core._as_seed): 2.7, text or None raises ValueError naming it.
    """
    n, trial_seed = _plain_int(n), _as_seed(trial_seed, "trial_seed")
    s, k = seed_size(n, params, cfg), params.k
    truths, _, labels, margins, hamming = _run_trials(
        seed_rest_plan(n, s), s, params, [trial_seed], noiseless)
    result = RecoveryResult(Labeling(labels[0], k), tuple(range(s)), s * (n - s), margins[0])
    outcome = TrialOutcome(bool(hamming[0] == 0), int(hamming[0]), s * (n - s))
    return Labeling(truths[0], k), result, outcome


def _trial_truth(n: int, k: int, trial_seed: int) -> np.ndarray:
    """The labels of a trial's hidden truth, from its own generator."""
    return _truth_labels(n, k, np.random.default_rng(_substream(trial_seed, "truth")))


def _batch_size(plan: QueryPlan) -> int:
    """Trials per batch on plan: at most _BATCH_TRIALS, and at most
    _BATCH_BYTES of one-byte answers, but at least one."""
    return max(1, min(_BATCH_TRIALS, _BATCH_BYTES // len(plan)))


def _run_trials(plan: QueryPlan, s: int, params: NoiseParams, trial_seeds,
                noiseless: bool):
    """The truths, answers (in the plan's order), labels, vote margins
    and Hamming distances after the best shift of the trials of
    trial_seeds on plan with seed size s, row t for trial t: what
    FaultyOracle, recover_from_transcript and hamming_after_best_shift
    give for it alone, from one call of each stacked kernel."""
    k = params.k
    truths = np.stack([_trial_truth(plan.n, k, seed) for seed in trial_seeds])
    answers = _answer_rows(truths, [_substream(seed, "oracle") for seed in trial_seeds],
                           params, plan, noiseless)
    labels, margins = _recover_blocks(plan._block(answers, s), k)
    return truths, answers, labels, margins, _hamming_rows(labels, truths, k)


def check_sweep(config: SweepConfig) -> None:
    """Raise ConfigError naming the first cell and its error if every cell is invalid."""
    errors = []
    for n, k, delta, c in itertools.product(config.n_values, config.k_values,
                                            config.delta_values, config.constant_c_values):
        try:
            _seed_size(n, NoiseParams(k, delta),
                       SeedConfig(constant_c=c, budget_scale=config.budget_scale))
            return
        except ValueError as exc:
            errors.append(f"(n={n}, k={k}, delta={delta}, c={c}): {exc}")
    raise ConfigError(f"no cell of the grid is valid; the first, {errors[0]}")


def run_sweep(config: SweepConfig, noiseless: bool = False) -> list[ExperimentRecord]:
    """One ExperimentRecord per valid (n, k, delta, constant_c) cell, in
    grid order.

    Every cell is sized first, in grid order and in the calling
    process, so each warns at most once, and a cell that NoiseParams or
    seed_size rejects is skipped with their message logged. The valid
    cells then run on min(usable CPUs, cells) processes
    (core._run_forked), split so that each holds about the same number
    of answers, s (n - s) times trials; each cell builds its plan once,
    runs its trials in batches (_run_trials) and is timed in the process
    that runs it. An error in a batch raises RuntimeError("trials 0..9
    of cell (n=200, k=4, delta=0.3, c=40.0) failed") chained to it.
    Deterministic for a fixed config (timing column aside), whatever the
    batch size or the number of processes.
    """
    cells = []
    grid = itertools.product(config.n_values, config.k_values,
                             config.delta_values, config.constant_c_values)
    for n, k, delta, constant_c in grid:
        try:
            params = NoiseParams(k, delta)
            s = seed_size(n, params, SeedConfig(constant_c=constant_c,
                                                budget_scale=config.budget_scale))
        except ValueError as exc:
            logger.warning("skipping cell (n=%s, k=%s, delta=%s, c=%s): %s",
                           n, k, delta, constant_c, exc)
            continue
        cells.append((n, params, constant_c, s))

    def run_cell(n: int, params: NoiseParams, constant_c: float, s: int) -> ExperimentRecord:
        k, delta = params.k, params.delta
        cell = (n, k, delta, constant_c, config.budget_scale)
        start = time.perf_counter()
        successes = 0
        hamming_total = 0
        plan = seed_rest_plan(n, s)
        batch = _batch_size(plan)
        for first in range(0, config.trials, batch):
            batch_trials = range(first, min(first + batch, config.trials))
            trial_seeds = [derive_trial_seed(config.base_seed, cell, t) for t in batch_trials]
            try:
                hamming = _run_trials(plan, s, params, trial_seeds, noiseless)[4]
            except Exception as exc:
                raise RuntimeError(
                    f"trials {first}..{batch_trials[-1]} of cell (n={n}, k={k}, "
                    f"delta={delta}, c={constant_c}) failed"
                ) from exc
            successes += int(np.count_nonzero(hamming == 0))
            hamming_total += int(hamming.sum())
        return ExperimentRecord(
            n=n, k=k, delta=float(delta), constant_c=float(constant_c),
            seed_size=s, query_count=s * (n - s),
            trials=config.trials, successes=successes,
            mean_hamming=hamming_total / config.trials,
            wall_time_seconds=time.perf_counter() - start,
        )

    # the heaviest cell first, each to the share with the fewest answers
    answers = [s * (n - s) * config.trials for n, _, _, s in cells]
    shares = [[] for _ in range(min(_usable_cpus(), len(cells)))]
    loads = [0] * len(shares)
    for i in sorted(range(len(cells)), key=lambda i: -answers[i]):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += answers[i]
    shares = [sorted(share) for share in shares]
    records = [None] * len(cells)
    done = _run_forked(lambda share: [run_cell(*cells[i]) for i in share], shares)
    for share, share_records in zip(shares, done):
        for i, record in zip(share, share_records):
            records[i] = record
    return records


def records_to_csv(records: Sequence[ExperimentRecord],
                   include_timing: bool = True) -> str:
    """Render records in the fixed CSV schema.

    Wall-clock time is inherently nondeterministic; pass
    include_timing=False to zero that column when byte-identical
    output across reruns is required.
    """
    lines = [CSV_HEADER]
    for r in records:
        wall = r.wall_time_seconds if include_timing else 0.0
        lines.append(
            f"{r.n},{r.k},{r.delta!r},{r.constant_c!r},{r.seed_size},"
            f"{r.query_count},{r.trials},{r.successes},"
            f"{float(r.mean_hamming)!r},{wall:.6f}"
        )
    return "\n".join(lines) + "\n"


def records_to_json(records: Sequence[ExperimentRecord],
                    include_timing: bool = True) -> str:
    rows = [asdict(r if include_timing else replace(r, wall_time_seconds=0.0))
            for r in records]
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class LemmaPoint:
    """One grid point of a tail verification run."""

    vote_count: int
    k: int
    delta: float
    regime: str
    predictor: float
    exact_tail: float
    mc_tail: float
    mc_half_width: float


@dataclass(frozen=True)
class LemmaCheckReport:
    """Exact-vs-Monte-Carlo tail table plus the regime exponent fit
    (present once the grid has at least 5 points)."""

    points: tuple[LemmaPoint, ...]
    fit: TailFit | None
    trials: int


def check_lemma_grid(specs: Sequence[TailSpec], trials: int) -> None:
    """Raise ValueError for a grid that run_lemma_check rejects.

    Only the grid's shape is checked, before any tail is computed: it
    is nonempty, in one bias regime and within the exact tail's vote
    guard; a grid of 5 or more points, which gets a fit, spans more
    than one predictor value; and trials is an integer of at least 1.
    """
    if not specs:
        raise ValueError("need at least one tail spec")
    if len({tail_regime(s.params) for s in specs}) != 1:
        raise RegimeMixingError("grid straddles the delta = 1/(2k) regime boundary")
    if _as_int(trials, "trials") < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_tail_votes(max(s.vote_count for s in specs))
    if len(specs) >= 5 and len({tail_predictor(s) for s in specs}) == 1:
        raise DegenerateGridError("predictor is constant across the grid")


def run_lemma_check(specs: Sequence[TailSpec], trials: int,
                    base_seed: int = 0) -> LemmaCheckReport:
    """Evaluate each spec exactly and by Monte Carlo; fit the exponent.

    The grid must sit in a single bias regime. With fewer than 5
    points the report carries no fit. The fit runs on the exact tails
    before the Monte Carlo points, so a grid whose tails it rejects
    raises before any draw.

    The Monte Carlo points then run on W = min(usable CPUs, points)
    threads, the calling thread among them (core._run_shares): point i
    on worker i mod W. Each point draws from its own generator, seeded
    from its index alone, so the report is the same bytes on any W.
    numpy's binomial sampler releases the GIL, and on two vCPUs the
    benchmark's five-point lemma_small check took ~115 -> ~85 ms in
    process. A draw that raises is re-raised once every worker ends.
    """
    specs = list(specs)
    check_lemma_grid(specs, trials)
    trials, base_seed = _as_int(trials, "trials"), _as_seed(base_seed, "base_seed")
    exact_tails = [tail_probability_exact(s) for s in specs]
    # the fit reads only the exact tails, and each point's draws keep
    # their own seed whatever runs before them
    fit = fit_tail_exponent(specs, tails=exact_tails) if len(specs) >= 5 else None
    estimates = [None] * len(specs)

    def draw(share: range) -> None:
        for idx in share:
            rng = np.random.default_rng(
                _substream(derive_trial_seed(base_seed, ("lemma", idx), 0), "mc"))
            estimates[idx] = tail_probability_mc(specs[idx], trials, rng)

    workers = min(_usable_cpus(), len(specs))
    _run_shares(draw, [range(w, len(specs), workers) for w in range(workers)])
    points = tuple(LemmaPoint(
        vote_count=spec.vote_count, k=spec.params.k,
        delta=spec.params.delta, regime=tail_regime(spec.params),
        predictor=tail_predictor(spec), exact_tail=exact,
        mc_tail=mc.value, mc_half_width=mc.half_width,
    ) for spec, exact, mc in zip(specs, exact_tails, estimates))
    return LemmaCheckReport(points=points, fit=fit, trials=trials)


def lemma_report_to_text(report: LemmaCheckReport) -> str:
    lines = [
        f"{'votes':>7} {'k':>3} {'delta':>8} {'predictor':>11} "
        f"{'exact':>12} {'mc':>12} {'half_width':>11}"
    ]
    for p in report.points:
        lines.append(
            f"{p.vote_count:>7} {p.k:>3} {p.delta:>8g} {p.predictor:>11.5g} "
            f"{p.exact_tail:>12.6g} {p.mc_tail:>12.6g} {p.mc_half_width:>11.3g}"
        )
    if report.fit is not None:
        f = report.fit
        lines.append(
            f"fit ({f.regime} regime): -ln(tail) ~= {f.slope:.5g} * predictor "
            f"+ {f.intercept:.5g}, R^2 = {f.r_squared:.5f}"
        )
    else:
        lines.append("fit: not computed (needs at least 5 grid points)")
    return "\n".join(lines) + "\n"


def lemma_report_to_json(report: LemmaCheckReport) -> str:
    payload = {
        "trials": report.trials,
        "points": [asdict(p) for p in report.points],
        # the fit's predictors and -ln(tail) values stay out of the JSON
        "fit": None if report.fit is None else {
            "slope": report.fit.slope, "intercept": report.fit.intercept,
            "r_squared": report.fit.r_squared, "regime": report.fit.regime,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def lemma_report_to_csv(report: LemmaCheckReport) -> str:
    lines = ["vote_count,k,delta,regime,predictor,exact_tail,mc_tail,mc_half_width"]
    for p in report.points:
        lines.append(
            f"{p.vote_count},{p.k},{p.delta!r},{p.regime},{p.predictor!r},"
            f"{p.exact_tail!r},{p.mc_tail!r},{p.mc_half_width!r}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MleComparisonReport:
    """Agreement of the vote-based recovery with exhaustive maximum
    likelihood on full pairwise transcripts."""

    trials: int
    agreements: int
    nonunique_mle: int

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.trials


def full_pairwise_plan(n: int) -> QueryPlan:
    return QueryPlan(np.column_stack(np.triu_indices(n, k=1)), n)


def check_mle_comparison(n: int, params: NoiseParams, trials: int) -> None:
    """Raise ValueError for a size that run_mle_comparison rejects."""
    if n > 8 or params.k > 3:
        raise ValueError(f"comparison supports n <= 8 and k <= 3, "
                         f"got n={n}, k={params.k}")
    if _as_int(trials, "trials") < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def run_mle_comparison(n: int, params: NoiseParams, trials: int,
                       base_seed: int = 0,
                       noiseless: bool = False) -> MleComparisonReport:
    """Compare vote-based recovery against brute-force ML labelings.

    Each trial answers every pair once; the vote-based recovery reads
    only its seed-vs-rest block of that transcript while the
    enumeration sees all pairs. Agreement means the shift-normalized
    recovery output is one of the maximum-likelihood labelings.
    Restricted to n <= 8, k <= 3 to keep enumeration exhaustive.

    Every trial shares the full-triangle plan, so the candidate table
    of brute_force_mle is built once here, and each batch of trials
    (_run_trials; at most 28 answers a trial, so _BATCH_TRIALS a batch)
    is scored against it as one stack (_MleTable.score), with the counts
    of FaultyOracle, recover_from_transcript and brute_force_mle alone.
    """
    check_mle_comparison(n, params, trials)
    n, trials = _plain_int(n), _as_int(trials, "trials")
    base_seed = _as_seed(base_seed, "base_seed")
    k = params.k
    plan = full_pairwise_plan(n)
    s = seed_size(n, params)
    table = _MleTable(plan, k)
    cell = ("mle", n, k, params.delta)
    agreements = 0
    nonunique = 0
    batch = _batch_size(plan)
    for first in range(0, trials, batch):
        trial_seeds = [derive_trial_seed(base_seed, cell, t)
                       for t in range(first, min(first + batch, trials))]
        _, answers, labels, _, _ = _run_trials(plan, s, params, trial_seeds, noiseless)
        agree, ties = table.score(answers, labels)
        agreements += agree
        nonunique += ties
    return MleComparisonReport(trials=trials, agreements=agreements,
                               nonunique_mle=nonunique)


_LIST_FIELDS = {"n_values", "k_values", "delta_values", "constant_c_values"}
_INT_FIELDS = {"trials", "base_seed"}
_FLOAT_FIELDS = {"budget_scale"}


def parse_config_file(path: str) -> dict:
    """Read a flat key=value sweep configuration file.

    Recognized keys mirror SweepConfig; list values are comma
    separated, '#' starts a comment.
    """
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                if key in _LIST_FIELDS:
                    cast = int if key in ("n_values", "k_values") else float
                    out[key] = tuple(cast(v) for v in value.split(",") if v.strip())
                elif key in _INT_FIELDS:
                    out[key] = int(value)
                elif key in _FLOAT_FIELDS:
                    out[key] = float(value)
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: bad value for {key!r}: {value!r}"
                ) from exc
    return out
