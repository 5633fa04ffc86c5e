"""Harness contracts: trials, sweeps, reports, config parsing."""

import itertools
import re
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cycalign import (
    ConfigError,
    ExperimentRecord,
    FaultyOracle,
    Labeling,
    LemmaCheckReport,
    LemmaPoint,
    MissingPairError,
    NoiseParams,
    QueryTranscript,
    RegimeMixingError,
    SeedConfig,
    SweepConfig,
    TailFit,
    TailSpec,
    ValidityRegimeWarning,
    brute_force_mle,
    derive_trial_seed,
    full_pairwise_plan,
    parse_config_file,
    recover_from_transcript,
    records_to_csv,
    records_to_json,
    run_lemma_check,
    run_mle_comparison,
    run_sweep,
    run_trial_detailed,
    sample_truth,
    seed_rest_plan,
    seed_size,
    validity_threshold,
)
from cycalign import analysis, harness, recovery
from oracles import sweep_by_trial
from cycalign.harness import (CSV_HEADER, lemma_report_to_csv, lemma_report_to_json,
                              lemma_report_to_text)

pytestmark = pytest.mark.filterwarnings("ignore::cycalign.ValidityRegimeWarning")


class TestSeedDerivation:
    def test_deterministic(self):
        a = derive_trial_seed(5, (10, 2, 0.3), 7)
        b = derive_trial_seed(5, (10, 2, 0.3), 7)
        assert a == b

    def test_varies_with_trial_and_cell(self):
        seeds = {derive_trial_seed(5, (10, 2, 0.3), t) for t in range(50)}
        assert len(seeds) == 50
        assert derive_trial_seed(5, (10, 2, 0.3), 0) != \
            derive_trial_seed(5, (10, 2, 0.31), 0)

    def test_base_seed_enters_by_xor(self):
        assert derive_trial_seed(9, ("c",), 0) == \
            9 ^ derive_trial_seed(0, ("c",), 0)

    @pytest.mark.parametrize("base_seed", [2.7, float("nan"), "5", b"5", None])
    def test_bad_base_seed_rejected_by_name(self, base_seed):
        # int() would truncate 2.7 and parse "5"
        with pytest.raises(ValueError,
                           match=re.escape(f"base_seed must be integers, got {base_seed!r}")):
            derive_trial_seed(base_seed, ("c",), 0)

    def test_base_seed_read_mod_2_64(self):
        want = derive_trial_seed(5, ("c",), 3)
        for same in (np.int64(5), 5.0, 2**64 + 5, np.uint64(5)):
            assert derive_trial_seed(same, ("c",), 3) == want
        assert derive_trial_seed(-1, ("c",), 3) == derive_trial_seed(2**64 - 1, ("c",), 3)


class TestSampleTruth:
    def test_anchor_pinned_and_in_range(self):
        g = sample_truth(50, 4, np.random.default_rng(3))
        assert g.labels[0] == 0
        assert g.labels.min() >= 0 and g.labels.max() < 4

    def test_spread_across_labels(self):
        g = sample_truth(2000, 4, np.random.default_rng(3))
        assert np.bincount(g.labels, minlength=4).min() > 300


class TestRunTrial:
    def test_noiseless_outcome(self):
        params = NoiseParams(3, 0.2)
        out = run_trial_detailed(30, params, SeedConfig(), trial_seed=11, noiseless=True)[2]
        s = seed_size(30, params, SeedConfig())
        assert out == (True, 0, s * (30 - s))

    def test_deterministic_under_fixed_seed(self):
        params = NoiseParams(2, 0.35)
        runs = [run_trial_detailed(60, params, SeedConfig(), trial_seed=1234)[2]
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_starved_budget_rarely_recovers(self):
        # shrinking the seed by 100x collapses success at a hard cell
        params = NoiseParams(2, 0.05)
        wins = 0
        for t in range(100):
            ts = derive_trial_seed(3, ("starve",), t)
            outcome = run_trial_detailed(500, params, SeedConfig(budget_scale=0.01), ts)[2]
            wins += outcome.success
        assert wins < 50

    def test_budget_scale_shrinks_queries(self):
        params = NoiseParams(2, 0.4)
        full = run_trial_detailed(100, params, SeedConfig(), 5)[2]
        tiny = run_trial_detailed(100, params, SeedConfig(budget_scale=0.05), 5)[2]
        assert tiny.query_count < full.query_count

    @pytest.mark.parametrize("scale", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_budget_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="budget_scale must be positive and finite"):
            run_trial_detailed(100, NoiseParams(2, 0.4), SeedConfig(budget_scale=scale), 5)

    def test_non_integer_n_rejected_by_name(self):
        params = NoiseParams(2, 0.4)
        with pytest.raises(ValueError, match="n must be an integer >= 4, got 20.0"):
            run_trial_detailed(20.0, params, SeedConfig(), 5)
        outcome = run_trial_detailed(np.int64(20), params, SeedConfig(), 5)[2]
        assert outcome == run_trial_detailed(20, params, SeedConfig(), 5)[2]
        assert type(outcome.query_count) is int

    @pytest.mark.parametrize("trial_seed", [2.7, "x", "5", None])
    def test_bad_trial_seed_rejected_by_name(self, trial_seed):
        with pytest.raises(ValueError,
                           match=re.escape(f"trial_seed must be integers, got {trial_seed!r}")):
            run_trial_detailed(20, NoiseParams(2, 0.4), SeedConfig(), trial_seed)

    def test_trial_seed_read_mod_2_64(self):
        # the trial seed is read mod 2^64, like every other seed, so -1
        # and 2^64 - 1 are the same trial; an integral float reads as its int
        def run(seed):
            truth, result, outcome = run_trial_detailed(40, NoiseParams(3, 0.45),
                                                        SeedConfig(), seed)
            return truth.labels.tolist(), result.labeling.labels.tolist(), outcome

        assert run(7.0) == run(np.int64(7)) == run(7)
        assert run(-1)[0] == run(2**64 - 1)[0]

    def test_large_trial_memory_stays_near_the_answer_block(self):
        # n = 10^4, k = 4, delta = 0.5, c = 40: |S| = 737, 6.83 M queries.
        # The one-byte answer block is the only trial-sized allocation;
        # the oracle works in tiles of _BLOCK pairs and the votes in
        # tiles of _VOTE_BLOCK bytes, for which a fixed 4 MiB is allowed.
        n, params, cfg = 10_000, NoiseParams(4, 0.5), SeedConfig(constant_c=40.0)
        s = seed_size(n, params, cfg)
        tracemalloc.start()
        try:
            outcome = run_trial_detailed(n, params, cfg, 1)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome.query_count == s * (n - s) == 6_826_831
        assert peak <= 2 * s * (n - s) + 8 * 8 * (1 << 16), f"peak {peak / 1e6:.1f} MB"


class TestRunSweep:
    def test_single_cell_single_trial(self):
        cfg = SweepConfig(n_values=(20,), k_values=(2,), delta_values=(0.4,),
                          trials=1, base_seed=0)
        records = run_sweep(cfg)
        assert len(records) == 1
        r = records[0]
        assert (r.n, r.k, r.delta, r.constant_c) == (20, 2, 0.4, 40.0)
        assert r.query_count == r.seed_size * (r.n - r.seed_size)
        assert 0 <= r.successes <= r.trials
        assert r.mean_hamming >= 0

    def test_invalid_cell_skipped_not_fatal(self):
        cfg = SweepConfig(n_values=(20,), k_values=(2,),
                          delta_values=(0.4, 0.9), trials=1)
        records = run_sweep(cfg)
        assert [r.delta for r in records] == [0.4]

    def test_skipped_cell_logs_the_validator_message(self, caplog):
        # each reason is the message of the check that rejects the cell
        cfg = SweepConfig(n_values=(3, 20), k_values=(1, 2), delta_values=(0.4, 0.9),
                          trials=1)
        with caplog.at_level("WARNING", logger="cycalign.harness"):
            records = run_sweep(cfg)
        assert [(r.n, r.k, r.delta, r.constant_c) for r in records] == [(20, 2, 0.4, 40.0)]
        assert len(caplog.records) == 7
        text = caplog.text
        for reason in ["k must be an integer >= 2, got 1",
                       "delta must lie in (0, (k-1)/k] = (0, 0.5], got 0.9",
                       "need n >= 4 for a seeded split, got n=3"]:
            assert reason in text

    @pytest.mark.parametrize("grid,first", [
        (dict(n_values=(3,), k_values=(2,), delta_values=(0.3,)),
         "(n=3, k=2, delta=0.3, c=40.0): need n >= 4 for a seeded split, got n=3"),
        (dict(n_values=(30, 40), k_values=(1,), delta_values=(0.3,)),
         "(n=30, k=1, delta=0.3, c=40.0): k must be an integer >= 2, got 1"),
        (dict(n_values=(30,), k_values=(2,), delta_values=(0.9, 0.7)),
         "(n=30, k=2, delta=0.9, c=40.0): delta must lie in (0, (k-1)/k] = (0, 0.5], "
         "got 0.9"),
    ], ids=["n_below_4", "k_below_2", "delta_above_max"])
    def test_check_sweep_names_the_first_cell_of_an_all_invalid_grid(self, grid, first):
        cfg = SweepConfig(trials=1, **grid)
        assert run_sweep(cfg) == []
        with pytest.raises(ConfigError, match=re.escape(
                f"no cell of the grid is valid; the first, {first}")):
            harness.check_sweep(cfg)

    def test_check_sweep_stops_at_the_first_valid_cell(self, monkeypatch, caplog):
        # a mixed grid passes, sizing up to its first valid cell without
        # a warning or a log line, and run_sweep still skips the rest
        calls = []
        real = recovery._seed_size
        monkeypatch.setattr(harness, "_seed_size", lambda *a: calls.append(a) or real(*a))
        cfg = SweepConfig(n_values=(3, 200, 400), k_values=(2,), delta_values=(0.05,),
                          trials=1)
        with warnings.catch_warnings(), caplog.at_level("WARNING", logger="cycalign.harness"):
            warnings.simplefilter("error")
            harness.check_sweep(cfg)
        assert [a[0] for a in calls] == [3, 200] and not caplog.records
        assert [r.n for r in run_sweep(cfg)] == [200, 400]

    def test_non_integer_n_cell_skipped_with_the_seed_size_message(self, caplog):
        cfg = SweepConfig(n_values=(20.0, 20), k_values=(2,), delta_values=(0.4,),
                          trials=1)
        with caplog.at_level("WARNING", logger="cycalign.harness"):
            records = run_sweep(cfg)
        assert [r.n for r in records] == [20]
        assert "n must be an integer >= 4, got 20.0" in caplog.text

    def test_each_cell_sizes_its_seed_once(self, monkeypatch):
        # the sweep_boundary grid: 18 cells of 10 trials, 7 below the
        # validity boundary; each cell sizes once, no trial sizes again
        calls = {"seed_size": 0, "_seed_size": 0}

        def counting(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(recovery, "_seed_size",
                            counting("_seed_size", recovery._seed_size))
        for module in (harness, recovery):
            monkeypatch.setattr(module, "seed_size",
                                counting("seed_size", recovery.seed_size))
        cfg = SweepConfig(n_values=(200, 400, 800), k_values=(2, 4),
                          delta_values=(0.2, 0.3, 0.45), trials=10, base_seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_sweep(cfg)
        assert len(records) == 18
        assert calls == {"seed_size": 18, "_seed_size": 18}
        below = [r for r in records if r.delta < validity_threshold(r.n, r.k)]
        assert len(below) == 7
        assert [w.category for w in caught] == [ValidityRegimeWarning] * 7

    def test_rerun_is_byte_identical_without_timing(self):
        cfg = SweepConfig(n_values=(16, 24), k_values=(2, 3),
                          delta_values=(0.45,), trials=5, base_seed=7)
        a = records_to_csv(run_sweep(cfg), include_timing=False)
        b = records_to_csv(run_sweep(cfg), include_timing=False)
        assert a == b

    def test_rerun_matches_on_all_data_fields(self):
        cfg = SweepConfig(n_values=(16,), k_values=(2,), delta_values=(0.45,),
                          trials=5, base_seed=7)
        rec_a, = run_sweep(cfg)
        rec_b, = run_sweep(cfg)
        for field in ("n", "k", "delta", "constant_c", "seed_size",
                      "query_count", "trials", "successes", "mean_hamming"):
            assert getattr(rec_a, field) == getattr(rec_b, field)

    # k = 9 takes the oracle's float noise and k = 17 the bincount votes
    @pytest.mark.parametrize("budget_scale", [None, 0.5, 2.0])
    @pytest.mark.parametrize("noiseless", [False, True])
    @pytest.mark.parametrize("batch,sizes", [(1, [1] * 11), (3, [3, 3, 3, 2]),
                                             (7, [7, 4])])
    def test_batches_equal_a_per_trial_reference(self, monkeypatch, batch, sizes,
                                                 noiseless, budget_scale):
        monkeypatch.setattr(harness, "_BATCH_TRIALS", batch)
        rows = []
        answer_rows = harness._answer_rows
        def counted(labels, *args):
            rows.append(len(labels))
            return answer_rows(labels, *args)
        monkeypatch.setattr(harness, "_answer_rows", counted)
        cfg = SweepConfig(n_values=(12, 41), k_values=(2, 4, 9, 17),
                          delta_values=(0.2, 0.45), trials=11, base_seed=5,
                          budget_scale=budget_scale)
        got = run_sweep(cfg, noiseless=noiseless)
        want = sweep_by_trial(cfg, noiseless)
        assert rows == sizes * len(want) == sizes * 16
        assert [replace(r, wall_time_seconds=0.0) for r in got] == want
        assert (records_to_csv(got, include_timing=False)
                == records_to_csv(want, include_timing=False))
        assert (records_to_json(got, include_timing=False)
                == records_to_json(want, include_timing=False))

    # n = 362: 181 x 181 answers a trial, 32 trials a batch, 6 batches;
    # n = 10^4: 737 x 9263 answers (6.8 MB) a trial, 1 trial a batch
    @pytest.mark.parametrize("n,trials,batch", [(362, 192, 32), (10_000, 2, 1)])
    def test_memory_stays_near_one_batch(self, n, trials, batch):
        # the batch's one-byte answers plus the oracle's and the votes'
        # tiles, for which a fixed 4 MiB is allowed; all trials at once
        # would exceed that bound
        cfg = SweepConfig(n_values=(n,), k_values=(4,), delta_values=(0.5,),
                          trials=trials)
        s = seed_size(n, NoiseParams(4, 0.5))
        assert harness._batch_size(seed_rest_plan(n, s)) == batch
        allowance = 8 * 8 * (1 << 16)
        assert trials * s * (n - s) > batch * s * (n - s) + allowance
        run_sweep(replace(cfg, trials=1))  # imports, caches
        tracemalloc.start()
        try:
            record, = run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.trials == trials
        assert peak <= batch * s * (n - s) + allowance, f"peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("batch,failing,message", [
        (32, 0, "trials 0..9"), (3, 1, "trials 3..5"), (3, 3, "trials 9..9")])
    def test_batch_error_names_its_trials_and_cell(self, monkeypatch, batch, failing,
                                                   message):
        monkeypatch.setattr(harness, "_BATCH_TRIALS", batch)
        calls = []
        answer_rows = harness._answer_rows
        def failing_call(*args):
            calls.append(len(calls))
            if calls[-1] == failing:
                raise ArithmeticError("synthetic")
            return answer_rows(*args)
        monkeypatch.setattr(harness, "_answer_rows", failing_call)
        cfg = SweepConfig(n_values=(20,), k_values=(2,), delta_values=(0.4,), trials=10)
        with pytest.raises(RuntimeError, match=re.escape(
                f"{message} of cell (n=20, k=2, delta=0.4, c=40.0) failed")) as info:
            run_sweep(cfg)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(n_values=(), k_values=(2,), delta_values=(0.3,))

    @pytest.mark.parametrize("trials", [2.5, float("nan")])
    def test_fractional_trials_rejected_by_name(self, trials):
        with pytest.raises(ConfigError, match=f"trials must be integers, got {trials!r}"):
            SweepConfig(n_values=(10,), k_values=(2,), delta_values=(0.3,),
                        trials=trials)

    @pytest.mark.parametrize("trials", ["3", b"3"])
    def test_text_trials_rejected_by_name(self, trials):
        with pytest.raises(ConfigError, match=re.escape(f"trials must be integers, got {trials!r}")):
            SweepConfig(n_values=(10,), k_values=(2,), delta_values=(0.3,),
                        trials=trials)

    @pytest.mark.parametrize("base_seed", [2.7, float("nan"), "5", b"5", None])
    def test_bad_base_seed_rejected_by_name(self, base_seed):
        # int() would truncate 2.7 and parse "5"; None is no integer
        with pytest.raises(ConfigError,
                           match=re.escape(f"base_seed must be integers, got {base_seed!r}")):
            SweepConfig(n_values=(10,), k_values=(2,), delta_values=(0.3,),
                        base_seed=base_seed)

    @pytest.mark.parametrize("base_seed,stored", [
        (5, 5), (np.int64(5), 5), (np.uint64(2**64 - 1), 2**64 - 1), (5.0, 5),
        (-1, 2**64 - 1), (np.int8(-2), 2**64 - 2), (2**64 + 5, 5)])
    def test_base_seed_read_mod_2_64(self, base_seed, stored):
        cfg = SweepConfig(n_values=(10,), k_values=(2,), delta_values=(0.3,),
                          base_seed=base_seed)
        assert cfg.base_seed == stored and type(cfg.base_seed) is int

    def test_integral_float_trials_read_as_int(self):
        cfg = SweepConfig(n_values=(20,), k_values=(2,), delta_values=(0.4,),
                          trials=2.0)
        assert cfg.trials == 2 and isinstance(cfg.trials, int)

    def test_bad_trials_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(n_values=(10,), k_values=(2,), delta_values=(0.3,),
                        trials=0)

    def test_bad_budget_scale_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(n_values=(10,), k_values=(2,), delta_values=(0.3,),
                        budget_scale=0.0)

    @pytest.mark.parametrize("c,message", [(-1.0, "constant_c must be positive, got -1.0"),
                                           (0.0, "constant_c must be positive, got 0.0"),
                                           (float("inf"), "constant_c must be finite"),
                                           ("40", "constant_c must be a real number, got '40'")])
    def test_bad_constant_c_rejected_with_the_seed_config_message(self, c, message):
        # constant_c is valid or not whatever the cell, so one bad value
        # rejects the grid instead of skipping its cells
        with pytest.raises(ConfigError, match=message):
            SweepConfig(n_values=(10,), k_values=(2,), delta_values=(0.3,),
                        constant_c_values=(40.0, c))

    @pytest.mark.parametrize("name,grid", [
        ("delta", dict(delta_values=(0.2, "0.2"))),
        ("budget_scale", dict(delta_values=(0.2,), budget_scale="0.2")),
    ])
    def test_text_numbers_rejected_by_name(self, name, grid):
        # float() would parse the text, and its repr would seed other trials
        with pytest.raises(ConfigError, match=f"^{name} must be a real number, got '0.2'$"):
            SweepConfig(n_values=(200,), k_values=(4,), trials=20, **grid)

    def test_numpy_reals_accepted(self):
        cfg = SweepConfig(n_values=(20,), k_values=(2,), delta_values=(np.float32(0.25),),
                          constant_c_values=(np.int64(40),), budget_scale=np.float64(0.5),
                          trials=1)
        record, = run_sweep(cfg)
        assert (record.delta, record.constant_c) == (0.25, 40.0)

    def test_numpy_grid_runs_the_trials_of_the_plain_grid(self):
        # a trial seed hashes the repr of its cell, so np.int64(20) or an
        # integer c = 40 would seed other trials than 20 and 40.0
        plain = SweepConfig(n_values=(20, 24), k_values=(2,), delta_values=(0.4,),
                            constant_c_values=(40.0,), trials=20, budget_scale=0.5)
        typed = SweepConfig(n_values=(np.int64(20), np.int32(24)), k_values=(np.uint8(2),),
                            delta_values=(np.float64(0.4),), constant_c_values=(40,),
                            trials=20, budget_scale=np.float64(0.5))
        assert typed == plain
        assert [type(v) for v in typed.n_values + typed.k_values] == [int] * 3
        assert [type(v) for v in typed.delta_values + typed.constant_c_values] == [float] * 2
        assert type(typed.budget_scale) is float
        want, got = run_sweep(plain), run_sweep(typed)
        assert records_to_csv(got, include_timing=False) == \
            records_to_csv(want, include_timing=False)
        assert records_to_json(got, include_timing=False) == \
            records_to_json(want, include_timing=False)


class TestRecordSerialization:
    def test_csv_header(self):
        assert CSV_HEADER == ("n,k,delta,constant_c,seed_size,query_count,"
                              "trials,successes,mean_hamming,wall_time_seconds")

    def test_csv_shape(self):
        cfg = SweepConfig(n_values=(20,), k_values=(2,), delta_values=(0.4,),
                          trials=2, base_seed=1)
        text = records_to_csv(run_sweep(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 10

    def test_json_round_trip(self):
        import json
        cfg = SweepConfig(n_values=(20,), k_values=(2,), delta_values=(0.4,),
                          trials=2, base_seed=1)
        rows = json.loads(records_to_json(run_sweep(cfg), include_timing=False))
        assert rows[0]["n"] == 20
        assert rows[0]["wall_time_seconds"] == 0.0

    def test_json_bytes(self):
        record = ExperimentRecord(n=20, k=2, delta=0.4, constant_c=40.0, seed_size=3,
                                  query_count=51, trials=4, successes=3,
                                  mean_hamming=0.75, wall_time_seconds=0.125)
        row = ('[\n  {{\n    "constant_c": 40.0,\n    "delta": 0.4,\n    "k": 2,\n'
               '    "mean_hamming": 0.75,\n    "n": 20,\n    "query_count": 51,\n'
               '    "seed_size": 3,\n    "successes": 3,\n    "trials": 4,\n'
               '    "wall_time_seconds": {}\n  }}\n]\n')
        assert records_to_json([record]) == row.format("0.125")
        assert records_to_json([record], include_timing=False) == row.format("0.0")
        assert records_to_json([]) == "[]\n"


class TestLemmaCheck:
    def test_single_point_has_no_fit(self):
        report = run_lemma_check([TailSpec(30, NoiseParams(2, 0.3))],
                                 trials=2000, base_seed=0)
        assert report.fit is None
        assert len(report.points) == 1
        assert "not computed" in lemma_report_to_text(report)

    def test_grid_reports_fit_and_coverage(self):
        specs = [TailSpec(n, NoiseParams(2, 0.3)) for n in range(20, 101, 20)]
        report = run_lemma_check(specs, trials=200_000, base_seed=1)
        assert report.fit is not None and report.fit.r_squared >= 0.95
        for p in report.points:
            assert abs(p.mc_tail - p.exact_tail) <= max(p.mc_half_width, 1e-4)

    def test_regime_mixing_rejected(self):
        specs = [TailSpec(50, NoiseParams(4, d))
                 for d in (0.05, 0.3)]
        with pytest.raises(RegimeMixingError):
            run_lemma_check(specs, trials=100)

    @pytest.mark.parametrize("trials", [2.5, float("nan")])
    def test_fractional_trials_rejected_by_name(self, trials):
        with pytest.raises(ValueError, match=f"trials must be integers, got {trials!r}"):
            run_lemma_check([TailSpec(30, NoiseParams(2, 0.3))], trials=trials)

    @pytest.mark.parametrize("trials", [np.int64(1000), 1000.0])
    def test_integral_trials_are_stored_as_int(self, trials):
        specs = [TailSpec(30, NoiseParams(2, 0.3))]
        report = run_lemma_check(specs, trials=trials, base_seed=3)
        assert type(report.trials) is int and report.trials == 1000
        assert lemma_report_to_json(report).endswith('"trials": 1000\n}\n')
        assert report == run_lemma_check(specs, trials=1000, base_seed=3)

    @pytest.mark.parametrize("base_seed", [2.7, "5", None])
    def test_bad_base_seed_rejected_by_name(self, base_seed):
        with pytest.raises(ValueError,
                           match=re.escape(f"base_seed must be integers, got {base_seed!r}")):
            run_lemma_check([TailSpec(30, NoiseParams(2, 0.3))], trials=10,
                            base_seed=base_seed)

    def test_fit_runs_before_any_monte_carlo_draw(self, monkeypatch):
        calls = []
        mc = harness.tail_probability_mc
        monkeypatch.setattr(harness, "tail_probability_mc",
                            lambda *args: calls.append(args) or mc(*args))
        # exact tails at 4 000+ votes underflow to 0.0
        specs = [TailSpec(n, NoiseParams(2, 0.3)) for n in range(2000, 10001, 2000)]
        message = "^all tail probabilities must lie strictly in \\(0, 1\\)$"
        with pytest.raises(ValueError, match=message):
            run_lemma_check(specs, trials=200_000)
        assert calls == []
        run_lemma_check(specs[:4], trials=10)
        assert len(calls) == 4

    # five points in one regime, each with Monte Carlo hits at 20 000 trials
    GRID = [TailSpec(m, NoiseParams(3, 0.3)) for m in (4, 8, 12, 16, 20)]

    def test_report_bytes_do_not_depend_on_the_worker_count(self, monkeypatch):
        # point i draws on worker i mod W, from its own generator
        mc, reports = harness.tail_probability_mc, []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            ran = {}

            def spy(spec, *args):
                ran[spec.vote_count] = threading.current_thread().name
                return mc(spec, *args)

            monkeypatch.setattr(harness, "tail_probability_mc", spy)
            report = run_lemma_check(self.GRID, trials=20_000, base_seed=7)
            names = ["MainThread"] + [f"cycalign-worker-{w}" for w in range(1, cpus)]
            assert [ran[s.vote_count] for s in self.GRID] == [names[i % cpus] for i in range(5)]
            assert report.fit is not None and all(p.mc_tail > 0 for p in report.points)
            reports.append((lemma_report_to_csv(report), lemma_report_to_text(report),
                            lemma_report_to_json(report)))
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_one_point_grid_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        seen, mc = [], harness.tail_probability_mc
        monkeypatch.setattr(harness, "tail_probability_mc", lambda *args: seen.append(
            (threading.current_thread().name, threading.active_count())) or mc(*args))
        before = threading.active_count()
        run_lemma_check(self.GRID[:1], trials=1000)
        assert seen == [("MainThread", before)]

    # on 3 workers the caller draws points 0 and 3, worker 1 points 1
    # and 4, worker 2 point 2; of two failing workers, the lower one's
    # error is raised
    @pytest.mark.parametrize("failing,raised", [((0,), 0), ((2,), 2), ((4,), 4), ((2, 4), 4)])
    def test_a_failing_draw_is_raised_after_every_worker_ends(self, monkeypatch,
                                                              failing, raised):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        votes = [s.vote_count for s in self.GRID]
        ended, mc = [], harness.tail_probability_mc

        def draw_or_fail(spec, *args):
            point = votes.index(spec.vote_count)
            if point in failing:
                raise RuntimeError(f"draw of point {point} failed")
            time.sleep(0.1)  # the other workers end well after the failure
            ended.append(point)
            return mc(spec, *args)

        monkeypatch.setattr(harness, "tail_probability_mc", draw_or_fail)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^draw of point {raised} failed$"):
            run_lemma_check(self.GRID, trials=1000)
        # a worker stops at its failing point; the others draw all of theirs
        stopped = {point % 3: point for point in sorted(failing, reverse=True)}
        assert sorted(ended) == [point for point in range(5)
                                 if point < stopped.get(point % 3, 5)]
        assert threading.active_count() == before
        assert not [t for t in threading.enumerate() if t.name.startswith("cycalign-worker")]

    @pytest.mark.parametrize("fit,fit_json", [
        (None, "null"),
        # the fit's predictors and -ln(tail) values stay out of the JSON
        (TailFit(slope=0.5, intercept=-0.25, r_squared=0.96875, regime="large",
                 predictors=(9.0,), neg_log_tails=(4.15,)),
         '{\n    "intercept": -0.25,\n    "r_squared": 0.96875,\n'
         '    "regime": "large",\n    "slope": 0.5\n  }'),
    ])
    def test_json_bytes(self, fit, fit_json):
        point = LemmaPoint(vote_count=30, k=2, delta=0.3, regime="large", predictor=9.0,
                           exact_tail=0.015625, mc_tail=0.0155, mc_half_width=0.00025)
        report = LemmaCheckReport(points=(point,), fit=fit, trials=2000)
        assert lemma_report_to_json(report) == (
            '{\n  "fit": ' + fit_json + ',\n  "points": [\n    {\n'
            '      "delta": 0.3,\n      "exact_tail": 0.015625,\n      "k": 2,\n'
            '      "mc_half_width": 0.00025,\n      "mc_tail": 0.0155,\n'
            '      "predictor": 9.0,\n      "regime": "large",\n'
            '      "vote_count": 30\n    }\n  ],\n  "trials": 2000\n}\n')

    def test_csv_rendering(self):
        report = run_lemma_check([TailSpec(30, NoiseParams(2, 0.3))],
                                 trials=1000, base_seed=0)
        lines = lemma_report_to_csv(report).strip().split("\n")
        assert lines[0].startswith("vote_count,k,delta,regime,")
        assert len(lines) == 2


class TestMleComparison:
    def test_noiseless_agreement_is_total(self):
        report = run_mle_comparison(5, NoiseParams(2, 0.4), trials=10,
                                    base_seed=0, noiseless=True)
        assert report.agreement_rate == 1.0
        assert report.nonunique_mle == 0

    @pytest.mark.parametrize("noiseless", [False, True])
    @pytest.mark.parametrize("n,k", [(5, 2), (5, 3), (6, 2), (6, 3), (8, 2), (8, 3)])
    def test_reports_equal_a_per_trial_reference(self, n, k, noiseless):
        params = NoiseParams(k, 0.45)
        # trial counts on both sides of the batch edges of _BATCH_TRIALS = 32
        for base_seed, trials in itertools.product((3, 41), (30, 1, 31, 32, 33, 70)):
            got = run_mle_comparison(n, params, trials=trials, base_seed=base_seed,
                                     noiseless=noiseless)
            want = _mle_comparison_by_trial(n, params, trials, base_seed, noiseless)
            assert (got.trials, got.agreements, got.nonunique_mle) == want

    @pytest.mark.parametrize("trials", [1, 32, 33, 200])
    def test_batch_oracle_runs_once_per_batch(self, monkeypatch, trials):
        sizes = []
        answer_rows = harness._answer_rows
        def counted(labels, *args):
            sizes.append(len(labels))
            return answer_rows(labels, *args)
        monkeypatch.setattr(harness, "_answer_rows", counted)
        run_mle_comparison(8, NoiseParams(3, 0.45), trials=trials)
        assert len(sizes) == -(-trials // harness._BATCH_TRIALS)
        assert sum(sizes) == trials and max(sizes) <= harness._BATCH_TRIALS

    def test_memory_stays_near_one_batch(self):
        # one batch's answers, votes and agree counts; a batch of all 200
        # trials would hold 200 x 2187 agree counts and their maxima
        run_mle_comparison(8, NoiseParams(3, 0.45), trials=1)  # imports, caches
        tracemalloc.start()
        try:
            run_mle_comparison(8, NoiseParams(3, 0.45), trials=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, f"peak {peak / 1e6:.2f} MB"

    def test_candidate_table_is_built_once(self, monkeypatch):
        builds = []
        chunk = analysis._MleTable._chunk
        def counted(table, start):
            builds.append(start)
            return chunk(table, start)
        monkeypatch.setattr(analysis._MleTable, "_chunk", counted)
        run_mle_comparison(8, NoiseParams(3, 0.45), trials=50)
        assert builds == [0]

    def test_size_guards(self):
        with pytest.raises(ValueError):
            run_mle_comparison(9, NoiseParams(2, 0.4), trials=1)
        with pytest.raises(ValueError):
            run_mle_comparison(6, NoiseParams(4, 0.4), trials=1)
        with pytest.raises(ValueError):
            run_mle_comparison(6, NoiseParams(2, 0.4), trials=0)

    @pytest.mark.parametrize("trials", [2.5, float("inf")])
    def test_fractional_trials_rejected_by_name(self, trials):
        with pytest.raises(ValueError, match=f"trials must be integers, got {trials!r}"):
            run_mle_comparison(5, NoiseParams(2, 0.4), trials=trials)

    @pytest.mark.parametrize("base_seed", [2.7, "5", None])
    def test_bad_base_seed_rejected_by_name(self, base_seed):
        with pytest.raises(ValueError,
                           match=re.escape(f"base_seed must be integers, got {base_seed!r}")):
            run_mle_comparison(5, NoiseParams(2, 0.4), trials=3, base_seed=base_seed)

    def test_numpy_n_gives_the_same_report(self):
        params = NoiseParams(2, 0.45)
        want = run_mle_comparison(6, params, trials=200)
        assert run_mle_comparison(np.int64(6), params, trials=200) == want

    def test_base_seed_forms_give_the_same_report(self):
        params = NoiseParams(3, 0.45)
        for same in [(5, np.int64(5), 5.0, 2**64 + 5), (-3, np.int16(-3), 2**64 - 3)]:
            reports = {run_mle_comparison(6, params, trials=40, base_seed=b) for b in same}
            assert len(reports) == 1

    def test_empty_transcript_rejected_by_recovery(self):
        empty = QueryTranscript(6, 2, [], [], [])
        with pytest.raises(MissingPairError):
            recover_from_transcript(empty, 3)


def _mle_comparison_by_trial(n, params, trials, base_seed, noiseless):
    """run_mle_comparison's counts, one brute_force_mle call and one
    Labeling comparison per candidate in each trial."""
    plan = full_pairwise_plan(n)
    s = seed_size(n, params)
    agreements = nonunique = 0
    for t in range(trials):
        trial_seed = derive_trial_seed(base_seed, ("mle", n, params.k, params.delta), t)
        truth = sample_truth(n, params.k, np.random.default_rng(
            harness._substream(trial_seed, "truth")))
        oracle = FaultyOracle(truth, params, harness._substream(trial_seed, "oracle"),
                              noiseless=noiseless)
        transcript = oracle.execute_plan(plan)
        labels = recover_from_transcript(transcript, s).labeling.labels
        normalized = Labeling((labels - labels[0]) % params.k, params.k)
        candidates = brute_force_mle(transcript, n, params)
        nonunique += len(candidates) > 1
        agreements += any(normalized == c for c in candidates)
    return trials, agreements, nonunique


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# comment line\n"
            "n_values = 100,200\n"
            "k_values = 2\n"
            "delta_values = 0.3,0.4  # trailing comment\n"
            "constant_c_values = 40\n"
            "trials = 10\n"
            "base_seed = 99\n"
            "budget_scale = 0.5\n"
        )
        cfg = SweepConfig(**parse_config_file(str(path)))
        assert cfg.n_values == (100, 200)
        assert cfg.k_values == (2,)
        assert cfg.delta_values == (0.3, 0.4)
        assert cfg.trials == 10
        assert cfg.base_seed == 99
        assert cfg.budget_scale == 0.5

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("trials = many\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("trials\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))
