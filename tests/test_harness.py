"""Harness contracts: trials, sweeps, reports, config parsing."""

import re
import tracemalloc
import warnings

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
    seed_size,
    validity_threshold,
)
from cycalign import analysis, harness, recovery
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
        assert run_trial_detailed(np.int64(20), params, SeedConfig(), 5)[2] == \
            run_trial_detailed(20, params, SeedConfig(), 5)[2]

    def test_large_trial_memory_stays_near_the_answer_block(self):
        # n = 10^4, k = 4, delta = 0.5, c = 40: |S| = 737, 6.83 M queries.
        # The one-byte answer block is the only trial-sized allocation;
        # the oracle and the votes work in tiles of _BLOCK / _VOTE_BLOCK
        # cells, for which a fixed 4 MiB is allowed (8 int64 arrays).
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
        for base_seed in (3, 41):
            got = run_mle_comparison(n, params, trials=30, base_seed=base_seed,
                                     noiseless=noiseless)
            want = _mle_comparison_by_trial(n, params, 30, base_seed, noiseless)
            assert (got.trials, got.agreements, got.nonunique_mle) == want

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
