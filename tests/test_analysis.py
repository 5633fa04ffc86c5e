"""Analysis contracts: success scoring, likelihood, MLE, tail bounds."""

import math
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cycalign import analysis
from cycalign import (
    DegenerateGridError,
    DegenerateLikelihoodError,
    DimensionMismatchError,
    FaultyOracle,
    InstanceTooLargeError,
    Labeling,
    NoiseParams,
    QueryPlan,
    QueryTranscript,
    RegimeMixingError,
    TailSpec,
    brute_force_mle,
    fit_tail_exponent,
    full_pairwise_plan,
    hamming_after_best_shift,
    log_likelihood,
    recover_success,
    run_lemma_check,
    shift_labeling,
    tail_probability_exact,
    tail_probability_mc,
    tail_regime,
    vote_probabilities,
)
from oracles import (
    hamming_by_scan,
    linear_fit_by_formula,
    log_tail_binomial_exact,
    log_tail_by_scalar_walk,
    mle_by_scan,
    success_by_scan,
    tail_dp_full_array,
    tail_enum_multinomial,
    tail_enum_patterns,
    tail_mc_by_multinomial,
)


class TestRecoverSuccess:
    def test_identical(self):
        g = Labeling([0, 1, 2], 3)
        assert recover_success(g, g)

    def test_shifted(self):
        g = Labeling([0, 1, 2], 3)
        assert recover_success(shift_labeling(g, 1), g)

    def test_not_a_shift(self):
        assert not recover_success(Labeling([0, 0, 1], 2), Labeling([0, 0, 0], 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            recover_success(Labeling([0, 1], 2), Labeling([0, 1, 0], 2))
        with pytest.raises(DimensionMismatchError):
            recover_success(Labeling([0, 1], 2), Labeling([0, 1], 3))


class TestHamming:
    def test_exact_is_zero(self):
        g = Labeling([0, 1, 2, 1], 3)
        assert hamming_after_best_shift(g, g) == 0

    def test_global_flip_is_zero(self):
        assert hamming_after_best_shift(
            Labeling([1, 0, 1, 0], 2), Labeling([0, 1, 0, 1], 2)) == 0

    def test_single_error(self):
        assert hamming_after_best_shift(
            Labeling([1, 0, 0, 0], 2), Labeling([0, 0, 0, 0], 2)) == 1

    @given(st.integers(2, 5).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, k - 1), min_size=2, max_size=10),
            st.lists(st.integers(0, k - 1), min_size=2, max_size=10),
            st.just(k))))
    def test_matches_scan_and_success_iff_zero(self, case):
        a, b, k = case
        m = min(len(a), len(b))
        a, b = a[:m], b[:m]
        ga, gb = Labeling(a, k), Labeling(b, k)
        assert hamming_after_best_shift(ga, gb) == hamming_by_scan(a, b, k)
        assert recover_success(ga, gb) == success_by_scan(a, b, k)
        assert recover_success(ga, gb) == (hamming_after_best_shift(ga, gb) == 0)

    @given(st.data())
    def test_rows_equal_a_bincount_per_row(self, data):
        k = data.draw(st.integers(2, 300), label="k")
        rows, n = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 12))
        stacks = [np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=rows * n,
                                              max_size=rows * n)),
                           dtype=np.int64).reshape(rows, n) for _ in range(2)]
        labels, truths = stacks
        got = analysis._hamming_rows(labels, truths, k)
        want = [n - np.bincount((a - b) % k, minlength=k).max()
                for a, b in zip(labels, truths)]
        assert got.shape == (rows,) and got.tolist() == want


def _transcript(n, k, entries):
    if not entries:
        return QueryTranscript(n, k, [], [], [])
    arr = np.asarray(entries, dtype=np.int64)
    return QueryTranscript(n, k, arr[:, 0], arr[:, 1], arr[:, 2])


class TestLogLikelihood:
    def test_empty_transcript(self):
        t = _transcript(3, 2, [])
        assert log_likelihood(t, Labeling([0, 1, 0], 2), NoiseParams(2, 0.25)) == 0.0

    def test_all_agreeing_edges(self):
        labels = [0, 2, 1, 0]
        oracle = FaultyOracle(Labeling(labels, 3), NoiseParams(3, 0.2), 0,
                              noiseless=True)
        t = oracle.execute_plan(full_pairwise_plan(4))
        ll = log_likelihood(t, Labeling(labels, 3), NoiseParams(3, 0.2))
        assert ll == pytest.approx(len(t) * math.log(1 / 3 + 0.2))

    def test_one_agree_one_disagree(self):
        t = _transcript(3, 2, [(0, 1, 0), (1, 2, 1)])
        g = Labeling([0, 0, 0], 2)  # edge (0,1) agrees, edge (1,2) disagrees
        ll = log_likelihood(t, g, NoiseParams(2, 0.25))
        assert ll == pytest.approx(math.log(0.75) + math.log(0.25))

    def test_split_counts(self):
        t = _transcript(3, 2, [(0, 1, 0), (1, 2, 1), (0, 2, 1)])
        # edge (0,1) agrees, edges (1,2) and (0,2) disagree
        ll = log_likelihood(t, Labeling([0, 0, 0], 2), NoiseParams(2, 0.25))
        assert ll == pytest.approx(math.log(0.75) + 2 * math.log(0.25))

    def test_invariant_under_global_shift(self):
        rng = np.random.default_rng(4)
        lo, hi = np.triu_indices(6, k=1)
        t = QueryTranscript(6, 4, lo, hi, rng.integers(0, 4, lo.size))
        params = NoiseParams(4, 0.3)
        g = Labeling(rng.integers(0, 4, 6), 4)
        base = log_likelihood(t, g, params)
        for alpha in range(1, 4):
            assert log_likelihood(t, shift_labeling(g, alpha), params) == \
                pytest.approx(base)

    def test_degenerate_bias_with_disagreement(self):
        t = _transcript(3, 2, [(0, 1, 1)])
        g = Labeling([0, 0, 0], 2)
        with pytest.raises(DegenerateLikelihoodError):
            log_likelihood(t, g, NoiseParams(2, 0.5))

    def test_degenerate_bias_all_agreeing_is_fine(self):
        t = _transcript(3, 2, [(0, 1, 0)])
        g = Labeling([0, 0, 0], 2)
        assert log_likelihood(t, g, NoiseParams(2, 0.5)) == pytest.approx(
            math.log(1.0))

    def test_dimension_mismatch(self):
        t = _transcript(3, 2, [(0, 1, 0)])
        with pytest.raises(DimensionMismatchError):
            log_likelihood(t, Labeling([0, 1], 2), NoiseParams(2, 0.25))


class TestBruteForceMle:
    def test_noiseless_full_transcript_is_singleton_truth(self):
        labels = [0, 1, 0, 1]
        oracle = FaultyOracle(Labeling(labels, 2), NoiseParams(2, 0.25), 0,
                              noiseless=True)
        t = oracle.execute_plan(full_pairwise_plan(4))
        out = brute_force_mle(t, 4, NoiseParams(2, 0.25))
        assert out == [Labeling(labels, 2)]

    def test_empty_transcript_ties_everything(self):
        t = _transcript(3, 2, [])
        out = brute_force_mle(t, 3, NoiseParams(2, 0.25))
        assert len(out) == 4
        assert all(g.labels[0] == 0 for g in out)

    def test_single_edge_pins_the_difference(self):
        t = _transcript(3, 3, [(0, 1, 2)])
        out = brute_force_mle(t, 3, NoiseParams(3, 0.2))
        assert len(out) == 3  # node 2 is unconstrained
        for g in out:
            assert (g.labels[0] - g.labels[1]) % 3 == 2

    def test_matches_enumeration_oracle_on_noisy_instances(self):
        rng = np.random.default_rng(12)
        params = NoiseParams(3, 0.3)
        for trial in range(10):
            labels = rng.integers(0, 3, 5)
            labels[0] = 0
            oracle = FaultyOracle(Labeling(labels, 3), params, int(trial))
            t = oracle.execute_plan(full_pairwise_plan(5))
            got = [tuple(g.labels.tolist()) for g in brute_force_mle(t, 5, params)]
            want = mle_by_scan(5, 3, {(i, j): a for i, j, a in t.items()})
            assert sorted(got) == sorted(want)

    def test_enumeration_order_is_deterministic(self):
        t = _transcript(3, 2, [])
        out = [tuple(g.labels.tolist()) for g in brute_force_mle(
            t, 3, NoiseParams(2, 0.25))]
        assert out == [(0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]

    def test_size_guard(self):
        t = _transcript(10, 10, [])
        with pytest.raises(InstanceTooLargeError):
            brute_force_mle(t, 10, NoiseParams(10, 0.05))

    def test_size_guard_does_not_wrap(self):
        # 2 ** np.int64(63) wraps to -2**63 in int64 arithmetic
        t = QueryTranscript(64, 2, [], [], [])
        with pytest.raises(InstanceTooLargeError,
                           match=re.escape("k^(n-1) = 9223372036854775808 exceeds")):
            brute_force_mle(t, np.int64(64), NoiseParams(2, 0.3))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_table_scores_every_transcript_of_its_plan(self, data):
        n = data.draw(st.integers(2, 6))
        k = data.draw(st.sampled_from([2, 3, 4]))
        pairs = data.draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                                   unique=True))
        rows = data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=len(pairs),
                                           max_size=len(pairs)), min_size=1, max_size=4))
        plan = QueryPlan(pairs, n=n)
        table = analysis._MleTable(plan, k)
        for row in rows:
            answers = dict(zip(zip(plan.lo.tolist(), plan.hi.tolist()), row))
            t = _transcript(n, k, [(i, j, a) for (i, j), a in answers.items()])
            got = [tuple(c) for c in table.winners(t._ans).T.tolist()]
            alone = [tuple(g.labels.tolist()) for g in brute_force_mle(
                t, n, NoiseParams(k, 0.2))]
            assert got == alone
            assert sorted(got) == sorted(mle_by_scan(n, k, answers))
            ids = [_mixed_radix_id(g, k) for g in got]
            assert ids == sorted(set(ids))

    @given(st.data())
    def test_matches_scan_on_partial_transcripts(self, data):
        n = data.draw(st.integers(2, 6))
        k = data.draw(st.sampled_from([2, 3, 4]))
        pairs = data.draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                                   unique=True))
        answers = {p: data.draw(st.integers(0, k - 1)) for p in pairs}
        _check_mle_against_scan(n, k, answers)

    def test_matches_scan_on_empty_transcript(self):
        _check_mle_against_scan(4, 3, {})

    def test_matches_scan_when_node_zero_is_untouched(self):
        _check_mle_against_scan(5, 3, {(1, 2): 2, (1, 4): 0, (2, 3): 1,
                                       (3, 4): 1, (2, 4): 0})

    def test_labels_wider_than_int8(self):
        for k in (127, 128, 129, 300):
            _check_mle_against_scan(3, k, {(0, 1): k - 1, (1, 2): 1, (0, 2): 5})

    @pytest.mark.parametrize("cells", [1, 6, 10, 29, 100])
    def test_chunking_keeps_winners_and_order(self, monkeypatch, cells):
        rng = np.random.default_rng(5)
        pairs = list(combinations(range(5), 2))
        cases = [(5, 3, {(0, 1): 2, (2, 3): 1}), (5, 2, {})]
        for _ in range(4):
            keep = rng.random(len(pairs)) < 0.5
            cases.append((5, 3, {p: int(a) for p, a, m in zip(
                pairs, rng.integers(0, 3, len(pairs)), keep) if m}))
        for n, k, answers in cases:
            t = _transcript(n, k, [(i, j, a) for (i, j), a in answers.items()])
            params = NoiseParams(k, 0.2)
            want = brute_force_mle(t, n, params)
            with monkeypatch.context() as m:
                m.setattr(analysis, "_MLE_CHUNK_CELLS", cells)
                got = brute_force_mle(t, n, params)
            assert got == want


def _mixed_radix_id(labels, k):
    return sum(int(g) * k ** (i - 1) for i, g in enumerate(labels) if i > 0)


def _check_mle_against_scan(n, k, answers):
    """brute_force_mle gives the scan's winners, in mixed-radix order."""
    t = _transcript(n, k, [(i, j, a) for (i, j), a in answers.items()])
    got = [tuple(g.labels.tolist()) for g in brute_force_mle(t, n, NoiseParams(k, 0.2))]
    assert sorted(got) == sorted(mle_by_scan(n, k, answers))
    ids = [_mixed_radix_id(g, k) for g in got]
    assert ids == sorted(set(ids))


class TestTailExact:
    def test_single_vote(self):
        # one vote: tail is the probability of -1, which is 0.4 here
        spec = TailSpec(1, NoiseParams(2, 0.1))
        assert tail_probability_exact(spec) == pytest.approx(0.4, abs=1e-15)

    def test_two_votes(self):
        # complement of both votes being +1: 1 - 0.36
        spec = TailSpec(2, NoiseParams(2, 0.1))
        assert tail_probability_exact(spec) == pytest.approx(0.64, abs=1e-15)

    def test_three_votes_three_labels(self):
        # frozen from exact rational enumeration over outcome counts
        spec = TailSpec(3, NoiseParams(3, 0.1))
        got = tail_probability_exact(spec)
        assert got == pytest.approx(0.49504629629629626, abs=1e-15)
        assert got == pytest.approx(
            float(tail_enum_multinomial(3, 3, 0.1)), abs=1e-15)

    def test_enumeration_oracles_agree_with_each_other(self):
        for n in (1, 2, 4, 6):
            for k, d in ((2, 0.1), (3, 0.2), (4, 0.24)):
                assert tail_enum_patterns(n, k, d) == tail_enum_multinomial(n, k, d)

    def test_matches_rational_enumeration(self):
        for n in (1, 3, 7, 12):
            for k, d in ((2, 0.01), (3, 0.1), (4, 0.24)):
                spec = TailSpec(n, NoiseParams(k, d))
                want = float(tail_enum_multinomial(n, k, d))
                assert tail_probability_exact(spec) == pytest.approx(
                    want, abs=1e-12)

    def test_matches_binomial_closed_form_for_two_labels(self):
        # k=2 has no zero votes: tail = P(Binomial(n, 1/2+delta) <= n/2)
        for n in (5, 20, 101, 400):
            for d in (0.05, 0.2, 0.4):
                spec = TailSpec(n, NoiseParams(2, d))
                want = stats.binom.cdf(n // 2, n, 0.5 + d)
                assert tail_probability_exact(spec) == pytest.approx(
                    want, rel=1e-10)

    def test_non_increasing_in_bias(self):
        values = [tail_probability_exact(TailSpec(50, NoiseParams(4, d)))
                  for d in (0.01, 0.05, 0.1, 0.2, 0.4, 0.7)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_vote_count_guard(self):
        with pytest.raises(InstanceTooLargeError):
            tail_probability_exact(TailSpec(100_001, NoiseParams(2, 0.1)))

    def test_vote_probabilities(self):
        up, down, zero = vote_probabilities(NoiseParams(2, 0.3))
        assert (up, down, zero) == pytest.approx((0.8, 0.2, 0.0))
        up, down, zero = vote_probabilities(NoiseParams(4, 0.2))
        assert up + down + zero == pytest.approx(1.0)


class TestTailExactWindow:
    """The log-space sum against the float convolution over the whole
    support, to a relative tolerance: each side rounds in its own way.
    The absolute floor covers tails near the smallest normal float,
    where the convolution keeps few digits."""

    @given(st.integers(2, 6).flatmap(lambda k: st.tuples(
        st.just(k),
        st.floats(0.0, (k - 1) / k, exclude_min=True),
        st.integers(1, 300))))
    def test_equals_full_array(self, case):
        k, delta, votes = case
        spec = TailSpec(votes, NoiseParams(k, delta))
        assert tail_probability_exact(spec) == pytest.approx(
            tail_dp_full_array(votes, k, delta), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("votes", [1, 2, 51, 300])
    def test_maximal_bias_window_moves_right(self, k, votes):
        # delta = (k-1)/k: no down or zero votes, so the tail is empty
        delta = (k - 1) / k
        spec = TailSpec(votes, NoiseParams(k, delta))
        assert analysis._log_tail(spec) == -math.inf
        assert tail_probability_exact(spec) == 0.0 == tail_dp_full_array(votes, k, delta)

    @pytest.mark.parametrize("votes", [1, 2, 7, 8, 299, 300])
    def test_two_labels_alternating_zeros(self, votes):
        # k = 2 has no zero votes: every term has u + d = votes
        for delta in (0.01, 0.3, 0.49):
            spec = TailSpec(votes, NoiseParams(2, delta))
            assert tail_probability_exact(spec) == pytest.approx(
                tail_dp_full_array(votes, 2, delta), rel=1e-12)

    @pytest.mark.parametrize("votes,k,delta,value", [
        (2000, 2, 0.3, 3.5978498573685206e-196),
        (4000, 2, 0.3, 0.0),  # underflows
        (4000, 4, 0.05, 3.729442585351899e-09),
    ])
    def test_large_vote_counts(self, votes, k, delta, value):
        # values of the full-width convolution
        got = tail_probability_exact(TailSpec(votes, NoiseParams(k, delta)))
        assert got == pytest.approx(value, rel=1e-10)


class TestLogTailWalk:
    """The array walk of each line gives the scalar walk's value bit
    for bit: the same products and partial sums, in the same order."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("votes", [1, 2, 3, 57, 4000, 20000, 100_000])
    def test_equals_the_scalar_walk(self, k, votes):
        # k = 2 skips every line of the wrong parity; delta = (k-1)/k
        # has no down votes, so both give -inf
        deltas = [0.05, 0.3]
        if votes <= 4000:
            deltas += [0.01, 1 / (2 * k), 0.9 * (k - 1) / k]
        for delta in deltas + [(k - 1) / k]:
            spec = TailSpec(votes, NoiseParams(k, delta))
            want = log_tail_by_scalar_walk(votes, *vote_probabilities(spec.params))
            assert analysis._log_tail(spec) == want, delta
        assert want == -math.inf

    def test_walk_crosses_chunks(self, monkeypatch):
        # chunks of a few terms: the running product and sum carry over
        monkeypatch.setattr(analysis, "_WALK_CHUNK", 3)
        for k, votes, delta in [(3, 57, 0.1), (4, 4000, 0.05), (5, 2000, 0.3)]:
            spec = TailSpec(votes, NoiseParams(k, delta))
            assert analysis._log_tail(spec) == log_tail_by_scalar_walk(
                votes, *vote_probabilities(spec.params))


class TestLogTail:
    """_log_tail stays finite and exact where the float tail underflows."""

    @pytest.mark.parametrize("votes", [2000, 4000, 10000])
    @pytest.mark.parametrize("delta", [0.05, 0.3])
    def test_two_labels_match_exact_binomial_sums(self, votes, delta):
        params = NoiseParams(2, delta)
        up, down, _ = vote_probabilities(params)
        want = log_tail_binomial_exact(votes, up, down)
        assert analysis._log_tail(TailSpec(votes, params)) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("lines", [1, 2, 5])
    def test_walk_crosses_line_groups(self, lines, monkeypatch):
        # groups of a few lines: the band's top and the running sum carry
        # over, and the stopping line falls anywhere in a group
        monkeypatch.setattr(analysis, "_WALK_LINES", lines)
        for k, votes, delta in [(2, 301, 0.05), (2, 300, 0.3), (3, 1, 0.2), (3, 57, 0.1),
                                (4, 4000, 0.05), (5, 2000, 0.3)]:
            spec = TailSpec(votes, NoiseParams(k, delta))
            assert analysis._log_tail(spec) == log_tail_by_scalar_walk(
                votes, *vote_probabilities(spec.params))

    def test_finite_where_the_float_underflows(self):
        spec = TailSpec(4000, NoiseParams(2, 0.3))
        assert analysis._log_tail(spec) == pytest.approx(-896.6596791654902, abs=1e-9)
        assert tail_probability_exact(spec) == 0.0
        deep = analysis._log_tail(TailSpec(16000, NoiseParams(4, 1 / 3)))
        assert -math.inf < deep < -745.2  # exp underflows below about -745.13

    def test_band_memory_is_small(self):
        # only the band's terms are visited: a list of one float per
        # vote would alone hold ~640 KB at 20 000 votes
        tracemalloc.start()
        try:
            analysis._log_tail(TailSpec(20000, NoiseParams(3, 0.4)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024


class TestTailProbabilitiesExact:
    """A grid's exact tails: one tail_probability_exact per spec, after
    the vote guard."""

    def test_vote_guard_before_any_pass(self, monkeypatch):
        def no_tail(*args):
            raise AssertionError("a tail was computed before the vote guard")
        monkeypatch.setattr(analysis, "_log_tail", no_tail)
        specs = [TailSpec(5, NoiseParams(2, 0.1)), TailSpec(100_001, NoiseParams(2, 0.1))]
        with pytest.raises(InstanceTooLargeError, match="100001 exceeds the exact-tail guard"):
            run_lemma_check(specs, trials=10)

    def test_lemma_check_tails_equal_per_spec_values(self):
        specs = [TailSpec(n, NoiseParams(4, 0.05)) for n in (300, 100, 500, 200, 400)]
        report = run_lemma_check(specs, trials=10)
        assert [p.exact_tail for p in report.points] == [
            tail_probability_exact(s) for s in specs]

    def test_lemma_check_one_tail_per_spec(self, monkeypatch):
        calls = []
        log_tail = analysis._log_tail
        def counted(spec):
            calls.append(spec.vote_count)
            return log_tail(spec)
        monkeypatch.setattr(analysis, "_log_tail", counted)
        specs = [TailSpec(n, NoiseParams(2, 0.3)) for n in range(20, 101, 20)]
        run_lemma_check(specs, trials=10)
        assert calls == [20, 40, 60, 80, 100]
        calls.clear()
        fit_tail_exponent(specs)
        assert calls == [20, 40, 60, 80, 100]


class TestIntegerCounts:
    """Vote counts and trial counts follow core's rule for nodes."""

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_integral_values_become_int(self, value):
        spec = TailSpec(value, NoiseParams(2, 0.1))
        assert spec.vote_count == 3 and type(spec.vote_count) is int
        assert tail_probability_exact(spec) == pytest.approx(
            tail_dp_full_array(3, 2, 0.1), rel=1e-12)
        est = tail_probability_mc(TailSpec(3, NoiseParams(2, 0.1)), value,
                                  np.random.default_rng(0))
        assert est.value in (0.0, 1 / 3, 2 / 3, 1.0)

    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -math.inf])
    def test_non_integers_rejected_by_name(self, value):
        message = re.escape(f"must be integers, got {value!r}")
        with pytest.raises(ValueError, match="vote_count " + message):
            TailSpec(value, NoiseParams(2, 0.1))
        with pytest.raises(ValueError, match="trials " + message):
            tail_probability_mc(TailSpec(5, NoiseParams(2, 0.1)), value,
                                np.random.default_rng(0))

    @pytest.mark.parametrize("value", ["3", b"3", "2.5"])
    def test_text_rejected_by_name(self, value):
        with pytest.raises(ValueError, match=re.escape(f"vote_count must be integers, got {value!r}")):
            TailSpec(value, NoiseParams(2, 0.1))

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError, match=re.escape("vote_count must be an integer, got [3]")):
            TailSpec([3], NoiseParams(2, 0.1))

    def test_range_checks_still_apply(self):
        with pytest.raises(ValueError, match="vote_count must be >= 1, got 0"):
            TailSpec(0.0, NoiseParams(2, 0.1))
        with pytest.raises(ValueError, match="vote_count must be integers in the int64 range"):
            TailSpec(2**64, NoiseParams(2, 0.1))


class TestTailMonteCarlo:
    def test_single_trial_degenerate(self):
        spec = TailSpec(5, NoiseParams(2, 0.3))
        est = tail_probability_mc(spec, 1, np.random.default_rng(0))
        assert est.value in (0.0, 1.0) and est.half_width == 0.0

    def test_agrees_with_exact_within_half_width(self):
        spec = TailSpec(100, NoiseParams(4, 0.05))
        exact = tail_probability_exact(spec)
        est = tail_probability_mc(spec, 10**6, np.random.default_rng(321))
        assert abs(est.value - exact) <= est.half_width

    def test_overwhelming_drift_gives_near_zero(self):
        spec = TailSpec(500, NoiseParams(4, 0.74))
        est = tail_probability_mc(spec, 10_000, np.random.default_rng(1))
        assert est.value == 0.0

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            tail_probability_mc(TailSpec(5, NoiseParams(2, 0.3)), 0,
                                np.random.default_rng(0))

    @pytest.mark.parametrize("rng", [5, None, np.random.RandomState(0)])
    def test_rng_must_be_a_generator(self, rng):
        with pytest.raises(ValueError, match="^rng must be a numpy.random.Generator, got "):
            tail_probability_mc(TailSpec(10, NoiseParams(2, 0.3)), 5, rng)

    # (k, delta, votes): k = 2 with and without down votes, the maximal
    # bias (k-1)/k at k = 2 and k = 4, and tails of ~1e-3 to ~0.4
    @pytest.mark.parametrize("idx,k,delta,votes", [
        (0, 2, 0.1, 50), (1, 2, 0.5, 10), (2, 3, 0.1, 60),
        (3, 4, 0.05, 200), (4, 4, 0.75, 5), (5, 5, 0.3, 20), (6, 3, 0.02, 7),
    ])
    def test_hits_agree_with_the_multinomial_draws(self, idx, k, delta, votes):
        # two independent estimates of one tail: the hit counts differ
        # by at most the two-sample 99.9% normal band
        trials = 100_000
        spec = TailSpec(votes, NoiseParams(k, delta))
        old = tail_mc_by_multinomial(votes, *vote_probabilities(spec.params), trials,
                                     np.random.default_rng(1000 + idx))
        new = round(tail_probability_mc(spec, trials, np.random.default_rng(2000 + idx)).value
                    * trials)
        pooled = (old + new) / (2 * trials)
        band = 3.2905 * math.sqrt(2 * trials * pooled * (1 - pooled))
        assert abs(old - new) <= band, (old, new, band)

    @pytest.mark.parametrize("k,delta,votes", [(2, 0.1, 51), (4, 0.05, 300), (3, 0.3, 3)])
    def test_value_does_not_depend_on_the_chunk(self, k, delta, votes, monkeypatch):
        spec = TailSpec(votes, NoiseParams(k, delta))
        want = tail_probability_mc(spec, 5000, np.random.default_rng(9))
        for chunk in (1, 7, 4999, 5001):
            monkeypatch.setattr(analysis, "_MC_CHUNK", chunk)
            assert tail_probability_mc(spec, 5000, np.random.default_rng(9)) == want

    @pytest.mark.parametrize("k,delta,draws", [(2, 0.1, 1), (2, 0.5, 0), (4, 0.05, 2),
                                               (4, 0.75, 0)])
    def test_draws_per_trial(self, k, delta, draws):
        # k = 2 draws U alone (D = m - U); no down votes draws nothing
        class Counting(np.random.Generator):
            draws = 0

            def binomial(self, n, p, size=None):
                out = super().binomial(n, p, size)
                self.draws += np.size(out)
                return out

        rng = Counting(np.random.PCG64(4))
        est = tail_probability_mc(TailSpec(40, NoiseParams(k, delta)), 3000, rng)
        assert rng.draws == draws * 3000
        if not draws:
            assert est == (0.0, 0.0)

    def test_memory_does_not_grow_with_the_trials(self):
        # the U of 200 000 trials alone would take 1.6 MB as int64
        spec = TailSpec(20000, NoiseParams(4, 0.05))
        tracemalloc.start()
        try:
            tail_probability_mc(spec, 200_000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestMaximalBias:
    """delta = (k-1)/k makes every nonzero noise value impossible, which
    float round-off must not turn into a negative probability."""

    @pytest.mark.parametrize("k", range(2, 40))
    def test_probabilities_stay_valid(self, k):
        params = NoiseParams(k, (k - 1) / k)
        assert params.p_nonzero == 0.0
        assert min(vote_probabilities(params)) >= 0.0
        for votes in (1, 2, 25):
            spec = TailSpec(votes, params)
            assert 0.0 <= tail_probability_exact(spec) < 1e-12
            assert tail_probability_mc(spec, 1000, np.random.default_rng(k)).value == 0.0
        t = _transcript(3, k, [(0, 1, 1), (1, 2, 0)])
        with pytest.raises(DegenerateLikelihoodError):
            log_likelihood(t, Labeling([0, 0, 0], k), params)


class TestFitTailExponent:
    def test_regimes(self):
        assert tail_regime(NoiseParams(4, 0.125)) == "small"
        assert tail_regime(NoiseParams(4, 0.1251)) == "large"

    def test_small_bias_grid_fits_line(self):
        specs = [TailSpec(n, NoiseParams(4, 0.02))
                 for n in range(200, 1001, 200)]
        fit = fit_tail_exponent(specs)
        assert fit.regime == "small"
        assert fit.r_squared >= 0.95
        assert fit.slope > 0

    def test_large_bias_grid_fits_line(self):
        specs = [TailSpec(n, NoiseParams(2, 0.3)) for n in range(20, 101, 20)]
        fit = fit_tail_exponent(specs)
        assert fit.regime == "large"
        assert fit.r_squared >= 0.95

    def test_matches_closed_form_least_squares(self):
        specs = [TailSpec(n, NoiseParams(2, 0.3)) for n in range(20, 101, 20)]
        fit = fit_tail_exponent(specs)
        x = [0.3 * n for n in range(20, 101, 20)]
        y = [-math.log(tail_probability_exact(s)) for s in specs]
        slope, intercept, r2 = linear_fit_by_formula(x, y)
        assert fit.slope == pytest.approx(slope)
        assert fit.intercept == pytest.approx(intercept)
        assert fit.r_squared == pytest.approx(r2)

    def test_too_few_points(self):
        specs = [TailSpec(n, NoiseParams(2, 0.3)) for n in (20, 40, 60, 80)]
        with pytest.raises(ValueError):
            fit_tail_exponent(specs)

    def test_regime_mixing_rejected(self):
        specs = [TailSpec(50, NoiseParams(4, d))
                 for d in (0.05, 0.1, 0.12, 0.2, 0.3)]
        with pytest.raises(RegimeMixingError):
            fit_tail_exponent(specs)

    def test_degenerate_grid_rejected(self):
        specs = [TailSpec(50, NoiseParams(2, 0.3))] * 5
        with pytest.raises(DegenerateGridError):
            fit_tail_exponent(specs)

    def test_tails_outside_unit_interval_rejected(self):
        specs = [TailSpec(n, NoiseParams(2, 0.3)) for n in range(20, 101, 20)]
        message = "^all tail probabilities must lie strictly in \\(0, 1\\)$"
        with pytest.raises(ValueError, match=message):
            fit_tail_exponent(specs, tails=[0.5, 0.4, 0.3, 0.2, 1.0])
        # exact tails at 4 000+ votes underflow to 0.0
        underflowing = [TailSpec(n, NoiseParams(2, 0.3)) for n in range(2000, 10001, 2000)]
        with pytest.raises(ValueError, match=message):
            fit_tail_exponent(underflowing)

    @pytest.mark.parametrize("count", [4, 6])
    def test_tail_count_must_match_specs(self, count):
        specs = [TailSpec(n, NoiseParams(2, 0.3)) for n in range(20, 101, 20)]
        with pytest.raises(ValueError, match=f"^got {count} tail probabilities for 5 specs$"):
            fit_tail_exponent(specs, tails=[0.5, 0.4, 0.3, 0.2, 0.1, 0.05][:count])

    def test_decay_rate_sandwich(self):
        # -ln(tail) / (delta^2 n k) stays inside a fixed positive band
        specs = [TailSpec(n, NoiseParams(4, 0.02))
                 for n in range(200, 2001, 200)]
        ratios = []
        for s in specs:
            tail = tail_probability_exact(s)
            ratios.append(-math.log(tail)
                          / (s.params.delta**2 * s.vote_count * s.params.k))
        low, high = min(ratios), max(ratios)
        assert 0 < low <= high < math.inf
        assert high / low < 10
