"""Oracle contracts: noise law, query-once semantics, determinism."""

import re

import numpy as np
import pytest
from scipy import stats

from cycalign import (
    FaultyOracle,
    IdentityPairError,
    Labeling,
    NoiseParams,
    QueryPlan,
    RepeatQueryError,
    noise_from_uniform,
    sample_noise,
    seed_rest_plan,
)


class TestNoiseFromUniform:
    def test_k2_thresholds(self):
        # mass 0.75 on value 0, 0.25 on value 1
        u = np.array([0.0, 0.7499, 0.75, 0.999])
        assert noise_from_uniform(u, 2, 0.25).tolist() == [0, 0, 1, 1]

    def test_zero_bias_is_uniform(self):
        # delta = 0 splits [0, 1) into k equal cells
        u = np.array([0.0, 0.24, 0.26, 0.49, 0.51, 0.74, 0.76, 0.99])
        assert noise_from_uniform(u, 4, 0.0).tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_preimage_measures_match_law(self):
        k, delta = 5, 0.13
        params = NoiseParams(k, delta)
        u = (np.arange(2_000_000) + 0.5) / 2_000_000
        vals = noise_from_uniform(u, k, delta)
        freq = np.bincount(vals, minlength=k) / u.size
        assert freq[0] == pytest.approx(params.p_zero, abs=1e-6)
        for i in range(1, k):
            assert freq[i] == pytest.approx(params.p_nonzero, abs=1e-6)

    def test_extreme_delta_always_zero(self):
        u = np.array([0.0, 0.5, 0.999999])
        assert noise_from_uniform(u, 2, 0.5).tolist() == [0, 0, 0]


class TestSampleNoise:
    def test_monte_carlo_frequency_of_zero(self):
        # frequency of outcome 0 within 4 sigma of 1/3 + 0.2
        params = NoiseParams(3, 0.2)
        draws = 100_000
        vals = sample_noise(params, np.random.default_rng(7), draws)
        p = params.p_zero
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(np.mean(vals == 0) - p) < 4 * sigma

    def test_scalar_draw(self):
        v = sample_noise(NoiseParams(4, 0.1), np.random.default_rng(0))
        assert isinstance(v, int) and 0 <= v < 4


def _oracle(labels, k, delta=0.2, seed=1, noiseless=False):
    return FaultyOracle(Labeling(labels, k), NoiseParams(k, delta), seed,
                        noiseless=noiseless)


class TestQuery:
    def test_noiseless_difference(self):
        oracle = _oracle([0, 2, 1], 3, noiseless=True)
        assert oracle.query(0, 1) == (0 - 2) % 3 == 1

    def test_noiseless_reverse_read(self):
        oracle = _oracle([0, 2, 1], 3, noiseless=True)
        t = oracle.execute_plan(QueryPlan([(1, 0)], n=3))
        assert t.lookup_oriented(1, 0) == 2 and t.lookup_oriented(0, 1) == 1

    def test_repeat_query_rejected(self):
        oracle = _oracle([0, 1, 2], 3)
        oracle.query(0, 1)
        with pytest.raises(RepeatQueryError):
            oracle.query(0, 1)
        with pytest.raises(RepeatQueryError):
            oracle.query(1, 0)

    def test_identity_rejected(self):
        with pytest.raises(IdentityPairError):
            _oracle([0, 1], 2).query(1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            _oracle([0, 1], 2).query(0, 2)

    def test_count_tracks_distinct_pairs(self):
        oracle = _oracle([0, 1, 2, 0], 3)
        oracle.query(0, 1)
        oracle.query(2, 3)
        assert oracle.query_count == 2
        n = oracle.n
        assert oracle.query_count <= n * (n - 1) // 2


class TestExecutePlan:
    def test_empty_plan(self):
        oracle = _oracle([0, 1, 2], 3)
        t = oracle.execute_plan(QueryPlan([], n=3))
        assert len(t) == 0 and oracle.query_count == 0

    def test_seed_rest_cardinality(self):
        oracle = _oracle([0] * 20, 2, delta=0.3)
        t = oracle.execute_plan(seed_rest_plan(20, 4))
        assert len(t) == 4 * 16
        assert oracle.query_count == 4 * 16

    def test_rerun_is_byte_identical(self):
        plan = seed_rest_plan(12, 3)
        texts = []
        for _ in range(2):
            oracle = _oracle(list(range(12)), 12, delta=0.1, seed=99)
            texts.append(oracle.execute_plan(plan).to_text())
        assert texts[0] == texts[1]

    def test_query_order_does_not_change_answers(self):
        plan = seed_rest_plan(10, 2)
        oracle_a = _oracle([i % 3 for i in range(10)], 3, seed=5)
        batch = oracle_a.execute_plan(plan)
        oracle_b = _oracle([i % 3 for i in range(10)], 3, seed=5)
        pairs = list(plan)
        rng = np.random.default_rng(0)
        rng.shuffle(pairs)
        for i, j in pairs:
            assert oracle_b.query(i, j) == batch.lookup_oriented(i, j)

    def test_plan_overlapping_history_rejected(self):
        oracle = _oracle([0, 1, 2, 0], 3)
        oracle.query(1, 2)
        with pytest.raises(RepeatQueryError):
            oracle.execute_plan(QueryPlan([(0, 1), (1, 2)], n=4))
        # failed batch must not have been recorded
        assert oracle.query_count == 1

    def test_repeat_across_plans_names_lowest_pair(self):
        oracle = _oracle([0, 1, 2, 0, 1, 2], 3)
        oracle.execute_plan(QueryPlan([(0, 5), (2, 3), (3, 4)], n=6))
        with pytest.raises(RepeatQueryError, match=r"pair \(2, 3\) was already"):
            oracle.execute_plan(QueryPlan([(0, 1), (3, 4), (2, 3), (4, 5)], n=6))
        # nothing of the failed plan was recorded: its new pairs are still free
        assert oracle.query_count == 3
        assert len(oracle.execute_plan(QueryPlan([(0, 1), (4, 5)], n=6))) == 2

    def test_query_then_plan_repeat_rejected(self):
        oracle = _oracle([0, 1, 2, 0], 3)
        oracle.query(3, 2)
        with pytest.raises(RepeatQueryError, match=r"pair \(2, 3\)"):
            oracle.execute_plan(QueryPlan([(0, 1), (2, 3)], n=4))
        assert oracle.query_count == 1

    def test_plan_then_query_repeat_rejected(self):
        oracle = _oracle([0, 1, 2, 0], 3)
        oracle.execute_plan(QueryPlan([(0, 3), (1, 2)], n=4))
        with pytest.raises(RepeatQueryError, match=r"pair \(0, 3\)"):
            oracle.query(3, 0)
        assert oracle.query_count == 2

    def test_interleaved_plans_and_queries_count_exactly(self):
        # later batches fall below, between and above earlier ones
        oracle = _oracle([0, 1, 2, 0, 1, 2, 0, 1], 3)
        oracle.execute_plan(QueryPlan([(3, 4), (5, 6)], n=8))
        oracle.execute_plan(QueryPlan([(0, 1), (4, 5), (6, 7)], n=8))
        oracle.query(2, 3)
        oracle.execute_plan(QueryPlan([(0, 7), (1, 2)], n=8))
        assert oracle.query_count == 8
        for pair in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7)]:
            with pytest.raises(RepeatQueryError):
                oracle.query(*pair)
            with pytest.raises(RepeatQueryError):
                oracle.execute_plan(QueryPlan([pair], n=8))
        assert oracle.query_count == 8

    def test_wrong_size_plan_rejected(self):
        oracle = _oracle([0, 1, 2], 3)
        with pytest.raises(ValueError):
            oracle.execute_plan(QueryPlan([(0, 1)], n=4))

    def test_issued_merges_singles_and_batches(self):
        oracle = _oracle([0, 1, 2, 0, 1], 3)
        oracle.query(3, 4)
        oracle.execute_plan(QueryPlan([(0, 1), (0, 2)], n=5))
        assert oracle.query_count == 3
        for pair in [(4, 3), (0, 1), (2, 0)]:
            with pytest.raises(RepeatQueryError):
                oracle.query(*pair)

    def test_noiseless_answers_are_exact_differences(self):
        labels = [0, 2, 1, 2, 0, 1]
        oracle = _oracle(labels, 3, noiseless=True)
        t = oracle.execute_plan(seed_rest_plan(6, 3))
        for i, j, a in t.items():
            assert a == (labels[i] - labels[j]) % 3


class TestHistoryAcrossForms:
    """The answered seed x rest block and the other answered pairs are
    one history: every repeat is caught, named and not recorded."""

    N, S = 8, 3  # the block is (i, j) with i < 3 <= j

    def _oracle(self):
        return _oracle([0, 1, 2, 0, 1, 2, 0, 1], 3)

    def test_block_then_query(self):
        oracle = self._oracle()
        oracle.execute_plan(seed_rest_plan(self.N, self.S))
        assert oracle.query_count == 15
        for pair in [(0, 3), (7, 2), (1, 5)]:
            with pytest.raises(RepeatQueryError, match=re.escape(
                    f"pair {tuple(sorted(pair))} was already queried")):
                oracle.query(*pair)
        assert oracle.query_count == 15
        oracle.query(1, 2)  # inside the seed
        oracle.query(3, 7)  # inside the rest
        assert oracle.query_count == 17
        with pytest.raises(RepeatQueryError, match=re.escape("pair (3, 7)")):
            oracle.query(7, 3)

    def test_block_then_sparse_plan(self):
        oracle = self._oracle()
        oracle.execute_plan(seed_rest_plan(self.N, self.S))
        oracle.query(4, 5)
        for pairs, lowest in [([(0, 1), (0, 5), (4, 5)], (0, 5)),   # block first
                              ([(0, 1), (2, 6), (4, 5)], (2, 6)),
                              ([(0, 1), (4, 5), (5, 6)], (4, 5)),   # history only
                              ([(1, 2), (2, 3)], (2, 3))]:
            with pytest.raises(RepeatQueryError, match=re.escape(f"pair {lowest} was")):
                oracle.execute_plan(QueryPlan(pairs, n=self.N))
            assert oracle.query_count == 16
        t = oracle.execute_plan(QueryPlan([(0, 1), (5, 6), (1, 2)], n=self.N))
        assert len(t) == 3 and oracle.query_count == 19
        for pair in [(0, 1), (1, 2), (5, 6), (4, 5), (0, 3)]:
            with pytest.raises(RepeatQueryError):
                oracle.query(*pair)
        assert oracle.query_count == 19

    def test_sparse_history_then_block(self):
        oracle = self._oracle()
        oracle.query(0, 1)  # outside the block
        oracle.query(5, 4)  # outside the block
        oracle.execute_plan(QueryPlan([(2, 6), (6, 7)], n=self.N))
        oracle.query(7, 1)  # the lowest pair inside the block
        assert oracle.query_count == 5
        with pytest.raises(RepeatQueryError, match=re.escape("pair (1, 7) was already")):
            oracle.execute_plan(seed_rest_plan(self.N, self.S))
        assert oracle.query_count == 5
        # nothing of the block was recorded: its other pairs are still free
        oracle.query(0, 3)
        assert oracle.query_count == 6
        # a block that misses the history is answered and counted
        other = _oracle([0, 1, 2, 0, 1, 2, 0, 1], 3)
        other.query(0, 1)
        other.query(4, 5)
        t = other.execute_plan(seed_rest_plan(self.N, 4))
        assert len(t) == 16 and other.query_count == 18

    @pytest.mark.parametrize("first,second", [(3, 3), (3, 5), (5, 2), (1, 7)])
    def test_block_then_block(self, first, second):
        oracle = self._oracle()
        oracle.execute_plan(seed_rest_plan(self.N, first))
        count = first * (self.N - first)
        with pytest.raises(RepeatQueryError, match=re.escape(
                f"pair (0, {max(first, second)}) was already queried")):
            oracle.execute_plan(seed_rest_plan(self.N, second))
        assert oracle.query_count == count

    def test_block_answers_match_single_queries(self):
        labels = [0, 1, 2, 0, 1, 2, 0, 1]
        block = _oracle(labels, 3).execute_plan(seed_rest_plan(self.N, self.S))
        single = _oracle(labels, 3)
        for i, j, a in block.items():
            assert single.query(j, i) == a


class TestNoiseDistribution:
    def test_residuals_follow_the_law(self):
        # chi-square over >= 1e5 answered pairs at significance 1e-3
        n, k, delta = 800, 4, 0.2
        rng = np.random.default_rng(17)
        labels = rng.integers(0, k, n)
        oracle = FaultyOracle(Labeling(labels, k), NoiseParams(k, delta), 23)
        t = oracle.execute_plan(seed_rest_plan(n, 200))
        assert len(t) >= 100_000
        triples = np.array(list(t.items()))
        lo, hi, ans = triples[:, 0], triples[:, 1], triples[:, 2]
        residual = (ans - (labels[lo] - labels[hi])) % k
        counts = np.bincount(residual, minlength=k)
        params = NoiseParams(k, delta)
        expected = np.array([params.p_zero] + [params.p_nonzero] * (k - 1))
        result = stats.chisquare(counts, expected * len(t))
        assert result.pvalue >= 1e-3

    def test_distinct_seeds_give_distinct_noise(self):
        plan = seed_rest_plan(30, 5)
        t1 = _oracle([0] * 30, 4, seed=1).execute_plan(plan)
        t2 = _oracle([0] * 30, 4, seed=2).execute_plan(plan)
        assert t1.to_text() != t2.to_text()
