"""Oracle contracts: noise law, one plan per oracle, determinism."""

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
    noise_from_uniform,
    sample_noise,
    seed_rest_plan,
)
from cycalign import oracle as oracle_module
from cycalign.harness import full_pairwise_plan

from oracles import oracle_answers_by_definition


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


def _noise_by_where(u, k, delta):
    """The inverse CDF as a select over u < p_zero, with truncation."""
    p_zero = 1.0 / k + delta
    step = (1.0 - p_zero) / (k - 1)
    nonzero = 1 + np.minimum(((u - p_zero) / step).astype(np.int64), np.int64(k - 2))
    return np.where(u < p_zero, np.int64(0), nonzero)


@pytest.mark.parametrize("k", [2, 3, 4, 7, 127, 128, 300])
@pytest.mark.parametrize("delta_of_k", [lambda k: 1e-12, lambda k: 1 / (2 * k),
                                        lambda k: 0.9 * (k - 1) / k])
def test_noise_from_uniform_at_every_boundary_matches_the_select_form(k, delta_of_k):
    # each cell edge p_zero + j * step and its float neighbours on both sides
    delta = delta_of_k(k)
    p_zero = 1.0 / k + delta
    edges = p_zero + np.arange(k) * ((1.0 - p_zero) / (k - 1))
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    u = u[u < 1.0]
    got = noise_from_uniform(u, k, delta)
    assert got.dtype == np.int64
    assert got.tolist() == _noise_by_where(u, k, delta).tolist()


def test_noise_from_uniform_does_not_modify_its_input():
    u = np.array([0.1, 0.5, 0.9])
    noise_from_uniform(u, 3, 0.2)
    assert u.tolist() == [0.1, 0.5, 0.9]


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


def _chunked_answers(labels, k, plan, chunks):
    """The plan's pairs split into shuffled explicit-pair plans, each
    answered by a fresh oracle with the same seed: {(i, j): answer}."""
    pairs = list(plan)
    np.random.default_rng(0).shuffle(pairs)
    answers = {}
    for chunk in np.array_split(np.arange(len(pairs)), chunks):
        part = [pairs[t][::-1] for t in chunk]  # given in reversed orientation
        t = _oracle(labels, k).execute_plan(QueryPlan(part, n=len(labels)))
        answers.update(((i, j), a) for i, j, a in t.items())
    return answers


class TestQuery:
    """Answers to plans of single pairs."""

    def test_noiseless_difference(self):
        oracle = _oracle([0, 2, 1], 3, noiseless=True)
        t = oracle.execute_plan(QueryPlan([(0, 1)], n=3))
        assert t.lookup_oriented(0, 1) == (0 - 2) % 3 == 1

    def test_noiseless_reverse_read(self):
        oracle = _oracle([0, 2, 1], 3, noiseless=True)
        t = oracle.execute_plan(QueryPlan([(1, 0)], n=3))
        assert t.lookup_oriented(1, 0) == 2 and t.lookup_oriented(0, 1) == 1

    def test_repeat_query_rejected(self):
        oracle = _oracle([0, 1, 2], 3)
        oracle.execute_plan(QueryPlan([(0, 1)], n=3))
        for pair in [(0, 1), (1, 0)]:
            with pytest.raises(ValueError, match="already answered a plan of 1 pairs"):
                oracle.execute_plan(QueryPlan([pair], n=3))
        with pytest.raises(ValueError, match="duplicate pairs"):
            QueryPlan([(0, 1), (1, 0)], n=3)

    def test_identity_rejected(self):
        with pytest.raises(IdentityPairError):
            QueryPlan([(1, 1)], n=2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=re.escape("[0, 2), got (0, 2)")):
            QueryPlan([(0, 2)], n=2)

    def test_count_tracks_distinct_pairs(self):
        oracle = _oracle([0, 1, 2, 0], 3)
        assert oracle.query_count == 0
        oracle.execute_plan(QueryPlan([(0, 1), (3, 2)], n=4))
        assert oracle.query_count == 2


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
        # noise belongs to the pair: shuffled chunks answered by fresh
        # oracles with the same seed give the block's answers
        labels = [0, 1, 2, 0, 1, 2, 0, 1]
        block = _oracle(labels, 3).execute_plan(seed_rest_plan(8, 3))
        expected = {(i, j): a for i, j, a in block.items()}
        for chunks in (1, 3, 15):
            assert _chunked_answers(labels, 3, seed_rest_plan(8, 3), chunks) == expected

    def test_plan_overlapping_history_rejected(self):
        # the answered plan is the oracle's whole history
        oracle = _oracle([0, 1, 2, 0], 3)
        first = oracle.execute_plan(QueryPlan([(1, 2)], n=4))
        with pytest.raises(ValueError, match="already answered a plan of 1 pairs"):
            oracle.execute_plan(QueryPlan([(0, 1), (1, 2)], n=4))
        assert oracle.query_count == 1 and len(first) == 1

    def test_wrong_size_plan_rejected(self):
        oracle = _oracle([0, 1, 2], 3)
        with pytest.raises(ValueError):
            oracle.execute_plan(QueryPlan([(0, 1)], n=4))
        assert len(oracle.execute_plan(QueryPlan([(0, 1)], n=3))) == 1

    def test_noiseless_answers_are_exact_differences(self):
        labels = [0, 2, 1, 2, 0, 1]
        oracle = _oracle(labels, 3, noiseless=True)
        t = oracle.execute_plan(seed_rest_plan(6, 3))
        for i, j, a in t.items():
            assert a == (labels[i] - labels[j]) % 3


class TestOnePlan:
    """An oracle answers one plan: a second plan is rejected whatever
    the forms of the two plans and whether or not they overlap, and
    nothing changes."""

    LABELS = [0, 1, 2, 0, 1, 2, 0, 1]
    PLANS = {  # "disjoint" shares no pair with "block" or "explicit"
        "block": seed_rest_plan(8, 3),
        "other-block": seed_rest_plan(8, 5),
        "explicit": QueryPlan([(0, 3), (4, 5), (6, 7)], n=8),
        "disjoint": QueryPlan([(1, 2), (3, 4)], n=8),
        "empty": QueryPlan([], n=8),
    }

    @pytest.mark.parametrize("first,second", [
        ("block", "block"), ("block", "other-block"), ("block", "explicit"),
        ("block", "disjoint"), ("explicit", "block"), ("explicit", "disjoint"),
        ("empty", "block"), ("empty", "empty"),
    ])
    def test_second_plan_rejected(self, first, second):
        oracle = _oracle(self.LABELS, 3)
        plan = self.PLANS[first]
        t = oracle.execute_plan(plan)
        text = t.to_text()
        with pytest.raises(ValueError, match=re.escape(
                f"oracle already answered a plan of {len(plan)} pairs")):
            oracle.execute_plan(self.PLANS[second])
        assert oracle.query_count == len(plan) == len(t)
        assert t.to_text() == text
        assert text == _oracle(self.LABELS, 3).execute_plan(plan).to_text()


def _explicit_plan(n, count, rng):
    lo = rng.integers(0, n - 1, count)
    hi = lo + 1 + rng.integers(0, n, count) % (n - 1 - lo)
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return QueryPlan.from_arrays(pairs[:, 0], pairs[:, 1], n)


class TestAnswersByDefinition:
    """Every answer equals the per-pair reference in plain Python ints:
    in every plan form, for small and wide k, at the extremes of delta
    and with tiles small enough that buffers are reused and rows split."""

    PLANS = {
        "block": lambda: seed_rest_plan(41, 6),
        "explicit": lambda: _explicit_plan(60, 300, np.random.default_rng(3)),
        "triangle": lambda: full_pairwise_plan(23),
    }

    @pytest.mark.parametrize("block", [1 << 16, 50, 7])
    @pytest.mark.parametrize("form", sorted(PLANS))
    @pytest.mark.parametrize("k", [2, 3, 4, 7, 127, 128, 300])
    def test_matches_reference(self, monkeypatch, block, form, k):
        monkeypatch.setattr(oracle_module, "_BLOCK", block)
        plan = self.PLANS[form]()
        labels = np.random.default_rng(k).integers(0, k, plan.n)
        pairs = list(zip(plan.lo.tolist(), plan.hi.tolist()))
        for delta, noiseless in [(1e-12, False), (1 / (2 * k), False),
                                 ((k - 1) / k, False), (1 / (2 * k), True)]:
            seed = 0xFEED_0000_0000_0000 + k  # above 2^63
            t = FaultyOracle(Labeling(labels, k), NoiseParams(k, delta), seed,
                             noiseless=noiseless).execute_plan(plan)
            assert [a for _, _, a in t.items()] == oracle_answers_by_definition(
                labels, pairs, k, delta, seed, noiseless), (delta, noiseless)

    def test_negative_and_wide_seeds_are_taken_mod_2_64(self):
        plan = seed_rest_plan(20, 4)
        labels = [v % 5 for v in range(20)]
        pairs = list(zip(plan.lo.tolist(), plan.hi.tolist()))
        for seed in (-1, 2**64 + 7, 0):
            t = FaultyOracle(Labeling(labels, 5), NoiseParams(5, 0.3), seed).execute_plan(plan)
            assert [a for _, _, a in t.items()] == oracle_answers_by_definition(
                labels, pairs, 5, 0.3, seed)


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
