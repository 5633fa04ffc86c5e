"""Recovery contracts: seed sizing, votes, alignment, extension.

Alignment and extension are steps of recover_from_transcript; their
tests read each step's outcome off its RecoveryResult.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from cycalign import (
    FaultyOracle,
    Labeling,
    MissingPairError,
    NoiseParams,
    QueryPlan,
    QueryTranscript,
    SeedConfig,
    ValidityRegimeWarning,
    derive_trial_seed,
    effective_bias,
    recover_from_transcript,
    recover_success,
    run_algorithm1,
    run_trial_detailed,
    sample_truth,
    seed_rest_plan,
    seed_size,
    shift_labeling,
    validity_threshold,
)
from cycalign import recovery
from oracles import (
    pairwise_diffs_by_scan,
    plurality_by_count,
    plurality_by_one_hot,
    plurality_margin_by_count,
)

# large-bias parameter points keep these unit tests inside the regime
# where seed reconciliation is dependable; regime-boundary behavior is
# exercised separately below and in the acceptance suite
pytestmark = pytest.mark.filterwarnings("ignore::cycalign.ValidityRegimeWarning")


class TestSeedSize:
    def test_explicit_override(self):
        cfg = SeedConfig(explicit_size=10)
        assert seed_size(100, NoiseParams(2, 0.3), cfg) == 10

    def test_small_bias_formula(self):
        # delta <= 1/(2k): ceil(c * ln n / (k delta^2)), here ceil(172.694)
        params = NoiseParams(4, 0.1)
        expected = math.ceil(1.0 * math.log(1000) / (4 * 0.1**2))
        assert expected == 173
        assert seed_size(1000, params, SeedConfig(constant_c=1.0)) == expected

    def test_large_bias_formula(self):
        # delta > 1/4 routes through the large-bias branch: ceil(c ln n / delta)
        params = NoiseParams(2, 0.3)
        expected = math.ceil(1.0 * math.log(1000) / 0.3)
        assert expected == 24
        assert seed_size(1000, params, SeedConfig(constant_c=1.0)) == expected

    def test_branch_boundary(self):
        at = seed_size(1000, NoiseParams(2, 0.25), SeedConfig(constant_c=1.0))
        above = seed_size(1000, NoiseParams(2, 0.2500001),
                          SeedConfig(constant_c=1.0))
        assert at == math.ceil(math.log(1000) / (2 * 0.25**2))
        assert above == math.ceil(math.log(1000) / 0.2500001)

    def test_clamped_to_half(self):
        assert seed_size(1000, NoiseParams(4, 0.1), SeedConfig()) == 500

    def test_huge_constant_is_clamped_and_infinite_constant_rejected(self):
        # c * ln n overflows to inf at c = 1e308, on both branches
        for params in (NoiseParams(2, 0.4), NoiseParams(4, 0.1)):
            assert seed_size(100, params, SeedConfig(constant_c=1e308)) == 50
        with pytest.raises(ValueError, match="constant_c must be finite, got inf"):
            SeedConfig(constant_c=math.inf)

    @pytest.mark.parametrize("size", [2.5, float("nan"), float("inf")])
    def test_non_integer_explicit_size_rejected_by_name(self, size):
        with pytest.raises(ValueError, match=f"explicit_size must be integers, got {size!r}"):
            SeedConfig(explicit_size=size)

    @pytest.mark.parametrize("field,value", [("constant_c", "40"), ("constant_c", None),
                                             ("budget_scale", "0.5")])
    def test_non_real_constants_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}$"):
            SeedConfig(**{field: value})

    def test_integral_explicit_size_reads_as_int(self):
        for size in (3.0, np.int64(3)):
            cfg = SeedConfig(explicit_size=size)
            assert cfg.explicit_size == 3 and type(cfg.explicit_size) is int
            assert seed_size(100, NoiseParams(2, 0.3), cfg) == 3

    def test_budget_scale_applies_to_either_base_then_clamps(self):
        params = NoiseParams(2, 0.3)
        # ceil(0.25 * 10) = 3; ceil(0.5 * ceil(ln 1000 / 0.3)) = ceil(0.5 * 24)
        assert seed_size(100, params, SeedConfig(explicit_size=10, budget_scale=0.25)) == 3
        assert seed_size(1000, params, SeedConfig(constant_c=1.0, budget_scale=0.5)) == 12
        assert seed_size(100, params, SeedConfig(budget_scale=1e-9)) == 1
        assert seed_size(100, params, SeedConfig(constant_c=1e308, budget_scale=1e308)) == 50

    def test_non_integer_n_rejected_by_name(self):
        with pytest.raises(ValueError, match="n must be an integer >= 4, got 20.0"):
            seed_size(20.0, NoiseParams(2, 0.3), SeedConfig())
        assert seed_size(np.int64(20), NoiseParams(2, 0.3), SeedConfig()) == 10

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            seed_size(3, NoiseParams(2, 0.3), SeedConfig())

    def test_explicit_out_of_range(self):
        with pytest.raises(ValueError):
            seed_size(10, NoiseParams(2, 0.3), SeedConfig(explicit_size=6))

    def test_warns_below_validity_boundary(self):
        assert 0.05 < validity_threshold(200, 4)
        with pytest.warns(ValidityRegimeWarning):
            seed_size(200, NoiseParams(4, 0.05), SeedConfig())

    @pytest.mark.parametrize("n,k,name", [(1, 3, "n"), (0, 3, "n"), (-5, 3, "n"),
                                          (10.0, 3, "n"), (10, 1, "k"), (10, 2.5, "k")])
    def test_validity_threshold_rejects_bad_sizes_by_name(self, n, k, name):
        bad = n if name == "n" else k
        with pytest.raises(ValueError,
                           match=re.escape(f"{name} must be an integer >= 2, got {bad!r}")):
            validity_threshold(n, k)

    def test_silent_above_validity_boundary(self):
        assert 0.6 > validity_threshold(200, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seed_size(200, NoiseParams(4, 0.6), SeedConfig())


class TestPlurality:
    """Winners of one-row inputs to _vote_rows, the one vote kernel."""

    @staticmethod
    def _winner(values, k):
        winners, _ = recovery._vote_rows(np.array([values]), k)
        return int(winners[0])

    @pytest.mark.parametrize("values,k,want", [
        ([1, 1, 2], 3, 1),
        ([0, 1], 2, 0),        # tie -> smallest label
        ([2, 2, 2, 0, 1], 3, 2),
        ([3, 3, 1, 1], 4, 1),  # tie -> smallest label
    ])
    def test_examples(self, values, k, want):
        assert self._winner(values, k) == want

    @given(st.integers(2, 6).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, k - 1), min_size=1, max_size=40),
            st.just(k), st.randoms(use_true_random=False))))
    def test_order_independent_and_matches_counting(self, case):
        values, k, rnd = case
        want = plurality_by_count(values, k)
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert self._winner(values, k) == self._winner(shuffled, k) == want


class TestVoteRows:
    @staticmethod
    def _check(votes, k):
        winners, margins = recovery._vote_rows(votes, k)
        rows = votes.tolist()
        assert winners.tolist() == [plurality_by_count(r, k) for r in rows]
        assert margins.tolist() == [plurality_margin_by_count(r, k) for r in rows]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_matches_counting_on_random_rows(self, k):
        rng = np.random.default_rng(k)
        self._check(rng.integers(0, k, (60, 7)), k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_forced_ties_go_to_smallest_label(self, k):
        # every row holds two labels twice each plus shuffled filler once
        rng = np.random.default_rng(10 + k)
        rows = []
        for _ in range(40):
            a, b = rng.choice(k, 2, replace=False)
            row = [a, a, b, b] + list(rng.permutation(k))
            rng.shuffle(row)
            rows.append(row)
        votes = np.array(rows)
        _, margins = recovery._vote_rows(votes, k)
        assert (margins == 0).all()
        self._check(votes, k)

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 4, (9, 30))
        self._check(base.T, 4)              # transposed
        self._check(base[::2, 1::3], 4)     # strided
        self._check(np.asfortranarray(base), 4)

    def test_single_column_has_full_margin(self):
        winners, margins = recovery._vote_rows(np.array([[2], [0]]), 3)
        assert winners.tolist() == [2, 0] and margins.tolist() == [1, 1]

    @staticmethod
    def _check_against_ref(a, ref, k):
        # (a - ref) % k in int64: the reduction the kernel does without %
        votes = (np.asarray(a, dtype=np.int64) - np.asarray(ref, dtype=np.int64)) % k
        winners, margins = recovery._vote_rows(a, k, ref)
        rows = votes.tolist()
        assert winners.tolist() == [plurality_by_count(r, k) for r in rows]
        assert margins.tolist() == [plurality_margin_by_count(r, k) for r in rows]

    @given(st.integers(2, 300), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from(["full", "row_ref", "transposed", "strided"]),
           st.integers(0, 2**32 - 1))
    def test_matches_counting_with_a_reference(self, k, rows, width, layout, seed):
        rng = np.random.default_rng(seed)
        dtype = np.int8 if k <= 127 else np.int16
        if layout == "full":
            a = rng.integers(0, k, (rows, width)).astype(dtype)
            ref = rng.integers(0, k, (rows, width)).astype(dtype)
        elif layout == "row_ref":  # seed reconciliation: rows against one row
            a = rng.integers(0, k, (rows, width)).astype(dtype)
            ref = rng.integers(0, k, width).astype(dtype)
        elif layout == "transposed":  # extension: labels against a block's columns
            a = rng.integers(0, k, width)
            ref = rng.integers(0, k, (width, rows)).astype(dtype).T
        else:
            a = rng.integers(0, k, (2 * rows, 3 * width)).astype(dtype)[::2, ::3]
            ref = rng.integers(0, k, (rows, 2 * width))[:, 1::2]
        self._check_against_ref(a, ref, k)

    @pytest.mark.parametrize("block", range(1, 8))
    def test_rows_straddling_blocks(self, block, monkeypatch):
        # tiles of 8 * block bytes: a few rows (or a few memory rows by a
        # few columns) of a plane, and block rows of intp bincount cells,
        # so tile edges fall inside these matrices on every count path
        monkeypatch.setattr(recovery, "_VOTE_BLOCK", 8 * block)
        rng = np.random.default_rng(block)
        for k, rows, width in [(2, 5, 9), (3, 7, 3), (5, 1, 20), (4, 13, 1),
                               (16, 6, 5), (17, 6, 5), (300, 4, 11)]:
            a = rng.integers(0, k, (rows, width))
            self._check_against_ref(a, rng.integers(0, k, width), k)
            self._check_against_ref(a[0], rng.integers(0, k, (width, rows)).T, k)
            self._check_against_ref(a, 0, k)
        self._check(rng.integers(0, 4, (9, 30)).T, 4)


# every count path: planes up to _PLANES_MAX_K = 16, one bincount above
_VOTE_KS = [2, 3, 4, 8, 15, 16, 17, 32, 127, 128, 300]


def _vote_layout(layout, k, rows, width, rng):
    """(a, ref) of one of the layouts the kernel reads: two full
    matrices, rows against one row (step 2), labels against a block's
    columns (step 3), and strided views of larger arrays."""
    dtype = np.int8 if k <= 127 else np.int16
    if layout == "full":
        return (rng.integers(0, k, (rows, width)).astype(dtype),
                rng.integers(0, k, (rows, width)).astype(dtype))
    if layout == "row_ref":
        block = rng.integers(0, k, (rows + 1, width)).astype(dtype)
        return block[1:], block[:1]
    if layout == "transposed":
        return (rng.integers(0, k, (1, width)),
                rng.integers(0, k, (width, rows)).astype(dtype).T)
    return (rng.integers(0, k, (2 * rows, 3 * width)).astype(dtype)[::2, ::3],
            rng.integers(0, k, (rows, 2 * width)).astype(dtype)[:, 1::2])


class TestVoteCounts:
    """_vote_rows against the one-hot count of tests/oracles.py on
    every count path and layout."""

    @pytest.mark.parametrize("layout", ["full", "row_ref", "transposed", "strided"])
    @pytest.mark.parametrize("k", _VOTE_KS)
    def test_equals_one_hot_count(self, k, layout):
        rng = np.random.default_rng(k)
        # a width over 8 * 255 bytes puts the row of a plane in two word chunks
        for rows, width in [(1, 1), (7, 5), (40, 60), (3, 2100)]:
            a, ref = _vote_layout(layout, k, rows, width, rng)
            winners, margins = recovery._vote_rows(a, k, ref)
            want = plurality_by_one_hot(a, ref, k)
            assert winners.tolist() == want[0].tolist()
            assert margins.tolist() == want[1].tolist()

    @pytest.mark.parametrize("k", [2, 4, 16, 17])
    def test_identical_rows_past_a_uint8_lane(self, k):
        # 300 identical seed rows: every rest node gets 300 equal votes,
        # past the 255 a uint8 lane holds, so its margin is all of them
        s, w = 300, 50
        rng = np.random.default_rng(k)
        block = np.repeat(rng.integers(0, k, (1, w)), s, axis=0).astype(np.int8)
        winners, margins = recovery._vote_rows(np.zeros((1, s), dtype=np.int64), k, block.T)
        assert winners.tolist() == (-block[0] % k).tolist()
        assert margins.tolist() == [s] * w
        # the same along a row: over 2 * 8 * 255 equal votes, three word chunks
        row = np.tile(block[:1], (2, 2 * 8 * 255 // w + 1))
        winners, margins = recovery._vote_rows(row, k, row[:1])
        assert winners.tolist() == [0, 0]
        assert margins.tolist() == [row.shape[1]] * 2


class TestCountKernels:
    """The two count kernels agree, and _vote_rows picks the planes up
    to k = _PLANES_MAX_K and the bincount above, whatever the stack."""

    @pytest.mark.parametrize("k", range(2, recovery._PLANES_MAX_K + 1))
    def test_agree_on_tiny_stacks(self, k):
        rng = np.random.default_rng(100 + k)
        for t, rows, width in [(1, 1, 1), (32, 3, 4), (32, 4, 4), (5, 2, 7), (2, 9, 3)]:
            a = rng.integers(0, k, (t, rows, width)).astype(np.int8)
            labels = rng.integers(0, k, (t, 1, width)).astype(np.int8)
            for x, ref in [(a, a[:, :1]), (labels, a.transpose(0, 2, 1).copy()
                                           .transpose(0, 2, 1)), (a, np.asarray(0))]:
                shape = np.broadcast(x, ref).shape
                planes = recovery._plane_counts(x, ref, k, shape)
                assert planes.tolist() == recovery._bincount_counts(x, ref, k, shape).tolist()

    @pytest.mark.parametrize("k", [2, 3, 4, 16])
    def test_choice_by_votes_per_plane(self, k, monkeypatch):
        # the choice depends on k alone: planes up to _PLANES_MAX_K on a
        # stack of one vote or of many, one bincount above
        used = []
        for name in ("_plane_counts", "_bincount_counts"):
            count = getattr(recovery, name)
            monkeypatch.setattr(recovery, name,
                                lambda *args, name=name, count=count:
                                used.append(name) or count(*args))
        rng = np.random.default_rng(k)
        for kk, want in [(k, "_plane_counts"), (recovery._PLANES_MAX_K + 1, "_bincount_counts")]:
            for rows in (1, 40_000):
                used.clear()
                recovery._vote_rows(rng.integers(0, kk, (rows, 1)), kk)
                assert used == [want], (kk, rows)


class TestVoteStacks:
    """_vote_rows on a stack of matrices, as the batched MLE check uses
    it, equals the kernel on each matrix alone, in and across tiles."""

    @pytest.mark.parametrize("block", [1, 5, 1 << 16])
    def test_stack_equals_each_matrix_alone(self, block, monkeypatch):
        # tiles of block bytes: a part of one matrix's row, a few rows of
        # every matrix, or the whole stack at once
        monkeypatch.setattr(recovery, "_VOTE_BLOCK", block)
        rng = np.random.default_rng(block)
        for k, t, rows, width in [(2, 3, 5, 9), (3, 4, 7, 3), (5, 2, 1, 6),
                                  (16, 3, 4, 7), (17, 3, 4, 7), (130, 2, 3, 5)]:
            dtype = np.int8 if k <= 127 else np.int16
            a = rng.integers(0, k, (t, rows, width)).astype(dtype)
            for ref in (a[:, :1], rng.integers(0, k, (t, width, rows)).transpose(0, 2, 1)):
                winners, margins = recovery._vote_rows(a, k, ref)
                want = plurality_by_one_hot(a, ref, k)
                assert winners.tolist() == want[0].tolist()
                assert margins.tolist() == want[1].tolist()
                for i in range(t):
                    alone = recovery._vote_rows(a[i], k, ref[i])
                    assert winners[i].tolist() == alone[0].tolist()
                    assert margins[i].tolist() == alone[1].tolist()


class TestVoteTopTwo:
    """_vote_rows' running top two over the count planes gives the
    winners of argmax and the margins of np.partition on the counts,
    ties for the lead included."""

    @staticmethod
    def _votes(k, t, rows, rng):
        # half the rows hold two labels three times each and every other
        # label once: a tie for the lead; the other half are random
        width = 6 + k - 2
        votes = rng.integers(0, k, (t, rows, width))
        for row in votes.reshape(-1, width)[::2]:
            x, y = rng.choice(k, 2, replace=False)
            rest = np.setdiff1d(np.arange(k), [x, y])
            row[:] = rng.permutation(np.concatenate([[x] * 3, [y] * 3, rest]))
        return votes

    @pytest.mark.parametrize("k", [2, 3, 4, 16, 17, 32])
    def test_equals_argmax_and_partition(self, k):
        rng = np.random.default_rng(40 + k)
        t, rows = 3, 30
        votes = self._votes(k, t, rows, rng)
        counts = (votes[..., None] == np.arange(k)).sum(axis=-2)
        top2 = np.partition(counts, k - 2, axis=-1)[..., k - 2:]
        want = counts.argmax(axis=-1), top2[..., 1] - top2[..., 0]
        assert (want[1][:, ::2] == 0).all()
        # step 2: rows against a reference row; step 3: labels against columns
        ref = rng.integers(0, k, (t, 1, votes.shape[-1]))
        labels = rng.integers(0, k, (t, 1, votes.shape[-1]))
        for a, b in [(((votes + ref) % k).astype(np.int8), ref.astype(np.int8)),
                     (labels, ((labels - votes) % k).astype(np.int8)
                      .transpose(0, 2, 1).copy().transpose(0, 2, 1))]:
            winners, margins = recovery._vote_rows(a, k, b)
            assert winners.dtype == margins.dtype == np.intp
            assert winners.tolist() == want[0].tolist()
            assert margins.tolist() == want[1].tolist()


class TestEffectiveBias:
    def test_values(self):
        assert effective_bias(NoiseParams(2, 0.25)) == pytest.approx(0.125)
        assert effective_bias(NoiseParams(3, 0.1)) == pytest.approx(0.015)

    def test_vanishes_with_bias(self):
        assert effective_bias(NoiseParams(3, 1e-9)) < 1e-15

    def test_matches_collision_probability(self):
        # P[two independent noise draws coincide] = 1/k + effective bias:
        # on an all-zero truth each answer is its noise, and two oracles
        # with different seeds draw independently
        params = NoiseParams(2, 0.25)
        n, s = 1000, 300
        plan = seed_rest_plan(n, s)
        zeros = Labeling(np.zeros(n, dtype=np.int64), params.k)
        a, b = (FaultyOracle(zeros, params, seed).execute_plan(plan)
                .oriented_matrix(range(s), range(s, n)).astype(np.int64) for seed in (5, 6))
        draws = a.size
        assert draws == 210_000
        p = 1 / params.k + effective_bias(params)
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(np.mean((a - b) % params.k == 0) - p) < 4 * sigma


def _noiseless_transcript(labels, k, seed_count):
    n = len(labels)
    oracle = FaultyOracle(Labeling(labels, k), NoiseParams(k, 0.3), 0,
                          noiseless=True)
    return oracle.execute_plan(seed_rest_plan(n, seed_count))


class TestEstimatePairwiseDiff:
    """A seed node's estimated difference to the anchor, which
    recover_from_transcript reports as that node's label."""

    def test_noiseless_is_exact(self):
        labels = [2, 0, 1, 2, 0, 1]
        t = _noiseless_transcript(labels, 3, 2)
        assert recover_from_transcript(t, 2).labeling.labels[1] == (0 - 2) % 3

    def test_noiseless_tiny_instance_matches_scan(self):
        labels = [0, 3, 1, 2, 0, 3]
        t = _noiseless_transcript(labels, 4, 2)
        want = pairwise_diffs_by_scan(labels, 4)
        assert recover_from_transcript(t, 2).labeling.labels[1] == (4 - want[(0, 1)]) % 4

    def test_missing_pair(self):
        t = _noiseless_transcript([0, 1, 2, 0], 3, 1)  # holds no pair of node 1
        with pytest.raises(MissingPairError, match=r"pair \(1, 2\)"):
            recover_from_transcript(t, 2)

    @pytest.mark.parametrize("seed_count,pair", [(99, (0, 99)), (101, (100, 101))])
    def test_other_seed_of_a_seed_rest_transcript_names_its_first_gap(
            self, seed_count, pair):
        # a seed x rest plan names the gap from (n, s) alone: no pair array
        t = _noiseless_transcript(np.zeros(2000, dtype=int), 3, 100)
        with pytest.raises(MissingPairError, match=re.escape(f"pair {pair} ")):
            recover_from_transcript(t, seed_count)
        assert t._plan._lo is None


class TestAlignSeed:
    """Seed reconciliation, the first vote of recover_from_transcript."""

    def test_single_seed(self):
        t = _noiseless_transcript([0, 1, 2, 0], 3, 1)
        result = recover_from_transcript(t, 1)
        assert result.seed == (0,) and result.labeling.labels[0] == 0
        assert result.per_node_margin[0] == 3  # the anchor's sentinel

    def test_noiseless_recovers_shifted_truth(self):
        labels = [2, 0, 1, 1, 2, 0, 1]
        t = _noiseless_transcript(labels, 3, 3)
        got = recover_from_transcript(t, 3).labeling.labels
        for s in (0, 1, 2):
            assert got[s] == (labels[s] - labels[0]) % 3

    def test_strong_bias_matches_noiseless_answer(self):
        # n=8, k=3, delta=0.6, rest of size 6: >= 99% over 1000 trials
        params = NoiseParams(3, 0.6)
        wins = 0
        for t_idx in range(1000):
            ts = derive_trial_seed(42, ("align8",), t_idx)
            truth = sample_truth(8, 3, np.random.default_rng(ts))
            oracle = FaultyOracle(truth, params, ts ^ 0xABCDEF)
            tr = oracle.execute_plan(seed_rest_plan(8, 2))
            got = recover_from_transcript(tr, 2).labeling.labels
            wins += got[1] == (truth.labels[1] - truth.labels[0]) % 3
        assert wins >= 990

    def test_empty_rest_rejected(self):
        t = _noiseless_transcript([0, 1, 2, 0], 3, 2)
        with pytest.raises(ValueError, match="seed_count must lie in"):
            recover_from_transcript(t, 4)

    @pytest.mark.parametrize("seed_count", [2.5, "2", None])
    def test_non_integer_seed_count_rejected_by_name(self, seed_count):
        t = _noiseless_transcript([0, 1, 2, 0], 3, 2)
        with pytest.raises(ValueError,
                           match=re.escape(f"seed_count must be integers, got {seed_count!r}")):
            recover_from_transcript(t, seed_count)

    def test_integral_seed_count_reads_as_int(self):
        t = _noiseless_transcript([0, 1, 2, 0, 1], 3, 3)
        want = recover_from_transcript(t, 3)
        for seed_count in (3.0, np.int64(3)):
            got = recover_from_transcript(t, seed_count)
            assert got.labeling == want.labeling and got.seed == want.seed == (0, 1, 2)
            assert got.query_count == want.query_count == 6


class TestSeedRestPlan:
    @pytest.mark.parametrize("n,seed_count,name,got", [
        (6, 2.5, "seed_count", "must be integers, got 2.5"),
        (6, "2", "seed_count", "must be integers, got '2'"),
        (6, None, "seed_count", "must be integers, got None"),
        (6.5, 2, "n", "must be an integer >= 2, got 6.5"),
        (6.0, 2, "n", "must be an integer >= 2, got 6.0"),
        ("6", 2, "n", "must be an integer >= 2, got '6'"),
    ])
    def test_non_integer_sizes_rejected_by_name(self, n, seed_count, name, got):
        with pytest.raises(ValueError, match=re.escape(f"{name} {got}")):
            seed_rest_plan(n, seed_count)

    def test_integral_sizes_read_as_int(self):
        want = seed_rest_plan(6, 2)
        for n, seed_count in [(np.int64(6), 2), (6, 2.0), (6, np.int8(2))]:
            plan = seed_rest_plan(n, seed_count)
            assert plan.lo.tolist() == want.lo.tolist() and len(plan) == 8
            assert plan.hi.tolist() == want.hi.tolist()


class TestExtendLabels:
    """Extension to the rest, the second vote of recover_from_transcript."""

    def test_noiseless_equals_truth_up_to_shift(self):
        labels = [2, 0, 1, 1, 2, 0, 1, 0]
        t = _noiseless_transcript(labels, 3, 3)
        full = recover_from_transcript(t, 3).labeling
        expected = shift_labeling(Labeling(labels, 3), (0 - labels[0]) % 3)
        assert full == expected

    def test_single_seed_noiseless(self):
        labels = [1, 0, 2, 1]
        t = _noiseless_transcript(labels, 3, 1)
        full = recover_from_transcript(t, 1).labeling
        expected = shift_labeling(Labeling(labels, 3), (0 - labels[0]) % 3)
        assert full == expected

    def test_missing_pair(self):
        empty = QueryTranscript(4, 2, [], [], [])
        with pytest.raises(MissingPairError, match=r"pair \(0, 2\)"):
            recover_from_transcript(empty, 2)


class TestRunAlgorithm:
    @pytest.mark.parametrize("n,k", [(8, 2), (20, 5), (57, 3), (101, 8)])
    def test_noiseless_always_recovers(self, n, k):
        rng = np.random.default_rng(n * k)
        truth = sample_truth(n, k, rng)
        oracle = FaultyOracle(truth, NoiseParams(k, 0.2), 4, noiseless=True)
        result = run_algorithm1(n, NoiseParams(k, 0.2), SeedConfig(), oracle)
        assert recover_success(result.labeling, truth)
        assert result.labeling.labels[result.seed[0]] == 0

    def test_query_count(self):
        truth = sample_truth(100, 3, np.random.default_rng(0))
        oracle = FaultyOracle(truth, NoiseParams(3, 0.5), 1)
        cfg = SeedConfig(explicit_size=10)
        result = run_algorithm1(100, NoiseParams(3, 0.5), cfg, oracle)
        assert result.query_count == 10 * 90 == oracle.query_count

    def test_used_oracle_rejected(self):
        truth = sample_truth(20, 2, np.random.default_rng(0))
        for used in ([(0, 1)], []):  # an empty first plan uses the oracle up too
            oracle = FaultyOracle(truth, NoiseParams(2, 0.4), 1)
            oracle.execute_plan(QueryPlan(used, n=20))
            with pytest.raises(ValueError, match="already answered a plan"):
                run_algorithm1(20, NoiseParams(2, 0.4), SeedConfig(), oracle)
            assert oracle.query_count == len(used)

    def test_oracle_for_another_n_rejected(self):
        oracle = FaultyOracle(sample_truth(20, 2, np.random.default_rng(0)),
                              NoiseParams(2, 0.4), 1)
        with pytest.raises(ValueError, match="^oracle is for n=20, requested n=30$"):
            run_algorithm1(30, NoiseParams(2, 0.4), SeedConfig(), oracle)
        assert oracle.query_count == 0

    def test_oracle_for_another_k_rejected(self):
        oracle = FaultyOracle(sample_truth(20, 2, np.random.default_rng(0)),
                              NoiseParams(2, 0.4), 1)
        with pytest.raises(ValueError, match="^params.k=3 does not match oracle k=2$"):
            run_algorithm1(20, NoiseParams(3, 0.4), SeedConfig(), oracle)
        assert oracle.query_count == 0

    def test_non_adaptive_plan_is_pure(self):
        # the query set is a function of (n, params, cfg) alone
        params = NoiseParams(3, 0.45)
        s = seed_size(60, params, SeedConfig())
        plan, again = seed_rest_plan(60, s), seed_rest_plan(60, s)
        expected = set(zip(plan.lo.tolist(), plan.hi.tolist()))
        assert expected == set(zip(again.lo.tolist(), again.hi.tolist()))
        truth = sample_truth(60, 3, np.random.default_rng(2))
        oracle = FaultyOracle(truth, params, 3)
        result = run_algorithm1(60, params, SeedConfig(), oracle)
        assert oracle.query_count == len(expected)
        # the oracle answered the planned pairs in one plan, and they
        # alone give the result
        with pytest.raises(ValueError, match=f"a plan of {len(expected)} pairs"):
            oracle.execute_plan(seed_rest_plan(60, s))
        replay = FaultyOracle(truth, params, 3).execute_plan(seed_rest_plan(60, s))
        assert recover_from_transcript(replay, s).labeling == result.labeling

    def test_shift_covariance_at_fixed_noise(self):
        # shifting the hidden truth leaves the output labeling unchanged:
        # answers depend on truth only through differences, and the seed
        # noise stream is pinned by (rng_seed, pair)
        params = NoiseParams(4, 0.3)
        truth = sample_truth(40, 4, np.random.default_rng(8))
        outputs = []
        for alpha in range(4):
            hidden = shift_labeling(truth, alpha)
            oracle = FaultyOracle(hidden, params, rng_seed=77)
            result = run_algorithm1(40, params, SeedConfig(), oracle)
            outputs.append(result.labeling)
        assert all(out == outputs[0] for out in outputs[1:])

    def test_margins_reported_for_every_node(self):
        truth = sample_truth(30, 3, np.random.default_rng(1))
        oracle = FaultyOracle(truth, NoiseParams(3, 0.5), 6)
        result = run_algorithm1(30, NoiseParams(3, 0.5), SeedConfig(), oracle)
        margins = result.per_node_margin
        assert margins.shape == (30,)
        s = len(result.seed)
        assert margins[0] == 30 - s  # anchor sentinel: full vote count
        assert np.all(margins >= 0)

    def test_budget_within_configured_order(self):
        # query_count <= (c + 1) * n ln n / (k delta^2) in the small-bias
        # branch and <= (c + 1) * n ln n / delta in the large-bias branch
        for n, k, delta in [(300, 2, 0.2), (300, 2, 0.35), (500, 6, 0.05)]:
            params = NoiseParams(k, delta)
            cfg = SeedConfig(constant_c=2.0)
            s = seed_size(n, params, cfg)
            q = s * (n - s)
            if delta <= 1 / (2 * k):
                bound = (cfg.constant_c + 1) * n * math.log(n) / (k * delta**2)
            else:
                bound = (cfg.constant_c + 1) * n * math.log(n) / delta
            assert q <= bound

    def test_success_rate_non_decreasing_in_bias(self):
        # one-sided test at significance 1e-3 per adjacent bias pair
        n, k, trials = 120, 3, 40
        rates = []
        for delta in (0.15, 0.3, 0.45, 0.6):
            wins = 0
            for t_idx in range(trials):
                ts = derive_trial_seed(9, ("mono", delta), t_idx)
                outcome = run_trial_detailed(n, NoiseParams(k, delta), SeedConfig(), ts)[2]
                wins += outcome.success
            rates.append(wins)
        for lo_wins, hi_wins in zip(rates, rates[1:]):
            if hi_wins >= lo_wins:
                continue
            table = [[lo_wins, trials - lo_wins], [hi_wins, trials - hi_wins]]
            pvalue = stats.fisher_exact(table, alternative="greater").pvalue
            assert pvalue >= 1e-3, (rates, table)

    def test_success_rate_small_bias_large_instance(self):
        # n=500, k=2, delta=0.1, default constants: target >= 95/100.
        # delta sits far below the validity boundary (ln n/(n k))^(1/4)
        # ~= 0.334 here, so seed reconciliation is starved; see
        # docs in README for the regime analysis.
        trials, wins = 100, 0
        params = NoiseParams(2, 0.1)
        for t_idx in range(trials):
            ts = derive_trial_seed(0, ("n500",), t_idx)
            wins += run_trial_detailed(500, params, SeedConfig(), ts)[2].success
        assert wins >= 95, f"recovered {wins}/{trials}"
