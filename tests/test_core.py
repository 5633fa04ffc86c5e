"""Domain-type contracts: labelings, shifts, plans, transcripts."""

import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycalign import (
    FaultyOracle,
    IdentityPairError,
    Labeling,
    MissingPairError,
    NoiseParams,
    QueryPlan,
    QueryTranscript,
    RepeatQueryError,
    brute_force_mle,
    canonical_pair,
    full_pairwise_plan,
    log_likelihood,
    recover_from_transcript,
    recover_success,
    seed_rest_plan,
    shift_labeling,
)
from cycalign import core
from cycalign.core import _as_int, _windows


class TestNoiseParams:
    def test_valid(self):
        p = NoiseParams(4, 0.2)
        assert p.p_zero == pytest.approx(0.45)
        assert p.p_nonzero == pytest.approx(0.25 - 0.2 / 3)

    def test_boundary_delta_allowed(self):
        p = NoiseParams(3, 2 / 3)
        assert p.p_nonzero == pytest.approx(0.0)

    @pytest.mark.parametrize("k,delta", [(1, 0.1), (2, 0.0), (2, 0.51),
                                         (2, -0.1), (4, 0.76), (3, "0.3"), (3, None)])
    def test_invalid(self, k, delta):
        with pytest.raises(ValueError):
            NoiseParams(k, delta)

    def test_masses_sum_to_one(self):
        p = NoiseParams(5, 0.13)
        assert p.p_zero + 4 * p.p_nonzero == pytest.approx(1.0)


class TestLabeling:
    def test_valid(self):
        g = Labeling([0, 2, 1], 3)
        assert g.n == 3 and g.k == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Labeling([0, 3], 3)
        with pytest.raises(ValueError):
            Labeling([-1, 0], 3)

    def test_too_short(self):
        with pytest.raises(ValueError):
            Labeling([0], 2)

    def test_non_integer_k_rejected(self):
        with pytest.raises(ValueError, match=re.escape("k must be an integer >= 2, got 2.5")):
            Labeling([0, 1, 2], 2.5)
        assert Labeling([0, 1], np.int64(2)).k == 2

    def test_immutable(self):
        g = Labeling([0, 1], 2)
        with pytest.raises(ValueError):
            g.labels[0] = 1

    def test_source_array_not_aliased(self):
        src = np.array([0, 1, 1])
        g = Labeling(src, 2)
        src[0] = 1
        assert g.labels[0] == 0

    def test_equality(self):
        assert Labeling([0, 1], 2) == Labeling([0, 1], 2)
        assert Labeling([0, 1], 2) != Labeling([0, 1], 3)
        assert Labeling([0, 1], 2) != Labeling([1, 0], 2)


def _pairs(plan):
    return list(zip(plan.lo.tolist(), plan.hi.tolist()))


_CONVERTED = [
    ("labels", lambda v: Labeling([0, v], 3)),
    ("pair endpoints", lambda v: QueryPlan([(0, v)], n=3)),
    ("pair endpoints", lambda v: QueryPlan(iter([(0, v)]), n=3)),
    ("pair endpoints", lambda v: QueryTranscript(3, 2, [0], [v], [1])),
    ("answers", lambda v: QueryTranscript(3, 2, [0], [1], [v])),
]


@pytest.mark.parametrize("name,build", _CONVERTED)
@pytest.mark.parametrize("value", [1.9, 0.5, float("nan"), float("inf"), -float("inf"),
                                   1e300])
def test_non_integer_values_are_named_not_truncated(name, build, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be integers, got {value!r}")):
        build(value)


@pytest.mark.parametrize("name,build", _CONVERTED)
@pytest.mark.parametrize("value", ["1", b"1", "0.5"])
def test_text_is_not_an_integer(name, build, value):
    # numpy would parse "1" and b"1"; the value named is the text one
    with pytest.raises(ValueError, match=re.escape(f"{name} must be integers, got {value!r}")):
        build(value)


_OBJECT_ARRAYS = [
    ("labels", lambda v: Labeling(np.array([0, v], dtype=object), 3)),
    ("pair endpoints", lambda v: QueryPlan(np.array([(0, v)], dtype=object), n=3)),
    ("pair endpoints", lambda v: QueryTranscript(3, 2, np.array([0], dtype=object),
                                                 np.array([v], dtype=object), [1])),
    ("answers", lambda v: QueryTranscript(3, 2, [0], [1], np.array([v], dtype=object))),
]


@pytest.mark.parametrize("name,build", _OBJECT_ARRAYS)
@pytest.mark.parametrize("value", [1.9, "1", b"1", None])
def test_object_arrays_are_checked_like_lists(name, build, value):
    # numpy would int() each element of an object array: 1.9 -> 1, "1" -> 1
    with pytest.raises(ValueError, match=re.escape(f"{name} must be integers, got {value!r}")):
        build(value)


@pytest.mark.parametrize("name,build", _OBJECT_ARRAYS)
def test_object_arrays_of_integers_accepted(name, build):
    build(1)
    build(1.0)


@pytest.mark.parametrize("value", ["3", b"4", "2.5", np.array(["3"])])
def test_as_int_rejects_text_by_name(value):
    shown = value.item() if isinstance(value, np.ndarray) else value
    with pytest.raises(ValueError, match=re.escape(f"trials must be integers, got {shown!r}")):
        _as_int(value, "trials")


def test_the_first_non_integer_value_is_named_and_integral_floats_kept():
    with pytest.raises(ValueError, match=re.escape("labels must be integers, got 0.5")):
        Labeling([0.5, 1.7], 3)
    assert Labeling(np.array([0.0, 2.0]), 3) == Labeling([0, 2], 3)
    assert _pairs(QueryPlan([(2.0, 0)], n=3)) == [(0, 2)]
    assert list(QueryTranscript(3, 2, [0.0], [1.0], [1.0]).items()) == [(0, 1, 1)]


class TestShiftLabeling:
    def test_zero_shift_is_identity(self):
        g = Labeling([0, 1, 2], 3)
        assert shift_labeling(g, 0) == g

    def test_examples(self):
        assert shift_labeling(Labeling([0, 1, 2], 3), 1) == Labeling([1, 2, 0], 3)
        assert shift_labeling(Labeling([0, 0, 1], 2), 1) == Labeling([1, 1, 0], 2)

    def test_out_of_range(self):
        g = Labeling([0, 1], 3)
        with pytest.raises(ValueError):
            shift_labeling(g, 3)
        with pytest.raises(ValueError):
            shift_labeling(g, -1)

    @pytest.mark.parametrize("alpha", [1.5, "1", None])
    def test_non_integer_shift_is_named(self, alpha):
        with pytest.raises(ValueError, match=re.escape(f"shift must be integers, got {alpha!r}")):
            shift_labeling(Labeling([0, 1], 3), alpha)

    def test_integral_shift_read_as_int(self):
        g = Labeling([0, 1], 3)
        assert shift_labeling(g, 1.0) == shift_labeling(g, np.int8(1)) == Labeling([1, 2], 3)

    @given(st.integers(2, 7).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, k - 1), min_size=2, max_size=12),
            st.just(k),
            st.integers(0, k - 1),
        )))
    def test_shifts_form_a_cyclic_group(self, case):
        labels, k, alpha = case
        g = Labeling(labels, k)
        assert shift_labeling(shift_labeling(g, alpha), (k - alpha) % k) == g


def _transcript(n, k, entries):
    arr = np.asarray(entries, dtype=np.int64)
    return QueryTranscript(n, k, arr[:, 0], arr[:, 1], arr[:, 2])


class TestLookupOriented:
    def test_forward_read_is_stored_value(self):
        t = _transcript(6, 7, [(2, 5, 0)])
        assert t.lookup_oriented(2, 5) == 0

    def test_reverse_read_negates(self):
        t = _transcript(6, 7, [(2, 5, 3)])
        assert t.lookup_oriented(5, 2) == 4

    def test_missing_pair(self):
        t = _transcript(6, 7, [(2, 5, 3)])
        with pytest.raises(MissingPairError):
            t.lookup_oriented(1, 2)

    def test_identity_pair(self):
        t = _transcript(6, 7, [(2, 5, 3)])
        with pytest.raises(IdentityPairError):
            t.lookup_oriented(2, 2)

    def test_both_reads_cancel_mod_k(self):
        rng = np.random.default_rng(3)
        n, k = 10, 5
        lo, hi = np.triu_indices(n, k=1)
        ans = rng.integers(0, k, lo.size)
        t = QueryTranscript(n, k, lo, hi, ans)
        for x, y in zip(lo.tolist(), hi.tolist()):
            total = t.lookup_oriented(x, y) + t.lookup_oriented(y, x)
            assert total % k == 0

    @pytest.mark.parametrize("x,y", [(0, 6), (6, 0), (-1, 10)])
    def test_out_of_range_nodes_do_not_alias_a_stored_pair(self, x, y):
        # with n = 4, (0, 6) and (-1, 10) share the key 6 = 1 * 4 + 2 of (1, 2)
        t = _transcript(4, 3, [(1, 2, 1)])
        with pytest.raises(ValueError, match=re.escape("nodes must lie in [0, 4)")):
            t.lookup_oriented(x, y)
        assert (x, y) not in t
        assert (x, y) not in QueryPlan([(1, 2)], n=4)
        assert (1, 2) in t and (2, 1) in QueryPlan([(1, 2)], n=4)

    @pytest.mark.parametrize("form", ["block", "pairs"])
    def test_non_integer_nodes_read_alike(self, form):
        plan = seed_rest_plan(6, 2)
        if form == "pairs":
            plan = QueryPlan(np.column_stack((plan.lo, plan.hi)), 6)
        truth = Labeling([0, 1, 2, 0, 1, 2], 3)
        t = FaultyOracle(truth, NoiseParams(3, 0.3), 5).execute_plan(plan)
        assert t.lookup_oriented(1.0, 3) == t.lookup_oriented(1, 3)
        assert t.lookup_oriented(3, np.float64(1)) == t.lookup_oriented(3, 1)
        assert (1.0, 3) in t and (1.0, 3.0) in plan and (2.0, 3) not in t
        for bad in (1.5, float("nan"), float("inf")):
            message = re.escape(f"nodes must be integers, got {bad!r}")
            with pytest.raises(ValueError, match=message):
                t.lookup_oriented(bad, 3)
            with pytest.raises(ValueError, match=message):
                (3, bad) in t  # noqa: B015
            with pytest.raises(ValueError, match=message):
                (bad, 3) in plan  # noqa: B015
        with pytest.raises(ValueError, match="nodes must be integers in the int64 range"):
            (2**70, 3) in t  # noqa: B015


    @pytest.mark.parametrize("pair", [(2**63, 3), (3, 2**63), (2**63, -1),
                                      (-2**63 - 1, 3), (2**70, 3)])
    def test_ints_beyond_int64_name_the_range(self, pair):
        # numpy holds some of these pairs as float64 or uint64: the
        # message still names the range, not a non-integer value
        t = _transcript(5, 3, [(0, 1, 2)])
        with pytest.raises(ValueError, match="nodes must be integers in the int64 range"):
            pair in t  # noqa: B015
        with pytest.raises(ValueError, match="nodes must be integers in the int64 range"):
            t.lookup_oriented(*pair)

    def test_int64_extremes_are_nodes_not_errors(self):
        t = _transcript(5, 3, [(0, 1, 2)])
        assert (-2**63, 1.0) not in t and (2**63 - 1, 1) not in t
        with pytest.raises(ValueError, match=re.escape(
                "labels must be integers in the int64 range, got 9223372036854775808")):
            Labeling([2**63, 2**63 + 1], 3)


class TestQueryTranscript:
    def test_size_counts_distinct_pairs(self):
        t = _transcript(5, 3, [(0, 1, 2), (1, 2, 0), (0, 4, 1)])
        assert len(t) == 3

    def test_duplicate_rejected(self):
        with pytest.raises(RepeatQueryError):
            _transcript(5, 3, [(0, 1, 2), (0, 1, 1)])

    def test_non_canonical_orientation_rejected(self):
        # a reversed pair is ambiguous (its answer would need negating),
        # so the constructor refuses rather than guessing
        with pytest.raises(IdentityPairError):
            _transcript(5, 3, [(1, 0, 2)])

    def test_answer_range_checked(self):
        with pytest.raises(ValueError):
            _transcript(5, 3, [(0, 1, 3)])

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match=re.escape("n must be an integer >= 2, got 1")):
            QueryTranscript(1, 3, [], [], [])
        with pytest.raises(ValueError, match=re.escape("k must be an integer >= 2, got 2.5")):
            QueryTranscript(4, 2.5, [0], [1], [2])

    def test_contains(self):
        t = _transcript(5, 3, [(0, 1, 2)])
        assert (0, 1) in t and (1, 0) in t and (0, 2) not in t

    def test_unsorted_input_is_sorted_with_its_answers(self):
        t = _transcript(6, 4, [(3, 5, 1), (0, 2, 3), (1, 4, 0), (0, 1, 2)])
        assert list(t.items()) == [(0, 1, 2), (0, 2, 3), (1, 4, 0), (3, 5, 1)]

    @pytest.mark.parametrize("entries", [
        [(0, 1, 2), (0, 1, 1)],             # adjacent
        [(0, 1, 2), (1, 2, 0), (0, 1, 1)],  # non-adjacent, sorted prefix
        [(2, 3, 0), (0, 1, 2), (2, 3, 1)],  # non-adjacent, unsorted
    ])
    def test_duplicates_rejected_wherever_they_sit(self, entries):
        pairs = [(i, j) for i, j, _ in entries]
        repeated = next(p for p in pairs if pairs.count(p) > 1)
        with pytest.raises(RepeatQueryError, match=re.escape(f"{repeated} appears")):
            _transcript(5, 3, entries)

    def test_writeable_input_is_copied_not_aliased_or_frozen(self):
        lo, hi, ans = np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([1, 0, 2])
        t = QueryTranscript(3, 3, lo, hi, ans)
        hi[0], ans[0] = 2, 0
        assert lo.flags.writeable and hi.flags.writeable and ans.flags.writeable
        assert list(t.items()) == [(0, 1, 1), (0, 2, 0), (1, 2, 2)]

    def test_answers_dict(self):
        t = _transcript(5, 3, [(1, 2, 0), (0, 4, 1)])
        assert {(i, j): a for i, j, a in t.items()} == {(0, 4): 1, (1, 2): 0}

    def test_oriented_matrix_matches_scalar_lookups(self):
        rng = np.random.default_rng(11)
        n, k = 9, 4
        lo, hi = np.triu_indices(n, k=1)
        t = QueryTranscript(n, k, lo, hi, rng.integers(0, k, lo.size))
        for s in range(1, n):
            rows, cols = range(s), range(s, n)
            mat = t.oriented_matrix(rows, cols)
            # the seed x seed pairs (1, 2) .. split the rest runs from s = 3 on
            assert np.shares_memory(mat, t._ans) == (s <= 2)
            for ri, r in enumerate(rows):
                for ci, c in enumerate(cols):
                    assert mat[ri, ci] == t.lookup_oriented(r, c)

    def test_oriented_matrix_reads_a_block_inside_a_larger_store(self):
        # the store holds every pair but (1, 5), which only seeds of 2 to 5
        # read
        n, k = 8, 5
        lo, hi = np.triu_indices(n, k=1)
        ans = np.random.default_rng(2).integers(0, k, lo.size)
        keep = ~((lo == 1) & (hi == 5))
        t = QueryTranscript(n, k, lo[keep], hi[keep], ans[keep])
        for s in (1, 6, 7):
            mat = t.oriented_matrix(range(s), range(s, n))
            assert mat.tolist() == [[t.lookup_oriented(r, c) for c in range(s, n)]
                                    for r in range(s)]
        for s in (2, 3, 4, 5):
            with pytest.raises(MissingPairError, match=r"pair \(1, 5\)"):
                t.oriented_matrix(range(s), range(s, n))

    def test_oriented_matrix_missing_pair(self):
        t = _transcript(5, 3, [(0, 1, 2)])
        with pytest.raises(MissingPairError, match=r"pair \(0, 2\)"):
            t.oriented_matrix([0], [1, 2, 3, 4])

    def test_oriented_matrix_overlap_rejected(self):
        t = _transcript(5, 3, [(0, 1, 2)])
        with pytest.raises(ValueError, match="reads rows 0 .. s-1 against cols s .. n-1"):
            t.oriented_matrix([0, 1], [1, 2, 3, 4])


def _seed_rest_pairs(n, s):
    return [(i, j) for i in range(s) for j in range(s, n)]


def _from_pairs(n, k, pairs, seed=0):
    lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    ans = np.random.default_rng(seed).integers(0, k, lo.size)
    return QueryTranscript(n, k, lo, hi, ans)


class TestOrientedMatrixRuns:
    """The seed x rest read of oriented_matrix against scalar lookups:
    each seed row's run of rest pairs, found in the plan."""

    @given(st.data())
    def test_matches_lookups_or_names_an_absent_pair(self, data):
        n = data.draw(st.integers(2, 12))
        k = data.draw(st.integers(2, 6))
        t_seed = data.draw(st.integers(1, n - 1))
        s = data.draw(st.integers(1, n - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        form = data.draw(st.sampled_from(["block", "pairs", "triangle"]))
        if form == "block":  # a block plan holds every pair of its seed
            store = _seed_rest_pairs(n, t_seed)
            truth = Labeling(rng.integers(0, k, n), k)
            t = FaultyOracle(truth, NoiseParams(k, 0.5 * (k - 1) / k),
                             int(rng.integers(0, 2**63))).execute_plan(seed_rest_plan(n, t_seed))
        else:
            pairs = (_seed_rest_pairs(n, t_seed) if form == "pairs" else
                     [(i, j) for i in range(n) for j in range(i + 1, n)])
            dropped = data.draw(st.sets(st.sampled_from(pairs), max_size=4))
            store = [p for p in pairs if p not in dropped]
            t = _from_pairs(n, k, store, seed=int(rng.integers(0, 2**32)))
        stored = set(store)
        missing = [(r, c) for r in range(s) for c in range(s, n) if (r, c) not in stored]
        if missing:  # the first absent pair in row-major order is named
            with pytest.raises(MissingPairError, match=re.escape(f"pair {missing[0]} ")):
                t.oriented_matrix(range(s), range(s, n))
            return
        mat = t.oriented_matrix(np.arange(s), np.arange(s, n))
        assert mat.dtype == t._ans.dtype and mat.shape == (s, n - s)
        assert mat.tolist() == [[t.lookup_oriented(r, c) for c in range(s, n)]
                                for r in range(s)]
        if store == _seed_rest_pairs(n, s):  # exactly the block: a view
            assert np.shares_memory(mat, t._ans) and not mat.flags.writeable

    @pytest.mark.parametrize("gap", [(1, 3), (1, 5), (1, 7)])  # first, interior, last
    def test_gap_in_a_run_is_named(self, gap):
        triangle = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        for pairs in (_seed_rest_pairs(8, 3), triangle):
            t = _from_pairs(8, 5, [p for p in pairs if p != gap])
            with pytest.raises(MissingPairError, match=re.escape(f"pair {gap}")):
                t.oriented_matrix([0, 1, 2], range(3, 8))

    def test_extra_pair_keeping_row_starts_in_step_is_caught(self):
        # row 0 lacks (0, 4) but holds (0, 1), so it still ends with
        # n - s = 5 pairs and row 1 starts 5 positions after them; only
        # the first of those five, (0, 1) and not (0, 2), shows the gap
        t = _from_pairs(7, 4, [(0, 1), (0, 2), (0, 3), (0, 5), (0, 6),
                               (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
        with pytest.raises(MissingPairError, match=r"pair \(0, 4\)"):
            t.oriented_matrix([0, 1], range(2, 7))

    @pytest.mark.parametrize("rows,cols", [
        ([0, 1], [2, 3, 5, 4, 6, 7]),  # the rest, out of order
        ([0, 2], [3, 4, 5, 6, 7]),     # a seed with a gap
        ([1, 0], [2, 3, 4, 5, 6, 7]),  # the seed, out of order
        ([0, 1], [2, 3, 4, 5]),        # a rest that stops short of n - 1
        ([0, 1], [1, 2, 3, 4, 5, 6, 7]),  # a row that is also a column
    ])
    def test_reads_that_are_not_a_run_below_the_rows(self, rows, cols):
        # only the seed x rest split is read; a full store changes nothing
        n, k = 8, 5
        t = _from_pairs(n, k, [(i, j) for i in range(n) for j in range(i + 1, n)])
        with pytest.raises(ValueError, match="reads rows 0 .. s-1 against cols s .. n-1"):
            t.oriented_matrix(rows, cols)

    @given(st.data())
    def test_every_other_shape_is_rejected(self, data):
        n = data.draw(st.integers(2, 8))
        t = _from_pairs(n, 3, [(i, j) for i in range(n) for j in range(i + 1, n)])
        nodes = st.lists(st.integers(-1, n), max_size=n + 1)
        rows, cols = data.draw(nodes), data.draw(nodes)
        s = len(rows)
        if 1 <= s < n and rows == list(range(s)) and cols == list(range(s, n)):
            assert t.oriented_matrix(rows, cols).shape == (s, n - s)
        else:
            with pytest.raises(ValueError, match="reads rows 0 .. s-1"):
                t.oriented_matrix(rows, cols)

    def test_non_integer_nodes_are_named(self):
        t = _from_pairs(6, 4, _seed_rest_pairs(6, 2))
        with pytest.raises(ValueError, match="rows must be integers, got 0.5"):
            t.oriented_matrix([0.5], [2.7, 3.7])
        with pytest.raises(ValueError, match="cols must be integers, got 2.7"):
            t.oriented_matrix([0, 1], [2.7, 3, 4, 5])
        assert t.oriented_matrix([0.0, 1.0], [2.0, 3.0, 4.0, 5.0]).tolist() == (
            t.oriented_matrix([0, 1], [2, 3, 4, 5]).tolist())

    def test_seed_rest_read_is_a_read_only_view(self):
        n, s, k = 30, 7, 5
        truth = Labeling(np.random.default_rng(4).integers(0, k, n), k)
        block = FaultyOracle(truth, NoiseParams(k, 0.3), 9).execute_plan(seed_rest_plan(n, s))
        pairs = _from_pairs(n, k, _seed_rest_pairs(n, s))
        for t in (block, pairs):
            mat = t.oriented_matrix(range(s), range(s, n))
            assert np.shares_memory(mat, t._ans) and not mat.flags.writeable
            assert mat.tolist() == [[t.lookup_oriented(r, c) for c in range(s, n)]
                                    for r in range(s)]

    def test_nodes_out_of_range_rejected(self):
        t = _from_pairs(4, 3, _seed_rest_pairs(4, 2))
        for rows, cols in [([0, 1], [2, 3, 4]), ([-1], [2, 3]), ([0, 1, 2, 3], [])]:
            with pytest.raises(ValueError, match="reads rows 0 .. s-1"):
                t.oriented_matrix(rows, cols)
        # an empty transcript names the first pair of the read
        empty = QueryTranscript(6, 3, [], [], [])
        with pytest.raises(MissingPairError, match=re.escape("pair (0, 2) ")):
            empty.oriented_matrix([0, 1], [2, 3, 4, 5])


def _outcome(read, *args):
    """read(*args), or the type and message of what it raised."""
    try:
        return read(*args)
    except Exception as err:  # compared, not swallowed
        return type(err), str(err)


def _same_outcome(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    return a == b


class TestBlockTranscript:
    """A seed x rest transcript reads exactly like the same pairs
    answered through a plan of explicit pair arrays."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_block_and_sparse_transcripts_agree(self, data):
        n = data.draw(st.integers(2, 40))
        s = data.draw(st.integers(1, n - 1))
        k = data.draw(st.sampled_from([2, 3, 4, 5, 6, 127, 128, 300]))
        delta = data.draw(st.floats(0.05, 1.0)) * (k - 1) / k
        noiseless = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        truth = Labeling(rng.integers(0, k, n), k)
        seed = int(rng.integers(0, 2**63))

        plan = seed_rest_plan(n, s)
        lo, hi = plan.lo, plan.hi
        assert lo.tolist() == np.repeat(np.arange(s), n - s).tolist()
        assert hi.tolist() == np.tile(np.arange(s, n), s).tolist()
        assert not (lo.flags.writeable or hi.flags.writeable)
        assert plan.lo is lo and plan.hi is hi
        assert len(plan) == s * (n - s)

        def oracle():
            return FaultyOracle(truth, NoiseParams(k, delta), seed, noiseless=noiseless)
        block = oracle().execute_plan(seed_rest_plan(n, s))
        sparse = oracle().execute_plan(QueryPlan(np.column_stack((lo, hi)), n))

        assert len(block) == len(sparse) == s * (n - s)
        assert block._ans.dtype == sparse._ans.dtype
        assert list(block.items()) == list(sparse.items())
        assert block.to_text() == sparse.to_text()
        for x in range(n):
            for y in range(n):
                if x != y:
                    assert ((x, y) in block) == ((x, y) in sparse) == ((x, y) in plan)
                    assert (_outcome(block.lookup_oriented, x, y)
                            == _outcome(sparse.lookup_oriented, x, y))

        mat = block.oriented_matrix(range(s), range(s, n))
        assert np.shares_memory(mat, block._ans) and not mat.flags.writeable
        # every split, held or not, and a read that is no split
        reads = [(range(t), range(t, n)) for t in range(1, n)]
        reads.append((data.draw(st.lists(st.integers(-1, n), min_size=1, max_size=6)),
                      range(s, n)))
        for rows, cols in reads:
            assert _same_outcome(_outcome(block.oriented_matrix, rows, cols),
                                 _outcome(sparse.oriented_matrix, rows, cols)), (rows, cols)

        params = NoiseParams(k, delta)
        assert (_outcome(log_likelihood, block, truth, params)
                == _outcome(log_likelihood, sparse, truth, params))
        a, b = recover_from_transcript(block, s), recover_from_transcript(sparse, s)
        assert a.labeling == b.labeling
        assert a.per_node_margin.tolist() == b.per_node_margin.tolist()
        if n <= 8:  # both forms raise alike where k^(n-1) is past the guard
            assert (_outcome(brute_force_mle, block, n, params)
                    == _outcome(brute_force_mle, sparse, n, params))

    def test_derived_pairs_match_the_sparse_form(self):
        n, s, k = 9, 3, 4
        truth = Labeling(np.random.default_rng(1).integers(0, k, n), k)
        plan = seed_rest_plan(n, s)
        block = FaultyOracle(truth, NoiseParams(k, 0.4), 5).execute_plan(plan)
        block.oriented_matrix(range(s), range(s, n))
        assert plan._lo is None and plan._hi is None  # nothing built yet
        lo, hi = np.triu_indices(n, k=1)
        keep = (lo < s) & (hi >= s)
        assert plan.lo.tolist() == lo[keep].tolist()
        assert plan.hi.tolist() == hi[keep].tolist()
        assert plan.lo is plan.lo and plan.hi is plan.hi  # built once, then cached
        assert [(i, j) for i, j, _ in block.items()] == list(zip(lo[keep].tolist(),
                                                                 hi[keep].tolist()))

    def test_block_answers_are_range_checked(self):
        ans = np.array([0, 1, 2, 1, 3, 0], dtype=np.int8)
        with pytest.raises(ValueError, match=re.escape("got 3 for pair (1, 3)")):
            QueryTranscript._from_plan(seed_rest_plan(5, 2), 3, ans)


@pytest.mark.parametrize("k", [127, 128, 129, 300])
class TestAnswerTypeBoundary:
    """Answers are int8 up to k = 127 and wider above, end to end."""

    @staticmethod
    def _holds_minus_k_to_k(t):
        info = np.iinfo(t._ans.dtype)
        return info.min <= -t.k and t.k <= info.max

    def test_list_input_is_stored_compactly(self, k):
        t = QueryTranscript(4, k, [0, 1], [2, 3], [0, k - 1])
        assert t._ans.dtype == (np.int8 if k <= 127 else np.int16)
        assert self._holds_minus_k_to_k(t)
        assert list(t.items()) == [(0, 2, 0), (1, 3, k - 1)]
        with pytest.raises(ValueError, match="answers must lie"):
            QueryTranscript(4, k, [0], [2], [k])

    def test_oracle_reads_and_noiseless_recovery(self, k):
        n, s = 12, 4
        labels = np.random.default_rng(k).integers(0, k, n)
        labels[:3] = 0, k - 1, 1  # answers near both ends of [0, k)
        truth = Labeling(labels, k)
        oracle = FaultyOracle(truth, NoiseParams(k, 0.5), 3, noiseless=True)
        t = oracle.execute_plan(seed_rest_plan(n, s))
        assert self._holds_minus_k_to_k(t)
        seed, rest = np.arange(s), np.arange(s, n)
        want = (labels[:s, None] - labels[None, s:]) % k
        assert t.oriented_matrix(seed, rest).tolist() == want.tolist()
        assert t.lookup_oriented(s, 0) == (k - want[0, 0]) % k
        assert recover_success(recover_from_transcript(t, s).labeling, truth)

    def test_full_triangle_likelihood_and_mle(self, k):
        truth = Labeling([0, k - 1, 1], k)
        params = NoiseParams(k, 0.5)
        t = FaultyOracle(truth, params, 1, noiseless=True).execute_plan(full_pairwise_plan(3))
        assert [t.lookup_oriented(2, 0), t.lookup_oriented(1, 0)] == [1, k - 1]
        assert t.oriented_matrix([0], [1, 2]).tolist() == [[1, k - 1]]
        # all three pairs agree, so no disagreeing pair meets p_nonzero = 0 at k = 2
        assert log_likelihood(t, truth, params) == 3 * math.log(params.p_zero)
        assert brute_force_mle(t, 3, params) == [truth]

    def test_text_round_trip(self, k):
        t = QueryTranscript(5, k, [0, 1, 3], [4, 2, 4], [k - 1, 0, 1])
        back = QueryTranscript.from_text(t.to_text())
        assert back.to_text() == t.to_text() == f"k={k},n=5\n0,4,{k - 1}\n1,2,0\n3,4,1\n"
        assert back._ans.dtype == t._ans.dtype


class TestSerialization:
    def test_header_and_lines(self):
        t = _transcript(6, 4, [(3, 5, 1), (0, 2, 3)])
        assert t.to_text() == "k=4,n=6\n0,2,3\n3,5,1\n"

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        lo, hi = np.triu_indices(8, k=1)
        t = QueryTranscript(8, 3, lo, hi, rng.integers(0, 3, lo.size))
        back = QueryTranscript.from_text(t.to_text())
        assert back.to_text() == t.to_text()
        assert back.n == t.n and back.k == t.k

    def test_empty_round_trip(self):
        t = QueryTranscript(4, 2, [], [], [])
        assert QueryTranscript.from_text(t.to_text()).to_text() == "k=2,n=4\n"

    @pytest.mark.parametrize("text", ["", "n=4,k=2\n", "k=two,n=4\n",
                                      "k=2,n=4\n0,1\n", "k=2\n", "k=2,n=4,x=1\n",
                                      "xk=2,n=4\n", "k=2,n=4\n0,1,1,1\n",
                                      "k=2,n=4\n0,x,1\n", "k=2,n=4\n0,1,1.5\n"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            QueryTranscript.from_text(text)

    @pytest.mark.parametrize("text,message", [
        ("", "empty transcript"),
        ("n=4,k=2\n", "header: 'n=4,k=2'"),
        ("k=2\n", "header: 'k=2'"),
        ("k=2,n=4\n0,1\n", "line 2: '0,1'"),
        ("k=2,n=4\n0,1,1\n1,2,0,1\n", "line 3: '1,2,0,1'"),
        ("k=2,n=4\n0,1,1\n\n1,x,0\n", "line 4: '1,x,0'"),
        # beyond int64, where the array conversion would overflow
        ("k=2,n=4\n0,1,1\n0,1,99999999999999999999\n",
         "transcript line 3: '0,1,99999999999999999999': fields must be integers in "
         "the int64 range, got 99999999999999999999"),
        ("k=2,n=4\n-99999999999999999999,1,1\n",
         "transcript line 2: '-99999999999999999999,1,1': fields must be integers"),
        ("k=2,n=99999999999999999999\n0,1,1\n",
         "transcript header 'k=2,n=99999999999999999999': n must be integers in the "
         "int64 range, got 99999999999999999999"),
        ("k=99999999999999999999,n=4\n", "transcript header 'k=99999999999999999999,n=4': k"),
    ])
    def test_malformed_message_names_header_or_line(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            QueryTranscript.from_text(text)

    def test_header_with_too_few_nodes_is_named(self):
        with pytest.raises(ValueError, match=re.escape(
                "transcript header 'k=3,n=-1': n must be an integer >= 2, got -1")):
            QueryTranscript.from_text("k=3,n=-1\n")

    def test_header_with_too_few_labels_is_named(self):
        with pytest.raises(ValueError, match=re.escape(
                "transcript header 'k=1,n=4': k must be an integer >= 2, got 1")):
            QueryTranscript.from_text("k=1,n=4\n")

    @pytest.mark.parametrize("text,error,message", [
        ("k=3,n=4\n0,1,1\n0,9,1\n", ValueError, "line 3: '0,9,1': pair endpoints"),
        ("k=3,n=4\n\n2,1,1\n", IdentityPairError, "line 3: '2,1,1': pair (2, 1)"),
        ("k=3,n=4\n0,1,5\n1,2,0\n", ValueError, "line 2: '0,1,5': answers must lie"),
        # the first bad triple is named, whichever rule it breaks
        ("k=3,n=4\n1,3,0\n0,1,5\n2,1,1\n", ValueError, "line 3: '0,1,5'"),
        ("k=3,n=4\n1,3,0\n2,1,1\n0,1,5\n", IdentityPairError, "line 3: '2,1,1'"),
        ("k=3,n=4\n0,1,1\n1,2,0\n1,0,2\n", IdentityPairError, "line 4: '1,0,2'"),
        ("k=3,n=4\n0,1,1\n1,2,0\n0,1,2\n", RepeatQueryError,
         "duplicated pair: (0, 1) appears more than once"),
    ])
    def test_bad_triple_names_its_line_or_pair(self, text, error, message):
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            QueryTranscript.from_text(text)
        assert type(err.value) is error

    @given(st.data())
    def test_round_trip_any_subset(self, data):
        n, k, triples, text = data.draw(_transcript_texts())
        t = QueryTranscript.from_text(text)
        assert (t.n, t.k) == (n, k)
        assert list(t.items()) == sorted(triples)
        back = QueryTranscript.from_text(t.to_text())
        assert list(back.items()) == list(t.items())
        assert back.to_text() == t.to_text()

    @given(st.data())
    def test_a_corrupt_line_is_named(self, data):
        n, k, triples, text = data.draw(_transcript_texts(min_pairs=2))
        lines = text.split("\n")
        no = data.draw(st.sampled_from([no for no, ln in enumerate(lines, start=1)
                                        if no > 1 and ln.strip()]))
        i, j, a = (int(f) for f in lines[no - 1].split(","))
        kind = data.draw(st.sampled_from(
            ["fields", "integer", "node", "order", "answer", "repeat"]))
        far = data.draw(st.integers(0, 5))
        error = ValueError
        if kind == "fields":
            bad = data.draw(st.sampled_from([f"{i},{j}", f"{i},{j},{a},0", f"{i}"]))
        elif kind == "integer":
            bad = data.draw(st.sampled_from([f"{i},{j},x", f"{i}.0,{j},{a}", f"{i},,{a}"]))
        elif kind == "node":
            bad = data.draw(st.sampled_from([f"{i},{n + far},{a}", f"{-1 - far},{j},{a}"]))
        elif kind == "order":
            bad, error = data.draw(st.sampled_from([f"{j},{i},{a}", f"{i},{i},{a}"])), \
                IdentityPairError
        elif kind == "answer":
            bad = data.draw(st.sampled_from([f"{i},{j},{k + far}", f"{i},{j},{-1 - far}"]))
        else:
            other = data.draw(st.sampled_from([(p, q) for p, q, _ in triples if (p, q) != (i, j)]))
            bad, error = f"{other[0]},{other[1]},{a}", RepeatQueryError
        lines[no - 1] = bad
        with pytest.raises(ValueError) as err:
            QueryTranscript.from_text("\n".join(lines))
        assert type(err.value) is error
        if kind == "repeat":
            assert f"{other} appears more than once" in str(err.value)
        else:
            assert f"line {no}: {bad!r}" in str(err.value)


@st.composite
def _transcript_texts(draw, min_pairs=0):
    """(n, k, triples, text): a transcript's text with its lines shuffled
    and blank lines between them; k spans both sides of the int8 limit."""
    n = draw(st.integers(max(2, min_pairs + 1), 12))
    k = draw(st.integers(2, 300))
    triangle = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(st.sets(st.sampled_from(triangle), min_size=min_pairs))
    pairs = draw(st.permutations(sorted(pairs)))
    triples = [(i, j, draw(st.integers(0, k - 1))) for i, j in pairs]
    lines = [f"{i},{j},{a}" for i, j, a in triples]
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
    return n, k, triples, "\n".join([f"k={k},n={n}", *lines]) + "\n"


class TestQueryPlan:
    def test_set_semantics(self):
        # a plan is a set of pairs: sorted, and a pair named twice, in
        # either orientation, is an error since it may be queried once
        plan = QueryPlan([(3, 4), (1, 0), (2, 0)], n=5)
        assert len(plan) == 3
        assert _pairs(plan) == [(0, 1), (0, 2), (3, 4)]
        for pairs, repeated in [([(0, 1), (1, 0), (2, 3)], (0, 1)),
                                ([(2, 3), (0, 1), (2, 3)], (2, 3))]:
            with pytest.raises(ValueError, match=re.escape(f"{repeated} appears")):
                QueryPlan(pairs, n=5)

    def test_canonicalizes_orientation(self):
        plan = QueryPlan([(4, 1)], n=5)
        assert _pairs(plan) == [(1, 4)]
        assert (1, 4) in plan and (4, 1) in plan

    def test_identity_pair_rejected(self):
        with pytest.raises(IdentityPairError):
            QueryPlan([(2, 2)], n=5)

    def test_array_input_sorted(self):
        # an (m, 2) array, each row in either orientation, as the pairs
        # it lists; np.uint8 and integral floats read as integers
        ends = np.array([[2, 3], [4, 0], [1, 2], [0, 1]])
        want = [(0, 1), (0, 4), (1, 2), (2, 3)]
        for pairs in (ends, ends.astype(np.uint8), ends.astype(np.float64), ends.tolist()):
            assert _pairs(QueryPlan(pairs, 5)) == want
        assert _pairs(QueryPlan(np.empty((0, 2), dtype=np.int64), 5)) == []

    @pytest.mark.parametrize("lo,hi", [
        ([0, 0, 1], [1, 1, 2]),        # adjacent
        ([0, 1, 0], [1, 2, 1]),        # non-adjacent
        ([2, 0, 1, 0], [3, 1, 2, 1]),  # unsorted
        ([2, 0, 1, 1], [3, 1, 2, 0]),  # reversed orientation
    ])
    def test_array_input_duplicates_rejected(self, lo, hi):
        with pytest.raises(ValueError, match=re.escape("duplicate pairs: (0, 1) appears")):
            QueryPlan(np.column_stack((lo, hi)), 5)

    def test_array_input_copied(self):
        ends = np.array([[0, 1], [0, 2], [1, 2]])
        plan = QueryPlan(ends, 3)
        ends[0, 1] = 2
        assert ends.flags.writeable and not plan.lo.flags.writeable
        assert _pairs(plan) == [(0, 1), (0, 2), (1, 2)]

    def test_array_input_non_integer_named(self):
        with pytest.raises(ValueError, match=re.escape("pair endpoints must be integers, got 1.5")):
            QueryPlan(np.array([[0, 1.0], [0, 1.5]]), 3)
        with pytest.raises(IdentityPairError, match=re.escape("pair (1, 1) has identical")):
            QueryPlan(np.array([[0, 2], [1, 1]]), 3)

    @pytest.mark.parametrize("pairs,shape", [
        ([0, 1, 2, 3], (4,)),          # a flat list is not two pairs
        ([(0, 1, 2)], (1, 3)),
        ([[[0, 1]]], (1, 1, 2)),
        (np.arange(6).reshape(3, 2, 1), (3, 2, 1)),
        (np.array(3), ()),
    ])
    def test_other_shapes_rejected_by_name(self, pairs, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"pairs must be (x, y) pairs or an (m, 2) array, got shape {shape}")):
            QueryPlan(pairs, 5)

    def test_ragged_pairs_rejected_by_name(self):
        with pytest.raises(ValueError, match="pair endpoints must form an array"):
            QueryPlan([(0, 1), (2,)], 5)

    @pytest.mark.parametrize("pairs", [
        [(1, 2**25), (1 + 2**24, 2**25)],  # lo * n + hi equal mod 2^64
        [(0, 1), (2**23, 2**23 + 1)],      # lo * n + hi wraps negative
    ])
    def test_sorted_without_wrapping_at_large_n(self, pairs):
        n = 2**40
        plan = QueryPlan(pairs[::-1], n)
        assert _pairs(plan) == pairs
        assert all(pair in plan and pair[::-1] in plan for pair in pairs)
        with pytest.raises(ValueError, match=re.escape(f"{pairs[0]} appears more than once")):
            QueryPlan(pairs + pairs[:1], n)
        # a transcript sorts its entries by the same rule
        (a, b), (c, d) = pairs
        t = QueryTranscript(n, 3, [c, a], [d, b], [2, 1])
        assert list(t.items()) == [(a, b, 1), (c, d, 2)]
        assert t.lookup_oriented(a, b) == 1 and t.lookup_oriented(c, d) == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QueryPlan([(0, 5)], n=5)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match=re.escape("n must be an integer >= 2, got -5")):
            QueryPlan([], n=-5)
        with pytest.raises(ValueError, match=re.escape("n must be an integer >= 2, got 2.5")):
            QueryPlan([(0, 2)], n=2.5)

    def test_canonical_pair(self):
        assert canonical_pair(5, 2) == (2, 5)
        with pytest.raises(IdentityPairError):
            canonical_pair(3, 3)


class TestWindows:
    """core._windows, the one rule that cuts the seed x rest block into
    the oracle's tiles and the vote kernel's."""

    @given(st.integers(0, 12), st.integers(0, 40), st.integers(-2, 60),
           st.none() | st.integers(1, 8))
    def test_cover_in_row_major_order(self, rows, cols, cells, max_rows):
        windows = list(_windows(rows, cols, cells, max_rows))
        covered = [(r, c) for rs, cs in windows
                   for r in range(rows)[rs] for c in range(cols)[cs]]
        assert covered == [(r, c) for r in range(rows) for c in range(cols)]
        limit = max(cells, 1)
        sizes = [(len(range(rows)[rs]), len(range(cols)[cs])) for rs, cs in windows]
        assert all(0 < r * c <= limit for r, c in sizes)
        if cols <= limit:  # whole rows, as many as fit, up to max_rows
            step = min(limit // cols, max_rows or rows) if cols else 0
            assert all(c == cols for _, c in sizes)
            assert all(r == step for r, _ in sizes[:-1])
        else:  # one row at a time, in the fewest chunks of equal width
            chunks = -(-cols // limit)
            assert len(sizes) == rows * chunks
            for r in range(rows):
                widths = [c for _, c in sizes[r * chunks:(r + 1) * chunks]]
                assert widths[:-1] == [-(-cols // chunks)] * (chunks - 1)
                assert sum(widths) == cols and widths[-1] <= widths[0]

    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
           st.integers(1, 100))
    def test_plan_tiles_are_the_windows(self, ns, size):
        n, s = ns
        plan = seed_rest_plan(n, s)
        tiles, windows = list(plan._tiles(size)), list(_windows(s, n - s, size))
        assert len(tiles) == len(windows)
        for (lo, hi, at), (rows, cols) in zip(tiles, windows):
            assert lo.tolist() == [[r] for r in range(s)[rows]]
            assert hi.tolist() == [list(range(s, n)[cols])]
            assert at == rows.start * (n - s) + cols.start
        # tiles of the same columns share one chunk of the rest row
        assert len({id(hi) for _, hi, _ in tiles}) == len({c.start for _, c in windows})
        # a plan of explicit pairs is cut as one row of its pairs
        pairs = QueryPlan(np.column_stack((plan.lo, plan.hi)), n)
        for (lo, hi, at), (_, cols) in zip(pairs._tiles(size), _windows(1, len(plan), size),
                                           strict=True):
            assert (lo.tolist(), hi.tolist(), at) == (plan.lo[cols].tolist(),
                                                     plan.hi[cols].tolist(), cols.start)


class TestRunForked:
    """core._run_forked: the caller runs share 0 and a forked child each
    other share; a child that fails or sends nothing has its share run
    again by the caller, and no child outlives the call."""

    @staticmethod
    def forks(monkeypatch):
        pids, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
        return pids

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_each_other_share_runs_in_its_own_child(self, monkeypatch):
        pids = self.forks(monkeypatch)
        got = core._run_forked(lambda share: (share, os.getpid()), ["a", "b", "c"])
        assert got == [("a", os.getpid()), ("b", pids[0]), ("c", pids[1])]
        assert len(set(pids)) == 2 and os.getpid() not in pids
        self.assert_no_child_left()

    def test_a_result_larger_than_a_pipe_buffer_comes_back_whole(self):
        got = core._run_forked(lambda share: np.full(1 << 20, share, np.uint8), [1, 2])
        assert [(a.size, np.unique(a).tolist()) for a in got] == [(1 << 20, [1]),
                                                                (1 << 20, [2])]
        self.assert_no_child_left()

    @pytest.mark.parametrize("case", ["one_share", "thread", "no_os_fork"])
    def test_runs_serially_where_it_may_not_fork(self, monkeypatch, case):
        pids = self.forks(monkeypatch)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        shares = [0] if case == "one_share" else [0, 1, 2]
        if case == "thread":
            thread.start()
        elif case == "no_os_fork":
            monkeypatch.delattr(os, "fork")
        try:
            got = core._run_forked(lambda share: (share, os.getpid()), shares)
        finally:
            release.set()
            if thread.ident is not None:
                thread.join()
        assert got == [(share, os.getpid()) for share in shares] and pids == []

    def test_a_share_that_cannot_fork_runs_in_the_caller(self, monkeypatch):
        fork = os.fork
        calls = []

        def flaky():
            calls.append(len(calls))
            if calls[-1] == 0:
                raise BlockingIOError("Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", flaky)
        got = core._run_forked(lambda share: (share, os.getpid()), [0, 1, 2])
        assert [share for share, _ in got] == [0, 1, 2] and len(calls) == 2
        assert got[1][1] == os.getpid() != got[2][1]
        self.assert_no_child_left()

    @pytest.mark.parametrize("failing,raised", [({1, 2}, 1), ({2}, 2), ({0, 2}, 0)])
    def test_the_lowest_failing_share_is_raised_by_the_caller(self, failing, raised):
        def job(share):
            if share in failing:
                raise ArithmeticError(f"share {share} failed in {os.getpid()}")
            return share

        with pytest.raises(ArithmeticError,
                           match=f"^share {raised} failed in {os.getpid()}$"):
            core._run_forked(job, [0, 1, 2, 3])
        self.assert_no_child_left()

    def test_a_child_that_sends_nothing_has_its_share_run_again(self):
        caller = os.getpid()

        def job(share):
            if os.getpid() != caller and share == 2:
                os._exit(0)  # ends without a result, as a killed child would
            return share, os.getpid() == caller

        got = core._run_forked(job, [0, 1, 2])
        assert got == [(0, True), (1, False), (2, True)]
        self.assert_no_child_left()
