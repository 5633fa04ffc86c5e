"""Oracle contracts: noise law, one plan per oracle, determinism."""

import multiprocessing
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from cycalign import (
    FaultyOracle,
    IdentityPairError,
    Labeling,
    NoiseParams,
    QueryPlan,
    seed_rest_plan,
)
from cycalign import core
from cycalign import oracle as oracle_module
from cycalign.harness import full_pairwise_plan

from oracles import oracle_answers_by_definition


def noise_from_uniform(u, k, delta):
    """The kernel's noise for uniforms u, by its threshold compares: the
    word of u's 32-bit grid point is w = floor(u * 2^32), and the noise
    counts the thresholds at or below w."""
    w = np.floor(np.asarray(u, dtype=np.float64) * 2.0**32).astype(np.uint32)
    if oracle_module._noise_law(k, delta) is None:
        return np.zeros(w.shape, dtype=np.int64)
    thresholds = oracle_module._noise_thresholds(k, delta)
    return (w[..., None] >= thresholds).sum(axis=-1, dtype=np.int64)


def _float_noise(w, k, delta):
    """The definition: the inverse CDF of the law at u = w * 2^-32."""
    u = np.asarray(w, dtype=np.float64) * 2.0**-32
    oracle_module._noise_minus_one(u, k, *oracle_module._noise_law(k, delta))
    return u.astype(np.int64) + 1


class TestNoiseFromUniform:
    """The law's cells as the threshold compares see them."""

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
    # each cell edge p_zero + j * step, on the kernel's 32-bit grid, and
    # its grid neighbours on both sides
    delta = delta_of_k(k)
    p_zero = 1.0 / k + delta
    edges = p_zero + np.arange(k) * ((1.0 - p_zero) / (k - 1))
    w = np.floor(edges * 2.0**32)
    u = np.concatenate([w - 1, w, w + 1, [0, 2.0**32 - 1]]) * 2.0**-32
    u = u[u < 1.0]
    got = noise_from_uniform(u, k, delta)
    assert got.dtype == np.int64
    assert got.tolist() == _noise_by_where(u, k, delta).tolist()


class TestNoiseThresholds:
    """The k - 1 compares of the hash count the float path's noise."""

    @pytest.mark.parametrize("k", range(2, oracle_module._THRESHOLD_MAX_K + 2))
    def test_compare_count_equals_the_float_path_at_each_step(self, k):
        # on both sides of each step point t_c, read as the low half of
        # a hash whose high half is all 0 and all 1; k = 2, delta = 0.25
        # puts p_zero on the grid, and p_zero = 1 - 2^-31 leaves two grid
        # points above it, so the noise jumps and its top values are
        # never reached; p_zero = 1 - 1e-12 is above the last grid point,
        # so no word has noise and there is no threshold
        deltas = [1e-12, 1 / (2 * k), (k - 1) / k - 1e-12, (k - 1) / k,
                  (k - 1) / k - 2.0**-31]
        for delta in deltas + ([0.25] if k == 2 else []):
            if oracle_module._noise_law(k, delta) is None:
                continue  # value 0 owns all the mass: no noise to count
            t = oracle_module._noise_thresholds(k, delta)
            assert t.dtype == np.uint32
            p_zero = 1.0 / k + delta
            assert (len(t) == 0) == (p_zero > 1.0 - 2.0**-32)
            assert len(t) <= k - 1 and (np.diff(t.astype(np.int64)) >= 0).all()
            w = np.concatenate([t - np.uint32(1), t, np.array([0, 2**32 - 1], np.uint32)])
            want = _float_noise(w, k, delta)
            for high in (0, 2**32 - 1):
                z = w.astype(np.uint64) | np.uint64(high << 32)
                low = z.view(np.uint32).reshape(-1, 2)[:, oracle_module._LOW]
                got = (low[:, None] >= t).sum(axis=1)
                assert got.tolist() == want.tolist(), (delta, high)
            # the last step point is the largest noise any hash reaches
            assert want[-1] == len(t)

    def test_computed_once_per_law(self):
        plan = seed_rest_plan(40, 5)
        oracle_module._noise_thresholds.cache_clear()
        for seed in (1, 2):
            for delta in (0.2, 0.3):
                _oracle([0] * 40, 4, delta=delta, seed=seed).execute_plan(plan)
        k = oracle_module._THRESHOLD_MAX_K + 1  # the float path needs none
        _oracle([0] * 40, k, delta=0.3).execute_plan(plan)
        info = oracle_module._noise_thresholds.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_not_computed_at_import(self):
        code = ("import cycalign.oracle as o; "
                "print(o._noise_thresholds.cache_info().currsize)")
        done = _python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"

    def test_thresholds_are_read_only(self):
        with pytest.raises(ValueError):
            oracle_module._noise_thresholds(4, 0.3)[0] = 0


def _oracle(labels, k, delta=0.2, seed=1, noiseless=False):
    return FaultyOracle(Labeling(labels, k), NoiseParams(k, delta), seed,
                        noiseless=noiseless)


def _chunked_answers(labels, k, plan, chunks):
    """The plan's pairs split into shuffled explicit-pair plans, each
    answered by a fresh oracle with the same seed: {(i, j): answer}."""
    pairs = list(zip(plan.lo.tolist(), plan.hi.tolist()))
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
    return QueryPlan(pairs, n)


class TestAnswersByDefinition:
    """Every answer equals the per-pair reference in plain Python ints:
    in every plan form, for small and wide k, at the extremes of delta
    and with tiles small enough that buffers are reused and rows split."""

    PLANS = {
        "block": lambda: seed_rest_plan(41, 6),
        # rest rows start at an odd node; at _BLOCK 7 and 50 they are cut
        # into chunks that start at odd and even nodes
        "block odd s": lambda: seed_rest_plan(41, 7),
        "explicit": lambda: _explicit_plan(60, 300, np.random.default_rng(3)),
        "triangle": lambda: full_pairwise_plan(23),
    }

    @pytest.mark.parametrize("block", [1 << 16, 50, 7])
    @pytest.mark.parametrize("form", sorted(PLANS))
    # k on both sides of the threshold crossover and of the int8/int16
    # working type (3k <= 127)
    @pytest.mark.parametrize("k", sorted({2, 3, 4, 7, 127, 128, 300, 42, 43,
                                          oracle_module._THRESHOLD_MAX_K,
                                          oracle_module._THRESHOLD_MAX_K + 1}))
    def test_matches_reference(self, monkeypatch, block, form, k):
        monkeypatch.setattr(oracle_module, "_BLOCK", block)
        plan = self.PLANS[form]()
        rng = np.random.default_rng(k)
        labels = rng.integers(0, k, plan.n)
        stack = rng.integers(0, k, (3, plan.n))
        pairs = list(zip(plan.lo.tolist(), plan.hi.tolist()))
        for delta, noiseless in [(1e-12, False), (1 / (2 * k), False),
                                 ((k - 1) / k, False), (1 / (2 * k), True)]:
            seed = 0xFEED_0000_0000_0000 + k  # above 2^63
            t = FaultyOracle(Labeling(labels, k), NoiseParams(k, delta), seed,
                             noiseless=noiseless).execute_plan(plan)
            assert [a for _, _, a in t.items()] == oracle_answers_by_definition(
                labels, pairs, k, delta, seed, noiseless), (delta, noiseless)
            # the kernel on stacks of T = 1 and 3 rows, each with its own
            # seed, in tiles of _BLOCK / T pairs
            for rows in (labels[None], stack):
                seeds = [seed + 7919 * r for r in range(len(rows))]
                got = oracle_module._answer_rows(rows, seeds, NoiseParams(k, delta),
                                                 plan, noiseless)
                assert got.shape == (len(rows), len(plan))
                for row, truth, row_seed in zip(got, rows, seeds):
                    assert row.tolist() == oracle_answers_by_definition(
                        truth, pairs, k, delta, row_seed, noiseless), (len(rows), delta)

    @pytest.mark.parametrize("k", [4, 12])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_chunks_starting_at_odd_columns(self, monkeypatch, rows, k):
        # rest rows of 52 and 53 nodes cut into chunks of 9 pairs at
        # most: chunks start at both parities, each one's first answer
        # from the high half of its hash when its first node is odd
        monkeypatch.setattr(oracle_module, "_BLOCK", 9 * rows)
        for plan in (seed_rest_plan(60, 8), seed_rest_plan(60, 7)):
            starts = {int(hi[0, 0]) % 2 for _, hi, _ in plan._tiles(9)}
            assert starts == {0, 1}
            labels = np.random.default_rng(rows).integers(0, k, (rows, 60))
            seeds = [2**63 + r for r in range(rows)]
            pairs = list(zip(plan.lo.tolist(), plan.hi.tolist()))
            got = oracle_module._answer_rows(labels, seeds, NoiseParams(k, 0.1), plan)
            for row, truth, seed in zip(got, labels, seeds):
                assert row.tolist() == oracle_answers_by_definition(
                    truth, pairs, k, 0.1, seed)

    def test_negative_and_wide_seeds_are_taken_mod_2_64(self):
        plan = seed_rest_plan(20, 4)
        labels = [v % 5 for v in range(20)]
        pairs = list(zip(plan.lo.tolist(), plan.hi.tolist()))
        for seed in (-1, 2**64 + 7, 0):
            t = FaultyOracle(Labeling(labels, 5), NoiseParams(5, 0.3), seed).execute_plan(plan)
            assert [a for _, _, a in t.items()] == oracle_answers_by_definition(
                labels, pairs, 5, 0.3, seed)


class TestAnswerRows:
    """The batch oracle of the MLE check: each row is the answers of
    that row's own oracle, byte for byte, and the per-pair reference."""

    @pytest.mark.parametrize("noiseless", [False, True])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_rows_equal_one_oracle_each(self, n, k, noiseless):
        rng = np.random.default_rng(10 * n + k)
        params = NoiseParams(k, 0.45 if k == 3 else 0.3)
        plan = full_pairwise_plan(n)
        pairs = list(zip(plan.lo.tolist(), plan.hi.tolist()))
        labels = rng.integers(0, k, (7, n))
        seeds = [int(v) for v in rng.integers(0, 2**63, 7)]
        seeds[:2] = [-1, 2**64 + 7]  # taken mod 2^64, as by the oracle
        rows = oracle_module._answer_rows(labels, seeds, params, plan, noiseless)
        assert rows.shape == (7, len(plan))
        for row, truth, seed in zip(rows, labels, seeds):
            ans = FaultyOracle(Labeling(truth, k), params, seed,
                               noiseless=noiseless).execute_plan(plan)._ans
            assert row.dtype == ans.dtype and row.tobytes() == ans.tobytes()
            assert row.tolist() == oracle_answers_by_definition(
                truth, pairs, k, params.delta, seed, noiseless)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_hash_and_scratch_start_on_cache_lines(self, monkeypatch, rows):
        # tiles of 3 x 57 answers, whose hashes fill 3 x 29 cells a row:
        # an odd count, so a buffer cut at it would start its scratch half
        # off a 64-byte line
        starts, mix64 = [], oracle_module._mix64
        monkeypatch.setattr(oracle_module, "_mix64", lambda z, tmp: starts.extend(
            [z.ctypes.data % 64, tmp.ctypes.data % 64]) or mix64(z, tmp))
        labels = np.random.default_rng(rows).integers(0, 4, (rows, 60))
        oracle_module._answer_rows(labels, range(rows), NoiseParams(4, 0.3),
                                   seed_rest_plan(60, 3))
        # the first call mixes the rows' seed bases, the second the
        # tile's hashes, one mix for two answers
        assert len(starts) == 4 and set(starts[2:]) == {0}

    def test_memory_stays_near_the_answer_rows(self):
        # besides the answer rows, only each worker's tile buffers over
        # about _BLOCK cells of all rows together, 32 bytes a cell
        # allowed: ~9 bytes a cell on the compare path (k = 4: the hash
        # and its scratch, half a cell each, and the int8 sum) on one
        # worker, ~13 on the float path (k = 12: its uniforms take a
        # whole cell) on the workers the kernel takes for the call.
        # Points: T = 4 rows of 810 000 answers in whole-row tiles, a
        # one-tile call, and rest rows of 69 992 and 139 998 cells,
        # longer than a tile, which the plan cuts into column chunks.
        block = oracle_module._BLOCK
        for (n, s), t in [((3000, 300), 4), ((3000, 20), 1), ((140_000, 2), 1),
                          ((70_000, 8), 4)]:
            plan = seed_rest_plan(n, s)
            tiles = len(list(plan._tiles(max(1, block // t))))
            if (n, s) == (3000, 20):  # one tile: one worker, the one-tile bound
                assert tiles == oracle_module._workers(tiles) == 1
            for k, noiseless in [(4, False), (4, True), (12, False)]:
                labels = np.random.default_rng(5).integers(0, k, (t, n))
                floats = not noiseless and k > oracle_module._THRESHOLD_MAX_K
                workers = oracle_module._workers(tiles) if floats else 1
                tracemalloc.start()
                try:
                    rows = oracle_module._answer_rows(labels, range(1, t + 1),
                                                      NoiseParams(k, 0.3), plan, noiseless)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert rows.nbytes == t * len(plan)
                assert peak <= rows.nbytes + workers * 32 * block, (
                    f"n={n} s={s} T={t} k={k}: peak {peak / 1e6:.2f} MB, {workers} workers")


def _python(code, timeout=120):
    """Run code in a fresh interpreter that imports cycalign from this
    checkout; returns the finished process."""
    src = str(Path(oracle_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=timeout)


def _tile_plans(plan, rows):
    """Each tile of a call on rows answer rows as an explicit plan of
    its pairs, in tile order; checks that each tile starts at the count
    of pairs before it."""
    plans = []
    for lo, hi, at in plan._tiles(max(1, oracle_module._BLOCK // rows)):
        assert at == sum(map(len, plans))
        pairs = np.stack(np.broadcast_arrays(lo, hi), axis=-1).reshape(-1, 2)
        plans.append(QueryPlan(pairs, plan.n))
    return plans


def _answer_in_child(conn, labels, seeds, params, plan):
    conn.send(oracle_module._answer_rows(labels, seeds, params, plan).tobytes())
    conn.close()


class TestParallelTiles:
    """The kernel's workers answer their own tiles into place: a call
    on several workers equals its tiles answered serially, one plan
    each, and the per-pair definition. The workers are the call's own:
    none outlives it, so concurrent callers, a forked child and the end
    of the interpreter find no worker thread in the way."""

    PLANS = {
        "whole rows": lambda: seed_rest_plan(60, 54),  # rows of 6: 2 a tile
        "row chunks": lambda: seed_rest_plan(60, 8),   # rows of 52: 5 chunks each
    }

    @pytest.fixture(autouse=True)
    def float_path(self, monkeypatch):
        # only the float noise path runs a call's tiles on workers
        monkeypatch.setattr(oracle_module, "_THRESHOLD_MAX_K", 0)

    def test_compare_path_runs_on_the_calling_thread(self, monkeypatch):
        # 20 tiles, which the float path would split over 2 workers
        monkeypatch.setattr(oracle_module, "_BLOCK", 16)
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 2)
        threads = []
        answer_tiles = oracle_module._answer_tiles

        def spy(tiles, *args, **kwargs):
            threads.append(threading.get_ident())
            answer_tiles(tiles, *args, **kwargs)

        monkeypatch.setattr(oracle_module, "_answer_tiles", spy)
        plan, labels = seed_rest_plan(40, 10), np.zeros((1, 40), dtype=np.int64)
        assert oracle_module._workers(len(_tile_plans(plan, 1))) == 2
        for max_k, calls in [(4, [threading.get_ident()]), (0, None)]:
            monkeypatch.setattr(oracle_module, "_THRESHOLD_MAX_K", max_k)
            threads.clear()
            oracle_module._answer_rows(labels, [1], NoiseParams(4, 0.3), plan)
            assert threads == calls if calls else len(set(threads)) == 2

    @pytest.mark.parametrize("form", sorted(PLANS))
    def test_equals_serial_tiles_and_definition(self, monkeypatch, form):
        # 12 pairs a tile at T = 3, on 3 workers whatever the CPU count
        monkeypatch.setattr(oracle_module, "_BLOCK", 3 * 12)
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 3)
        threads = set()
        answer_tiles = oracle_module._answer_tiles

        def spy(tiles, *args, **kwargs):
            threads.add(threading.get_ident())
            answer_tiles(tiles, *args, **kwargs)

        monkeypatch.setattr(oracle_module, "_answer_tiles", spy)
        plan = self.PLANS[form]()
        rng = np.random.default_rng(len(form))
        labels, seeds = rng.integers(0, 5, (3, plan.n)), [11, 2**64 - 1, -3]
        subplans = _tile_plans(plan, len(labels))
        assert oracle_module._workers(len(subplans)) == 3
        assert all(len(p) <= 12 for p in subplans)
        assert np.concatenate([p.lo for p in subplans]).tolist() == plan.lo.tolist()
        assert np.concatenate([p.hi for p in subplans]).tolist() == plan.hi.tolist()
        pairs = list(zip(plan.lo.tolist(), plan.hi.tolist()))
        for delta in (0.3, 0.8):
            params = NoiseParams(5, delta)
            threads.clear()
            got = oracle_module._answer_rows(labels, seeds, params, plan)
            # the call did run on more than one thread, but for a law
            # without noise (delta = 0.8), which has no float path
            assert len(threads) >= 2 if delta < 0.8 else len(threads) == 1
            threads.clear()
            serial = np.concatenate([oracle_module._answer_rows(labels, seeds, params, p)
                                     for p in subplans], axis=1)
            assert len(threads) == 1
            assert got.dtype == serial.dtype and got.tobytes() == serial.tobytes()
            for row, truth, seed in zip(got, labels, seeds):
                assert row.tolist() == oracle_answers_by_definition(
                    truth, pairs, 5, delta, seed), delta

    def test_more_workers_than_cores_under_a_short_switch_interval(self, monkeypatch):
        # 6 workers, the caller and 5 threads of its own, switching as
        # often as the interpreter allows: each call still writes every
        # tile's answers once, into its own columns
        monkeypatch.setattr(oracle_module, "_BLOCK", 2 * 10)
        plan, params = seed_rest_plan(50, 12), NoiseParams(3, 0.2)  # 12 x 4 chunks
        labels, seeds = np.random.default_rng(4).integers(0, 3, (2, 50)), [5, 6]
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 1)
        want = oracle_module._answer_rows(labels, seeds, params, plan).tobytes()
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 6)
        assert oracle_module._workers(len(_tile_plans(plan, 2))) == 6
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 5
            for _ in range(50):
                got = oracle_module._answer_rows(labels, seeds, params, plan)
                assert got.tobytes() == want
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", ["caller", "pool"])
    def test_an_error_is_raised_after_every_worker_ends(self, monkeypatch, failing):
        monkeypatch.setattr(oracle_module, "_BLOCK", 16)
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 2)
        ended = []
        answer_tiles = oracle_module._answer_tiles

        def answer_or_fail(tiles, *args, **kwargs):
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == (failing == "caller"):
                raise RuntimeError(f"tile failed in the {failing}")
            time.sleep(0.2)  # the other worker ends well after the failure
            answer_tiles(tiles, *args, **kwargs)
            ended.append(in_caller)

        monkeypatch.setattr(oracle_module, "_answer_tiles", answer_or_fail)
        plan, labels = seed_rest_plan(40, 10), np.zeros((1, 40), dtype=np.int64)
        with pytest.raises(RuntimeError, match=f"tile failed in the {failing}"):
            oracle_module._answer_rows(labels, [1], NoiseParams(4, 0.3), plan)
        assert ended == [failing == "pool"]

    def test_concurrent_callers_get_their_own_answers(self, monkeypatch):
        # two threads each make multi-tile calls on 2 workers at once,
        # each call with workers of its own; neither sees the other's
        monkeypatch.setattr(oracle_module, "_BLOCK", 16)
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 1)
        rng = np.random.default_rng(12)
        calls = [(rng.integers(0, 4, (1, 40)), [21], NoiseParams(4, 0.3), seed_rest_plan(40, 10)),
                 (rng.integers(0, 5, (2, 48)), [22, 23], NoiseParams(5, 0.2),
                  seed_rest_plan(48, 12))]
        want = [oracle_module._answer_rows(*call) for call in calls]
        for (labels, seeds, params, plan), rows in zip(calls, want):
            pairs = list(zip(plan.lo.tolist(), plan.hi.tolist()))
            for row, truth, seed in zip(rows, labels, seeds):
                assert row.tolist() == oracle_answers_by_definition(
                    truth, pairs, params.k, params.delta, seed)
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 2)
        for labels, seeds, params, plan in calls:
            assert oracle_module._workers(len(_tile_plans(plan, len(labels)))) == 2
        start, got = threading.Barrier(len(calls)), [[] for _ in calls]

        def caller(c):
            start.wait(10)
            for _ in range(20):
                got[c].append(oracle_module._answer_rows(*calls[c]).tobytes())

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(len(calls))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        for answers, rows in zip(got, want):
            assert answers == [rows.tobytes()] * 20
        assert not [t for t in threading.enumerate() if t.name.startswith("cycalign-worker")]

    def test_forked_child_answers_after_the_parent_used_the_pool(self, monkeypatch):
        # rows of 30 pairs in chunks of 15: 20 tiles, on 2 workers
        monkeypatch.setattr(oracle_module, "_BLOCK", 16)
        monkeypatch.setattr(oracle_module, "_usable_cpus", lambda: 2)
        plan, params = seed_rest_plan(40, 10), NoiseParams(4, 0.3)
        labels, seeds = np.random.default_rng(9).integers(0, 4, (1, 40)), [7]
        assert oracle_module._workers(len(_tile_plans(plan, 1))) == 2
        want = oracle_module._answer_rows(labels, seeds, params, plan)
        assert threading.active_count() == 1  # the call's workers are gone before the fork
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_answer_in_child, args=(send, labels, seeds, params, plan))
        child.start()
        try:
            assert receive.poll(60), "the forked child gave no answers within 60 s"
            got = receive.recv()
            child.join(60)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert got == want.tobytes()

    def test_one_tile_calls_start_no_thread(self):
        # nor import concurrent.futures, which would lengthen setup
        code = """
import sys
import threading
import numpy as np
from cycalign import FaultyOracle, Labeling, NoiseParams, oracle, seed_rest_plan
from cycalign.harness import full_pairwise_plan
rng = np.random.default_rng(0)
calls = [(rng.integers(0, 4, (1, n)), seed_rest_plan(n, s)) for n, s in [(50, 10), (300, 100)]]
calls.append((rng.integers(0, 4, (32, 8)), full_pairwise_plan(8)))
for labels, plan in calls:
    assert len(list(plan._tiles(max(1, oracle._BLOCK // len(labels))))) == 1
    oracle._answer_rows(labels, range(len(labels)), NoiseParams(4, 0.3), plan)
FaultyOracle(Labeling(calls[1][0][0], 4), NoiseParams(4, 0.3), 1).execute_plan(calls[1][1])
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""
        done = _python(code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "False"]

    def test_no_worker_outlives_a_call(self):
        # a whole multi-tile trial on the float path, on two workers
        # whatever the CPU count: the thread count right after its answer call is the
        # count before it, and the interpreter exits at once and cleanly
        code = """
import threading
from cycalign import NoiseParams, SeedConfig, harness, oracle
oracle._usable_cpus = lambda: 2
oracle._THRESHOLD_MAX_K = 0  # the float path, which runs on workers
oracle._BLOCK = 1 << 14  # in more than 16 tiles
workers, answer_tiles = set(), oracle._answer_tiles
def spy(*args, **kwargs):
    workers.add(threading.get_ident())
    answer_tiles(*args, **kwargs)
oracle._answer_tiles = spy
counts, answer_rows = [], harness._answer_rows
def counted(*args, **kwargs):
    before = threading.active_count()
    rows = answer_rows(*args, **kwargs)
    counts.append((before, threading.active_count()))
    return rows
harness._answer_rows = counted
harness.run_trial_detailed(3000, NoiseParams(4, 0.5), SeedConfig(), 1)
print(len(workers), counts, threading.active_count())
"""
        done = _python(code, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "2 [(1, 1)] 1"


class TestRunShares:
    """core._run_shares, the one runner of both parallel callers (the
    oracle's tiles and the lemma check's Monte Carlo points): the caller
    runs share 0, a thread of the call's own each other share, and the
    call raises only once every thread has ended."""

    def test_each_share_runs_once_on_its_own_thread(self):
        ran = []
        core._run_shares(lambda share: ran.append((share, threading.current_thread().name)),
                         ["a", "b", "c"])
        assert sorted(ran) == [("a", "MainThread"), ("b", "cycalign-worker-1"),
                               ("c", "cycalign-worker-2")]
        assert threading.active_count() == 1

    def test_one_share_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was made for one share")

        monkeypatch.setattr(core.threading, "Thread", no_thread)
        ran = []
        core._run_shares(ran.append, [range(3)])
        assert ran == [range(3)]

    @pytest.mark.parametrize("failing,raised", [({0, 2}, 0), ({2, 1}, 1), ({3}, 3)])
    def test_lowest_failing_share_is_raised_after_every_thread_ends(self, failing, raised):
        ended = []

        def job(share):
            if share in failing:
                raise RuntimeError(f"share {share} failed")
            time.sleep(0.2)  # the other shares end well after the failures
            ended.append(share)

        with pytest.raises(RuntimeError, match=f"^share {raised} failed$"):
            core._run_shares(job, [0, 1, 2, 3])
        assert sorted(ended) == sorted({0, 1, 2, 3} - failing)
        assert threading.active_count() == 1

    def test_a_thread_that_cannot_start_leaves_none_running(self, monkeypatch):
        class Thread(threading.Thread):
            def start(self):
                if self.name == "cycalign-worker-2":
                    raise RuntimeError("can't start new thread")
                super().start()

        monkeypatch.setattr(core.threading, "Thread", Thread)
        ran = []
        with pytest.raises(RuntimeError, match="can't start new thread"):
            core._run_shares(lambda share: time.sleep(0.2) or ran.append(share), [0, 1, 2])
        assert ran == [1] and threading.active_count() == 1

    def test_both_callers_run_on_the_helpers_threads(self):
        # a multi-tile answer call on the float path and a three-point
        # lemma check, each on two workers: the extra thread is the helper's, it has ended when
        # the call returns, and concurrent.futures, which would lengthen
        # setup, is never imported
        code = """
import sys
import threading
import numpy as np
from cycalign import NoiseParams, TailSpec, harness, oracle, seed_rest_plan
oracle._usable_cpus = harness._usable_cpus = lambda: 2
oracle._THRESHOLD_MAX_K = 0  # the float path, which runs on workers
oracle._BLOCK = 1 << 14  # in more than 16 tiles
names, answer_tiles, mc = {}, oracle._answer_tiles, harness.tail_probability_mc
def spy(call, job):
    def run(*args, **kwargs):
        names.setdefault(call, set()).add(threading.current_thread().name)
        return job(*args, **kwargs)
    return run
oracle._answer_tiles = spy("oracle", answer_tiles)
harness.tail_probability_mc = spy("lemma", mc)
oracle._answer_rows(np.zeros((1, 3000), np.int64), [1], NoiseParams(4, 0.5), seed_rest_plan(3000, 737))
after = [threading.active_count()]
harness.run_lemma_check([TailSpec(m, NoiseParams(2, 0.3)) for m in (30, 40, 50)], 1000)
after.append(threading.active_count())
print(sorted(names["oracle"]), sorted(names["lemma"]), after,
      "concurrent.futures" in sys.modules)
"""
        done = _python(code, timeout=60)
        assert done.returncode == 0, done.stderr
        workers = "['MainThread', 'cycalign-worker-1']"
        assert done.stdout.strip() == f"{workers} {workers} [1, 1] False"


class TestPinnedAnswers:
    """The answers of two small instances as literals, from the per-pair
    reference: any change to the noise definition fails here."""

    # seed_rest_plan(12, 5): rows 0-4 against the odd and even columns
    # 5-11, labels v % k for node v, seed 1
    PINNED = {
        (4, 0.3): [[2, 2, 1, 1, 1, 1, 1],
                   [3, 3, 2, 3, 0, 3, 2],
                   [1, 0, 3, 2, 1, 0, 3],
                   [2, 1, 2, 3, 2, 1, 0],
                   [3, 3, 3, 0, 3, 2, 2]],
        (11, 0.2): [[5, 5, 4, 8, 9, 0, 0],  # the float path
                    [6, 7, 5, 1, 3, 4, 4],
                    [10, 7, 7, 5, 4, 7, 2],
                    [0, 8, 3, 10, 6, 8, 3],
                    [2, 4, 4, 0, 6, 5, 8]],
    }

    @pytest.mark.parametrize("law", sorted(PINNED))
    def test_answers_of_a_small_instance(self, law):
        k, delta = law
        labels = [v % k for v in range(12)]
        plan = seed_rest_plan(12, 5)
        t = _oracle(labels, k, delta=delta, seed=1).execute_plan(plan)
        assert t.oriented_matrix(range(5), range(5, 12)).tolist() == self.PINNED[law]
        pairs = list(zip(plan.lo.tolist(), plan.hi.tolist()))
        want = oracle_answers_by_definition(labels, pairs, k, delta, 1)
        assert np.ravel(self.PINNED[law]).tolist() == want


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [2.7, float("nan"), "5", b"5", None])
    def test_bad_seed_rejected_by_name(self, seed):
        # int() would truncate 2.7 and parse "5"; None is no integer
        with pytest.raises(ValueError,
                           match=re.escape(f"rng_seed must be integers, got {seed!r}")):
            _oracle([0, 1, 2], 3, seed=seed)

    def test_seed_forms_read_mod_2_64(self):
        plan = seed_rest_plan(12, 3)
        for same in [(5, np.int64(5), 5.0, 2**64 + 5), (-3, np.int16(-3), 2**64 - 3)]:
            oracles = [_oracle(list(range(12)), 12, seed=seed) for seed in same]
            assert {o.rng_seed for o in oracles} == {same[-1] % 2**64}
            assert len({o.execute_plan(plan).to_text() for o in oracles}) == 1


class TestNoiseDistribution:
    def test_residuals_follow_the_law(self):
        # chi-square over >= 1e5 answered pairs at significance 1e-3, on
        # the compare path and (k > _THRESHOLD_MAX_K) the float path
        n, s = 800, 200
        for k, delta in [(2, 0.1), (4, 0.2), (7, 0.05), (12, 0.1), (40, 0.3)]:
            labels = np.random.default_rng(17 + k).integers(0, k, n)
            oracle = FaultyOracle(Labeling(labels, k), NoiseParams(k, delta), 23)
            t = oracle.execute_plan(seed_rest_plan(n, s))
            assert len(t) >= 100_000
            answers = t.oriented_matrix(range(s), range(s, n)).astype(np.int64)
            residual = (answers - (labels[:s, None] - labels[None, s:])) % k
            counts = np.bincount(residual.ravel(), minlength=k)
            params = NoiseParams(k, delta)
            expected = np.array([params.p_zero] + [params.p_nonzero] * (k - 1))
            result = stats.chisquare(counts, expected * len(t))
            assert result.pvalue >= 1e-3, (k, delta)

    # k = 12 is above _THRESHOLD_MAX_K, on the float noise path
    @pytest.mark.parametrize("k,delta", [(2, 0.25), (4, 0.2), (12, 0.05)])
    def test_sibling_pairs_draw_independent_noise(self, k, delta):
        # the pairs (i, 2h) and (i, 2h + 1) take the two halves of one
        # hash: the k x k table of their noises, over 10^5 sibling
        # pairs of an all-zero truth, passes a chi-square test of
        # independence at significance 1e-3
        n, s = 2100, 100
        t = _oracle([0] * n, k, delta=delta, seed=29).execute_plan(seed_rest_plan(n, s))
        noise = t.oriented_matrix(range(s), range(s, n)).astype(np.int64)
        even, odd = noise[:, 0::2].ravel(), noise[:, 1::2].ravel()  # s is even
        table = np.bincount(even * k + odd, minlength=k * k).reshape(k, k)
        assert table.sum() == 100_000
        assert stats.chi2_contingency(table).pvalue >= 1e-3

    # (40, 0.01) is above _THRESHOLD_MAX_K, on the float noise path
    @pytest.mark.parametrize("k,delta", [(2, 0.25), (3, 0.2), (8, 0.5), (40, 0.01)])
    def test_answers_follow_the_law(self, k, delta):
        # chi-square at significance 1e-3 over the 90 000 answers of an
        # all-zero truth, each its own noise draw
        n, s = 1000, 100
        t = _oracle([0] * n, k, delta=delta, seed=7).execute_plan(seed_rest_plan(n, s))
        counts = np.bincount(t.oriented_matrix(range(s), range(s, n)).ravel(), minlength=k)
        params = NoiseParams(k, delta)
        expected = np.array([params.p_zero] + [params.p_nonzero] * (k - 1)) * len(t)
        assert stats.chisquare(counts, expected).pvalue >= 1e-3

    def test_frequency_of_zero(self):
        # frequency of noise 0 within 4 sigma of 1/3 + 0.2 over the
        # 109 375 answers of an all-zero truth
        n, s = 1000, 125
        params = NoiseParams(3, 0.2)
        t = _oracle([0] * n, 3, delta=0.2, seed=11).execute_plan(seed_rest_plan(n, s))
        answers = t.oriented_matrix(range(s), range(s, n))
        p = params.p_zero
        sigma = np.sqrt(p * (1 - p) / answers.size)
        assert answers.size >= 100_000
        assert abs(np.mean(answers == 0) - p) < 4 * sigma

    def test_distinct_seeds_give_distinct_noise(self):
        plan = seed_rest_plan(30, 5)
        t1 = _oracle([0] * 30, 4, seed=1).execute_plan(plan)
        t2 = _oracle([0] * 30, 4, seed=2).execute_plan(plan)
        assert t1.to_text() != t2.to_text()
