"""Domain types for cyclic-label alignment.

A problem instance assigns each of n nodes a label in {0, ..., k-1}.
Observations are noisy differences (label(i) - label(j)) mod k for
unordered node pairs {i, j}; each pair can be observed at most once.
Labels are therefore only identifiable up to a global cyclic shift.

Conventions used throughout the package:

* nodes are dense integer indices 0 .. n-1;
* every unordered pair is stored under its canonical orientation
  (i, j) with i < j, and the reversed reading is the negation mod k;
* all mod-k arithmetic is on non-negative residues.

A transcript stores its answers in the smallest signed integer type
that holds every value in [-k, k] (int8 up to k = 127), so the dense
seed x rest block of Algorithm 1 costs one byte per answer. Because k
itself fits that type, k - a and a - k stay in range for every answer
a. QueryTranscript.oriented_matrix reads only that block: a run of
columns c0 .. c0 + w - 1 against rows below c0, all in stored
orientation. Single pairs are read with lookup_oriented, in either
orientation.

Plans and transcripts come in two forms with one interface:

* the seed x rest block, the pairs (i, j) with i < s <= j for a seed
  of the first s nodes, as Algorithm 1 queries it. A block plan holds
  only (n, s); a block transcript holds only the answers, row-major,
  which is also their sorted-key order. Size, membership and lookups
  are range tests; the pair arrays lo and hi are built on first use
  only, and the algorithm itself never asks for them. oriented_matrix
  slices the block, so the whole seed x rest read is a read-only view
  of the stored answers;
* any other set of pairs, held as sorted int64 pair arrays with their
  keys i * n + j, which strictly increase. This form serves the text
  format, the full triangle of the small-instance MLE check and plans
  built from explicit pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


class MissingPairError(KeyError):
    """A pair was read from a transcript that never answered it."""


class RepeatQueryError(ValueError):
    """An unordered pair was queried more than once."""


class IdentityPairError(ValueError):
    """A pair (x, x) was used where two distinct nodes are required."""


class DimensionMismatchError(ValueError):
    """Two labelings with different n or k were compared."""


class InstanceTooLargeError(ValueError):
    """An exhaustive computation was requested beyond its size guard."""


class DegenerateLikelihoodError(ValueError):
    """Likelihood evaluation hit a zero-probability observation."""


class RegimeMixingError(ValueError):
    """A tail-exponent fit mixed small-bias and large-bias grid points."""


class DegenerateGridError(ValueError):
    """A fit was requested on a grid with no predictor variation."""


def _check_size(name: str, value) -> None:
    """Raise ValueError naming the size unless it is an integer >= 2,
    as a label count k and a node count n that holds a pair must be."""
    if not isinstance(value, (int, np.integer)) or value < 2:
        raise ValueError(f"{name} must be an integer >= 2, got {value!r}")


@dataclass(frozen=True)
class NoiseParams:
    """Parameters (k, delta) of the zero-biased noise law.

    A noise draw equals 0 with probability 1/k + delta and equals each
    of the k-1 nonzero values with probability 1/k - delta/(k-1).
    Validity requires 0 < delta <= (k-1)/k so all masses are in [0, 1].
    """

    k: int
    delta: float

    def __post_init__(self):
        _check_size("k", self.k)
        d = float(self.delta)
        if not (0.0 < d <= (self.k - 1) / self.k):
            raise ValueError(
                f"delta must lie in (0, (k-1)/k] = (0, {(self.k - 1) / self.k:g}], got {d!r}"
            )
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "delta", d)

    @property
    def p_zero(self) -> float:
        """Probability that a noise draw is 0."""
        return 1.0 / self.k + self.delta

    @property
    def p_nonzero(self) -> float:
        """Probability of each individual nonzero noise value."""
        # At the largest allowed bias, delta = (k-1)/k, this is 0 in exact
        # arithmetic, but float round-off leaves 1/k - delta/(k-1) off zero
        # for some k (negative for k = 6, 24, 38, positive for k = 20).
        if self.delta == (self.k - 1) / self.k:
            return 0.0
        return 1.0 / self.k - self.delta / (self.k - 1)


class Labeling:
    """An assignment of each of n nodes to a label in {0, ..., k-1}."""

    __slots__ = ("labels", "k")

    def __init__(self, labels: Sequence[int] | np.ndarray, k: int):
        arr = np.asarray(labels, dtype=np.int64).copy()
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a labeling needs a 1-d sequence of at least 2 labels")
        _check_size("k", k)
        if arr.min() < 0 or arr.max() >= k:
            raise ValueError(f"labels must lie in [0, {k}), got range "
                             f"[{arr.min()}, {arr.max()}]")
        arr.flags.writeable = False
        self.labels = arr
        self.k = int(k)

    @property
    def n(self) -> int:
        return self.labels.size

    def __len__(self) -> int:
        return self.labels.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return self.k == other.k and np.array_equal(self.labels, other.labels)

    def __repr__(self) -> str:
        return f"Labeling({self.labels.tolist()}, k={self.k})"


def shift_labeling(g: Labeling, alpha: int) -> Labeling:
    """Add the cyclic shift alpha to every label, mod k."""
    if not 0 <= alpha < g.k:
        raise ValueError(f"shift must lie in [0, {g.k}), got {alpha}")
    return Labeling((g.labels + alpha) % g.k, g.k)


def canonical_pair(x: int, y: int) -> tuple[int, int]:
    """Return the unordered pair {x, y} as (min, max); rejects x == y."""
    if x == y:
        raise IdentityPairError(f"pair ({x}, {y}) has identical endpoints")
    return (x, y) if x < y else (y, x)


def _encode_pairs(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Key lo * n + hi of each int64 pair; keys order pairs by (lo, hi)."""
    return lo * np.int64(n) + hi


def _frozen_int64(a) -> np.ndarray:
    """Read-only C-contiguous int64 array holding the values of a.

    An input that already is one is kept as is. Anything else is copied,
    so a caller's writeable array is never aliased or frozen.
    """
    if (isinstance(a, np.ndarray) and a.dtype == np.int64
            and a.flags.c_contiguous and not a.flags.writeable):
        return a
    out = np.array(a, dtype=np.int64, order="C")
    out.flags.writeable = False
    return out


_INT8 = np.dtype(np.int8)


def _answer_dtype(k: int) -> np.dtype:
    """Smallest signed integer type that holds every value in [-k, k]."""
    return _INT8 if k <= 127 else np.min_scalar_type(-k - 1)


def _sort_order(enc: np.ndarray, n: int, repeat: type[ValueError],
                message: str) -> np.ndarray | None:
    """Permutation that sorts the keys enc, or None if they are in order.

    One O(m) check that the keys strictly increase proves both that they
    are sorted and that none repeats, so ordered input is neither copied
    nor re-sorted. Otherwise the keys are sorted stably, and if two of
    them are equal, repeat is raised with message and the lowest pair
    that repeats.
    """
    if np.all(enc[1:] > enc[:-1]):
        return None
    order = np.argsort(enc, kind="stable")
    srt = enc[order]
    same = srt[1:] == srt[:-1]
    if same.any():
        lo, hi = divmod(int(srt[same.argmax()]), n)
        raise repeat(f"{message}: ({lo}, {hi}) appears more than once")
    return order


def _check_entries(lo: np.ndarray, hi: np.ndarray, n: int,
                   ans: np.ndarray | None = None, k: int = 0) -> None:
    """Raise for the first entry t whose pair (lo[t], hi[t]) is not a
    canonical pair i < j of nodes in [0, n), or whose answer ans[t]
    lies outside [0, k).

    The error is IdentityPairError for a pair in range but not in
    i < j form and ValueError otherwise; its entry attribute holds t,
    which QueryTranscript.from_text maps back to a line. Valid input
    costs only the whole-array min, max and order tests.
    """
    if ((not lo.size or lo.min() >= 0 and hi.max() < n and (lo < hi).all())
            and (ans is None or not ans.size or ans.min() >= 0 and ans.max() < k)):
        return
    bad = (lo < 0) | (hi >= n) | (lo >= hi)  # covers every node outside [0, n)
    if ans is not None:
        bad |= (ans < 0) | (ans >= k)
    t = int(bad.argmax())
    i, j = int(lo[t]), int(hi[t])
    if not (0 <= i < n and 0 <= j < n):
        err = ValueError(f"pair endpoints must lie in [0, {n}), got ({i}, {j})")
    elif i >= j:
        err = IdentityPairError(f"pair ({i}, {j}) is not in canonical i < j form")
    else:
        err = ValueError(f"answers must lie in [0, {k}), got {int(ans[t])} "
                         f"for pair ({i}, {j})")
    err.entry = t
    raise err


def _pair_position(lo: np.ndarray, hi: np.ndarray, n: int, x: int, y: int) -> int:
    """Index of the unordered pair {x, y} in the sorted canonical pairs
    (lo, hi), or -1 if they do not hold it.

    A pair with a node outside [0, n) is never held. lo is searched for
    the run of pairs that start at min(x, y) and hi within that run, so
    no key is encoded. Raises IdentityPairError if x == y.
    """
    a, b = canonical_pair(x, y)
    if a < 0 or b >= n:
        return -1
    start, stop = lo.searchsorted(a), lo.searchsorted(a, "right")
    pos = start + int(hi[start:stop].searchsorted(b))
    return pos if pos < stop and hi[pos] == b else -1


def _block_position(n: int, s: int, x: int, y: int) -> int:
    """Row-major index of the unordered pair {x, y} in the seed x rest
    block of the first s of n nodes, or -1 if the block lacks it.

    Raises IdentityPairError if x == y.
    """
    a, b = canonical_pair(x, y)
    return a * (n - s) + b - s if 0 <= a < s <= b < n else -1


def _block_pairs(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only pair arrays (lo, hi) of the seed x rest block, in
    row-major (sorted) order."""
    lo = np.repeat(np.arange(s, dtype=np.int64), n - s)
    hi = np.tile(np.arange(s, n, dtype=np.int64), s)
    lo.flags.writeable = False
    hi.flags.writeable = False
    return lo, hi


class QueryPlan:
    """A set of unordered node pairs scheduled for querying.

    Pairs are canonically oriented and sorted by (i, j), so plans are
    deterministic objects; lo and hi are read-only int64 arrays of
    them, and their keys lo * n + hi strictly increase, which the
    transcript relies on to skip sorting a plan. Each pair may be
    queried only once, so a plan that names a pair twice, in either
    orientation, is an error, and an oracle answers only one plan.

    A seed x rest plan (see _seed_rest) stores only n and the seed
    size; its lo and hi are built and cached on first access, and its
    size, membership and iteration are range computations.
    """

    __slots__ = ("n", "_s", "_lo", "_hi")

    def __init__(self, pairs: Iterable[tuple[int, int]], n: int):
        """Plan of the pairs (x, y), each in either orientation."""
        canon = [canonical_pair(x, y) for x, y in pairs]
        arr = np.array(canon, dtype=np.int64).reshape(-1, 2)
        self._set_pairs(arr[:, 0], arr[:, 1], n)

    @classmethod
    def from_arrays(cls, lo: np.ndarray, hi: np.ndarray, n: int) -> "QueryPlan":
        """Plan of the canonical pairs (lo[t], hi[t]).

        Read-only int64 arrays whose keys already strictly increase are
        kept without a copy or a sort.
        """
        plan = cls.__new__(cls)
        plan._set_pairs(lo, hi, n)
        return plan

    @classmethod
    def _seed_rest(cls, n: int, s: int) -> "QueryPlan":
        """Plan of the pairs (i, j) with i < s <= j < n; needs 1 <= s < n."""
        plan = cls.__new__(cls)
        plan.n, plan._s = int(n), int(s)
        plan._lo = plan._hi = None
        return plan

    def _set_pairs(self, lo, hi, n: int) -> None:
        _check_size("n", n)
        lo = _frozen_int64(lo)
        hi = _frozen_int64(hi)
        _check_entries(lo, hi, n)
        order = _sort_order(_encode_pairs(lo, hi, n), n, ValueError,
                            "plan contains duplicate pairs")
        if order is not None:
            lo, hi = lo[order], hi[order]
        lo.flags.writeable = False
        hi.flags.writeable = False
        self.n = int(n)
        self._s = None
        self._lo = lo
        self._hi = hi

    @property
    def lo(self) -> np.ndarray:
        if self._lo is None:
            self._lo, self._hi = _block_pairs(self.n, self._s)
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        if self._hi is None:
            self._lo, self._hi = _block_pairs(self.n, self._s)
        return self._hi

    def __len__(self) -> int:
        if self._s is None:
            return self._lo.size
        return self._s * (self.n - self._s)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        if self._s is None:
            return zip(self._lo.tolist(), self._hi.tolist())
        return itertools.product(range(self._s), range(self._s, self.n))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        if self._s is None:
            return _pair_position(self._lo, self._hi, self.n, *pair) >= 0
        return _block_position(self.n, self._s, *pair) >= 0


class QueryTranscript:
    """Immutable record of answered pairwise-difference queries.

    Each unordered pair appears at most once, keyed by its canonical
    orientation (i, j) with i < j; the stored answer lies in [0, k).
    Reading a pair against its orientation negates the answer mod k,
    so both directions reflect a single underlying noise draw.

    Pairs are held sorted by their keys i * n + j, which strictly
    increase. Input already in that order, such as a plan's arrays, is
    kept without a sort, and read-only int64 pairs without a copy.

    Answers are stored as _answer_dtype(k): int8 up to k = 127, a wider
    signed type above. A read-only array of that type, which is what
    FaultyOracle.execute_plan hands over, is kept without a copy; any
    other answers (lists, int64 arrays, parsed text) are range-checked
    in int64 and converted once, so out-of-range input never wraps and
    a caller's writeable array is never aliased or frozen.
    oriented_matrix returns answers of the same type (see there).

    A transcript of a seed x rest block (see _from_block) stores only
    the answers; its pair arrays _lo and _hi are derived on first use
    and cached, and it holds no keys.
    """

    __slots__ = ("n", "k", "_s", "_ans", "_pair_lo", "_pair_hi", "_keys")

    def __init__(self, n: int, k: int,
                 lo: np.ndarray | Sequence[int],
                 hi: np.ndarray | Sequence[int],
                 answers: np.ndarray | Sequence[int]):
        _check_size("n", n)
        _check_size("k", k)
        lo = _frozen_int64(lo)
        hi = _frozen_int64(hi)
        dtype = _answer_dtype(k)
        ans = answers
        keep = (isinstance(ans, np.ndarray) and ans.dtype == dtype
                and ans.flags.c_contiguous and not ans.flags.writeable)
        if not keep:
            ans = np.asarray(ans, dtype=np.int64)
        if not (lo.size == hi.size == ans.size):
            raise ValueError("lo, hi and answers must have equal length")
        _check_entries(lo, hi, n, ans, k)
        if not keep:
            ans = ans.astype(dtype, order="C")
        enc = _encode_pairs(lo, hi, n)
        order = _sort_order(enc, n, RepeatQueryError,
                            "transcript contains a duplicated pair")
        if order is not None:
            enc, lo, hi, ans = enc[order], lo[order], hi[order], ans[order]
        self.n = int(n)
        self.k = int(k)
        self._s = None
        self._keys = enc
        self._pair_lo = lo
        self._pair_hi = hi
        self._ans = ans
        for a in (enc, lo, hi, ans):
            a.flags.writeable = False

    @classmethod
    def _from_block(cls, n: int, k: int, s: int, answers: np.ndarray) -> "QueryTranscript":
        """Transcript of the seed x rest block of the first s of n nodes.

        answers holds the s * (n - s) answers, that of pair (i, j) at
        [i, j - s], or at i * (n - s) + j - s when flat, as a C-contiguous
        array of _answer_dtype(k); it is frozen and kept without a copy.
        Raises ValueError naming the first pair whose answer is not in
        [0, k).
        """
        t = cls.__new__(cls)
        t.n, t.k, t._s = int(n), int(k), int(s)
        if answers.min() < 0 or answers.max() >= k:
            bad = int(((answers < 0) | (answers >= k)).argmax())
            i, j = divmod(bad, n - s)
            raise ValueError(f"answers must lie in [0, {k}), got "
                             f"{int(answers.flat[bad])} for pair ({i}, {j + s})")
        answers.flags.writeable = False
        t._ans = answers.reshape(-1)
        t._pair_lo = t._pair_hi = t._keys = None
        return t

    @property
    def _lo(self) -> np.ndarray:
        if self._pair_lo is None:
            self._pair_lo, self._pair_hi = _block_pairs(self.n, self._s)
        return self._pair_lo

    @property
    def _hi(self) -> np.ndarray:
        if self._pair_hi is None:
            self._pair_lo, self._pair_hi = _block_pairs(self.n, self._s)
        return self._pair_hi

    def _position(self, x: int, y: int) -> int:
        """Index of the unordered pair {x, y} in _ans, or -1 if absent."""
        if self._s is None:
            return _pair_position(self._pair_lo, self._pair_hi, self.n, x, y)
        return _block_position(self.n, self._s, x, y)

    def __len__(self) -> int:
        return self._ans.size

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self._position(*pair) >= 0

    def items(self) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, answer) triples in sorted (i, j) order."""
        return zip(self._lo.tolist(), self._hi.tolist(), self._ans.tolist())

    def lookup_oriented(self, x: int, y: int) -> int:
        """Answer for the ordered read (x, y): stored value if x < y,
        its negation mod k if x > y.

        Raises ValueError if a node lies outside [0, n), IdentityPairError
        if x == y and MissingPairError if the pair was never queried.
        """
        pos = self._position(x, y)
        if pos < 0:
            if not (0 <= x < self.n and 0 <= y < self.n):
                raise ValueError(f"nodes must lie in [0, {self.n}), got ({x}, {y})")
            raise MissingPairError(f"pair {canonical_pair(x, y)} was never queried")
        a = int(self._ans[pos])
        return a if x < y else (self.k - a) % self.k

    def oriented_matrix(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """The block of answers of the pairs (row, col), entry [i, t] for
        (rows[i], cols[t]), in the transcript's answer type.

        cols must be one run c0, c0 + 1, ..., c0 + w - 1 of nodes below
        n and every row must lie in [0, c0), so each pair is read in its
        stored orientation.

        A seed x rest transcript holds row r's pairs exactly when r < s
        <= c0, and the read is a slice of its answer block: a read-only
        view when rows are a run, one gather otherwise. In any other
        transcript, row r's pairs have the w consecutive keys r*n + c0
        .. r*n + c0 + w - 1, and the stored keys are distinct and
        sorted, so the row is complete exactly when the store holds w
        keys in [r*n + c0, r*n + c0 + w): two binary searches per row,
        whatever w is, and one gather copies the answers. Empty rows or
        cols give an empty (len(rows), len(cols)) array.

        Raises ValueError if cols is not such a run or a row lies
        outside [0, c0), IdentityPairError if a row is also a column
        and MissingPairError naming the first absent pair in row-major
        order.
        """
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
        if not (r.size and c.size):
            return np.empty((r.size, c.size), dtype=self._ans.dtype)
        c0, w = int(c[0]), c.size
        if c0 < 0 or c[-1] >= self.n:
            raise ValueError(f"nodes must lie in [0, {self.n}), got columns "
                             f"{c0} .. {int(c[-1])}")
        if w > 1 and not (c[1:] - c[:-1] == 1).all():
            raise ValueError("cols must be one run c0, c0 + 1, ..., c0 + w - 1")
        s = self._s
        if s is None:
            first = r * self.n + c0
            starts = self._keys.searchsorted(first)
            ends = self._keys.searchsorted(first + w)
            complete = ends - starts == w
        else:
            complete = (r >= 0) & (r < s) if c0 >= s else np.zeros(r.size, bool)
        if not complete.all():
            # a row outside [0, c0) has no stored pair in its range, so
            # it always lands here and valid reads never check rows
            bad = (r < 0) | (r >= c0)
            if bad.any():
                x = int(r[bad.argmax()])
                if c0 <= x < c0 + w:
                    raise IdentityPairError(f"node {x} is both a row and a column")
                if not 0 <= x < self.n:
                    raise ValueError(f"nodes must lie in [0, {self.n}), got row {x}")
                raise ValueError(f"rows must lie below the first column {c0}, "
                                 f"got row {x}")
            i = int(complete.argmin())
            # a seed x rest transcript misses all of row i's pairs or,
            # when c0 < s, the pairs with c0 .. s - 1: c0 comes first
            gap = 0
            if s is None:
                held = np.isin(first[i] + np.arange(w), self._keys[starts[i]:ends[i]])
                gap = int(held.argmin())
            raise MissingPairError(f"pair ({int(r[i])}, {c0 + gap}) was never queried")
        if s is not None:
            block = self._ans.reshape(s, self.n - s)
            if (r[1:] - r[:-1] == 1).all():  # a run of rows: a view
                r = slice(int(r[0]), int(r[0]) + r.size)
            return block[r, c0 - s:c0 - s + w]
        return self._ans[starts[:, None] + np.arange(w)]

    def to_text(self) -> str:
        """Serialize as a header line ``k=<k>,n=<n>`` then ``i,j,answer`` lines."""
        lines = [f"k={self.k},n={self.n}"]
        lines.extend(f"{i},{j},{a}" for i, j, a in self.items())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "QueryTranscript":
        """Parse the format written by to_text; blank lines are skipped.

        Raises ValueError naming the header, or the line number and text
        of the first line that is not three integers i,j,answer; else
        the line number and text of the first triple whose pair is not
        i < j in [0, n) (IdentityPairError when only the order is wrong)
        or whose answer is not in [0, k). A pair given on two lines
        raises RepeatQueryError naming the pair.
        """
        lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)
                 if ln.strip()]
        if not lines:
            raise ValueError("empty transcript text")
        header = lines[0][1]
        try:
            if not header.startswith("k="):
                raise ValueError
            k_part, n_part = header.split(",")
            if not n_part.startswith("n="):
                raise ValueError
            k = int(k_part.removeprefix("k="))
            n = int(n_part.removeprefix("n="))
        except ValueError:
            raise ValueError(f"malformed transcript header: {header!r}") from None
        if n < 2:
            raise ValueError(f"transcript header {header!r}: n must be an "
                             f"integer >= 2, got {n}")
        triples = []
        for no, ln in lines[1:]:
            fields = ln.split(",")
            try:
                if len(fields) != 3:
                    raise ValueError
                triples.append(tuple(int(f) for f in fields))
            except ValueError:
                raise ValueError(
                    f"malformed transcript line {no}: {ln!r} (expected i,j,answer)"
                ) from None
        arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
        try:
            return cls(n, k, arr[:, 0], arr[:, 1], arr[:, 2])
        except ValueError as err:
            if not hasattr(err, "entry"):
                raise
            no, ln = lines[1 + err.entry]
            raise type(err)(f"transcript line {no}: {ln!r}: {err}") from None
