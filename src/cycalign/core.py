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
orientation. It returns a read-only view of the stored answers when
the rows lie back to back in the store, as the seed x rest block of a
seed_rest_plan transcript does. Single pairs are read with
lookup_oriented, in either orientation.
"""

from __future__ import annotations

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
        if not isinstance(self.k, (int, np.integer)) or self.k < 2:
            raise ValueError(f"k must be an integer >= 2, got {self.k!r}")
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
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
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


class QueryPlan:
    """A set of unordered node pairs scheduled for querying.

    Pairs are stored canonically oriented in read-only int64 arrays lo
    and hi, sorted by (i, j), so plans are deterministic objects. The
    keys lo * n + hi therefore strictly increase; the oracle and the
    transcript rely on that to skip sorting a plan. Each pair may be
    queried only once, so a plan that names a pair twice, in either
    orientation, is an error.
    """

    __slots__ = ("n", "lo", "hi")

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

    def _set_pairs(self, lo, hi, n: int) -> None:
        lo = _frozen_int64(lo)
        hi = _frozen_int64(hi)
        _check_entries(lo, hi, n)
        order = _sort_order(_encode_pairs(lo, hi, n), n, ValueError,
                            "plan contains duplicate pairs")
        if order is not None:
            lo, hi = lo[order], hi[order]
        self.n = int(n)
        self.lo = lo
        self.hi = hi
        self.lo.flags.writeable = False
        self.hi.flags.writeable = False

    def __len__(self) -> int:
        return self.lo.size

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.lo.tolist(), self.hi.tolist())

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return _pair_position(self.lo, self.hi, self.n, *pair) >= 0


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
    """

    __slots__ = ("n", "k", "_enc", "_ans", "_lo", "_hi")

    def __init__(self, n: int, k: int,
                 lo: np.ndarray | Sequence[int],
                 hi: np.ndarray | Sequence[int],
                 answers: np.ndarray | Sequence[int]):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
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
        self._enc = enc
        self._lo = lo
        self._hi = hi
        self._ans = ans
        for a in (self._enc, self._lo, self._hi, self._ans):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self._enc.size

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return _pair_position(self._lo, self._hi, self.n, *pair) >= 0

    def items(self) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, answer) triples in sorted (i, j) order."""
        return zip(self._lo.tolist(), self._hi.tolist(), self._ans.tolist())

    def lookup_oriented(self, x: int, y: int) -> int:
        """Answer for the ordered read (x, y): stored value if x < y,
        its negation mod k if x > y.

        Raises ValueError if a node lies outside [0, n), IdentityPairError
        if x == y and MissingPairError if the pair was never queried.
        """
        pos = _pair_position(self._lo, self._hi, self.n, x, y)
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
        stored orientation. Row r's pairs then have the w consecutive
        keys r*n + c0 .. r*n + c0 + w - 1, and the stored keys are
        distinct and sorted, so the row is complete exactly when the
        store holds w keys in [r*n + c0, r*n + c0 + w): two binary
        searches per row, whatever w is. If the rows' runs sit back to
        back in the store, as the seed x rest rows of a seed_rest_plan
        transcript do, the result is a read-only view of the stored
        answers; otherwise one gather copies them. Empty rows or cols
        give an empty (len(rows), len(cols)) array.

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
        first = r * self.n + c0
        starts = self._enc.searchsorted(first)
        ends = self._enc.searchsorted(first + w)
        complete = ends - starts == w
        if not complete.all():
            # a row outside [0, c0) has no stored key in its range, so
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
            held = np.isin(first[i] + np.arange(w), self._enc[starts[i]:ends[i]])
            raise MissingPairError(f"pair ({int(r[i])}, {c0 + int(held.argmin())}) "
                                   "was never queried")
        if (starts[1:] - starts[:-1] == w).all():
            p = int(starts[0])
            return self._ans[p:p + r.size * w].reshape(r.size, w)
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
