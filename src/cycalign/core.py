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
a. QueryTranscript.oriented_matrix returns a read-only view of the
stored answers when the requested block lies back to back in the
store, as the seed x rest block of a seed_rest_plan transcript does.
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


def _frozen_answers(a, k: int) -> np.ndarray:
    """Read-only C-contiguous answers in [0, k) of type _answer_dtype(k).

    A read-only array that already is one, such as the oracle's output,
    is kept as is. Anything else is range-checked in int64 and then
    converted with one copy, so out-of-range input never wraps and a
    caller's writeable array is never aliased or frozen.
    """
    dtype = _answer_dtype(k)
    keep = (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.c_contiguous and not a.flags.writeable)
    if not keep:
        a = np.asarray(a, dtype=np.int64)
    if a.size and (a.min() < 0 or a.max() >= k):
        raise ValueError(f"answers must lie in [0, {k})")
    if not keep:
        a = a.astype(dtype, order="C")
        a.flags.writeable = False
    return a


def _sort_order(enc: np.ndarray, duplicate: Exception) -> np.ndarray | None:
    """Permutation that sorts the keys enc, or None if they are in order.

    One O(m) check that the keys strictly increase proves both that they
    are sorted and that none repeats, so ordered input is neither copied
    nor re-sorted. Otherwise the keys are sorted stably and `duplicate`
    is raised if two of them are equal.
    """
    if np.all(enc[1:] > enc[:-1]):
        return None
    order = np.argsort(enc, kind="stable")
    srt = enc[order]
    if np.any(srt[1:] == srt[:-1]):
        raise duplicate
    return order


def _validate_pair_arrays(lo: np.ndarray, hi: np.ndarray, n: int) -> None:
    if lo.size and (lo.min() < 0 or hi.max() >= n):
        raise ValueError(f"pair endpoints must lie in [0, {n})")
    if np.any(lo >= hi):
        bad = int(np.argmax(lo >= hi))
        raise IdentityPairError(
            f"pair ({int(lo[bad])}, {int(hi[bad])}) is not in canonical i < j form"
        )


class QueryPlan:
    """A set of unordered node pairs scheduled for querying.

    Pairs are stored canonically oriented and deduplicated in read-only
    int64 arrays lo and hi, sorted by (i, j), so plans are deterministic
    objects. The keys lo * n + hi therefore strictly increase; the
    oracle and the transcript rely on that to skip sorting a plan.
    """

    __slots__ = ("n", "lo", "hi")

    def __init__(self, pairs: Iterable[tuple[int, int]], n: int):
        canon = [canonical_pair(x, y) for x, y in pairs]
        if canon:
            arr = np.asarray(canon, dtype=np.int64)
            lo, hi = arr[:, 0], arr[:, 1]
        else:
            lo = hi = np.empty(0, dtype=np.int64)
        _validate_pair_arrays(lo, hi, n)
        # a stable sort puts repeats of a pair next to each other, first
        # occurrence first; keeping the first of each run dedups and sorts
        enc = _encode_pairs(lo, hi, n)
        order = np.argsort(enc, kind="stable")
        srt = enc[order]
        first = np.ones(srt.size, dtype=bool)
        first[1:] = srt[1:] != srt[:-1]
        idx = order[first]
        self.n = int(n)
        self.lo = np.ascontiguousarray(lo[idx])
        self.hi = np.ascontiguousarray(hi[idx])
        self.lo.flags.writeable = False
        self.hi.flags.writeable = False

    @classmethod
    def from_arrays(cls, lo: np.ndarray, hi: np.ndarray, n: int) -> "QueryPlan":
        """Plan of the canonical pairs (lo[t], hi[t]); repeats are an error.

        Read-only int64 arrays whose keys already strictly increase are
        kept without a copy or a sort.
        """
        plan = cls.__new__(cls)
        lo = _frozen_int64(lo)
        hi = _frozen_int64(hi)
        _validate_pair_arrays(lo, hi, n)
        order = _sort_order(_encode_pairs(lo, hi, n),
                            ValueError("plan contains duplicate pairs"))
        if order is not None:
            lo, hi = lo[order], hi[order]
        plan.n = int(n)
        plan.lo = lo
        plan.hi = hi
        plan.lo.flags.writeable = False
        plan.hi.flags.writeable = False
        return plan

    def __len__(self) -> int:
        return self.lo.size

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.lo.tolist(), self.hi.tolist())

    def __contains__(self, pair: tuple[int, int]) -> bool:
        lo, hi = canonical_pair(*pair)
        enc = _encode_pairs(self.lo, self.hi, self.n)
        pos = np.searchsorted(enc, lo * self.n + hi)
        return bool(pos < enc.size and enc[pos] == lo * self.n + hi)


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
    and converted once. oriented_matrix returns answers of the same
    type, as a read-only view of the store when the block it reads is
    stored back to back (see there).
    """

    __slots__ = ("n", "k", "_enc", "_ans", "_lo", "_hi", "_dict")

    def __init__(self, n: int, k: int,
                 lo: np.ndarray | Sequence[int],
                 hi: np.ndarray | Sequence[int],
                 answers: np.ndarray | Sequence[int]):
        if k < 2:
            raise ValueError(f"k must be >= 2, got {k}")
        lo = _frozen_int64(lo)
        hi = _frozen_int64(hi)
        ans = _frozen_answers(answers, k)
        if not (lo.size == hi.size == ans.size):
            raise ValueError("lo, hi and answers must have equal length")
        _validate_pair_arrays(lo, hi, n)
        enc = _encode_pairs(lo, hi, n)
        order = _sort_order(enc, RepeatQueryError("transcript contains a duplicated pair"))
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
        self._dict = None

    def __len__(self) -> int:
        return self._enc.size

    def __contains__(self, pair: tuple[int, int]) -> bool:
        lo, hi = canonical_pair(*pair)
        pos = np.searchsorted(self._enc, lo * self.n + hi)
        return bool(pos < self._enc.size and self._enc[pos] == lo * self.n + hi)

    @property
    def answers(self) -> dict[tuple[int, int], int]:
        """Mapping from canonical pair (i, j) to the stored answer."""
        if self._dict is None:
            self._dict = dict(zip(zip(self._lo.tolist(), self._hi.tolist()),
                                  self._ans.tolist()))
        return self._dict

    def items(self) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, answer) triples in sorted (i, j) order."""
        return zip(self._lo.tolist(), self._hi.tolist(), self._ans.tolist())

    def lookup_oriented(self, x: int, y: int) -> int:
        """Answer for the ordered read (x, y): stored value if x < y,
        its negation mod k if x > y."""
        lo, hi = canonical_pair(x, y)
        pos = np.searchsorted(self._enc, lo * self.n + hi)
        if pos >= self._enc.size or self._enc[pos] != lo * self.n + hi:
            raise MissingPairError(f"pair ({lo}, {hi}) was never queried")
        a = int(self._ans[pos])
        return a if x < y else (self.k - a) % self.k

    def oriented_matrix(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Matrix of oriented answers, entry [r, c] = answer read as (row, col).

        Entries have the transcript's answer type. When cols is one run
        c0, c0 + 1, ..., c0 + w - 1 of nodes and every row lies below
        c0, every read is canonical and _row_starts proves each row
        present with two binary searches. If the rows' runs then sit
        back to back in the store, as the seed x rest rows of a
        seed_rest_plan transcript do, the result is a read-only view of
        the stored answers; otherwise one gather copies them. Any other
        read searches the store for every entry.

        Raises MissingPairError if any required pair is absent,
        IdentityPairError if a row and column index coincide and
        ValueError if a node lies outside [0, n).
        """
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
        starts = self._row_starts(r, c) if r.size and c.size else None
        if starts is None:
            return self._search_matrix(r, c)
        w = c.size
        if (starts[1:] - starts[:-1] == w).all():
            first = int(starts[0])
            return self._ans[first:first + r.size * w].reshape(r.size, w)
        return self._ans[starts[:, None] + np.arange(w)]

    def _row_starts(self, r: np.ndarray, c: np.ndarray) -> np.ndarray | None:
        """Store position of each pair (r[i], c[0]) when every row's pairs
        with the run c are all stored, else None.

        Applies only when c is a run c0, c0 + 1, ..., c0 + w - 1 below n,
        so that row r's pairs have the w consecutive keys
        r*n + c0 .. r*n + c0 + w - 1. The stored keys are distinct
        integers, so the row is complete exactly when the store holds w
        keys in [r*n + c0, r*n + c0 + w), which two binary searches per
        row count whatever w is; the row then sits at positions
        p .. p + w - 1 from the first search's p. Only canonical pairs
        are stored, so a complete row lies below c0 and is read
        unflipped; a row at or above c0, or a negative one, has keys
        that are never stored.
        """
        c0, w = int(c[0]), c.size
        if c[-1] >= self.n or (w > 1 and not (c[1:] - c[:-1] == 1).all()):
            return None
        first = r * self.n + c0
        starts = self._enc.searchsorted(first)
        if not (self._enc.searchsorted(first + w) - starts == w).all():
            return None
        return starts

    def _search_matrix(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """oriented_matrix by one binary search of the store per entry."""
        if (r.size and (r.min() < 0 or r.max() >= self.n)
                or c.size and (c.min() < 0 or c.max() >= self.n)):
            raise ValueError(f"nodes must lie in [0, {self.n})")
        R = r[:, None]
        C = c[None, :]
        if np.any(R == C):
            raise IdentityPairError("row and column node sets overlap")
        enc = _encode_pairs(np.minimum(R, C), np.maximum(R, C), self.n)
        pos = np.searchsorted(self._enc, enc)
        found = np.zeros(enc.shape, dtype=bool)
        if self._enc.size:
            np.minimum(pos, self._enc.size - 1, out=pos)
            found = self._enc[pos] == enc
        if not found.all():
            i, j = np.argwhere(~found)[0]
            lo, hi = divmod(int(enc[i, j]), self.n)
            raise MissingPairError(f"pair ({lo}, {hi}) was never queried")
        out = self._ans[pos]
        flip = R > C
        # k fits the answer type, so k - a cannot overflow it
        out[flip] = (self.k - out[flip]) % self.k
        return out

    def to_text(self) -> str:
        """Serialize as a header line ``k=<k>,n=<n>`` then ``i,j,answer`` lines."""
        lines = [f"k={self.k},n={self.n}"]
        lines.extend(f"{i},{j},{a}" for i, j, a in self.items())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "QueryTranscript":
        """Parse the format written by to_text; blank lines are skipped.

        Raises ValueError naming the header, or the line number and text
        of the first line that is not three integers i,j,answer.
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
        if triples:
            arr = np.asarray(triples, dtype=np.int64)
            return cls(n, k, arr[:, 0], arr[:, 1], arr[:, 2])
        return cls(n, k, [], [], [])


def lookup_oriented(transcript: QueryTranscript, x: int, y: int) -> int:
    """Oriented read of the unordered pair {x, y} from a transcript."""
    return transcript.lookup_oriented(x, y)
