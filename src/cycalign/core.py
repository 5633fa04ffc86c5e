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

A transcript is a QueryPlan plus one answer per pair, in the plan's
order. Its answers are held in the smallest signed integer type that
holds every value in [-k, k] (int8 up to k = 127), so the dense
seed x rest block of Algorithm 1 costs one byte per answer. Because k
itself fits that type, k - a and a - k stay in range for every answer
a. QueryTranscript.oriented_matrix reads only that block: the seed
rows 0 .. s-1 against the rest columns s .. n-1, in stored
orientation. Single pairs are read with lookup_oriented, in either
orientation.

The plan alone holds the form of its pair set, and answers every
question about its pairs: size, membership, position, where the
seed x rest block lies among them and the tiles an oracle answers.
The form is either

* the seed x rest block, the pairs (i, j) with i < s <= j for a seed
  of the first s nodes, as Algorithm 1 queries it, held as (n, s)
  only; its pair arrays lo and hi are built on first use, which the
  algorithm itself never makes; or
* any other set of pairs, held as sorted int64 pair arrays, for the
  text format, the full triangle of the small-instance MLE check and
  plans built from explicit pairs.

The block is the plan's pairs with i < s <= j, in row-major order;
oriented_matrix reads it as a read-only view of the answers where they
are consecutive, as in a seed x rest plan of seed s, else by one gather.
_windows is the one rule that cuts it into cache-sized tiles, the
oracle's (QueryPlan._tiles) and the vote kernel's (see recovery).

_run_shares is the package's one way to run work on several threads:
the oracle's float-path tiles and the lemma check's Monte Carlo points
go through it, each split into shares by its caller. _run_forked is its one way to
run work in several processes: a sweep's cells go through it.
"""

from __future__ import annotations

import numbers
import os
import pickle
import threading
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
        d = _as_real(self.delta, "delta")
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
        arr = _int64_array(labels, "labels")
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
    """Add the cyclic shift alpha to every label, mod k; alpha is read
    by core._as_int, so a value that is not an integer raises ValueError
    naming the shift."""
    alpha = _as_int(alpha, "shift")
    if not 0 <= alpha < g.k:
        raise ValueError(f"shift must lie in [0, {g.k}), got {alpha}")
    return Labeling((g.labels + alpha) % g.k, g.k)


def canonical_pair(x: int, y: int) -> tuple[int, int]:
    """Return the unordered pair {x, y} as (min, max); rejects x == y."""
    if x == y:
        raise IdentityPairError(f"pair ({x}, {y}) has identical endpoints")
    return (x, y) if x < y else (y, x)


def _int64_array(values, name: str) -> np.ndarray:
    """A new int64 array of values.

    Raises ValueError naming name and the first value that is not an
    integer: one with a fractional part, NaN, an infinity or a float
    beyond the int64 range; or naming name, and the value where it is
    known, for an integer beyond that range. Integral floats such as
    2.0 are accepted; text such as "3" or b"4" is not, although numpy
    would parse it. None or another object that is not a number raises
    ValueError naming name and the object, and so do nested sequences
    of unequal lengths, naming name.
    """
    try:
        a = np.asarray(values)
        if a.dtype == object:  # numpy would int() each element: check them as numbers
            values = a.tolist()
            a = np.asarray(values)
    except ValueError:  # nested sequences of unequal lengths have no shape
        raise ValueError(f"{name} must form an array, got nested sequences "
                         "of unequal lengths") from None
    if a.dtype.kind in "US":  # name the first text value, not one numpy made text
        text = next((v for v in np.array(values, dtype=object).flat
                     if isinstance(v, (str, bytes))), a)
        raise ValueError(f"{name} must be integers, got {text!r}")
    if a.dtype.kind == "f":
        bad = ~((a >= -2.0**63) & (a < 2.0**63)) | (a != np.floor(a))  # NaN fails both
        if bad.any():
            t = int(bad.argmax())
            value = np.array(values, dtype=object).flat[t]
            if isinstance(value, (int, np.integer)):  # numpy made a float of a large int
                raise _int64_range_error(name, value)
            raise ValueError(f"{name} must be integers, got {float(a.flat[t])!r}")
    elif a.dtype.kind == "u" and a.dtype.itemsize == 8:  # the cast would wrap these
        big = a > np.iinfo(np.int64).max
        if big.any():
            raise _int64_range_error(name, a.flat[big.argmax()])
    try:
        return np.array(a, dtype=np.int64)
    except OverflowError:
        raise _int64_range_error(name) from None
    except TypeError:  # None or another object that is not a number
        bad = next((v for v in np.array(values, dtype=object).flat
                    if not isinstance(v, numbers.Number)), values)
        raise ValueError(f"{name} must be integers, got {bad!r}") from None


def _as_int(value, name: str) -> int:
    """value as an int by the rule of _int64_array: integral floats and
    numpy integers are accepted; a fractional part, NaN, an infinity or
    a value beyond int64 raises ValueError naming name and the value."""
    a = _int64_array(value, name)
    if a.ndim:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(a)


_MASK64 = (1 << 64) - 1


def _as_seed(value, name: str) -> int:
    """value as a 64-bit seed: an integer of any size, Python or numpy,
    masked to 64 bits. Anything else goes through _as_int, so an
    integral float is read as its integer and 2.7, text or None raises
    ValueError naming name."""
    if not isinstance(value, (int, np.integer)):
        value = _as_int(value, name)
    return int(value) & _MASK64


def _as_real(value, name: str) -> float:
    """value as a float: ints, floats and numpy reals are accepted;
    anything else, such as text or None, raises ValueError naming name
    and the value, although float() would parse text."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _int64_range_error(name: str, value=None) -> ValueError:
    got = "" if value is None else f", got {int(value)}"
    return ValueError(f"{name} must be integers in the int64 range{got}")


_INT8 = np.dtype(np.int8)


def _answer_dtype(k: int) -> np.dtype:
    """Smallest signed integer type that holds every value in [-k, k]."""
    return _INT8 if k <= 127 else np.min_scalar_type(-k - 1)


def _usable_cpus() -> int:
    """The size of the process's CPU affinity set, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_shares(job, shares: Sequence) -> None:
    """job(share) for every share, each on its own thread: the calling
    thread runs shares[0], and one thread made for this call runs each
    other share, so one share starts no thread.

    The call waits for every thread to end, also when a share raises,
    and then re-raises the error of the lowest-index share that failed,
    so no thread outlives it. The threads are plain threading.Thread
    (numpy imports threading already; concurrent.futures would add
    ~0.27 MB to the process).
    """
    errors = [None] * len(shares)

    def run(w: int) -> None:
        try:
            job(shares[w])
        except BaseException as exc:  # re-raised by the caller below
            errors[w] = exc

    threads = [threading.Thread(target=run, args=(w,), name=f"cycalign-worker-{w}")
               for w in range(1, len(shares))]
    try:
        for thread in threads:
            thread.start()
        run(0)
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    for error in errors:
        if error is not None:
            raise error


def _run_forked(job, shares: Sequence) -> list:
    """[job(share) for share in shares], each other share in a process
    of its own: one os.fork child made for this call per share but the
    first runs job(share), sends its pickled result back through a pipe
    and leaves by os._exit, while the caller runs shares[0].

    A child that fails or sends no result has its share run again by
    the caller, after every child has been reaped, so a deterministic
    job raises the error of the lowest-index share that fails, or
    returns what a serial run returns. Every child is reaped before the
    call returns or raises. The call forks only where os.fork exists,
    there is more than one share and no other Python thread is alive
    (a child keeps only the forking thread, and any lock another thread
    held stays locked in it); otherwise it runs the shares one after
    another.

    Processes here and threads in _run_shares: a sweep's numpy calls are
    small and hold the GIL for their dispatch, so its cells ran 15-25%
    slower on two threads, while each process has a GIL of its own. The
    oracle's tiles and the Monte Carlo draws spend their time in numpy
    loops that release the GIL and write their results in place, which
    threads share and a child would have to send back.
    """
    if not hasattr(os, "fork") or len(shares) < 2 or threading.active_count() > 1:
        return [job(share) for share in shares]
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork_share(job, share))
        first = job(shares[0])
    finally:
        sent = [_reap(child) for child in children]
    return [first] + [job(share) if data is None else pickle.loads(data)
                      for share, data in zip(shares[1:], sent)]


def _fork_share(job, share):
    """(pid, read end of its pipe) of a child forked to run job(share)
    and send its pickled result, or None where no child could be made."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:  # the child: whatever happens, it ends here
        status = 1
        try:
            os.close(read)
            data = pickle.dumps(job(share), pickle.HIGHEST_PROTOCOL)
            with open(write, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _reap(child) -> bytes | None:
    """What child sent, once it has ended; None if it was never made,
    failed or sent nothing."""
    if child is None:
        return None
    pid, read = child
    try:
        with open(read, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return data if data and os.waitstatus_to_exitcode(status) == 0 else None


def _windows(rows: int, cols: int, cells: int,
             max_rows: int | None = None) -> Iterator[tuple[slice, slice]]:
    """Windows (row slice, column slice) of a rows x cols array that
    cover it in row-major order, each of at most max(cells, 1) cells:
    whole rows while a row fits, up to max_rows of them, else one row
    at a time in the fewest column chunks of equal width (the last may
    be narrower)."""
    cells = max(cells, 1)
    if cols > cells:
        width = -(-cols // -(-cols // cells))
        for r in range(rows):
            for c in range(0, cols, width):
                yield slice(r, r + 1), slice(c, min(c + width, cols))
    elif cols:
        step = min(cells // cols, max_rows or cells)
        for r in range(0, rows, step):
            yield slice(r, min(r + step, rows)), slice(0, cols)


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


def _sorted_entries(n: int, lo: np.ndarray, hi: np.ndarray,
                    ans: np.ndarray | None = None, k: int = 0,
                    repeat: type[ValueError] = ValueError,
                    message: str = "plan contains duplicate pairs"):
    """The int64 entries (lo[t], hi[t]) and answers ans[t], checked by
    _check_entries and sorted by (lo, hi); lo and hi come back
    read-only. If two pairs are equal, repeat is raised with message
    and the lowest pair that repeats.
    """
    _check_size("n", n)
    _check_entries(lo, hi, n, ans, k)
    # by (lo, hi) itself: a key lo * n + hi would wrap once n^2 > 2^63
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    same = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
    if same.any():
        t = int(same.argmax())
        raise repeat(f"{message}: ({lo[t]}, {hi[t]}) appears more than once")
    lo.flags.writeable = False
    hi.flags.writeable = False
    return lo, hi, None if ans is None else ans[order]


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
    them. Each pair may be queried only once, so a plan that names a
    pair twice, in either orientation, is an error, and an oracle
    answers only one plan.

    The plan is the one place that knows its form (see the module
    docstring). A seed x rest plan (see _seed_rest) builds and caches
    lo and hi on first access; every other question about its pairs is
    a range computation.
    """

    __slots__ = ("n", "_s", "_lo", "_hi")

    def __init__(self, pairs: Iterable[tuple[int, int]] | np.ndarray, n: int):
        """Plan of the pairs (x, y), each in either orientation, given as
        an iterable of (x, y) or as an (m, 2) integer array, which is
        copied and never read a pair at a time. Raises ValueError naming
        pairs for input of any other shape.
        """
        ends = _int64_array(pairs if isinstance(pairs, np.ndarray) else list(pairs),
                            "pair endpoints")
        if ends.shape == (0,):
            ends = ends.reshape(0, 2)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError(f"pairs must be (x, y) pairs or an (m, 2) array, "
                             f"got shape {ends.shape}")
        lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
        if (lo == hi).any():
            x = lo[(lo == hi).argmax()]
            raise IdentityPairError(f"pair ({x}, {x}) has identical endpoints")
        self._lo, self._hi, _ = _sorted_entries(n, lo, hi)
        self.n, self._s = int(n), None

    @classmethod
    def _seed_rest(cls, n: int, s: int) -> "QueryPlan":
        """Plan of the pairs (i, j) with i < s <= j < n; needs 1 <= s < n."""
        return cls._of(n, int(s), None, None)

    @classmethod
    def _of(cls, n: int, s: int | None, lo, hi) -> "QueryPlan":
        plan = cls.__new__(cls)
        plan.n, plan._s, plan._lo, plan._hi = int(n), s, lo, hi
        return plan

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

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return self._position(*pair) >= 0

    def _position(self, x: int, y: int) -> int:
        """Index of the unordered pair {x, y} in the plan's order, or -1
        if the plan lacks it, as it lacks every pair with a node outside
        [0, n).

        A seed x rest plan holds (a, b) at row-major a * (n - s) + b - s.
        Otherwise lo is searched for the run of pairs that start at
        min(x, y) and hi within that run, so no key is encoded. Raises
        ValueError naming a node that is not an integer (integral
        floats read as integers) and IdentityPairError if x == y.
        """
        a, b = canonical_pair(*_int64_array((x, y), "nodes").tolist())
        s = self._s
        if s is not None:
            return a * (self.n - s) + b - s if 0 <= a < s <= b < self.n else -1
        if a < 0 or b >= self.n:
            return -1
        start, stop = self._lo.searchsorted(a), self._lo.searchsorted(a, "right")
        pos = start + int(self._hi[start:stop].searchsorted(b))
        return pos if pos < stop and self._hi[pos] == b else -1

    def _block(self, answers: np.ndarray, s: int) -> np.ndarray:
        """The (..., s, n - s) seed x rest block of answers, which hold
        one value per pair in the plan's order on their last axis;
        needs 1 <= s < n. Raises MissingPairError naming the first
        absent pair in row-major order.

        A seed x rest plan of seed s is the block; one of seed t lacks
        (0, s) if s < t and (t, s) if s > t. Otherwise the sorted pairs
        with lo < s <= hi are the block in row-major order, so the first
        absent pair is where lo * (n - s) + hi - s departs from 0, 1, ...
        The read is a view where they are consecutive, else one gather.
        """
        w = self.n - s
        shape = (*answers.shape[:-1], s, w)
        t = self._s
        if t == s:
            return answers.reshape(shape)
        if t is not None:
            raise MissingPairError(f"pair ({0 if s < t else t}, {s}) was never queried")
        pos = np.flatnonzero(self._hi[:self._lo.searchsorted(s)] >= s)
        if pos.size < s * w:
            off = self._lo[pos] * w + self._hi[pos] - s != np.arange(pos.size)
            x, y = divmod(int(off.argmax()) if off.any() else pos.size, w)
            raise MissingPairError(f"pair ({x}, {s + y}) was never queried")
        cols = slice(pos[0], pos[-1] + 1) if pos[-1] - pos[0] == pos.size - 1 else pos
        return answers[..., cols].reshape(shape)

    def _tiles(self, size: int) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
        """Pair arrays (lo, hi) that broadcast together to at most size
        pairs each, with the position at of their first pair, covering
        the plan's pairs in its order, row-major within a tile.

        The tiles are the _windows of the s x (n - s) block for a seed x
        rest plan, else of the pairs as one row. A seed x rest tile is an
        (r, 1) column of rows against a (1, c) chunk of the row of rest
        nodes, so no pair array is gathered or built and indexing a
        (T, n) stack of labels with either broadcasts over the leading
        T; tiles of the same columns share one chunk object.
        """
        s = self._s
        if s is None:
            for _, cols in _windows(1, self._lo.size, size):
                yield self._lo[cols], self._hi[cols], cols.start
            return
        rest, views = np.arange(s, self.n, dtype=np.int64)[None], {}
        for rows, cols in _windows(s, rest.size, size):
            yield (np.arange(rows.start, rows.stop, dtype=np.int64)[:, None],
                   views.setdefault(cols.start, rest[:, cols]),
                   rows.start * rest.size + cols.start)


class QueryTranscript:
    """Immutable record of answered pairwise-difference queries: a
    QueryPlan and one answer per pair, in the plan's order.

    Each unordered pair appears at most once, keyed by its canonical
    orientation (i, j) with i < j; the stored answer lies in [0, k).
    Reading a pair against its orientation negates the answer mod k,
    so both directions reflect a single underlying noise draw.

    Answers are stored as _answer_dtype(k): int8 up to k = 127, a wider
    signed type above, and oriented_matrix returns that type. Every
    question about the pairs goes to the plan, so the transcript never
    asks which form the plan has.
    """

    __slots__ = ("k", "_plan", "_ans")

    def __init__(self, n: int, k: int,
                 lo: np.ndarray | Sequence[int],
                 hi: np.ndarray | Sequence[int],
                 answers: np.ndarray | Sequence[int]):
        """Transcript of the answers[t] to the canonical pairs
        (lo[t], hi[t]), given in any order.

        The values are checked in int64 and copied, so out-of-range
        input never wraps and a caller's array is never aliased or
        frozen. Raises ValueError naming the first entry whose pair is
        not i < j in [0, n) (IdentityPairError when only the order is
        wrong) or whose answer is not in [0, k), and RepeatQueryError
        naming a pair given twice.
        """
        _check_size("k", k)
        lo = _int64_array(lo, "pair endpoints")
        hi = _int64_array(hi, "pair endpoints")
        ans = _int64_array(answers, "answers")
        if not (lo.size == hi.size == ans.size):
            raise ValueError("lo, hi and answers must have equal length")
        lo, hi, ans = _sorted_entries(n, lo, hi, ans, k, RepeatQueryError,
                                      "transcript contains a duplicated pair")
        ans = ans.astype(_answer_dtype(k))
        ans.flags.writeable = False
        self.k, self._plan, self._ans = int(k), QueryPlan._of(n, None, lo, hi), ans

    @classmethod
    def _from_plan(cls, plan: QueryPlan, k: int, answers: np.ndarray) -> "QueryTranscript":
        """Transcript of plan's pairs, with answers[t] for its t-th pair.

        answers is a flat C-contiguous array of _answer_dtype(k); it is
        frozen and kept without a copy. Raises ValueError naming the
        first pair whose answer is not in [0, k).
        """
        if answers.size and (answers.min() < 0 or answers.max() >= k):
            t = int(((answers < 0) | (answers >= k)).argmax())
            raise ValueError(f"answers must lie in [0, {k}), got {int(answers[t])} "
                             f"for pair ({int(plan.lo[t])}, {int(plan.hi[t])})")
        answers.flags.writeable = False
        transcript = cls.__new__(cls)
        transcript.k, transcript._plan, transcript._ans = int(k), plan, answers
        return transcript

    @property
    def n(self) -> int:
        return self._plan.n

    def __len__(self) -> int:
        return self._ans.size

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self._plan

    def items(self) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, answer) triples in sorted (i, j) order."""
        return zip(self._plan.lo.tolist(), self._plan.hi.tolist(), self._ans.tolist())

    def lookup_oriented(self, x: int, y: int) -> int:
        """Answer for the ordered read (x, y): stored value if x < y,
        its negation mod k if x > y.

        Raises ValueError if a node lies outside [0, n), IdentityPairError
        if x == y and MissingPairError if the pair was never queried.
        """
        pos = self._plan._position(x, y)
        if pos < 0:
            if not (0 <= x < self.n and 0 <= y < self.n):
                raise ValueError(f"nodes must lie in [0, {self.n}), got ({x}, {y})")
            raise MissingPairError(f"pair {canonical_pair(x, y)} was never queried")
        a = int(self._ans[pos])
        return a if x < y else (self.k - a) % self.k

    def oriented_matrix(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """The seed x rest block of answers, entry [i, t] for the pair
        (rows[i], cols[t]), in the transcript's answer type.

        rows must be the seed 0, 1, ..., s - 1 and cols the rest
        s, s + 1, ..., n - 1 for one 1 <= s < n, so each pair is read in
        its stored orientation. The read is a read-only view of the
        stored answers where the block's pairs are consecutive in the
        plan, as in any transcript of exactly those pairs, and one
        gathered copy otherwise.

        Raises ValueError naming a node that is not an integer, or if
        rows and cols are not such a split, and MissingPairError naming
        the first absent pair in row-major order.
        """
        r, c = _int64_array(rows, "rows"), _int64_array(cols, "cols")
        n, s = self.n, r.size
        if not (1 <= s < n and np.array_equal(r, np.arange(s))
                and np.array_equal(c, np.arange(s, n))):
            raise ValueError(f"oriented_matrix reads rows 0 .. s-1 against cols "
                             f"s .. n-1 for one 1 <= s < n = {n}")
        return self._plan._block(self._ans, s)

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
        the line number and text of the first line with a field beyond
        the int64 range, or of the first triple whose pair is not i < j
        in [0, n) (IdentityPairError when only the order is wrong) or
        whose answer is not in [0, k). A pair given on two lines
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
        for name, value in (("k", k), ("n", n)):
            if value < 2:
                raise ValueError(f"transcript header {header!r}: {name} must be an "
                                 f"integer >= 2, got {value}")
            if value >= 2**63:
                raise ValueError(f"transcript header {header!r}: "
                                 f"{_int64_range_error(name, value)}")
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
        try:
            arr = np.array(triples, dtype=np.int64).reshape(-1, 3)
        except OverflowError:
            t, v = next((t, v) for t, triple in enumerate(triples) for v in triple
                        if not -2**63 <= v < 2**63)
            no, ln = lines[1 + t]
            raise ValueError(f"transcript line {no}: {ln!r}: "
                             f"{_int64_range_error('fields', v)}") from None
        try:
            return cls(n, k, arr[:, 0], arr[:, 1], arr[:, 2])
        except ValueError as err:
            if not hasattr(err, "entry"):
                raise
            no, ln = lines[1 + err.entry]
            raise type(err)(f"transcript line {no}: {ln!r}: {err}") from None
