"""Shared domain types: integer vectors, channel parameters, and codes.

At the API edge vectors are plain tuples of Python ints (immutable,
hashable): codewords, decoder inputs and outputs, and the reads a
``ReadSet`` hands back.  Every vector from outside becomes a matrix through
``int_rows`` alone.  Inside, a read set is one (N, n) int64 matrix, so
its entries, and those of the codewords compared with it, must stay below
``ENTRY_LIMIT`` in magnitude; ``check_entries`` rejects anything larger
with a ValueError instead of letting int64 arithmetic wrap, and
``check_stack`` checks a stack of read sets (rows distinct, in order and
in range), run by ``reconstruction.ReadBlock``'s constructor on the stack
it is given and by ``combinatorics.ball_matrix`` on each ball it
enumerates, whose order every drawn set inherits; a code decodes
Python-int rows past it exactly (``Code.decode_rows``).  Everything in this
package is a pure function over such values or reads each entry of the one
locked cache (``combinatorics.cached``) once, so all of it is thread-safe.

The library's bounds live here.  Every loop whose work grows exponentially
charges its count against an enumeration cap (``DEFAULT_ENUM_CAP`` unless
given) with ``charge``, the one place that raises EnumerationCapExceeded,
before it builds what it counts.  Every block of rows a loop builds at
once (read stacks and indicators, random keys, erasure-fill candidates,
member chunks) holds ``rows_per_block(row_bytes)`` rows, at most
``BLOCK_BYTES`` of them, or one row when a row alone exceeds it.  Integers
are read from text by ``parse_int`` alone: ASCII decimal digits with an
optional sign.

Rows are keyed and grouped here alone: ``_row_keys`` keys rows in the
mixed-radix frame of ``radix_places``, int64 below 2**63 and Python ints past
it (``key_rows`` inverts it); ``group_keys`` is the one grouping sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

Vec = tuple[int, ...]


class EnumerationCapExceeded(RuntimeError):
    """An enumeration would produce more vectors than the configured cap."""


class ReconstructionError(RuntimeError):
    """A reconstruction procedure could not identify a codeword.

    Raised when decoding fails or no candidate covers the read set; this
    signals a violated precondition (reads not drawn from a single codeword
    ball, or too few of them), never an internal bug.
    """


#: Default bound on the size of every enumeration.
DEFAULT_ENUM_CAP = 10**7

#: Byte budget of one block of rows, 1 MiB; see ``rows_per_block``.  A
#: smaller block pays numpy's per-call cost over few rows (a stack of sets
#: of 337 reads of length 10 holds 4 sets at 128 KiB and 38 at 1 MiB); a
#: larger one outgrows the CPU caches (2 MiB was slower in paired runs).
BLOCK_BYTES = 2**20

#: Bound on the magnitude of read and codeword entries: the difference of
#: two entries below it still fits in int64.
ENTRY_LIMIT = 2**62


def charge(count: int, what: str, cap: int) -> None:
    """Raise EnumerationCapExceeded when an enumeration of ``count`` ``what``
    would pass ``cap``."""
    if count > cap:
        raise EnumerationCapExceeded(f"{count} {what} exceed enumeration cap {cap}")


def rows_per_block(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` (> 0) bytes fit in ``BLOCK_BYTES``, at
    least one."""
    return max(1, BLOCK_BYTES // row_bytes)


def check_entries(lo: int, hi: int) -> None:
    """Raise ValueError unless -ENTRY_LIMIT < lo and hi < ENTRY_LIMIT, where
    lo and hi bound the entries of some reads or codewords."""
    if lo <= -ENTRY_LIMIT or hi >= ENTRY_LIMIT:
        raise ValueError(
            f"entries in [{lo}, {hi}] exceed the int64-safe magnitude 2**62"
        )


def int_rows(vectors: Iterable, what: str) -> np.ndarray:
    """The vectors as one matrix, a row each: int64 when every entry is below
    ``ENTRY_LIMIT`` in magnitude, Python ints (an object array) otherwise.  A
    member that is no vector, an entry that is no ``int`` or NumPy integer,
    or vectors of two lengths are a ValueError naming ``what``."""
    try:
        rows = [tuple(v) for v in vectors]
    except TypeError:
        raise ValueError(f"{what} must be an integer matrix or an iterable of vectors") from None
    if len({len(v) for v in rows}) > 1:
        raise ValueError(f"{what} must share one length")
    entries = [x for v in rows for x in v]
    if bad := [x for x in entries if not isinstance(x, (int, np.integer))]:
        raise ValueError(f"entries of {what} must be integers, got {bad[0]!r}")
    big = entries and (min(entries) <= -ENTRY_LIMIT or max(entries) >= ENTRY_LIMIT)
    M = np.array(list(map(int, entries)) if big else entries, dtype=object if big else np.int64)
    return M.reshape(len(rows), len(rows[0]) if rows else 0)


def check_ints(**vectors: Vec) -> None:
    """Raise the ValueError of ``int_rows``, naming the vector, unless each
    of ``vectors`` (by name) holds integers alone; a vector of Python ints
    passes without a matrix being built."""
    for what, v in vectors.items():
        if not set(map(type, v)) <= {int}:
            int_rows([v], what)


def check_stack(stack: np.ndarray, params: ChannelParams) -> np.ndarray:
    """``stack`` itself, after checking that it is an (S, N, n) int64 array of
    nonempty read sets, each of distinct rows in lexicographic order, with
    entries below ``ENTRY_LIMIT`` in magnitude; raises ValueError otherwise.

    Rows are sorted and distinct when the first nonzero entry of each
    difference of consecutive rows is positive.
    """
    if stack.size == 0:
        raise ValueError("read set must be nonempty")
    if stack.dtype != np.int64 or stack.ndim != 3 or stack.shape[2] != params.n:
        raise ValueError(f"reads must form an (N, n={params.n}) int64 matrix")
    check_entries(int(stack.min()), int(stack.max()))
    # consecutive row differences, one per line; no wrap below 2**62
    step = (stack[:, 1:] - stack[:, :-1]).reshape(-1, params.n)
    if not (step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all():
        raise ValueError("reads must be distinct, and a matrix's rows sorted")
    return stack


def _column_reduce(M: np.ndarray, reduce) -> np.ndarray:
    """``reduce(M, axis=0)`` of the nonempty (R, n) matrix M, ``reduce``
    being ``np.minimum.reduce`` or ``np.maximum.reduce``, in flat passes:
    runs of 64 rows reduce as one (R // 64, 64 n) matrix, whose 64 partial
    rows then fold with the tail.  An axis-0 reduction of a tall, narrow
    matrix pays numpy's per-row cost on each of its R rows (about 4 times
    slower at (3749, 8))."""
    R, n = M.shape
    head = R - R % 64
    folded = M[head:]
    if head:
        runs = reduce(M[:head].reshape(head // 64, 64 * n), axis=0)
        folded = np.concatenate((runs.reshape(64, n), folded))
    return reduce(folded, axis=0)


def radix_places(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The place value of each column of rows within [lo, hi], the product
    of the later columns' ranges, so that the keys (M - lo) @ place order
    like the rows M: int64 below 2**63, Python ints (an object array) past."""
    place, size = [], 1
    for low, high in zip(lo.tolist()[::-1], hi.tolist()[::-1]):
        place.append(size)
        size *= high - low + 1
    return np.array(place[::-1], dtype=np.int64 if size < 2**63 else object)


def key_rows(keys: np.ndarray, lo: np.ndarray, place: np.ndarray) -> np.ndarray:
    """The rows M, in lo's dtype, of the keys (M - lo) @ place: a column's
    digit is key // place less its range times the quotient of the one before."""
    rows = keys[:, None] // place
    rows[:, 1:] -= rows[:, :-1] * (place[:-1] // place[1:])
    return (rows + lo).astype(lo.dtype, copy=False)


def _starts(values: np.ndarray) -> np.ndarray:
    """Whether each entry of ``values``, sorted along its last axis, starts
    a run of equal entries there."""
    new = np.ones(values.shape, dtype=bool)
    np.not_equal(values[..., 1:], values[..., :-1], out=new[..., 1:])
    return new


def group_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the 1-D array ``keys``, int64 or Python ints, as
    ``np.unique(keys, return_index=True, return_inverse=True)`` gives them,
    from one default ``argsort`` (``np.unique`` and a stable sort run merge
    sorts, 3 times slower at 10k keys): a run of equal keys is first at its
    least index."""
    order = keys.argsort()
    new = _starts(keys[order])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = new.cumsum() - 1
    return np.minimum.reduceat(order, new.nonzero()[0]) if len(keys) else order, inverse


def _row_keys(M: np.ndarray) -> np.ndarray:
    """One key per row of the integer matrix M (int64 or object), ordered
    like the rows lexicographically: key i < key j exactly when row i < row
    j, so that ``group_keys`` of the keys groups the rows.  The key is (M -
    lo) @ ``radix_places(lo, hi)``, lo and hi the column ranges from
    ``_column_reduce``'s flat passes, and M - lo is in Python ints where the
    place values are."""
    if not len(M):
        return np.zeros(0, dtype=np.int64)
    lo, hi = _column_reduce(M, np.minimum.reduce), _column_reduce(M, np.maximum.reduce)
    place, D = radix_places(lo, hi), M - lo
    if place.dtype == object and D.dtype == np.int64:
        # an int64 difference wraps past 2**63, but read as uint64 it is exact,
        # and converts faster than a subtraction in Python ints
        D = D.view(np.uint64).astype(object)
    return D @ place


def distinct_rows(M: np.ndarray) -> np.ndarray:
    """The distinct rows of M, sorted, by ``group_keys`` of ``_row_keys``."""
    return M[group_keys(_row_keys(M))[0]]


def parse_int(text: str, where: str) -> int:
    """The integer ``text`` writes in ASCII decimal digits, with an optional
    sign and the surrounding whitespace that ``int`` allows; anything else,
    such as ``1_0`` or a non-ASCII digit, is a ValueError naming
    ``where``."""
    number = text.strip()
    digits = number[1:] if number[:1] in "+-" else number
    if digits.isascii() and digits.isdigit():  # ASCII digits are 0-9 alone
        try:
            return int(number)
        except ValueError:  # past int's digit limit
            pass
    raise ValueError(f"{where}: bad integer {number!r}")


def payload_lines(text: str, source: str) -> Iterator[tuple[str, str]]:
    """(where, line) of each non-blank line of code file ``source``, ``#``
    comments cut off; ``where`` names the file and line for ``parse_int``."""
    for number, raw in enumerate(text.splitlines(), 1):
        if line := raw.split("#", 1)[0].strip():
            yield f"{source} line {number}", line


@dataclass(frozen=True)
class ChannelParams:
    """Channel description: length n, at most t errors, each in [-k_minus, k_plus].

    ``t = 0`` is accepted (the ball degenerates to the zero vector); decoders
    routinely search radius-0 balls.
    """

    n: int
    t: int
    k_plus: int
    k_minus: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.t <= self.n:
            raise ValueError(f"t must be in [0, n={self.n}], got {self.t}")
        if self.k_minus < 0 or self.k_plus < self.k_minus:
            raise ValueError(
                f"need k_plus >= k_minus >= 0, got ({self.k_plus}, {self.k_minus})"
            )
        if self.k_plus < 1:
            raise ValueError("k_plus + k_minus = 0 makes the channel trivial")

    @property
    def magnitude_span(self) -> int:
        return self.k_plus + self.k_minus


class _Erasure:
    __slots__ = ()

    def __repr__(self) -> str:
        return "?"


#: Sentinel marking an erased coordinate in an EstimateWord.
ERASURE = _Erasure()


@dataclass(frozen=True)
class EstimateWord:
    """Length-n word over int-or-erasure produced by the majority vote."""

    entries: tuple

    def __len__(self) -> int:
        return len(self.entries)


class Code:
    """A code over Z^n: membership test plus a bounded-radius unique decoder.

    ``decode_rows(U, radius, params)`` decodes each row z of an (M, n)
    matrix U into an (M, n) matrix C and a found mask (a row of C off the
    mask is no codeword): the first c = z - e in the code, e running over
    the error ball B(n, radius, k_plus, k_minus) in lexicographic order, so
    the result is deterministic; when the code corrects ``radius`` errors
    it is independent of that order.  U is int64 when its entries are below
    ``ENTRY_LIMIT`` in magnitude and Python ints (an object array)
    otherwise; each subclass decodes both exactly.

    ``decode_within(z, radius, params)`` is ``decode_rows`` on the one row
    z: the codeword, or None when no codeword lies in the search window.
    """

    def contains(self, v: Vec) -> bool:
        raise NotImplementedError

    def decode_rows(
        self, U: np.ndarray, radius: int, params: ChannelParams, cap: int = DEFAULT_ENUM_CAP
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def decode_within(
        self, z: Vec, radius: int, params: ChannelParams, cap: int = DEFAULT_ENUM_CAP
    ) -> Optional[Vec]:
        C, found = self.decode_rows(int_rows([z], "z"), radius, params, cap)
        return tuple(C[0].tolist()) if found[0] else None


class ExplicitCode(Code):
    """A finite, explicitly listed code.  z - e runs down the lexicographic
    order as e runs up the ball's, so ``decode_rows`` tests the members (one
    matrix, int64 below ``ENTRY_LIMIT`` and Python ints beyond) from the
    largest down, a chunk at a time: every unfound row against every member
    of the chunk in one (M, chunk, n) block, each member charged its M rows
    of differences (``rows_per_block``), each row taking its first hit."""

    def __init__(self, members: Iterable[Vec]):
        M = int_rows(members, "codewords")
        if not len(M):
            raise ValueError("explicit code needs at least one codeword")
        self.members: tuple[Vec, ...] = tuple(sorted(map(tuple, M.tolist())))
        self._set = frozenset(self.members)
        if len(self._set) != len(M):
            raise ValueError("duplicate codewords")
        self.n = M.shape[1]
        self._largest_first = np.array(self.members[::-1], dtype=M.dtype)

    def contains(self, v: Vec) -> bool:
        return v in self._set

    def decode_rows(
        self, U: np.ndarray, radius: int, params: ChannelParams, cap: int = DEFAULT_ENUM_CAP
    ) -> tuple[np.ndarray, np.ndarray]:
        C, found = U.copy(), np.zeros(len(U), dtype=bool)
        todo = np.arange(len(U))
        members, start = self._largest_first, 0
        while len(todo) and start < len(members):
            chunk = rows_per_block(8 * len(todo) * self.n)
            block = members[start:start + chunk]
            start += chunk
            e = U[todo, None, :] - block
            hit = ((e >= -params.k_minus) & (e <= params.k_plus)).all(axis=2)
            hit &= (e != 0).sum(axis=2) <= radius
            rows = hit.any(axis=1)
            C[todo[rows]] = block[hit[rows].argmax(axis=1)]
            found[todo[rows]] = True
            todo = todo[~rows]
        return C, found

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

