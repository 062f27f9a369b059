"""Shared domain types: integer vectors, channel parameters, and codes.

At the API edge vectors are plain tuples of Python ints (immutable,
hashable): codewords, decoder inputs and outputs, and the reads a
``ReadSet`` hands back.  Inside, a read set is one (N, n) int64 matrix, so
its entries, and those of the codewords compared with it, must stay below
``ENTRY_LIMIT`` in magnitude; ``check_entries`` rejects anything larger
with a ValueError instead of letting int64 arithmetic wrap.  Everything in
this package is a pure function over such values, so all of it is safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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


DEFAULT_ENUM_CAP = 10**7

#: Entries of one code handle's decode memo; a full memo is cleared.
DECODE_MEMO_ENTRIES = 2**14

#: Bound on the magnitude of read and codeword entries: the difference of
#: two entries below it still fits in int64.
ENTRY_LIMIT = 2**62


def check_entries(lo: int, hi: int) -> None:
    """Raise ValueError unless -ENTRY_LIMIT < lo and hi < ENTRY_LIMIT, where
    lo and hi bound the entries of some reads or codewords."""
    if lo <= -ENTRY_LIMIT or hi >= ENTRY_LIMIT:
        raise ValueError(
            f"entries in [{lo}, {hi}] exceed the int64-safe magnitude 2**62"
        )


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

    ``decode_within(z, radius, params)`` returns a codeword c with
    z in c + B(n, radius, k_plus, k_minus), or None when no codeword lies in
    the search window: the first c = z - e in the code, e running over the
    error ball in lexicographic order, so the result is deterministic; when
    the code corrects ``radius`` errors the result is independent of that
    order.  Results are memoized per handle, at most
    ``DECODE_MEMO_ENTRIES`` of them; ``_search`` computes a miss, by default
    with a scan of the window.

    ``decode_rows(U, radius, params)`` decodes each row of an (M, n) int64
    matrix alike into an (M, n) int64 matrix C and a found mask (a row of C
    off the mask is no codeword), here by ``decode_within`` per row.
    """

    def contains(self, v: Vec) -> bool:
        raise NotImplementedError

    def decode_within(
        self, z: Vec, radius: int, params: ChannelParams, cap: int = DEFAULT_ENUM_CAP
    ) -> Optional[Vec]:
        key = (z, radius, params.k_plus, params.k_minus)
        memo = self._memo()
        if key in memo:
            return memo[key]
        if len(memo) >= DECODE_MEMO_ENTRIES:
            memo.clear()
        result = memo[key] = self._search(z, radius, params, cap)
        return result

    def decode_rows(
        self, U: np.ndarray, radius: int, params: ChannelParams, cap: int = DEFAULT_ENUM_CAP
    ) -> tuple[np.ndarray, np.ndarray]:
        rows = U.tolist()
        found = [self.decode_within(tuple(z), radius, params, cap) for z in rows]
        C = np.array([z if c is None else c for z, c in zip(rows, found)], dtype=np.int64)
        return C.reshape(U.shape), np.array([c is not None for c in found], dtype=bool)

    def _search(
        self, z: Vec, radius: int, params: ChannelParams, cap: int
    ) -> Optional[Vec]:
        return _first_in_window(self.contains, z, radius, params, cap)

    def _memo(self) -> dict:
        memo = getattr(self, "_decode_memo", None)
        if memo is None:
            memo = {}
            object.__setattr__(self, "_decode_memo", memo)
        return memo


class ExplicitCode(Code):
    """A finite, explicitly listed code."""

    def __init__(self, members: Iterable[Vec]):
        members = [tuple(m) for m in members]
        if not members:
            raise ValueError("explicit code needs at least one codeword")
        n = len(members[0])
        if any(len(m) != n for m in members):
            raise ValueError("codewords must share one length")
        if len(set(members)) != len(members):
            raise ValueError("duplicate codewords")
        self.members: tuple[Vec, ...] = tuple(sorted(members))
        self.n = n
        self._set = frozenset(self.members)

    def contains(self, v: Vec) -> bool:
        return v in self._set

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _first_in_window(
    contains, z: Vec, radius: int, params: ChannelParams, cap: int = DEFAULT_ENUM_CAP
) -> Optional[Vec]:
    """First c = z - e with ``contains(c)``, e running over the error ball (at
    most ``cap`` vectors) in lexicographic order; None when there is none."""
    from magrec.combinatorics import ball_matrix  # combinatorics imports core

    # Python ints, so z beyond int64 is exact
    for e in ball_matrix(len(z), radius, params.k_plus, params.k_minus, cap=cap).tolist():
        c = tuple(zi - ei for zi, ei in zip(z, e))
        if contains(c):
            return c
    return None
