"""Reconstruction over the simplex under unit-vector additions.

A tandem duplication of a fixed block length acts on a reduced
representation of the string as the addition of one unit vector to a
non-negative integer vector of constant weight.  Reconstruction from many
duplicated copies therefore reduces to: reads live in the upward ball
B_t^+(x) (coordinatewise >= x, total excess <= t), and the componentwise
minimum falls back toward x.

The read-count formula C(m + t - delta, m) + 1 is tight for read sets of
constant excess weight, i.e. all reads produced by the same number (<= t)
of duplications -- the count of reads that can agree on delta shared excess
units is largest on the outermost shell.  Mixed-weight read sets can defeat
the formula when delta < t (a documented model boundary), so the generators
here work shell by shell.

The error-ball enumerator (``combinatorics._lex_rows``, each excess costing
itself) builds the excess vectors of B_t^+(0) as a lexicographically
ordered int64 matrix, kept in the one cache; shell w is its rows of excess
w.  A read set of x + shell has componentwise minimum x + z, z the minimum
of its subset of the shell, and the one Möbius inversion
(``combinatorics.subsets_with_minimum``, through ``_shell_minimum_count``)
counts the shell's N-subsets with minimum z from the gap w - |z| alone.  So
the counter enumerates no subset and builds no shell: it reads the
candidate minima z from the one cached upward ball, and ``_shells`` serves
the oracle ``exhaustive_simplex_read_sets`` and, for its last shell, the
workload helper ``greedy_simplex_code``.  The rows x + z, one per
codeword x and distinct z, are built a block of codewords at a time and
decoded by ``SimplexCode.decode_rows``, the only decoder, which tests each
row against every member at once; the rows that decode to their own x are
counted per excess |z| and weighted by the sets of all shells with that
minimum, in Python ints.  The rows are int64 while r + t stays below 2**62
and Python ints (an object array) past it, so a code of any entries is
counted exactly.  The cap is charged the whole upward ball before the
lookup, and every shell's subset count where the subsets are enumerated
(``exhaustive_simplex_read_sets``).  Outside vectors become matrices by
``core.int_rows``; where reads are int64 rows (``upward_ball``,
``exhaustive_simplex_read_sets``, ``reconstruct_simplex_min``), x plus any
excess must stay below 2**62 (``core.check_entries``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Optional

import numpy as np

from magrec.combinatorics import _lex_rows, cached, subsets_with_minimum
from magrec.core import (
    DEFAULT_ENUM_CAP,
    ENTRY_LIMIT,
    ReconstructionError,
    Vec,
    charge,
    check_entries,
    int_rows,
    parse_int,
    payload_lines,
    rows_per_block,
)


def is_simplex_member(v: Vec, m: int, r: int) -> bool:
    """Membership in the simplex: m + 1 non-negative entries summing to r."""
    return len(v) == m + 1 and min(v, default=0) >= 0 and sum(v) == r


def _excess(k: int, t: int, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """B_t^+(0) in Z^k: the non-negative int64 rows of sum at most t, in
    lexicographic order, from the error-ball enumerator with each excess
    costing itself, kept read-only in the one cache under ("excess", k, t);
    charged against ``cap`` first, and a t below 0 is a ValueError."""
    if t < 0:
        raise ValueError("t must be >= 0")
    charge(math.comb(k + t, k), "upward ball vectors", cap)
    steps = np.arange(t + 1)
    return cached(("excess", k, t), lambda: _lex_rows(steps, steps, k, t))


def _shift(x: Vec, t: int) -> np.ndarray:
    """x as an int64 row, after checking that x plus any excess up to t
    stays within the int64-safe range."""
    (shift,) = int_rows([x], "x")
    check_entries(int(shift.min()), int(shift.max()) + t)
    return shift


def upward_ball(x: Vec, t: int, cap: int = DEFAULT_ENUM_CAP) -> tuple[Vec, ...]:
    """All y >= x componentwise with total excess at most t, lex order.

    Size is C(m + 1 + t, m + 1) for x of length m + 1.
    """
    return tuple(map(tuple, (_excess(len(x), t, cap) + _shift(x, t)).tolist()))


def reads_required_simplex(m: int, t: int, delta: int) -> int:
    """C(m + t - delta, m) + 1 reads guarantee min-based recovery."""
    if not 1 <= delta <= t:
        raise ValueError(f"need 1 <= delta <= t, got delta={delta}, t={t}")
    return math.comb(m + t - delta, m) + 1


def _l1_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The l1 distance of each row of A to each row of B, as an (|A|, |B|)
    matrix; in Python ints when either is an object array."""
    return np.abs(A[:, None, :] - B).sum(axis=2)


@dataclass(frozen=True)
class SimplexCode:
    """Explicit code inside a simplex, with its reconstruction distance.

    Load-time validation rejects members outside the simplex and codes whose
    minimum pairwise l1 distance falls below 2 * delta, which is exactly what
    the radius-(delta - 1) upward decoder needs for uniqueness.
    """

    m: int
    r: int
    delta: int
    members: tuple[Vec, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(map(tuple, int_rows(self.members, "codewords").tolist())))
        if not members:
            raise ValueError("simplex code needs at least one codeword")
        for v in members:
            if not is_simplex_member(v, self.m, self.r):
                raise ValueError(f"{v} is not in the weight-{self.r} simplex")
        if len(set(members)) != len(members):
            raise ValueError("duplicate codewords")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        # entries lie in [0, r], so below ENTRY_LIMIT int64 holds every row
        # sum and every l1 distance (at most 2r)
        M = np.array(members, dtype=np.int64 if self.r < ENTRY_LIMIT else object)
        step = rows_per_block(8 * M.size)
        for start in range(0, len(M), step):
            d = _l1_distances(M[start:start + step], M)
            # the pairs i < j, in row-major order, which is combinations order
            rows = np.arange(start, start + len(d))[:, None]
            close = (d < 2 * self.delta) & (np.arange(len(M)) > rows)
            if close.any():
                i, j = np.unravel_index(close.argmax(), close.shape)
                raise ValueError(
                    f"l1 distance {d[i, j]} between {members[start + i]} and {members[j]} "
                    f"is below 2*delta = {2 * self.delta}"
                )
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_matrix", M)

    def decode_rows(self, U: np.ndarray, radius: int) -> tuple[np.ndarray, np.ndarray]:
        """(first, found): for each row z of U, ``members[first]`` is the
        first member c, in sorted order, with z >= c componentwise and
        |z| - r <= radius, where ``found`` is set (off it, no member is).

        Unique whenever radius <= delta - 1.  U is int64 when the absolute
        sum of each row is below ``ENTRY_LIMIT`` and Python ints (an object
        array) otherwise; the members are one matrix, int64 below
        ``ENTRY_LIMIT`` and Python ints past it.  Each block of
        ``rows_per_block`` rows is tested against every member at once.
        """
        M = self._matrix
        first = np.zeros(len(U), dtype=np.intp)
        found = np.zeros(len(U), dtype=bool)
        step = rows_per_block(8 * M.size)
        for start in range(0, len(U), step):
            block = U[start:start + step]
            hit = (block[:, None, :] >= M).all(axis=2)
            first[start:start + step] = hit.argmax(axis=1)
            found[start:start + step] = hit.any(axis=1) & (block.sum(axis=1) <= self.r + radius)
        return first, found

    def decode_upward(self, z: Vec, radius: int) -> Optional[Vec]:
        """``decode_rows`` on the one row z: the codeword c with z in its
        radius-``radius`` upward ball, or None."""
        U = int_rows([z], "z")
        big = sum(map(abs, U[0].tolist())) >= ENTRY_LIMIT  # decode_rows sums each row
        first, found = self.decode_rows(U.astype(object) if big else U, radius)
        return self.members[first[0]] if found[0] else None


def reconstruct_simplex_min(
    Y: Iterable[Vec], code: SimplexCode, delta: int
) -> Vec:
    """Componentwise minimum, then a radius-(delta - 1) upward decode.

    Exact for constant-excess read sets of size >= reads_required_simplex.
    """
    reads = list(Y)
    if {np.shape(y) for y in reads} != {(code.m + 1,)}:
        raise ValueError(f"read set must be nonempty, of length-{code.m + 1} reads")
    R = int_rows(reads, "reads")
    check_entries(R.min(), R.max())
    c = code.decode_upward(R.min(axis=0), delta - 1)
    if c is None:
        raise ReconstructionError(
            "upward decode failed: reads are not from one codeword's upward ball "
            "or too few"
        )
    return c


def _shells(k: int, t: int, cap: int) -> Iterator[np.ndarray]:
    """The constant-excess shells w = 0..t of B_t^+(0) in Z^k, in
    lexicographic order: the rows of each excess of the one upward ball."""
    ball = _excess(k, t, cap)
    level = ball.sum(axis=1)
    for w in range(t + 1):
        yield ball[level == w]


def _shell_minimum_count(m: int, gap: int, count: int) -> int:
    """How many ``count``-subsets of a weight-w shell in Z^(m + 1) have
    componentwise minimum z, for any z >= 0 with gap = w - |z| >= 0: the
    shell has C(m + w - |y|, m) rows >= y (none when |y| > w), so its m + 1
    coordinates are one class of ``subsets_with_minimum``."""
    above = [math.comb(m + gap - j, m) if j <= gap else 0 for j in range(m + 2)]
    return subsets_with_minimum([m + 1], lambda _: above, count)


def exhaustive_simplex_read_sets(
    x: Vec, t: int, count: int, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[tuple[Vec, ...]]:
    """All size-``count`` subsets of each constant-excess shell of B_t^+(x),
    one by one, in lexicographic subset order; ``cap`` bounds the ball and
    each shell's subset count."""
    shift = _shift(x, t)
    for shell in _shells(len(x), t, cap):
        charge(math.comb(len(shell), count), "upward shell read sets", cap)
        yield from combinations(map(tuple, (shell + shift).tolist()), count)


def simplex_min_counts(
    code: SimplexCode, t: int, count: int, delta: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, int]:
    """(sets, successes) of min-decoding every size-``count`` subset of every
    constant-excess shell of every codeword's B_t^+(x); a set succeeds when
    it decodes to its own codeword.

    Shell w holds C(m + w, m) reads, and ``_shell_minimum_count`` counts its
    sets with minimum x + z from the gap w - |z| alone: the rows x + z, one
    per codeword x and z of the upward ball B_t^+(0) that is some set's
    minimum, are decoded a block of codewords at a time by ``decode_rows``;
    the rows that decode to their own x are counted per excess |z| and
    weighted by the sets with that minimum of the shells of gap 0..t - |z|.
    ``cap`` bounds the ball, charged before anything is counted; the subsets
    are not built, so their count is not charged."""
    if count < 1:
        raise ValueError("read set must be nonempty")
    if t < 0:
        raise ValueError("t must be >= 0")
    m = code.m
    charge(math.comb(m + 1 + t, m + 1), "upward ball vectors", cap)
    sets = len(code.members) * sum(math.comb(math.comb(m + w, m), count) for w in range(t + 1))
    weight = list(accumulate(_shell_minimum_count(m, gap, count) for gap in range(t + 1)))[::-1]
    if not any(weight):  # no shell holds count reads: no ball to build
        return sets, 0
    Z = _excess(m + 1, t, cap)
    Z = Z[np.array(list(map(bool, weight)))[Z.sum(axis=1)]]
    level = Z.sum(axis=1)
    # x + z sums to at most r + t, so int64 rows stay exact below ENTRY_LIMIT
    Z = Z.astype(object) if code.r + t >= ENTRY_LIMIT else Z
    X, hits = code._matrix, np.zeros(t + 1, dtype=np.int64)
    step = rows_per_block(8 * Z.size)  # codewords per block of x + z rows
    for start in range(0, len(X), step):
        block = X[start:start + step]
        rows = (block[:, None, :] + Z).reshape(-1, m + 1)
        first, found = code.decode_rows(rows, delta - 1)
        own = found & (first == np.arange(start, start + len(block)).repeat(len(Z)))
        hits += np.bincount(np.tile(level, len(block))[own], minlength=t + 1)
    return sets, sum(h * w for h, w in zip(hits.tolist(), weight))


def greedy_simplex_code(m: int, r: int, delta: int) -> SimplexCode:
    """Greedy maximal code in the simplex with l1 distance >= 2 * delta,
    scanning simplex members in lexicographic order: the simplex is the
    last shell of the one upward ball B_r^+(0) in Z^(m + 1)."""
    *_, simplex = _shells(m + 1, r, DEFAULT_ENUM_CAP)
    chosen: list[int] = []
    for i in range(len(simplex)):
        if (_l1_distances(simplex[i:i + 1], simplex[chosen]) >= 2 * delta).all():
            chosen.append(i)
    return SimplexCode(m, r, delta, tuple(map(tuple, simplex[chosen].tolist())))


def parse_simplex_code(text: str, source: str = "simplex code") -> SimplexCode:
    """Parse the simplex code file format.

    UTF-8 text; ``#`` starts a comment; the first payload line is a header
    ``m=<int>,r=<int>,delta=<int>``; every later line is one codeword of
    m + 1 comma-separated integers.  A bad integer names ``source``'s line.
    """
    header: Optional[dict[str, int]] = None
    members: list[Vec] = []
    for where, line in payload_lines(text, source):
        if header is None:
            pairs = (part.partition("=") for part in line.split(","))
            header = {key.strip(): parse_int(value, where) for key, _, value in pairs}
            if set(header) != {"m", "r", "delta"}:
                raise ValueError(f"bad simplex header {line!r}")
        else:
            members.append(tuple(parse_int(v, where) for v in line.split(",")))
    if header is None:
        raise ValueError("missing simplex header line 'm=,r=,delta='")
    return SimplexCode(header["m"], header["r"], header["delta"], tuple(members))


def format_simplex_code(code: SimplexCode) -> str:
    lines = [f"m={code.m},r={code.r},delta={code.delta}"]
    lines.extend(",".join(map(str, v)) for v in code.members)
    return "\n".join(lines) + "\n"
