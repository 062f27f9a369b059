"""Finite Abelian groups, partial splittings, and single-error lattice codes.

A lattice code is the kernel of a syndrome map x -> sum x[i] * s[i] into a
finite Abelian group G, given by a splitter vector s in G^n.  Groups are
represented canonically as products of cyclic groups (every construction used
here is in fact cyclic).  The module provides:

* the splitting test equivalent to the lattice packing of the error ball,
  read off a table of coset leaders,
* the condition checkers for lattice codes whose radius-1 balls pairwise
  intersect in at most 1 (resp. 2) points,
* the all-ones constructions attaining the group-order lower bounds,
* ``LatticeCode``, whose bounded-radius decoder looks the syndromes of a
  whole matrix up in the same table, and
* the exact intersection check over the lattice differences,
  ``max_pairwise_intersection_lattice``, one count per distinct sorted
  difference row (``core.distinct_rows``, cached), which certifies all of
  the above on small instances (the packing is its value 0).

Every function of a channel takes it as one ``ChannelParams`` p whose n is
the splitter's length.  The radius-1 statements (``check_recon_N1``,
``check_recon_N2``, the constructions and ``min_group_order_bound``) need
p.t = 1, and each is certified by ``max_pairwise_intersection_lattice``
with the same p.

One matrix kernel, ``_syndrome_codes``, computes every syndrome of the
tables, the decoder and the packing check, exact for a group of any order,
and every vector set it is applied to is a ``combinatorics.ball_matrix``,
charged against the enumeration cap before it is built.  The distance is
read off the splitting test, and it and every decode share one table per
(spec, ball) in ``combinatorics.cached``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import mul

import numpy as np

from magrec.core import (
    DEFAULT_ENUM_CAP,
    ChannelParams,
    Code,
    Vec,
    charge,
    check_ints,
    distinct_rows,
    group_keys,
    parse_int,
)
from magrec import combinatorics

GroupElement = tuple[int, ...]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z_m1 x ... x Z_mk, each modulus >= 2."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.moduli or any(m < 2 for m in self.moduli):
            raise ValueError(f"moduli must all be >= 2, got {self.moduli}")

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def identity(self) -> GroupElement:
        return (0,) * len(self.moduli)

    def element(self, coords) -> GroupElement:
        coords = tuple(coords)
        if len(coords) != len(self.moduli):
            raise ValueError("coordinate count must match moduli")
        return tuple(c % m for c, m in zip(coords, self.moduli))

    def scale(self, k: int, g: GroupElement) -> GroupElement:
        """k-fold sum of g, extended to k <= 0 in the natural way."""
        return tuple((k * x) % m for x, m in zip(g, self.moduli))

    def __str__(self) -> str:
        return "x".join(f"Z{m}" for m in self.moduli)


def cyclic(m: int) -> FiniteAbelianGroup:
    return FiniteAbelianGroup((m,))


@dataclass(frozen=True)
class SplitterSpec:
    """A group together with a splitter vector s in G^n.

    The associated lattice is {x in Z^n : sum x[i] s[i] = identity}.
    """

    group: FiniteAbelianGroup
    s: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        if not self.s:
            raise ValueError("splitter vector must be nonempty")
        norm = tuple(self.group.element(g) for g in self.s)
        object.__setattr__(self, "s", norm)

    @property
    def n(self) -> int:
        return len(self.s)

    @cached_property
    def forms(self) -> tuple[tuple[int, ...], ...]:
        """Per group component j, the coefficients (s[0][j], ..., s[n-1][j])
        of the linear form the syndrome reduces modulo moduli[j]."""
        return tuple(zip(*self.s))

    def __str__(self) -> str:
        if len(self.group.moduli) == 1:
            body = ",".join(str(g[0]) for g in self.s)
        else:
            body = ",".join("(" + ",".join(map(str, g)) + ")" for g in self.s)
        return f"group={self.group}; s=[{body}]"


def syndrome(spec: SplitterSpec, x: Vec) -> GroupElement:
    """sum x[i] * s[i] in the group, scalars extended to negative integers:
    per component j, the linear form sum x[i] * s[i][j] modulo moduli[j].
    An entry of x that is no integer is a ValueError (``core.check_ints``)."""
    if len(x) != spec.n:
        raise ValueError(f"length mismatch: vector {len(x)}, splitter {spec.n}")
    check_ints(x=x)
    return tuple(
        sum(map(mul, x, form)) % m for form, m in zip(spec.forms, spec.group.moduli)
    )


def _syndrome_codes(spec: SplitterSpec, U: np.ndarray) -> np.ndarray:
    """The syndrome of each row of the matrix U (int64, or Python ints for
    rows past int64) as one mixed-radix integer, moduli[0] the most
    significant digit.  Entries are reduced modulo m first, so a sum stays
    below n * m**2: in int64 while that and |G| are below 2**62 and U is
    int64, in Python ints (an object array) otherwise."""
    moduli = spec.group.moduli
    dtype = np.int64
    if spec.n * max(moduli) ** 2 >= 2**62 or spec.group.order >= 2**62:
        dtype, U = object, U.astype(object)
    codes = 0
    for form, m in zip(spec.forms, moduli):
        codes = codes * m + (U % m).dot(np.array(form, dtype=dtype)) % m
    return codes


def _coset_leaders(
    spec: SplitterSpec, p: ChannelParams, cap: int = DEFAULT_ENUM_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted syndrome codes taken on the ball B(n, t, k+, k-) of p and
    their coset leaders: the first ball row (lexicographic order) with each
    code (``group_keys``), cached under (spec, p); ``cap`` is charged first."""
    charge(combinatorics.ball_size(p), "ball vectors", cap)

    def build() -> tuple[np.ndarray, np.ndarray]:
        ball = combinatorics.ball_matrix(p, cap)
        codes = _syndrome_codes(spec, ball)
        first = group_keys(codes)[0]
        return codes[first], ball[first]

    return combinatorics.cached((spec, p), build)


def _check_length(spec: SplitterSpec, p: ChannelParams) -> None:
    if p.n != spec.n:
        raise ValueError(f"the channel has n={p.n}, the splitter n={spec.n}")


def check_partial_splitting(
    spec: SplitterSpec, p: ChannelParams, cap: int = DEFAULT_ENUM_CAP
) -> bool:
    """True iff all products e . s over coefficient vectors e with entries in
    [-k-, k+], 1 <= wt(e) <= t, are pairwise distinct and non-identity;
    equivalent to the lattice packing of the error ball B(n, t, k+, k-).

    The zero vector has the identity syndrome, so that holds exactly when
    the |B| vectors of the ball have |B| distinct syndromes, that is when
    every vector of the ball is its own coset leader.  Raises ValueError at
    t < 1 and when p.n is not the splitter's length.
    """
    if p.t < 1:
        raise ValueError("t must be >= 1")
    _check_length(spec, p)
    return len(_coset_leaders(spec, p, cap)[0]) == combinatorics.ball_size(p)


def _radius_one(p: ChannelParams, target: int) -> None:
    """Raise ValueError unless p is a channel of the radius-1 statements for
    pairwise intersections at most ``target``: t = 1, and k+ >= 2 at k- = 0
    for target 1, k- >= 1 and k+ + k- >= 3 for target 2."""
    if p.t != 1:
        raise ValueError(f"radius-1 statements need t = 1, got t={p.t}")
    if target == 1:
        if not p.k_minus and p.k_plus < 2:
            raise ValueError("needs k_plus >= 2 at k_minus = 0 (k_plus = 1 is the trivial case)")
    elif target == 2:
        if p.k_minus < 1 or p.magnitude_span < 3:
            raise ValueError("needs k_minus >= 1 and k_plus + k_minus >= 3")
    else:
        raise ValueError(f"unsupported target {target}; only 1 and 2 are known")


def _distinct_multiples(spec: SplitterSpec, lo: int, hi: int) -> bool:
    """Per coordinate i, the multiples a*s_i are distinct over a in [lo, hi)."""
    g = spec.group
    coefficients = range(lo, hi)
    return all(
        len({g.scale(a, si) for a in coefficients}) == len(coefficients) for si in spec.s
    )


def check_recon_N1(spec: SplitterSpec, p: ChannelParams) -> bool:
    """Radius-1 pairwise ball intersections of the lattice are <= 1 (t = 1).

    Implemented as the flat pairwise-distinctness form: per coordinate the
    products a*s_i over a in [-k-, k+-1] are distinct, and across coordinates
    a*s_i != b*s_j for a, b in [-k-, k-] not both zero.  At k- = 0 the
    second condition is empty and k+ must be at least 2.
    """
    _radius_one(p, 1)
    _check_length(spec, p)
    g, small = spec.group, range(-p.k_minus, p.k_minus + 1)
    return _distinct_multiples(spec, -p.k_minus, p.k_plus) and not any(
        g.scale(a, si) == g.scale(b, sj)
        for si, sj in combinations(spec.s, 2) for a in small for b in small if a or b
    )


def check_recon_N2(spec: SplitterSpec, p: ChannelParams) -> bool:
    """Radius-1 pairwise ball intersections are <= 2 (t = 1, k- >= 1,
    k+ + k- >= 3): per coordinate, a*s_i are distinct over a in [-k-, k+-2]."""
    _radius_one(p, 2)
    _check_length(spec, p)
    return _distinct_multiples(spec, -p.k_minus, p.k_plus - 1)


def construct_N1_code(p: ChannelParams) -> SplitterSpec:
    """All-ones splitter of length n over Z_{k+}: the sum-of-entries-mod-k+
    lattice, for a k- = 0 channel with t = 1.

    Its radius-1 intersections are <= 1 and its group order meets the lower
    bound k+ with equality.
    """
    _radius_one(p, 1)
    if p.k_minus:
        raise ValueError("the all-ones N1 code needs k_minus = 0")
    return SplitterSpec(cyclic(p.k_plus), ((1,),) * p.n)


def construct_N2_code(p: ChannelParams) -> SplitterSpec:
    """All-ones splitter of length n over Z_{k+ + k- - 1}; radius-1
    intersections <= 2, group order meets the lower bound k+ + k- - 1 with
    equality."""
    _radius_one(p, 2)
    return SplitterSpec(cyclic(p.magnitude_span - 1), ((1,),) * p.n)


def min_group_order_bound(p: ChannelParams, target: int) -> int:
    """Lower bound on |Z^n / lattice| for codes whose radius-1 balls (t = 1)
    pairwise intersect in at most ``target`` (1 or 2) points."""
    _radius_one(p, target)
    n, k_plus, k_minus = p.n, p.k_plus, p.k_minus
    if target == 2:
        return k_plus + k_minus - 1
    if not k_minus:
        return k_plus
    if k_plus > k_minus:
        return max(2 * n * k_minus + 1, k_plus + k_minus)
    return max(n * (k_plus + k_minus - 1) + 1, k_plus + k_minus)


class LatticeCode(Code):
    """CodeHandle for the lattice of a splitter spec: membership is a
    zero-syndrome test, and decoding looks the syndrome up in a table.

    z - e is a codeword iff e has the syndrome of z, so the lexicographically
    first e of the error ball with that syndrome (its coset leader) gives the
    first codeword of the window scan.  The handle holds no table: each call
    reads the cached ``_coset_leaders`` table of its decode ball
    ChannelParams(n, radius, k+, k-) once, after charging that ball against
    ``cap``.  ``decode_rows`` is one syndrome pass, one lookup and U -
    leaders, exact in Python ints for rows or groups past int64.
    """

    def __init__(self, spec: SplitterSpec):
        self.spec = spec
        self.n = spec.n

    def contains(self, v: Vec) -> bool:
        return syndrome(self.spec, v) == self.spec.group.identity

    def decode_rows(
        self, U: np.ndarray, radius: int, params: ChannelParams, cap: int = DEFAULT_ENUM_CAP
    ) -> tuple[np.ndarray, np.ndarray]:
        key = ChannelParams(self.n, radius, params.k_plus, params.k_minus)
        codes, leaders = _coset_leaders(self.spec, key, cap)
        syndromes = _syndrome_codes(self.spec, U)
        at = np.searchsorted(codes, syndromes).clip(max=len(codes) - 1)
        return U - leaders[at], codes[at] == syndromes


def lattice_min_distance(
    spec: SplitterSpec, k_plus: int, k_minus: int, cap: int = DEFAULT_ENUM_CAP
) -> int:
    """Exact minimum general distance of the lattice code.

    A code corrects r errors exactly when its distance is at least r + 1,
    and a lattice corrects r errors exactly when it packs the radius-r ball,
    which is the splitting test.  So the distance is the first r in 1..n at
    which ``check_partial_splitting`` fails, or n + 1 (the encoding of a
    distance past the finite range) when none does.  Raises
    EnumerationCapExceeded when a ball it tests holds more than ``cap``
    vectors, and ValueError on a channel that ``ChannelParams`` rejects.
    It keeps k+ and k- as arguments because ``perfbench/tracing.py`` reads
    them by position.
    """
    return next(
        (r for r in range(1, spec.n + 1)
         if not check_partial_splitting(spec, ChannelParams(spec.n, r, k_plus, k_minus), cap)),
        spec.n + 1,
    )


def max_pairwise_intersection_lattice(
    spec: SplitterSpec, p: ChannelParams, cap: int = DEFAULT_ENUM_CAP
) -> int:
    """Exact max over codeword pairs of |(x+B) ∩ (y+B)|.

    A common point x + e = y + e' needs the center difference d = e' - e,
    so d lies in [-(k+ + k-), k+ + k-]^n and wt(d) <= 2t: d is a row of the
    ball B(n, min(2t, n), k+ + k-, k+ + k-), of which ``cap`` bounds the
    size.  Its nonzero rows with the identity syndrome are therefore every
    difference of lattice points whose balls can meet.  The intersection
    depends only on the multiset of d's entries, so ``intersection_exact``
    counts each distinct sorted row once, cached as ("differences", spec, p).
    """
    _check_length(spec, p)
    span = p.magnitude_span
    box = combinatorics.ball_matrix(ChannelParams(p.n, min(2 * p.t, p.n), span, span), cap)
    classes = combinatorics.cached(("differences", spec, p), lambda: distinct_rows(
        np.sort(box[(_syndrome_codes(spec, box) == 0) & box.any(axis=1)], axis=1))).tolist()
    zero = (0,) * p.n
    return max((combinatorics.intersection_exact(zero, d, p) for d in classes), default=0)


def parse_splitter_spec(text: str) -> SplitterSpec:
    """Parse ``group=Z4xZ3; s=[(1,0),(0,2),(1,1)]`` (rank-1 groups may list
    bare integers: ``group=Z7; s=[1,2]``); a bad integer names --code."""
    match = re.fullmatch(r"\s*group=([^;]*);\s*s=\[([^;]*)\]\s*", text)
    if match is None:
        raise ValueError(f"expected 'group=...; s=[...]', got {text!r}")
    factors = [re.fullmatch(r"\s*Z(\d+)\s*", token) for token in match[1].split("x")]
    if not all(factors):
        raise ValueError(f"bad group {match[1].strip()!r}")
    group = FiniteAbelianGroup(tuple(parse_int(f[1], "--code") for f in factors))
    body = match[2].strip()
    if not body.startswith("("):
        elems = [[token] for token in body.split(",")] if body else []
    elif body.endswith(")"):
        elems = [e.split(",") for e in re.split(r"\)\s*,\s*\(", body[1:-1])]
    else:
        raise ValueError(f"bad group element list {body!r}")
    return SplitterSpec(group, tuple(tuple(parse_int(c, "--code") for c in e) for e in elems))
