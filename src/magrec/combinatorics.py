"""Error-ball geometry: volumes, enumeration, and intersection counts.

The error ball B(n, t, k+, k-) is the set of integer vectors with entries in
[-k-, k+] and Hamming weight at most t.  Its size is the Hamming-ball volume
V_q(n, t) over an alphabet of q = k+ + k- + 1 symbols.  This module provides
exact enumeration of such balls (as tuples, and as cached int64 matrices
for the read-set machinery), an exact oracle for the size of the
intersection of two translated balls, the closed form for the worst-case
intersection over all of Z^n, and the two closed-form bound pairs that
sandwich the intersection size when the centers are at a known distance.

All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from magrec.core import (
    DEFAULT_ENUM_CAP,
    ChannelParams,
    EnumerationCapExceeded,
    Vec,
)

_ball_cache: dict[tuple[int, int, int, int], tuple[Vec, ...]] = {}
_ball_lock = threading.Lock()

#: Byte budget of the ball-matrix cache; least recently used matrices are
#: dropped first, and a matrix larger than the budget is not kept.
BALL_MATRIX_CACHE_BYTES = 16 * 2**20
_matrix_cache: OrderedDict[tuple[int, int, int, int], np.ndarray] = OrderedDict()


def binom(m: int, i: int) -> int:
    """Combinatorial binomial: count of i-subsets of an m-set.

    Returns 0 outside the support (i < 0, or m < i, including negative m) and
    1 at i = 0 regardless of m.  The bound formulas rely on both conventions.
    """
    if i == 0:
        return 1
    if i < 0 or m < i:
        return 0
    return math.comb(m, i)


def hamming_volume(q: int, n: int, r: int) -> int:
    """Volume of a radius-r Hamming ball over an alphabet of size q."""
    if q < 1:
        raise ValueError(f"alphabet size must be >= 1, got {q}")
    if not 0 <= r <= n:
        raise ValueError(f"radius must be in [0, n={n}], got {r}")
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(r + 1))


def ball_size(p: ChannelParams) -> int:
    """|B(n, t, k+, k-)|, i.e. V_{k+ + k- + 1}(n, t)."""
    return hamming_volume(p.magnitude_span + 1, p.n, p.t)


def ball_vectors(
    n: int, t: int, k_plus: int, k_minus: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[Vec, ...]:
    """All of B(n, t, k+, k-) in lexicographic order (cached).

    Raises EnumerationCapExceeded instead of silently truncating when the
    ball holds more than ``cap`` vectors.
    """
    size = hamming_volume(k_plus + k_minus + 1, n, t)
    if size > cap:
        raise EnumerationCapExceeded(
            f"ball of size {size} exceeds enumeration cap {cap}"
        )
    key = (n, t, k_plus, k_minus)
    cached = _ball_cache.get(key)
    if cached is not None:
        return cached

    out: list[Vec] = []
    cur = [0] * n

    def rec(i: int, budget: int) -> None:
        if i == n:
            out.append(tuple(cur))
            return
        for v in range(-k_minus, k_plus + 1):
            if v == 0:
                cur[i] = 0
                rec(i + 1, budget)
            elif budget > 0:
                cur[i] = v
                rec(i + 1, budget - 1)
        cur[i] = 0

    rec(0, t)
    result = tuple(out)
    assert len(result) == size
    with _ball_lock:
        _ball_cache.setdefault(key, result)
    return result


def ball_matrix(
    n: int, t: int, k_plus: int, k_minus: int, cap: int = DEFAULT_ENUM_CAP
) -> np.ndarray:
    """``ball_vectors`` as a read-only (|B|, n) int64 matrix, rows in the same
    lexicographic order; cached within ``BALL_MATRIX_CACHE_BYTES``."""
    key = (n, t, k_plus, k_minus)
    with _ball_lock:
        matrix = _matrix_cache.get(key)
        if matrix is not None:
            _matrix_cache.move_to_end(key)
    if matrix is not None:
        if len(matrix) > cap:
            raise EnumerationCapExceeded(
                f"ball of size {len(matrix)} exceeds enumeration cap {cap}"
            )
        return matrix
    matrix = np.array(ball_vectors(n, t, k_plus, k_minus, cap=cap), dtype=np.int64)
    matrix = matrix.reshape(-1, n)
    matrix.flags.writeable = False
    with _ball_lock:
        _matrix_cache[key] = matrix
        used = sum(m.nbytes for m in _matrix_cache.values())
        while used > BALL_MATRIX_CACHE_BYTES:
            _, dropped = _matrix_cache.popitem(last=False)
            used -= dropped.nbytes
    return matrix


def enumerate_ball(p: ChannelParams, cap: int = DEFAULT_ENUM_CAP) -> tuple[Vec, ...]:
    """B(n, t, k+, k-) as a lexicographically sorted tuple of vectors."""
    return ball_vectors(p.n, p.t, p.k_plus, p.k_minus, cap=cap)


def in_ball(v: Vec, t: int, k_plus: int, k_minus: int) -> bool:
    """Membership test for B(len(v), t, k+, k-); O(n), no enumeration."""
    weight = 0
    lo = -k_minus
    for x in v:
        if x:
            if x < lo or x > k_plus:
                return False
            weight += 1
            if weight > t:
                return False
    return True


def intersection_exact(
    x: Vec, y: Vec, p: ChannelParams, cap: int = DEFAULT_ENUM_CAP
) -> int:
    """|(x + B) ∩ (y + B)| by enumerating one ball and membership-testing.

    A point x + e lies in y + B iff (x - y) + e is itself a ball element, so
    one enumeration plus an O(n) test per element suffices.
    """
    if len(x) != len(y) or len(x) != p.n:
        raise ValueError("centers must both have length n")
    d = tuple(a - b for a, b in zip(x, y))
    t, kp, km = p.t, p.k_plus, p.k_minus
    lo = -km
    count = 0
    for e in ball_vectors(p.n, t, kp, km, cap=cap):
        weight = 0
        ok = True
        for di, ei in zip(d, e):
            w = di + ei
            if w:
                if w < lo or w > kp:
                    ok = False
                    break
                weight += 1
                if weight > t:
                    ok = False
                    break
        if ok:
            count += 1
    return count


def max_intersection_whole_space(p: ChannelParams) -> int:
    """Worst-case two-ball intersection over Z^n: (k+ + k-) V(n-1, t-1).

    Attained by centers at distance one unit apart.
    """
    if p.t < 1:
        raise ValueError("needs t >= 1")
    return p.magnitude_span * hamming_volume(p.magnitude_span + 1, p.n - 1, p.t - 1)


@dataclass(frozen=True)
class IntersectionBounds:
    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} > upper {self.upper}")

    def contains(self, value: int) -> bool:
        return self.lower <= value <= self.upper


def intersection_bounds_asymmetric(
    n: int, t: int, k_plus: int, delta: int
) -> IntersectionBounds:
    """Bound pair for |(x+B) ∩ (y+B)| when k- = 0 and the centers are at
    asymmetric distance delta.

    The inner sum's lower index delta + i - t is clamped at 0 (the binomial
    vanishes below it); empty sums are 0 and 0**0 = 1, which makes the
    delta = t and k+ = 1 corners come out right.
    """
    if not 0 <= delta <= t <= n:
        raise ValueError(f"need 0 <= delta <= t <= n, got delta={delta}, t={t}, n={n}")
    lower = sum(binom(n - 2 * delta, i) * k_plus**i for i in range(t - delta + 1))
    upper = 0
    for i in range(t - delta + 1):
        inner = sum(
            binom(delta, k) * (k_plus - 1) ** (delta - k)
            for k in range(max(0, delta + i - t), min(delta, t - i) + 1)
        )
        upper += binom(n - delta, i) * k_plus**i * inner
    return IntersectionBounds(lower, upper)


def intersection_bounds_general(
    n: int, t: int, k_plus: int, k_minus: int, delta: int
) -> IntersectionBounds:
    """Bound pair for |(x+B) ∩ (y+B)| when k- >= 1 and the centers are at
    general distance delta."""
    if k_minus < 1:
        raise ValueError("general bounds require k_minus >= 1")
    if not 0 <= delta <= t <= n:
        raise ValueError(f"need 0 <= delta <= t <= n, got delta={delta}, t={t}, n={n}")
    span = k_plus + k_minus
    lower = sum(binom(n - 2 * delta, i) * span**i for i in range(t - delta + 1))
    upper = sum(binom(n, i) * span ** (i + 2 * delta) for i in range(t - delta + 1))
    return IntersectionBounds(lower, upper)


def max_intersection_of_code(
    code_members, p: ChannelParams, cap: int = DEFAULT_ENUM_CAP
) -> int:
    """Maximum pairwise ball intersection over distinct codewords.

    Intersections are translation invariant, so pairs are deduplicated by
    their difference vector.
    """
    members = sorted(tuple(m) for m in code_members)
    if len(members) < 2:
        raise ValueError("need at least 2 codewords")
    zero = (0,) * p.n
    seen: dict[Vec, int] = {}
    best = 0
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            d = tuple(u - v for u, v in zip(a, b))
            if d not in seen:
                seen[d] = intersection_exact(zero, d, p, cap=cap)
            if seen[d] > best:
                best = seen[d]
    return best
