"""Error-ball geometry: volumes, enumeration, and intersection counts.

The error ball B(n, t, k+, k-) is the set of integer vectors with entries in
[-k-, k+] and Hamming weight at most t.  Its size is the Hamming-ball volume
V_q(n, t) over an alphabet of q = k+ + k- + 1 symbols.  This module provides
exact enumeration of such balls, the exact size of the intersection of two
translated balls, the closed form for the worst-case intersection over all
of Z^n, and the closed-form bound pair that sandwiches the intersection
size when the centers are at a known distance (``intersection_bounds(p,
delta)``, one pair for k- = 0 and one for k- >= 1).

Every ball is one read-only int64 matrix with rows in lexicographic order
(``ball_matrix``), built by the one enumerator ``_lex_rows`` (which also
builds the tandem module's upward balls) and kept in an LRU cache keyed by
(n, t, k+, k-) that charges each ball its ``nbytes`` against
``BALL_CACHE_BYTES``.  ``ball_vectors`` is a tuple copy of it, made on
every call, for the oracles.  ``minimum_counts`` counts, per row z of a
k- = 0 ball, the N-subsets of the ball whose componentwise minimum is z, by
Möbius inversion rather than by enumerating the subsets.

All arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import product

import numpy as np

from magrec.core import (
    DEFAULT_ENUM_CAP,
    ChannelParams,
    Vec,
    _row_keys,
    charge,
)

#: Byte budget of the ball cache.  Each ball is charged its matrix's
#: ``nbytes``; least recently used balls are dropped first, and a ball
#: larger than the budget is returned but not kept.
BALL_CACHE_BYTES = 16 * 2**20

_ball_cache: OrderedDict[tuple[int, int, int, int], np.ndarray] = OrderedDict()
_ball_lock = threading.Lock()


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


def _lex_rows(values, cost, k: int, budget: int) -> np.ndarray:
    """The length-k rows over ``values`` (increasing) whose ``cost``s sum to
    at most ``budget``, as an int64 matrix in lexicographic order.

    Built column by column: each prefix, in lexicographic order, is extended
    by every value whose cost still fits, in increasing order.  fits[r][b]
    is the number of length-r rows of cost at most b, so a prefix of cost u
    with r columns left heads a block of fits[r][budget - u] rows, and
    column i repeats each value that ends a prefix of length i + 1 over its
    block.  Callers include the value 0 at cost 0, so no block is larger
    than the row count fits[k][budget].
    """
    values = np.asarray(values, dtype=np.int64)
    cost = np.asarray(cost, dtype=np.int64)
    # (cost, how many values have it) for the costs within the budget
    mult = [(c, m) for c, m in enumerate(np.bincount(cost)[: budget + 1].tolist()) if m]
    fits = [[1] * (budget + 1)]
    for _ in range(k):
        last = fits[-1]
        fits.append([sum(m * last[b - c] for c, m in mult if c <= b) for b in range(budget + 1)])
    matrix = np.empty((fits[k][budget], k), dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)
    for i in range(k):
        # row-major nonzero order: prefix by prefix, values increasing
        prefix, pick = np.nonzero(used[:, None] + cost <= budget)
        used = used[prefix] + cost[pick]
        block = np.array(fits[k - i - 1], dtype=np.int64)
        matrix[:, i] = np.repeat(values[pick], block[budget - used])
    return matrix


def ball_matrix(
    n: int, t: int, k_plus: int, k_minus: int, cap: int = DEFAULT_ENUM_CAP
) -> np.ndarray:
    """B(n, t, k+, k-) as a read-only (|B|, n) int64 matrix with rows in
    lexicographic order, from the ball cache (enumerated on a miss).

    Raises EnumerationCapExceeded when the ball holds more than ``cap``
    vectors, checked before a miss enumerates anything.
    """
    key = (n, t, k_plus, k_minus)
    with _ball_lock:
        matrix = _ball_cache.get(key)
        if matrix is not None:
            _ball_cache.move_to_end(key)
    size = hamming_volume(k_plus + k_minus + 1, n, t) if matrix is None else len(matrix)
    charge(size, "ball vectors", cap)
    if matrix is not None:
        return matrix
    # at t = 0 only the zero entry fits, however large k+ and k- are
    values = np.arange(-k_minus, k_plus + 1) if t else np.zeros(1, dtype=np.int64)
    matrix = _lex_rows(values, values != 0, n, t)
    matrix.flags.writeable = False
    if matrix.nbytes <= BALL_CACHE_BYTES:
        with _ball_lock:
            _ball_cache[key] = matrix
            used = sum(m.nbytes for m in _ball_cache.values())
            while used > BALL_CACHE_BYTES:
                used -= _ball_cache.popitem(last=False)[1].nbytes
    return matrix


def ball_vectors(
    n: int, t: int, k_plus: int, k_minus: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[Vec, ...]:
    """``ball_matrix`` as a tuple of vectors, made afresh on every call."""
    return tuple(map(tuple, ball_matrix(n, t, k_plus, k_minus, cap).tolist()))


def minimum_counts(p: ChannelParams, N: int, cap: int = DEFAULT_ENUM_CAP) -> list[int]:
    """Per row z of the k- = 0 ball ``ball_matrix``, the number of N-subsets
    of the ball whose componentwise minimum is z, as Python ints, counted
    without enumerating a subset; ``cap`` bounds the ball.

    Möbius inversion on the product of chains [0, k+]^n gives count(z) =
    sum over S ⊆ [n] of (-1)^|S| C(U(z + 1_S), N), where U(y), the number
    of rows >= y, is the product of k+ - y_i + 1 over supp y times
    tail(|supp y|), tail(r) = sum_{j <= t - r} C(n - r, j) k+^j (0 for
    r > t).  Grouping S by how many a_v of the c_v coordinates of value v
    in z it raises, and how many j of the n - s zero coordinates (s =
    |supp z|), leaves prod_v (c_v + 1) * (n - s + 1) terms:

        count(z) = sum (-1)^(|a| + j) prod_v C(c_v, a_v) C(n - s, j)
                   C(prod_v (k+ - v + 1)^(c_v - a_v) (k+ - v)^a_v k+^j tail(s + j), N).

    It depends on the multiplicities c_v alone, so each distinct class of
    rows is counted once.
    """
    if p.k_minus:
        raise ValueError("minimum counts need a k- = 0 channel")
    n, t, kp = p.n, p.t, p.k_plus
    ball = ball_matrix(n, t, kp, 0, cap=cap)
    tail = [sum(math.comb(n - r, j) * kp**j for j in range(t - r + 1)) for r in range(n + 1)]

    def count(mult: list[int]) -> int:
        s, total = sum(mult), 0
        for raised in product(*(range(c + 1) for c in mult)):
            ways = above = 1
            for v, (c, a) in enumerate(zip(mult, raised), 1):
                ways *= math.comb(c, a)
                above *= (kp - v + 1) ** (c - a) * (kp - v) ** a
            total += (-1) ** sum(raised) * ways * sum(
                (-1) ** j * math.comb(n - s, j) * math.comb(above * kp**j * tail[s + j], N)
                for j in range(n - s + 1)
            )
        return total

    # a row's class: how often each value 1..k+ occurs in it
    mults = np.column_stack([(ball == v).sum(axis=1) for v in range(1, kp + 1)])
    _, first, rows = np.unique(_row_keys(mults), return_index=True, return_inverse=True)
    per_class = [count(mult) for mult in mults[first].tolist()]
    return [per_class[c] for c in rows.tolist()]


def intersection_exact(
    x: Vec, y: Vec, p: ChannelParams, cap: int = DEFAULT_ENUM_CAP
) -> int:
    """|(x + B) ∩ (y + B)|: the rows e of the ball matrix with (x - y) + e
    itself in the ball, counted with column operations.

    A point x + e lies in y + B iff (x - y) + e is a ball element.  No such
    e exists when some |x_i - y_i| exceeds k+ + k-.
    """
    if len(x) != len(y) or len(x) != p.n:
        raise ValueError("centers must both have length n")
    ball = ball_matrix(p.n, p.t, p.k_plus, p.k_minus, cap=cap)
    d = [a - b for a, b in zip(x, y)]
    if any(abs(v) > p.magnitude_span for v in d):
        return 0
    # compare the ball with bounds shifted by -d, so no |B| x n int64 copy
    # of it is made: -k- - d <= e <= k+ - d, and e != -d in at most t places
    d = np.array(d, dtype=np.int64)
    inside = ((ball >= -p.k_minus - d) & (ball <= p.k_plus - d)).all(axis=1)
    return int((inside & ((ball != -d).sum(axis=1) <= p.t)).sum())


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


def intersection_bounds(p: ChannelParams, delta: int) -> IntersectionBounds:
    """Bound pair for |(x+B) ∩ (y+B)| when the centers are at distance delta:
    the asymmetric distance when k- = 0, the general one when k- >= 1.

    Both lower bounds are sum_i C(n - 2 delta, i) (k+ + k-)^i.  In the k- = 0
    upper bound the inner sum's lower index delta + i - t is clamped at 0
    (the binomial vanishes below it); empty sums are 0 and 0**0 = 1, which
    makes the delta = t and k+ = 1 corners come out right.
    """
    n, t, k_plus, span = p.n, p.t, p.k_plus, p.magnitude_span
    if not 0 <= delta <= t:
        raise ValueError(f"need 0 <= delta <= t <= n, got delta={delta}, t={t}, n={n}")
    lower = sum(binom(n - 2 * delta, i) * span**i for i in range(t - delta + 1))
    if p.k_minus:
        upper = sum(binom(n, i) * span ** (i + 2 * delta) for i in range(t - delta + 1))
        return IntersectionBounds(lower, upper)
    upper = 0
    for i in range(t - delta + 1):
        inner = sum(
            binom(delta, k) * (k_plus - 1) ** (delta - k)
            for k in range(max(0, delta + i - t), min(delta, t - i) + 1)
        )
        upper += binom(n - delta, i) * k_plus**i * inner
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
