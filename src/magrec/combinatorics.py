"""Error-ball geometry: volumes, enumeration, and intersection counts.

The error ball B(n, t, k+, k-) is the set of integer vectors with entries in
[-k-, k+] and Hamming weight at most t.  Its size is the Hamming-ball volume
V_q(n, t) over an alphabet of q = k+ + k- + 1 symbols.  This module provides
exact enumeration of such balls, the exact size of the intersection of two
translated balls, the closed form for the worst-case intersection over all
of Z^n, and the closed-form bound pair that sandwiches the intersection
size when the centers are at a known distance (``intersection_bounds(p,
delta)``, one pair for k- = 0 and one for k- >= 1).  The intersection size
(``intersection_exact``) is a product over the coordinates of the center
difference, with no ball built, and depends only on the multiset of that
difference's entries.

Every function of a channel takes it as one ``ChannelParams`` p.  Every
ball is one read-only int64 matrix with rows in lexicographic order
(``ball_matrix(p)``), built by the one enumerator ``_lex_rows`` (which also
builds the tandem module's upward balls), its rows checked distinct and in
order once, as it is enumerated (``core.check_stack``).  ``ball_one_hot(p)``
is the ball's one-hot float32 matrix, by which an indicator of sets of ball
rows counts each set's values, or None when it is larger than
``core.BLOCK_BYTES``.  ``ball_vectors(n, t, k+, k-)`` is a tuple copy of the
ball, made on every call, for the oracles; it keeps separate arguments
because ``perfbench/tracing.py`` reads them by position.  The one Möbius
inversion, ``subsets_with_minimum``, counts the N-subsets with a given
componentwise minimum from up-set sizes; ``minimum_counts`` applies it per
row of a k- = 0 ball.  ``difference_classes`` decides, in one place, which
pairs of an explicit code the pair scans (``distances.code_min_distance``,
``max_intersection_of_code``) evaluate: one per class of differences.

One locked LRU cache, ``cached(key, build)``, keeps under the one budget
``BALL_CACHE_BYTES`` the balls (key p), their one-hot matrices (("one-hot",
p)), the lattice coset-leader tables ((spec, p)) and difference classes
(("differences", spec, p)), the explicit codes' difference classes
(("differences", members, p)), the tandem upward balls (("excess", k, t)),
``channel.minimum_sets``' ``minimum_counts`` (("minimum-counts", p, N)) and
the handles of ``simplex:@`` and ``explicit:@`` code files (("code", kind,
text), ``cli.parse_code_spec``); its byte total moves by each entry kept or
dropped, and a caller reads an entry once.

All arithmetic is exact integer arithmetic (the one-hot matrix holds 0 and
1, whose float32 sums are exact below 2**24).
"""

from __future__ import annotations

import math
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from magrec import core
from magrec.core import (
    DEFAULT_ENUM_CAP,
    ChannelParams,
    ExplicitCode,
    Vec,
    _row_keys,
    charge,
    distinct_rows,
    group_keys,
)

#: Byte budget of the one cache of derived tables (``cached``); an entry
#: larger than it is returned but not kept.
BALL_CACHE_BYTES = 16 * 2**20

#: key -> (read-only array or tuple of arrays, its bytes), oldest first
_cache: OrderedDict = OrderedDict()
_cache_bytes = 0
_cache_lock = threading.Lock()


def _frozen_bytes(value) -> int:
    """The bytes of a cache entry, its arrays made read-only: those of its
    arrays (with an object array's Python ints) and a handle's members."""
    if isinstance(value, tuple):
        return sum(map(_frozen_bytes, value))
    if not isinstance(value, np.ndarray):  # a code handle
        arrays = [a for a in vars(value).values() if isinstance(a, np.ndarray)]
        return sum(map(sys.getsizeof, value.members)) + sum(map(_frozen_bytes, arrays))
    value.flags.writeable = False
    return value.nbytes + (sum(map(sys.getsizeof, value.flat)) if value.dtype == object else 0)


def cached(key, build):
    """The entry of ``key``, or ``build()``'s array, tuple of arrays or code
    handle, made read-only and kept when its bytes (``_frozen_bytes``) fit,
    dropping the least recently used entries past the budget."""
    global _cache_bytes
    with _cache_lock:
        if (entry := _cache.get(key)) is not None:
            _cache.move_to_end(key)
            return entry[0]
    value = build()
    size = _frozen_bytes(value)
    if size <= BALL_CACHE_BYTES:
        with _cache_lock:
            _cache_bytes += size - _cache.pop(key, (value, 0))[1]  # a racing thread's entry
            _cache[key] = value, size
            while _cache_bytes > BALL_CACHE_BYTES:
                _cache_bytes -= _cache.popitem(last=False)[1][1]
    return value


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


def ball_matrix(p: ChannelParams, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """The ball B(n, t, k+, k-) of p as a read-only (|B|, n) int64 matrix
    with rows in lexicographic order, cached (enumerated on a miss, and its
    order checked then by ``core.check_stack``, so that the read sets drawn
    from it need no check of their own).  Raises EnumerationCapExceeded,
    before the lookup, when the ball holds more than ``cap`` vectors."""
    charge(ball_size(p), "ball vectors", cap)

    def build() -> np.ndarray:
        # at t = 0 only the zero entry fits, however large k+ and k- are
        values = np.arange(-p.k_minus, p.k_plus + 1) if p.t else np.zeros(1, dtype=np.int64)
        return core.check_stack(_lex_rows(values, values != 0, p.n, p.t)[None], p)[0]

    return cached(p, build)


def ball_one_hot(p: ChannelParams) -> np.ndarray | None:
    """The one-hot matrix H of the ball of p: a read-only (|B|, n (k+ + k-
    + 1)) float32 0/1 matrix whose row r has its 1 of coordinate i in
    column i (k+ + k- + 1) + e_i + k-, e being row r of ``ball_matrix(p)``.
    An (S, |B|) indicator of sets of ball rows times H counts each set's
    rows by coordinate and value.  None when H is larger than
    ``core.BLOCK_BYTES``, judged on every call, before the lookup."""
    q = p.magnitude_span + 1
    if 4 * ball_size(p) * p.n * q > core.BLOCK_BYTES:
        return None
    hot = lambda: np.eye(q, dtype=np.float32)[ball_matrix(p) + p.k_minus].reshape(-1, p.n * q)
    return cached(("one-hot", p), hot)


def ball_vectors(
    n: int, t: int, k_plus: int, k_minus: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[Vec, ...]:
    """``ball_matrix`` of ChannelParams(n, t, k+, k-) as a tuple of vectors,
    made afresh on every call."""
    return tuple(map(tuple, ball_matrix(ChannelParams(n, t, k_plus, k_minus), cap).tolist()))


def subsets_with_minimum(classes: list[int], up, N: int) -> int:
    """How many N-subsets of a set of integer vectors have componentwise
    minimum z, by Möbius inversion over the coordinates raised above z:
    sum over a of (-1)^|a| prod_v C(c_v, a_v) C(U(a), N), a_v of the c_v =
    ``classes[v]`` exchangeable coordinates of class v raised and U(a) of
    the vectors above.  The last class is the inner sum: ``up(a)``, for the
    counts a of the others, gives U(a, j), j = 0..c_last."""
    *outer, last = classes
    inner = [(-1) ** j * math.comb(last, j) for j in range(last + 1)]
    return sum(
        (-1) ** sum(raised) * math.prod(map(math.comb, outer, raised))
        * sum(w * math.comb(u, N) for w, u in zip(inner, up(raised)))
        for raised in product(*(range(c + 1) for c in outer)))


def minimum_counts(p: ChannelParams, N: int, cap: int = DEFAULT_ENUM_CAP) -> list[int]:
    """Per row z of the k- = 0 ball ``ball_matrix``, the number of N-subsets
    of the ball whose componentwise minimum is z, as Python ints, by
    ``subsets_with_minimum``; ``cap`` bounds the ball.

    U(y), the number of rows >= y, is the product of k+ - y_i + 1 over
    supp y times tail(|supp y|), tail(r) = sum_{j <= t - r} C(n - r, j) k+^j
    (0 for r > t).  No row exceeds k+, so the classes are the c_v
    coordinates of each value v < k+ in z and, the inner sum, its n - s
    zeros (s = |supp z|); raising a_v and j of them leaves U = prod_{v < k+}
    (k+ - v + 1)^(c_v - a_v) (k+ - v)^a_v k+^j tail(s + j), so each distinct
    class of rows (its c_v) is counted once.
    """
    if p.k_minus:
        raise ValueError("minimum counts need a k- = 0 channel")
    n, t, kp = p.n, p.t, p.k_plus
    ball = ball_matrix(p, cap)
    tail = [sum(math.comb(n - r, j) * kp**j for j in range(t - r + 1)) for r in range(n + 1)]

    def count(mult: list[int]) -> int:
        s, below = sum(mult), mult[:-1]
        zeros = [kp**j * tail[s + j] for j in range(n - s + 1)]

        def up(raised):
            above = math.prod((kp - v + 1) ** (c - a) * (kp - v) ** a
                              for v, (c, a) in enumerate(zip(below, raised), 1))
            return [above * u for u in zeros]
        return subsets_with_minimum([*below, n - s], up, N)

    # a row's class: how often each value 1..k+ occurs in it
    mults = np.column_stack([(ball == v).sum(axis=1) for v in range(1, kp + 1)])
    first, rows = group_keys(_row_keys(mults))
    per_class = [count(mult) for mult in mults[first].tolist()]
    return [per_class[c] for c in rows.tolist()]


def intersection_exact(x: Vec, y: Vec, p: ChannelParams) -> int:
    """|(x + B) ∩ (y + B)|, counted from the multiset of entries of d = x - y.

    A point x + e lies in y + B iff e and d + e are both in B.  Per
    coordinate, the entries a in [-k-, k+] with a + d_i in [-k-, k+] split
    into four counts c_uv by (a != 0, a + d_i != 0), and in the product of
    c_00 + c_10 u + c_01 v + c_11 uv over the coordinates the coefficient
    of u^i v^j counts the e with wt(e) = i and wt(d + e) = j.  The
    intersection is the sum of the coefficients of degree at most t in each
    variable.  A zero d_i contributes 1 + (k+ + k-) uv, so the zeros are
    applied at the end as binomial sums along the diagonal and only the
    wt(d) nonzero entries are multiplied in: O(n t^2) exact integer
    operations, and no ball is built.  No e exists when some |d_i| exceeds
    k+ + k-.
    """
    if len(x) != len(y) or len(x) != p.n:
        raise ValueError("centers must both have length n")
    d = [a - b for a, b in zip(x, y)]
    span = p.magnitude_span
    if any(abs(v) > span for v in d):
        return 0
    # poly[i + 1][j + 1]: the coefficient of u^i v^j over the nonzero d_i so
    # far, behind a zero row and column so that no shifted read needs a test
    size = p.t + 2
    poly = [[0] * size for _ in range(size)]
    poly[1][1] = 1
    for v in filter(None, d):
        into = int(-p.k_minus <= v <= p.k_plus)  # a = 0, a + d_i != 0
        out = int(-p.k_minus <= -v <= p.k_plus)  # a = -d_i != 0, a + d_i = 0
        rest = span + 1 - abs(v) - into - out
        poly = [[0] * size] + [
            [0] + [into * here[j - 1] + out * above[j] + rest * above[j - 1]
                   for j in range(1, size)]
            for above, here in zip(poly, poly[1:])
        ]
    # the zero d_i raise both weights by the same count r, in C(zeros, r)
    # span^r ways, so a coefficient of degree (i, j) takes r <= t - max(i, j)
    zeros = d.count(0)
    within = list(accumulate(math.comb(zeros, r) * span**r for r in range(p.t + 1)))
    return sum(
        c * within[p.t - max(i, j)]
        for i, row in enumerate(poly[1:]) for j, c in enumerate(row[1:]) if c
    )


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


def difference_classes(code_members, p: ChannelParams) -> np.ndarray:
    """The distinct sorted differences y - x of members x < y with every
    entry in [-(k+ + k-), k+ + k-], as sorted rows: the only pairs within
    distance n or with meeting balls, kept in the one cache under
    ("differences", members, p), members the sorted codewords.  Each row of
    the ``ExplicitCode`` matrix is subtracted from the later (smaller) ones
    at once.  ``code_members`` is an ``ExplicitCode``, whose matrix is
    reused, or any iterable of vectors.  A repeated member, or one of length
    other than p.n, is a ValueError."""
    if isinstance(code_members, ExplicitCode):
        if code_members.n != p.n:
            raise ValueError(f"length mismatch: code n={code_members.n}, channel n={p.n}")
    else:
        members = [tuple(m) for m in code_members]
        for m in members:
            if len(m) != p.n:
                raise ValueError(
                    f"length mismatch: {len(members[0])} vs {len(m)}, channel n={p.n}"
                )
        if not members:
            return np.zeros((0, p.n), dtype=np.int64)
        code_members = ExplicitCode(members)
    M = code_members._largest_first

    def build() -> np.ndarray:
        classes = M[:0]
        for i in range(len(M) - 1):
            D = M[i] - M[i + 1:]
            D = np.sort(D[(abs(D) <= p.magnitude_span).all(axis=1)], axis=1)
            if len(D):
                classes = distinct_rows(np.concatenate((classes, D)))
        return classes

    return cached(("differences", code_members.members, p), build)


def max_intersection_of_code(code_members, p: ChannelParams) -> int:
    """Maximum ball intersection over pairs of distinct codewords, one per
    ``difference_classes`` row; 0 when there is none."""
    members = list(code_members)
    if len(members) < 2:
        raise ValueError("need at least 2 codewords")
    classes = difference_classes(members, p).tolist()
    return max((intersection_exact((0,) * p.n, d, p) for d in classes), default=0)
