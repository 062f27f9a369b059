"""Brute-force oracles and test-only helpers used to check the library.

The library's own oracles live here, not beside its fast paths:
``brute_force_decode`` scans the decode window of a member set, the
definition every ``Code.decode_rows`` meets, and
``correction_capability_oracle`` checks that the radius-e balls around a
code's words are pairwise disjoint.
``sampled_read_sets`` names the seeded random read sets of
``channel.read_sets``, the library's only read generator, as a sub-sample
of N-subsets of the ball for exhaustive claims whose subset count is out of
reach.  ``oracle_exhaustive_totals`` decodes every N-subset one stack at a
time, the oracle of the CLI's per-minimum counts.  ``in_ball``,
``count_greater`` and ``distance_asymmetric`` are the scalar membership
test and k- = 0 distance that only the tests call.  ``per_set`` turns a decoder's owner-tagged rows back into one tuple
of codewords per set, the shape the tuple oracles compare.

Everything else here is built from itertools primitives and set arithmetic only,
deliberately avoiding the code paths under test (the library enumerates
balls column by column into a cached int64 matrix and counts intersections
with column operations; these oracles materialize full sets).  The lattice
oracles scan the whole box [-(k+ + k-), k+ + k-]^n with inline modular sums,
where the library reads the distance off its splitting test and takes the
lattice differences from a cached ball matrix through its syndrome kernel,
and the splitting oracle keeps a seen-set of syndromes where the library
compares the size of its coset-leader table with the ball's.

The read-set oracles are the tuple kernels the library ran before read sets
became int64 matrices: per-read and per-column Python loops over sorted
tuples.  ``oracle_sauer_shelah_find`` is the member-by-member pattern scan
the library ran before it kept one bitset per coordinate and value.  The tandem oracles are the recursion and the per-set loop the
library ran before the upward ball became an int64 matrix and simplex read
sets became stacks.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement, product
from typing import Iterable, Iterator, Optional

import numpy as np

from magrec.channel import decode_read_sets, read_sets, score_sets
from magrec.combinatorics import ball_matrix, ball_vectors
from magrec.core import ERASURE, ChannelParams, Vec
from magrec.reconstruction import ALGORITHMS


def brute_force_decode(
    code_members: Iterable[Vec], z: Vec, radius: int, params: ChannelParams
) -> Optional[Vec]:
    """First member of the code found while scanning z - B(n, radius, k+, k-).

    The scan follows the lexicographic enumeration of the error ball, fixing
    the tie-break when several codewords are in range.
    """
    members = frozenset(tuple(m) for m in code_members)
    # Python ints, so z beyond int64 is exact
    ball = ball_matrix(ChannelParams(len(z), radius, params.k_plus, params.k_minus))
    for e in ball.tolist():
        c = tuple(zi - ei for zi, ei in zip(z, e))
        if c in members:
            return c
    return None


def correction_capability_oracle(
    code_members, p: ChannelParams, e: int
) -> bool:
    """True iff radius-e balls around distinct codewords are pairwise disjoint.

    Checked by enumeration: the union of the translated balls has full size
    exactly when no two overlap.
    """
    if not 0 <= e <= p.t:
        raise ValueError(f"trial radius must be in [0, t={p.t}], got {e}")
    members = sorted(tuple(m) for m in code_members)
    if len(set(members)) != len(members):
        raise ValueError("duplicate codewords")
    ball = ball_vectors(p.n, e, p.k_plus, p.k_minus)
    seen: set[Vec] = set()
    for c in members:
        for v in ball:
            w = tuple(a + b for a, b in zip(c, v))
            if w in seen:
                return False
            seen.add(w)
    return True


def sampled_read_sets(
    x: Vec, p: ChannelParams, count: int, samples: int, seed: int
) -> Iterator[np.ndarray]:
    """Stacks of a deterministic seeded sub-sample of N-subsets: the
    ``samples`` random read sets of ``seed`` (independent draws, so with
    replacement over subsets; duplicates are vanishingly rare when
    C(|ball|, N) is large)."""
    return read_sets(x, p, count, "random", samples, seed)


def oracle_exhaustive_totals(
    algorithm: str, code, x: Vec, p: ChannelParams, N: int, delta: int, a: int = 0,
) -> tuple[int, int, int]:
    """(sets, successes, longest list) of decoding every N-subset of the
    ball around x with ``ALGORITHMS[algorithm]``: the enumeration, stack by
    stack, that the CLI ran for ``--reads exhaustive`` before it counted
    read sets per minimum.  x on a set's list is a success."""
    entry = ALGORITHMS[algorithm]
    plan = entry.plan(p, delta, a)
    sets = successes = longest = 0
    for stack in read_sets(x, p, N, "exhaustive", cap=10**9):
        decoded = decode_read_sets(entry, plan, code, p, delta, a, stack)
        sizes, hits = score_sets(decoded, len(stack), x)
        sets += len(stack)
        successes += int(hits.sum())
        longest = max(longest, int(sizes.max()))
    return sets, successes, longest


def per_set(decoded, sets: int) -> list[tuple[Vec, ...]]:
    """The codewords of each of the ``sets`` sets of a decoded stack, as one
    tuple per set in row order, empty where the set owns no row."""
    owner, words = decoded
    out: list[list[Vec]] = [[] for _ in range(sets)]
    for s, word in zip(owner.tolist(), words.tolist()):
        out[s].append(tuple(word))
    return [tuple(words) for words in out]


def in_ball(v: Vec, p: ChannelParams) -> bool:
    """Membership test of a length-n vector in B(n, t, k+, k-); O(n), no
    enumeration."""
    weight = 0
    for x in v:
        if x:
            if not -p.k_minus <= x <= p.k_plus:
                return False
            weight += 1
            if weight > p.t:
                return False
    return True


def count_greater(x: Vec, y: Vec) -> int:
    """Number of coordinates where x exceeds y."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(1 for a, b in zip(x, y) if a > b)


def distance_asymmetric(x: Vec, y: Vec, k_plus: int) -> int:
    """Distance for the k- = 0 channel: n+1 when some |x[i]-y[i]| exceeds
    k_plus, otherwise the larger one-sided disagreement count; the oracle
    of ``distance_general`` at k- = 0."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if any(abs(a - b) > k_plus for a, b in zip(x, y)):
        return len(x) + 1
    return max(count_greater(x, y), count_greater(y, x))


def oracle_ball(n: int, t: int, kp: int, km: int) -> list[tuple[int, ...]]:
    return [
        v
        for v in product(range(-km, kp + 1), repeat=n)
        if sum(1 for x in v if x) <= t
    ]


def oracle_ball_set(center, t, kp, km):
    return {
        tuple(c + e for c, e in zip(center, v))
        for v in oracle_ball(len(center), t, kp, km)
    }


def oracle_intersection(x, y, t, kp, km) -> int:
    return len(oracle_ball_set(x, t, kp, km) & oracle_ball_set(y, t, kp, km))


def oracle_corrects(code, t, kp, km, e) -> bool:
    balls = [oracle_ball_set(c, e, kp, km) for c in code]
    return all(not (a & b) for a, b in combinations(balls, 2))


def oracle_lattice_box(spec, span):
    """Nonzero lattice vectors of a SplitterSpec in [-span, span]^n."""
    moduli = spec.group.moduli
    return [
        v
        for v in product(range(-span, span + 1), repeat=spec.n)
        if any(v)
        and all(
            sum(x * g[j] for x, g in zip(v, spec.s)) % m == 0
            for j, m in enumerate(moduli)
        )
    ]


def oracle_lattice_min_distance(spec, kp, km) -> int:
    """Minimum of d(0, d) over the box's lattice vectors, n + 1 if none."""
    from magrec.distances import distance_general

    zero, p = (0,) * spec.n, ChannelParams(spec.n, 0, kp, km)
    return min(
        (distance_general(zero, d, p) for d in oracle_lattice_box(spec, kp + km)),
        default=spec.n + 1,
    )


def oracle_max_pairwise_intersection(spec, t, kp, km) -> int:
    """Largest |B ∩ (d + B)| over the box's lattice vectors d, 0 if none."""
    ball = oracle_ball_set((0,) * spec.n, t, kp, km)
    return max(
        (
            sum(1 for e in ball if sub(e, d) in ball)
            for d in oracle_lattice_box(spec, kp + km)
        ),
        default=0,
    )


def oracle_partial_splitting(spec, kp, km, t) -> bool:
    """Every nonzero e of B(n, t, k+, k-) has a non-identity syndrome that
    no earlier e has."""
    moduli = spec.group.moduli
    identity = (0,) * len(moduli)
    seen = set()
    for e in oracle_ball(spec.n, t, kp, km):
        if not any(e):
            continue
        g = tuple(
            sum(x * s[j] for x, s in zip(e, spec.s)) % m for j, m in enumerate(moduli)
        )
        if g == identity or g in seen:
            return False
        seen.add(g)
    return True


def window(n: int, w: int):
    return product(range(-w, w + 1), repeat=n)


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


#: Channels (k+, k-) the lattice differential tests run each spec under.
DIFFERENTIAL_CHANNELS = [(1, 0), (2, 0), (1, 1), (2, 1), (3, 0), (2, 2)]


def differential_specs():
    """Every lattice of a cyclic splitter over Z_m, m <= 6, n <= 3, plus a
    Z2xZ3 splitter.

    Scaling s by a unit of Z_m keeps the lattice, and permuting coordinates
    keeps distances and intersections, so one representative per class (the
    least sorted scaled copy) covers them all.
    """
    from magrec.lattice import FiniteAbelianGroup, SplitterSpec, cyclic

    for m in range(2, 7):
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        for n in (1, 2, 3):
            for s in combinations_with_replacement(range(m), n):
                if s == min(tuple(sorted(u * v % m for v in s)) for u in units):
                    yield SplitterSpec(cyclic(m), tuple((v,) for v in s))
    yield SplitterSpec(FiniteAbelianGroup((2, 3)), ((1, 0), (0, 1), (1, 2)))


def oracle_lattice_window(spec, lo, hi):
    """Lattice vectors of a SplitterSpec in [lo, hi]^n, zero included."""
    moduli = spec.group.moduli
    return [
        v
        for v in product(range(lo, hi + 1), repeat=spec.n)
        if all(
            sum(x * g[j] for x, g in zip(v, spec.s)) % m == 0
            for j, m in enumerate(moduli)
        )
    ]


def oracle_read_set(reads, n):
    """The reads of a tuple-built read set: distinct length-n tuples, sorted."""
    rows = tuple(sorted(tuple(r) for r in reads))
    if not rows or any(len(r) != n for r in rows) or len(set(rows)) != len(rows):
        raise ValueError("reads must be nonempty, distinct and of length n")
    return rows


def oracle_componentwise_min(reads):
    return tuple(min(col) for col in zip(*reads))


def oracle_majority_entries(reads, tau):
    """Per column, the most frequent value (ties to the smallest), kept when
    twice its count minus N exceeds tau and ERASURE otherwise."""
    N = len(reads)
    entries = []
    for col in zip(*reads):
        counts = {}
        for v in col:
            counts[v] = counts.get(v, 0) + 1
        top = max(counts.values())
        best = min(v for v, c in counts.items() if c == top)
        entries.append(best if 2 * counts[best] - N > tau else ERASURE)
    return tuple(entries)


def oracle_covers(c, reads, t, kp, km) -> bool:
    """Every read r has r - c in B(n, t, k+, k-)."""
    return all(
        sum(1 for a, b in zip(r, c) if a != b) <= t
        and all(-km <= a - b <= kp for a, b in zip(r, c))
        for r in reads
    )


def oracle_sauer_candidates(reads, U, f, kp, km):
    """The Sauer decoder's candidates, with every e in B(n, f, k+, k-) tried
    for each representative (the first read of each pattern on U) and
    rep - e kept when it differs from rep on all of U; sorted."""
    representatives = {}
    for r in sorted(reads):
        representatives.setdefault(tuple(r[i] for i in U), r)
    out = set()
    for rep in representatives.values():
        for e in oracle_ball(len(rep), f, kp, km):
            z = sub(rep, e)
            if all(z[i] != rep[i] for i in U):
                out.add(z)
    return sorted(out)


def oracle_sauer_shelah_find(S, q, c):
    """The coordinate search ``sauer_shelah_find`` ran before it kept
    bitsets: the first size-c coordinate set U, in ``combinations`` order,
    such that every pattern over U is avoided coordinatewise by some member
    of S, each pattern tested member by member; None when there is none."""
    members = sorted(set(map(tuple, S)))
    for U in combinations(range(len(members[0])), c):
        if all(
            any(all(v[i] != x for i, x in zip(U, pattern)) for v in members)
            for pattern in product(range(q), repeat=c)
        ):
            return U
    return None


def oracle_adversarial_order(ball):
    """Maximal weight first, then maximal total magnitude, then lexicographic."""
    return sorted(
        ball,
        key=lambda e: (-sum(1 for v in e if v), -sum(abs(v) for v in e), e),
    )


def oracle_packing_by_window_pairs(spec, kp, km, t, window=None) -> bool:
    """The radius-t balls around the lattice points in [-W, W]^n are
    pairwise disjoint, checked pair by pair with ball sets.

    W defaults to 2(k+ + k-) + 1, wide enough that any violating pair has a
    translate inside the window.
    """
    if window is None:
        window = 2 * (kp + km) + 1
    ball = oracle_ball(spec.n, t, kp, km)
    codewords = oracle_lattice_window(spec, -window, window)
    ball_sets = {c: {add(c, e) for e in ball} for c in codewords}
    span = kp + km
    return not any(
        ball_sets[a] & ball_sets[b]
        for a, b in combinations(codewords, 2)
        if all(abs(x - y) <= span for x, y in zip(a, b))
    )


def oracle_upward_ball(x, t):
    """All y >= x with total excess at most t, lex order, by recursion over
    the coordinates."""
    out = []
    cur = list(x)

    def rec(i, budget):
        if i == len(x):
            out.append(tuple(cur))
            return
        for d in range(budget + 1):
            cur[i] = x[i] + d
            rec(i + 1, budget - d)
        cur[i] = x[i]

    rec(0, t)
    return out


def oracle_simplex_counts(code, t, N, delta):
    """(sets, successes) of the per-set tandem loop: for each codeword x and
    each shell w of its upward ball, every N-subset as a tuple of reads, its
    componentwise minimum and one upward decode."""
    sets = successes = 0
    for x in code.members:
        for w in range(t + 1):
            shell = [y for y in oracle_upward_ball(x, w) if sum(y) - sum(x) == w]
            for Y in combinations(shell, N):
                z = oracle_componentwise_min(Y)
                sets += 1
                successes += code.decode_upward(z, delta - 1) == x
    return sets, successes
