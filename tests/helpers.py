"""Independent brute-force oracles used to check the library.

Everything here is built from itertools primitives and set arithmetic only,
deliberately avoiding the code paths under test (the library enumerates
balls recursively and counts intersections by membership testing; these
oracles materialize full sets).  The lattice oracles scan the whole box
[-(k+ + k-), k+ + k-]^n with inline modular sums, where the library scans
weight shells with precomputed syndrome tables.
"""

from __future__ import annotations

from itertools import combinations, product


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

    zero = (0,) * spec.n
    return min(
        (distance_general(zero, d, kp, km) for d in oracle_lattice_box(spec, kp + km)),
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


def window(n: int, w: int):
    return product(range(-w, w + 1), repeat=n)


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))
