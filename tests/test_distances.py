import random
from itertools import combinations

import pytest

from magrec import ChannelParams
from magrec.distances import code_min_distance, distance_components, distance_general

from helpers import (
    correction_capability_oracle,
    count_greater,
    distance_asymmetric,
    oracle_corrects,
)


def test_count_greater():
    assert count_greater((1, 1, 0), (0, 0, 0)) == 2
    assert count_greater((2, -1), (2, -1)) == 0
    assert count_greater((0, 2), (1, 0)) == 1
    with pytest.raises(ValueError):
        count_greater((1,), (1, 2))


def test_distance_asymmetric():
    assert distance_asymmetric((1, 1, 0), (0, 0, 0), 1) == 2
    assert distance_asymmetric((0, 0), (2, 0), 1) == 3
    assert distance_asymmetric((4, -2), (4, -2), 1) == 0


def channel(n, kp, km):
    """The channel of the distance, which reads no t."""
    return ChannelParams(n, 0, kp, km)


def test_distance_general_examples():
    assert distance_general((3, 0), (0, 0), channel(2, 2, 1)) == 1
    assert distance_general((1, 0), (0, 0), channel(2, 2, 1)) == 1
    assert distance_general((5, 5), (5, 5), channel(2, 2, 1)) == 0
    assert distance_general((1, 1, 0), (0, 0, 0), channel(3, 1, 0)) == 2
    assert distance_general((4, 0), (0, 0), channel(2, 2, 1)) == 3  # past k+ + k-


def test_distance_needs_both_words_of_the_channels_length():
    for x, y in [((1, 0), (0, 0, 0)), ((1, 0, 0), (0, 0, 0))]:
        with pytest.raises(ValueError, match="length mismatch"):
            distance_general(x, y, channel(2, 1, 1))


def test_distance_components():
    c = distance_components((3, 0, 2, -2), (0, 0, 0, 0), channel(4, 2, 1))
    assert (c.n_small, c.n_large, c.m_forward, c.m_backward) == (0, 1, 1, 1)
    assert not c.exceeds


def test_general_specializes_to_asymmetric():
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randint(1, 5)
        kp = rng.randint(1, 3)
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        y = tuple(rng.randint(-3, 3) for _ in range(n))
        assert distance_general(x, y, channel(n, kp, 0)) == distance_asymmetric(x, y, kp)


def test_distance_symmetry_and_translation_invariance():
    rng = random.Random(42)
    for _ in range(500):
        n = rng.randint(1, 5)
        kp = rng.randint(1, 3)
        km = rng.randint(0, kp)
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        y = tuple(rng.randint(-3, 3) for _ in range(n))
        v = tuple(rng.randint(-4, 4) for _ in range(n))
        p = channel(n, kp, km)
        d = distance_general(x, y, p)
        assert d == distance_general(y, x, p)
        xs = tuple(a + b for a, b in zip(x, v))
        ys = tuple(a + b for a, b in zip(y, v))
        assert distance_general(xs, ys, p) == d
        assert distance_asymmetric(xs, ys, kp) == distance_asymmetric(x, y, kp)


def test_code_min_distance():
    p = channel(2, 1, 0)
    assert code_min_distance({(0, 0), (1, -1)}, p) == 1
    assert code_min_distance({(0, 0), (3, 0)}, p) == 3
    # fewer than two codewords: n + 1, no distance within n
    assert code_min_distance({(0, 0)}, p) == 3
    assert code_min_distance(set(), p) == 3


def test_correction_oracle_examples():
    assert correction_capability_oracle({(0, 0), (3, 0)}, ChannelParams(2, 1, 1, 0), 1)
    assert not correction_capability_oracle(
        {(0, 0), (1, 0)}, ChannelParams(2, 1, 1, 0), 1
    )
    assert correction_capability_oracle(
        {(0, 0), (1, 0), (0, 1)}, ChannelParams(2, 1, 2, 1), 0
    )


def test_correction_equivalence_both_channels():
    # distance >= e+1 iff radius-e balls around codewords are disjoint
    rng = random.Random(43)
    for _ in range(150):
        n = rng.randint(1, 4)
        kp = rng.randint(1, 2)
        km = rng.randint(0, kp)
        size = min(rng.randint(2, 8), 4**n)
        members = set()
        while len(members) < size:
            members.add(tuple(rng.randint(0, 3) for _ in range(n)))
        dmin = code_min_distance(members, channel(n, kp, km))
        for e in range(min(2, n) + 1):
            p = ChannelParams(n, max(e, 1), kp, km)
            assert correction_capability_oracle(members, p, e) == (dmin >= e + 1)
            # cross-check the oracle itself against the set-based one
            assert oracle_corrects(members, p.t, kp, km, e) == (dmin >= e + 1)


def test_no_triangle_inequality():
    # the distance is used purely via order comparisons; this pins a
    # violating triple so nobody "optimizes" with metric pruning
    x, y, z = (0, 0), (1, 0), (2, 0)
    assert distance_asymmetric(x, z, 1) == 3  # n+1, past k+
    assert distance_asymmetric(x, y, 1) + distance_asymmetric(y, z, 1) == 2
