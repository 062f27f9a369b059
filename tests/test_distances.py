import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from magrec import ChannelParams, ExplicitCode, combinatorics, distances
from magrec.distances import (
    code_min_distance,
    difference_classes,
    distance_components,
    distance_general,
)

from helpers import (
    correction_capability_oracle,
    count_greater,
    distance_asymmetric,
    empty_cache,
    oracle_corrects,
    oracle_pair_classes,
    random_code,
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


def test_code_min_distance_rejects_ragged_and_repeated_codewords():
    p = channel(2, 1, 1)
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3, channel n=2"):
        code_min_distance([(0, 0), (1, 0, 0)], p)
    # a repeated word is no pair of distinct codewords
    with pytest.raises(ValueError, match="duplicate codewords"):
        code_min_distance([(0, 0), (0, 0), (3, 0)], p)


# (size, n, lo, hi, k+, k-): sparse codes over [-20, 20]^n, and dense ones
# in which most pairs lie within k+ + k-
CODES = [
    (1000, 6, -20, 20, 1, 1),
    (300, 4, -6, 6, 2, 0),
    (250, 6, 0, 2, 1, 1),
    (120, 4, 0, 3, 2, 1),
    (60, 3, 0, 3, 1, 0),
]


@pytest.mark.parametrize("size, n, lo, hi, kp, km", CODES[1:])
def test_difference_classes_match_the_pair_loop(size, n, lo, hi, kp, km, monkeypatch):
    code = random_code(random.Random(size), size, n, lo, hi)
    p = channel(n, kp, km)
    shuffled = random.Random(size + 1).sample(code, size)
    empty_cache(monkeypatch)  # so that the classes are built here, not read
    wrapped = mock.patch.object(combinatorics, "distinct_rows", wraps=combinatorics.distinct_rows)
    with wrapped as dedup:
        classes = difference_classes(shuffled, p)
    assert classes.tolist() == [list(d) for d in sorted(set(oracle_pair_classes(code, kp + km)))]
    # one member's differences at a time: no dedup holds more than the
    # classes and the later members
    assert all(len(call.args[0]) <= len(classes) + size - 1 for call in dedup.call_args_list)


@pytest.mark.parametrize("size, n, lo, hi, kp, km", CODES)
def test_code_min_distance_matches_the_pair_loop(size, n, lo, hi, kp, km):
    code = random_code(random.Random(size), size, n, lo, hi)
    p = channel(n, kp, km)
    expected = min(distance_general(a, b, p) for a, b in combinations(code, 2))
    assert code_min_distance(code, p) == expected


def test_code_min_distance_evaluates_each_close_class_once():
    for size, n, lo, hi, kp, km in CODES[1:]:
        code = random_code(random.Random(size), size, n, lo, hi)
        p = channel(n, kp, km)
        with mock.patch.object(
            distances, "distance_general", wraps=distances.distance_general
        ) as distance:
            code_min_distance(code, p)
        evaluated = sorted(tuple(call.args[1]) for call in distance.call_args_list)
        # once per class within k+ + k-, and never on a pair past it
        assert evaluated == sorted(set(oracle_pair_classes(code, kp + km)))


@pytest.mark.parametrize("size, n, lo, hi, kp, km", CODES[1:])
def test_difference_classes_of_an_explicit_code_reuse_its_matrix(size, n, lo, hi, kp, km):
    members = random_code(random.Random(size), size, n, lo, hi)
    code = ExplicitCode(members)
    p = channel(n, kp, km)
    with mock.patch.object(ExplicitCode, "__init__") as build:
        classes = difference_classes(code, p)
        distance = code_min_distance(code, p)
    build.assert_not_called()
    assert classes.tolist() == difference_classes(members, p).tolist()
    assert distance == code_min_distance(members, p)
    with pytest.raises(ValueError, match=f"length mismatch: code n={n}, channel n={n + 1}"):
        difference_classes(code, channel(n + 1, kp, km))


def test_difference_classes_past_int64_are_exact():
    # members past ENTRY_LIMIT are subtracted as Python ints
    code = {(0, 0), (2**70, 0), (2**70 + 1, 1)}
    p = channel(2, 1, 1)
    classes = difference_classes(code, p)
    assert classes.tolist() == [[1, 1]]
    expected = min(distance_general(a, b, p) for a, b in combinations(code, 2))
    assert code_min_distance(code, p) == expected == 1
    # within int64 the differences of entries near ENTRY_LIMIT do not wrap
    top = 2**62 - 1
    code = {(top, 0), (-top, 0), (top, 1)}
    assert difference_classes(code, p).tolist() == [[0, 1]]
    assert difference_classes(code, p).dtype == np.int64


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
