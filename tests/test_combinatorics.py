import random
from itertools import combinations, product
from unittest import mock

import pytest

from magrec import ChannelParams, EnumerationCapExceeded, ExplicitCode, combinatorics
from magrec.combinatorics import (
    binom,
    ball_size,
    ball_vectors,
    hamming_volume,
    intersection_bounds,
    intersection_exact,
    max_intersection_of_code,
    max_intersection_whole_space,
)
from magrec.distances import distance_general

from helpers import (
    distance_asymmetric,
    in_ball,
    oracle_ball,
    oracle_intersection,
    oracle_pair_classes,
    random_code,
)


def test_binom_conventions():
    assert binom(-3, 0) == 1
    assert binom(-3, 2) == 0
    assert binom(3, 5) == 0
    assert binom(5, -1) == 0
    assert binom(5, 2) == 10


def test_hamming_volume():
    assert hamming_volume(2, 3, 1) == 4
    assert hamming_volume(3, 2, 0) == 1
    assert hamming_volume(3, 4, 4) == 81
    assert hamming_volume(1, 5, 3) == 1  # unary alphabet: only the zero word
    with pytest.raises(ValueError):
        hamming_volume(2, 3, 4)
    with pytest.raises(ValueError):
        hamming_volume(0, 3, 1)


def test_ball_size():
    assert ball_size(ChannelParams(2, 1, 1, 1)) == 5
    assert ball_size(ChannelParams(3, 0, 1, 1)) == 1
    assert ball_size(ChannelParams(2, 2, 1, 0)) == 4


def test_ball_vectors_examples():
    assert ball_vectors(1, 1, 2, 1) == ((-1,), (0,), (1,), (2,))
    assert ball_vectors(2, 1, 1, 0) == ((0, 0), (0, 1), (1, 0))
    assert ball_vectors(1, 0, 1, 1) == ((0,),)


def test_ball_vectors_matches_independent_enumeration():
    for (n, t, kp, km) in [(1, 1, 2, 1), (2, 2, 1, 1), (3, 2, 2, 0), (4, 3, 1, 1)]:
        got = ball_vectors(n, t, kp, km)
        assert list(got) == sorted(oracle_ball(n, t, kp, km))
        assert len(got) == ball_size(ChannelParams(n, t, kp, km))
        assert all(got[i] < got[i + 1] for i in range(len(got) - 1))


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        ball_vectors(6, 6, 2, 2, cap=100)


def test_in_ball():
    p = ChannelParams(2, 1, 1, 0)
    assert in_ball((0, 1), p)
    assert not in_ball((1, 1), p)
    assert not in_ball((-1, 0), p)
    assert in_ball((-1, 0), ChannelParams(2, 1, 1, 1))


def test_intersection_exact_examples():
    assert intersection_exact((0, 0), (1, 0), ChannelParams(2, 1, 1, 0)) == 1
    p = ChannelParams(2, 2, 1, 1)
    assert intersection_exact((3, -1), (3, -1), p) == ball_size(p)
    assert intersection_exact((0, 0), (1, 0), ChannelParams(2, 1, 1, 1)) == 2


def test_intersection_exact_against_set_oracle():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        t = rng.randint(1, n)
        kp = rng.randint(1, 2)
        km = rng.randint(0, kp)
        x = tuple(rng.randint(-2, 2) for _ in range(n))
        y = tuple(rng.randint(-2, 2) for _ in range(n))
        assert intersection_exact(x, y, ChannelParams(n, t, kp, km)) == (
            oracle_intersection(x, y, t, kp, km)
        )


def test_intersection_translation_invariance():
    rng = random.Random(12)
    p = ChannelParams(3, 2, 2, 1)
    for _ in range(50):
        x = tuple(rng.randint(-2, 2) for _ in range(3))
        y = tuple(rng.randint(-2, 2) for _ in range(3))
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        shifted = intersection_exact(
            tuple(a + b for a, b in zip(x, v)),
            tuple(a + b for a, b in zip(y, v)),
            p,
        )
        assert shifted == intersection_exact(x, y, p)


def test_whole_space_max_past_int64_and_the_default_cap():
    # the ball holds about 6.0e26 vectors, far past DEFAULT_ENUM_CAP
    p = ChannelParams(40, 20, 3, 3)
    e1 = (1,) + (0,) * 39
    assert intersection_exact((0,) * 40, e1, p) == max_intersection_whole_space(p)
    assert max_intersection_whole_space(p) == 295892263903763880460612554


def test_max_intersection_whole_space_examples():
    assert max_intersection_whole_space(ChannelParams(2, 1, 1, 1)) == 2
    assert max_intersection_whole_space(ChannelParams(2, 2, 1, 0)) == 2
    assert max_intersection_whole_space(ChannelParams(4, 1, 1, 0)) == 1


def test_whole_space_max_attained_and_never_exceeded_small():
    for n in (1, 2):
        for t in range(1, n + 1):
            for kp in (1, 2):
                for km in range(kp + 1):
                    p = ChannelParams(n, t, kp, km)
                    m = max_intersection_whole_space(p)
                    zero = (0,) * n
                    e1 = (1,) + (0,) * (n - 1)
                    assert intersection_exact(zero, e1, p) == m
                    for x in product(range(-2, 3), repeat=n):
                        if x == zero:
                            continue
                        assert intersection_exact(zero, x, p) <= m


def test_bounds_asymmetric_examples():
    b = intersection_bounds(ChannelParams(4, 1, 1, 0), 1)
    assert (b.lower, b.upper) == (1, 1)
    b = intersection_bounds(ChannelParams(3, 3, 1, 0), 3)
    assert (b.lower, b.upper) == (1, 1)
    # delta = t collapses the outer sum to its i = 0 term
    b = intersection_bounds(ChannelParams(5, 2, 2, 0), 2)
    assert b.lower == 1


def test_bounds_general_examples():
    b = intersection_bounds(ChannelParams(4, 2, 1, 1), 2)
    assert (b.lower, b.upper) == (1, 16)
    b = intersection_bounds(ChannelParams(5, 2, 2, 1), 1)
    assert b.lower == 10
    b = intersection_bounds(ChannelParams(4, 2, 2, 1), 2)
    assert b.lower == 1 and b.upper == 3**4


def test_bounds_preconditions():
    with pytest.raises(ValueError):
        intersection_bounds(ChannelParams(4, 1, 1, 0), 2)
    with pytest.raises(ValueError):
        intersection_bounds(ChannelParams(4, 1, 1, 1), 2)
    with pytest.raises(ValueError):
        intersection_bounds(ChannelParams(4, 1, 1, 1), -1)


def test_bounds_sandwich_seeded():
    rng = random.Random(13)
    checked = 0
    while checked < 300:
        n = rng.randint(1, 5)
        t = rng.randint(1, min(n, 3))
        kp = rng.randint(1, 2)
        km = rng.randint(0, kp)
        x = tuple(rng.randint(-2, 2) for _ in range(n))
        y = tuple(x[i] + rng.randint(-(kp + km), kp + km) for i in range(n))
        if x == y:
            continue
        p = ChannelParams(n, t, kp, km)
        d = distance_asymmetric(x, y, kp) if km == 0 else distance_general(x, y, p)
        if d > t:
            continue
        b = intersection_bounds(p, d)
        assert b.contains(intersection_exact(x, y, p)), (n, t, kp, km, x, y, d)
        checked += 1


def test_upper_bound_attained_on_zero_one_differences():
    # when y never exceeds x and the differences are all 0 or 1, the exact
    # intersection meets the upper bound
    rng = random.Random(14)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 5)
        t = rng.randint(1, min(n, 3))
        kp = rng.randint(1, 3)
        x = tuple(rng.randint(-2, 2) for _ in range(n))
        y = tuple(x[i] - rng.choice((0, 1)) for i in range(n))
        if x == y:
            continue
        d = distance_asymmetric(x, y, kp)
        if d > t:
            continue
        p = ChannelParams(n, t, kp, 0)
        assert intersection_exact(x, y, p) == intersection_bounds(p, d).upper
        checked += 1


def test_max_intersection_of_code():
    assert max_intersection_of_code({(0, 0), (1, 0)}, ChannelParams(2, 1, 1, 0)) == 1
    assert max_intersection_of_code({(0, 0), (9, 9)}, ChannelParams(2, 2, 2, 2)) == 0
    assert (
        max_intersection_of_code({(0, 0), (1, 0), (2, 0)}, ChannelParams(2, 1, 1, 1))
        == 2
    )
    with pytest.raises(ValueError):
        max_intersection_of_code({(0, 0)}, ChannelParams(2, 1, 1, 0))
    # a word of another length is an error, not cut to the channel's length
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3, channel n=2"):
        max_intersection_of_code([(0, 0), (1, 0, 0)], ChannelParams(2, 1, 1, 1))


def test_max_intersection_of_code_reads_a_given_code_as_it_is(monkeypatch):
    # an ExplicitCode is passed through: no second code is built from its members
    code, one = ExplicitCode([(0, 0), (1, 0), (2, 0)]), ExplicitCode([(0, 0)])
    monkeypatch.setattr(ExplicitCode, "__init__", mock.Mock(side_effect=AssertionError))
    assert max_intersection_of_code(code, ChannelParams(2, 1, 1, 1)) == 2
    with pytest.raises(ValueError, match="need at least 2 codewords"):
        max_intersection_of_code(one, ChannelParams(2, 1, 1, 1))


def test_max_intersection_of_code_rejects_repeated_codewords():
    # a repeated word is no pair of distinct codewords, whose balls would
    # meet in all |B| = 5 points
    with pytest.raises(ValueError, match="duplicate codewords"):
        max_intersection_of_code([(0, 0), (0, 0), (3, 0)], ChannelParams(2, 1, 1, 1))


# (size, n, lo, hi, t, k+, k-): sparse codes over [-20, 20]^n, and dense
# ones in which most pairs lie within k+ + k-
CODES = [
    (1000, 6, -20, 20, 2, 1, 1),
    (300, 4, -6, 6, 2, 2, 0),
    (150, 6, 0, 2, 2, 1, 1),
    (120, 4, 0, 3, 3, 2, 1),
    (60, 3, 0, 3, 1, 1, 0),
]


@pytest.mark.parametrize("size, n, lo, hi, t, kp, km", CODES)
def test_max_intersection_of_code_matches_the_pair_loop(size, n, lo, hi, t, kp, km):
    code = random_code(random.Random(size), size, n, lo, hi)
    p = ChannelParams(n, t, kp, km)
    expected = max(intersection_exact(a, b, p) for a, b in combinations(code, 2))
    assert max_intersection_of_code(code, p) == expected


def test_max_intersection_of_code_counts_each_close_class_once():
    for size, n, lo, hi, t, kp, km in CODES[1:]:
        code = random_code(random.Random(size), size, n, lo, hi)
        p = ChannelParams(n, t, kp, km)
        with mock.patch.object(
            combinatorics, "intersection_exact", wraps=combinatorics.intersection_exact
        ) as intersection:
            max_intersection_of_code(code, p)
        counted = sorted(tuple(call.args[1]) for call in intersection.call_args_list)
        # once per class within k+ + k-, and never on a pair past it
        assert counted == sorted(set(oracle_pair_classes(code, kp + km)))


def test_max_intersection_of_code_past_int64_is_exact():
    code = {(0, 0), (2**70, 0), (2**70 + 1, 1)}
    p = ChannelParams(2, 1, 1, 1)
    expected = max(intersection_exact(a, b, p) for a, b in combinations(code, 2))
    assert max_intersection_of_code(code, p) == expected == oracle_intersection(
        (0, 0), (1, 1), 1, 1, 1
    )


def test_max_intersection_of_code_against_pairwise_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        t = rng.randint(1, n)
        kp = rng.randint(1, 3)
        km = rng.randint(0, kp)
        size = rng.randint(2, 6)
        code = {tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(size)}
        if len(code) < 2:
            continue
        expected = max(
            oracle_intersection(a, b, t, kp, km) for a, b in combinations(code, 2)
        )
        assert max_intersection_of_code(code, ChannelParams(n, t, kp, km)) == expected
