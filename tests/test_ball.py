"""Property tests of the ball cache, the per-minimum subset counts, the
intersection count, the splitting test, and the lattice distance and
packing check against the brute-force oracles in ``helpers``."""

import math
from collections import Counter, OrderedDict
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magrec import ChannelParams, EnumerationCapExceeded
from magrec import combinatorics
from magrec.combinatorics import (
    ball_matrix,
    ball_size,
    ball_vectors,
    intersection_exact,
    minimum_counts,
)
from magrec.lattice import (
    FiniteAbelianGroup,
    SplitterSpec,
    check_partial_splitting,
    lattice_min_distance,
    max_pairwise_intersection_lattice,
)

from helpers import (
    oracle_ball,
    oracle_intersection,
    oracle_lattice_min_distance,
    oracle_max_pairwise_intersection,
    oracle_partial_splitting,
)
from strategies import channels

CHECKS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def splitters(draw, max_n=3):
    """A splitter over a cyclic group of order 2..13 or over Z2 x Z2..Z4."""
    moduli = draw(st.one_of(
        st.tuples(st.integers(2, 13)),
        st.tuples(st.just(2), st.integers(2, 4)),
    ))
    n = draw(st.integers(1, max_n))
    element = st.tuples(*(st.integers(0, m - 1) for m in moduli))
    return SplitterSpec(FiniteAbelianGroup(moduli), tuple(draw(element) for _ in range(n)))


@CHECKS
@given(channels(max_n=4, max_km=0), st.data())
def test_minimum_counts_match_a_counter_of_the_subsets(p, data):
    ball = oracle_ball(p.n, p.t, p.k_plus, 0)
    N = data.draw(st.integers(1, len(ball)))
    assume(math.comb(len(ball), N) <= 3000)
    minima = Counter(tuple(map(min, zip(*S))) for S in combinations(ball, N))
    counts = minimum_counts(p, N)
    # a count per row of the ball, in its order, and 0 where no set has it
    assert len(counts) == len(ball)
    assert {z: c for z, c in zip(ball, counts) if c} == minima


def test_minimum_counts_need_a_k_minus_zero_channel():
    with pytest.raises(ValueError, match="k- = 0"):
        minimum_counts(ChannelParams(2, 1, 1, 1), 1)


@CHECKS
@given(channels())
def test_ball_matrix_matches_oracle(p):
    expected = oracle_ball(p.n, p.t, p.k_plus, p.k_minus)
    matrix = ball_matrix(p)
    assert len(matrix) == ball_size(p) == len(expected)
    assert matrix.tolist() == [list(e) for e in expected]  # lexicographic order
    assert not matrix.flags.writeable
    assert ball_vectors(p.n, p.t, p.k_plus, p.k_minus) == tuple(expected)


def test_lex_rows_is_the_cost_filtered_product():
    values, cost = [-2, -1, 0, 1, 3], [2, 1, 0, 1, 3]
    for k in range(4):
        for budget in range(5):
            expected = [
                list(row) for row in product(values, repeat=k)
                if sum(cost[values.index(v)] for v in row) <= budget
            ]
            assert combinatorics._lex_rows(values, cost, k, budget).tolist() == expected


@CHECKS
@given(channels(max_n=4), st.data())
def test_intersection_exact_matches_oracle(p, data):
    # centers up to 6 apart in an entry, often beyond k+ + k- of each other
    center = st.tuples(*[st.integers(-3, 3)] * p.n)
    x, y = data.draw(center), data.draw(center)
    assert intersection_exact(x, y, p) == oracle_intersection(
        x, y, p.t, p.k_plus, p.k_minus
    )


@CHECKS
@given(splitters(max_n=4), channels(max_n=1), st.data())
def test_check_partial_splitting_matches_seen_set_oracle(spec, channel, data):
    t = data.draw(st.integers(1, spec.n))
    kp, km = channel.k_plus, channel.k_minus
    p = ChannelParams(spec.n, t, kp, km)
    assert check_partial_splitting(spec, p) == oracle_partial_splitting(
        spec, kp, km, t
    )


@settings(CHECKS, max_examples=60)
@given(splitters(), channels(max_n=1, max_kp=2), st.data())
def test_lattice_scans_match_box_oracles(spec, channel, data):
    kp, km = channel.k_plus, channel.k_minus
    t = data.draw(st.integers(1, spec.n))
    assert lattice_min_distance(spec, kp, km) == oracle_lattice_min_distance(spec, kp, km)
    p = ChannelParams(spec.n, t, kp, km)
    assert max_pairwise_intersection_lattice(spec, p) == (
        oracle_max_pairwise_intersection(spec, t, kp, km)
    )


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty ball cache for the test."""
    monkeypatch.setattr(combinatorics, "_ball_cache", OrderedDict())
    return combinatorics._ball_cache


@pytest.fixture
def small_cache(fresh_cache, monkeypatch):
    """An empty ball cache with a 64 KiB budget for the test."""
    monkeypatch.setattr(combinatorics, "BALL_CACHE_BYTES", 64 * 2**10)
    return fresh_cache


def charged(cache):
    return sum(matrix.nbytes for matrix in cache.values())


def test_ball_cache_stays_within_its_budget(small_cache):
    for n in range(1, 8):
        for t in range(n + 1):
            for kp, km in [(1, 0), (1, 1), (2, 1)]:
                ball_matrix(ChannelParams(n, t, kp, km))
                assert charged(small_cache) <= combinatorics.BALL_CACHE_BYTES
    assert small_cache  # the smaller balls are kept
    last = next(reversed(small_cache))
    assert ball_matrix(last) is small_cache[last]  # a hit


def test_ball_over_the_budget_is_returned_but_not_kept(small_cache):
    p = ChannelParams(3, 1, 1, 1)
    kept = ball_matrix(p)
    big = ball_matrix(ChannelParams(8, 8, 1, 1))  # 3^8 rows, over 0.4 MiB
    assert big.shape == (3**8, 8)
    assert list(small_cache) == [p]
    assert ball_matrix(ChannelParams(3, 1, 1, 1)) is kept


@pytest.mark.parametrize("key", [(6, 3, 2, 1), (3, 1, 300, 7)])
def test_ball_is_charged_exactly_its_matrix_bytes(key, fresh_cache, monkeypatch):
    key, other, last = ChannelParams(*key), ChannelParams(2, 1, 1, 0), ChannelParams(1, 1, 1, 0)
    monkeypatch.setattr(
        combinatorics, "BALL_CACHE_BYTES", ball_matrix(key).nbytes + ball_matrix(other).nbytes
    )
    fresh_cache.clear()
    matrix = ball_matrix(key)
    ball_matrix(other)
    assert list(fresh_cache) == [key, other]  # both fit exactly
    assert fresh_cache[key] is matrix and not matrix.flags.writeable
    ball_matrix(last)  # 16 bytes more drops the oldest
    assert list(fresh_cache) == [other, last]


def test_ball_cache_hit_is_the_same_array_and_vectors_are_a_fresh_copy(fresh_cache):
    p = ChannelParams(4, 2, 1, 1)
    matrix = ball_matrix(p)
    assert ball_matrix(ChannelParams(4, 2, 1, 1)) is matrix
    rows = ball_vectors(4, 2, 1, 1)
    assert rows == tuple(map(tuple, matrix.tolist()))
    assert ball_vectors(4, 2, 1, 1) is not rows
    assert list(fresh_cache) == [p]


def test_radius_zero_ball_of_any_magnitude_is_the_zero_row(fresh_cache):
    assert ball_matrix(ChannelParams(2, 0, 10**12, 10**12)).tolist() == [[0, 0]]


def test_cache_hit_past_the_cap_raises(small_cache):
    assert len(ball_vectors(3, 1, 1, 1)) == 7
    p = ChannelParams(3, 1, 1, 1)
    for fetch in (lambda cap: ball_vectors(3, 1, 1, 1, cap), lambda cap: ball_matrix(p, cap)):
        with pytest.raises(EnumerationCapExceeded):
            fetch(6)
    assert len(ball_matrix(p, cap=7)) == 7
