"""Property tests of the one cache of derived tables, the per-minimum
subset counts, the intersection count, the splitting test, and the lattice
distance and packing check against the brute-force oracles in
``helpers``."""

import math
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magrec import ChannelParams, EnumerationCapExceeded
from magrec import combinatorics, core, tandem
from magrec.channel import minimum_sets
from magrec.combinatorics import (
    ball_matrix,
    ball_one_hot,
    ball_size,
    ball_vectors,
    intersection_exact,
    minimum_counts,
    subsets_with_minimum,
)
from magrec.lattice import (
    FiniteAbelianGroup,
    LatticeCode,
    SplitterSpec,
    check_partial_splitting,
    lattice_min_distance,
    max_pairwise_intersection_lattice,
)

from helpers import (
    empty_cache,
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
@given(st.integers(1, 4).flatmap(
    lambda k: st.sets(st.tuples(*[st.integers(0, 3)] * k), min_size=1, max_size=12)
), st.integers(1, 4))
def test_the_mobius_kernel_matches_a_counter_of_the_minima(X, N):
    # one class per coordinate, so U(a) is any up-set count, not a product
    X = sorted(X)
    k = len(X[0])
    minima = Counter(tuple(map(min, zip(*S))) for S in combinations(X, N))

    def above(y):
        return sum(all(a >= b for a, b in zip(x, y)) for x in X)

    for z in product(range(4), repeat=k):
        def up(raised):  # the last coordinate is the inner sum
            head = [c + a for c, a in zip(z, raised)]
            return [above((*head, z[-1] + j)) for j in (0, 1)]

        assert subsets_with_minimum([1] * k, up, N) == minima[z]


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


def test_kept_minimum_counts_equal_fresh_ones(fresh_cache):
    # minimum_sets counts from the one cache: a second run reads the kept,
    # read-only table, which equals a fresh minimum_counts
    p, N, x = ChannelParams(5, 2, 1, 0), 4, (1, 0, 0, 1, 0)
    runs = [[c for _, counts in minimum_sets(x, p, N) for c in counts.tolist()] for _ in range(2)]
    kept = fresh_cache[("minimum-counts", p, N)][0]
    assert kept.tolist() == minimum_counts(p, N) and not kept.flags.writeable
    assert runs[0] == runs[1] == [c for c in minimum_counts(p, N) if c]


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
@given(channels(max_n=6), st.data())
def test_intersection_exact_matches_oracle(p, data):
    # entries of the centers up to 2(k+ + k-) + 1 apart; half the draws keep
    # every entry within k+ + k-, where the intersection can be nonzero
    far = 2 * p.magnitude_span + 1
    reach = data.draw(st.sampled_from([p.magnitude_span, far]))
    x = data.draw(st.tuples(*[st.integers(-far, far)] * p.n))
    d = data.draw(st.tuples(*[st.integers(-reach, reach)] * p.n))
    y = tuple(a + b for a, b in zip(x, d))
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
    """An empty cache for the test."""
    return empty_cache(monkeypatch)


@pytest.fixture
def small_cache(fresh_cache, monkeypatch):
    """An empty cache with a 64 KiB budget for the test."""
    monkeypatch.setattr(combinatorics, "BALL_CACHE_BYTES", 64 * 2**10)
    return fresh_cache


def charged(cache):
    """The bytes of the arrays the cache keeps (all int64 or float32 here)."""
    return sum(
        a.nbytes
        for value, _ in cache.values()
        for a in (value if isinstance(value, tuple) else (value,))
    )


def kind(key):
    """A cache key's kind: its string tag, or else the type of its head."""
    head = key[0] if isinstance(key, tuple) else key
    return head if isinstance(head, str) else type(head)


def test_ball_cache_stays_within_its_budget(small_cache):
    # balls, one-hot matrices, coset-leader tables, lattice difference
    # classes and tandem upward balls fill the one budget, and the running
    # total is always the bytes of what is kept
    kinds = set()
    for n in range(1, 8):
        spec = SplitterSpec(FiniteAbelianGroup((7,)), tuple((i,) for i in range(1, n + 1)))
        for t in range(n + 1):
            for kp, km in [(1, 0), (1, 1), (2, 1)]:
                p = ChannelParams(n, t, kp, km)
                ball_matrix(p)
                ball_one_hot(p)
                LatticeCode(spec).decode_within((0,) * n, t, p)
                max_pairwise_intersection_lattice(spec, ChannelParams(n, 1, kp, km))
                tandem.upward_ball((0,) * n, min(t, 3))
                assert combinatorics._cache_bytes == charged(small_cache)
                assert charged(small_cache) <= combinatorics.BALL_CACHE_BYTES
                kinds |= set(map(kind, small_cache))
    # all five kinds are kept
    assert kinds == {ChannelParams, "one-hot", SplitterSpec, "differences", "excess"}
    last = [key for key in small_cache if isinstance(key, ChannelParams)][-1]
    assert ball_matrix(last) is small_cache[last][0]  # a hit


def test_one_hot_is_judged_against_the_block_budget_on_every_call(fresh_cache, monkeypatch):
    # the size test comes before the lookup: a kept matrix is refused once
    # core.BLOCK_BYTES drops below it, with nothing cleared
    p = ChannelParams(4, 2, 1, 1)
    hot = ball_one_hot(p)
    assert hot is not None and ball_one_hot(p) is hot
    monkeypatch.setattr(core, "BLOCK_BYTES", hot.nbytes - 1)
    assert ball_one_hot(p) is None
    assert fresh_cache[("one-hot", p)][0] is hot
    monkeypatch.setattr(core, "BLOCK_BYTES", hot.nbytes)
    assert ball_one_hot(p) is hot


def test_an_insert_costs_the_same_however_full_the_cache(small_cache):
    # the byte total moves by each kept or dropped entry, never re-summed:
    # 10**4 tiny tables, most of them kept, go in well within a second
    start = time.perf_counter()
    for i in range(10**4):
        combinatorics.cached(("tiny", i), lambda: np.zeros(1))
    assert time.perf_counter() - start < 1
    assert len(small_cache) == combinatorics.BALL_CACHE_BYTES // 8
    assert combinatorics._cache_bytes == charged(small_cache)


def test_threads_keep_the_byte_total_exact(small_cache):
    # 8 threads insert, hit and evict overlapping keys with a thread switch
    # every microsecond: a lost update would leave the total off the bytes
    def work(seed):
        for i in range(2000):
            combinatorics.cached(("tiny", (seed * 977 + i) % 9000), lambda: np.zeros(1 + i % 3))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for done in [pool.submit(work, seed) for seed in range(8)]:
                done.result(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert combinatorics._cache_bytes == charged(small_cache) <= combinatorics.BALL_CACHE_BYTES


def test_an_object_table_is_charged_its_python_ints(fresh_cache):
    big = np.array([2**100, 3], dtype=object)
    assert combinatorics.cached("big", lambda: big) is big and not big.flags.writeable
    assert combinatorics._cache_bytes == big.nbytes + sys.getsizeof(2**100) + sys.getsizeof(3)


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
    fresh_cache = empty_cache(monkeypatch)
    matrix = ball_matrix(key)
    ball_matrix(other)
    assert list(fresh_cache) == [key, other]  # both fit exactly
    assert fresh_cache[key][0] is matrix and not matrix.flags.writeable
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
