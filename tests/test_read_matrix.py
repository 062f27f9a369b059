"""Differential tests of the int64 read-set matrix and the syndrome-table
decoder against the tuple kernels and brute-force oracles in ``helpers``."""

import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magrec import ChannelParams, ERASURE, brute_force_decode
from magrec.channel import (
    ReadGenSpec,
    exhaustive_read_sets,
    generate_reads,
    rng_for,
    sampled_read_sets,
)
from magrec.core import ENTRY_LIMIT
from magrec.lattice import lattice_code_handle, parse_splitter_spec, syndrome
from magrec.reconstruction import (
    ReadSet,
    _covers,
    _sauer_candidates,
    componentwise_min,
    majority_estimate,
)

from helpers import (
    DIFFERENTIAL_CHANNELS,
    add,
    differential_specs,
    oracle_adversarial_order,
    oracle_ball,
    oracle_componentwise_min,
    oracle_covers,
    oracle_lattice_window,
    oracle_majority_entries,
    oracle_read_set,
    oracle_sauer_candidates,
)
from strategies import channels

CHECKS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

#: Mostly small entries, so columns tie often, plus the extremes of the
#: int64-safe range.
ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-(ENTRY_LIMIT - 1), -(10**12), 10**12, ENTRY_LIMIT - 1]),
)


@st.composite
def read_sets(draw, entries=ENTRIES):
    p = draw(channels())
    row = st.tuples(*[entries] * p.n)
    return p, draw(st.lists(row, min_size=1, max_size=24, unique=True))


def margins(rows):
    """2 * count - N of each column's plurality value."""
    N = len(rows)
    out = []
    for col in zip(*rows):
        out.append(2 * max(col.count(v) for v in set(col)) - N)
    return out


@CHECKS
@given(read_sets(), st.data())
def test_matrix_kernels_match_tuple_oracles(case, data):
    p, reads = case
    Y = ReadSet(reads, p)
    rows = oracle_read_set(reads, p.n)
    assert Y.reads == rows
    assert Y.anchor == rows[0] and len(Y) == len(rows)
    assert Y.matrix.dtype == np.int64 and not Y.matrix.flags.writeable
    assert componentwise_min(Y) == oracle_componentwise_min(rows)

    # thresholds at a margin (erased), just below it (kept) and in between
    m = data.draw(st.sampled_from(margins(rows)))
    for tau in (Fraction(m), Fraction(m - 1), Fraction(2 * m - 1, 2)):
        assert majority_estimate(Y, tau).entries == oracle_majority_entries(rows, tau)
    tau = Fraction(data.draw(st.integers(-30, 30)), data.draw(st.integers(1, 3)))
    assert majority_estimate(Y, tau).entries == oracle_majority_entries(rows, tau)

    r = data.draw(st.sampled_from(rows))
    c = add(r, data.draw(st.tuples(*[st.integers(-3, 3)] * p.n)))
    if max(map(abs, c)) >= ENTRY_LIMIT:
        with pytest.raises(ValueError):
            _covers(c, Y)
    else:
        assert _covers(c, Y) == oracle_covers(c, rows, p.t, p.k_plus, p.k_minus)


def test_majority_margin_equal_to_tau_is_erased():
    p = ChannelParams(2, 1, 1, 1)
    Y = ReadSet(((0, 1), (0, 2), (0, 3), (1, 1), (1, 2)), p)
    # column 0: value 0 three times, margin 1; column 1: 1 and 2 tie twice,
    # the smaller wins, margin -1
    assert majority_estimate(Y, Fraction(1)).entries == (ERASURE, ERASURE)
    assert majority_estimate(Y, Fraction(1, 2)).entries == (0, ERASURE)
    assert majority_estimate(Y, Fraction(-2)).entries == (0, 1)


def test_vote_memory_does_not_grow_with_value_spread():
    p = ChannelParams(2, 1, 1, 1)
    Y = ReadSet(((0, 5), (10**12, 5), (ENTRY_LIMIT - 1, 6)), p)
    tracemalloc.start()
    try:
        estimate = majority_estimate(Y, Fraction(-2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert estimate.entries == (0, 5)
    assert peak < 2**16


@pytest.mark.parametrize("entry", [ENTRY_LIMIT, -ENTRY_LIMIT, 2**63, -(2**63) - 1])
def test_read_entries_outside_int64_safe_range_rejected(entry):
    p = ChannelParams(2, 1, 1, 1)
    with pytest.raises(ValueError):
        ReadSet(((0, 0), (entry, 0)), p)
    if abs(entry) < 2**63:
        with pytest.raises(ValueError):
            ReadSet(np.array([[0, 0], [entry, 0]], dtype=np.int64), p)


def test_read_matrix_must_be_sorted_distinct_int64():
    p = ChannelParams(2, 1, 1, 1)
    for bad in (
        np.array([[1, 0], [0, 0]], dtype=np.int64),  # not sorted
        np.array([[0, 0], [0, 0]], dtype=np.int64),  # not distinct
        np.array([[0, 0], [0, 1]], dtype=np.int32),
        np.array([[0, 0, 0]], dtype=np.int64),
        np.zeros((0, 2), dtype=np.int64),
    ):
        with pytest.raises(ValueError):
            ReadSet(bad, p)


def test_transmitted_word_near_int64_limit_rejected():
    p = ChannelParams(2, 1, 1, 0)
    for x in ((ENTRY_LIMIT - 1, 0), (2**63, 0), (-ENTRY_LIMIT, 0)):
        with pytest.raises(ValueError):
            generate_reads(x, p, ReadGenSpec("random_distinct", 2))
        with pytest.raises(ValueError):
            next(exhaustive_read_sets(x, p, 2))
    Y = generate_reads((ENTRY_LIMIT - 2, 0), p, ReadGenSpec("random_distinct", 3))
    assert max(max(r) for r in Y.reads) == ENTRY_LIMIT - 1


@CHECKS
@given(channels(max_n=4), st.data())
def test_generated_read_sets_match_tuple_built(p, data):
    x = data.draw(st.tuples(*[st.integers(-5, 5)] * p.n))
    ball = oracle_ball(p.n, p.t, p.k_plus, p.k_minus)
    shifted = [add(x, e) for e in ball]
    count = data.draw(st.integers(1, len(ball)))
    seed = data.draw(st.integers(0, 2**32))

    idx = rng_for(seed).choice(len(ball), size=count, replace=False)
    Y = generate_reads(x, p, ReadGenSpec("random_distinct", count, seed))
    assert Y.reads == oracle_read_set([shifted[int(i)] for i in idx], p.n)

    heavy = oracle_adversarial_order(ball)[:count]
    Y = generate_reads(x, p, ReadGenSpec("adversarial_heavy", count))
    assert Y.reads == oracle_read_set([add(x, e) for e in heavy], p.n)

    rng = rng_for(seed)
    expected = [
        oracle_read_set(
            [shifted[int(i)] for i in rng.choice(len(ball), size=count, replace=False)],
            p.n,
        )
        for _ in range(3)
    ]
    assert [Y.reads for Y in sampled_read_sets(x, p, count, 3, seed)] == expected

    if comb(len(ball), count) <= 3000:
        assert [Y.reads for Y in exhaustive_read_sets(x, p, count)] == [
            oracle_read_set(s, p.n) for s in combinations(shifted, count)
        ]


def test_exhaustive_read_sets_of_zero_reads_rejected():
    with pytest.raises(ValueError):
        next(exhaustive_read_sets((0, 0), ChannelParams(2, 1, 1, 0), 0))


def test_exhaustive_read_sets_span_several_index_blocks():
    p = ChannelParams(5, 2, 1, 0)  # ball of 16: C(16, 6) = 8008 subsets
    x = (1, -1, 0, 2, 0)
    shifted = [add(x, e) for e in oracle_ball(5, 2, 1, 0)]
    got = [Y.reads for Y in exhaustive_read_sets(x, p, 6, cap=10**4)]
    assert got == [oracle_read_set(s, 5) for s in combinations(shifted, 6)]


@CHECKS
@given(read_sets(entries=st.integers(-2, 2)), st.data())
def test_sauer_shift_prefilter_matches_full_filter(case, data):
    p, reads = case
    f = data.draw(st.integers(0, p.n))
    U = tuple(sorted(data.draw(
        st.sets(st.integers(0, p.n - 1), max_size=f)
    )))
    Y = ReadSet(reads, p)
    assert _sauer_candidates(Y, U, f) == oracle_sauer_candidates(
        reads, U, f, p.k_plus, p.k_minus
    )


def test_syndrome_is_the_inline_modular_sum():
    for spec in differential_specs():
        for v in product(range(-3, 4), repeat=spec.n):
            expected = tuple(
                sum(x * g[j] for x, g in zip(v, spec.s)) % m
                for j, m in enumerate(spec.group.moduli)
            )
            assert syndrome(spec, v) == expected


def _check_table_decode(spec, kp, km):
    zs = list(product((-1, 0, 1), repeat=spec.n))
    code = lattice_code_handle(spec)
    members = oracle_lattice_window(spec, -1 - kp, 1 + km)
    for radius in range(min(2, spec.n) + 1):
        p = ChannelParams(spec.n, radius, kp, km)
        for z in zs:
            assert code.decode_within(z, radius, p) == brute_force_decode(
                members, z, radius, p
            ), (str(spec), kp, km, radius, z)


def test_table_decode_matches_brute_force():
    """Every z in [-1, 1]^n, radii 0-2, on the specs and channels of the
    lattice differential tests: the coset-leader table gives
    brute_force_decode's answer."""
    for spec in differential_specs():
        for kp, km in DIFFERENTIAL_CHANNELS:
            _check_table_decode(spec, kp, km)
    spec = parse_splitter_spec("group=Z13; s=[1,2,3,4,5,6]")
    _check_table_decode(spec, 1, 1)
