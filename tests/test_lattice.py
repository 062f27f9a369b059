import random
import sys
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magrec import ChannelParams, EnumerationCapExceeded, ExplicitCode, combinatorics, lattice
from magrec.lattice import (
    FiniteAbelianGroup,
    LatticeCode,
    SplitterSpec,
    check_partial_splitting,
    check_recon_N1,
    check_recon_N2,
    construct_N1_code,
    construct_N2_code,
    cyclic,
    lattice_min_distance,
    max_pairwise_intersection_lattice,
    min_group_order_bound,
    parse_splitter_spec,
    syndrome,
)

from helpers import (
    DIFFERENTIAL_CHANNELS,
    brute_force_decode,
    differential_specs,
    oracle_ball_set,
    oracle_lattice_box,
    oracle_lattice_min_distance,
    oracle_lattice_window,
    oracle_max_pairwise_intersection,
    oracle_packing_by_window_pairs,
)


def spec1(m, s):
    return SplitterSpec(cyclic(m), tuple((v,) for v in s))


def test_group_basics():
    g = FiniteAbelianGroup((2, 3))
    assert g.order == 6
    assert g.identity == (0, 0)
    assert g.element((3, -1)) == (1, 2)
    assert g.scale(-1, (1, 1)) == (1, 2)
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))


def test_syndrome_examples():
    assert syndrome(spec1(4, (1, 1)), (1, 3)) == (0,)
    assert syndrome(spec1(5, (2, 3)), (0, 0)) == (0,)
    g = FiniteAbelianGroup((2, 3))
    s = SplitterSpec(g, ((1, 0), (0, 1)))
    assert syndrome(s, (1, 2)) == (1, 2)
    with pytest.raises(ValueError):
        syndrome(spec1(4, (1, 1)), (1, 2, 3))


def test_check_partial_splitting_examples():
    assert check_partial_splitting(spec1(7, (1, 2)), ChannelParams(2, 1, 1, 1))
    assert not check_partial_splitting(spec1(2, (1, 1)), ChannelParams(2, 2, 1, 0))
    # a single coordinate splits Z_{k+ + k- + 1} with s = (1)
    for kp, km in [(1, 0), (1, 1), (2, 1)]:
        assert check_partial_splitting(spec1(kp + km + 1, (1,)), ChannelParams(1, 1, kp, km))


def test_lattice_checks_need_the_splitters_length_and_their_radius():
    spec = spec1(7, (1, 2))
    with pytest.raises(ValueError, match="t must be >= 1"):
        check_partial_splitting(spec, ChannelParams(2, 0, 1, 1))
    # a channel of another length than the splitter's
    p = ChannelParams(3, 1, 2, 1)
    for check in (check_partial_splitting, check_recon_N1, check_recon_N2,
                  max_pairwise_intersection_lattice):
        with pytest.raises(ValueError, match="the channel has n=3, the splitter n=2"):
            check(spec, p)
    # the radius-1 statements need t = 1
    p = ChannelParams(2, 2, 2, 1)
    for call in (lambda: check_recon_N1(spec, p), lambda: check_recon_N2(spec, p),
                 lambda: construct_N1_code(p), lambda: construct_N2_code(p),
                 lambda: min_group_order_bound(p, 1)):
        with pytest.raises(ValueError, match="need t = 1, got t=2"):
            call()


def test_splitting_iff_packing_small():
    rng = random.Random(101)
    for m in range(2, 13):
        for n in (1, 2):
            pool = list(product(range(m), repeat=n))
            rng.shuffle(pool)
            for s in pool[:12]:
                for kp, km in [(1, 0), (2, 0), (1, 1), (2, 1)]:
                    for t in range(1, n + 1):
                        spec = spec1(m, s)
                        p = ChannelParams(n, t, kp, km)
                        split = check_partial_splitting(spec, p)
                        assert split == (max_pairwise_intersection_lattice(spec, p) == 0)


def test_packing_oracles_agree():
    for m in (2, 3, 4, 5, 7):
        for s in [(1,), (1, 1), (1, 2), (2, 3)]:
            for kp, km in [(1, 0), (1, 1), (2, 1)]:
                spec = spec1(m, s)
                p = ChannelParams(spec.n, 1, kp, km)
                assert (max_pairwise_intersection_lattice(spec, p) == 0) == (
                    oracle_packing_by_window_pairs(spec, kp, km, 1)
                )


def test_check_recon_N1_examples():
    assert check_recon_N1(spec1(5, (1,)), ChannelParams(1, 1, 2, 1))
    assert not check_recon_N1(spec1(2, (1, 1)), ChannelParams(2, 1, 1, 1))
    # minimal cyclic order passing at (k+, k-) = (2, 1), n = 1 is the
    # group-order bound max(2*1*1+1, 3) = 3
    p = ChannelParams(1, 1, 2, 1)
    orders = [m for m in range(2, 8) if check_recon_N1(spec1(m, (1,)), p)]
    assert min(orders) == min_group_order_bound(p, 1) == 3
    # k- = 0: per coordinate, a*s_i are distinct over a in [0, k+-1]
    assert check_recon_N1(spec1(3, (1,) * 3), ChannelParams(3, 1, 3, 0))
    assert not check_recon_N1(spec1(2, (1,)), ChannelParams(1, 1, 3, 0))
    assert check_recon_N1(spec1(2, (1,) * 4), ChannelParams(4, 1, 2, 0))
    with pytest.raises(ValueError, match="k_plus >= 2 at k_minus = 0"):
        check_recon_N1(spec1(2, (1,)), ChannelParams(1, 1, 1, 0))


def test_check_recon_N1_matches_bruteforce_intersections():
    rng = random.Random(102)
    for m in range(2, 12):
        for n in (1, 2, 3):
            pool = list(product(range(m), repeat=n))
            rng.shuffle(pool)
            for s in pool[:8]:
                spec = spec1(m, s)
                for kp, km in [(2, 0), (3, 0), (4, 0), (2, 1), (2, 2), (3, 1)]:
                    p = ChannelParams(n, 1, kp, km)
                    max_inter = max_pairwise_intersection_lattice(spec, p)
                    assert check_recon_N1(spec, p) == (max_inter <= 1)
                    if km:
                        assert check_recon_N2(spec, p) == (max_inter <= 2)


def test_check_recon_N2_examples():
    # recomputed by direct residue evaluation: over Z_2 with s = (1),
    # [-1, 0] maps to {1, 0} (distinct) but [-1, 1] collides at 1 = -1
    assert check_recon_N2(spec1(2, (1,)), ChannelParams(1, 1, 2, 1))
    assert not check_recon_N2(spec1(2, (1,)), ChannelParams(1, 1, 3, 1))
    assert check_recon_N2(spec1(4, (1,)), ChannelParams(1, 1, 3, 2))


def test_constructions():
    for kp in (2, 3, 4):
        p = ChannelParams(3, 1, kp, 0)
        spec = construct_N1_code(p)
        assert spec.group.order == kp == min_group_order_bound(p, 1)
        assert check_recon_N1(spec, p)
        assert max_pairwise_intersection_lattice(spec, p) <= 1
    for kp in (2, 3):
        for km in range(1, kp + 1):
            if kp + km < 3:
                continue
            p = ChannelParams(2, 1, kp, km)
            spec = construct_N2_code(p)
            assert spec.group.order == kp + km - 1 == min_group_order_bound(p, 2)
            assert check_recon_N2(spec, p)
            assert max_pairwise_intersection_lattice(spec, p) <= 2


def test_construction_preconditions():
    with pytest.raises(ValueError):
        construct_N1_code(ChannelParams(3, 1, 1, 0))
    with pytest.raises(ValueError, match="k_minus = 0"):
        construct_N1_code(ChannelParams(3, 1, 2, 1))
    with pytest.raises(ValueError):
        construct_N2_code(ChannelParams(3, 1, 1, 1))


def test_min_group_order_bound_examples():
    assert min_group_order_bound(ChannelParams(3, 1, 2, 1), 1) == 7
    assert min_group_order_bound(ChannelParams(2, 1, 2, 2), 1) == 7
    assert min_group_order_bound(ChannelParams(1, 1, 3, 0), 1) == 3
    assert min_group_order_bound(ChannelParams(5, 1, 3, 1), 2) == 3
    with pytest.raises(ValueError):
        min_group_order_bound(ChannelParams(3, 1, 2, 1), 3)
    with pytest.raises(ValueError, match="k_plus >= 2 at k_minus = 0"):
        min_group_order_bound(ChannelParams(3, 1, 1, 0), 1)


def test_lattice_code_contains_and_decodes():
    code = LatticeCode(spec1(4, (1, 1)))
    assert code.contains((2, 2))
    assert code.contains((0, 0))
    assert not code.contains((1, 0))
    # recomputed: candidates (1,0),(1,-1),(0,0) in error-lex order; (1,-1)
    # sums to 0 mod 2 and is hit before (0,0)
    code2 = LatticeCode(spec1(2, (1, 1)))
    assert code2.decode_within((1, 0), 1, ChannelParams(2, 1, 1, 0)) == (1, -1)


def test_lattice_code_keeps_one_coset_leader_table():
    spec = spec1(7, (1, 2, 3))
    code = LatticeCode(spec)
    keys = [(1, 1, 1), (1, 2, 0), (0, 1, 1)]  # (radius, k+, k-) of the decode ball
    fresh = {key: LatticeCode(spec) for key in keys}
    # the table switches key on every call
    for z in product(range(-2, 3), repeat=3):
        for key in keys:
            radius, kp, km = key
            p = ChannelParams(3, 3, kp, km)
            assert code.decode_within(z, radius, p) == fresh[key].decode_within(z, radius, p)
            assert code._leaders[0] == ChannelParams(3, *key)
    # the table is (key, sorted syndrome codes, leader matrix)
    mine, theirs = code._leaders, fresh[keys[-1]]._leaders
    assert mine[0] == theirs[0]
    assert all(np.array_equal(a, b) for a, b in zip(mine[1:], theirs[1:]))


def test_decode_rows_decodes_with_the_table_it_looked_up():
    # a thread switch may come before any line of decode_rows: emulate one,
    # deterministically, that swaps the handle's table to another key's
    spec = spec1(7, (1, 2, 3))
    p = ChannelParams(3, 3, 1, 1)
    U = np.array(list(product(range(-2, 3), repeat=3)), dtype=np.int64)
    other = LatticeCode(spec)
    other.decode_rows(U, 0, p)
    expected = LatticeCode(spec).decode_rows(U, 1, p)
    code = LatticeCode(spec)

    def swap(frame, event, arg):
        if event == "line":
            code._leaders = other._leaders
        return swap

    def calls(frame, event, arg):
        return swap if frame.f_code is LatticeCode.decode_rows.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        C, found = code.decode_rows(U, 1, p)
    finally:
        sys.settrace(previous)
    assert code._leaders is other._leaders
    assert np.array_equal(found, expected[1]) and np.array_equal(C, expected[0])


def test_cap_bounds_the_coset_leader_ball():
    # the 7-vector ball B(3, 1, 1, 1) gives the coset leaders
    spec = spec1(7, (1, 2, 3))
    p = ChannelParams(3, 1, 1, 1)
    U = np.array([[1, 0, 0], [0, 0, 0]], dtype=np.int64)
    with pytest.raises(EnumerationCapExceeded):
        LatticeCode(spec).decode_rows(U, 1, p, cap=6)
    C, found = LatticeCode(spec).decode_rows(U, 1, p, cap=7)
    assert C.tolist() == [[0, 0, 0], [0, 0, 0]] and found.all()


def test_cap_bounds_a_decode_with_a_cached_table():
    # a handle whose table is cached charges its decode ball like a fresh one
    spec = lattice.parse_splitter_spec("group=Z13; s=[1,2,3,4,5,6]")
    p = ChannelParams(6, 2, 1, 1)
    U = np.array([[1, 1, 0, 0, 0, 0]], dtype=np.int64)
    code = LatticeCode(spec)
    assert code.decode_rows(U, 2, p, cap=10**7)[1].all()
    err = "73 ball vectors exceed enumeration cap 5"
    for handle in (LatticeCode(spec), code):
        with pytest.raises(EnumerationCapExceeded, match=err):
            handle.decode_rows(U, 2, p, cap=5)


@pytest.mark.parametrize("text, python_ints", [
    ("group=Z7; s=[1,2,3]", False),
    ("group=Z4xZ3; s=[(1,0),(0,2),(1,1)]", False),
    # n * m**2 >= 2**62: the syndrome kernel runs in Python ints
    (f"group=Z{2**31 + 11}; s=[1,{2**31 + 10},2]", True),
])
def test_decode_rows_matches_decode_within_and_brute_force(text, python_ints):
    spec = parse_splitter_spec(text)
    # every decode window of z in [-2, 2]^n lies in [-4, 3]^n
    members = oracle_lattice_window(spec, -4, 3)
    explicit = ExplicitCode(members)
    U = np.array(list(product(range(-2, 3), repeat=spec.n)), dtype=np.int64)
    assert (lattice._syndrome_codes(spec, U).dtype == object) == python_ints
    for kp, km in [(1, 0), (1, 1), (2, 1)]:
        for radius in range(3):
            p = ChannelParams(spec.n, radius, kp, km)
            code = LatticeCode(spec)
            C, found = code.decode_rows(U, radius, p)
            assert C.shape == U.shape and C.dtype == np.int64 and found.dtype == bool
            C_explicit, found_explicit = explicit.decode_rows(U, radius, p)
            assert np.array_equal(found, found_explicit)
            assert np.array_equal(C[found], C_explicit[found])
            for z, c, ok in zip(U.tolist(), C.tolist(), found.tolist()):
                expected = brute_force_decode(members, tuple(z), radius, p)
                assert (tuple(c) if ok else None) == expected
                assert LatticeCode(spec).decode_within(tuple(z), radius, p) == expected
                assert ok or not code.contains(tuple(c))
            # some rows have no codeword in their window
            assert found.any() and (radius > 0 or not found.all())
            empty = np.zeros((0, spec.n), dtype=np.int64)
            C, found = code.decode_rows(empty, radius, p)
            assert C.shape == (0, spec.n) and found.shape == (0,)
            C, found = explicit.decode_rows(empty, radius, p)
            assert C.shape == (0, spec.n) and found.shape == (0,)


def test_lattice_density_window():
    # all-ones splitter over Z_M: exactly 1/M of any M-aligned cube
    for n, modulus in [(2, 2), (2, 3), (3, 4)]:
        spec = SplitterSpec(cyclic(modulus), ((1,),) * n)
        code = LatticeCode(spec)
        width = 2 * modulus
        hits = sum(
            code.contains(v) for v in product(range(width), repeat=n)
        )
        assert hits * modulus == width**n


def test_lattice_min_distance():
    assert lattice_min_distance(spec1(2, (1, 1)), 1, 0) == 1
    # doubled integer lattice via Z2 x Z2 with unit splitters
    g = FiniteAbelianGroup((2, 2))
    spec = SplitterSpec(g, ((1, 0), (0, 1)))
    assert lattice_min_distance(spec, 1, 0) == 3  # n + 1: every radius packs
    assert lattice_min_distance(spec, 2, 0) == 1
    # when every radius packs, the last ball tested is B(2, 2, 1, 0), 4 vectors
    assert lattice_min_distance(spec, 1, 0, cap=4) == 3
    with pytest.raises(EnumerationCapExceeded, match="^4 ball vectors exceed enumeration cap 3$"):
        lattice_min_distance(spec, 1, 0, cap=3)
    # the channel is checked by ChannelParams, as for the splitting test
    with pytest.raises(ValueError):
        lattice_min_distance(spec, 1, 2)


def test_lattice_min_distance_matches_box_scan():
    for spec in differential_specs():
        for kp, km in DIFFERENTIAL_CHANNELS:
            assert lattice_min_distance(spec, kp, km) == (
                oracle_lattice_min_distance(spec, kp, km)
            ), (str(spec), kp, km)
    spec = parse_splitter_spec("group=Z13; s=[1,2,3,4,5,6]")
    assert lattice_min_distance(spec, 1, 1) == oracle_lattice_min_distance(spec, 1, 1)


def test_max_pairwise_intersection_matches_box_scan():
    for spec in differential_specs():
        for kp, km in DIFFERENTIAL_CHANNELS:
            for t in (1, 2):
                if t > spec.n:
                    continue
                p = ChannelParams(spec.n, t, kp, km)
                assert max_pairwise_intersection_lattice(spec, p) == (
                    oracle_max_pairwise_intersection(spec, t, kp, km)
                ), (str(spec), kp, km, t)
    spec = parse_splitter_spec("group=Z13; s=[1,2,3,4,5,6]")
    p = ChannelParams(6, 1, 1, 1)
    assert max_pairwise_intersection_lattice(spec, p) == (
        oracle_max_pairwise_intersection(spec, 1, 1, 1)
    )


@st.composite
def lattice_channels(draw):
    """(spec, k+, k-) for a splitter over a cyclic or product group, with
    zero entries allowed, at k+ <= 3."""
    moduli = draw(st.one_of(
        st.tuples(st.integers(2, 13)),
        st.sampled_from([(4, 3), (2, 2), (3, 3), (2, 3, 2)]),
    ))
    n = draw(st.integers(1, 4))
    s = tuple(tuple(draw(st.integers(0, m - 1)) for m in moduli) for _ in range(n))
    kp = draw(st.integers(1, 3))
    return SplitterSpec(FiniteAbelianGroup(moduli), s), kp, draw(st.integers(0, kp))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lattice_channels())
def test_distance_is_the_first_radius_that_does_not_split(case):
    spec, kp, km = case
    assert lattice_min_distance(spec, kp, km) == oracle_lattice_min_distance(spec, kp, km)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lattice_channels(), st.integers(1, 2))
def test_max_intersection_scans_every_close_lattice_difference(case, t):
    spec, kp, km = case
    t = min(t, spec.n)
    p = ChannelParams(spec.n, t, kp, km)
    with mock.patch.object(
        combinatorics, "intersection_exact", wraps=combinatorics.intersection_exact
    ) as intersection:
        best = max_pairwise_intersection_lattice(spec, p)
    assert best == oracle_max_pairwise_intersection(spec, t, kp, km)
    # one intersection per nonzero lattice vector of the box of weight <= 2t
    differences = [call.args[1] for call in intersection.call_args_list]
    expected = {
        d for d in oracle_lattice_box(spec, kp + km) if sum(map(bool, d)) <= 2 * t
    }
    assert set(map(tuple, differences)) == expected
    assert len(differences) == len(expected)


@pytest.mark.parametrize("modulus", [2**61, 2**70])
def test_block_scan_past_int64_is_exact(modulus):
    # n * m**2 >= 2**62: the syndromes are summed in Python ints
    spec = parse_splitter_spec(f"group=Z{modulus}; s=[1,2]")
    assert lattice_min_distance(spec, 1, 1) == oracle_lattice_min_distance(spec, 1, 1)
    p = ChannelParams(2, 1, 1, 1)
    assert max_pairwise_intersection_lattice(spec, p) == (
        oracle_max_pairwise_intersection(spec, 1, 1, 1)
    )


def test_splitter_spec_parse_roundtrip():
    spec = parse_splitter_spec("group=Z4xZ3; s=[(1,0),(0,2),(1,1)]")
    assert spec.group.moduli == (4, 3)
    assert spec.s == ((1, 0), (0, 2), (1, 1))
    assert parse_splitter_spec(str(spec)) == spec
    spec = parse_splitter_spec("group=Z7; s=[1,2]")
    assert spec.s == ((1,), (2,))
    assert parse_splitter_spec(str(spec)) == spec


def test_splitter_spec_parse_errors():
    for bad in [
        "group=Z4",
        "s=[1]",
        "group=Q8; s=[1]",
        "group=Z4; s=[]",
        "group=Z4xZ3; s=[1,2,3]",
    ]:
        with pytest.raises(ValueError):
            parse_splitter_spec(bad)


def test_constructed_lattice_balls_disjointness_against_sets():
    # independent set-based check of the N1 construction at one point
    spec = construct_N1_code(ChannelParams(2, 1, 3, 0))
    code = LatticeCode(spec)
    members = [v for v in product(range(-6, 7), repeat=2) if code.contains(v)]
    worst = 0
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            inter = oracle_ball_set(a, 1, 3, 0) & oracle_ball_set(b, 1, 3, 0)
            worst = max(worst, len(inter))
    assert worst == 1
