import inspect
import random
import re
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import magrec
from magrec import ChannelParams, ExplicitCode, FiniteAbelianGroup, LatticeCode, SplitterSpec
from magrec import channel, cli, combinatorics, core, distances, lattice, reconstruction, tandem
from magrec.combinatorics import ball_matrix, ball_vectors

from helpers import (
    add,
    brute_force_decode,
    correction_capability_oracle,
    in_ball,
    oracle_ball,
    oracle_corrects,
    sub,
)


def test_channel_params_validation():
    ChannelParams(3, 0, 1, 0)  # radius-0 balls are legal
    with pytest.raises(ValueError):
        ChannelParams(0, 0, 1, 0)
    with pytest.raises(ValueError):
        ChannelParams(2, 3, 1, 0)
    with pytest.raises(ValueError):
        ChannelParams(2, 1, 1, 2)
    with pytest.raises(ValueError):
        ChannelParams(2, 1, 0, 0)


def test_brute_force_decode_examples():
    p = ChannelParams(2, 1, 1, 0)
    assert brute_force_decode({(0, 0), (2, 2)}, (1, 0), 1, p) == (0, 0)
    assert brute_force_decode({(0, 0)}, (0, 0), 0, p) == (0, 0)
    assert brute_force_decode({(0, 0)}, (2, 0), 1, p) is None


def test_brute_force_decode_scan_order():
    # two codewords in range: the one hit first along the lexicographic
    # error enumeration wins
    p = ChannelParams(2, 1, 1, 1)
    code = {(1, 0), (0, 0)}
    # errors in lex order: (-1,0),(0,-1),(0,0),...; candidates run
    # (2,0),(1,1),(1,0),... and (1,0) is the first codeword hit
    assert brute_force_decode(code, (1, 0), 1, p) == (1, 0)


def test_decode_deterministic():
    p = ChannelParams(3, 2, 2, 1)
    code = ExplicitCode([(0, 0, 0), (2, 2, 2), (0, 3, 0)])
    outs = {code.decode_within((1, 1, 0), 2, p) for _ in range(5)}
    assert len(outs) == 1


def test_decode_contract_round_trip():
    # decoding a corrupted codeword returns a codeword whose ball contains
    # the received vector; with enough distance it is the codeword itself.
    # Every word, also one with no codeword in its window or several (a
    # code that does not correct r errors), decodes as the window scan
    # does, alone or in one matrix with the others
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.randint(1, 3)
        kp = rng.randint(1, 2)
        km = rng.randint(0, kp)
        r = rng.randint(0, min(2, n))
        t = max(r, 1)
        p = ChannelParams(n, t, kp, km)
        members = set()
        for _ in range(rng.randint(1, 5)):
            members.add(tuple(rng.randint(-2, 2) for _ in range(n)))
        code = ExplicitCode(members)
        c = rng.choice(code.members)
        e = rng.choice(oracle_ball(n, r, kp, km))
        z = add(c, e)
        got = code.decode_within(z, r, p)
        assert got is not None
        assert in_ball(tuple(a - b for a, b in zip(z, got)), ChannelParams(n, r, kp, km))
        if len(members) > 1 and oracle_corrects(code.members, t, kp, km, r):
            assert got == c
        words = [z] + [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(4)]
        each = [code.decode_within(w, r, p) for w in words]
        assert each == [brute_force_decode(members, w, r, p) for w in words]
        C, found = code.decode_rows(np.array(words, dtype=np.int64), r, p)
        assert [tuple(c) if ok else None for c, ok in zip(C.tolist(), found.tolist())] == each


@pytest.mark.parametrize("shape, budget, offset", [
    pytest.param(shape, budget, offset,
                 id="-".join(([] if shape == "large-code" else [shape]) + [b, o]))
    for shape in ("large-code", "sauer-radius-0", "sauer-radius-n")
    for budget, b in ((1, "1"), (8 * 200 * 5 * 7, "7"), (None, "default"))
    for offset, o in ((0, "int64"), (2**70, "python-ints"))])
def test_explicit_decode_of_a_large_code_matches_brute_force(shape, budget, offset, monkeypatch):
    # a large code: 1000 of the 3125 words of [-2, 2]^5, so most radius-2
    # windows of its 200 rows hold several members and the first hit
    # decides; a Sauer block's shape: two members a coordinate apart and 1000
    # candidate rows around them, at radius 0 and at n, where most rows lie
    # in both windows.  Member chunks of 1, of 7 (while 200 rows are
    # unfound) and of the default budget; int64 entries, and Python ints past it
    if budget is not None:
        monkeypatch.setattr(core, "BLOCK_BYTES", budget)
    rng = random.Random(1000)
    p = ChannelParams(5, 2, 1, 1)
    if shape == "large-code":
        members, radius = rng.sample(list(product(range(-2, 3), repeat=5)), 1000), 2
        rows = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(200)]
    else:
        members, radius = [(0,) * 5, (1,) + (0,) * 4], 0 if shape == "sauer-radius-0" else 5
        rows = [(rng.randint(-1, 2),) + tuple(rng.randint(-1, 1) for _ in range(4))
                for _ in range(1000)]
    members = [tuple(v + offset for v in w) for w in members]
    rows = [tuple(v + offset for v in z) for z in rows]
    code = ExplicitCode(members)
    U = np.array(rows, dtype=object if offset else np.int64)
    C, found = code.decode_rows(U, radius, p)
    got = [tuple(c) if ok else None for c, ok in zip(C.tolist(), found.tolist())]
    want = [brute_force_decode(members, z, radius, p) for z in rows]
    assert got == want
    assert (None in want) == (radius < p.n)
    assert len(set(want) - {None}) > (100 if shape == "large-code" else 1)


def test_explicit_code_validation():
    with pytest.raises(ValueError):
        ExplicitCode([])
    with pytest.raises(ValueError):
        ExplicitCode([(0, 0), (1,)])
    with pytest.raises(ValueError):
        ExplicitCode([(0, 0), (0, 0)])


def test_explicit_code_refuses_non_integer_entries():
    # its matrix would cut (0, 0.5) to (0, 0), a row that contains rejects
    with pytest.raises(ValueError, match=r"^entries of codewords must be integers, got 0\.5$"):
        ExplicitCode([(0, 0.5), (3, 3)])
    assert ExplicitCode([(np.int64(0), 1), (3, 3)]).contains((0, 1))


def test_int_rows_is_int64_below_the_entry_limit_and_python_ints_past_it():
    top = core.ENTRY_LIMIT - 1
    M = core.int_rows(iter([(top, -top), (np.int64(1), np.uint8(0))]), "v")
    assert M.dtype == np.int64 and M.tolist() == [[top, -top], [1, 0]]
    for big in (core.ENTRY_LIMIT, -core.ENTRY_LIMIT, 2**70):
        M = core.int_rows([(big, 0), (np.int64(1), 0)], "v")
        assert M.dtype == object and M.tolist() == [[big, 0], [1, 0]]
        assert {type(x) for x in M.flat} == {int}
    assert core.int_rows([], "v").shape == (0, 0)
    assert core.int_rows([()], "v").shape == (1, 0)


P2 = ChannelParams(2, 1, 1, 1)
SIMPLEX = tandem.SimplexCode(1, 2, 1, ((0, 2), (2, 0)))


# every site where a vector from outside becomes an array, each given an
# input that a matrix would cut to an integer or that is no vector at all
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: ExplicitCode([0, 1]),
                 "codewords must be an integer matrix or an iterable of vectors", id="ExplicitCode"),
    pytest.param(lambda: ExplicitCode([(0, 0), (1,)]), "codewords must share one length",
                 id="ExplicitCode-ragged"),
    pytest.param(lambda: ExplicitCode([(0, 0), (3, 3)]).decode_within((0.5, 0), 0, P2),
                 "entries of z must be integers, got 0.5", id="decode_within"),
    pytest.param(lambda: ExplicitCode([(1, 0), (0, 0)]).contains((1.0, 0)),
                 "entries of v must be integers, got 1.0", id="ExplicitCode.contains"),
    pytest.param(lambda: next(channel.read_sets((0.5, 0), P2, 2, "adversarial")),
                 "entries of x must be integers, got 0.5", id="read_sets"),
    pytest.param(lambda: channel.generate_reads((0.5, 0), P2, 2),
                 "entries of x must be integers, got 0.5", id="generate_reads"),
    pytest.param(lambda: reconstruction.ReadSet([0, 1], P2),
                 "reads must be an integer matrix or an iterable of vectors", id="ReadSet"),
    pytest.param(lambda: combinatorics.difference_classes([0, 1], P2),
                 "codewords must be an integer matrix or an iterable of vectors",
                 id="difference_classes"),
    pytest.param(lambda: tandem.upward_ball((0.5, 1), 1),
                 "entries of x must be integers, got 0.5", id="upward_ball"),
    pytest.param(lambda: next(tandem.exhaustive_simplex_read_sets((0.5, 1), 1, 1)),
                 "entries of x must be integers, got 0.5", id="exhaustive_simplex_read_sets"),
    pytest.param(lambda: tandem.SimplexCode(1, 1, 1, (0, 1)),
                 "codewords must be an integer matrix or an iterable of vectors", id="SimplexCode"),
    pytest.param(lambda: SIMPLEX.decode_upward((0.5, 2), 0),
                 "entries of z must be integers, got 0.5", id="decode_upward"),
    pytest.param(lambda: tandem.reconstruct_simplex_min([(0.5, 2), (0, 3)], SIMPLEX, 1),
                 "entries of reads must be integers, got 0.5", id="reconstruct_simplex_min"),
    # scalar functions build no matrix, but take their vectors through the gate
    pytest.param(lambda: combinatorics.intersection_exact((0.5, 0), (0, 0), P2),
                 "entries of x must be integers, got 0.5", id="intersection_exact"),
    pytest.param(lambda: cli.parse_code_spec("sum-mod:3", 2).contains((1.5, 1.5)),
                 "entries of x must be integers, got 1.5", id="contains"),
    pytest.param(lambda: distances.distance_general((0, 0), (0, 0.5), P2),
                 "entries of y must be integers, got 0.5", id="distance_general"),
    pytest.param(lambda: lattice.syndrome(lattice.parse_splitter_spec("group=Z7; s=[1,2]"),
                                          (1, 2.0)),
                 "entries of x must be integers, got 2.0", id="syndrome"),
])
def test_every_outside_vector_is_refused_by_the_one_gate(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_oracle_agrees_with_library_ball():
    for (n, t, kp, km) in [(1, 1, 2, 1), (2, 1, 1, 0), (3, 2, 2, 2), (4, 2, 1, 1)]:
        assert sorted(oracle_ball(n, t, kp, km)) == list(ball_vectors(n, t, kp, km))


def test_correction_oracle_matches_independent_oracle():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 3)
        kp = rng.randint(1, 2)
        km = rng.randint(0, kp)
        members = set()
        while len(members) < 2:
            members.add(tuple(rng.randint(0, 3) for _ in range(n)))
        e = rng.randint(0, min(2, n))
        p = ChannelParams(n, max(e, 1), kp, km)
        assert correction_capability_oracle(members, p, e) == oracle_corrects(
            members, p.t, kp, km, e
        )


@pytest.mark.parametrize("z, word", [
    ((2**70 + 1, 0), (2**70, 0)),
    # int64 holds these words but not every difference with them
    ((2**63 - 1, 0), (2**63 - 2, 0)),
    ((2**62 + 1, 0), (2**62, 0)),
])
def test_decode_beyond_int64_is_exact(z, word):
    p = ChannelParams(2, 1, 1, 1)
    members = [word, (0, 0)]
    assert ExplicitCode(members).decode_within(z, 1, p) == word
    assert brute_force_decode(members, z, 1, p) == word
    # the lattice 3Z x 3Z: the members of z's window, one coordinate apart
    code = LatticeCode(SplitterSpec(FiniteAbelianGroup((3, 3)), ((1, 0), (0, 1))))
    window = [c for c in (sub(z, e) for e in oracle_ball(2, 1, 1, 1)) if code.contains(c)]
    assert code.decode_within(z, 1, p) == brute_force_decode(window, z, 1, p) is not None


SAFE = 2**62 - 1
I64 = np.iinfo(np.int64)

#: Small entries, so rows tie often, plus the ends of the int64-safe range.
KEY_ENTRIES = st.one_of(
    st.integers(-2, 2), st.sampled_from([-SAFE, SAFE]), st.integers(-SAFE, SAFE)
)


@st.composite
def key_matrices(draw):
    """An int64 matrix whose rows repeat a few drawn rows."""
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(st.lists(KEY_ENTRIES, min_size=n, max_size=n), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=15))
    return np.array([pool[i] for i in picks], dtype=np.int64)


def check_row_keys(M):
    """``core._row_keys`` against ``np.unique(axis=0)``: keys order like the
    rows, and the keyed unique gives the same rows, first indices and counts;
    the keys are Python ints exactly when the column ranges multiply to
    2**63 or more, and int64 otherwise."""
    keys = core._row_keys(M)
    spans = [int(hi) - int(lo) + 1 for lo, hi in zip(M.min(axis=0), M.max(axis=0))]
    python_ints = prod(spans) >= 2**63
    assert keys.dtype == (object if python_ints else np.int64) and keys.shape == (len(M),)
    rows, keys = M.tolist(), keys.tolist()
    for i, j in product(range(len(M)), repeat=2):
        assert (keys[i] > keys[j]) - (keys[i] < keys[j]) == (rows[i] > rows[j]) - (rows[i] < rows[j])
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    want = np.unique(M, axis=0, return_index=True, return_counts=True)
    for got, expected in zip((M[first], first, counts), want):
        np.testing.assert_array_equal(got, expected)
    return python_ints


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(key_matrices())
def test_row_keys_order_like_the_rows(M):
    check_row_keys(M)


@pytest.mark.parametrize("rows, python_ints", [
    ([[3, 1], [0, 2], [3, 1], [0, 2], [-1, 5]], False),
    ([[4], [-2], [4], [0]], False),
    ([[7, -3, 0, 2]], False),
    ([[SAFE, -SAFE], [-SAFE, SAFE], [SAFE, -SAFE]], True),
    ([[-SAFE, 1], [SAFE, 1], [0, 1], [-SAFE, 1]], False),
    ([[0, SAFE, 0], [1, -SAFE, 2], [0, SAFE, 0], [1, 3, 1]], True),
    ([[I64.min, I64.max], [I64.max, I64.min], [I64.min, I64.max], [0, 0]], True),
], ids=["duplicates", "one-column", "one-row", "ranges-past-2**63",
        "ranges-of-2**63-1", "three-columns-past-2**63", "int64-extremes"])
def test_row_keys_examples(rows, python_ints):
    assert check_row_keys(np.array(rows, dtype=np.int64)) == python_ints


def test_row_keys_of_no_rows():
    assert core._row_keys(np.zeros((0, 3), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("length", [255, 256, 257])
@pytest.mark.parametrize("kind", ["int64", "python-ints"])
def test_hamming_weights_match_count_nonzero(length, kind):
    # a uint8 count below 256 entries and an int64 one from 256 on, along the
    # first and the last axis, over the masks that int64 rows and Python-int
    # (object) rows compare into; one line of each axis is all set, so the
    # weight of length 256 would wrap to 0 in uint8
    A = np.random.default_rng(length).integers(-1, 2, size=(length, 3, length))
    A[:, 0, 0] = A[0, 0, :] = 1
    if kind == "python-ints":
        A = A.astype(object) * 2**70
    mask = A != np.zeros(length, dtype=A.dtype)
    for axis in (0, -1):
        weight = core.hamming(mask, axis=axis)
        np.testing.assert_array_equal(weight, np.count_nonzero(mask, axis=axis))
        assert weight.max() == length


@pytest.mark.parametrize("R", [1, 63, 64, 65, 129, 4000])
@pytest.mark.parametrize("n", [0, 1, 11])
@pytest.mark.parametrize("kind", ["int64", "python-ints"])
def test_column_ranges_match_the_axis_reductions(R, n, kind):
    # the flat passes over runs of 64 rows give _row_keys the column minima
    # and maxima of M.min(axis=0) and M.max(axis=0); the last row, in the
    # tail unless 64 divides R, holds each column's strict extreme.  Rows
    # repeat, so distinct_rows keeps fewer than R of them
    rng = np.random.default_rng(R * 100 + n)
    pool = rng.integers(-5, 6, (7, n)) + rng.choice([-(SAFE - 10), 0, SAFE - 10], (7, n))
    M = pool[rng.integers(0, 7, R)]
    M[-1] = SAFE
    M[-1, ::2] = -SAFE
    if kind == "python-ints":
        M = M.astype(object) * 2**70 + 1
    for reduce, want in ((np.minimum.reduce, M.min(axis=0)), (np.maximum.reduce, M.max(axis=0))):
        got = core._column_reduce(M, reduce)
        assert got.dtype == M.dtype and got.tolist() == want.tolist()
    rows = core.distinct_rows(M).tolist()
    if kind == "int64":
        assert rows == np.unique(M, axis=0).tolist()
    assert rows == [list(row) for row in sorted(set(map(tuple, M.tolist())))]


def check_group_keys(keys):
    """``core.group_keys`` against ``np.unique``: the same first indices, in
    key order, and the same inverse, both intp arrays; ``core.first_keys``
    gives the same first indices alone."""
    first, inverse = core.group_keys(keys)
    _, want_first, want_inverse = np.unique(keys, return_index=True, return_inverse=True)
    for got, want in ((first, want_first), (inverse, want_inverse),
                      (core.first_keys(keys), want_first)):
        assert got.dtype == np.intp and got.shape == want.shape
        assert got.tolist() == want.tolist()


@st.composite
def tied_keys(draw, entries, dtype):
    """A 1-D ``dtype`` array of keys drawn from a pool of at most five, so
    that most keys tie."""
    pool = draw(st.lists(entries, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    return np.array([pool[i] for i in picks], dtype=dtype)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tied_keys(st.one_of(st.integers(-2, 2), st.integers(I64.min, I64.max)), np.int64))
@example(np.array([], dtype=np.int64))
@example(np.array([7]))
def test_group_keys_match_unique_on_int64_keys(keys):
    check_group_keys(keys)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tied_keys(st.one_of(st.integers(-2, 2), st.integers(-2**80, 2**80),
                           st.sampled_from([2**63, -2**63 - 1])), object))
@example(np.array([], dtype=object))
@example(np.array([2**70]))
def test_group_keys_match_unique_on_python_int_keys(keys):
    check_group_keys(keys)


@pytest.mark.parametrize("modulus", [2**61, 2**70])
def test_group_keys_match_unique_on_syndrome_codes(modulus):
    # n * m**2 >= 2**62: the codes are Python ints, and the 63 vectors of
    # the ball take fewer distinct codes than that
    spec = lattice.parse_splitter_spec(f"group=Z{modulus}; s=[1,2,3]")
    codes = lattice._syndrome_codes(spec, ball_matrix(ChannelParams(3, 3, 1, 1)))
    assert codes.dtype == object and len(set(codes.tolist())) < len(codes)
    check_group_keys(codes)


@st.composite
def framed_matrices(draw):
    """(M, lo, ranges): an int64 matrix whose column i lies in [lo[i], lo[i]
    + ranges[i]), the ranges multiplying to less than 2**63, or, in a frame
    of two to five columns of at least 2**32 values each, past it."""
    past = draw(st.booleans())
    n = draw(st.integers(2 if past else 1, 5))
    ranges = []
    for _ in range(n):
        top = 2**40 if past else min(2**40, (2**63 - 1) // prod(ranges))
        ranges.append(draw(st.integers(2**32 if past else 1, top)))
    lo = np.array(draw(st.lists(st.integers(-SAFE, SAFE), min_size=n, max_size=n)))
    digits = draw(st.lists(st.tuples(*(st.integers(0, r - 1) for r in ranges)), max_size=10))
    return np.array(digits, dtype=np.int64).reshape(-1, n) + lo, lo, ranges


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(framed_matrices())
@example((np.array([[0, 0], [2**32 - 1, 2**31 - 1], [5, 7]]), np.array([0, 0]), [2**32, 2**31]))
def test_key_rows_invert_the_radix_keys(frame):
    M, lo, ranges = frame
    place = core.radix_places(lo, lo + np.array(ranges) - 1)
    assert place.dtype == (object if prod(ranges) >= 2**63 else np.int64)
    keys = (M.astype(place.dtype) - lo) @ place
    rows = core.key_rows(keys, lo, place)
    assert rows.dtype == np.int64
    np.testing.assert_array_equal(rows, M)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.integers(1, 2**21), st.sampled_from([1, 2, 2**31, 2**32])),
                min_size=1, max_size=6),
       st.integers(-2**62, 0))
@example([2**63], -2**62)
@example([2**63 - 1], -2**62)
@example([2**32, 2**31], 0)
@example([2**32, 2**31 - 1], 0)
@example([7**2 * 73 * 127, 337 * 92737 * 649657], 0)  # 2**63 - 1
def test_radix_places_are_python_ints_at_2_to_the_63(ranges, low):
    place = core.radix_places(np.full(len(ranges), low),
                              np.array([low + r - 1 for r in ranges]))
    assert place.dtype == (object if prod(ranges) >= 2**63 else np.int64)
    if place.dtype == object:  # the entries themselves are Python ints
        assert {type(v) for v in place} == {int}
    assert place.tolist() == [prod(ranges[i + 1:]) for i in range(len(ranges))]


def test_public_names():
    # the exports change only on purpose: edit this list with them
    names = sorted(
        name for name, value in vars(magrec).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert names == [
        "ChannelParams", "Code", "DistanceComponents", "ERASURE",
        "EnumerationCapExceeded", "EstimateWord", "ExplicitCode",
        "FiniteAbelianGroup", "IntersectionBounds", "LatticeCode", "ReadSet",
        "ReconstructionError", "SimplexCode", "SplitterSpec", "Vec",
        "adversarial_instance", "ball_matrix", "ball_size", "binom",
        "check_partial_splitting", "check_recon_N1",
        "check_recon_N2", "code_min_distance", "construct_N1_code",
        "construct_N2_code", "cyclic", "distance_components",
        "distance_general", "hamming_volume", "intersection_bounds", "intersection_exact", "lattice_min_distance",
        "list_params_general", "list_params_min", "list_reconstruct_majority",
        "list_reconstruct_min", "list_reconstruct_sauer", "majority_estimate",
        "majority_threshold", "max_intersection_of_code",
        "max_intersection_whole_space", "min_group_order_bound",
        "parse_splitter_spec", "reads_required_min", "reads_required_simplex",
        "reconstruct_majority", "reconstruct_min", "reconstruct_simplex_min",
        "sauer_shelah_find", "syndrome", "upward_ball",
    ]
