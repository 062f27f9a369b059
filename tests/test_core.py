import inspect
import random
from itertools import product
from math import prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magrec
from magrec import ChannelParams, ExplicitCode, FiniteAbelianGroup, LatticeCode, SplitterSpec
from magrec import core
from magrec.combinatorics import ball_vectors

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


@pytest.mark.parametrize("offset", [0, 2**70], ids=["int64", "python-ints"])
@pytest.mark.parametrize("budget", [1, 8 * 200 * 5 * 7, None], ids=["1", "7", "default"])
def test_explicit_decode_of_a_large_code_matches_brute_force(offset, budget, monkeypatch):
    # 1000 of the 3125 words of [-2, 2]^5, so most radius-2 windows hold
    # several members and the first hit decides; member chunks of 1, of 7
    # (while all 200 rows are unfound) and of the default budget; int64
    # entries, and Python ints past it
    if budget is not None:
        monkeypatch.setattr(core, "BLOCK_BYTES", budget)
    rng = random.Random(1000)
    p = ChannelParams(5, 2, 1, 1)
    words = list(product(range(-2, 3), repeat=5))
    members = [tuple(v + offset for v in w) for w in rng.sample(words, 1000)]
    code = ExplicitCode(members)
    rows = [tuple(rng.randint(-3, 3) + offset for _ in range(5)) for _ in range(200)]
    U = np.array(rows, dtype=object if offset else np.int64)
    C, found = code.decode_rows(U, 2, p)
    got = [tuple(c) if ok else None for c, ok in zip(C.tolist(), found.tolist())]
    want = [brute_force_decode(members, z, 2, p) for z in rows]
    assert got == want
    assert None in want and len(set(want)) > 100


def test_explicit_code_validation():
    with pytest.raises(ValueError):
        ExplicitCode([])
    with pytest.raises(ValueError):
        ExplicitCode([(0, 0), (1,)])
    with pytest.raises(ValueError):
        ExplicitCode([(0, 0), (0, 0)])


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
    the lexsort fallback runs exactly when the column ranges multiply past
    2**63."""
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        keys = core._row_keys(M)
    spans = [int(hi) - int(lo) + 1 for lo, hi in zip(M.min(axis=0), M.max(axis=0))]
    assert lexsort.call_count == (prod(spans) >= 2**63)
    assert keys.dtype == np.int64 and keys.shape == (len(M),)
    rows, keys = M.tolist(), keys.tolist()
    for i, j in product(range(len(M)), repeat=2):
        assert (keys[i] > keys[j]) - (keys[i] < keys[j]) == (rows[i] > rows[j]) - (rows[i] < rows[j])
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    want = np.unique(M, axis=0, return_index=True, return_counts=True)
    for got, expected in zip((M[first], first, counts), want):
        np.testing.assert_array_equal(got, expected)
    return lexsort.call_count


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(key_matrices())
def test_row_keys_order_like_the_rows(M):
    check_row_keys(M)


@pytest.mark.parametrize("rows, fallback", [
    ([[3, 1], [0, 2], [3, 1], [0, 2], [-1, 5]], False),
    ([[4], [-2], [4], [0]], False),
    ([[7, -3, 0, 2]], False),
    ([[SAFE, -SAFE], [-SAFE, SAFE], [SAFE, -SAFE]], True),
    ([[-SAFE, 1], [SAFE, 1], [0, 1], [-SAFE, 1]], False),
    ([[0, SAFE, 0], [1, -SAFE, 2], [0, SAFE, 0], [1, 3, 1]], True),
    ([[I64.min, I64.max], [I64.max, I64.min], [I64.min, I64.max], [0, 0]], True),
], ids=["duplicates", "one-column", "one-row", "ranges-past-2**63",
        "ranges-of-2**63-1", "three-columns-past-2**63", "int64-extremes"])
def test_row_keys_examples(rows, fallback):
    assert check_row_keys(np.array(rows, dtype=np.int64)) == fallback


def test_row_keys_of_no_rows():
    assert core._row_keys(np.zeros((0, 3), dtype=np.int64)).shape == (0,)


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
