import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from magrec import (
    ChannelParams,
    ERASURE,
    EnumerationCapExceeded,
    ExplicitCode,
    ReconstructionError,
)
from magrec.combinatorics import hamming_volume
from magrec.distances import code_min_distance
from magrec.lattice import cyclic, LatticeCode, SplitterSpec
from magrec.reconstruction import (
    ReadSet,
    adversarial_code_size_bound,
    adversarial_instance,
    list_params_general,
    list_params_min,
    list_reconstruct_majority,
    list_reconstruct_min,
    list_reconstruct_sauer,
    majority_estimate,
    majority_list_size_bound,
    majority_threshold,
    reads_required_min,
    reconstruct_majority,
    reconstruct_min,
    sauer_list_size_bound,
    sauer_shelah_find,
    sauer_reads_required,
)

from helpers import add, in_ball, oracle_ball, oracle_sauer_shelah_find


def sum_mod(n, m):
    return LatticeCode(SplitterSpec(cyclic(m), ((1,),) * n))


def test_read_set_canonicalization():
    p = ChannelParams(2, 1, 1, 0)
    Y = ReadSet(((1, 0), (0, 1)), p)
    assert Y.reads == ((0, 1), (1, 0))
    assert Y.anchor == (0, 1)
    with pytest.raises(ValueError):
        ReadSet(((0, 0), (0, 0)), p)
    with pytest.raises(ValueError):
        ReadSet(((0, 0, 0),), p)


def test_list_formulas_validation():
    # delta in [1, t] and a in [0, f - 1], f = t - delta + 1, on every list
    # formula, and each formula's k- sign
    asym, general = ChannelParams(4, 2, 1, 0), ChannelParams(4, 2, 1, 1)
    for formula, p in [
        (list_params_min, asym), (list_params_general, general),
        (sauer_reads_required, general), (sauer_list_size_bound, general),
    ]:
        formula(p, 1, 1)
        with pytest.raises(ValueError):
            formula(p, 1, 2)
        with pytest.raises(ValueError):
            formula(p, 3, 0)
        with pytest.raises(ValueError):
            formula(p, 0, 0)
    with pytest.raises(ValueError):
        list_params_min(general, 1, 0)
    with pytest.raises(ValueError):
        list_params_general(asym, 1, 0)


def test_reads_required_min():
    assert reads_required_min(ChannelParams(2, 1, 1, 0), 1) == 2
    assert reads_required_min(ChannelParams(4, 2, 2, 0), 2) == 5
    assert reads_required_min(ChannelParams(3, 2, 2, 0), 2) == 5  # delta = t: (k+)^delta + 1
    with pytest.raises(ValueError):
        reads_required_min(ChannelParams(3, 2, 1, 0), 3)
    with pytest.raises(ValueError):
        reads_required_min(ChannelParams(3, 2, 1, 1), 1)  # k- = 0 only


def test_reconstruct_min_examples():
    p = ChannelParams(2, 1, 1, 0)
    code = sum_mod(2, 2)
    Y = ReadSet(((1, 0), (0, 1)), p)
    assert reconstruct_min(Y, code, 1) == (0, 0)
    Y = ReadSet(((0, 0), (0, 1)), p)
    assert reconstruct_min(Y, code, 1) == (0, 0)
    # a single clean read suffices when the decode radius covers t
    far = ExplicitCode([(0, 0), (3, 3)])
    Y = ReadSet(((1, 0),), p)
    assert reconstruct_min(Y, far, 3) == (0, 0)


def test_reconstruct_min_requires_km_zero():
    p = ChannelParams(2, 1, 1, 1)
    with pytest.raises(ValueError):
        reconstruct_min(ReadSet(((0, 0),), p), sum_mod(2, 2), 1)


def test_reconstruct_min_exhaustive_tiny():
    # every N-subset of the ball around every tested codeword reconstructs
    n, t, kp = 2, 1, 1
    p = ChannelParams(n, t, kp, 0)
    code = sum_mod(n, 2)
    N = reads_required_min(p, 1)
    for x in [(0, 0), (1, 1), (-1, 1)]:
        ball = [add(x, e) for e in oracle_ball(n, t, kp, 0)]
        for sub in combinations(ball, N):
            assert reconstruct_min(ReadSet(sub, p), code, 1) == x


def test_reconstruct_min_monotone_in_reads():
    # adding more distinct reads from the same ball never changes the output
    rng = random.Random(55)
    n, t, kp = 3, 2, 2
    p = ChannelParams(n, t, kp, 0)
    code = sum_mod(n, 2)
    N = reads_required_min(p, 1)
    x = (0, 0, 0)
    ball = [add(x, e) for e in oracle_ball(n, t, kp, 0)]
    for _ in range(50):
        rng.shuffle(ball)
        base = ball[:N]
        got = reconstruct_min(ReadSet(tuple(base), p), code, 1)
        for extra in range(1, 4):
            bigger = ball[: N + extra]
            assert reconstruct_min(ReadSet(tuple(bigger), p), code, 1) == got


def test_majority_threshold_values():
    p = ChannelParams(4, 2, 1, 1)
    N, tau = majority_threshold(p, 2)
    assert (N, tau) == (17, Fraction(4))
    N, tau = majority_threshold(p, 1)
    assert (N, tau) == (37, Fraction(-9))  # negative-coefficient branch
    with pytest.raises(ValueError):
        majority_threshold(ChannelParams(4, 2, 1, 0), 1)
    with pytest.raises(ValueError):
        majority_threshold(p, 3)  # delta > t


def test_threshold_below_read_count_sweep():
    for n in range(2, 6):
        for t in range(1, min(n, 3) + 1):
            for kp in (1, 2):
                for km in range(1, kp + 1):
                    for delta in range(1, t + 1):
                        N, tau = majority_threshold(ChannelParams(n, t, kp, km), delta)
                        assert tau < N


def test_majority_estimate_examples():
    p = ChannelParams(2, 1, 1, 1)
    Y = ReadSet(((0, 5), (0, 6), (1, 7)), p)
    z = majority_estimate(Y, Fraction(0))
    assert z.entries[0] == 0  # margin 2*2-3 = 1 > 0
    assert z.entries[1] is ERASURE  # three-way tie, margin 2-3 < 0
    Y = ReadSet(((0, 9), (1, 9)), p)
    z = majority_estimate(Y, Fraction(0))
    assert z.entries[0] is ERASURE  # tie -> Maj 0, margin 0 not > 0
    assert z.entries[1] == 9  # unanimous, margin 2 > 0
    assert [i for i, v in enumerate(z.entries) if v is ERASURE] == [0]


def test_reconstruct_majority_trivial_and_error():
    p = ChannelParams(4, 2, 1, 1)
    code = ExplicitCode([(0, 0, 0, 0), (1, 1, -1, 0)])
    assert code_min_distance(code.members, p) == 2
    # erasure-free estimate equal to a codeword: single candidate wins
    Y = ReadSet(((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)), p)
    got = reconstruct_majority(Y, Fraction(-1), code, 2)
    assert got == (0, 0, 0, 0)
    # reads from two far-apart balls: no codeword covers them
    bad = ReadSet(((0, 0, 0, 0), (9, 9, 9, 9)), p)
    with pytest.raises(ReconstructionError):
        reconstruct_majority(bad, Fraction(0), code, 2)


def test_reconstruct_majority_full_instance():
    n, t, kp, km, delta = 4, 2, 1, 1, 2
    p = ChannelParams(n, t, kp, km)
    code = ExplicitCode([(0, 0, 0, 0), (1, 1, -1, 0)])
    N, tau = majority_threshold(p, delta)
    x = (0, 0, 0, 0)
    ball = [add(x, e) for e in oracle_ball(n, t, kp, km)]
    rng = random.Random(56)
    for _ in range(300):
        Y = ReadSet(tuple(rng.sample(ball, N)), p)
        est = majority_estimate(Y, tau)
        kept = [(v, c) for v, c in zip(est.entries, x) if v is not ERASURE]
        assert sum(v != c for v, c in kept) <= delta - 1
        assert len(x) - len(kept) <= 2 * t * delta
        assert reconstruct_majority(Y, tau, code, delta) == x


def test_list_params_min():
    small, p = ChannelParams(2, 1, 1, 0), ChannelParams(4, 2, 2, 0)
    assert list_params_min(small, 1, 0) == reads_required_min(small, 1)
    assert list_params_min(p, 1, 1) == 5
    assert list_params_min(p, 1, 0) == reads_required_min(p, 1)
    with pytest.raises(ValueError):
        list_params_min(p, 1, 2)  # a > f - 1


def test_list_reconstruct_min_examples():
    # below the unique-reconstruction count, the list still contains x
    p = ChannelParams(2, 2, 1, 0)
    code = ExplicitCode([(0, 0), (0, -1)])
    delta = code_min_distance(code.members, p)
    assert delta == 1
    N = list_params_min(p, delta, 1)
    assert N == 2 < reads_required_min(p, delta)
    Y = ReadSet(((0, 0), (1, 1)), p)
    L = list_reconstruct_min(Y, code, delta, 1)
    assert L == ((0, -1), (0, 0))  # x in L, one spurious neighbor
    assert len(L) <= hamming_volume(2, 2, 1)
    # a = 0 reduces to unique reconstruction
    Y = ReadSet(((0, 0), (0, 1), (1, 0)), p)
    assert list_reconstruct_min(Y, code, delta, 0) == ((0, 0),)


def test_list_params_general_values():
    p = ChannelParams(4, 2, 1, 1)
    N, tau = list_params_general(p, 1, 1)
    assert (N, tau) == (9, Fraction(4))
    N, tau = list_params_general(p, 1, 0)
    assert (N, tau) == (29, Fraction(-1))
    N, tau = list_params_general(p, 2, 0)
    assert (N, tau) == (9, Fraction(4))
    for delta in (1, 2):
        for a in range(0, 2 - delta + 1):
            N, tau = list_params_general(p, delta, a)
            assert tau < N


def test_list_reconstruct_majority_contains_x():
    n, t, kp, km = 4, 2, 1, 1
    p = ChannelParams(n, t, kp, km)
    code = sum_mod(n, 3)
    delta, a = 1, 1
    N, tau = list_params_general(p, delta, a)
    x = (0, 0, 0, 0)
    ball = [add(x, e) for e in oracle_ball(n, t, kp, km)]
    bound = majority_list_size_bound(p, delta, a)
    rng = random.Random(57)
    for _ in range(100):
        Y = ReadSet(tuple(rng.sample(ball, N)), p)
        L = list_reconstruct_majority(Y, tau, code, delta, a)
        assert x in L
        assert len(L) <= bound


def test_list_majority_a_zero_matches_unique():
    # a = 0 shifts by the zero vector only: the list is exactly the set of
    # candidates the unique machine scans, so it contains its output
    n, t, kp, km, delta = 4, 2, 1, 1, 2
    p = ChannelParams(n, t, kp, km)
    code = ExplicitCode([(0, 0, 0, 0), (1, 1, -1, 0)])
    N, tau = majority_threshold(p, delta)
    x = (0, 0, 0, 0)
    ball = [add(x, e) for e in oracle_ball(n, t, kp, km)]
    rng = random.Random(61)
    for _ in range(40):
        Y = ReadSet(tuple(rng.sample(ball, N)), p)
        unique = reconstruct_majority(Y, tau, code, delta)
        L = list_reconstruct_majority(Y, tau, code, delta, 0)
        assert unique in L


def test_reconstruct_majority_adversarial_reads():
    # the guarantee is worst case: the heaviest-error read set must decode
    from magrec.channel import generate_reads

    n, t, kp, km, delta = 4, 2, 1, 1, 2
    p = ChannelParams(n, t, kp, km)
    code = ExplicitCode([(0, 0, 0, 0), (1, 1, -1, 0)])
    N, tau = majority_threshold(p, delta)
    for x in code.members:
        Y = generate_reads(x, p, N, "adversarial")
        assert reconstruct_majority(Y, tau, code, delta) == x


def test_sauer_shelah_find_examples():
    assert sauer_shelah_find({(0, 0), (1, 1), (0, 1)}, 2, 1) == (0,)
    assert sauer_shelah_find({(0, 0)}, 2, 0) == ()
    with pytest.raises(ReconstructionError):
        sauer_shelah_find({(0,)}, 3, 1)
    with pytest.raises(ValueError):
        sauer_shelah_find({(0, 3)}, 3, 1)  # entry out of range


def test_sauer_shelah_find_succeeds_above_volume():
    rng = random.Random(58)
    for _ in range(200):
        q = rng.choice((2, 3))
        n = rng.randint(1, 4)
        c = rng.randint(1, n)
        need = hamming_volume(q, n, c - 1) + 1
        space = [tuple(v) for v in product(range(q), repeat=n)]
        if need > len(space):
            continue
        S = rng.sample(space, need)
        U = sauer_shelah_find(S, q, c)
        assert len(U) == c
        for pattern in product(range(q), repeat=c):
            assert any(all(v[i] != pattern[j] for j, i in enumerate(U)) for v in S)


def test_sauer_shelah_find_matches_the_member_scan():
    rng = random.Random(13)
    for _ in range(300):
        q = rng.choice((2, 3))
        n = rng.randint(1, 5)
        c = rng.randint(0, n + 1)
        space = list(product(range(q), repeat=n))
        S = rng.sample(space, rng.randint(1, min(len(space), 40)))
        expected = oracle_sauer_shelah_find(S, q, c)
        if expected is None:
            with pytest.raises(ReconstructionError):
                sauer_shelah_find(S, q, c)
        else:
            assert sauer_shelah_find(S, q, c) == expected
        if 1 <= c <= n:
            # the worst-case scan is charged before it starts
            worst = math.comb(n, c) * q**c * len(S)
            with pytest.raises(EnumerationCapExceeded):
                sauer_shelah_find(S, q, c, cap=worst - 1)
            if expected is not None:
                assert sauer_shelah_find(S, q, c, cap=worst) == expected


def test_sauer_reads_required():
    p = ChannelParams(4, 2, 1, 1)
    assert sauer_reads_required(p, 1, 1) == 2
    assert sauer_reads_required(p, 1, 0) == hamming_volume(3, 4, 1) + 1


def test_list_reconstruct_sauer_contains_x():
    n, t, kp, km = 4, 2, 1, 1
    p = ChannelParams(n, t, kp, km)
    code = sum_mod(n, 3)
    x = (0, 0, 0, 0)
    ball = [add(x, e) for e in oracle_ball(n, t, kp, km)]
    rng = random.Random(59)
    for delta, a in [(1, 0), (1, 1), (2, 0)]:
        N = sauer_reads_required(p, delta, a)
        code_d = code if delta == 1 else ExplicitCode([x, (1, 1, -1, 0)])
        bound = sauer_list_size_bound(p, delta, a)
        for _ in range(60):
            Y = ReadSet(tuple(rng.sample(ball, N)), p)
            L = list_reconstruct_sauer(Y, code_d, delta, a)
            assert x in L
            assert len(L) <= bound


def test_adversarial_instance_examples():
    # e = 0, a = 1: the code is all n weight-1 down-shifts
    Y, C = adversarial_instance(ChannelParams(8, 1, 1, 1), 0, 1)
    assert len(C) == 8
    assert all(sum(1 for v in c if v == -1) == 1 for c in C)
    assert len(C) >= adversarial_code_size_bound(8, 0, 1)
    p = Y.params
    for c in C:
        for y in Y.reads:
            assert in_ball(tuple(a - b for a, b in zip(y, c)), p)


def test_adversarial_instance_corrects_e():
    Y, C = adversarial_instance(ChannelParams(10, 2, 2, 1), 1, 1)
    assert code_min_distance(C, Y.params) >= 2  # corrects e = 1 errors
    assert len(C) >= adversarial_code_size_bound(10, 1, 1)
    p = Y.params
    for c in C:
        for y in Y.reads:
            assert in_ball(tuple(a - b for a, b in zip(y, c)), p)


def test_adversarial_instance_preconditions():
    with pytest.raises(ValueError):
        adversarial_instance(ChannelParams(8, 1, 1, 0), 0, 1)  # (k+, k-) = (1, 0)
    with pytest.raises(ValueError):
        adversarial_instance(ChannelParams(2, 2, 1, 1), 1, 1)  # n < 2e + a


def test_soundness_outputs_cover_reads():
    # whenever a reconstruction returns, its ball covers every read
    n, t, kp, km = 4, 2, 1, 1
    p = ChannelParams(n, t, kp, km)
    code = ExplicitCode([(0, 0, 0, 0), (1, 1, -1, 0)])
    N, tau = majority_threshold(p, 2)
    x = (1, 1, -1, 0)
    ball = [add(x, e) for e in oracle_ball(n, t, kp, km)]
    rng = random.Random(60)
    for _ in range(50):
        Y = ReadSet(tuple(rng.sample(ball, N)), p)
        got = reconstruct_majority(Y, tau, code, 2)
        for y in Y.reads:
            assert in_ball(tuple(a - b for a, b in zip(y, got)), p)
