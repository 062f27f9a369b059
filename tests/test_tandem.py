import math
import random
from collections import Counter
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magrec import core, tandem
from magrec.core import DEFAULT_ENUM_CAP, EnumerationCapExceeded, ReconstructionError
from magrec.tandem import (
    SimplexCode,
    _excess,
    _excess_shell,
    _shell_minimum_count,
    exhaustive_simplex_read_sets,
    format_simplex_code,
    greedy_simplex_code,
    parse_simplex_code,
    reads_required_simplex,
    reconstruct_simplex_min,
    simplex_min_counts,
    upward_ball,
)

from helpers import (
    empty_cache,
    l1_distance,
    oracle_decode_upward,
    oracle_simplex_counts,
    oracle_upward_ball,
)

CHECKS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def oracle_upward(x, t):
    width = max(x) + t + 1
    return {
        y
        for y in product(range(width), repeat=len(x))
        if all(a >= b for a, b in zip(y, x)) and sum(y) - sum(x) <= t
    }


def test_upward_ball_examples():
    assert upward_ball((2, 0, 1), 0) == ((2, 0, 1),)
    assert set(upward_ball((1, 1, 1), 1)) == {
        (1, 1, 1),
        (2, 1, 1),
        (1, 2, 1),
        (1, 1, 2),
    }
    for x, t in [((0, 0, 0), 2), ((1, 2), 3), ((3, 0, 1, 2), 2)]:
        ball = upward_ball(x, t)
        assert set(ball) == oracle_upward(x, t)
        assert len(ball) == math.comb(len(x) + t, len(x))
        assert all(sum(x) <= sum(y) <= sum(x) + t for y in ball)


def test_upward_shell():
    assert (_excess_shell(3, 0, DEFAULT_ENUM_CAP) + (1, 1, 1)).tolist() == [[1, 1, 1]]
    shell = _excess_shell(3, 2, DEFAULT_ENUM_CAP)
    assert (shell.sum(axis=1) == 2).all()
    assert len(shell) == math.comb(2 + 2, 2)


@CHECKS
@given(st.lists(st.integers(0, 4), min_size=1, max_size=4), st.integers(0, 4), st.data())
def test_upward_ball_shells_and_read_sets_match_the_recursion(x, t, data):
    x = tuple(x)
    ball = oracle_upward_ball(x, t)
    assert upward_ball(x, t) == tuple(ball)
    assert len(ball) == math.comb(len(x) + t, len(x))
    shells = [[y for y in ball if sum(y) - sum(x) == w] for w in range(t + 1)]
    for w, shell in enumerate(shells):
        assert (_excess_shell(len(x), w, DEFAULT_ENUM_CAP) + x).tolist() == [
            list(y) for y in shell
        ]
    N = data.draw(st.integers(1, 4))
    got = list(exhaustive_simplex_read_sets(x, t, N))
    assert got == [Y for shell in shells for Y in combinations(shell, N)]


@CHECKS
@given(st.integers(0, 3), st.integers(0, 4), st.integers(1, 6))
def test_shell_minimum_counts_match_a_counter_of_the_subsets(m, w, N):
    shell = list(map(tuple, _excess_shell(m + 1, w, DEFAULT_ENUM_CAP).tolist()))
    assume(math.comb(len(shell), N) <= 3000)
    minima = Counter(tuple(map(min, zip(*Y))) for Y in combinations(shell, N))
    # every z >= 0 with |z| <= w is counted, and 0 where no set has minimum z
    counted = {
        z: _shell_minimum_count(m, w - sum(z), N)
        for z in map(tuple, _excess(m + 1, w).tolist())
    }
    assert {z: c for z, c in counted.items() if c} == minima


@CHECKS
@given(st.data())
def test_simplex_counts_match_the_per_set_loop(data):
    m = data.draw(st.integers(1, 3))
    code = greedy_simplex_code(m, data.draw(st.integers(1, 4)), data.draw(st.integers(1, 2)))
    t = data.draw(st.integers(1, 3 if m < 3 else 2))
    delta = data.draw(st.integers(1, t))
    # read counts below the formula's leave sets that fail to decode
    N = data.draw(st.integers(1, reads_required_simplex(m, t, delta) + 1))
    got = simplex_min_counts(code, t, N, delta)
    assert got == oracle_simplex_counts(code, t, N, delta)


def test_simplex_min_counts_decodes_each_distinct_minimum_once_per_codeword():
    code = greedy_simplex_code(2, 4, 1)
    t, N, delta = 3, 2, 1
    shells = [_excess_shell(3, w, DEFAULT_ENUM_CAP).tolist() for w in range(t + 1)]
    minima = set().union(*(
        {tuple(map(min, zip(*Y))) for Y in combinations(map(tuple, shell), N)}
        for shell in shells
    ))
    assert len(minima) < sum(math.comb(len(s), N) for s in shells)
    rows = []

    def decode_rows(self, U, radius):
        rows.extend(map(tuple, U.tolist()))
        return decode(self, U, radius)

    decode = SimplexCode.decode_rows
    with mock.patch.object(SimplexCode, "decode_rows", decode_rows):
        got = simplex_min_counts(code, t, N, delta)
    assert got == oracle_simplex_counts(code, t, N, delta)
    # one row x + z per codeword x and distinct minimum z, nothing else
    assert Counter(rows) == Counter(
        tuple(a + b for a, b in zip(x, z)) for x in code.members for z in minima
    )
    assert len(rows) == len(code.members) * len(minima)


def random_simplex_code(rng, m, r, delta, size):
    """A simplex code of at most ``size`` members drawn from the weight-r
    simplex, greedily kept at l1 distance >= 2 delta."""
    members = []
    for _ in range(size):
        cuts = sorted(rng.randint(0, r) for _ in range(m))
        v = tuple(b - a for a, b in zip([0, *cuts], [*cuts, r]))
        if all(l1_distance(v, c) >= 2 * delta for c in members):
            members.append(v)
    return SimplexCode(m, r, delta, tuple(members))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("r", [6, 2**62 - 3, 2**63 + 5])
def test_decode_rows_matches_the_member_scan(seed, r, monkeypatch):
    rng = random.Random(seed)
    m, delta = rng.randint(1, 3), rng.randint(1, 2)
    code = random_simplex_code(rng, m, r, delta, 12)
    # rows near the members and off them: above, below and far from each
    U = [
        tuple(max(0, x + rng.randint(-1, 2)) for x in rng.choice(code.members))
        for _ in range(60)
    ] + [tuple(rng.randint(0, 7) for _ in range(m + 1)) for _ in range(10)]
    # a few rows per block, so the blocks split the rows
    monkeypatch.setattr(core, "BLOCK_BYTES", 3 * 8 * len(code.members) * (m + 1))
    big = max(map(max, U)) * (m + 1) >= core.ENTRY_LIMIT
    for radius in range(3):
        first, found = code.decode_rows(np.array(U, dtype=object if big else np.int64), radius)
        got = [code.members[i] if hit else None for i, hit in zip(first.tolist(), found)]
        assert got == [oracle_decode_upward(code, z, radius) for z in U]
        assert [code.decode_upward(z, radius) for z in U] == got
    assert None in got and any(got)


@pytest.mark.parametrize("seed", range(20))
def test_validation_matches_the_pairwise_loop(seed, monkeypatch):
    rng = random.Random(seed)
    m, r, delta = rng.randint(1, 3), rng.randint(3, 7), rng.randint(1, 3)
    members = list(greedy_simplex_code(m, r, delta).members)
    # plant a member one unit from a random one: too close when delta > 1
    v = list(rng.choice(members))
    i = rng.choice([k for k in range(m + 1) if v[k]])
    j = rng.choice([k for k in range(m + 1) if k != i])
    v[i], v[j] = v[i] - 1, v[j] + 1
    members = list({*members, tuple(v)})
    rng.shuffle(members)
    # one row per block, so any violating pair lies across a block boundary
    monkeypatch.setattr(core, "BLOCK_BYTES", 8 * len(members) * (m + 1))
    close = [
        (a, b) for a, b in combinations(sorted(members), 2)
        if l1_distance(a, b) < 2 * delta
    ]
    if close:
        a, b = close[0]
        message = (
            f"l1 distance {l1_distance(a, b)} between {a} and {b} is below "
            f"2*delta = {2 * delta}"
        )
        with pytest.raises(ValueError) as excinfo:
            SimplexCode(m, r, delta, tuple(members))
        assert str(excinfo.value) == message
    else:
        assert SimplexCode(m, r, delta, tuple(members)).members == tuple(sorted(members))


def test_caps_and_int64_range():
    with pytest.raises(EnumerationCapExceeded):
        upward_ball((0, 0, 0), 2, cap=9)  # 10 vectors
    assert len(upward_ball((0, 0, 0), 2, cap=10)) == 10
    with pytest.raises(EnumerationCapExceeded):
        simplex_min_counts(greedy_simplex_code(2, 2, 1), 2, 1, 1, cap=5)  # 6 vectors
    with pytest.raises(EnumerationCapExceeded):
        list(exhaustive_simplex_read_sets((0, 0, 0), 2, 6, cap=5))
    with pytest.raises(EnumerationCapExceeded, match="^20 upward shell read sets exceed"):
        list(exhaustive_simplex_read_sets((0, 0, 0), 2, 3, cap=19))  # C(6, 3) = 20
    big = 2**62 - 1
    code = SimplexCode(1, big, 1, ((big, 0),))
    # the counts add codeword and shell minimum in Python ints; only the
    # int64 read rows are range-checked
    assert simplex_min_counts(code, 1, 2, 1) == (1, 1)
    with pytest.raises(ValueError, match="int64-safe"):
        reconstruct_simplex_min([(big + 1, 0)], code, 1)
    with pytest.raises(ValueError, match="int64-safe"):
        upward_ball((big, 0), 1)


def test_upward_balls_are_read_from_the_one_cache_and_charged_first(monkeypatch):
    # B_t^+(0) is enumerated once per (length, t), read-only, and every
    # caller charges its vectors before the lookup, on a hit as on a miss
    cache = empty_cache(monkeypatch)
    code = greedy_simplex_code(2, 3, 1)
    first = simplex_min_counts(code, 2, 2, 1)
    kept = {key: value for key, (value, _) in cache.items() if key[0] == "excess"}
    # the simplex r = 3 the code was picked from is a row of B_3^+(0) in Z^2
    # and the excess it leaves; the counter reads the upward ball B_2^+(0)
    assert sorted(kept) == [("excess", 2, 3), ("excess", 3, 2)]
    assert all(not value.flags.writeable for value in kept.values())
    enumerated = []
    lex_rows = tandem._lex_rows
    monkeypatch.setattr(tandem, "_lex_rows",
                        lambda *args: enumerated.append(args) or lex_rows(*args))
    assert simplex_min_counts(code, 2, 2, 1) == first
    assert _excess(3, 2) is kept[("excess", 3, 2)]
    assert enumerated == []
    # the counter's ball is the one upward_ball reads, so it is a hit too
    assert upward_ball((1, 0, 2), 2) == tuple(oracle_upward_ball((1, 0, 2), 2))
    assert enumerated == [] and _excess(3, 2) is cache[("excess", 3, 2)][0]
    with pytest.raises(EnumerationCapExceeded, match="^10 upward ball vectors"):
        upward_ball((0, 0, 0), 2, cap=9)
    with pytest.raises(EnumerationCapExceeded, match="^10 upward ball vectors"):
        simplex_min_counts(code, 2, 2, 1, cap=9)
    with pytest.raises(EnumerationCapExceeded, match="^3 upward shell vectors"):
        _excess_shell(3, 1, 2)


def test_shell_walks_refuse_t_below_zero():
    # below zero there is no shell, which counted as zero sets and no reads
    for walk in (
        lambda: simplex_min_counts(greedy_simplex_code(2, 3, 1), -1, 3, 1),
        lambda: list(exhaustive_simplex_read_sets((0, 0, 0), -1, 1)),
        lambda: upward_ball((0, 0, 0), -1),
    ):
        with pytest.raises(ValueError, match="^t must be >= 0$"):
            walk()


def test_reads_required_simplex():
    assert reads_required_simplex(2, 2, 2) == 2
    assert reads_required_simplex(2, 2, 1) == 4
    assert reads_required_simplex(2, 1, 1) == 2
    with pytest.raises(ValueError):
        reads_required_simplex(2, 1, 2)


def test_reconstruct_simplex_min_examples():
    code = SimplexCode(2, 3, 1, ((1, 1, 1), (3, 0, 0), (0, 3, 0), (0, 0, 3)))
    assert reconstruct_simplex_min([(2, 1, 1), (1, 2, 1)], code, 1) == (1, 1, 1)
    # one clean read decodes when the radius covers t
    code2 = SimplexCode(2, 3, 2, ((3, 0, 0), (0, 3, 0), (0, 0, 3)))
    assert reconstruct_simplex_min([(3, 1, 0)], code2, 2) == (3, 0, 0)
    with pytest.raises(ReconstructionError):
        reconstruct_simplex_min([(9, 9, 9)], code, 1)
    for reads in ([], [(2, 1, 1), (1, 2)], [(2, 1), (1, 2)]):
        with pytest.raises(ValueError, match="nonempty"):
            reconstruct_simplex_min(reads, code, 1)


def test_reconstruct_simplex_exhaustive_tiny():
    # every constant-excess read set of the required size recovers exactly
    m, r, t, delta = 2, 3, 2, 2
    code = greedy_simplex_code(m, r, delta)
    N = reads_required_simplex(m, t, delta)
    assert N == 2
    total = 0
    for x in code.members:
        for Y in exhaustive_simplex_read_sets(x, t, N):
            assert reconstruct_simplex_min(Y, code, delta) == x
            total += 1
    assert total > 0


def test_min_dominates_center():
    x = (1, 0, 2)
    ball = upward_ball(x, 2)
    for size in (1, 2, 3):
        for Y in combinations(ball[:6], size):
            z = tuple(min(col) for col in zip(*Y))
            assert all(a >= b for a, b in zip(z, x))


def test_mixed_weight_reads_can_defeat_the_count():
    # the read-count formula assumes constant excess weight; this pins the
    # boundary: with mixed weights at delta < t the min can keep delta units
    # of excess and the radius-(delta-1) decode has nothing to return
    m, r, t, delta = 2, 3, 2, 1
    code = greedy_simplex_code(m, r, delta)  # the full simplex
    x = (3, 0, 0)
    N = reads_required_simplex(m, t, delta)  # 4
    stuck = [y for y in upward_ball(x, t) if y[1] >= x[1] + 1]
    assert len(stuck) == N
    with pytest.raises(ReconstructionError):
        reconstruct_simplex_min(stuck, code, delta)


def test_simplex_code_validation():
    with pytest.raises(ValueError):
        SimplexCode(2, 3, 1, ((1, 1, 0),))  # wrong weight
    with pytest.raises(ValueError):
        SimplexCode(2, 3, 1, ((1, 1, 1, 0),))  # wrong length
    with pytest.raises(ValueError):
        SimplexCode(2, 3, 2, ((1, 1, 1), (2, 1, 0)))  # l1 distance 2 < 4
    with pytest.raises(ValueError):
        SimplexCode(2, 3, 1, ())


def test_greedy_code_distance():
    for delta in (1, 2):
        code = greedy_simplex_code(2, 4, delta)
        for a, b in combinations(code.members, 2):
            assert l1_distance(a, b) >= 2 * delta


def test_parse_and_format_round_trip():
    text = "# comment\nm=2,r=3,delta=1\n3,0,0\n0,3,0  # inline\n1,1,1\n"
    code = parse_simplex_code(text)
    assert code.m == 2 and code.r == 3 and code.delta == 1
    assert code.members == ((0, 3, 0), (1, 1, 1), (3, 0, 0))
    assert parse_simplex_code(format_simplex_code(code)) == code


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_simplex_code("3,0,0\n")  # no header
    with pytest.raises(ValueError):
        parse_simplex_code("m=2,r=3\n3,0,0\n")  # incomplete header
