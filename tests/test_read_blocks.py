"""Read blocks drawn from a ball: indicator rows, one count table, and each
distinct decoder input decoded once."""

import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magrec import ERASURE, ChannelParams, ExplicitCode, LatticeCode, channel, core, reconstruction
from magrec.channel import read_blocks, rng_for
from magrec.combinatorics import ball_matrix, ball_one_hot, ball_size
from magrec.lattice import SplitterSpec, cyclic
from magrec.reconstruction import ALGORITHMS, ReadBlock, ReadSet, read_plan

from helpers import add, oracle_majority_entries, per_set
from strategies import channels
from test_read_matrix import (
    decode_one_by_one,
    oracle_unique_decode,
    recording_decode_rows,
    recording_fill_keys,
)

CHECKS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def drawn_block(p: ChannelParams, x, stack: np.ndarray) -> ReadBlock:
    """The block drawn from the ball around x whose sets are those of
    ``stack``: their indicator rows over the shifted ball."""
    shift = np.array(x, dtype=np.int64)
    shifted = ball_matrix(p) + shift
    row = {r: i for i, r in enumerate(map(tuple, shifted.tolist()))}
    ind = np.zeros((len(stack), len(shifted)), dtype=bool)
    for s, matrix in enumerate(stack.tolist()):
        ind[s, [row[tuple(r)] for r in matrix]] = True
    block = ReadBlock.of_ball(p, shifted, shift, stack.shape[1], ind)
    assert block.ind is not None and block.hot is ball_one_hot(p)
    return block


def same_rows(a, b) -> bool:
    return a[0].tolist() == b[0].tolist() and a[1].tolist() == b[1].tolist()


@st.composite
def decode_cases(draw):
    """A channel with a small ball, an algorithm it runs, a code (two
    explicit words, or a sum-mod lattice), a transmitted word, a plan and
    a read count up to the plan's."""
    p = draw(channels(max_n=4, max_kp=2, max_km=1))
    assume(p.t >= 1)
    name = draw(st.sampled_from(sorted(ALGORITHMS)))
    assume(name == "list-sauer" or (p.k_minus == 0) == name.endswith("min"))
    delta = draw(st.integers(1, p.t))
    a = draw(st.integers(0, p.t - delta)) if name.startswith("list") else 0
    if draw(st.booleans()):
        x = draw(st.tuples(*[st.integers(-2, 2)] * p.n))
        code = ExplicitCode({x, add(x, draw(st.tuples(*[st.integers(-2, 2)] * p.n)))})
    else:
        modulus = draw(st.integers(2, 5))
        code = LatticeCode(SplitterSpec(cyclic(modulus), ((1,),) * p.n))
        x = (0,) * (p.n - 1) + (draw(st.integers(-1, 1)) * modulus,)
    plan = read_plan(name, p, delta, a)
    N = draw(st.integers(1, min(plan.N, ball_size(p))))
    return p, name, code, x, plan, N


@CHECKS
@given(decode_cases(), st.sampled_from(["random", "exhaustive", "adversarial"]), st.data())
def test_block_decode_matches_the_gathered_stack_row_for_row(case, reads, data):
    p, name, code, x, plan, N = case
    assume(reads != "exhaustive" or comb(ball_size(p), N) <= 300)
    if plan.tau is not None and data.draw(st.booleans()):
        # every coordinate erased: sets of one ball share their (empty)
        # kept values and differ in their anchors alone
        plan = plan._replace(tau=Fraction(10**6))
    trials = data.draw(st.integers(1, 40))
    seed = data.draw(st.integers(0, 2**32))
    # small class and cell bounds send small blocks down the class path and
    # the per-word cover test, and a small decode budget splits the erasure
    # fills into many blocks, and their pairs of sets and decoded rows into
    # many pieces, so that every set of a class can close before its
    # class's last block
    fewest = data.draw(st.sampled_from([reconstruction._CLASS_MIN, 2]))
    cells = data.draw(st.sampled_from([reconstruction._PAIR_CELLS, 0]))
    budget = data.draw(st.sampled_from([core.BLOCK_BYTES, 2**10]))
    with mock.patch.object(reconstruction, "_CLASS_MIN", fewest), \
            mock.patch.object(reconstruction, "_PAIR_CELLS", cells):
        for block in read_blocks(x, p, N, reads, trials, seed):
            with mock.patch.object(core, "BLOCK_BYTES", budget):
                got = plan.decode(block, code)
            if reads == "random":
                # a dense draw over a ball with a one-hot matrix keeps no
                # stack, and the Sauer decoder gathers its parts' stacks only
                assert block.ind is not None and block._stack is None
            stack = block.stack
            assert same_rows(got, plan.decode(ReadBlock(plan.p, stack), code))
            assert same_rows(got, plan.decode(drawn_block(p, x, stack), code))
            sets = [ReadSet(matrix, p) for matrix in stack]
            assert per_set(got, len(stack)) == [
                decode_one_by_one(name, Y, plan.tau, code, plan.delta, plan.a) for Y in sets
            ]
            if name in ("min", "majority") and isinstance(code, ExplicitCode):
                assert per_set(got, len(stack)) == [
                    oracle_unique_decode(name, Y.reads, plan.tau, code.members, plan.delta, p)
                    for Y in sets
                ]


@CHECKS
@given(channels(max_n=4, max_kp=2, max_km=2), st.data())
def test_the_count_table_gives_the_sort_branch_votes(p, data):
    x = data.draw(st.tuples(*[st.integers(-3, 3)] * p.n))
    N = data.draw(st.integers(1, ball_size(p)))
    (block,) = read_blocks(x, p, N, "random", data.draw(st.integers(1, 20)),
                           data.draw(st.integers(0, 2**32)))
    assert block.ind is not None
    stack = block.stack
    m = data.draw(st.integers(-N - 2, N + 2))
    for tau in (Fraction(m), Fraction(2 * m + 1, 2)):
        for got, want in zip(block.votes(tau), reconstruction._sorted_votes(stack, tau)):
            assert got.tolist() == want.tolist()
    assert block.minimum.tolist() == stack.min(axis=1).tolist()
    assert block.anchors.tolist() == stack[:, 0].tolist()


@pytest.mark.parametrize("size, N", [(64, 7), (50, 25), (9, 8)])
def test_keys_tied_at_the_Nth_smallest_give_argpartitions_set(size, N, monkeypatch):
    # uint32 keys from a few values tie at the threshold in most rows, and
    # the one block of 40 sets is drawn in chunks of 16 rows, served in turn
    tied = np.random.default_rng(size).integers(0, 4, (40, size)).astype(np.uint32)
    served = []

    def keys(rng, rows, size, spare):
        served.append(rows)
        return tied[sum(served) - rows:sum(served)].copy(), spare

    monkeypatch.setattr(channel, "_keys", keys)
    monkeypatch.setattr(core, "BLOCK_BYTES", 8 * 64 * size)
    (ind,) = channel._random_blocks(size, N, 1, 40, rng_for(0))
    assert served == [16, 16, 8]
    ties = np.count_nonzero(tied <= np.sort(tied, axis=1)[:, N - 1:N], axis=1) > N
    assert ties[16:].sum() > 10
    want = np.sort(np.argpartition(tied, N - 1, axis=1)[:, :N], axis=1)
    np.testing.assert_array_equal(ind.nonzero()[1].reshape(40, N), want)


class _RepeatingChoice:
    """A generator whose ``choice`` draws index 0 ``count`` times."""

    def choice(self, size, count, **kwargs):
        return np.zeros(count, dtype=np.intp)


def test_a_duplicated_index_still_raises(monkeypatch):
    # an index drawn twice would repeat a read in its set
    p, x = ChannelParams(5, 2, 1, 1), (0, 1, -1, 0, 2)
    monkeypatch.setattr(channel, "_DENSE_SLACK", -1)
    monkeypatch.setattr(channel, "rng_for", lambda seed: _RepeatingChoice())
    with pytest.raises(ValueError, match="reads must be distinct"):
        next(read_blocks(x, p, 3, "random", 4, seed=1))


def test_a_hundred_sets_with_one_minimum_decode_one_row():
    # every set holds the whole ball, so every minimum is x itself
    p = ChannelParams(4, 2, 1, 0)
    code = LatticeCode(SplitterSpec(cyclic(3), ((1,),) * 4))
    x = (0, 0, 0, 0)
    rows = []
    decode_rows = code.decode_rows

    def spy(U, *args):
        rows.append(len(U))
        return decode_rows(U, *args)

    code.decode_rows = spy
    (block,) = read_blocks(x, p, ball_size(p), "random", 100, seed=4)
    assert len(block) == 100 and block.ind is not None
    for name, a in (("min", 0), ("list-min", 1)):
        rows.clear()
        plan = read_plan(name, p, 1, a)
        owner, words = plan.decode(block, code)
        assert owner.tolist() == sorted(owner.tolist()) and set(owner.tolist()) == set(range(100))
        assert all(x in out for out in per_set((owner, words), 100))
        # list-min decodes x - e for the 5 rows e of B(4, 1, 1, 0), once
        assert rows == ([1] if name == "min" else [5])


def test_class_pairs_bound_the_decode_memory():
    # every coordinate erased, so a set's class is its anchor: about 100 of
    # 1795 sets (one block, each charged its 73 8-byte keys) share the ball's
    # first row, and at delta = 2 every fill of their class decodes, so each
    # fill block pairs every one of them with each of its 1820 decoded rows,
    # 9 MB as one (pairs, n) int64 matrix; so for the drawn block and for a
    # block of its stack
    p = ChannelParams(6, 2, 1, 1)
    code = LatticeCode(SplitterSpec(cyclic(13), tuple((s,) for s in range(1, 7))))
    tau = Fraction(10**6)
    (drawn,) = read_blocks((0,) * 6, p, 4, "random", 1795, seed=3)
    assert drawn.ind is not None and len(drawn) >= reconstruction._CLASS_MIN
    assert np.bincount(drawn.ind.argmax(axis=1)).max() > 100
    decode = ALGORITHMS["majority"].decode
    for block in (drawn, ReadBlock(p, drawn.stack)):
        decode(block, p, tau, code, 2, 0, 10**7)  # builds the cached tables
        tracemalloc.start()
        try:
            owner, words = decode(block, p, tau, code, 2, 0, 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert owner.tolist() == list(range(1795))
        assert peak < 4 * core.BLOCK_BYTES


def test_fills_whose_keys_pass_2_63_decode_by_python_int_keys_and_match_the_sets():
    # sets around 0 and around (300,) * 8 spread each column over about 306
    # values, and 306**8 > 2**63, so the block's fill keys are Python ints;
    # each set alone spans at most 5 values a column and has int64 keys
    p = ChannelParams(8, 2, 1, 1)
    code = LatticeCode(SplitterSpec(cyclic(3), ((1,),) * 8))
    far = (300,) * 8
    assert code.contains(far)
    plan = read_plan("list-majority", p, 1, 1)
    (near_sets,) = channel.read_sets((0,) * 8, p, plan.N, "random", 20, seed=7)
    (far_sets,) = channel.read_sets(far, p, plan.N, "random", 20, seed=8)
    stack = np.concatenate((near_sets, far_sets))
    assert len(stack) >= reconstruction._CLASS_MIN
    assert (~reconstruction._sorted_votes(stack, plan.tau)[1]).any()  # some fills
    keyed = []
    with mock.patch.object(reconstruction, "_fill_keys", recording_fill_keys(keyed)):
        got = plan.decode(ReadBlock(p, stack), code)
        assert keyed and all(dtype == object for *_, dtype in keyed)
        keyed.clear()
        want = [decode_one_by_one("list-majority", ReadSet(matrix, p), plan.tau, code,
                                  plan.delta, plan.a) for matrix in stack]
        assert len(keyed) >= len(stack) and all(dtype == np.int64 for *_, dtype in keyed)
    assert per_set(got, len(stack)) == want
    assert all(x in out for x, out in zip([(0,) * 8] * 20 + [far] * 20, want))
    # and the rows path itself, set by set
    for matrix, out in zip(stack, want):
        first, _, best, erased, anchors, _, _ = reconstruction._fill_classes(
            ReadBlock(p, matrix[None]), plan.tau)
        shifts = ball_matrix(ChannelParams(8, 1, 1, 1))
        rows = reconstruction._candidates(best, erased, anchors, shifts, p, 10**7)
        assert per_set(reconstruction._decode_lists(rows, code, 1, p, 10**7), 1) == [out]


def test_a_block_decodes_each_distinct_fill_row_once():
    # the recon-trials list-majority point: 250 sets of 9 reads, whose
    # thousands of erasure fills hold far fewer distinct rows; a = 0, so a
    # fill is its one row
    p = ChannelParams(6, 2, 1, 1)
    code = LatticeCode(SplitterSpec(cyclic(13), tuple((s,) for s in range(1, 7))))
    plan = read_plan("list-majority", p, 2, 0)
    (block,) = read_blocks((0,) * 6, p, plan.N, "random", 250, seed=36)
    fills, inputs = [], set()  # sets with one fill input share their fills
    for rows in block.stack.tolist():
        entries = oracle_majority_entries(rows, plan.tau)
        erased = [i for i, v in enumerate(entries) if v is ERASURE]
        ranges = [range(rows[0][i] - p.k_plus, rows[0][i] + p.k_minus + 1) for i in erased]
        if (entries, tuple(ranges)) in inputs:
            continue
        inputs.add((entries, tuple(ranges)))
        for fill in product(*ranges):
            u = list(entries)
            for i, v in zip(erased, fill):
                u[i] = v
            fills.append(tuple(u))
    distinct = set(fills)
    assert len(fills) > 3 * len(distinct)
    calls, keyed = [], []
    with recording_decode_rows(code, calls), \
            mock.patch.object(reconstruction, "_fill_keys", recording_fill_keys(keyed)):
        got = plan.decode(block, code)
    # one block of keys at the default budget, each distinct row decoded once
    assert len(keyed) == 1 and keyed[0][2] == len(fills)
    seen = [row for U in calls for row in map(tuple, U.tolist())]
    assert len(seen) == len(distinct) and set(seen) == distinct
    assert all((0,) * 6 in out for out in per_set(got, len(block)))
