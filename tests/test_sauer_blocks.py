"""The Sauer list decoder a block at a time: one bit-parallel witness search
over the whole block and one candidate pass per distinct witness, against
the member-by-member oracles of ``helpers`` and the per-set decodes."""

import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magrec import ChannelParams, ExplicitCode, LatticeCode, channel, core, reconstruction
from magrec.combinatorics import ball_size
from magrec.lattice import SplitterSpec, cyclic
from magrec.reconstruction import ReadBlock, ReadSet, list_reconstruct_sauer, read_plan

from helpers import (
    add,
    brute_force_decode,
    oracle_sauer_candidates,
    oracle_sauer_shelah_find,
    per_set,
)
from strategies import channels
from test_read_matrix import decode_one_by_one

CHECKS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def shifted(reads, p):
    """A set's reads less the low end of each coordinate's interval, the
    least value or the largest less k+, whichever is smaller."""
    lows = [min(min(column), max(column) - p.k_plus) for column in zip(*reads)]
    return [tuple(v - low for v, low in zip(r, lows)) for r in reads]


def oracle_witness(reads, p, delta, a):
    """The member scan's first witness of a set, or None."""
    f = p.t - delta + 1
    return oracle_sauer_shelah_find(shifted(reads, p), p.magnitude_span + 1, f - a)


def oracle_sauer_list(reads, p, delta, a, members):
    """The Sauer list of one set from the oracles: the candidates of the
    member scan's witness, each decoded by the brute-force scan; () when
    there is no witness."""
    U = oracle_witness(reads, p, delta, a)
    if U is None:
        return ()
    f = p.t - delta + 1
    decoded = {brute_force_decode(members, z, delta - 1, p)
               for z in oracle_sauer_candidates(reads, U, f, p.k_plus, p.k_minus)}
    return tuple(sorted(decoded - {None}))


def witnesses(stack, plan):
    """Each set's witness from the block search, None where it has none."""
    p = plan.p
    f = p.t - plan.delta + 1
    subsets, found = reconstruction._witnesses(
        reconstruction._sauer_shift(stack, p), p.magnitude_span + 1, f - plan.a)
    return [subsets[rank] if rank >= 0 else None for rank in found.tolist()]


@st.composite
def sauer_cases(draw):
    """A channel with a small ball (k- = 0 among them), a two-word explicit
    code around a transmitted word x, the list-sauer plan at some delta and
    a, and a read count up to the plan's."""
    p = draw(channels(max_n=5, max_kp=2, max_km=2))
    assume(p.t >= 1)
    delta = draw(st.integers(1, p.t))
    a = draw(st.integers(0, p.t - delta))
    x = draw(st.tuples(*[st.integers(-2, 2)] * p.n))
    members = sorted({x, add(x, draw(st.tuples(*[st.integers(-2, 2)] * p.n)))})
    plan = read_plan("list-sauer", p, delta, a)
    N = draw(st.integers(1, min(plan.N, ball_size(p))))
    return p, x, members, plan, N


@CHECKS
@given(sauer_cases(), st.sampled_from(["random", "exhaustive", "adversarial"]), st.data())
def test_block_decodes_match_the_oracles_and_the_sets_one_by_one(case, reads, data):
    p, x, members, plan, N = case
    assume(reads != "exhaustive" or comb(ball_size(p), N) <= 200)
    code = ExplicitCode(members)
    # a small budget walks few subsets and sets at a time and cuts the
    # candidates into many pieces
    budget = data.draw(st.sampled_from([core.BLOCK_BYTES, 2**9]))
    trials, seed = data.draw(st.integers(1, 30)), data.draw(st.integers(0, 2**32))
    for block in channel.read_blocks(x, p, N, reads, trials, seed):
        with mock.patch.object(core, "BLOCK_BYTES", budget):
            got = per_set(plan.decode(block, code), len(block))
            found = witnesses(block.stack, plan)
        for s, matrix in enumerate(block.stack):
            rows = list(map(tuple, matrix.tolist()))
            assert found[s] == oracle_witness(rows, p, plan.delta, plan.a)
            assert got[s] == oracle_sauer_list(rows, p, plan.delta, plan.a, members)
            assert got[s] == decode_one_by_one("list-sauer", ReadSet(matrix, p), None, code,
                                               plan.delta, plan.a)


@pytest.mark.parametrize("p, N", [
    (ChannelParams(4, 2, 1, 0), 4),
    (ChannelParams(5, 2, 1, 1), 3),
    (ChannelParams(5, 3, 2, 0), 7),
])
def test_a_block_of_several_witnesses_and_failed_sets(p, N):
    # 40 sets below the plan's read count: most find no witness, and the
    # others find at least three different ones, each a pass of its own
    plan = read_plan("list-sauer", p, 1, 0)
    code = LatticeCode(SplitterSpec(cyclic(3), ((1,),) * p.n))
    (stack,) = channel.read_sets((0,) * p.n, p, N, "random", 40, seed=1)
    found = witnesses(stack, plan)
    assert None in found and len(set(found) - {None}) >= 3
    passes = []
    candidates = reconstruction._sauer_candidates
    with mock.patch.object(reconstruction, "_sauer_candidates",
                           lambda *args: passes.append(args[4]) or candidates(*args)):
        got = per_set(plan.decode(ReadBlock(p, stack), code), len(stack))
    assert passes == sorted(set(found) - {None})
    for matrix, U, out in zip(stack, found, got):
        assert U == oracle_witness(matrix.tolist(), p, 1, 0)
        if U is None:
            with pytest.raises(reconstruction.ReconstructionError, match="no witness"):
                list_reconstruct_sauer(ReadSet(matrix, p), code, 1, 0)
        else:
            assert out == list_reconstruct_sauer(ReadSet(matrix, p), code, 1, 0)


def test_a_block_outside_the_range_raises_the_search_error():
    # the second set spans 0..3 on its first coordinate, past k+ + k- = 2
    p = ChannelParams(3, 2, 1, 1)
    stack = np.array([[[0, 0, 0], [1, 1, 1]], [[0, 0, 0], [3, 0, 0]]], dtype=np.int64)
    code = ExplicitCode([(0, 0, 0)])
    with pytest.raises(ValueError, match=r"entries must lie in \[0, 2\]"):
        read_plan("list-sauer", p, 1, 0).decode(ReadBlock(p, stack), code)
    with pytest.raises(ValueError, match=r"entries must lie in \[0, 2\]"):
        list_reconstruct_sauer(ReadSet(stack[1], p), code, 1, 0)


@pytest.mark.parametrize("budget", [2**16, 2**12, 64])
def test_the_search_and_the_candidate_pieces_stay_within_the_block_budget(budget, monkeypatch):
    # 60 sets of 130 reads of length 8, three words each per (coordinate,
    # value): a (set, subset) row of c + 1 = 4 word rows for each of the 27
    # patterns, and the set's own 24 word rows, take 3168 bytes, so 64 bytes
    # leave one set and one subset at a time
    p = ChannelParams(8, 3, 1, 1)
    plan = read_plan("list-sauer", p, 1, 0)
    code = ExplicitCode([(0,) * 8, (1,) + (0,) * 7])
    (block,) = channel.read_blocks((0,) * 8, p, plan.N, "random", 60, seed=2)
    stack = block.stack
    X = reconstruction._sauer_shift(stack, p)
    S, n, N = X.shape
    q, c, words = 3, 3, -(-N // 64)
    row = 8 * (c + 1) * q**c * words + 8 * n * q * words
    mask = S * n * q * 64 * words * 9 // 8  # the block's mask and its packed words
    slack = 2**14  # index arrays, Python objects and NumPy's small temporaries
    want = plan.decode(block, code)
    monkeypatch.setattr(core, "BLOCK_BYTES", budget)
    pieces, decode_lists = [], reconstruction._decode_lists

    def recorded(blocks, *args):
        def kept():
            for owner, rows in blocks:
                pieces.append((len(set(owner.tolist())), 4 * rows.nbytes))
                yield owner, rows
        return decode_lists(kept(), *args)

    with mock.patch.object(reconstruction, "_decode_lists", recorded):
        got = plan.decode(block, code)
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
    # candidate rows are charged four int64 matrices of their shape
    assert len(pieces) > 1 and all(size <= budget or sets == 1 for sets, size in pieces)
    # beyond the block's own arrays: its mask and words, and for the whole
    # decode its shifted columns
    for run, own in ((lambda: reconstruction._witnesses(X, q, c), mask),
                     (lambda: plan.decode(block, code), mask + X.nbytes)):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - own <= max(budget, row) + slack
