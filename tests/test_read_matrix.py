"""Differential tests of the int64 read-set matrix, read-set stacks and the
syndrome-table decoder against the tuple kernels and brute-force oracles in
``helpers``, and of decoding a stack against decoding its sets one by one."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magrec import (
    ChannelParams,
    ERASURE,
    EnumerationCapExceeded,
    ExplicitCode,
    ReconstructionError,
)
from magrec import channel, combinatorics, core, reconstruction
from magrec.channel import (
    exhaustive_read_sets,
    generate_reads,
    rng_for,
    score_sets,
)
from magrec.combinatorics import ball_size
from magrec.core import ENTRY_LIMIT, distinct_rows
from magrec.lattice import LatticeCode, parse_splitter_spec, syndrome
from magrec.reconstruction import (
    ALGORITHMS,
    ReadBlock,
    ReadSet,
    _cover_rows,
    _covers,
    _sauer_candidates,
    _sauer_shift,
    _sorted_votes,
    check_stack,
    list_reconstruct_majority,
    list_reconstruct_min,
    list_reconstruct_sauer,
    majority_estimate,
    read_plan,
    reconstruct_majority,
    reconstruct_min,
)

from helpers import (
    DIFFERENTIAL_CHANNELS,
    add,
    brute_force_decode,
    differential_specs,
    empty_cache,
    oracle_adversarial_order,
    oracle_ball,
    oracle_componentwise_min,
    oracle_covers,
    oracle_lattice_window,
    oracle_majority_entries,
    oracle_read_set,
    oracle_sauer_candidates,
    per_set,
    sampled_read_sets,
    sub,
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
    assert tuple(Y.matrix.min(axis=0).tolist()) == oracle_componentwise_min(rows)

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
    # one message, whether or not the entry fits in int64
    p = ChannelParams(2, 1, 1, 1)
    message = r"exceed the int64-safe magnitude 2\*\*62$"
    with pytest.raises(ValueError, match=message):
        ReadSet(((0, 0), (entry, 0)), p)
    if abs(entry) < 2**63:
        with pytest.raises(ValueError, match=message):
            ReadSet(np.array([[0, 0], [entry, 0]], dtype=np.int64), p)


def test_read_set_refuses_non_integer_entries():
    # a matrix of the reads would cut 1.5 to 1
    p = ChannelParams(2, 1, 1, 1)
    with pytest.raises(ValueError, match=r"^entries of reads must be integers, got 1\.5$"):
        ReadSet([(0, 1.5), (1, 1)], p)
    assert ReadSet([(np.int64(0), 1), (1, 1)], p).reads == ((0, 1), (1, 1))


def test_read_matrix_must_be_sorted_distinct_int64():
    # a ReadSet, and a ReadBlock of the set as a stack of one, refuse it
    # with check_stack's message
    p = ChannelParams(2, 1, 1, 1)
    for bad, message in (
        (np.array([[1, 0], [0, 0]], dtype=np.int64), "rows sorted"),
        (np.array([[0, 0], [0, 0]], dtype=np.int64), "distinct"),
        (np.array([[0, 0], [0, 1]], dtype=np.int32), "int64 matrix"),
        (np.array([[0, 0, 0]], dtype=np.int64), "int64 matrix"),
        (np.zeros((0, 2), dtype=np.int64), "nonempty"),
    ):
        with pytest.raises(ValueError, match=message):
            ReadSet(bad, p)
        with pytest.raises(ValueError, match=message):
            ReadBlock(p, bad[None])
    # a set out of order in a stack whose first set is in order, and a
    # stack of the wrong rank
    good = np.array([[[0, 0], [0, 1]], [[0, 1], [0, 0]]], dtype=np.int64)
    for bad, message in ((good, "rows sorted"), (good[0], "int64 matrix")):
        with pytest.raises(ValueError, match=message):
            ReadBlock(p, bad)


def test_transmitted_word_near_int64_limit_rejected():
    p = ChannelParams(2, 1, 1, 0)
    for x in ((ENTRY_LIMIT - 1, 0), (2**63, 0), (-ENTRY_LIMIT, 0)):
        with pytest.raises(ValueError):
            generate_reads(x, p, 2)
        with pytest.raises(ValueError):
            next(exhaustive_read_sets(x, p, 2))
    Y = generate_reads((ENTRY_LIMIT - 2, 0), p, 3)
    assert max(max(r) for r in Y.reads) == ENTRY_LIMIT - 1


def drawn_trials(seed, size, count, trials):
    """The sorted index rows of random trials 0, ..., trials - 1 of ``seed``
    on a ball of ``size`` rows, by the definition of the ``channel``
    docstring, drawn one trial at a time: the ``count`` smallest of ``size``
    keys (argsort, not a partition, of one ``random(size)`` call per trial)
    when the ball exceeds ``count`` by at most ``_DENSE_SLACK`` rows, else
    one ``choice`` call per trial."""
    rng = rng_for(seed)
    if size - count <= channel._DENSE_SLACK:
        picks = (np.argsort(rng.random(size), kind="stable")[:count] for _ in range(trials))
    else:
        picks = (
            rng.choice(size, count, replace=False, shuffle=False) for _ in range(trials)
        )
    return [sorted(int(i) for i in pick) for pick in picks]


#: ``_DENSE_SLACK`` of each branch: the small balls here draw keys at the
#: default slack, and call ``choice`` at a slack of -1.
BRANCHES = {"dense": channel._DENSE_SLACK, "sparse": -1}


@CHECKS
@given(channels(max_n=4), st.data())
def test_generated_read_sets_match_tuple_built(p, data):
    x = data.draw(st.tuples(*[st.integers(-5, 5)] * p.n))
    ball = oracle_ball(p.n, p.t, p.k_plus, p.k_minus)
    shifted = [add(x, e) for e in ball]
    count = data.draw(st.integers(1, len(ball)))
    seed = data.draw(st.integers(0, 2**32))

    (idx,) = drawn_trials(seed, len(ball), count, 1)
    Y = generate_reads(x, p, count, seed=seed)
    assert Y.reads == oracle_read_set([shifted[int(i)] for i in idx], p.n)

    heavy = oracle_adversarial_order(ball)[:count]
    Y = generate_reads(x, p, count, "adversarial")
    assert Y.reads == oracle_read_set([add(x, e) for e in heavy], p.n)

    expected = [
        oracle_read_set([shifted[int(i)] for i in idx], p.n)
        for idx in drawn_trials(seed, len(ball), count, 3)
    ]
    assert [
        tuple(map(tuple, matrix))
        for stack in sampled_read_sets(x, p, count, 3, seed)
        for matrix in stack.tolist()
    ] == expected

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
    # reads from no one ball: the patterns are read in a base past every shifted value
    X = _sauer_shift(Y.matrix[None], p)
    sets = np.zeros(1, dtype=np.intp)
    pieces = _sauer_candidates(Y.matrix[None], X, int(X.max()) + 1, sets, U, p, f, 10**7)
    rows = distinct_rows(np.concatenate([rows for _, rows in pieces])).tolist()
    assert list(map(tuple, rows)) == oracle_sauer_candidates(reads, U, f, p.k_plus, p.k_minus)


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
    code = LatticeCode(spec)
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


# -- read-set stacks ---------------------------------------------------------


@st.composite
def stacks(draw, entries=ENTRIES):
    """A channel and 1-5 read sets of one size N, each as sorted tuples."""
    p = draw(channels())
    N = draw(st.integers(1, min(12, 11**p.n)))
    row = st.tuples(*[entries] * p.n)
    sets = draw(st.lists(
        st.lists(row, min_size=N, max_size=N, unique=True), min_size=1, max_size=5
    ))
    return p, [oracle_read_set(rows, p.n) for rows in sets]


def covering(words, stack: np.ndarray, p: ChannelParams) -> np.ndarray:
    """Per set i, whether every read of stack[i] lies in
    words[i] + B(n, t, k+, k-), by the decoder's kernel ``_cover_rows``
    with the ranges taken from the stack; ``words`` is a matrix or a list
    of vectors."""
    words = np.asarray(words)
    return _cover_rows(words, np.arange(len(words)), ReadBlock(p, stack),
                       stack.min(axis=1), stack.max(axis=1), p)


@CHECKS
@given(stacks(), st.data())
def test_stack_kernels_match_tuple_oracles(case, data):
    p, sets = case
    stack = np.array(sets, dtype=np.int64)
    assert check_stack(stack, p) is stack

    # thresholds at a margin of some set (erased), just below it (kept) and
    # in between; past 2**62 the vote compares in Python ints
    m = data.draw(st.sampled_from([m for rows in sets for m in margins(rows)]))
    big = 2**62 + 1
    taus = [
        Fraction(m), Fraction(m - 1), Fraction(2 * m - 1, 2), Fraction(m * big - 1, big),
        Fraction(2**70), Fraction(-(2**70)),
        Fraction(data.draw(st.integers(-30, 30)), data.draw(st.integers(1, 3))),
    ]
    for tau in taus:
        best, keep = _sorted_votes(stack, tau)[:2]
        assert [
            tuple(v if k else ERASURE for v, k in zip(word, kept))
            for word, kept in zip(best.tolist(), keep.tolist())
        ] == [oracle_majority_entries(rows, tau) for rows in sets]

    words = [
        add(data.draw(st.sampled_from(rows)), data.draw(st.tuples(*[st.integers(-3, 3)] * p.n)))
        for rows in sets
    ]
    if max(abs(v) for w in words for v in w) >= ENTRY_LIMIT:
        with pytest.raises(ValueError):
            covering(words, stack, p)
    else:
        assert covering(words, stack, p).tolist() == [
            oracle_covers(w, rows, p.t, p.k_plus, p.k_minus) for w, rows in zip(words, sets)
        ]


def test_stack_check_rejects_a_bad_row_at_every_position():
    p = ChannelParams(3, 2, 1, 1)
    (stack,) = sampled_read_sets((0, 0, 0), p, 5, 3, seed=1)
    assert stack.shape == (3, 5, 3) and check_stack(stack, p) is stack
    for s, j in product(range(3), range(1, 5)):
        duplicate = stack.copy()
        duplicate[s, j] = stack[s, j - 1]
        swapped = stack.copy()
        swapped[s, [j - 1, j]] = stack[s, [j, j - 1]]
        for bad in (duplicate, swapped):
            with pytest.raises(ValueError):
                check_stack(bad, p)


@CHECKS
@given(channels(max_n=4), st.data())
def test_stacks_split_trials_at_the_byte_bound(p, data):
    x = data.draw(st.tuples(*[st.integers(-5, 5)] * p.n))
    ball = oracle_ball(p.n, p.t, p.k_plus, p.k_minus)
    shifted = [add(x, e) for e in ball]
    count = data.draw(st.integers(1, len(ball)))
    per_stack = data.draw(st.integers(1, 4))
    trials = data.draw(st.sampled_from([1, per_stack, per_stack + 1, 3 * per_stack - 1]))
    seed = data.draw(st.integers(0, 2**32))
    slack = data.draw(st.sampled_from(list(BRANCHES.values())))
    budget = per_stack * 8 * count * p.n
    with mock.patch.object(core, "BLOCK_BYTES", budget), \
            mock.patch.object(channel, "_DENSE_SLACK", slack):
        random_stacks = list(channel.read_sets(x, p, count, "random", trials, seed))
        want = drawn_trials(seed, len(ball), count, trials)
        sampled = list(sampled_read_sets(x, p, count, trials, seed))
        exhaustive = (
            list(channel.read_sets(x, p, count, "exhaustive"))
            if comb(len(ball), count) <= 500 else None
        )
        kept = slack >= 0 and combinatorics.ball_one_hot(p) is not None

    # a dense draw's set, kept as an indicator row over the ball, is charged
    # 8 bytes a ball row (at least 64 n), not its stack; read_sets gathers
    # such a block's stacks per_stack sets at a time
    per_block = max(1, budget // max(8 * len(ball), 64 * p.n)) if kept else per_stack
    blocks = [per_block] * (trials // per_block) + [trials % per_block] * (trials % per_block > 0)
    sizes = [min(per_stack, size - i) for size in blocks for i in range(0, size, per_stack)]
    for got in (random_stacks, sampled):
        assert [len(s) for s in got] == sizes
        for s in got:
            assert s.dtype == np.int64 and s.shape[1:] == (count, p.n)
            assert s.nbytes <= budget and not s.flags.writeable

    def flat(got):
        return [tuple(map(tuple, m)) for s in got for m in s.tolist()]

    def read_set(idx):
        return oracle_read_set([shifted[int(i)] for i in idx], p.n)

    assert flat(random_stacks) == [read_set(idx) for idx in want]
    assert flat(sampled) == [read_set(idx) for idx in want]
    if exhaustive is not None:
        assert all(len(s) <= per_stack for s in exhaustive)
        assert flat(exhaustive) == [oracle_read_set(c, p.n) for c in combinations(shifted, count)]


def _index_rows(stacks, x, p):
    """The ball row indices, in lexicographic ball order, of each read set of
    ``stacks`` drawn around x."""
    ball = oracle_ball(p.n, p.t, p.k_plus, p.k_minus)
    position = {row: i for i, row in enumerate(ball)}
    return [
        tuple(position[tuple(v - c for v, c in zip(read, x))] for read in matrix)
        for stack in stacks for matrix in stack.tolist()
    ]


@pytest.mark.parametrize("name", BRANCHES)
def test_random_trials_are_uniform_over_the_subsets(name, monkeypatch):
    # all 10 two-subsets of a 5-row ball, 20,000 trials at one seed: the
    # chi-square statistic (9 degrees of freedom) stays below 27.88, its
    # 0.1% tail
    monkeypatch.setattr(channel, "_DENSE_SLACK", BRANCHES[name])
    p = ChannelParams(4, 1, 1, 0)
    trials = 20_000
    stacks = channel.read_sets((0,) * 4, p, 2, "random", trials, seed=15)
    counts = Counter(_index_rows(stacks, (0,) * 4, p))
    assert sorted(counts) == list(combinations(range(5), 2))
    expected = trials / 10
    assert sum((c - expected) ** 2 / expected for c in counts.values()) < 27.88


@pytest.mark.parametrize("name", BRANCHES)
def test_trial_i_depends_on_neither_the_stack_size_nor_the_trial_count(name, monkeypatch):
    monkeypatch.setattr(channel, "_DENSE_SLACK", BRANCHES[name])
    p, x, N, k = ChannelParams(5, 2, 1, 1), (1, 0, -2, 0, 3), 7, 40
    size = len(oracle_ball(5, 2, 1, 1))

    def trials(count):
        return _index_rows(channel.read_sets(x, p, N, "random", count, seed=9), x, p)

    full = trials(3 * k)
    assert trials(k) == full[:k]
    monkeypatch.setattr(core, "BLOCK_BYTES", 8 * N * p.n)
    assert len(list(channel.read_sets(x, p, N, "random", 5, seed=9))) == 5
    assert trials(3 * k) == full
    assert [list(row) for row in full] == drawn_trials(9, size, N, 3 * k)
    if name == "dense":
        # the replay the docs give: trial i alone from i + 1 rows of keys
        i = 2 * k + 1
        keys = rng_for(9).random((i + 1, size))[i]
        assert list(full[i]) == sorted(np.argsort(keys)[:N].tolist())


def test_neighbouring_seeds_share_no_read_set():
    # the recon-trials explicit point: delta = 2, N = 337 of 1161 reads
    p, N = ChannelParams(10, 3, 1, 1), 337
    x = (0,) * 10
    draws = [
        {s.tobytes() for stack in channel.read_sets(x, p, N, "random", 100, seed)
         for s in stack}
        for seed in (41, 42)
    ]
    assert len(draws[0]) == len(draws[1]) == 100
    assert not draws[0] & draws[1]


def test_sparse_draws_on_a_large_ball_stay_within_the_byte_bound():
    p, N, trials = ChannelParams(13, 4, 1, 1), 10, 5000
    size = ball_size(p)
    assert size >= 10**4 and size - N > channel._DENSE_SLACK
    blocks = list(channel._random_blocks(size, N, p.n, trials, rng_for(3)))
    assert sum(map(len, blocks)) == trials
    assert all(b.nbytes <= core.BLOCK_BYTES // p.n for b in blocks)
    sets = 0
    for stack in channel.read_sets((0,) * 13, p, N, "random", trials, seed=3):
        check_stack(stack, p)  # every set's reads distinct and sorted
        sets += len(stack)
    assert sets == trials


class _KeySpy:
    """A generator whose bit generator records the size of each
    ``random_raw`` call."""

    def __init__(self, rng):
        self.bit_generator, self.sizes, self._raw = self, [], rng.bit_generator.random_raw

    def random_raw(self, size):
        self.sizes.append(size)
        return self._raw(size)


@pytest.mark.parametrize("size, N, n", [(64, 7, 7), (1161, 337, 10), (20_000, 19_000, 2)])
def test_dense_key_blocks_stay_within_the_byte_bound(size, N, n):
    # keys are drawn an eighth of a block's bytes at a time, or one row
    spy = _KeySpy(rng_for(1))
    trials = 300
    blocks = list(channel._random_blocks(size, N, n, trials, spy))
    assert sum(map(len, blocks)) == trials and spy.sizes
    for raw in spy.sizes:
        rows, keys = divmod(raw, size)
        assert keys == 0
        assert rows * size * 8 <= max(core.BLOCK_BYTES // 8, 8 * size)


@pytest.mark.parametrize("size, N", [(64, 7), (73, 17), (1161, 337)])
@pytest.mark.parametrize("seed", [0, 1, 77, 2**64 - 1])
@pytest.mark.parametrize("budget", ["sets", "chunks"])
def test_raw_keys_replay_the_float_keys(size, N, seed, budget, monkeypatch):
    # the keys are random_raw's words shifted right by 11 bits: each row
    # keeps the N indices of the smallest floats of random((trials, size)),
    # and blocks of a few sets split the draw across many blocks, or chunks
    # of 3 rows split each block of 19 to 24 sets across many key draws
    assert size - N <= channel._DENSE_SLACK
    trials, n = 40, 10
    monkeypatch.setattr(core, "BLOCK_BYTES",
                        8 * max(3 * N * n, 5 * size) if budget == "sets" else 3 * 64 * size)
    spy = _KeySpy(rng_for(seed))
    blocks = list(channel._random_blocks(size, N, n, trials, spy))
    assert len(blocks) > 1 and all(b.dtype == bool for b in blocks)
    if budget == "chunks":
        assert all(len(b) > 3 for b in blocks[:-1]) and {raw // size for raw in spy.sizes} >= {3}
        assert len(spy.sizes) == sum(-(-len(b) // 3) for b in blocks)
    keys = rng_for(seed).random((trials, size))
    want = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :N], axis=1)
    np.testing.assert_array_equal(np.concatenate(blocks).nonzero()[1].reshape(trials, N), want)


def _stacks_of_every_mode(x, p, N, seed):
    """Every stack ``channel.read_sets`` builds around x in each read mode,
    and the stacks of ``minimum_sets`` on a k- = 0 channel."""
    stacks = [
        *channel.read_sets(x, p, N, "random", 7, seed),
        *channel.read_sets(x, p, N, "adversarial"),
    ]
    if comb(ball_size(p), N) <= 500:
        stacks += channel.read_sets(x, p, N, "exhaustive")
        if p.k_minus == 0:
            stacks += [block.stack for block, _ in channel.minimum_sets(x, p, N)]
    return stacks


@CHECKS
@given(channels(max_n=4), st.data())
def test_every_built_stack_passes_the_stack_check(p, data):
    x = data.draw(st.tuples(*[st.integers(-5, 5)] * p.n))
    N = data.draw(st.integers(1, ball_size(p)))
    seed = data.draw(st.integers(0, 2**32))
    slack = data.draw(st.sampled_from(list(BRANCHES.values())))
    with mock.patch.object(core, "BLOCK_BYTES", 3 * 8 * N * p.n), \
            mock.patch.object(channel, "_DENSE_SLACK", slack):
        stacks = _stacks_of_every_mode(x, p, N, seed)
    for stack in stacks:
        assert check_stack(stack, p) is stack


def test_a_ball_out_of_order_fails_the_build_check(monkeypatch):
    # swapping two rows of the enumerator's output breaks the order every
    # set's rows inherit; the ball is checked as it is enumerated, so the
    # cache is emptied for the mutant to be enumerated by each build
    p, x = ChannelParams(3, 2, 1, 0), (0, 1, -1)
    ball = channel.ball_matrix(p)
    lex_rows = combinatorics._lex_rows

    def mutant(*args):
        rows = lex_rows(*args)
        rows[[2, 5]] = rows[[5, 2]]
        return rows

    monkeypatch.setattr(combinatorics, "_lex_rows", mutant)
    empty_cache(monkeypatch)
    for build in (
        lambda: channel.read_sets(x, p, len(ball), "random", 3, seed=1),
        lambda: channel.read_sets(x, p, len(ball), "adversarial"),
        lambda: channel.read_sets(x, p, len(ball) - 1, "exhaustive"),
        lambda: channel.minimum_sets(x, p, 2),
    ):
        with pytest.raises(ValueError, match="rows sorted"):
            next(build())


def spy_on_check_stack(monkeypatch) -> list:
    """The shapes of the stacks that ``check_stack`` checks from now on."""
    check, checked = core.check_stack, []

    def spy(stack, params):
        checked.append(stack.shape)
        return check(stack, params)

    monkeypatch.setattr(core, "check_stack", spy)
    monkeypatch.setattr(reconstruction, "check_stack", spy)
    return checked


def test_a_point_checks_its_ball_once_and_its_blocks_never(monkeypatch):
    # the ball's order is checked as it is enumerated, and every set drawn
    # from it inherits that order, so later calls at the point check nothing
    p, x = ChannelParams(4, 2, 1, 0), (0, 1, -1, 2)
    checked = spy_on_check_stack(monkeypatch)
    empty_cache(monkeypatch)
    size = len(channel.ball_matrix(p))
    assert checked == [(1, size, 4)]
    checked.clear()
    builds = [channel.read_sets(x, p, size - 2, "random", 40, seed=5),  # indicator rows
              channel.read_sets(x, p, size - 2, "adversarial"),
              channel.read_sets(x, p, 2, "exhaustive"),
              channel.minimum_sets(x, p, 3)]
    for blocks in builds:
        assert list(blocks)
    monkeypatch.setattr(channel, "_DENSE_SLACK", -1)  # random index rows
    assert list(channel.read_sets(x, p, size - 2, "random", 40, seed=5))
    assert checked == []


def test_a_trial_checks_no_read_set(monkeypatch):
    # generate_reads hands the block of one that read_blocks drew, valid by
    # construction, to ReadSet as it is, and run_trial decodes that block
    p, x = ChannelParams(4, 2, 1, 1), (0,) * 4
    code = LatticeCode(parse_splitter_spec("group=Z3; s=[1,1,1,1]"))
    channel.run_trial(code, "majority", x, p, 8, 1)  # the ball and tables, cached
    checked = spy_on_check_stack(monkeypatch)
    record = channel.run_trial(code, "majority", x, p, 8, 1)
    assert checked == []
    Y = generate_reads(x, p, 8, seed=0)
    assert checked == [] and record.N == len(Y) == 8
    # a matrix is still checked once, and a block of more than one set refused
    assert ReadSet(Y.matrix, p).matrix is Y.matrix and checked == [(1, 8, 4)]
    (block,) = channel.read_blocks(x, p, 8, "random", 2, seed=0)
    with pytest.raises(ValueError, match="block of one set"):
        ReadSet(block, p)


def test_a_repeated_read_fails_the_build_check(monkeypatch):
    # an index drawn twice would repeat a read in its set
    p, x = ChannelParams(3, 2, 1, 1), (0, 1, -1)
    monkeypatch.setattr(channel, "_adversarial_order", lambda ball: np.zeros(len(ball), int))
    with pytest.raises(ValueError, match="distinct"):
        next(channel.read_sets(x, p, 4, "adversarial"))


@pytest.mark.parametrize("reads", ["random", "adversarial", "exhaustive"])
def test_read_counts_below_one_are_refused_before_the_cap(reads):
    # cap 0 would refuse any charge, so the ValueError comes first
    p, x = ChannelParams(3, 1, 1, 0), (0, 0, 0)
    for N in (0, -1):
        with pytest.raises(ValueError, match="read set must be nonempty"):
            next(channel.read_sets(x, p, N, reads, cap=0))
    with pytest.raises(ValueError, match="trials must be >= 1"):
        next(channel.read_sets(x, p, 2, reads, trials=-5, cap=0))
    if reads == "exhaustive":
        with pytest.raises(ValueError, match="read set must be nonempty"):
            next(channel.minimum_sets(x, p, -1, cap=0))


def decode_one_by_one(alg, Y, tau, code, delta, a):
    """The per-set procedure of ``alg`` on Y, with a failure as ()."""
    try:
        if alg == "min":
            return (reconstruct_min(Y, code, delta),)
        if alg == "majority":
            return (reconstruct_majority(Y, tau, code, delta),)
        if alg == "list-min":
            return list_reconstruct_min(Y, code, delta, a)
        if alg == "list-majority":
            return list_reconstruct_majority(Y, tau, code, delta, a)
        return list_reconstruct_sauer(Y, code, delta, a)
    except ReconstructionError:
        return ()


def oracle_unique_decode(alg, rows, tau, members, delta, p):
    """The minimum or majority machine on tuple rows: the oracle minimum or
    vote, erasure fills in lexicographic order, brute-force decodes and the
    oracle cover check."""
    if alg == "min":
        c = brute_force_decode(members, oracle_componentwise_min(rows), delta - 1, p)
        return () if c is None else (c,)
    entries = oracle_majority_entries(rows, tau)
    erased = [i for i, v in enumerate(entries) if v is ERASURE]
    ranges = [range(rows[0][i] - p.k_plus, rows[0][i] + p.k_minus + 1) for i in erased]
    for fill in product(*ranges):
        u = list(entries)
        for i, v in zip(erased, fill):
            u[i] = v
        c = brute_force_decode(members, tuple(u), delta - 1, p)
        if c is not None and oracle_covers(c, rows, p.t, p.k_plus, p.k_minus):
            return (c,)
    return ()


def oracle_list_decode(alg, rows, tau, members, delta, a, p):
    """The list machines on tuple rows: the oracle minimum (list-min) or
    every erasure fill of the oracle vote in lexicographic order
    (list-majority), minus every e of the oracle ball of radius a,
    brute-force decoded; the distinct codewords, sorted."""
    if alg == "list-min":
        words = [oracle_componentwise_min(rows)]
        shifts = oracle_ball(p.n, a, p.k_plus, 0)
    else:
        entries = oracle_majority_entries(rows, tau)
        erased = [i for i, v in enumerate(entries) if v is ERASURE]
        ranges = [range(rows[0][i] - p.k_plus, rows[0][i] + p.k_minus + 1) for i in erased]
        words = []
        for fill in product(*ranges):
            u = list(entries)
            for i, v in zip(erased, fill):
                u[i] = v
            words.append(tuple(u))
        shifts = oracle_ball(p.n, a, p.k_plus, p.k_minus)
    found = {brute_force_decode(members, sub(w, e), delta - 1, p) for w in words for e in shifts}
    return tuple(sorted(found - {None}))


def recording_candidates(blocks):
    """A stand-in for ``reconstruction._candidates`` that appends each block
    it yields, with the shift count it was built with, to ``blocks``."""
    real = reconstruction._candidates

    def candidates(words, erased, anchors, shifts, p, cap):
        for owner, rows in real(words, erased, anchors, shifts, p, cap):
            blocks.append((len(shifts), owner, rows))
            yield owner, rows

    return candidates


def recording_fill_keys(blocks):
    """A stand-in for ``reconstruction._fill_keys`` that appends, for each
    block (owner, keys) it yields, the shift count it was built with, the
    owner's length and the keys' length and dtype to ``blocks`` (not the
    arrays, which would stay alive)."""
    real = reconstruction._fill_keys

    def fill_keys(words, erased, anchors, shifts, p, cap):
        lo, place, keyed = real(words, erased, anchors, shifts, p, cap)

        def recorded():
            for owner, keys in keyed:
                blocks.append((len(shifts), len(owner), len(keys), keys.dtype))
                yield owner, keys

        return lo, place, recorded()

    return fill_keys


def recording_decode_rows(code, calls):
    """Patch ``code.decode_rows`` to append each row block it is given to
    ``calls``."""
    real = code.decode_rows

    def decode_rows(U, radius, params, cap=core.DEFAULT_ENUM_CAP):
        calls.append(U.copy())
        return real(U, radius, params, cap)

    return mock.patch.object(code, "decode_rows", decode_rows)


@pytest.mark.parametrize("text", ["group=Z7; s=[1,2,3]", "group=Z2xZ3; s=[(1,0),(0,1),(1,2)]"])
@pytest.mark.parametrize("alg", ["majority", "list-min", "list-majority"])
def test_lattice_stacks_with_erasures_match_their_sets_and_the_oracles(text, alg):
    spec = parse_splitter_spec(text)
    code = LatticeCode(spec)
    p = ChannelParams(spec.n, 2, 1, 0 if alg == "list-min" else 1)
    delta, a = (2, 0) if alg == "majority" else (1, 1)
    # reads around a codeword and around a word that is none, so that some
    # decodes fail; fills, shifts and decodes stay inside [-5, 6]^n
    (near,) = channel.read_sets((0,) * p.n, p, 4, "random", 6, seed=5)
    (far,) = channel.read_sets((1,) + (0,) * (p.n - 1), p, 4, "random", 6, seed=6)
    stack = np.concatenate((near, far))
    members = oracle_lattice_window(spec, -5, 6)
    # 10**6 erases every coordinate, 2 some of them
    taus = [None] if alg == "list-min" else [Fraction(0), Fraction(2), Fraction(10**6)]
    if alg != "list-min":
        assert any((~_sorted_votes(stack, tau)[1]).any() for tau in taus)
    for tau in taus:
        sets = [ReadSet(matrix, p) for matrix in stack]
        if alg == "majority":
            expected = [oracle_unique_decode(alg, Y.reads, tau, members, delta, p) for Y in sets]
        else:
            expected = [oracle_list_decode(alg, Y.reads, tau, members, delta, a, p) for Y in sets]
        assert [decode_one_by_one(alg, Y, tau, code, delta, a) for Y in sets] == expected
        for budget in (64, 2**10, 2**17):
            blocks, keyed, calls = [], [], []
            with mock.patch.object(core, "BLOCK_BYTES", budget), \
                    mock.patch.object(reconstruction, "_candidates", recording_candidates(blocks)), \
                    mock.patch.object(reconstruction, "_fill_keys", recording_fill_keys(keyed)), \
                    mock.patch.object(reconstruction, "distinct_rows",
                                      wraps=reconstruction.distinct_rows) as merges, \
                    recording_decode_rows(code, calls):
                got = ALGORITHMS[alg].decode(ReadBlock(p, stack), p, tau, code, delta, a, 10**7)
            assert per_set(got, len(stack)) == expected
            # list-majority decodes keys, the others rows
            assert (keyed and not blocks) if alg == "list-majority" else (blocks and not keyed)
            # the pairs of several blocks of keys are merged once, not once a block
            if alg == "list-majority":
                assert merges.call_count == (len(keyed) > 1)
            # a block of rows is charged four int64 matrices of its shape, a
            # block of keys six int64 words a key, and only a block of a
            # single fill may exceed the budget
            for shift_count, owner, rows in blocks:
                assert len(owner) == len(rows) and rows.dtype == np.int64
                assert 4 * rows.nbytes <= budget or len(rows) == shift_count
            for shift_count, owners, keys, dtype in keyed:
                assert owners == keys and dtype == np.int64
                assert 48 * keys <= budget or keys == shift_count
            # the keyed path decodes rows_per_block(32 n) rows to a call
            assert not keyed or all(4 * U.nbytes <= budget or len(U) == 1 for U in calls)
            assert len(blocks + keyed) > 1 or budget == 2**17


def test_erasure_fills_past_the_cap_build_no_row():
    p = ChannelParams(6, 2, 1, 1)
    code = LatticeCode(parse_splitter_spec("group=Z13; s=[1,2,3,4,5,6]"))
    block = ReadBlock(p, next(channel.read_sets((0,) * 6, p, 4, "random", 2, seed=3)))
    tau = Fraction(10**6)  # every coordinate erased: 3**6 fills per set
    blocks, keyed = [], []
    with mock.patch.object(reconstruction, "_candidates", recording_candidates(blocks)), \
            mock.patch.object(reconstruction, "_fill_keys", recording_fill_keys(keyed)):
        # list-majority at a = 1 shifts each fill by the 13 rows of B(6, 1, 1, 1)
        for alg, a, worst, built in (("majority", 0, 3**6, blocks),
                                     ("list-majority", 1, 13 * 3**6, keyed)):
            decode = ALGORITHMS[alg].decode
            with pytest.raises(EnumerationCapExceeded):
                decode(block, p, tau, code, 1, a, worst - 1)
            assert blocks == [] and keyed == []
            decoded = decode(block, p, tau, code, 1, a, worst)
            assert all((0,) * 6 in out for out in per_set(decoded, len(block)))
            assert built and len(blocks + keyed) == len(built)
            built.clear()


def test_candidate_blocks_bound_the_decode_memory(monkeypatch):
    # 4 sets of 3**6 fills, each shifted by 13 rows: 37908 candidate rows,
    # 1.8 MB as one int64 matrix, which must not fit in 4 budgets
    monkeypatch.setattr(core, "BLOCK_BYTES", 2**17)
    p = ChannelParams(6, 2, 1, 1)
    code = LatticeCode(parse_splitter_spec("group=Z13; s=[1,2,3,4,5,6]"))
    (stack,) = channel.read_sets((0,) * 6, p, 4, "random", 4, seed=3)
    block = ReadBlock(p, stack)
    tau = Fraction(10**6)
    decode = ALGORITHMS["list-majority"].decode
    decode(block, p, tau, code, 1, 1, 10**7)  # builds the cached balls and tables
    keyed = []
    with mock.patch.object(reconstruction, "_fill_keys", recording_fill_keys(keyed)):
        tracemalloc.start()
        try:
            outputs = decode(block, p, tau, code, 1, 1, 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert all((0,) * 6 in out for out in per_set(outputs, len(stack)))
    assert peak < 4 * core.BLOCK_BYTES
    # the keys of every fill and shift, streamed in blocks of the budget
    assert sum(keys for _, _, keys, _ in keyed) == 4 * 13 * 3**6
    assert len(keyed) > 1 and all(48 * keys <= core.BLOCK_BYTES for _, _, keys, _ in keyed)


def test_majority_blocks_bound_the_decode_memory(monkeypatch):
    # 4 sets of 3**6 fills each, every coordinate erased, at a budget that
    # all of them together would pass 4 times over
    monkeypatch.setattr(core, "BLOCK_BYTES", 2**17)
    p = ChannelParams(6, 2, 1, 1)
    code = LatticeCode(parse_splitter_spec("group=Z13; s=[1,2,3,4,5,6]"))
    (stack,) = channel.read_sets((0,) * 6, p, 4, "random", 4, seed=3)
    tau = Fraction(10**6)
    assert not _sorted_votes(stack, tau)[1].any()
    block = ReadBlock(p, stack)
    decode = ALGORITHMS["majority"].decode
    decode(block, p, tau, code, 1, 0, 10**7)  # builds the cached tables
    tracemalloc.start()
    try:
        owner, words = decode(block, p, tau, code, 1, 0, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert owner.tolist() == [0, 1, 2, 3]
    assert peak < 4 * core.BLOCK_BYTES


def test_majority_cover_tests_once_per_block():
    # every coordinate erased: 3**6 fills per set, and at delta = 2 the
    # radius-1 decode of the perfect Z13 code finds a word for every fill,
    # so each set has hundreds of decoded candidates to cover-test.  Sets
    # of all 73 reads of the ball gather more rows per block than one chunk
    # holds, so a kernel call per chunk would pass the first bound only
    p = ChannelParams(6, 2, 1, 1)
    code = LatticeCode(parse_splitter_spec("group=Z13; s=[1,2,3,4,5,6]"))
    tau = Fraction(10**6)
    for N in (4, 73):
        (stack,) = channel.read_sets((0,) * 6, p, N, "random", 4, seed=3)
        blocks = []
        with mock.patch.object(reconstruction, "_candidates", recording_candidates(blocks)), \
                mock.patch.object(reconstruction, "_cover_rows", wraps=_cover_rows) as covering:
            owner, words = ALGORITHMS["majority"].decode(ReadBlock(p, stack), p, tau, code, 2, 0,
                                                         10**7)
        chunk = core.rows_per_block(8 * stack[0].size)
        assert 1 <= covering.call_count <= sum(-(-len(rows) // chunk) for _, _, rows in blocks)
        # one kernel call per block of decoded candidates, which chunks inside it
        assert covering.call_count <= len(blocks)
        assert owner.tolist() == [0, 1, 2, 3]
        for word, rows in zip(words.tolist(), stack.tolist()):
            assert code.contains(tuple(word))
            assert oracle_covers(word, rows, p.t, p.k_plus, p.k_minus)


@st.composite
def vote_stacks(draw):
    """A stack of sets read from one ball (offsets within 2(k+ + k-) + 1
    values of the anchor, and N at least that) or of sets of N reads spread
    past N values."""
    p = draw(channels(max_n=4, max_kp=2, max_km=2))
    assume(p.k_minus >= 1)
    ball = oracle_ball(p.n, p.t, p.k_plus, p.k_minus)
    one_ball = draw(st.booleans())
    lo = 2 * p.magnitude_span + 1 if one_ball else 2
    assume(lo <= len(ball))
    N = draw(st.integers(lo, min(12, len(ball))))
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        if one_ball:
            x = draw(st.tuples(*[st.integers(-5, 5)] * p.n))
            picks = st.lists(st.sampled_from(ball), min_size=N, max_size=N, unique=True)
            rows = [add(x, e) for e in draw(picks)]
        else:
            row = st.tuples(*[st.integers(-50, 50)] * p.n)
            rows = draw(st.lists(row, min_size=N, max_size=N, unique=True))
        sets.append(oracle_read_set(rows, p.n))
    stack = np.array(sets, dtype=np.int64)
    offsets = stack - stack[:, :1]
    assume((int(offsets.max()) - int(offsets.min()) + 1 <= N) == one_ball)
    return stack, sets


@CHECKS
@given(vote_stacks(), st.data())
def test_majority_votes_count_and_sort_branches_match_the_oracle(case, data):
    stack, sets = case
    # thresholds at a margin of some set (erased), just below it (kept) and
    # between margins; ties go to the smallest value
    m = data.draw(st.sampled_from([m for rows in sets for m in margins(rows)]))
    for tau in (Fraction(m), Fraction(m - 1), Fraction(2 * m - 1, 2), Fraction(2 * m + 1, 2)):
        best, keep = _sorted_votes(stack, tau)[:2]
        assert [
            tuple(v if k else ERASURE for v, k in zip(word, kept))
            for word, kept in zip(best.tolist(), keep.tolist())
        ] == [oracle_majority_entries(rows, tau) for rows in sets]
    lowest = Fraction(-len(stack[0]) - 1)  # keeps every coordinate
    best = _sorted_votes(stack, lowest)[0]
    assert [tuple(word) for word in best.tolist()] == [
        oracle_majority_entries(rows, lowest) for rows in sets
    ]


def cover_words(data, stack, least, largest, p):
    """One candidate word per set: a read moved by up to 3 per coordinate
    (mostly outside the set's box), or a word inside the box
    [largest - k+, least + k-], within 3 of its top, wherever that box is
    nonempty."""
    words = []
    for rows, lo, hi in zip(stack.tolist(), least.tolist(), largest.tolist()):
        if data.draw(st.booleans()):
            step = data.draw(st.tuples(*[st.integers(-3, 3)] * p.n))
            words.append(add(data.draw(st.sampled_from(rows)), step))
        else:
            words.append(tuple(
                data.draw(st.integers(max(h - p.k_plus, l + p.k_minus - 3), l + p.k_minus))
                if h - p.k_plus <= l + p.k_minus else data.draw(st.integers(l - 1, h + 1))
                for l, h in zip(lo, hi)
            ))
    return words


@CHECKS
@given(vote_stacks(), st.data())
def test_vote_table_ranges_and_the_range_cover_match_the_oracle(case, data):
    stack, sets = case
    votes = _sorted_votes(stack, Fraction(0))
    least, largest = votes[2:]
    assert least.tolist() == stack.min(axis=1).tolist()
    assert largest.tolist() == stack.max(axis=1).tolist()
    n = stack.shape[2]
    km = data.draw(st.integers(0, 2))
    for kp in (data.draw(st.integers(max(km, 1), 3)), 2**70):
        p = ChannelParams(n, data.draw(st.integers(0, n)), kp, km)
        words = cover_words(data, stack, least, largest, p)
        expected = [oracle_covers(w, rows, p.t, p.k_plus, p.k_minus)
                    for w, rows in zip(words, sets)]
        # the block of the stack votes as its kernel does
        block = ReadBlock(p, stack)
        assert [v.tolist() for v in block.votes(Fraction(0))] == [v.tolist() for v in votes]
        # each word against every set, through the decoder's kernel
        owner = np.repeat(np.arange(len(stack)), len(words))
        rows = np.array(words * len(stack), dtype=np.int64)
        assert _cover_rows(rows, owner, block, least, largest, p).tolist() == [
            oracle_covers(w, sets[s], p.t, p.k_plus, p.k_minus)
            for s, w in zip(owner.tolist(), rows.tolist())
        ]
        assert covering(words, stack, p).tolist() == expected


@pytest.mark.parametrize("n", [255, 256, 300])
def test_range_cover_counts_every_differing_coordinate(n):
    # reads differing from the word in t and in t + 1 coordinates, t + 1 up
    # to 256: a uint8 count of 256 would wrap to 0
    t = min(n, 256) - 1
    p = ChannelParams(n, t, 1, 1)
    word = np.zeros((1, n), dtype=np.int64)
    for errors, covered in ((t, True), (t + 1, False)):
        stack = np.zeros((1, 2, n), dtype=np.int64)
        stack[0, 1, :errors] = 1
        assert covering(word, stack, p).tolist() == [covered]
        assert oracle_covers(word[0].tolist(), stack[0].tolist(), t, 1, 1) == covered


def test_majority_votes_break_ties_toward_the_smallest_value_in_both_branches():
    # every value is read twice of 4 times in its coordinate, and a tie goes
    # to the smallest: in the column sort of a stack, and in the count table
    # of the narrow set drawn from the ball around (0, 2); no small ball
    # holds the wide set, which only the sort votes.  A margin of 0 is kept
    # at tau = -1 and erased at tau = 0
    p, x = ChannelParams(2, 2, 1, 1), np.array([0, 2], dtype=np.int64)
    narrow = np.array([[[0, 2], [0, 3], [1, 2], [1, 3]]], dtype=np.int64)
    wide = np.array([[[0, 9], [0, 100], [100, 9], [100, 100]]], dtype=np.int64)
    ind = np.zeros((1, 9), dtype=bool)
    ind[0, [4, 5, 7, 8]] = True  # rows of the ball x + {-1, 0, 1}^2
    drawn = ReadBlock.of_ball(p, combinatorics.ball_matrix(p) + x, x, 4, ind)
    assert drawn.ind is not None and drawn.stack.tolist() == narrow.tolist()
    for tau, kept in ((Fraction(-1), True), (Fraction(0), False)):
        for (best, keep, *_), expected in ((_sorted_votes(narrow, tau), [[0, 2]]),
                                           (drawn.votes(tau), [[0, 2]]),
                                           (_sorted_votes(wide, tau), [[0, 9]])):
            assert best.tolist() == expected and keep.tolist() == [[kept, kept]]


@CHECKS
@given(channels(max_n=4, max_kp=2, max_km=1), st.sampled_from(sorted(ALGORITHMS)), st.data())
def test_decoding_a_stack_matches_decoding_its_sets(p, alg, data):
    assume(p.t >= 1 and (p.k_minus == 0) == alg.endswith("min"))
    delta = data.draw(st.integers(1, p.t))
    a = data.draw(st.integers(0, p.t - delta)) if alg.startswith("list") else 0
    x = data.draw(st.tuples(*[st.integers(-2, 2)] * p.n))
    other = add(x, data.draw(st.tuples(*[st.integers(-2, 2)] * p.n)))
    code = ExplicitCode({x, other})
    plan = read_plan(alg, p, delta, a)
    # fewer reads than the plan's as well, so that decodes fail and votes
    # erase
    N = data.draw(st.integers(1, min(plan.N, len(oracle_ball(p.n, p.t, p.k_plus, p.k_minus)))))
    trials = data.draw(st.integers(1, 8))
    seed = data.draw(st.integers(0, 2**32))
    with mock.patch.object(core, "BLOCK_BYTES", 5 * 8 * N * p.n):
        # each stack holds sets read around x, then sets read around other
        around = [list(channel.read_sets(c, p, N, "random", trials, seed)) for c in (x, other)]
    stacks = [np.concatenate(pair) for pair in zip(*around)]
    sets = [ReadSet(matrix, p) for stack in stacks for matrix in stack]
    # small candidate budgets split the erasure fills into many blocks
    budget = data.draw(st.sampled_from([8, 64, 2**17]))
    with mock.patch.object(core, "BLOCK_BYTES", budget):
        decoded = [plan.decode(ReadBlock(plan.p, stack), code) for stack in stacks]
        got = [out for d, stack in zip(decoded, stacks) for out in per_set(d, len(stack))]
        assert got == [decode_one_by_one(alg, Y, plan.tau, code, delta, a) for Y in sets]
    if alg in ("min", "majority"):
        assert got == [
            oracle_unique_decode(alg, Y.reads, plan.tau, code.members, delta, p) for Y in sets
        ]
    for (owner, words), stack in zip(decoded, stacks):
        assert owner.dtype == np.intp and words.dtype == np.int64
        assert words.shape == (len(owner), p.n)
        assert (owner[1:] >= owner[:-1]).all()
        rows = list(zip(owner.tolist(), words.tolist()))
        assert all(r < s for r, s in zip(rows, rows[1:]))
        if not alg.startswith("list"):
            assert (np.bincount(owner, minlength=len(stack)) <= 1).all()
        outputs = per_set((owner, words), len(stack))
        for c in (x, other):
            sizes, hits = score_sets((owner, words), len(stack), c)
            assert sizes.tolist() == [len(out) for out in outputs]
            if alg.startswith("list"):
                assert hits.tolist() == [c in out for out in outputs]
            else:
                assert hits.tolist() == [out == (c,) for out in outputs]


def test_erasure_fill_product_respects_the_cap():
    tau = Fraction(10**6)  # erases every coordinate
    p = ChannelParams(20, 2, 1, 1)
    Y = ReadSet([(0,) * 20, (1,) + (0,) * 19], p)
    code = ExplicitCode([(0,) * 20])
    tracemalloc.start()
    try:
        # 3**20 fills: refused before any of them is built
        with pytest.raises(EnumerationCapExceeded):
            reconstruct_majority(Y, tau, code, 1)
        with pytest.raises(EnumerationCapExceeded):
            list_reconstruct_majority(Y, tau, code, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    p = ChannelParams(4, 2, 1, 1)
    Y = ReadSet([(0, 0, 0, 0), (1, 0, 0, 0)], p)
    code = ExplicitCode([(0, 0, 0, 0)])
    for decode in (
        lambda cap: (reconstruct_majority(Y, tau, code, 1, cap=cap),),
        lambda cap: list_reconstruct_majority(Y, tau, code, 1, 0, cap=cap),
    ):
        with pytest.raises(EnumerationCapExceeded):
            decode(80)
        assert (0, 0, 0, 0) in decode(81)  # 3**4 fills
