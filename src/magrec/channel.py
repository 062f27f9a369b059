"""Channel simulation: read sets in blocks, one decoded trial, trial records.

Read sets come in blocks (``reconstruction.ReadBlock``) of S sets of N
reads each, drawn from the cached matrix of the lexicographically ordered
error ball (``ball_matrix``, whose order is checked once, when it is
enumerated), shifted once per call by the transmitted word x.
``read_blocks`` hands them out, and ``read_sets`` the read-only (S, N, n)
int64 stack of each.  Every block is built by the one trusted constructor
``ReadBlock.of_ball``, from rows of the shifted ball: a dense random draw
(below) keeps each set as a row of a boolean indicator over the ball,
marking N rows by construction, and every other set is a row of N indices
into the ball (exhaustive and adversarial reads, a sparse random draw).
``of_ball`` keeps an indicator over a ball with a one-hot matrix as it is,
and otherwise checks that each sorted index row strictly increases and
gathers the block's stack; so every set's rows are distinct and in order,
which is what ``core.check_stack`` would prove of the stack at many times
the cost.  The CLI's decode loop, ``cli._trials``, decodes these blocks as
built, and ``generate_reads`` hands its block of one to ``ReadSet`` as it
is; a stack from anywhere else becomes a block by ``ReadBlock(p, stack)``,
which checks it, as ``ReadSet`` builds its block of one from a matrix.  A
block holds ``reconstruction.sets_per_block`` sets, each charged its stack
or, kept as an indicator, 8 bytes a ball row, and such a block's stack is
gathered a part at a time (``ReadBlock.parts``), so its memory stays
bounded whatever N, n and the trial count.  x is an integer vector
(``core.int_rows``), and x plus any error must stay below ``ENTRY_LIMIT`` in
magnitude.

Every generator takes the channel as one ``ChannelParams`` p, and the read
mode is one of the CLI's ``--reads`` words: "random", "adversarial"
(heaviest errors first) or "exhaustive" (every N-subset of the ball).
``generate_reads(x, p, N, reads, seed)`` draws one random or adversarial
set, and ``run_trial(code, algorithm, x, p, N, delta, a, reads, seed)``
decodes it under ``reconstruction.read_plan(algorithm, p, delta, a)``.
``score_sets`` scores the rows (set, codeword) that ``plan.decode(block,
code)`` decodes a block into: x on a set's list is success.

A decoder that reads only each set's componentwise minimum (``min`` and
``list-min``) needs no enumeration of the exhaustive sets: on a k- = 0
ball, ``minimum_sets`` hands out each distinct minimum x + z once, as a
one-read set, with the exact number of N-subsets whose minimum it is, in
Python ints.  It charges the cap what it builds, the ball, and no subset
count, since it enumerates no subset.

Randomness comes from numpy's Philox counter-based generator (a published,
splittable algorithm); every artifact that depends on randomness records the
generator name, the seed and the trial index.  A random-read command owns
one generator, ``rng_for(seed)``, and trial i of it is a function of the
seed, the ball size, N and i alone: trials own consecutive segments of that
generator's stream, so neither the block or key chunk size nor the trial
count changes trial i, and neighbouring seeds, being different Philox keys,
share no trial.  Trials are drawn a block at a time.  When the ball exceeds
N by at most ``_DENSE_SLACK`` rows, trial i keeps the N rows with the
smallest keys among numbers i |B| ... (i + 1) |B| - 1 of the generator's
uint32 stream, so row i of ``rng_for(seed).integers(0, 2**32, (i + 1,
size), dtype=np.uint32)`` replays it alone.  The keys are the generator's
raw 64-bit words, each split into its low and then its high half, as
``integers`` splits them, and a half word left over at the end of a key
chunk or block starts the next one.  A row marks its keys at most its N-th
smallest (one ``np.partition``, no index sort); a row with a tie there
marks more, and keeps the N that ``np.argpartition`` picks instead, so
every set is the one an ``np.argpartition`` of the keys gives.  A tie has
probability below |B| / 2**32 per set.  On a larger ball trial i is the
i-th ``rng.choice(size, N, replace=False, shuffle=False)`` of the command
generator.  Either way it is a uniformly random N-subset.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Iterator

import numpy as np

from magrec.core import (
    DEFAULT_ENUM_CAP,
    ChannelParams,
    Code,
    Vec,
    charge,
    check_entries,
    hamming,
    int_rows,
    rows_per_block,
)
from magrec.combinatorics import ball_matrix, ball_one_hot, ball_size, cached, minimum_counts
from magrec import reconstruction
from magrec.reconstruction import ReadBlock, sets_per_block

RNG_NAME = "philox"

#: A random trial draws one uint32 key per ball row when the ball exceeds N
#: by at most this many rows, and N indices with ``choice`` otherwise: a
#: ``choice`` call costs about as much as this many keys, so at small N the
#: two draws cost the same at this slack, and at larger N the keys are the
#: cheaper (timeit crossover in CHANGES.md).
_DENSE_SLACK = 2048


def rng_for(seed: int) -> np.random.Generator:
    """The Philox generator of a seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))


def _ball_and_shift(
    x: Vec, p: ChannelParams, cap: int = DEFAULT_ENUM_CAP
) -> tuple[np.ndarray, ...]:
    """The ball matrix of p (at most ``cap`` rows), the ball shifted by x,
    and x as an int64 row, after checking that x plus any error stays
    within the int64-safe range."""
    (shift,) = int_rows([x], "x")
    if len(shift) != p.n:
        raise ValueError(f"x has length {len(shift)}, the channel has n={p.n}")
    check_entries(int(shift.min()) - p.k_minus, int(shift.max()) + p.k_plus)
    ball = ball_matrix(p, cap)
    return ball, ball + shift, shift


def _adversarial_order(ball: np.ndarray) -> np.ndarray:
    """Row indices, maximal weight first, then maximal total magnitude,
    then lexicographic (the stable sort keeps the ball's order on ties)."""
    return np.lexsort((-np.abs(ball).sum(axis=1), -np.count_nonzero(ball, axis=1)))


def _row_blocks(rows: Iterable, count: int, n: int) -> Iterator[np.ndarray]:
    """The index rows that ``rows`` yields, ``count`` each, as (S, count)
    blocks of as many rows as one block of length-n reads holds."""
    rows, per_block = iter(rows), sets_per_block(count, n)
    while block := list(islice(rows, per_block)):
        yield np.array(block, dtype=np.intp)


def _keys(
    rng: np.random.Generator, rows: int, size: int, spare: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A (rows, size) uint32 matrix of the next keys of ``rng``'s uint32
    stream, the one ``rng.integers(0, 2**32, dtype=np.uint32)`` reads, and
    the half word left over after them (none or one key).  ``spare``, the
    half word the last call left over, comes first.  Each raw 64-bit word
    splits into its low half, then its high half, on any byte order; on a
    little-endian machine, with no spare, that is a view of the words."""
    count = rows * size
    raw = rng.bit_generator.random_raw((count - len(spare) + 1) // 2)
    halves = raw.astype("<u8", copy=False).view("<u4")
    if len(spare):
        halves = np.concatenate((spare, halves))
    return halves[:count].reshape(rows, size), halves[count:].copy()


def _smallest(keys: np.ndarray, count: int, out: np.ndarray) -> np.ndarray:
    """Per row of the uint32 ``keys``, the boolean indicator of the
    positions of its ``count`` smallest keys, written into ``out`` and
    returned: those at most the count-th smallest.  A row with a tie there
    (probability below its length over 2**32) indicates more; it takes the
    set that ``np.argpartition(keys, count - 1, axis=1)[:, :count]``
    picks."""
    ind = np.less_equal(keys, np.partition(keys, count - 1, axis=1)[:, count - 1:count], out=out)
    if np.count_nonzero(ind) > len(ind) * count:
        for i in (hamming(ind) > count).nonzero()[0]:
            ind[i] = False
            ind[i, np.argpartition(keys[i], count - 1)[:count]] = True
    return ind


def _random_blocks(
    size: int, count: int, n: int, trials: int, rng: np.random.Generator, kept: bool = True
) -> Iterator[np.ndarray]:
    """Blocks of ``trials`` random ``count``-subsets of ``range(size)``,
    drawn from ``rng`` as the module docstring defines them, as many to a
    block of length-n reads as ``sets_per_block`` allows.  Dense keys (then
    ``size <= count + _DENSE_SLACK``) make each block an (S, size) boolean
    indicator, charged its rows alone when ``kept`` (the block keeps it and
    gathers no stack); their uint32 keys are drawn ``rows_per_block(32
    size)`` trials at a time, an eighth of a block's bytes of keys, each
    chunk written into the indicator by ``_smallest`` while it is in
    cache.  Otherwise each block is an (S, count) matrix of indices."""
    dense = size - count <= _DENSE_SLACK
    per_block = sets_per_block(count, n, size if dense and kept else 0)
    chunk, spare = rows_per_block(32 * size), np.zeros(0, dtype=np.uint32)
    for start in range(0, trials, per_block):
        stop = min(start + per_block, trials)
        if dense:
            ind = np.empty((stop - start, size), dtype=bool)
            for lo in range(0, len(ind), chunk):
                hi = min(lo + chunk, len(ind))
                keys, spare = _keys(rng, hi - lo, size, spare)
                _smallest(keys, count, ind[lo:hi])
            yield ind
        else:
            yield np.array([
                rng.choice(size, count, replace=False, shuffle=False)
                for _ in range(start, stop)
            ])


def read_blocks(
    x: Vec, p: ChannelParams, N: int, reads: str, trials: int = 1, seed: int = 0,
    cap: int = DEFAULT_ENUM_CAP,
) -> Iterator[ReadBlock]:
    """Blocks of N-read sets around x: ``trials`` random ones, all drawn
    from the one generator ``rng_for(seed)`` (trial i as the module
    docstring defines it; the seed must fit in 64 bits); the one adversarial
    set; or every N-subset of the ball, in lexicographic subset order.
    ``cap`` bounds the ball, the subset count of exhaustive reads and the
    ``trials`` of random ones: past it EnumerationCapExceeded is raised.  N
    and ``trials`` below 1 raise ValueError before anything is charged."""
    if N < 1:
        raise ValueError("read set must be nonempty")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if reads == "exhaustive":
        charge(math.comb(ball_size(p), N), "exhaustive read sets", cap)
    elif reads == "random":
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        charge(trials, "random read sets", cap)
    elif reads != "adversarial":
        raise ValueError(
            f"reads must be random, adversarial or exhaustive, got {reads!r}"
        )
    ball, shifted, shift = _ball_and_shift(x, p, cap)
    size = len(ball)
    if reads == "exhaustive":
        sets = _row_blocks(combinations(range(size), N), N, p.n)
    elif N > size:
        raise ValueError(f"cannot draw {N} distinct reads from a ball of size {size}")
    elif reads == "random":
        # only a dense draw asks for the one-hot matrix: with it, its
        # indicator is kept, and without it, its stack is gathered
        kept = size - N > _DENSE_SLACK or ball_one_hot(p) is not None
        sets = _random_blocks(size, N, p.n, trials, rng_for(seed), kept)
    else:
        sets = _row_blocks((_adversarial_order(ball)[:N],), N, p.n)
    for rows in sets:
        yield ReadBlock.of_ball(p, shifted, shift, N, rows)


def read_sets(
    x: Vec, p: ChannelParams, N: int, reads: str, trials: int = 1, seed: int = 0,
    cap: int = DEFAULT_ENUM_CAP,
) -> Iterator[np.ndarray]:
    """The stacks of the ``read_blocks`` of the same arguments, each block's
    gathered a part at a time (``ReadBlock.parts``)."""
    for block in read_blocks(x, p, N, reads, trials, seed, cap):
        for _, part in block.parts():
            yield part.stack


def minimum_sets(
    x: Vec, p: ChannelParams, N: int, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[tuple[ReadBlock, np.ndarray]]:
    """What a decoder that reads only each set's componentwise minimum sees
    of every N-subset of the k- = 0 ball around x: pairs (block, counts) of
    the distinct minima x + z, each a one-read set, in the ball's order, and
    for each the number of N-subsets with that minimum
    (``combinatorics.minimum_counts``, cached), an object array of Python
    ints.  A block holds as many one-read sets as ``sets_per_block`` allows.
    ``cap`` bounds the ball; no subset is enumerated, so none is charged."""
    if N < 1:
        raise ValueError("read set must be nonempty")
    _, shifted, shift = _ball_and_shift(x, p, cap)
    counts = cached(("minimum-counts", p, N),
                    lambda: np.array(minimum_counts(p, N, cap), dtype=object))
    for rows in _row_blocks(counts.nonzero()[0][:, None], 1, p.n):
        yield ReadBlock.of_ball(p, shifted, shift, 1, rows), counts[rows[:, 0]]


def generate_reads(
    x: Vec, p: ChannelParams, N: int, reads: str = "random", seed: int = 0,
    cap: int = DEFAULT_ENUM_CAP,
) -> reconstruction.ReadSet:
    """One set of N distinct reads from the ball around x, the ``read_blocks``
    set of the same ``reads`` mode ("random" or "adversarial") and seed; a
    ball of more than ``cap`` vectors raises EnumerationCapExceeded."""
    if reads == "exhaustive":
        raise ValueError("generate_reads draws one read set; use exhaustive_read_sets")
    (block,) = read_blocks(x, p, N, reads, 1, seed, cap)
    return reconstruction.ReadSet(block, p)


def exhaustive_read_sets(
    x: Vec, p: ChannelParams, count: int, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[reconstruction.ReadSet]:
    """All C(|ball|, count) read sets, one by one, in lexicographic subset
    order; ``cap`` bounds both the subset count and the ball."""
    for block in read_blocks(x, p, count, "exhaustive", cap=cap):
        for matrix in block.stack:
            yield reconstruction.ReadSet(matrix, p)


@dataclass(frozen=True)
class TrialRecord:
    """One trial of ``run_trial`` or ``simulate``: the generator and seed,
    the trial index, the point, the algorithm and read count, whether x was
    on the list, the list size and the decode time.  ``to_line`` renders it
    as ``record_lines`` renders each trial of a point."""

    rng: str
    seed: int
    trial: int
    params: ChannelParams
    algorithm: str
    N: int
    success: bool
    list_size: int
    elapsed_ns: int

    def to_line(self) -> str:
        """The record as one JSON line (``record_lines``)."""
        return record_lines(self.rng, self.seed, self.params, self.algorithm, self.N, self.trial,
                            [self.success], [self.list_size], self.elapsed_ns)[0]


def record_lines(
    rng: str, seed: int, p: ChannelParams, algorithm: str, N: int, first: int,
    success: Iterable[bool], list_size: Iterable[int], elapsed_ns: int,
) -> list[str]:
    """The JSON lines of the trial records first, first + 1, ... at one
    point, one per pair of ``success`` and ``list_size``, all taking
    ``elapsed_ns``: each is the ``json.dumps`` of the record's object with
    separators "," and ":", rendered from one %-template of the fields that
    vary, with the strings written by ``json.dumps`` and the ints as ``str``
    writes them, as ``json.dumps`` does."""
    text = lambda value: json.dumps(value).replace("%", "%%")
    template = (
        f'{{"rng":{text(rng)},"seed":{seed},"trial":%d,"params":{{"n":{p.n},"t":{p.t},'
        f'"kp":{p.k_plus},"km":{p.k_minus}}},"algorithm":{text(algorithm)},"N":{N},'
        f'"success":%s,"list_size":%d,"elapsed_ns":{elapsed_ns}}}'
    )
    words = ("false", "true")
    return [template % (first + i, words[hit], size)
            for i, (hit, size) in enumerate(zip(success, list_size))]


def score_sets(decoded: reconstruction.Decoded, sets: int, x: Vec) -> tuple[np.ndarray, ...]:
    """Per set of a decoded stack of ``sets`` sets, its list size and
    whether x is on its list, as two (sets,) arrays."""
    owner, words = decoded
    sizes = np.bincount(owner, minlength=sets)
    hits = np.bincount(owner[hamming(words != x) == 0], minlength=sets) > 0
    return sizes, hits


def run_trial(
    code: Code, algorithm: str, x: Vec, p: ChannelParams, N: int, delta: int,
    a: int = 0, reads: str = "random", seed: int = 0,
) -> TrialRecord:
    """Generate N reads (``generate_reads``, trial 0 of ``seed``), run the
    selected algorithm, compare with x.

    A read set the algorithm cannot decode is an unsuccessful trial (that
    is the comparison outcome); genuine usage errors propagate.
    """
    plan = reconstruction.read_plan(algorithm, p, delta, a)
    Y = generate_reads(x, p, N, reads, seed)
    start = time.monotonic_ns()
    decoded = plan.decode(Y.block, code)
    elapsed = time.monotonic_ns() - start
    (size,), (success,) = score_sets(decoded, 1, x)
    return TrialRecord(
        RNG_NAME, seed, 0, p, algorithm, len(Y), bool(success), int(size), elapsed
    )
