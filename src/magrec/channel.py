"""Channel simulation: read sets in stacks, the decode loop, trial records.

Read sets come in stacks: read-only (S, N, n) int64 arrays of S sets of N
reads each.  Each set is a sorted row of N indices into the cached matrix
of the lexicographically ordered error ball (``ball_matrix``), and one
gather of a block's (S, N) index matrix, shifted by the transmitted word x,
builds the stack, so every set's rows come out distinct and in order.  A
stack holds ``core.rows_per_block`` sets, so its memory stays bounded
whatever N, n and the trial count.  x is a tuple, and x plus any error must
stay below ``ENTRY_LIMIT`` in magnitude.

Every generator takes the channel as one ``ChannelParams`` p, and the read
mode is one of the CLI's ``--reads`` words: "random", "adversarial"
(heaviest errors first) or "exhaustive" (every N-subset of the ball).
``generate_reads(x, p, N, reads, seed)`` draws one random or adversarial
set, and ``run_trial(code, algorithm, x, p, N, delta, a, reads, seed)``
decodes it.  ``score_sets`` scores the rows (set, codeword) that
``decode_read_sets`` decodes a stack into: x on a set's list is success.

A decoder that reads only each set's componentwise minimum (``min`` and
``list-min``) needs no enumeration of the exhaustive sets: on a k- = 0
ball, ``minimum_sets`` hands out each distinct minimum x + z once, as a
one-read set, with the exact number of N-subsets whose minimum it is, in
Python ints.  It charges the cap the same C(|ball|, N) subsets as
``read_sets`` does, so the cap bounds the same points either way.

Randomness comes from numpy's Philox counter-based generator (a published,
splittable algorithm); every artifact that depends on randomness records the
generator name, the seed and the trial index.  A random-read command owns
one generator, ``rng_for(seed)``, and trial i of it is a function of the
seed, the ball size, N and i alone: trials own consecutive segments of that
generator's stream, so neither the stack size nor the trial count changes
trial i, and neighbouring seeds, being different Philox keys, share no
trial.  Trials are drawn a block at a time.  When the ball exceeds N by at
most ``_DENSE_SLACK`` rows, trial i keeps the N rows with the smallest keys
in row i of ``rng_for(seed).random((trials, size))``, so row i of
``rng_for(seed).random((i + 1, size))`` replays it alone; on a larger ball
trial i is the i-th ``rng.choice(size, N, replace=False, shuffle=False)``
of the command generator.  Either way it is a uniformly random N-subset.
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
    rows_per_block,
)
from magrec.combinatorics import ball_matrix, ball_size, minimum_counts
from magrec import reconstruction

RNG_NAME = "philox"

#: A random trial draws one key per ball row when the ball exceeds N by at
#: most this many rows, and N indices with ``choice`` otherwise: a key costs
#: about as much as a ``choice`` index, and a ``choice`` call about as much
#: as this many keys (timeit crossover in CHANGES.md).
_DENSE_SLACK = 1024


def rng_for(seed: int) -> np.random.Generator:
    """The Philox generator of a seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed)))


def _ball_and_shift(
    x: Vec, p: ChannelParams, cap: int = DEFAULT_ENUM_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """The ball matrix of p (at most ``cap`` rows) and x as an int64 row,
    after checking that x plus any error stays within the int64-safe range."""
    if len(x) != p.n:
        raise ValueError(f"x has length {len(x)}, the channel has n={p.n}")
    check_entries(min(x) - p.k_minus, max(x) + p.k_plus)
    ball = ball_matrix(p, cap)
    return ball, np.array(x, dtype=np.int64)


def _adversarial_order(ball: np.ndarray) -> np.ndarray:
    """Row indices, maximal weight first, then maximal total magnitude,
    then lexicographic (the stable sort keeps the ball's order on ties)."""
    return np.lexsort((-np.abs(ball).sum(axis=1), -np.count_nonzero(ball, axis=1)))


def _per_stack(count: int, n: int) -> int:
    """How many sets of ``count`` length-n reads one stack holds."""
    if count < 1:
        raise ValueError("read set must be nonempty")
    return rows_per_block(8 * count * n)


def _row_blocks(rows: Iterable, count: int, n: int) -> Iterator[np.ndarray]:
    """The index rows that ``rows`` yields, ``count`` each, as (S, count)
    blocks of as many rows as one stack of length-n reads holds."""
    rows, per_stack = iter(rows), _per_stack(count, n)
    while block := list(islice(rows, per_stack)):
        yield np.array(block, dtype=np.intp)


def _random_blocks(
    size: int, count: int, n: int, trials: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """(S, count) index blocks of ``trials`` random ``count``-subsets of
    ``range(size)``, drawn from ``rng`` as the module docstring defines
    them, S sets to a stack of length-n reads.  Dense keys (then ``size <=
    count + _DENSE_SLACK``) are drawn in blocks of ``rows_per_block`` rows
    of one trial's ``size`` keys."""
    per_stack = _per_stack(count, n)
    per_keys = rows_per_block(8 * size)
    dense = size - count <= _DENSE_SLACK
    for start in range(0, trials, per_stack):
        stop = min(start + per_stack, trials)
        if dense:
            yield np.concatenate([
                np.argpartition(rng.random((min(per_keys, stop - i), size)), count - 1,
                                axis=1)[:, :count]
                for i in range(start, stop, per_keys)
            ])
        else:
            yield np.array([
                rng.choice(size, count, replace=False, shuffle=False)
                for _ in range(start, stop)
            ])


def _stacks(
    ball: np.ndarray, shift: np.ndarray, blocks: Iterable[np.ndarray]
) -> Iterator[np.ndarray]:
    """The stack of the read sets ``ball[row] + shift`` of each (S, N) index
    block, each row sorted (in place)."""
    for idx in blocks:
        idx.sort(axis=1)
        stack = ball[idx]
        stack += shift
        stack.flags.writeable = False
        yield stack


def read_sets(
    x: Vec, p: ChannelParams, N: int, reads: str, trials: int = 1, seed: int = 0,
    cap: int = DEFAULT_ENUM_CAP,
) -> Iterator[np.ndarray]:
    """Stacks of N-read sets around x: ``trials`` random ones, all drawn from
    the one generator ``rng_for(seed)`` (trial i as the module docstring
    defines it; the seed must fit in 64 bits); the one adversarial set; or
    every N-subset of the ball, in lexicographic subset order.  ``cap``
    bounds the ball and, for exhaustive reads, the subset count: past it
    EnumerationCapExceeded is raised."""
    if reads == "exhaustive":
        charge(math.comb(ball_size(p), N), "exhaustive read sets", cap)
    elif reads == "random":
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
    elif reads != "adversarial":
        raise ValueError(
            f"reads must be random, adversarial or exhaustive, got {reads!r}"
        )
    ball, shift = _ball_and_shift(x, p, cap)
    size = len(ball)
    if reads == "exhaustive":
        blocks = _row_blocks(combinations(range(size), N), N, p.n)
    elif N > size:
        raise ValueError(f"cannot draw {N} distinct reads from a ball of size {size}")
    elif reads == "random":
        blocks = _random_blocks(size, N, p.n, trials, rng_for(seed))
    else:
        blocks = _row_blocks((_adversarial_order(ball)[:N],), N, p.n)
    yield from _stacks(ball, shift, blocks)


def minimum_sets(
    x: Vec, p: ChannelParams, N: int, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """What a decoder that reads only each set's componentwise minimum sees
    of every N-subset of the k- = 0 ball around x: pairs (stack, counts) of
    the distinct minima x + z, each a one-read set, in the ball's order, and
    for each the number of N-subsets with that minimum
    (``combinatorics.minimum_counts``), an object array of Python ints.  A
    stack holds as many one-read sets as ``_per_stack`` allows.  ``cap``
    bounds the ball and is charged the C(|ball|, N) subsets the counts stand
    for, as ``read_sets`` charges exhaustive reads."""
    charge(math.comb(ball_size(p), N), "exhaustive read sets", cap)
    ball, shift = _ball_and_shift(x, p, cap)
    counts = np.array(minimum_counts(p, N, cap), dtype=object)
    for idx in _row_blocks(counts.nonzero()[0][:, None], 1, p.n):
        yield next(_stacks(ball, shift, [idx])), counts[idx[:, 0]]


def generate_reads(
    x: Vec, p: ChannelParams, N: int, reads: str = "random", seed: int = 0,
    cap: int = DEFAULT_ENUM_CAP,
) -> reconstruction.ReadSet:
    """One set of N distinct reads from the ball around x, the ``read_sets``
    set of the same ``reads`` mode ("random" or "adversarial") and seed; a
    ball of more than ``cap`` vectors raises EnumerationCapExceeded."""
    if reads == "exhaustive":
        raise ValueError("generate_reads draws one read set; use exhaustive_read_sets")
    (stack,) = read_sets(x, p, N, reads, 1, seed, cap)
    return reconstruction.ReadSet(stack[0], p)


def exhaustive_read_sets(
    x: Vec, p: ChannelParams, count: int, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[reconstruction.ReadSet]:
    """All C(|ball|, count) read sets, one by one, in lexicographic subset
    order; ``cap`` bounds both the subset count and the ball."""
    for stack in read_sets(x, p, count, "exhaustive", cap=cap):
        for matrix in stack:
            yield reconstruction.ReadSet(matrix, p)


@dataclass(frozen=True)
class TrialRecord:
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
        obj = {
            "rng": self.rng,
            "seed": self.seed,
            "trial": self.trial,
            "params": {
                "n": self.params.n,
                "t": self.params.t,
                "kp": self.params.k_plus,
                "km": self.params.k_minus,
            },
            "algorithm": self.algorithm,
            "N": self.N,
            "success": self.success,
            "list_size": self.list_size,
            "elapsed_ns": self.elapsed_ns,
        }
        return json.dumps(obj, separators=(",", ":"))


def decode_read_sets(
    entry: reconstruction.Algorithm, plan: reconstruction.ReadPlan, code: Code,
    p: ChannelParams, delta: int, a: int, stack: np.ndarray,
    cap: int = DEFAULT_ENUM_CAP,
) -> reconstruction.Decoded:
    """The algorithm's rows (owner, words) for one stack of read sets, which
    is checked once (``reconstruction.check_stack``) and decoded as a whole;
    a set it cannot decode owns no row.  ``cap`` bounds the decoder's balls
    and erasure fills."""
    reconstruction.check_stack(stack, p)
    return entry.decoder(plan)(stack, p, plan.tau, code, delta, a, cap)


def score_sets(decoded: reconstruction.Decoded, sets: int, x: Vec) -> tuple[np.ndarray, ...]:
    """Per set of a decoded stack of ``sets`` sets, its list size and
    whether x is on its list, as two (sets,) arrays."""
    owner, words = decoded
    sizes = np.bincount(owner, minlength=sets)
    hits = np.bincount(owner[(words == x).all(axis=1)], minlength=sets) > 0
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
    if algorithm not in reconstruction.ALGORITHMS:
        raise ValueError(f"algorithm must be one of {tuple(reconstruction.ALGORITHMS)}")
    entry = reconstruction.ALGORITHMS[algorithm]
    plan = entry.plan(p, delta, a)
    Y = generate_reads(x, p, N, reads, seed)
    start = time.monotonic_ns()
    decoded = decode_read_sets(entry, plan, code, p, delta, a, Y.stack)
    elapsed = time.monotonic_ns() - start
    (size,), (success,) = score_sets(decoded, 1, x)
    return TrialRecord(
        RNG_NAME, seed, 0, p, algorithm, len(Y), bool(success), int(size), elapsed
    )
