"""Channel simulation: read sets in stacks, the decode loop, trial records.

Read sets come in stacks: read-only (S, N, n) int64 arrays of S sets of N
reads each.  Each set is a sorted row of N indices into the cached matrix
of the lexicographically ordered error ball (``ball_matrix``), and one
gather of a block's (S, N) index matrix, shifted by the transmitted word x,
builds the stack, so every set's rows come out distinct and in order.  A
stack holds as many sets as fit in ``_STACK_BYTES`` (at least one), so its
memory stays bounded whatever N, n and the trial count.  x is a tuple, and
x plus any error must stay below ``ENTRY_LIMIT`` in magnitude.

Every generator takes the channel as one ``ChannelParams`` p, and the read
mode is one of the CLI's ``--reads`` words: "random", "adversarial"
(heaviest errors first) or "exhaustive" (every N-subset of the ball).
``generate_reads(x, p, N, reads, seed)`` draws one random or adversarial
set, and ``run_trial(code, algorithm, x, p, N, delta, a, reads, seed)``
decodes it.

Randomness comes from numpy's Philox counter-based generator (a published,
splittable algorithm); every artifact that depends on randomness records the
generator name and seed.  ``read_sets`` draws random trial i from its own
generator, seeded with ``seed + i``, so trial 1 of seed 0 replays trial 0 of
seed 1; ``rng_for(seed, trial_index)`` spawns independent per-trial streams
instead, and moving the trial loop onto it is ROADMAP item 7.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Iterator, Optional

import numpy as np

from magrec.core import (
    DEFAULT_ENUM_CAP,
    ChannelParams,
    Code,
    EnumerationCapExceeded,
    Vec,
    check_entries,
)
from magrec.combinatorics import ball_matrix, ball_size
from magrec import reconstruction

RNG_NAME = "philox"

DEFAULT_SUBSET_CAP = 10**5

#: Byte budget of one read-set stack.
_STACK_BYTES = 128 * 2**10


def rng_for(seed: int, trial_index: Optional[int] = None) -> np.random.Generator:
    """Philox generator for a seed, optionally split at a trial index."""
    if trial_index is None:
        ss = np.random.SeedSequence(entropy=seed)
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.Philox(ss))


def _ball_and_shift(
    x: Vec, p: ChannelParams, cap: int = DEFAULT_ENUM_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """The ball matrix of p (at most ``cap`` rows) and x as an int64 row,
    after checking that x plus any error stays within the int64-safe range."""
    if len(x) != p.n:
        raise ValueError(f"x has length {len(x)}, the channel has n={p.n}")
    check_entries(min(x) - p.k_minus, max(x) + p.k_plus)
    ball = ball_matrix(p.n, p.t, p.k_plus, p.k_minus, cap=cap)
    return ball, np.array(x, dtype=np.int64)


def _adversarial_order(ball: np.ndarray) -> np.ndarray:
    """Row indices, maximal weight first, then maximal total magnitude,
    then lexicographic (the stable sort keeps the ball's order on ties)."""
    return np.lexsort((-np.abs(ball).sum(axis=1), -np.count_nonzero(ball, axis=1)))


def _draw(size: int, count: int, seed: int) -> np.ndarray:
    """``count`` distinct indices below ``size`` from the generator of ``seed``."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    return rng_for(seed).choice(size, size=count, replace=False)


def _stacks(
    ball: np.ndarray, shift: np.ndarray, count: int, draws: Iterator
) -> Iterator[np.ndarray]:
    """The stacks of the read sets ``ball[row] + shift``, one per index row
    that ``draws`` yields, each row sorted; a block holds as many sets as
    fit in ``_STACK_BYTES``."""
    if count < 1:
        raise ValueError("read set must be nonempty")
    per_stack = max(1, _STACK_BYTES // (8 * count * len(shift)))
    while rows := list(islice(draws, per_stack)):
        idx = np.array(rows, dtype=np.intp)
        idx.sort(axis=1)
        stack = ball[idx]
        stack += shift
        stack.flags.writeable = False
        yield stack


def read_sets(
    x: Vec, p: ChannelParams, N: int, reads: str, trials: int = 1, seed: int = 0,
    cap: int = DEFAULT_SUBSET_CAP,
) -> Iterator[np.ndarray]:
    """Stacks of N-read sets around x: ``trials`` random ones, trial i drawn
    by the generator of ``seed + i``; the one adversarial set; or every
    N-subset of the ball, in lexicographic subset order.  ``cap`` bounds the
    ball and, for exhaustive reads, the subset count: past it
    EnumerationCapExceeded is raised."""
    if reads == "exhaustive":
        total = math.comb(ball_size(p), N)
        if total > cap:
            raise EnumerationCapExceeded(
                f"{total} subsets exceed the cap {cap}; "
                "raise the cap or draw random reads"
            )
    elif reads not in ("random", "adversarial"):
        raise ValueError(
            f"reads must be random, adversarial or exhaustive, got {reads!r}"
        )
    ball, shift = _ball_and_shift(x, p, cap)
    size = len(ball)
    if reads == "exhaustive":
        draws = combinations(range(size), N)
    elif N > size:
        raise ValueError(f"cannot draw {N} distinct reads from a ball of size {size}")
    elif reads == "random":
        draws = (_draw(size, N, seed + i) for i in range(trials))
    else:
        draws = iter((_adversarial_order(ball)[:N],))
    yield from _stacks(ball, shift, N, draws)


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
    x: Vec, p: ChannelParams, count: int, cap: int = DEFAULT_SUBSET_CAP
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
    p: ChannelParams, delta: int, a: int, stacks: Iterable[np.ndarray],
    cap: int = DEFAULT_ENUM_CAP,
) -> Iterator[tuple[Vec, ...]]:
    """The algorithm's output for each read set of each stack, in order; a
    set it cannot decode gives the empty output.  Each stack is checked once
    (``reconstruction.check_stack``) and decoded as a whole; ``cap`` bounds
    the decoder's balls and erasure fills."""
    decode = entry.decoder(plan)
    for stack in stacks:
        reconstruction.check_stack(stack, p)
        yield from decode(stack, p, plan.tau, code, delta, a, cap)


def run_trial(
    code: Code, algorithm: str, x: Vec, p: ChannelParams, N: int, delta: int,
    a: int = 0, reads: str = "random", seed: int = 0,
) -> TrialRecord:
    """Generate N reads (``generate_reads``), run the selected algorithm,
    compare with x.

    A ReconstructionError counts as an unsuccessful trial (that is the
    comparison outcome); genuine usage errors propagate.
    """
    if algorithm not in reconstruction.ALGORITHMS:
        raise ValueError(f"algorithm must be one of {tuple(reconstruction.ALGORITHMS)}")
    entry = reconstruction.ALGORITHMS[algorithm]
    plan = entry.plan(p, delta, a)
    Y = generate_reads(x, p, N, reads, seed)
    start = time.monotonic_ns()
    (outputs,) = decode_read_sets(entry, plan, code, p, delta, a, (Y.stack,))
    elapsed = time.monotonic_ns() - start
    success = entry.succeeded(x, outputs)
    return TrialRecord(
        RNG_NAME, seed, p, algorithm, len(Y), success, len(outputs), elapsed
    )
