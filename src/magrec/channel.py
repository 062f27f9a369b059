"""Channel simulation: error injection, read-set generation, trial running.

A read set is built as an int64 matrix: sorted row indices into the cached
matrix of the lexicographically ordered error ball (``ball_matrix``),
shifted by the transmitted word x, so its rows come out distinct and in
order.  x is a tuple, and x plus any error must stay below ``ENTRY_LIMIT``
in magnitude.

Randomness comes from numpy's Philox counter-based generator (a published,
splittable algorithm); every artifact that depends on randomness records the
generator name and seed.  ``read_sets`` seeds random trial i with
``seed + i``, so trial 1 of seed 0 replays trial 0 of seed 1;
``rng_for(seed, trial_index)`` spawns independent per-trial streams instead,
and moving the trial loop onto it is ROADMAP item 5.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterable, Iterator, Optional

import numpy as np

from magrec.core import (
    DEFAULT_ENUM_CAP,
    ChannelParams,
    Code,
    ReconstructionError,
    Vec,
    check_entries,
    vector_add,
)
from magrec.combinatorics import ball_matrix, ball_size, enumerate_ball
from magrec import reconstruction

RNG_NAME = "philox"

#: Modes for generate_reads.
MODES = ("random_distinct", "adversarial_heavy")

DEFAULT_SUBSET_CAP = 10**5

#: Subsets indexed per step of ``exhaustive_read_sets``.
_SUBSET_BLOCK = 1024


@dataclass(frozen=True)
class ReadGenSpec:
    mode: str
    count: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def rng_for(seed: int, trial_index: Optional[int] = None) -> np.random.Generator:
    """Philox generator for a seed, optionally split at a trial index."""
    if trial_index is None:
        ss = np.random.SeedSequence(entropy=seed)
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial_index,))
    return np.random.Generator(np.random.Philox(ss))


def corrupt(x: Vec, p: ChannelParams, rng: np.random.Generator) -> Vec:
    """x plus an error drawn uniformly from the ball, by index into its
    lexicographic enumeration."""
    ball = enumerate_ball(p)
    e = ball[int(rng.integers(len(ball)))]
    return vector_add(x, e)


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


def generate_reads(
    x: Vec, p: ChannelParams, spec: ReadGenSpec, cap: int = DEFAULT_ENUM_CAP
) -> reconstruction.ReadSet:
    """Distinct reads from the ball around x, per the spec's mode; a ball of
    more than ``cap`` vectors raises EnumerationCapExceeded."""
    ball, shift = _ball_and_shift(x, p, cap)
    size = len(ball)
    if spec.count > size:
        raise ValueError(
            f"cannot draw {spec.count} distinct reads from a ball of size {size}"
        )
    if spec.mode == "random_distinct":
        idx = rng_for(spec.seed).choice(size, size=spec.count, replace=False)
    else:  # adversarial_heavy
        idx = _adversarial_order(ball)[: spec.count]
    idx.sort()
    return reconstruction.ReadSet(ball[idx] + shift, p)


def exhaustive_read_sets(
    x: Vec, p: ChannelParams, count: int, cap: int = DEFAULT_SUBSET_CAP
) -> Iterator[reconstruction.ReadSet]:
    """All C(|ball|, count) read sets, in lexicographic subset order; ``cap``
    bounds both the subset count and the ball."""
    if count < 1:
        raise ValueError("read set must be nonempty")
    total = math.comb(ball_size(p), count)
    if total > cap:
        raise ValueError(
            f"{total} subsets exceed the cap {cap}; use sampled_read_sets"
        )
    ball, shift = _ball_and_shift(x, p, cap)
    shifted = ball + shift
    subsets = chain.from_iterable(combinations(range(len(shifted)), count))
    while True:
        # index a block of subsets at once; each read set is a view into it
        idx = np.fromiter(islice(subsets, _SUBSET_BLOCK * count), dtype=np.intp)
        if not idx.size:
            return
        for matrix in shifted[idx.reshape(-1, count)]:
            yield reconstruction.ReadSet(matrix, p)


def sampled_read_sets(
    x: Vec, p: ChannelParams, count: int, samples: int, seed: int
) -> Iterator[reconstruction.ReadSet]:
    """Deterministic seeded sub-sample of N-subsets (with-replacement over
    subsets; duplicates are vanishingly rare when C(|ball|, N) is large)."""
    ball, shift = _ball_and_shift(x, p)
    shifted = ball + shift
    rng = rng_for(seed)
    for _ in range(samples):
        idx = rng.choice(len(shifted), size=count, replace=False)
        idx.sort()
        yield reconstruction.ReadSet(shifted[idx], p)


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

    @classmethod
    def from_line(cls, line: str) -> "TrialRecord":
        obj = json.loads(line)
        q = obj["params"]
        return cls(
            rng=obj["rng"],
            seed=obj["seed"],
            params=ChannelParams(q["n"], q["t"], q["kp"], q["km"]),
            algorithm=obj["algorithm"],
            N=obj["N"],
            success=obj["success"],
            list_size=obj["list_size"],
            elapsed_ns=obj["elapsed_ns"],
        )


def read_sets(
    x: Vec, p: ChannelParams, N: int, reads: str, trials: int = 1, seed: int = 0,
    cap: int = DEFAULT_SUBSET_CAP,
) -> Iterator[reconstruction.ReadSet]:
    """N-read sets around x: ``trials`` random ones, trial i seeded with
    ``seed + i``; the one adversarial set; or every N-subset of the ball.
    ``cap`` bounds the ball and, for exhaustive reads, the subset count."""
    if reads == "random":
        return (
            generate_reads(x, p, ReadGenSpec("random_distinct", N, seed=seed + i), cap)
            for i in range(trials)
        )
    if reads == "adversarial":
        return iter((generate_reads(x, p, ReadGenSpec("adversarial_heavy", N), cap),))
    if reads == "exhaustive":
        return exhaustive_read_sets(x, p, N, cap=cap)
    raise ValueError(f"reads must be random, adversarial or exhaustive, got {reads!r}")


def decode_read_sets(
    entry: reconstruction.Algorithm, plan: reconstruction.ReadPlan, code: Code,
    delta: int, a: int, sets: Iterable[reconstruction.ReadSet],
) -> Iterator[tuple[Vec, ...]]:
    """The algorithm's output for each read set, in order; a
    ReconstructionError yields the empty output."""
    decode = entry.decoder(plan)
    for Y in sets:
        try:
            outputs = decode(Y, plan, code, delta, a)
        except ReconstructionError:
            outputs = ()
        yield outputs


def run_trial(
    code: Code,
    algorithm: str,
    x: Vec,
    p: ChannelParams,
    spec: ReadGenSpec,
    delta: int,
    a: int = 0,
) -> TrialRecord:
    """Generate reads, run the selected algorithm, compare with x.

    A ReconstructionError counts as an unsuccessful trial (that is the
    comparison outcome); genuine usage errors propagate.
    """
    if algorithm not in reconstruction.ALGORITHMS:
        raise ValueError(f"algorithm must be one of {tuple(reconstruction.ALGORITHMS)}")
    entry = reconstruction.ALGORITHMS[algorithm]
    plan = entry.plan(p, delta, a)
    Y = generate_reads(x, p, spec)
    start = time.monotonic_ns()
    (outputs,) = decode_read_sets(entry, plan, code, delta, a, (Y,))
    elapsed = time.monotonic_ns() - start
    success = entry.succeeded(x, outputs)
    return TrialRecord(
        RNG_NAME, spec.seed, p, algorithm, len(Y), success, len(outputs), elapsed
    )
