"""Channel simulation: error injection, read-set generation, trial running.

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
from itertools import combinations
from typing import Iterable, Iterator, Optional

import numpy as np

from magrec.core import ChannelParams, Code, ReconstructionError, Vec, vector_add
from magrec.combinatorics import ball_size, enumerate_ball
from magrec import reconstruction

RNG_NAME = "philox"

#: Modes for generate_reads.
MODES = ("random_distinct", "adversarial_heavy")

DEFAULT_SUBSET_CAP = 10**5


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


def _adversarial_order(ball: tuple[Vec, ...]) -> list[Vec]:
    # maximal weight first, then maximal total magnitude, then lexicographic
    return sorted(
        ball,
        key=lambda e: (-sum(1 for v in e if v), -sum(abs(v) for v in e), e),
    )


def generate_reads(
    x: Vec, p: ChannelParams, spec: ReadGenSpec
) -> reconstruction.ReadSet:
    """Distinct reads from the ball around x, per the spec's mode."""
    size = ball_size(p)
    if spec.count > size:
        raise ValueError(
            f"cannot draw {spec.count} distinct reads from a ball of size {size}"
        )
    ball = enumerate_ball(p)
    if spec.mode == "random_distinct":
        rng = rng_for(spec.seed)
        idx = rng.choice(size, size=spec.count, replace=False)
        reads = tuple(vector_add(x, ball[int(i)]) for i in idx)
    else:  # adversarial_heavy
        heavy = _adversarial_order(ball)[: spec.count]
        reads = tuple(vector_add(x, e) for e in heavy)
    return reconstruction.ReadSet(reads, p)


def exhaustive_read_sets(
    x: Vec, p: ChannelParams, count: int, cap: int = DEFAULT_SUBSET_CAP
) -> Iterator[reconstruction.ReadSet]:
    """All C(|ball|, count) read sets, in lexicographic subset order."""
    ball = enumerate_ball(p)
    total = math.comb(len(ball), count)
    if total > cap:
        raise ValueError(
            f"{total} subsets exceed the cap {cap}; use sampled_read_sets"
        )
    shifted = tuple(vector_add(x, e) for e in ball)
    for subset in combinations(shifted, count):
        yield reconstruction.ReadSet(subset, p)


def sampled_read_sets(
    x: Vec, p: ChannelParams, count: int, samples: int, seed: int
) -> Iterator[reconstruction.ReadSet]:
    """Deterministic seeded sub-sample of N-subsets (with-replacement over
    subsets; duplicates are vanishingly rare when C(|ball|, N) is large)."""
    ball = enumerate_ball(p)
    shifted = tuple(vector_add(x, e) for e in ball)
    rng = rng_for(seed)
    for _ in range(samples):
        idx = rng.choice(len(shifted), size=count, replace=False)
        yield reconstruction.ReadSet(tuple(shifted[int(i)] for i in idx), p)


#: Fixed field order of serialized trial records.
RECORD_FIELDS = (
    "rng",
    "seed",
    "params",
    "algorithm",
    "N",
    "success",
    "list_size",
    "elapsed_ns",
)


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
    ``seed + i``; the one adversarial set; or every N-subset of the ball."""
    if reads == "random":
        return (
            generate_reads(x, p, ReadGenSpec("random_distinct", N, seed=seed + i))
            for i in range(trials)
        )
    if reads == "adversarial":
        return iter((generate_reads(x, p, ReadGenSpec("adversarial_heavy", N)),))
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
