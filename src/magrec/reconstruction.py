"""Reconstruction and list reconstruction from multiple channel reads.

Four procedures, each paired with the read count (and, for the majority
family, the exact rational vote threshold) that guarantees it:

* ``reconstruct_min``        -- componentwise minimum, k- = 0 channels;
* ``reconstruct_majority``   -- thresholded majority vote plus erasure
                                filling, k- >= 1;
* ``list_reconstruct_min`` / ``list_reconstruct_majority`` -- the same two
  machines run below the unique-reconstruction read count, returning a
  candidate list guaranteed to contain the transmitted codeword;
* ``list_reconstruct_sauer`` -- a shattering-based list decoder that needs
  far fewer reads at the cost of a combinatorial coordinate search.

The read set is an int64 matrix, so the minimum, the vote and the cover
check are column operations.  Vote margins are Python ints compared
against the threshold in exact rational arithmetic; the thresholds are
generally non-integer and a float comparison could misclassify boundary
cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import lt
from typing import Callable, NamedTuple, Optional

import numpy as np

from magrec.core import (
    ERASURE,
    ChannelParams,
    Code,
    EstimateWord,
    ReconstructionError,
    Vec,
    check_entries,
)
from magrec.combinatorics import ball_vectors, binom, hamming_volume


class ReadSet:
    """Distinct channel outputs assumed to come from one codeword's ball.

    The reads are stored as one read-only (N, n) int64 matrix whose rows are
    in lexicographic order; ``reads`` gives them back as tuples.  The first
    read serves as the anchor wherever a procedure needs one, which keeps
    every algorithm here deterministic.

    ``reads`` is an iterable of vectors, which are sorted, or an int64
    matrix, which must already hold distinct rows in lexicographic order
    (the read-set generators in ``channel`` build it that way) and is taken
    over, not copied.  Entries must stay below ``ENTRY_LIMIT`` in magnitude.
    """

    __slots__ = ("matrix", "params")

    def __init__(self, reads, params: ChannelParams) -> None:
        if isinstance(reads, np.ndarray):
            matrix = reads
        else:
            try:
                matrix = np.array(sorted(tuple(r) for r in reads), dtype=np.int64)
            except OverflowError:
                raise ValueError("read entries exceed the int64 range") from None
            except ValueError:
                raise ValueError("every read must have length n") from None
        if matrix.size == 0:
            raise ValueError("read set must be nonempty")
        if matrix.dtype != np.int64 or matrix.ndim != 2 or matrix.shape[1] != params.n:
            raise ValueError(f"reads must form an (N, n={params.n}) int64 matrix")
        rows = matrix.tolist()
        if not all(map(lt, rows, rows[1:])):
            raise ValueError("reads must be distinct, and a matrix's rows sorted")
        check_entries(int(matrix.min()), int(matrix.max()))
        matrix.flags.writeable = False
        self.matrix = matrix
        self.params = params

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def reads(self) -> tuple[Vec, ...]:
        return tuple(map(tuple, self.matrix.tolist()))

    @property
    def anchor(self) -> Vec:
        return tuple(self.matrix[0].tolist())


@dataclass(frozen=True)
class ListParams:
    """List-decoding knobs: code distance delta, list exponent a, and the
    excess error count f = t - delta + 1."""

    delta: int
    a: int
    f: int

    def __post_init__(self) -> None:
        if self.delta < 1 or self.f < 1:
            raise ValueError(f"need delta >= 1 and f >= 1, got {self}")
        if not 0 <= self.a <= self.f - 1:
            raise ValueError(f"need 0 <= a <= f-1, got a={self.a}, f={self.f}")

    @classmethod
    def for_channel(cls, t: int, delta: int, a: int) -> "ListParams":
        if not 1 <= delta <= t:
            raise ValueError(f"need 1 <= delta <= t, got delta={delta}, t={t}")
        return cls(delta, a, t - delta + 1)


def reads_required_min(n: int, t: int, k_plus: int, delta: int) -> int:
    """Reads guaranteeing the componentwise-minimum reconstruction (k- = 0)
    recovers the codeword: (k+)^delta * V_{k+ + 1}(n - delta, t - delta) + 1."""
    if not 1 <= delta <= t <= n:
        raise ValueError(f"need 1 <= delta <= t <= n, got delta={delta}, t={t}, n={n}")
    return k_plus**delta * hamming_volume(k_plus + 1, n - delta, t - delta) + 1


def _require_k_minus_zero(p: ChannelParams) -> None:
    if p.k_minus != 0:
        raise ValueError("componentwise-minimum reconstruction needs k_minus = 0")


def componentwise_min(Y: ReadSet) -> Vec:
    return tuple(Y.matrix.min(axis=0).tolist())


def reconstruct_min(Y: ReadSet, code: Code, delta: int) -> Vec:
    """Componentwise minimum followed by a radius-(delta - 1) unique decode.

    Requires a k- = 0 channel.  With at least ``reads_required_min`` distinct
    reads from one codeword ball the result is exactly the transmitted
    codeword; on fewer or inconsistent reads the decode fails and a
    ReconstructionError reports the violated precondition.
    """
    p = Y.params
    _require_k_minus_zero(p)
    z = componentwise_min(Y)
    result = code.decode_within(z, delta - 1, p)
    if result is None:
        raise ReconstructionError(
            "decode failed: reads are not from a single codeword ball or too few"
        )
    return result


def majority_reads_required(n: int, t: int, k_plus: int, k_minus: int, delta: int) -> int:
    """(k+ + k-)^(2 delta) * V(n, t - delta) + 1 reads for the majority machine."""
    if not 1 <= delta <= t <= n:
        raise ValueError(f"need 1 <= delta <= t <= n, got delta={delta}, t={t}, n={n}")
    span = k_plus + k_minus
    return span ** (2 * delta) * hamming_volume(span + 1, n, t - delta) + 1


def majority_threshold(
    n: int, t: int, k_plus: int, k_minus: int, delta: int
) -> tuple[int, Fraction]:
    """The (N, tau) pair for thresholded majority voting, tau exact.

    tau = (1 - 2/delta) N + (2 (k+ + k-)^delta / delta) V(n - delta, t - delta),
    and tau < N always.
    """
    if k_minus < 1:
        raise ValueError("majority reconstruction needs k_minus >= 1")
    N = majority_reads_required(n, t, k_plus, k_minus, delta)
    span = k_plus + k_minus
    tau = Fraction(delta - 2, delta) * N + Fraction(2 * span**delta, delta) * (
        hamming_volume(span + 1, n - delta, t - delta)
    )
    return N, tau


def majority_estimate(Y: ReadSet, tau: Fraction) -> EstimateWord:
    """Per-coordinate plurality vote with margin threshold tau.

    A coordinate keeps its most frequent value (ties broken toward the
    smallest) when twice its count minus N exceeds tau, and is erased
    otherwise.

    Each column is sorted, so a value's count is the length of its run; the
    first longest run holds the smallest most frequent value.  The work
    does not depend on how far apart a column's values are.
    """
    N = len(Y)
    columns = np.sort(Y.matrix.T, axis=1)
    pos = np.arange(N)
    new_run = np.ones(columns.shape, dtype=bool)
    np.not_equal(columns[:, 1:], columns[:, :-1], out=new_run[:, 1:])
    run_length = pos + 1 - np.maximum.accumulate(np.where(new_run, pos, 0), axis=1)
    end = run_length.argmax(axis=1)
    rows = np.arange(len(columns))
    best = columns[rows, end].tolist()
    counts = run_length[rows, end].tolist()
    return EstimateWord(tuple(
        v if 2 * c - N > tau else ERASURE for v, c in zip(best, counts)
    ))


def _erasure_candidates(Y: ReadSet, estimate: EstimateWord):
    """Vectors completing the estimate: erased coordinate i ranges over
    [anchor[i] - k+, anchor[i] + k-], filled in lexicographic order."""
    p = Y.params
    anchor = Y.anchor
    erased = estimate.erasure_positions()
    base = list(estimate.entries)
    ranges = [range(anchor[i] - p.k_plus, anchor[i] + p.k_minus + 1) for i in erased]
    for fill in product(*ranges):
        u = base[:]
        for pos, val in zip(erased, fill):
            u[pos] = val
        yield tuple(u)


def _covers(c: Vec, Y: ReadSet) -> bool:
    """Every read lies in c + B(n, t, k+, k-)."""
    p = Y.params
    check_entries(min(c), max(c))
    diff = Y.matrix - np.array(c, dtype=np.int64)
    if diff.min() < -p.k_minus or diff.max() > p.k_plus:
        return False
    return bool(((diff != 0).sum(axis=1) <= p.t).all())


def reconstruct_majority(Y: ReadSet, tau: Fraction, code: Code, delta: int) -> Vec:
    """Majority estimate, erasure filling, unique decode, and a final check
    that the decoded ball covers every read.

    With N and tau from ``majority_threshold`` and reads from one codeword
    ball the unique covering candidate is the transmitted codeword; the
    candidate loop returns the first passing one, which is then unique.
    """
    p = Y.params
    if p.k_minus < 1:
        raise ValueError("majority reconstruction needs k_minus >= 1")
    estimate = majority_estimate(Y, tau)
    for u in _erasure_candidates(Y, estimate):
        c = code.decode_within(u, delta - 1, p)
        if c is not None and _covers(c, Y):
            return c
    raise ReconstructionError(
        "no candidate covers the reads: reads are not from a single codeword ball"
    )


def list_params_min(n: int, t: int, k_plus: int, delta: int, a: int) -> int:
    """Minimal N with N > (k+)^(delta+a) V_{k+ + 1}(n - delta - a, f - 1 - a)."""
    lp = ListParams.for_channel(t, delta, a)
    return (
        k_plus ** (delta + a)
        * hamming_volume(k_plus + 1, n - delta - a, lp.f - 1 - a)
        + 1
    )


def list_reconstruct_min(Y: ReadSet, code: Code, delta: int, a: int) -> tuple[Vec, ...]:
    """List variant of the minimum machine (k- = 0): decode every vector of
    z - B(n, a, k+, 0).  Contains the transmitted codeword whenever
    |Y| >= list_params_min; the list never exceeds V_{k+ + 1}(n, a) entries.

    Decode failures are dropped; the list is returned sorted.
    """
    p = Y.params
    _require_k_minus_zero(p)
    z = componentwise_min(Y)
    out = set()
    for e in ball_vectors(p.n, a, p.k_plus, 0):
        u = tuple(zi - ei for zi, ei in zip(z, e))
        c = code.decode_within(u, delta - 1, p)
        if c is not None:
            out.add(c)
    return tuple(sorted(out))


def list_params_general(
    n: int, t: int, k_plus: int, k_minus: int, delta: int, a: int
) -> tuple[int, Fraction]:
    """(N, tau) for the majority list machine, exact rationals.

    N = (k+ + k-)^(delta + a + 1) V(n - delta - a, f - 1 - a) + 1 and
    tau = (1 - 2/(delta+a)) N
          + (2/(delta+a)) sum_i C(n-delta-a, i) (k+ + k-)^(i + delta + a).
    """
    if k_minus < 1:
        raise ValueError("majority list reconstruction needs k_minus >= 1")
    lp = ListParams.for_channel(t, delta, a)
    span = k_plus + k_minus
    N = span ** (delta + a + 1) * hamming_volume(
        span + 1, n - delta - a, lp.f - 1 - a
    ) + 1
    s = delta + a
    tail = sum(
        binom(n - s, i) * span ** (i + s) for i in range(t - s + 1)
    )
    tau = Fraction(s - 2, s) * N + Fraction(2, s) * tail
    return N, tau


def list_reconstruct_majority(
    Y: ReadSet, tau: Fraction, code: Code, delta: int, a: int
) -> tuple[Vec, ...]:
    """Majority estimate, erasure filling, then decode every vector of
    candidate - B(n, a, k+, k-) and collect the survivors.

    With (N, tau) from ``list_params_general`` the transmitted codeword is in
    the list, and the list size is at most
    (k+ + k- + 1)^(2 t (delta + a)) * V(n, a).
    """
    p = Y.params
    if p.k_minus < 1:
        raise ValueError("majority list reconstruction needs k_minus >= 1")
    estimate = majority_estimate(Y, tau)
    shifts = ball_vectors(p.n, a, p.k_plus, p.k_minus)
    out = set()
    for u in _erasure_candidates(Y, estimate):
        for e in shifts:
            v = tuple(ui - ei for ui, ei in zip(u, e))
            c = code.decode_within(v, delta - 1, p)
            if c is not None:
                out.add(c)
    return tuple(sorted(out))


def sauer_shelah_find(S, q: int, c: int) -> tuple[int, ...]:
    """A size-c coordinate set U such that every pattern over U is avoided
    coordinatewise by some member of S.

    Brute force over all coordinate subsets (lexicographic order, first
    witness wins) and all q^c patterns.  Such a U exists whenever
    |S| > V_q(n, c - 1); absence therefore signals a violated precondition.
    """
    members = sorted(set(tuple(v) for v in S))
    if not members:
        raise ValueError("S must be nonempty")
    n = len(members[0])
    if any(len(v) != n for v in members):
        raise ValueError("vectors in S must share one length")
    if any(not 0 <= x < q for v in members for x in v):
        raise ValueError(f"entries must lie in [0, {q - 1}]")
    if c == 0:
        return ()
    if c > n:
        raise ReconstructionError(f"no coordinate set of size {c} in length {n}")
    for U in combinations(range(n), c):
        ok = True
        for pattern in product(range(q), repeat=c):
            if not any(
                all(v[i] != pattern[j] for j, i in enumerate(U)) for v in members
            ):
                ok = False
                break
        if ok:
            return U
    raise ReconstructionError(
        "no witness coordinate set: |S| is too small for the requested size"
    )


def sauer_reads_required(n: int, t: int, k_plus: int, k_minus: int, delta: int, a: int) -> int:
    """Minimal N with N > V_{k+ + k- + 1}(n, f - 1 - a)."""
    lp = ListParams.for_channel(t, delta, a)
    return hamming_volume(k_plus + k_minus + 1, n, lp.f - 1 - a) + 1


def list_reconstruct_sauer(
    Y: ReadSet, code: Code, delta: int, a: int
) -> tuple[Vec, ...]:
    """Shattering-based list decoder.

    Per coordinate the reads pin an interval K_i of at most k+ + k- + 1
    values containing both the codeword and every read.  Shifting into
    [0, q-1]^n and finding a size-(f - a) coordinate set U via
    ``sauer_shelah_find`` guarantees some read representative differs from
    the codeword on all of U; stripping up to f errors that include all of U
    from each representative yields a candidate set whose decodes contain
    the transmitted codeword.  Needs |Y| > V(n, f - 1 - a); the list size is
    at most (k+ + k- + 1)^(2(f - a)) * V(n - f + a, a).
    """
    p = Y.params
    lp = ListParams.for_channel(p.t, delta, a)
    M = Y.matrix
    lows = np.minimum(M.min(axis=0), M.max(axis=0) - p.k_plus)
    U = sauer_shelah_find((M - lows).tolist(), p.magnitude_span + 1, lp.f - a)
    out = set()
    for z in _sauer_candidates(Y, U, lp.f):
        c = code.decode_within(z, delta - 1, p)
        if c is not None:
            out.add(c)
    return tuple(sorted(out))


def _sauer_candidates(Y: ReadSet, U: tuple[int, ...], f: int) -> list[Vec]:
    """Sorted candidates rep - e: rep is the first read of each pattern on
    U, and e in B(n, f, k+, k-) is nonzero on every coordinate of U."""
    p = Y.params
    shifts = [
        e for e in ball_vectors(p.n, f, p.k_plus, p.k_minus) if all(e[i] for i in U)
    ]
    representatives: dict[tuple[int, ...], Vec] = {}
    for r in Y.reads:
        representatives.setdefault(tuple(r[i] for i in U), r)
    return sorted({
        tuple(ri - ei for ri, ei in zip(rep, e))
        for rep in representatives.values()
        for e in shifts
    })


def majority_list_size_bound(p: ChannelParams, delta: int, a: int) -> int:
    """(k+ + k- + 1)^(2 t (delta + a)) * V(n, a)."""
    q = p.magnitude_span + 1
    return q ** (2 * p.t * (delta + a)) * hamming_volume(q, p.n, a)


def sauer_list_size_bound(p: ChannelParams, delta: int, a: int) -> int:
    """(k+ + k- + 1)^(2(f - a)) * V(n - f + a, a)."""
    f = p.t - delta + 1
    q = p.magnitude_span + 1
    return q ** (2 * (f - a)) * hamming_volume(q, p.n - f + a, a)


def adversarial_code_size_bound(n: int, e: int, a: int) -> Fraction:
    """n^a / ((e + a)^a * sum_{i<=e} C(e+a, i)), the guaranteed size of the
    adversarial code."""
    denom = (e + a) ** a * sum(binom(e + a, i) for i in range(e + 1))
    return Fraction(n**a, denom)


def adversarial_instance(
    n: int, t: int, k_plus: int, k_minus: int, e: int, a: int
) -> tuple[ReadSet, tuple[Vec, ...]]:
    """A read set contained in every ball of a nontrivially large code.

    The reads are all of S = {v in [-k-, k+-1]^n : wt(v) <= f - a}, the
    ball B(n, f - a, k+ - 1, k-), with f = t - e (the lexicographically
    smallest members first, and |S| = V_{k+ + k-}(n, f - a) is the largest
    read count the lower bound speaks about).  The code is built greedily
    over {-1, 0}^n in lexicographic support order: constant weight e + a,
    minimum Hamming distance 2e + 2, so it corrects e errors, and its size
    meets ``adversarial_code_size_bound``.
    """
    if (k_plus, k_minus) == (1, 0):
        raise ValueError("the (1, 0) channel admits no such instance")
    f = t - e
    if not 0 <= a <= f:
        raise ValueError(f"need 0 <= a <= f = t - e, got a={a}, f={f}")
    if n < 2 * e + a:
        raise ValueError(f"need n >= 2e + a = {2 * e + a}, got {n}")
    if e < 0 or e + a > n:
        raise ValueError("weight e + a must fit in n")

    reads = ball_vectors(n, f - a, k_plus - 1, k_minus)
    weight = e + a
    max_shared = weight - (e + 1)  # |A & B| <= this keeps Hamming distance >= 2e+2
    code: list[Vec] = []
    supports: list[frozenset[int]] = []
    for sup in combinations(range(n), weight):
        sup_set = frozenset(sup)
        if all(len(sup_set & prev) <= max_shared for prev in supports):
            v = [0] * n
            for i in sup:
                v[i] = -1
            code.append(tuple(v))
            supports.append(sup_set)
    params = ChannelParams(n, t, k_plus, k_minus)
    return ReadSet(reads, params), tuple(code)


class ReadPlan(NamedTuple):
    """Read count N, vote threshold tau (None outside the majority family)
    and the anchor id of the formula behind N."""

    N: int
    tau: Optional[Fraction]
    anchor: str


#: A code distance beyond t means unique decoding of a single read covers
#: every error pattern; the multi-read formulas only apply at delta <= t.
ONE_READ = ReadPlan(1, None, "unique-decode")


@dataclass(frozen=True)
class Algorithm:
    """An entry of ``ALGORITHMS``: ``plan(p, delta, a)`` raises ValueError on
    a channel the algorithm cannot handle, and ``decoder(plan)(Y, plan, code,
    delta, a)`` returns a tuple of at most ``list_size_bound(p, delta, a)``
    codewords or raises ReconstructionError.

    Decoders look the procedures up by module-level name when they run, so
    wrapping a module attribute (as ``perfbench/tracing.py`` does) sees them.
    """

    plan: Callable[[ChannelParams, int, int], ReadPlan]
    decode: Callable[[ReadSet, ReadPlan, Code, int, int], tuple[Vec, ...]]
    is_list: bool
    list_size_bound: Callable[[ChannelParams, int, int], int]

    def decoder(self, plan: ReadPlan):
        """``decode``, or under the one-read plan a radius-(delta - 1)
        decode of the anchor read."""
        return _decode_one_read if plan.anchor == ONE_READ.anchor else self.decode

    def succeeded(self, x: Vec, outputs: tuple[Vec, ...]) -> bool:
        """x is on the list, or for a unique decoder the only output."""
        return x in outputs if self.is_list else outputs == (x,)


def _plan_min(p: ChannelParams, delta: int, a: int) -> ReadPlan:
    if delta > p.t:
        return ONE_READ
    _require_k_minus_zero(p)
    return ReadPlan(reads_required_min(p.n, p.t, p.k_plus, delta), None, "reads-min")


def _plan_majority(p: ChannelParams, delta: int, a: int) -> ReadPlan:
    if delta > p.t:
        return ONE_READ
    N, tau = majority_threshold(p.n, p.t, p.k_plus, p.k_minus, delta)
    return ReadPlan(N, tau, "majority-reads")


def _plan_list_min(p: ChannelParams, delta: int, a: int) -> ReadPlan:
    _require_k_minus_zero(p)
    return ReadPlan(list_params_min(p.n, p.t, p.k_plus, delta, a), None, "list-reads-min")


def _plan_list_majority(p: ChannelParams, delta: int, a: int) -> ReadPlan:
    N, tau = list_params_general(p.n, p.t, p.k_plus, p.k_minus, delta, a)
    return ReadPlan(N, tau, "list-reads-majority")


def _plan_sauer(p: ChannelParams, delta: int, a: int) -> ReadPlan:
    N = sauer_reads_required(p.n, p.t, p.k_plus, p.k_minus, delta, a)
    return ReadPlan(N, None, "sauer-reads")


def _decode_one_read(Y: ReadSet, plan: ReadPlan, code: Code, delta: int, a: int):
    c = code.decode_within(Y.anchor, delta - 1, Y.params)
    return () if c is None else (c,)


def _decode_min(Y: ReadSet, plan: ReadPlan, code: Code, delta: int, a: int):
    return (reconstruct_min(Y, code, delta),)


def _decode_majority(Y: ReadSet, plan: ReadPlan, code: Code, delta: int, a: int):
    return (reconstruct_majority(Y, plan.tau, code, delta),)


def _decode_list_min(Y: ReadSet, plan: ReadPlan, code: Code, delta: int, a: int):
    return list_reconstruct_min(Y, code, delta, a)


def _decode_list_majority(Y: ReadSet, plan: ReadPlan, code: Code, delta: int, a: int):
    return list_reconstruct_majority(Y, plan.tau, code, delta, a)


def _decode_sauer(Y: ReadSet, plan: ReadPlan, code: Code, delta: int, a: int):
    return list_reconstruct_sauer(Y, code, delta, a)


def _one(p: ChannelParams, delta: int, a: int) -> int:
    return 1


def _list_min_size_bound(p: ChannelParams, delta: int, a: int) -> int:
    return hamming_volume(p.k_plus + 1, p.n, a)


#: Algorithm name -> read plan, decoder and list-size bound.
ALGORITHMS: dict[str, Algorithm] = {
    "min": Algorithm(_plan_min, _decode_min, False, _one),
    "majority": Algorithm(_plan_majority, _decode_majority, False, _one),
    "list-min": Algorithm(_plan_list_min, _decode_list_min, True, _list_min_size_bound),
    "list-majority": Algorithm(
        _plan_list_majority, _decode_list_majority, True, majority_list_size_bound
    ),
    "list-sauer": Algorithm(_plan_sauer, _decode_sauer, True, sauer_list_size_bound),
}
