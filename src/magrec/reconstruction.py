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

Every formula takes the channel as one ``ChannelParams`` p, then the code
distance delta and, for the list family, the list exponent a:
``reads_required_min(p, delta)``, ``majority_threshold(p, delta)``,
``list_params_min(p, delta, a)``, ``list_params_general(p, delta, a)`` and
``sauer_reads_required(p, delta, a)``.  Each raises ValueError on a channel
of the wrong k- sign for its machine, on delta outside [1, t] and on a
outside [0, f - 1], f = t - delta + 1 being the excess error count.

Read sets are decoded in stacks: an (S, N, n) int64 array of S sets of N
distinct reads, each set's rows in lexicographic order.  ``check_stack``
checks a stack once; the minimum, the plurality vote, the anchors (each
set's first read) and the cover check then run over all S sets at once,
and every algorithm of ``ALGORITHMS`` decodes a whole stack into its
``Decoded`` rows (set, codeword); a set owning no row failed, and x came
back from a set exactly when (set, x) is a row.  Erasure filling builds the
candidates of all sets of a stack as owner-tagged int64 blocks of
``core.rows_per_block`` fills, and each block is decoded by one
``Code.decode_rows`` call, a table lookup for lattice codes.  A ``ReadSet`` is a single (N, n)
matrix, and the per-set procedures above decode it as a stack of one.

The vote compares twice a count minus N, an integer in [-N, N], with the
threshold tau as the int64 test 2c - N > floor(tau), floor(tau) clamped to
[-N - 1, N]: an integer exceeds tau exactly when it exceeds floor(tau).
The thresholds are generally non-integer, and a float comparison could
misclassify boundary cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import and_
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from magrec.core import (
    DEFAULT_ENUM_CAP,
    ERASURE,
    ChannelParams,
    Code,
    EstimateWord,
    ReconstructionError,
    Vec,
    _row_keys,
    charge,
    check_entries,
    rows_per_block,
)
from magrec.combinatorics import ball_matrix, binom, hamming_volume

#: A decoder's result for a stack: ``owner``, a (K,) intp array of set
#: indices, and ``words``, the (K, n) int64 matrix of the distinct codewords
#: found, rows sorted by set and then lexicographically; a unique decoder
#: gives a set at most one row.
Decoded = tuple[np.ndarray, np.ndarray]


def check_stack(stack: np.ndarray, params: ChannelParams) -> np.ndarray:
    """``stack`` itself, after checking that it is an (S, N, n) int64 array of
    nonempty read sets, each of distinct rows in lexicographic order, with
    entries below ``ENTRY_LIMIT`` in magnitude; raises ValueError otherwise.

    Rows are sorted and distinct when the first nonzero entry of each
    difference of consecutive rows is positive.
    """
    if stack.size == 0:
        raise ValueError("read set must be nonempty")
    if stack.dtype != np.int64 or stack.ndim != 3 or stack.shape[2] != params.n:
        raise ValueError(f"reads must form an (N, n={params.n}) int64 matrix")
    check_entries(int(stack.min()), int(stack.max()))
    # consecutive row differences, one per line; no wrap below 2**62
    step = (stack[:, 1:] - stack[:, :-1]).reshape(-1, params.n)
    if not (step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all():
        raise ValueError("reads must be distinct, and a matrix's rows sorted")
    return stack


class ReadSet:
    """Distinct channel outputs assumed to come from one codeword's ball.

    The reads are stored as one read-only (N, n) int64 matrix whose rows are
    in lexicographic order; ``reads`` gives them back as tuples.  The first
    read serves as the anchor wherever a procedure needs one, which keeps
    every algorithm here deterministic.

    ``reads`` is an iterable of vectors, which are sorted, or an int64
    matrix, which must already hold distinct rows in lexicographic order
    (one set of a ``channel`` stack is one) and is taken over, not copied.
    Entries must stay below ``ENTRY_LIMIT`` in magnitude.
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
        check_stack(matrix[None], params)
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

    @property
    def stack(self) -> np.ndarray:
        """The reads as a stack of one."""
        return self.matrix[None]


def _check_delta(p: ChannelParams, delta: int) -> None:
    if not 1 <= delta <= p.t:
        raise ValueError(
            f"need 1 <= delta <= t <= n, got delta={delta}, t={p.t}, n={p.n}"
        )


def _list_excess(p: ChannelParams, delta: int, a: int) -> int:
    """The excess error count f = t - delta + 1 of list decoding, after
    checking 1 <= delta <= t and 0 <= a <= f - 1."""
    _check_delta(p, delta)
    f = p.t - delta + 1
    if not 0 <= a <= f - 1:
        raise ValueError(f"need 0 <= a <= f-1, got a={a}, f={f}")
    return f


def _require_k_minus_zero(p: ChannelParams) -> None:
    if p.k_minus != 0:
        raise ValueError("componentwise-minimum reconstruction needs k_minus = 0")


def _require_k_minus_positive(p: ChannelParams, machine: str) -> None:
    if p.k_minus < 1:
        raise ValueError(f"{machine} reconstruction needs k_minus >= 1")


def reads_required_min(p: ChannelParams, delta: int) -> int:
    """Reads guaranteeing the componentwise-minimum reconstruction (k- = 0)
    recovers the codeword: (k+)^delta * V_{k+ + 1}(n - delta, t - delta) + 1."""
    _require_k_minus_zero(p)
    _check_delta(p, delta)
    return p.k_plus**delta * hamming_volume(p.k_plus + 1, p.n - delta, p.t - delta) + 1


def _rows(decoded: Decoded, failure: str = "") -> tuple[Vec, ...]:
    """The codewords of a decoded stack of one, as tuples; a nonempty
    ``failure`` is raised as a ReconstructionError when there are none."""
    words = tuple(map(tuple, decoded[1].tolist()))
    if failure and not words:
        raise ReconstructionError(failure)
    return words


def _decode_each(words: np.ndarray, code: Code, delta: int, p: ChannelParams, cap: int) -> Decoded:
    """Row i of ``words`` decoded within radius delta - 1, as the row
    (i, codeword) when it decodes."""
    C, found = code.decode_rows(words, delta - 1, p, cap)
    return found.nonzero()[0], C[found]


def _decode_min(stack, p: ChannelParams, tau, code: Code, delta: int, a: int, cap: int):
    """Per set: the componentwise minimum decoded within radius delta - 1."""
    _require_k_minus_zero(p)
    return _decode_each(stack.min(axis=1), code, delta, p, cap)


def reconstruct_min(Y: ReadSet, code: Code, delta: int, cap: int = DEFAULT_ENUM_CAP) -> Vec:
    """Componentwise minimum followed by a radius-(delta - 1) unique decode.

    Requires a k- = 0 channel.  With at least ``reads_required_min`` distinct
    reads from one codeword ball the result is exactly the transmitted
    codeword; on fewer or inconsistent reads the decode fails and a
    ReconstructionError reports the violated precondition.
    """
    return _rows(
        _decode_min(Y.stack, Y.params, None, code, delta, 0, cap),
        "decode failed: reads are not from a single codeword ball or too few",
    )[0]


def majority_threshold(p: ChannelParams, delta: int) -> tuple[int, Fraction]:
    """The (N, tau) pair for thresholded majority voting (k- >= 1), tau exact.

    N = (k+ + k-)^(2 delta) * V(n, t - delta) + 1 reads,
    tau = (1 - 2/delta) N + (2 (k+ + k-)^delta / delta) V(n - delta, t - delta),
    and tau < N always.
    """
    _require_k_minus_positive(p, "majority")
    _check_delta(p, delta)
    span = p.magnitude_span
    N = span ** (2 * delta) * hamming_volume(span + 1, p.n, p.t - delta) + 1
    tau = Fraction(delta - 2, delta) * N + Fraction(2 * span**delta, delta) * (
        hamming_volume(span + 1, p.n - delta, p.t - delta)
    )
    return N, tau


def majority_votes(stack: np.ndarray, tau) -> tuple[np.ndarray, np.ndarray]:
    """Per set and coordinate, the most frequent value (ties broken toward
    the smallest) and whether it is kept: twice its count minus N exceeds
    tau.  Both are (S, n) arrays.

    Each column is sorted, so a value's count is the length of its run; the
    first longest run holds the smallest most frequent value.  The work
    does not depend on how far apart a column's values are.
    """
    N = stack.shape[1]
    columns = np.sort(stack.transpose(0, 2, 1), axis=2)
    pos = np.arange(N)
    new_run = np.ones(columns.shape, dtype=bool)
    np.not_equal(columns[..., 1:], columns[..., :-1], out=new_run[..., 1:])
    run_length = pos + 1 - np.maximum.accumulate(np.where(new_run, pos, 0), axis=2)
    end = run_length.argmax(axis=2)[..., None]
    best = np.take_along_axis(columns, end, axis=2)[..., 0]
    counts = np.take_along_axis(run_length, end, axis=2)[..., 0]
    return best, 2 * counts - N > min(max(math.floor(tau), -N - 1), N)


def majority_estimate(Y: ReadSet, tau: Fraction) -> EstimateWord:
    """Per-coordinate plurality vote with margin threshold tau.

    A coordinate keeps its most frequent value (ties broken toward the
    smallest) when twice its count minus N exceeds tau, and is erased
    otherwise.
    """
    best, keep = majority_votes(Y.stack, tau)
    return EstimateWord(tuple(
        v if k else ERASURE for v, k in zip(best[0].tolist(), keep[0].tolist())
    ))


def _candidates(
    words: np.ndarray, erased: np.ndarray, anchors: np.ndarray,
    shifts: np.ndarray, p: ChannelParams, cap: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks (owner, rows) of the rows u - e of every set, in set order:
    u completes the set's word, its erased coordinate i running over
    [anchor[i] - k+, anchor[i] + k-] with the fills in lexicographic order,
    e runs over the rows of ``shifts``, and owner[r] is the set of row r.

    A set with m erasures has (k+ + k- + 1)^m * |shifts| rows; the largest
    such count is charged against ``cap`` before any row is built.  A block
    of B fills (fill j writes the base-q digits of j into the erased
    columns) is charged four int64 matrices of its rows' shape (the rows,
    and the residues, leaders and codewords of their decode) and eight of
    shape (B, n), within ``core.BLOCK_BYTES``.
    """
    q = p.magnitude_span + 1
    misses = erased.sum(axis=1)
    charge(q ** int(misses.max()) * len(shifts), "erasure-fill candidates", cap)
    per_block = rows_per_block(32 * (shifts.size + 2 * p.n))
    counts = q**misses
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if erasures := misses.any():
        # the place value of an erased column: q to the erased columns after it
        place = q ** (misses[:, None] - erased.cumsum(axis=1))
    for start in range(0, total, per_block):
        fill = np.arange(start, min(total, start + per_block))
        owner = np.searchsorted(ends, fill, side="right")
        fills = words[owner]
        if erasures:
            digits = (fill - (ends - counts)[owner])[:, None] // place[owner] % q
            fills = np.where(erased[owner], anchors[owner] - p.k_plus + digits, fills)
        yield owner.repeat(len(shifts)), (fills[:, None, :] - shifts).reshape(-1, p.n)


def _covering(words, stack: np.ndarray, p: ChannelParams) -> np.ndarray:
    """Per set i, whether every read of stack[i] lies in
    words[i] + B(n, t, k+, k-); ``words`` is a matrix or a list of vectors."""
    words = np.asarray(words)
    check_entries(int(words.min()), int(words.max()))
    diff = stack - words[:, None, :]
    inside = ((diff >= -p.k_minus) & (diff <= p.k_plus)).all(axis=(1, 2))
    return inside & ((diff != 0).sum(axis=2) <= p.t).all(axis=1)


def _covers(c: Vec, Y: ReadSet) -> bool:
    """Every read lies in c + B(n, t, k+, k-)."""
    return bool(_covering([c], Y.stack, Y.params)[0])


def _decode_majority(stack, p: ChannelParams, tau, code: Code, delta: int, a: int, cap: int):
    """Per set: majority estimate, erasure filling, unique decode, and the
    first decoded candidate whose ball covers every read of the set.  Each
    block of candidates is decoded at once; then each round checks, in one
    cover test, the next decoded candidate of every set still open, and
    closes the sets it covers."""
    _require_k_minus_positive(p, "majority")
    best, keep = majority_votes(stack, tau)
    zero = np.zeros((1, p.n), dtype=np.int64)
    chosen = np.zeros((len(stack), p.n), dtype=np.int64)
    is_open = np.ones(len(stack), dtype=bool)
    for owner, rows in _candidates(best, ~keep, stack[:, 0], zero, p, cap):
        C, found = code.decode_rows(rows, delta - 1, p, cap)
        found &= is_open[owner]
        owner, C = owner[found], C[found]
        while len(owner):
            first = np.ones(len(owner), dtype=bool)
            np.not_equal(owner[1:], owner[:-1], out=first[1:])
            sets, words = owner[first], C[first]
            covered = _covering(words, stack[sets], p)
            chosen[sets[covered]] = words[covered]
            is_open[sets[covered]] = False
            rest = ~first & is_open[owner]
            owner, C = owner[rest], C[rest]
    closed = (~is_open).nonzero()[0]
    return closed, chosen[closed]


def reconstruct_majority(
    Y: ReadSet, tau: Fraction, code: Code, delta: int, cap: int = DEFAULT_ENUM_CAP
) -> Vec:
    """Majority estimate, erasure filling, unique decode, and a final check
    that the decoded ball covers every read.

    With N and tau from ``majority_threshold`` and reads from one codeword
    ball the unique covering candidate is the transmitted codeword; the
    candidate loop returns the first passing one, which is then unique.
    """
    return _rows(
        _decode_majority(Y.stack, Y.params, tau, code, delta, 0, cap),
        "no candidate covers the reads: reads are not from a single codeword ball",
    )[0]


def list_params_min(p: ChannelParams, delta: int, a: int) -> int:
    """Minimal N with N > (k+)^(delta+a) V_{k+ + 1}(n - delta - a, f - 1 - a),
    for a k- = 0 channel."""
    _require_k_minus_zero(p)
    f = _list_excess(p, delta, a)
    return (
        p.k_plus ** (delta + a)
        * hamming_volume(p.k_plus + 1, p.n - delta - a, f - 1 - a)
        + 1
    )


def _decode_lists(blocks, code: Code, delta: int, p: ChannelParams, cap: int) -> Decoded:
    """The distinct rows (set, codeword) of the rows that ``blocks`` yields
    as (owner, rows), in set order, decoded within radius delta - 1,
    failures dropped.  The rows of a set are kept distinct, and in
    lexicographic order, by a 1-D ``np.unique`` of their ``_row_keys`` until
    a block ends past the set."""
    finished = []
    tagged = np.zeros((0, p.n + 1), dtype=np.int64)
    for owner, rows in blocks:
        C, found = code.decode_rows(rows, delta - 1, p, cap)
        hits = np.column_stack((owner[found], C[found]))
        tagged = np.concatenate((tagged, hits))
        _, first = np.unique(_row_keys(tagged), return_index=True)
        tagged = tagged[first]
        done = np.searchsorted(tagged[:, 0], owner[-1])
        # a copy: a view would keep every block's whole array alive
        finished.append(tagged[:done].copy())
        tagged = tagged[done:]
    tagged = np.concatenate(finished + [tagged])
    return tagged[:, 0].astype(np.intp), tagged[:, 1:]


def _decode_list_min(stack, p: ChannelParams, tau, code: Code, delta: int, a: int, cap: int):
    """Per set: decode every vector of z - B(n, a, k+, 0), z the minimum."""
    _require_k_minus_zero(p)
    shifts = ball_matrix(ChannelParams(p.n, a, p.k_plus, 0), cap)
    z = stack.min(axis=1)
    blocks = _candidates(z, np.zeros(z.shape, dtype=bool), z, shifts, p, cap)
    return _decode_lists(blocks, code, delta, p, cap)


def list_reconstruct_min(
    Y: ReadSet, code: Code, delta: int, a: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[Vec, ...]:
    """List variant of the minimum machine (k- = 0): decode every vector of
    z - B(n, a, k+, 0).  Contains the transmitted codeword whenever
    |Y| >= list_params_min; the list never exceeds V_{k+ + 1}(n, a) entries.

    Decode failures are dropped; the list is returned sorted.
    """
    return _rows(_decode_list_min(Y.stack, Y.params, None, code, delta, a, cap))


def list_params_general(p: ChannelParams, delta: int, a: int) -> tuple[int, Fraction]:
    """(N, tau) for the majority list machine (k- >= 1), exact rationals.

    N = (k+ + k-)^(delta + a + 1) V(n - delta - a, f - 1 - a) + 1 and
    tau = (1 - 2/(delta+a)) N
          + (2/(delta+a)) sum_i C(n-delta-a, i) (k+ + k-)^(i + delta + a).
    """
    _require_k_minus_positive(p, "majority list")
    f = _list_excess(p, delta, a)
    span = p.magnitude_span
    s = delta + a
    N = span ** (s + 1) * hamming_volume(span + 1, p.n - s, f - 1 - a) + 1
    tail = sum(binom(p.n - s, i) * span ** (i + s) for i in range(p.t - s + 1))
    tau = Fraction(s - 2, s) * N + Fraction(2, s) * tail
    return N, tau


def _decode_list_majority(
    stack, p: ChannelParams, tau, code: Code, delta: int, a: int, cap: int
):
    """Per set: majority estimate, erasure filling, then decode every vector
    of candidate - B(n, a, k+, k-)."""
    _require_k_minus_positive(p, "majority list")
    best, keep = majority_votes(stack, tau)
    shifts = ball_matrix(ChannelParams(p.n, a, p.k_plus, p.k_minus), cap)
    blocks = _candidates(best, ~keep, stack[:, 0], shifts, p, cap)
    return _decode_lists(blocks, code, delta, p, cap)


def list_reconstruct_majority(
    Y: ReadSet, tau: Fraction, code: Code, delta: int, a: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[Vec, ...]:
    """Majority estimate, erasure filling, then decode every vector of
    candidate - B(n, a, k+, k-) and collect the survivors.

    With (N, tau) from ``list_params_general`` the transmitted codeword is in
    the list, and the list size is at most
    (k+ + k- + 1)^(2 t (delta + a)) * V(n, a).
    """
    return _rows(_decode_list_majority(Y.stack, Y.params, tau, code, delta, a, cap))


def sauer_shelah_find(S, q: int, c: int, cap: int = DEFAULT_ENUM_CAP) -> tuple[int, ...]:
    """A size-c coordinate set U such that every pattern over U is avoided
    coordinatewise by some member of S.

    Search over all coordinate subsets (lexicographic order, first witness
    wins) and all q^c patterns, with one Python-int bitset per (coordinate,
    value) of the members avoiding it: a pattern is avoided when the AND of
    its c bitsets is nonzero.  Such a U exists whenever |S| > V_q(n, c - 1);
    absence therefore signals a violated precondition.  The worst-case scan,
    C(n, c) q^c |S| member tests, is charged against ``cap`` first.
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
    charge(binom(n, c) * q**c * len(members), "coordinate-search member tests", cap)
    # avoid[i][x] has bit b set when member b has no x at coordinate i
    avoid = [[int.from_bytes(np.packbits(col != x, bitorder="little").tobytes(), "little")
              for x in range(q)] for col in np.array(members, dtype=np.int64).T]
    for U in combinations(range(n), c):
        if all(reduce(and_, bitsets) for bitsets in product(*(avoid[i] for i in U))):
            return U
    raise ReconstructionError(
        "no witness coordinate set: |S| is too small for the requested size"
    )


def sauer_reads_required(p: ChannelParams, delta: int, a: int) -> int:
    """Minimal N with N > V_{k+ + k- + 1}(n, f - 1 - a)."""
    f = _list_excess(p, delta, a)
    return hamming_volume(p.magnitude_span + 1, p.n, f - 1 - a) + 1


def _sauer_list(M: np.ndarray, p: ChannelParams, delta: int, a: int, cap: int) -> np.ndarray:
    """The candidates of the Sauer list of one read set, given as its (N, n)
    matrix; raises ReconstructionError when the coordinate search finds no
    witness."""
    f = _list_excess(p, delta, a)
    lows = np.minimum(M.min(axis=0), M.max(axis=0) - p.k_plus)
    U = sauer_shelah_find((M - lows).tolist(), p.magnitude_span + 1, f - a, cap)
    return _sauer_candidates(M, p, U, f, cap)


def _decode_sauer(stack, p: ChannelParams, tau, code: Code, delta: int, a: int, cap: int):
    """Per set: the Sauer list, empty where the coordinate search fails.
    The search is combinatorial per set, so each set's candidates are built
    alone, as one block of one ``_decode_lists`` pass over the stack."""

    def blocks():
        for s, M in enumerate(stack):
            try:
                rows = _sauer_list(M, p, delta, a, cap)
            except ReconstructionError:
                continue
            yield np.full(len(rows), s, dtype=np.intp), rows

    return _decode_lists(blocks(), code, delta, p, cap)


def list_reconstruct_sauer(
    Y: ReadSet, code: Code, delta: int, a: int, cap: int = DEFAULT_ENUM_CAP
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
    rows = _sauer_list(Y.matrix, Y.params, delta, a, cap)
    owner = np.zeros(len(rows), dtype=np.intp)
    return _rows(_decode_lists([(owner, rows)], code, delta, Y.params, cap))


def _sauer_candidates(
    M: np.ndarray, p: ChannelParams, U: tuple[int, ...], f: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> np.ndarray:
    """The distinct candidates rep - e as the rows of a matrix, sorted: rep
    is the first read (row of M) of each pattern on U, and e in
    B(n, f, k+, k-) is nonzero on every coordinate of U.  Patterns and
    candidates are told apart by a 1-D ``np.unique`` of their
    ``_row_keys``."""
    cols = list(U)
    shifts = ball_matrix(ChannelParams(p.n, f, p.k_plus, p.k_minus), cap)
    shifts = shifts[(shifts[:, cols] != 0).all(axis=1)]
    _, first = np.unique(_row_keys(M[:, cols]), return_index=True)
    candidates = (M[first, None, :] - shifts).reshape(-1, p.n)
    _, first = np.unique(_row_keys(candidates), return_index=True)
    return candidates[first]


def majority_list_size_bound(p: ChannelParams, delta: int, a: int) -> int:
    """(k+ + k- + 1)^(2 t (delta + a)) * V(n, a)."""
    q = p.magnitude_span + 1
    return q ** (2 * p.t * (delta + a)) * hamming_volume(q, p.n, a)


def sauer_list_size_bound(p: ChannelParams, delta: int, a: int) -> int:
    """(k+ + k- + 1)^(2(f - a)) * V(n - f + a, a)."""
    f = _list_excess(p, delta, a)
    q = p.magnitude_span + 1
    return q ** (2 * (f - a)) * hamming_volume(q, p.n - f + a, a)


def adversarial_code_size_bound(n: int, e: int, a: int) -> Fraction:
    """n^a / ((e + a)^a * sum_{i<=e} C(e+a, i)), the guaranteed size of the
    adversarial code."""
    denom = (e + a) ** a * sum(binom(e + a, i) for i in range(e + 1))
    return Fraction(n**a, denom)


def adversarial_instance(p: ChannelParams, e: int, a: int) -> tuple[ReadSet, tuple[Vec, ...]]:
    """A read set contained in every ball of a nontrivially large code.

    The reads are all of S = {v in [-k-, k+-1]^n : wt(v) <= f - a}, the
    ball B(n, f - a, k+ - 1, k-), with f = t - e (the lexicographically
    smallest members first, and |S| = V_{k+ + k-}(n, f - a) is the largest
    read count the lower bound speaks about).  The code is built greedily
    over {-1, 0}^n in lexicographic support order: constant weight e + a,
    minimum Hamming distance 2e + 2, so it corrects e errors, and its size
    meets ``adversarial_code_size_bound``.
    """
    n = p.n
    if (p.k_plus, p.k_minus) == (1, 0):
        raise ValueError("the (1, 0) channel admits no such instance")
    f = p.t - e
    if not 0 <= a <= f:
        raise ValueError(f"need 0 <= a <= f = t - e, got a={a}, f={f}")
    if n < 2 * e + a:
        raise ValueError(f"need n >= 2e + a = {2 * e + a}, got {n}")
    if e < 0 or e + a > n:
        raise ValueError("weight e + a must fit in n")

    # B(n, f - a, k+ - 1, k-): the rows of the channel's ball with no entry k+
    ball = ball_matrix(ChannelParams(n, f - a, p.k_plus, p.k_minus))
    reads = ball[(ball < p.k_plus).all(axis=1)]
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
    return ReadSet(reads, p), tuple(code)


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
    a channel the algorithm cannot handle, and ``decoder(plan)(stack, p,
    plan.tau, code, delta, a, cap)`` decodes a checked stack into its
    ``Decoded`` rows, at most ``list_size_bound(p, delta, a)`` per read set
    and none where the set could not be decoded.  ``cap`` bounds every ball
    and erasure-fill enumeration.  ``minimum_only`` marks a ``decode`` that
    reads only each set's componentwise minimum.
    """

    plan: Callable[[ChannelParams, int, int], ReadPlan]
    decode: Callable[..., Decoded]
    list_size_bound: Callable[[ChannelParams, int, int], int]
    minimum_only: bool = False

    def decoder(self, plan: ReadPlan):
        """``decode``, or under the one-read plan a radius-(delta - 1)
        decode of each set's anchor read."""
        return _decode_one_read if plan.anchor == ONE_READ.anchor else self.decode

    def reads_minimum(self, plan: ReadPlan) -> bool:
        """Whether ``decoder(plan)`` reads only each set's componentwise
        minimum, so decoding that minimum as a one-read set gives the set's
        rows; never under the one-read plan, whose anchor is no minimum."""
        return self.minimum_only and plan.anchor != ONE_READ.anchor


def _plan_min(p: ChannelParams, delta: int, a: int) -> ReadPlan:
    return ONE_READ if delta > p.t else ReadPlan(reads_required_min(p, delta), None, "reads-min")


def _plan_majority(p: ChannelParams, delta: int, a: int) -> ReadPlan:
    return ONE_READ if delta > p.t else ReadPlan(*majority_threshold(p, delta), "majority-reads")


def _plan_list_min(p: ChannelParams, delta: int, a: int) -> ReadPlan:
    return ReadPlan(list_params_min(p, delta, a), None, "list-reads-min")


def _plan_list_majority(p: ChannelParams, delta: int, a: int) -> ReadPlan:
    return ReadPlan(*list_params_general(p, delta, a), "list-reads-majority")


def _plan_sauer(p: ChannelParams, delta: int, a: int) -> ReadPlan:
    return ReadPlan(sauer_reads_required(p, delta, a), None, "sauer-reads")


def _decode_one_read(stack, p: ChannelParams, tau, code: Code, delta: int, a: int, cap: int):
    return _decode_each(stack[:, 0], code, delta, p, cap)


def _one(p: ChannelParams, delta: int, a: int) -> int:
    return 1


def _list_min_size_bound(p: ChannelParams, delta: int, a: int) -> int:
    return hamming_volume(p.k_plus + 1, p.n, a)


#: Algorithm name -> read plan, decoder, list-size bound and whether the
#: decoder reads only each set's minimum.
ALGORITHMS: dict[str, Algorithm] = {
    "min": Algorithm(_plan_min, _decode_min, _one, minimum_only=True),
    "majority": Algorithm(_plan_majority, _decode_majority, _one),
    "list-min": Algorithm(
        _plan_list_min, _decode_list_min, _list_min_size_bound, minimum_only=True
    ),
    "list-majority": Algorithm(
        _plan_list_majority, _decode_list_majority, majority_list_size_bound
    ),
    "list-sauer": Algorithm(_plan_sauer, _decode_sauer, sauer_list_size_bound),
}
