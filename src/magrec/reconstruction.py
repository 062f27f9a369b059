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

``read_plan(name, p, delta, a)`` resolves an ``ALGORITHMS`` entry into its
``ReadPlan`` (N, tau, anchor, decoder, list-size bound), and alone applies
the one-read rule: past t each set's first read is decoded.

Read sets are decoded in blocks (``ReadBlock``) of S sets of N distinct
reads, valid by construction: ``ReadBlock(p, stack)`` checks its stack
(``core.check_stack``), and ``ReadBlock.of_ball``, the one trusted
constructor, builds the channel's blocks from a ball whose order was
checked when it was enumerated.  A block drawn as indicator rows over the
shifted ball reads every vote, range and minimum off one count table, the
indicators times the ball's one-hot matrix; any other block holds a
stack, an (S, N, n) int64 array, each set's rows in lexicographic order,
and votes by sorting each column (``_sorted_votes``).  Every decoder runs
over all S sets at once, ``ReadPlan.decode`` giving a block's ``Decoded``
rows (set, codeword): a set owning no row failed, and x came back from a
set exactly when (set, x) is a row.  A block of at least ``_CLASS_MIN``
sets decodes each distinct decoder input once (``_classes``): each
distinct minimum, or each distinct triple of kept values, erased
coordinates and anchor values on them, fanned out to its sets
(``_fan_out``).  The majority decoder and ``list-min`` build candidates
as owner-tagged int64 blocks of ``core.rows_per_block`` rows
(``_candidates``), each decoded by one ``Code.decode_rows`` call, a table
lookup for lattice codes; the majority list decoder decodes the distinct
mixed-radix keys of its fills instead (``_fill_keys``, ``_decode_fills``),
int64 where they fit it and Python ints past 2**63.  The Sauer decoder
searches every set of a block for its witness at once, over bitsets of
uint64 words (``_witnesses``), makes one candidate pass per block part
and concatenates the parts' lists, which share no set.  A block holds
``sets_per_block`` sets.  A ``ReadSet`` is a single (N, n) matrix, and the
per-set procedures above decode it as a block of one.

The vote compares twice a count minus N, an integer in [-N, N], with the
threshold tau as the int64 test 2c - N > floor(tau), floor(tau) clamped to
[-N - 1, N]: an integer exceeds tau exactly when it exceeds floor(tau).
The thresholds are generally non-integer, and a float comparison could
misclassify boundary cases.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
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
    _starts,
    charge,
    check_entries,
    check_stack,
    distinct_rows,
    first_keys,
    group_keys,
    hamming,
    int_rows,
    key_rows,
    radix_places,
    rows_per_block,
)
from magrec.combinatorics import ball_matrix, ball_one_hot, binom, cached, hamming_volume

#: A decoder's result for a stack: ``owner``, a (K,) intp array of set
#: indices, and ``words``, the (K, n) int64 matrix of the distinct codewords
#: found, rows sorted by set and then lexicographically; a unique decoder
#: gives a set at most one row.
Decoded = tuple[np.ndarray, np.ndarray]


def sets_per_block(N: int, n: int, ball_rows: int = 0) -> int:
    """How many sets of N length-n reads a block holds: a set is charged its
    int64 stack or, kept as an indicator over a ball of ``ball_rows`` > 0
    rows, 8 bytes a ball row (its boolean and float32 rows), but at least
    the 64 n bytes of the int64 rows the vote and class steps build a set."""
    return rows_per_block(max(8 * ball_rows, 64 * n) if ball_rows else 8 * N * n)


def _indicated(ind: np.ndarray, N: int) -> np.ndarray:
    """The (S, N) ball rows that the boolean indicator ``ind`` marks, each
    set's in order, by a flat nonzero (a 2-D one is 2 to 3 times slower)."""
    return (np.flatnonzero(ind) % ind.shape[1]).reshape(len(ind), N)


class ReadBlock:
    """S sets of N distinct reads each, as the decoders take them, valid by
    construction: ``ReadBlock(p, stack)`` checks its stack, and
    ``ReadBlock.of_ball`` draws its sets from a checked ball.

    A block drawn as an indicator over a ball with a one-hot matrix holds
    ``ind``, an (S, |B|) float32 0/1 indicator of each set's rows in
    ``ball``, the shifted ball x + B(n, t, k+, k-) in lexicographic order,
    and ``hot``, the ball's one-hot matrix (``combinatorics.ball_one_hot``).
    Its count table ``ind @ hot`` counts, per set, coordinate and error
    value, the set's reads with that value there: its bin j of coordinate i
    stands for the value ``base[i] + j``, base = x - k-.  Votes, ranges and
    minima are read off that one table, exactly (float32 sums of 0/1
    products below 2**24), each set's anchor (its first read) is its first
    indicated row, and the (S, N, n) ``stack`` is gathered only when asked
    for: the channel charges such a block its indicator rows, not its
    stack, so the Sauer decoder and ``channel.read_sets`` gather it a part
    at a time (``parts``).  Any other block holds a stack and reads all of
    these off it."""

    ball = base = ind = hot = None  # a block drawn as an indicator sets them

    def __init__(self, p: ChannelParams, stack: np.ndarray) -> None:
        """A block of ``stack``, an (S, N, n) int64 array of sets of distinct
        reads in lexicographic order (``check_stack``; ValueError otherwise)."""
        self.p, self.N, self._stack = p, check_stack(stack, p).shape[1], stack

    @classmethod
    def of_ball(
        cls, p: ChannelParams, shifted_ball: np.ndarray, x: np.ndarray, N: int, rows: np.ndarray
    ) -> ReadBlock:
        """The block of the sets ``shifted_ball[row]``, for each row of
        ``rows``: an (S, |B|) boolean indicator of N rows each, or (S, N)
        index rows.  ``shifted_ball`` is ``ball_matrix(p) + x``, x an int64
        row, whose order ``ball_matrix`` checked as it enumerated it.

        An indicator over a ball with a one-hot matrix is kept, as float32.
        Otherwise the index rows (an indicator's, in order), sorted in
        place, must strictly increase (ValueError otherwise), and gather the
        block's stack by one ``np.take`` (about twice as fast as fancy
        indexing).  Either way every set holds N distinct reads in the
        ball's order, as ``check_stack`` requires."""
        block = cls.__new__(cls)
        block.p, block.N, block._stack = p, N, None
        if rows.dtype == bool:
            if (hot := ball_one_hot(p)) is not None:
                block.ball, block.base, block.hot = shifted_ball, x - p.k_minus, hot
                block.ind = rows.astype(np.float32)
                return block
            rows = _indicated(rows, N)
        rows.sort(axis=1)
        if not (rows[:, 1:] > rows[:, :-1]).all():
            raise ValueError("reads must be distinct, and a matrix's rows sorted")
        block._stack = np.take(shifted_ball, rows, axis=0)
        block._stack.flags.writeable = False
        return block

    def __len__(self) -> int:
        return len(self._stack if self.ind is None else self.ind)

    def parts(self) -> Iterator[tuple[int, ReadBlock]]:
        """The block cut, in order, into parts of at most
        ``sets_per_block(N, n)`` sets, as pairs (first, part), the part
        holding sets first, first + 1, ...: a part's stack fits the block
        budget, and the block keeps none of them."""
        per = sets_per_block(self.N, self.p.n)
        for first in range(0, len(self), per):
            part = copy.copy(self)
            if self._stack is not None:
                part._stack = self._stack[first:first + per]
            if self.ind is not None:
                part.ind = self.ind[first:first + per]
            yield first, part

    @property
    def stack(self) -> np.ndarray:
        """The (S, N, n) read-only int64 stack of the sets."""
        if self._stack is None:
            stack = np.take(self.ball, _indicated(self.ind != 0, self.N), axis=0)
            stack.flags.writeable = False
            self._stack = stack
        return self._stack

    @property
    def anchors(self) -> np.ndarray:
        """Each set's first read, an (S, n) matrix."""
        if self.ind is None:
            return self._stack[:, 0]
        return self.ball[self.ind.argmax(axis=1)]

    def _table(self) -> np.ndarray:
        return (self.ind @ self.hot).reshape(len(self), self.p.n, -1)

    def votes(self, tau) -> tuple[np.ndarray, ...]:
        """(best, keep, least, largest), four (S, n) arrays: per set and
        coordinate the most frequent value (ties toward the smallest),
        whether twice its count minus N exceeds tau, and the least and
        largest values; off an indicator's count table, else by
        ``_sorted_votes``."""
        if self.ind is None:
            return _sorted_votes(self._stack, tau)
        return _table_votes(self._table(), self.base, self.N, tau)

    @property
    def minimum(self) -> np.ndarray:
        """Each set's componentwise minimum, an (S, n) matrix."""
        if self.ind is None:
            return self._stack.min(axis=1)
        return self.base + (self._table() != 0).argmax(axis=2)


class ReadSet:
    """Distinct channel outputs assumed to come from one codeword's ball.

    The reads are stored as one read-only (N, n) int64 matrix whose rows are
    in lexicographic order; ``reads`` gives them back as tuples.  The first
    read serves as the anchor wherever a procedure needs one, which keeps
    every algorithm here deterministic.

    ``reads`` is an iterable of vectors, sorted after ``core.int_rows``, an
    int64 matrix, which must already hold distinct rows in lexicographic order
    (one set of a ``channel`` stack is one) and is taken over, not copied,
    or a ``ReadBlock`` of one set, valid by construction, which is kept as
    it is.  Entries must stay below ``ENTRY_LIMIT`` in magnitude.
    ``block``, the reads as a ``ReadBlock`` of one set, is built (and so
    checked) once, by the constructor, unless it was given.
    """

    __slots__ = ("matrix", "params", "block")

    def __init__(self, reads, params: ChannelParams) -> None:
        if isinstance(reads, ReadBlock):
            if len(reads) != 1:
                raise ValueError(f"a read set is a block of one set, got {len(reads)}")
            self.block, self.matrix, self.params = reads, reads.stack[0], params
            return
        if isinstance(reads, np.ndarray):
            matrix = reads
        else:
            matrix = int_rows(reads, "reads")
            # an entry past ENTRY_LIMIT gets its message, not check_stack's dtype one
            check_entries(matrix.min(initial=0), matrix.max(initial=0))
            matrix = matrix[_row_keys(matrix).argsort()]
        stack = matrix[None]
        self.block = ReadBlock(params, stack)
        matrix.flags.writeable = stack.flags.writeable = False
        self.matrix, self.params = matrix, params

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def reads(self) -> tuple[Vec, ...]:
        return tuple(map(tuple, self.matrix.tolist()))

    @property
    def anchor(self) -> Vec:
        return tuple(self.matrix[0].tolist())


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


#: A block of fewer sets decodes each set's input as it is: finding the
#: distinct inputs costs a block 20 to 40 us, more than it saves in a few
#: sets (the exhaustive reads of sum-mod:3 at n = 3, t = 1, k+ = k- = 1, in
#: blocks of 21 sets, decoded 10% slower by class).
_CLASS_MIN = 32

#: A drawn block's weight test marks the far ball rows of each (word, set)
#: pair while the pairs span at most this many ball entries, and otherwise
#: marks them once per distinct word, found by a sort.  On a 2-CPU Xeon a
#: block of 3 majority sets (72 to 1314 cells) takes about 44 us a call by
#: pair and 97 us by word, and a block of 24 to 800 sets (278640 cells and
#: more) 7 times as long by pair as by word.
_PAIR_CELLS = 2**14


def _classes(*parts: np.ndarray) -> tuple:
    """``group_keys`` of the ``_row_keys`` of the rows of the matrices
    ``parts`` side by side, or (slice(None), None), each row its own class,
    when the rows are all distinct or fewer than ``_CLASS_MIN``."""
    if len(parts[0]) < _CLASS_MIN:
        return slice(None), None
    first, inverse = group_keys(_row_keys(np.concatenate(parts, axis=1)
                                          if len(parts) > 1 else parts[0]))
    return (slice(None), None) if len(first) == len(inverse) else (first, inverse)


def _spread(classes: np.ndarray, sizes: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, ...]:
    """(row, at) pairing each entry i of ``classes`` with the positions
    starts[c] .. starts[c] + sizes[c] - 1 of its class c = classes[i]: row
    repeats i, in order, and ``at`` runs over those positions."""
    per = sizes[classes]
    row = np.repeat(np.arange(len(classes)), per)
    return row, np.arange(len(row)) + np.repeat(starts[classes] - (np.cumsum(per) - per), per)


def _fan_out(decoded: Decoded, inverse: Optional[np.ndarray]) -> Decoded:
    """The rows of a decode by class, each class's rows given to every set
    of it: set s owns the rows of class inverse[s], in their order (class s
    when ``inverse`` is None)."""
    if inverse is None:
        return decoded
    owner, words = decoded
    sizes = np.bincount(owner, minlength=int(inverse.max()) + 1)
    sets, at = _spread(inverse, sizes, np.cumsum(sizes) - sizes)
    return sets, np.take(words, at, axis=0)


def _decode_each(words: np.ndarray, code: Code, delta: int, p: ChannelParams, cap: int) -> Decoded:
    """Row i of ``words`` decoded within radius delta - 1, as the row
    (i, codeword) when it decodes; each distinct row is decoded once."""
    first, inverse = _classes(words)
    C, found = code.decode_rows(words[first], delta - 1, p, cap)
    return _fan_out((found.nonzero()[0], C[found]), inverse)


def _decode_min(block: ReadBlock, p: ChannelParams, tau, code: Code, delta: int, a: int, cap: int):
    """Per set: the componentwise minimum decoded within radius delta - 1."""
    _require_k_minus_zero(p)
    return _decode_each(block.minimum, code, delta, p, cap)


def reconstruct_min(Y: ReadSet, code: Code, delta: int, cap: int = DEFAULT_ENUM_CAP) -> Vec:
    """Componentwise minimum followed by a radius-(delta - 1) unique decode.

    Requires a k- = 0 channel.  With at least ``reads_required_min`` distinct
    reads from one codeword ball the result is exactly the transmitted
    codeword; on fewer or inconsistent reads the decode fails and a
    ReconstructionError reports the violated precondition.
    """
    return _rows(
        _decode_min(Y.block, Y.params, None, code, delta, 0, cap),
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


def _kept(counts: np.ndarray, N: int, tau) -> np.ndarray:
    """Whether twice each count minus N exceeds tau."""
    return 2 * counts - N > min(max(math.floor(tau), -N - 1), N)


def _table_votes(bins: np.ndarray, base: np.ndarray, N: int, tau) -> tuple[np.ndarray, ...]:
    """(best, keep, least, largest) of an (S, n, w) count table of sets of N
    reads whose bin j of coordinate i counts the value base[..., i] + j: the
    first largest bin holds the smallest most frequent value, and the first
    and last nonzero bins the least and largest values."""
    seen = bins != 0
    best = bins.argmax(axis=2)
    return (
        base + best,
        _kept(np.take_along_axis(bins, best[..., None], axis=2)[..., 0], N, tau),
        base + seen.argmax(axis=2),
        base + (bins.shape[2] - 1 - seen[..., ::-1].argmax(axis=2)),
    )


def _sorted_votes(stack: np.ndarray, tau) -> tuple[np.ndarray, ...]:
    """(best, keep, least, largest) of a stack by sorting each column: a
    value's count is the length of its run, the first longest run holds the
    smallest most frequent value, and the column's ends its least and
    largest values."""
    N = stack.shape[1]
    columns = np.sort(stack.transpose(0, 2, 1), axis=2)
    pos = np.arange(N)
    run_length = pos + 1 - np.maximum.accumulate(np.where(_starts(columns), pos, 0), axis=2)
    end = run_length.argmax(axis=2)[..., None]
    best = np.take_along_axis(columns, end, axis=2)[..., 0]
    counts = np.take_along_axis(run_length, end, axis=2)[..., 0]
    return best, _kept(counts, N, tau), columns[..., 0], columns[..., -1]


def majority_estimate(Y: ReadSet, tau: Fraction) -> EstimateWord:
    """Per-coordinate plurality vote with margin threshold tau.

    A coordinate keeps its most frequent value (ties broken toward the
    smallest) when twice its count minus N exceeds tau, and is erased
    otherwise.
    """
    best, keep = Y.block.votes(tau)[:2]
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
    The majority decoder tests these rows in fill order, and ``list-min``
    decodes its few rows (one input per distinct minimum, no erasure) so
    faster than by key; the majority list decoder takes their keys
    (``_fill_keys``) instead.

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


def _cover_rows(
    words: np.ndarray, owner: np.ndarray, block: ReadBlock,
    least: np.ndarray, largest: np.ndarray, p: ChannelParams,
) -> np.ndarray:
    """Per row i of the int64 matrix ``words``, whether every read of set
    owner[i] of ``block`` lies in words[i] + B(n, t, k+, k-), where least
    and largest are the (S, n) least and largest values of each set per
    coordinate.

    A ball covers a set exactly when the set's values lie in the box
    [c - k-, c + k+] in every coordinate and every read differs from c in
    at most t coordinates.  The box test compares the ranges, an (|words|,
    n) test; only the rows that pass it take the weight test.  A block
    drawn from a ball marks the ball rows that differ from the row's word
    in more than t coordinates, and a row passes when its set's indicator
    meets none of them: per row up to ``_PAIR_CELLS`` cells, and otherwise
    once per distinct word, in chunks of words, with one product of the
    marks and the indicators testing every row.  Any other block gathers
    each row's set of reads, in chunks of ``sets_per_block(N, n)`` rows.
    The differences stay below 2**63 (entries are under 2**62), and NumPy
    compares them with k+ and k- exactly, however large."""
    check_entries(int(words.min()), int(words.max()))
    covered = ((largest[owner] - words <= p.k_plus)
               & (words - least[owner] <= p.k_minus)).all(axis=1)
    rows = covered.nonzero()[0]
    if block.ind is None:
        stack, chunk = block.stack, sets_per_block(block.N, p.n)
        for i in range(0, len(rows), chunk):
            part = rows[i:i + chunk]
            covered[part] = (hamming(stack[owner[part]] != words[part, None]) <= p.t).all(axis=1)
        return covered
    ball = block.ball
    if len(rows) * ball.size <= _PAIR_CELLS:
        far = hamming(ball != words[rows, None, :]) > p.t
        covered[rows] = ~np.logical_and(far, block.ind[owner[rows]]).any(axis=1)
        return covered
    tested = words[rows]
    first, word = group_keys(_row_keys(tested))
    tested = tested[first]
    # (chunk, |B|) marks by the (|B|, S) indicators: a (chunk, S) product
    chunk = rows_per_block(max(ball.size, 4 * (len(ball) + len(block))))
    for i in range(0, len(tested), chunk):
        far = hamming(ball != tested[i:i + chunk, None, :]) > p.t
        met = far.astype(np.float32) @ block.ind.T
        part = (word >= i) & (word < i + chunk)
        covered[rows[part]] = met[word[part] - i, owner[rows[part]]] == 0
    return covered


def _covers(c: Vec, Y: ReadSet) -> bool:
    """Every read lies in c + B(n, t, k+, k-)."""
    M = Y.matrix
    return bool(_cover_rows(np.asarray([c]), np.zeros(1, dtype=np.intp), Y.block,
                            M.min(axis=0, keepdims=True), M.max(axis=0, keepdims=True),
                            Y.params)[0])


def _fill_classes(block: ReadBlock, tau) -> tuple:
    """(first, inverse, best, erased, anchors, least, largest) of a block's
    sets: their votes, ranges and anchors, and their classes (``_classes``)
    by erasure-fill input, since sets with equal kept values, erased
    coordinates and anchor values there have equal fills."""
    best, keep, least, largest = block.votes(tau)
    anchors = block.anchors
    first, inverse = _classes(np.where(keep, best, anchors), keep)
    return first, inverse, best, ~keep, anchors, least, largest


def _class_pairs(
    classes: np.ndarray, words: np.ndarray, inverse: np.ndarray, is_open: np.ndarray, n: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Pieces (sets, words) of the pairs of each open set s with the rows
    of ``words`` of its class, those r with classes[r] = inverse[s], in set
    order and then in row order (``_spread``).  A piece holds the pairs of
    the sets whose pairs start in one run of ``rows_per_block(32 n)``: a
    pair is charged four int64 rows of length n (its word, and the bounds
    and differences of the box test), and a piece has fewer than two runs
    of pairs when no set has a run of rows."""
    sizes = np.bincount(classes, minlength=len(inverse))  # classes <= sets
    offsets = np.cumsum(sizes) - sizes
    open_sets = is_open.nonzero()[0]
    per = sizes[inverse[open_sets]]
    starts = np.cumsum(per) - per
    run = rows_per_block(32 * n)
    cuts = np.searchsorted(starts, np.arange(run, int(per.sum()), run)).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(open_sets)]):
        pick, row = _spread(inverse[open_sets[lo:hi]], sizes, offsets)
        if len(pick):  # some set of these rows' classes is open
            yield open_sets[lo:hi][pick], words[row]


def _decode_majority(block: ReadBlock, p: ChannelParams, tau, code: Code, delta: int, a: int,
                     cap: int):
    """Per set: majority estimate, erasure filling, unique decode, and the
    first decoded candidate, in fill order, whose ball covers every read of
    the set.  The fills are built and decoded once per class of equal fill
    input (``_fill_classes``); each block of them is decoded at once, and
    its decoded candidates are cover-tested at once by ``_cover_rows``
    against every set of their class still open (``_class_pairs``, in
    pieces of whole sets), with the least and largest values per coordinate
    that the vote's table already holds; each set closes on its first
    covering row."""
    _require_k_minus_positive(p, "majority")
    first, inverse, best, erased, anchors, least, largest = _fill_classes(block, tau)
    zero = np.zeros((1, p.n), dtype=np.int64)
    chosen = np.zeros((len(block), p.n), dtype=np.int64)
    is_open = np.ones(len(block), dtype=bool)
    for owner, rows in _candidates(best[first], erased[first], anchors[first], zero, p, cap):
        C, found = code.decode_rows(rows, delta - 1, p, cap)
        if inverse is None:
            found &= is_open[owner]
        if not found.any():
            continue
        pieces = [(owner[found], C[found])]
        if inverse is not None:
            pieces = _class_pairs(owner[found], C[found], inverse, is_open, p.n)
        for sets, words in pieces:
            covered = _cover_rows(words, sets, block, least, largest, p)
            sets, words = sets[covered], words[covered]
            head = _starts(sets)  # a set's first covering row starts its run
            chosen[sets[head]] = words[head]
            is_open[sets] = False
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
        _decode_majority(Y.block, Y.params, tau, code, delta, 0, cap),
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
    failures dropped.  The rows of a set are kept distinct and sorted by
    ``distinct_rows`` until a block ends past the set."""
    finished = []
    tagged = np.zeros((0, p.n + 1), dtype=np.int64)
    for owner, rows in blocks:
        C, found = code.decode_rows(rows, delta - 1, p, cap)
        hits = np.column_stack((owner[found], C[found]))
        tagged = distinct_rows(np.concatenate((tagged, hits)))
        done = np.searchsorted(tagged[:, 0], owner[-1])
        # a copy: a view would keep every block's whole array alive
        finished.append(tagged[:done].copy())
        tagged = tagged[done:]
    tagged = np.concatenate(finished + [tagged])
    return tagged[:, 0].astype(np.intp), tagged[:, 1:]


def _fill_keys(
    words: np.ndarray, erased: np.ndarray, anchors: np.ndarray, shifts: np.ndarray,
    p: ChannelParams, cap: int,
) -> tuple:
    """(lo, place, blocks) of the rows u - e that ``_candidates`` builds
    from the same arguments, as mixed-radix keys: row r has the key (r -
    lo) . place, lo the least value of each column over all the rows and
    place the column's place value, the product of the later columns'
    ranges, so keys order like rows: int64 below 2**63 and Python ints
    past it (``core.radix_places``); lo is int64.

    A key is linear in its row: the key of u - e is base + digits . radix -
    key(e), base the key of the class's least fill and radix the place
    values of its erased columns.  So the sets of each erasure count m take
    their fills' offsets from one product of their (sets, m) radix and the
    (m, fills) digit grid.  ``blocks`` yields (owner, keys) of at most
    ``rows_per_block(48)`` keys (a key is charged six int64 words), or of
    one fill's.  The fill count is charged against ``cap`` as
    ``_candidates`` charges it, before any key is built."""
    q = p.magnitude_span + 1
    misses = erased.sum(axis=1)
    charge(q ** int(misses.max()) * len(shifts), "erasure-fill candidates", cap)
    low = np.where(erased, anchors - p.k_plus, words)
    lo = low.min(axis=0) - shifts.max(axis=0)
    hi = np.where(erased, anchors + p.k_minus, words).max(axis=0) - shifts.min(axis=0)
    place = radix_places(lo, hi)
    # in Python ints where the place values are, so that low - lo cannot wrap
    base, shift_keys = (low.astype(place.dtype, copy=False) - lo) @ place, shifts @ place
    per_block = rows_per_block(48)

    def pieces():
        for m in np.bincount(misses).nonzero()[0].tolist():
            sets = (misses == m).nonzero()[0]
            radix = place[erased[sets].nonzero()[1]].reshape(len(sets), m)
            fills = q**m
            step = min(fills, max(1, per_block // len(shifts)))
            for j in range(0, fills, step):
                # the digits of fills j, j + 1, ..., first erased column first
                grid = np.arange(j, min(fills, j + step)) // q ** np.arange(m)[::-1, None] % q
                per = max(1, per_block // (grid.shape[1] * len(shifts)))
                for c in range(0, len(sets), per):
                    keys = (base[sets[c:c + per], None] + radix[c:c + per] @ grid)[..., None]
                    yield sets[c:c + per], (keys - shift_keys).reshape(-1)

    def blocks():
        held, total = [], 0
        for sets, keys in pieces():
            if held and total + len(keys) > per_block:
                block, held, total = tuple(map(np.concatenate, zip(*held))), [], 0
                yield block
            held.append((sets.repeat(len(keys) // len(sets)), keys))
            total += len(keys)
        yield tuple(map(np.concatenate, zip(*held)))

    return lo, place, blocks()


def _decode_fills(
    words: np.ndarray, erased: np.ndarray, anchors: np.ndarray, shifts: np.ndarray,
    code: Code, delta: int, p: ChannelParams, cap: int,
) -> Decoded:
    """The distinct rows (set, codeword) of the rows u - e that
    ``_candidates`` builds from the same arguments, decoded within radius
    delta - 1, failures dropped, in set and then codeword order.

    Per block of ``_fill_keys``, each distinct key, int64 or a Python int,
    is turned back into its int64 row (``key_rows``; fill entries stay
    below 2**63) and decoded once, ``rows_per_block(32 n)`` rows to a
    ``Code.decode_rows`` call, and the (set, codeword) pairs are made
    distinct by one sort of (set, codeword rank).  Blocks share sets, so
    two or more are merged by one ``distinct_rows`` at the end."""
    lo, place, blocks = _fill_keys(words, erased, anchors, shifts, p, cap)
    step = rows_per_block(32 * p.n)

    def decode(owner, keys):
        first, group = group_keys(keys)
        keys = keys[first]
        found, hit = [], np.zeros(len(keys), dtype=bool)
        for i in range(0, len(keys), step):
            C, hit[i:i + step] = code.decode_rows(key_rows(keys[i:i + step], lo, place),
                                                  delta - 1, p, cap)
            found.append(C[hit[i:i + step]])
        found = np.concatenate(found)
        first, rank = group_keys(_row_keys(found))
        word = np.full(len(keys), -1, dtype=np.intp)
        word[hit] = rank
        word = word[group]
        kept = word >= 0
        ranks = max(1, len(first))
        pair = np.sort(owner[kept] * ranks + word[kept])
        pair = pair[_starts(pair)]
        return pair // ranks, np.take(found[first], pair % ranks, axis=0)

    parts = [decode(*block) for block in blocks]
    if len(parts) == 1:
        return parts[0]
    tagged = distinct_rows(np.concatenate([np.column_stack(part) for part in parts]))
    return tagged[:, 0].astype(np.intp), tagged[:, 1:]


def _decode_list_min(block: ReadBlock, p: ChannelParams, tau, code: Code, delta: int, a: int,
                     cap: int):
    """Per set: decode every vector of z - B(n, a, k+, 0), z the minimum,
    once per distinct minimum.  The rows are built (``_candidates``) and
    collected by ``_decode_lists``: a block of the recon-trials list-min
    point holds about 30 distinct minima of 8 rows each, too few for the
    keys of ``_decode_fills`` to pay (0.59 against 0.48 ms a 1000-set
    block, in-process on a 2-CPU Xeon)."""
    _require_k_minus_zero(p)
    shifts = ball_matrix(ChannelParams(p.n, a, p.k_plus, 0), cap)
    z = block.minimum
    first, inverse = _classes(z)
    z = z[first]
    blocks = _candidates(z, np.zeros(z.shape, dtype=bool), z, shifts, p, cap)
    return _fan_out(_decode_lists(blocks, code, delta, p, cap), inverse)


def list_reconstruct_min(
    Y: ReadSet, code: Code, delta: int, a: int, cap: int = DEFAULT_ENUM_CAP
) -> tuple[Vec, ...]:
    """List variant of the minimum machine (k- = 0): decode every vector of
    z - B(n, a, k+, 0).  Contains the transmitted codeword whenever
    |Y| >= list_params_min; the list never exceeds V_{k+ + 1}(n, a) entries.

    Decode failures are dropped; the list is returned sorted.
    """
    return _rows(_decode_list_min(Y.block, Y.params, None, code, delta, a, cap))


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
    block: ReadBlock, p: ChannelParams, tau, code: Code, delta: int, a: int, cap: int
):
    """Per set: majority estimate, erasure filling, then decode every vector
    of candidate - B(n, a, k+, k-), once per class of equal fill input
    (``_fill_classes``), by the candidates' row keys (``_decode_fills``):
    the classes' fills share most of their rows (a 250-set block of the
    recon-trials point holds 9000 to 11000 fills and 1800 to 2200 distinct
    rows), and each distinct row is decoded once per block of keys."""
    _require_k_minus_positive(p, "majority list")
    first, inverse, best, erased, anchors, _, _ = _fill_classes(block, tau)
    shifts = ball_matrix(ChannelParams(p.n, a, p.k_plus, p.k_minus), cap)
    decoded = _decode_fills(best[first], erased[first], anchors[first], shifts, code, delta, p, cap)
    return _fan_out(decoded, inverse)


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
    return _rows(_decode_list_majority(Y.block, Y.params, tau, code, delta, a, cap))


def _witnesses(X: np.ndarray, q: int, c: int) -> tuple[list, np.ndarray]:
    """(subsets, found) of the coordinate search over the (S, n, N) columns
    X of S sets of N distinct members in [0, q)^n, 1 <= c <= n: found[s] is
    the rank, in ``combinations(range(n), c)`` order, of the first U that
    set s witnesses (every pattern over U avoided coordinatewise by some
    member), -1 when there is none; ``subsets`` lists the subsets walked.

    A set avoids a pattern when the AND of the pattern's c rows of uint64
    words is nonzero, a row per (coordinate, value) packed from one mask of
    the members avoiding it.  Subsets are walked in chunks of 1, 2, 4, ...
    (the first witness is mostly among the first few), ``rows_per_block``
    open sets at a time, each charged its word rows and, per subset, c + 1
    word rows per pattern."""
    S, n, N = X.shape
    mask = np.zeros((q, S, n, -N % 64 + N), dtype=bool)
    np.not_equal(X, np.arange(q)[:, None, None, None], out=mask[..., :N])
    # (set, value, coordinate, word), a view: a set's words are copied as it is searched
    words = np.packbits(mask, axis=3, bitorder="little").view(np.uint64).transpose(1, 0, 2, 3)
    patterns = cached(("patterns", q, c), lambda: np.indices((q,) * c).reshape(c, -1).T)
    row_bytes = 8 * (c + 1) * len(patterns) * words.shape[3]
    found = np.full(S, -1, dtype=np.intp)
    open_sets, subsets, walk, size = np.arange(S), [], combinations(range(n), c), 1
    while len(open_sets) and (chunk := list(islice(
            walk, min(size, rows_per_block(row_bytes * len(open_sets)))))):
        per = rows_per_block(row_bytes * len(chunk) + words[0].nbytes)  # a set's words copied
        for lo in range(0, len(open_sets), per):
            part = open_sets[lo:lo + per]
            # (set, subset, pattern, coordinate, word): each pattern's c word rows
            avoided = np.bitwise_and.reduce(words[part][:, patterns, np.array(chunk)[:, None]], 3)
            shattered = avoided.any(axis=3).all(axis=2)
            hit = shattered.any(axis=1)
            found[part[hit]] = len(subsets) + shattered[hit].argmax(axis=1)
        subsets += chunk
        open_sets, size = open_sets[found[open_sets] < 0], 2 * size
    return subsets, found


def sauer_shelah_find(S, q: int, c: int, cap: int = DEFAULT_ENUM_CAP) -> tuple[int, ...]:
    """A size-c coordinate set U such that every pattern over U is avoided
    coordinatewise by some member of S.

    S is an (|S|, n) integer matrix with one member per row, or any
    iterable of length-n integer vectors, made one by ``core.int_rows``
    (anything else is a ValueError); a repeated member counts once
    (``distinct_rows``).  U is the first witness in lexicographic order, by
    the block search (``_witnesses``) on a stack of one.  It
    exists whenever |S| > V_q(n, c - 1), so absence signals a violated
    precondition.  C(n, c) q^c |S| member tests are charged first.
    """
    if c < 0:
        raise ValueError(f"c must be >= 0, got {c}")
    if not isinstance(S, np.ndarray):
        S = int_rows(S, "S")
    elif S.ndim != 2 or S.dtype.kind not in "iu":
        raise ValueError(f"S must be a 2-D integer matrix, got a {S.ndim}-D {S.dtype} array")
    if not len(S):
        raise ValueError("S must be nonempty")
    if S.size and (S.min() < 0 or S.max() >= q):
        raise ValueError(f"entries must lie in [0, {q - 1}]")
    n = S.shape[1]
    if c == 0:
        return ()
    if c > n:
        raise ReconstructionError(f"no coordinate set of size {c} in length {n}")
    members = distinct_rows(S)
    charge(binom(n, c) * q**c * len(members), "coordinate-search member tests", cap)
    subsets, found = _witnesses(members.T[None], q, c)
    if found[0] < 0:
        raise ReconstructionError(
            "no witness coordinate set: |S| is too small for the requested size"
        )
    return subsets[found[0]]


def sauer_reads_required(p: ChannelParams, delta: int, a: int) -> int:
    """Minimal N with N > V_{k+ + k- + 1}(n, f - 1 - a)."""
    f = _list_excess(p, delta, a)
    return hamming_volume(p.magnitude_span + 1, p.n, f - 1 - a) + 1


def _sauer_shift(stack: np.ndarray, p: ChannelParams) -> np.ndarray:
    """The (S, n, N) columns of a stack's sets, each column less the least
    of its least value and its largest less k+ (where K_i starts)."""
    X = stack.transpose(0, 2, 1).copy()  # a reduction along rows is 3x slower
    return np.subtract(X, np.minimum(X.min(axis=2), X.max(axis=2) - p.k_plus)[..., None], out=X)


def _sauer_candidates(X: np.ndarray, anchors: np.ndarray, q: int, found: np.ndarray, subsets,
                      p: ChannelParams, f: int, cap: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Pieces (owner, rows) of the rows rep - e of every set with a witness U =
    subsets[found[set]]: rep is its first read of each pattern on U (one
    ``first_keys`` of (set, base-q pattern) keys of X, the ``_sauer_shift`` in
    [0, q); anchors are the first reads), e in B(n, f, k+, k-) is nonzero on all
    of U (cached per U).  Whole sets to a piece, in order, as ``_candidates``."""
    if not len(sets := (found >= 0).nonzero()[0]):
        return
    ranks, ball_p = sorted(set(found[sets].tolist())), ChannelParams(p.n, f, p.k_plus, p.k_minus)
    ball = ball_matrix(ball_p, cap)
    shifts = np.array([cached(("sauer-shifts", ball_p, U), lambda U=list(U): np.compress(
        (ball.T[U] != 0).all(axis=0), ball, axis=0)) for U in map(subsets.__getitem__, ranks)])
    U = np.array(subsets, dtype=np.intp)[found[sets]]  # (set, coordinate)
    keys = q ** np.arange(U.shape[1]) @ X[sets[:, None], U] + q ** U.shape[1] * sets[:, None]
    first = first_keys(keys.reshape(-1))
    owner, read = sets[first // X.shape[2]], first % X.shape[2]
    # a set's reads are its shifted columns plus its first read less its first column
    reps = X.transpose(0, 2, 1)[owner, read] + (anchors - X[:, :, 0])[owner]
    per = max(1, rows_per_block(32 * p.n) // (shifts.shape[1] * int(np.bincount(owner).max())))
    cuts = np.searchsorted(owner, sets[per::per]).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(owner)]):
        rows = reps[lo:hi, None] - shifts[np.searchsorted(ranks, found[owner[lo:hi]])]
        yield owner[lo:hi].repeat(shifts.shape[1]), rows.reshape(-1, p.n)


def _decode_sauer(block: ReadBlock, p: ChannelParams, tau, code: Code, delta: int, a: int,
                  cap: int):
    """Per set: the Sauer list, empty where no witness is found.  The block
    is searched a part at a time (``ReadBlock.parts``): all sets of a part
    are shifted into [0, q)^n (ValueError past it) and searched at once
    (``_witnesses``), charged C(n, c) q^c N member tests, c = f - a, as
    every set holds N distinct reads; then one candidate pass per block
    part.  Parts share no set, so their lists are concatenated."""
    f, q, lists = _list_excess(p, delta, a), p.magnitude_span + 1, []
    for first, part in block.parts():
        if (X := _sauer_shift(part.stack, p)).max() >= q:  # no entry is below 0
            raise ValueError(f"entries must lie in [0, {q - 1}]")
        charge(binom(p.n, f - a) * q ** (f - a) * block.N, "coordinate-search member tests", cap)
        subsets, found = _witnesses(X, q, f - a)
        rows = _sauer_candidates(X, part.anchors, q, found, subsets, p, f, cap)
        owner, words = _decode_lists(rows, code, delta, p, cap)
        lists.append((owner + first, words))
    return tuple(map(np.concatenate, zip(*lists)))


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
    at most (k+ + k- + 1)^(2(f - a)) * V(n - f + a, a).  Y is decoded as a
    block of one, and an empty list searched again, to raise on no witness.
    """
    p = Y.params
    words = _rows(_decode_sauer(Y.block, p, None, code, delta, a, cap))
    if not words:
        q, c = p.magnitude_span + 1, _list_excess(p, delta, a) - a
        sauer_shelah_find(_sauer_shift(Y.block.stack, p)[0].T, q, c, cap)
    return words


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


@dataclass(frozen=True)
class Algorithm:
    """An entry of ``ALGORITHMS``: ``reads(p, delta, a)`` is the (N, tau) of
    the formula ``anchor`` names (tau None outside the majority family), and
    raises ValueError on a channel the algorithm cannot handle; ``decode(block,
    p, tau, code, delta, a, cap)`` gives at most ``list_size_bound(p, delta,
    a)`` rows per set of a ``ReadBlock``; ``minimum_only`` marks a ``decode``
    that reads only each set's componentwise minimum."""

    reads: Callable[[ChannelParams, int, int], tuple[int, Optional[Fraction]]]
    anchor: str
    decode: Callable[..., Decoded]
    list_size_bound: Callable[[ChannelParams, int, int], int]
    minimum_only: bool = False


class ReadPlan(NamedTuple):
    """An algorithm at channel p, distance delta and list exponent a, as
    ``read_plan`` resolves it: N, tau and anchor, the decoder, the list-size
    bound and whether the decoder reads only each set's minimum."""

    p: ChannelParams
    delta: int
    a: int
    N: int
    tau: Optional[Fraction]
    anchor: str
    decoder: Callable[..., Decoded]
    bound: int
    minimum_only: bool

    def decode(self, block: ReadBlock, code: Code, cap: int = DEFAULT_ENUM_CAP) -> Decoded:
        """The ``Decoded`` rows of a block, ``cap`` bounding each enumeration."""
        return self.decoder(block, self.p, self.tau, code, self.delta, self.a, cap)


def _decode_one_read(block: ReadBlock, p: ChannelParams, tau, code: Code, delta: int, a: int,
                     cap: int):
    return _decode_each(block.anchors, code, delta, p, cap)


def read_plan(name: str, p: ChannelParams, delta: int, a: int = 0) -> ReadPlan:
    """The plan of ``ALGORITHMS[name]`` at p, delta and a; an unknown name
    raises ValueError.  Past t one read decoded within radius delta - 1
    covers every error pattern, so every algorithm reads once and lists at
    most one word there, and a list algorithm needs a = 0.  Otherwise the
    entry's formulas plan, raising ValueError where they do."""
    if name not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {tuple(ALGORITHMS)}")
    if delta > p.t:
        if a and name.startswith("list-"):
            raise ValueError(f"need a = 0 at delta > t (one read decodes), got a={a}")
        return ReadPlan(p, delta, a, 1, None, "unique-decode", _decode_one_read, 1, False)
    entry = ALGORITHMS[name]
    return ReadPlan(p, delta, a, *entry.reads(p, delta, a), entry.anchor, entry.decode,
                    entry.list_size_bound(p, delta, a), entry.minimum_only)


#: Algorithm name -> read formula, anchor, decoder, list-size bound and
#: whether the decoder reads only each set's minimum.
ALGORITHMS: dict[str, Algorithm] = {
    "min": Algorithm(lambda p, d, a: (reads_required_min(p, d), None), "reads-min",
                     _decode_min, lambda p, d, a: 1, minimum_only=True),
    "majority": Algorithm(lambda p, d, a: majority_threshold(p, d), "majority-reads",
                          _decode_majority, lambda p, d, a: 1),
    "list-min": Algorithm(lambda p, d, a: (list_params_min(p, d, a), None), "list-reads-min",
                          _decode_list_min, lambda p, d, a: hamming_volume(p.k_plus + 1, p.n, a),
                          minimum_only=True),
    "list-majority": Algorithm(list_params_general, "list-reads-majority",
                               _decode_list_majority, majority_list_size_bound),
    "list-sauer": Algorithm(lambda p, d, a: (sauer_reads_required(p, d, a), None), "sauer-reads",
                            _decode_sauer, sauer_list_size_bound),
}
