"""The library's two bounds: every block of rows is sized by
``core.rows_per_block`` against the one ``core.BLOCK_BYTES``, and every
enumeration is charged against its cap by the one ``core.charge``."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from magrec import ChannelParams, EnumerationCapExceeded, ExplicitCode, LatticeCode, core
from magrec import lattice, reconstruction
from magrec.channel import minimum_sets, read_blocks, read_sets
from magrec.combinatorics import ball_matrix
from magrec.lattice import parse_splitter_spec
from magrec.reconstruction import ALGORITHMS, ReadBlock, sauer_shelah_find
from magrec.tandem import (
    SimplexCode,
    _excess_shell,
    exhaustive_simplex_read_sets,
    greedy_simplex_code,
    simplex_min_counts,
    upward_ball,
)

from test_read_matrix import recording_candidates

P = ChannelParams(6, 2, 1, 1)
SPEC = "group=Z13; s=[1,2,3,4,5,6]"
#: every coordinate's vote falls below it, so each set has 3**6 fills
ERASE_ALL = Fraction(10**6)


class _Members(np.ndarray):
    """A member matrix that records the shape of each (M, chunk, n) block of
    row-minus-member differences it is subtracted into, or of row-member
    comparisons it is compared with."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [x.view(np.ndarray) if isinstance(x, _Members) else x for x in inputs]
        out = getattr(ufunc, method)(*inputs, **kwargs)
        # a row block compared with the members reaches here reflected
        if ufunc in (np.subtract, np.less_equal):
            _Members.shapes.append(out.shape)
        return out


@pytest.mark.parametrize("budget", [64, 2**12, 2**14])
def test_one_budget_bounds_every_kind_of_block(budget, monkeypatch):
    monkeypatch.setattr(core, "BLOCK_BYTES", budget)

    # random blocks: 8 N n bytes a set, or 4 |B| for its indicator row over
    # the ball when larger (|B| = 73 here), and so are their stacks; a set
    # is drawn as an indicator only when the ball's one-hot matrix, 4 |B|
    # n (k+ + k- + 1) bytes, fits in the budget too
    blocks = list(read_blocks((0,) * 6, P, 4, "random", 200, seed=3))
    assert len(blocks) > 1 and sum(map(len, blocks)) == 200
    assert all((b.ind is not None) == (4 * 73 * 6 * 3 <= budget) for b in blocks)
    assert all(b.ind is None or b.ind.nbytes <= budget or len(b) == 1 for b in blocks)
    stacks = list(read_sets((0,) * 6, P, 4, "random", 200, seed=3))
    assert [len(s) for s in stacks] == [len(b) for b in blocks]
    assert all(s.nbytes <= budget or len(s) == 1 for s in stacks)

    # minimum blocks: 8 n bytes a one-read set, one per distinct minimum
    minima = list(minimum_sets((0,) * 6, ChannelParams(6, 2, 1, 0), 3))
    assert sum(int(counts.sum()) for _, counts in minima) == math.comb(22, 3)
    assert all(b.N == 1 and (b.stack.nbytes <= budget or len(b) == 1) for b, _ in minima)

    # erasure-fill candidates: 32 (|shifts| n + 2 n) bytes a fill
    blocks = []
    monkeypatch.setattr(reconstruction, "_candidates", recording_candidates(blocks))
    code = LatticeCode(parse_splitter_spec(SPEC))
    two = ReadBlock(P, np.concatenate(stacks)[:2])
    ALGORITHMS["majority"].decode(two, P, ERASE_ALL, code, 1, 0, 10**7)
    fills = [(len(rows) // shifts, 32 * (shifts + 2) * P.n) for shifts, _, rows in blocks]
    assert len(fills) > 1 and sum(count for count, _ in fills) == 2 * 3**6
    assert all(count * charge <= budget or count == 1 for count, charge in fills)

    # explicit-code member chunks: 8 M n bytes a member, M rows still unfound
    rng = random.Random(5)
    members = rng.sample(list(product(range(-2, 3), repeat=5)), 200)
    explicit = ExplicitCode(members)
    explicit._largest_first = explicit._largest_first.view(_Members)
    _Members.shapes.clear()
    rows = np.array([[rng.randint(-3, 3) for _ in range(5)] for _ in range(30)])
    explicit.decode_rows(rows, 1, ChannelParams(5, 1, 1, 1))
    chunks = _Members.shapes
    assert len(chunks) > 1 and all(n == 5 for _, _, n in chunks)
    assert all(8 * M * chunk * n <= budget or chunk == 1 for M, chunk, n in chunks)

    # simplex decoding: the x + z rows of whole codewords, 8 |Z| (m + 1)
    # bytes a codeword, for the 15 minima z of excess <= 2 (two distinct
    # reads of a shell have a lower minimum), each row tested against every
    # member at once, 8 |members| (m + 1) bytes a row
    simplex = greedy_simplex_code(3, 6, 1)
    object.__setattr__(simplex, "_matrix", simplex._matrix.view(_Members))
    _Members.shapes.clear()
    rows, decode_rows = [], SimplexCode.decode_rows
    monkeypatch.setattr(
        SimplexCode, "decode_rows", lambda code, U, radius: (
            rows.append(len(U)) or decode_rows(code, U, radius)
        )
    )
    simplex_min_counts(simplex, 3, 2, 1)
    assert len(rows) > 1 and sum(rows) == 84 * 15
    assert all(8 * count * 4 <= budget or count == 15 for count in rows)
    blocks = _Members.shapes
    assert len(blocks) > len(rows) and all(shape[1:] == (84, 4) for shape in blocks)
    assert all(8 * M * 84 * 4 <= budget or M == 1 for M, _, _ in blocks)


def _erasure_fills(cap):
    (stack,) = read_sets((0,) * 6, P, 4, "random", 2, seed=3)
    code = LatticeCode(parse_splitter_spec(SPEC))
    return ALGORITHMS["majority"].decode(ReadBlock(P, stack), P, ERASE_ALL, code, 1, 0, cap)


#: name -> (count, what the count counts, the enumeration at a cap)
ENUMERATIONS = {
    "ball": (33, "ball vectors", lambda cap: ball_matrix(ChannelParams(4, 2, 1, 1), cap)),
    "erasure fills": (3**6, "erasure-fill candidates", _erasure_fills),
    # C(2, 1) * 2 * 3 member tests; coordinate 0 is a witness
    "coordinate search": (
        12, "coordinate-search member tests",
        lambda cap: sauer_shelah_find([(0, 0), (1, 1), (0, 1)], 2, 1, cap),
    ),
    # C(4, 2) pairs of the 4-vector ball
    "exhaustive reads": (
        6, "exhaustive read sets",
        lambda cap: list(read_sets((0, 0, 0), ChannelParams(3, 1, 1, 0), 2, "exhaustive",
                                   cap=cap)),
    ),
    # the box ball B(2, 2, 1, 1) of the lattice differences: 3**2 vectors
    "lattice scan": (
        9, "ball vectors",
        lambda cap: lattice.max_pairwise_intersection_lattice(
            parse_splitter_spec("group=Z13; s=[1,2]"), ChannelParams(2, 1, 1, 0), cap),
    ),
    # pairs counted per minimum are not built: only the 4-vector ball is
    "exhaustive minima": (
        4, "ball vectors",
        lambda cap: list(minimum_sets((0, 0, 0), ChannelParams(3, 1, 1, 0), 2, cap)),
    ),
    "upward shell": (6, "upward shell vectors", lambda cap: _excess_shell(3, 2, cap)),
    "upward ball": (10, "upward ball vectors", lambda cap: upward_ball((0, 0, 0), 2, cap)),
    # C(6, 3) triples of the last shell, which holds 6 vectors
    "shell read sets": (
        20, "upward shell read sets",
        lambda cap: list(exhaustive_simplex_read_sets((0, 0, 0), 2, 3, cap)),
    ),
    # the same triples, counted per minimum for a code in that simplex, are
    # not built: only the upward ball of C(5, 3) vectors is
    "counted shell read sets": (
        10, "upward ball vectors",
        lambda cap: simplex_min_counts(greedy_simplex_code(2, 2, 1), 2, 3, 1, cap),
    ),
}


@pytest.mark.parametrize("name", ENUMERATIONS)
def test_every_enumeration_is_charged_by_the_one_cap_check(name):
    count, what, enumerate_at = ENUMERATIONS[name]
    with pytest.raises(EnumerationCapExceeded) as excinfo:
        enumerate_at(count - 1)
    assert str(excinfo.value) == f"{count} {what} exceed enumeration cap {count - 1}"
    tb = excinfo.tb
    while tb.tb_next:
        tb = tb.tb_next
    assert tb.tb_frame.f_code is core.charge.__code__
    enumerate_at(count)
