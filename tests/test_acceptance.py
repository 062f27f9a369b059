"""Acceptance suite: one test per criterion, exact tolerances, zero-failure
gates.  Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see
the per-criterion PASS lines and instance counts).

Two documented reductions keep the exhaustive criteria inside their time
budgets without weakening them:

* pair scans over a window are deduplicated by center difference
  (intersections are translation invariant; every difference realizable in
  the window is scanned exactly once);
* the componentwise-minimum machine depends on a read set only through its
  minimum vector, so "every N-subset" is verified by enumerating every
  achievable minimum (achievability is decided exactly: enough dominating
  ball elements and a small-enough covering subset).  Where subset counts
  are feasible the direct enumeration runs as well.
"""

import math
import random
import time
from collections import deque
from itertools import product

import numpy as np

from magrec import ChannelParams, ExplicitCode
from magrec.channel import decode_read_sets, read_sets, rng_for
from magrec.combinatorics import (
    ball_size,
    ball_vectors,
    hamming_volume,
    intersection_bounds,
    intersection_exact,
    max_intersection_whole_space,
)
from magrec.distances import code_min_distance, distance_general
from magrec.lattice import (
    FiniteAbelianGroup,
    LatticeCode,
    SplitterSpec,
    check_partial_splitting,
    check_recon_N1,
    check_recon_N2,
    construct_N1_code,
    construct_N2_code,
    cyclic,
    lattice_min_distance,
    max_pairwise_intersection_lattice,
    min_group_order_bound,
)
from magrec.reconstruction import (
    ALGORITHMS,
    ReadSet,
    adversarial_code_size_bound,
    adversarial_instance,
    list_params_general,
    majority_threshold,
    majority_votes,
    reads_required_min,
    sauer_reads_required,
)
from magrec.tandem import (
    exhaustive_simplex_read_sets,
    greedy_simplex_code,
    reads_required_simplex,
    reconstruct_simplex_min,
)

from helpers import (
    correction_capability_oracle,
    distance_asymmetric,
    oracle_packing_by_window_pairs,
    per_set,
    sampled_read_sets,
)


def report(num: int, detail: str, t0: float) -> None:
    print(f"[criterion {num:2d}] PASS  {detail}  ({time.time() - t0:.1f}s)")


def channel_grid(max_span: int):
    for kp in range(1, max_span + 1):
        for km in range(0, kp + 1):
            if kp + km <= max_span:
                yield kp, km


def test_criterion_01_whole_space_intersection():
    t0 = time.time()
    checked = 0
    for n in range(1, 6):
        for t in range(1, n + 1):
            for kp in (1, 2):
                for km in range(kp + 1):
                    p = ChannelParams(n, t, kp, km)
                    m = max_intersection_whole_space(p)
                    zero = (0,) * n
                    e1 = (1,) + (0,) * (n - 1)
                    assert intersection_exact(zero, e1, p) == m
                    checked += 1
    # window scan over all center pairs in [-2, 2]^n, deduplicated by
    # difference (every d in [-4, 4]^n \ {0} is realized by a window pair)
    scanned = 0
    for n in range(1, 4):
        for t in range(1, n + 1):
            for kp in (1, 2):
                for km in range(kp + 1):
                    p = ChannelParams(n, t, kp, km)
                    m = max_intersection_whole_space(p)
                    zero = (0,) * n
                    for d in product(range(-4, 5), repeat=n):
                        if not any(d):
                            continue
                        assert intersection_exact(zero, d, p) <= m
                        scanned += 1
    report(1, f"formula exact on {checked} grid points; {scanned} window pairs", t0)


def test_criterion_02_intersection_bounds_sandwich():
    t0 = time.time()
    per_cell = 500
    cells = checked = 0
    for n in range(1, 7):
        for t in range(1, min(n, 3) + 1):
            for kp, km in channel_grid(3):
                cells += 1
                p = ChannelParams(n, t, kp, km)
                span = kp + km
                rng = rng_for(2_000_000 + 100 * n + 10 * t + span * 2 + km)
                kept = 0
                draws = 0
                while kept < per_cell:
                    draws += 1
                    assert draws < 200_000, "pair generator starved"
                    x = tuple(int(v) for v in rng.integers(-2, 3, size=n))
                    support = rng.integers(0, min(n, t + 2) + 1)
                    y = list(x)
                    for i in rng.choice(n, size=int(support), replace=False):
                        off = 0
                        while off == 0:
                            off = int(rng.integers(-span - 1, span + 2))
                        y[i] += off
                    y = tuple(y)
                    if x == y:
                        continue
                    if km == 0:
                        d = distance_asymmetric(x, y, kp)
                    else:
                        d = distance_general(x, y, p)
                    if d > t:
                        continue
                    b = intersection_bounds(p, d)
                    assert b.contains(intersection_exact(x, y, p)), (x, y, p, d)
                    kept += 1
                checked += kept
    report(2, f"{checked} pairs sandwiched across {cells} cells, 0 violations", t0)


def test_criterion_03_distance_iff_correction():
    t0 = time.time()
    rng = random.Random(3_000_000)
    codes = equivalences = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        kp = rng.randint(1, 2)
        km = rng.randint(0, kp)
        size = min(rng.randint(2, 8), 4**n)
        members = set()
        while len(members) < size:
            members.add(tuple(rng.randint(0, 3) for _ in range(n)))
        dmin = code_min_distance(members, ChannelParams(n, 0, kp, km))
        for e in range(min(2, n) + 1):
            p = ChannelParams(n, max(e, 1), kp, km)
            assert correction_capability_oracle(members, p, e) == (dmin >= e + 1)
            equivalences += 1
        codes += 1
    report(3, f"{codes} random codes, {equivalences} exact equivalences", t0)


# --- criterion 4 machinery -------------------------------------------------

SUBSET_CAP_C4 = 200_000


def achievable_minima(ball, N, n):
    """All componentwise minima of N-subsets of the ball, exactly.

    z is achievable iff at least N ball elements dominate it and some
    <= N of them cover every coordinate at equality (set cover by BFS
    over coordinate bitmasks; n <= 4 here).
    """
    per_coord = [sorted({e[i] for e in ball}) for i in range(n)]
    full = (1 << n) - 1
    out = []
    for z in product(*per_coord):
        dominating = [e for e in ball if all(a >= b for a, b in zip(e, z))]
        if len(dominating) < N:
            continue
        masks = {
            sum(1 << i for i in range(n) if e[i] == z[i]) for e in dominating
        }
        if full in masks:
            cover = 1
        else:
            seen = {0}
            queue = deque([(0, 0)])
            cover = None
            while queue:
                state, depth = queue.popleft()
                if state == full:
                    cover = depth
                    break
                for mask in masks:
                    nxt = state | mask
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append((nxt, depth + 1))
        if cover is not None and cover <= N:
            out.append(z)
    return out


def run_min_cell(code, p, delta, x, note):
    """Verify Algorithm-1 completeness for one (code, params, delta) cell."""
    N = reads_required_min(p, delta)
    ball = ball_vectors(p.n, p.t, p.k_plus, 0)
    assert N <= len(ball), f"vacuous cell {note}"
    total = math.comb(len(ball), N)
    checked = 0
    entry = ALGORITHMS["min"]
    plan = entry.plan(p, delta, 0)
    if total <= SUBSET_CAP_C4:
        # every N-subset of x + B, in lexicographic subset order
        for stack in read_sets(x, p, N, "exhaustive", cap=SUBSET_CAP_C4):
            decoded = decode_read_sets(entry, plan, code, p, delta, 0, stack)
            for out in per_set(decoded, len(stack)):
                assert out == (x,), (note, checked)
                checked += 1
        assert checked == total
    else:
        # exact min-image check plus a deterministic sample of real subsets
        for z in achievable_minima(ball, N, p.n):
            zz = tuple(a + b for a, b in zip(x, z))
            got = code.decode_within(zz, delta - 1, p)
            assert got == x, (note, z)
            checked += 1
        stacks = sampled_read_sets(x, p, N, 2000, seed=4_000_000)
        outputs = [
            out
            for stack in stacks
            for out in per_set(decode_read_sets(entry, plan, code, p, delta, 0, stack), len(stack))
        ]
        assert outputs == [(x,)] * 2000
    return N, total, checked


def test_criterion_04_min_algorithm_completeness():
    t0 = time.time()
    cells = subsets = 0
    # sum-of-entries lattices (distance-1 codes)
    for modulus in (2, 3):
        for n in range(2, 5):
            code = LatticeCode(
                SplitterSpec(cyclic(modulus), ((1,),) * n)
            )
            for kp in (1, 2):
                for t in (1, 2):
                    if t > n:
                        continue
                    delta = lattice_min_distance(code.spec, kp, 0)
                    if delta > t:
                        continue
                    p = ChannelParams(n, t, kp, 0)
                    for x in ((0,) * n, (1,) + (modulus - 1,) + (0,) * (n - 2)):
                        assert code.contains(x)
                        _, total, _ = run_min_cell(
                            code, p, delta, x, f"sum-mod:{modulus} n={n} kp={kp} t={t}"
                        )
                        cells += 1
                        subsets += min(total, SUBSET_CAP_C4)
    # scaled integer lattices (distance >= 2), run at delta = 2
    for scale, kp in ((2, 1), (3, 2)):
        for n in range(2, 5):
            spec = SplitterSpec(
                FiniteAbelianGroup((scale,) * n),
                tuple(
                    tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
                ),
            )
            code = LatticeCode(spec)
            assert lattice_min_distance(spec, kp, 0) >= 2
            p = ChannelParams(n, 2, kp, 0)
            _, total, _ = run_min_cell(
                code, p, 2, (0,) * n, f"{scale}Z^{n} kp={kp}"
            )
            cells += 1
            subsets += min(total, SUBSET_CAP_C4)
    report(4, f"{cells} cells complete, ~{subsets} subsets or min-images", t0)


def check_majority_budgets(stacks, x, p, delta, tau, code):
    """Per read set of each stack: at most delta - 1 kept coordinates
    disagree with x, at most 2 t delta are erased, and the majority decoder
    returns x.  Returns the number of sets checked."""
    entry = ALGORITHMS["majority"]
    plan = entry.plan(p, delta, 0)
    assert plan.tau == tau
    checked = 0
    for stack in stacks:
        best, keep = majority_votes(stack, tau)
        assert (((best != x) & keep).sum(axis=1) <= delta - 1).all()
        assert ((~keep).sum(axis=1) <= 2 * p.t * delta).all()
        outputs = per_set(decode_read_sets(entry, plan, code, p, delta, 0, stack), len(stack))
        assert outputs == [(x,)] * len(stack)
        checked += len(stack)
    return checked


def test_criterion_05_majority_budgets():
    t0 = time.time()
    n, t, kp, km = 4, 2, 1, 1
    p = ChannelParams(n, t, kp, km)
    size = ball_size(p)
    notes = []
    total_checked = 0
    for delta in (1, 2):
        N, tau = majority_threshold(p, delta)
        if N > size:
            notes.append(
                f"delta={delta}: N={N} exceeds ball size {size}; no valid read "
                f"sets exist (vacuous)"
            )
            continue
        code = ExplicitCode([(0, 0, 0, 0), (1, 1, -1, 0)])
        assert code_min_distance(code.members, p) == delta
        # deterministic sub-sample per transmitted codeword: 50k seeded
        # subsets plus structured extremes (C(33, 17) ~ 1.1e9 is far beyond
        # exhaustion); the explicit code has no translation symmetry, so
        # both codewords are exercised
        checked = 0
        for word_index, x in enumerate(code.members):
            ball = [
                tuple(a + b for a, b in zip(x, e))
                for e in ball_vectors(p.n, p.t, p.k_plus, p.k_minus)
            ]
            structured = [
                tuple(ball[:N]),
                tuple(ball[-N:]),
                tuple(
                    sorted(
                        ball,
                        key=lambda r: (
                            -sum(1 for a, b in zip(r, x) if a != b),
                            r,
                        ),
                    )[:N]
                ),
            ]
            stack = np.array([ReadSet(reads, p).matrix for reads in structured])
            checked += check_majority_budgets((stack,), x, p, delta, tau, code)
            samples = 50_000 - len(structured)
            stacks = sampled_read_sets(x, p, N, samples, seed=5_000_000 + word_index)
            checked += check_majority_budgets(stacks, x, p, delta, tau, code)
        notes.append(f"delta={delta}: {checked} read sets, 0 budget/decode failures")
        total_checked += checked
    # non-vacuous distance-1 supplement at t = 1 (same budgets, exhaustive)
    p1 = ChannelParams(4, 1, 1, 1)
    N1, tau1 = majority_threshold(p1, 1)
    code1 = ExplicitCode([(0, 0, 0, 0), (1, -1, 0, 0)])
    assert code_min_distance(code1.members, p1) == 1
    x = (0, 0, 0, 0)
    # every N1-subset of the ball, in lexicographic subset order
    stacks = read_sets(x, p1, N1, "exhaustive")
    extra = check_majority_budgets(stacks, x, p1, 1, tau1, code1)
    assert extra == math.comb(ball_size(p1), N1)
    notes.append(f"t=1 delta=1 supplement: {extra} exhaustive read sets")
    report(5, "; ".join(notes), t0)


def _delta2_word(n, kp, km):
    if km == 0:
        return (1, 1) + (0,) * (n - 2)
    if n >= 3:
        return (1, 1, -1) + (0,) * (n - 3)
    return (kp + 1, kp + 1)


def test_criterion_06_list_guarantees():
    t0 = time.time()
    target_instances = 10_000
    cells = []
    for kp, km in ((1, 0), (2, 0), (1, 1)):
        for n in (2, 3, 4):
            for t in (1, 2):
                if t > n:
                    continue
                for delta in range(1, t + 1):
                    f = t - delta + 1
                    for a in range(f):
                        for decoder in ("majority", "sauer"):
                            if decoder == "majority" and km == 0:
                                continue
                            cells.append((kp, km, n, t, delta, a, decoder))
    # drop majority cells whose read count cannot fit in the ball
    usable = []
    for cell in cells:
        kp, km, n, t, delta, a, decoder = cell
        p = ChannelParams(n, t, kp, km)
        if decoder == "majority":
            N, _ = list_params_general(p, delta, a)
        else:
            N = sauer_reads_required(p, delta, a)
        if N <= ball_size(p):
            usable.append((cell, N))
    per_cell = -(-target_instances // len(usable))
    ran = 0
    skips = len(cells) - len(usable)
    for cell_index, ((kp, km, n, t, delta, a, decoder), N) in enumerate(usable):
        p = ChannelParams(n, t, kp, km)
        if delta == 1:
            # lattice codes are translation symmetric: transmitting the
            # zero codeword is fully general
            code = LatticeCode(
                SplitterSpec(cyclic(kp + km + 1), ((1,),) * n)
            )
            assert lattice_min_distance(code.spec, kp, km) == 1
            words = [(0,) * n]
        else:
            code = ExplicitCode([(0,) * n, _delta2_word(n, kp, km)])
            assert code_min_distance(code.members, p) == delta
            words = list(code.members)
        entry = ALGORITHMS[f"list-{decoder}"]
        plan = entry.plan(p, delta, a)
        assert plan.N == N
        bound = entry.list_size_bound(p, delta, a)
        share = -(-per_cell // len(words))
        for word_index, x in enumerate(words):
            seed = 6_000_000 + 10 * cell_index + word_index
            for stack in sampled_read_sets(x, p, N, share, seed=seed):
                decoded = decode_read_sets(entry, plan, code, p, delta, a, stack)
                for L in per_set(decoded, len(stack)):
                    assert x in L, (decoder, kp, km, n, t, delta, a, x)
                    assert len(L) <= bound, (decoder, len(L), bound)
                    ran += 1
    assert ran >= target_instances
    report(6, f"{ran} instances over {len(usable)} cells ({skips} vacuous skipped)", t0)


def test_criterion_07_lattice_constructions():
    t0 = time.time()
    built = 0
    for kp in (2, 3, 4):
        p = ChannelParams(3, 1, kp, 0)
        spec = construct_N1_code(p)
        assert check_recon_N1(spec, p)
        assert spec.group.order == kp == min_group_order_bound(p, 1)
        for n in (1, 2, 3):
            p = ChannelParams(n, 1, kp, 0)
            assert max_pairwise_intersection_lattice(construct_N1_code(p), p) <= 1
        built += 1
    for kp in (2, 3, 4):
        for km in range(1, kp + 1):
            if kp + km < 3:
                continue
            p = ChannelParams(3, 1, kp, km)
            spec = construct_N2_code(p)
            assert check_recon_N2(spec, p)
            assert spec.group.order == kp + km - 1
            assert spec.group.order == min_group_order_bound(p, 2)
            for n in (1, 2, 3):
                p = ChannelParams(n, 1, kp, km)
                assert max_pairwise_intersection_lattice(construct_N2_code(p), p) <= 2
            built += 1
    report(7, f"{built} constructions at their group-order bounds", t0)


def test_criterion_08_splitting_iff_packing():
    t0 = time.time()
    rng = random.Random(8_000_000)
    agreements = 0
    for order in range(2, 25):
        for n in (1, 2):
            pool = list(product(range(order), repeat=n))
            if len(pool) > 200:
                splitters = rng.sample(pool, 200)
            else:
                splitters = pool
            for s in splitters:
                spec = SplitterSpec(cyclic(order), tuple((v,) for v in s))
                for kp, km in channel_grid(3):
                    for t in range(1, n + 1):
                        p = ChannelParams(n, t, kp, km)
                        split = check_partial_splitting(spec, p)
                        packs = max_pairwise_intersection_lattice(spec, p) == 0
                        assert split == packs, (order, s, kp, km, t)
                        agreements += 1
    # spot-check the difference oracle against the literal window-pair scan
    for order in (2, 3, 5, 8):
        for s in [(1,), (1, 1), (1, 2), (0, 1)]:
            spec = SplitterSpec(cyclic(order), tuple((v,) for v in s))
            p = ChannelParams(spec.n, 1, 1, 1)
            assert (max_pairwise_intersection_lattice(spec, p) == 0) == (
                oracle_packing_by_window_pairs(spec, 1, 1, 1)
            )
    report(8, f"{agreements} splitting/packing agreements, exact", t0)


def test_criterion_09_tandem_reconstruction():
    t0 = time.time()
    m = 2
    sets = 0
    for r in (2, 3, 4):
        for t in (1, 2):
            for delta in range(1, t + 1):
                code = greedy_simplex_code(m, r, delta)
                N = reads_required_simplex(m, t, delta)
                for x in code.members:
                    for Y in exhaustive_simplex_read_sets(x, t, N):
                        assert reconstruct_simplex_min(Y, code, delta) == x
                        sets += 1
    report(
        9,
        f"{sets} exhaustive constant-duplication-count read sets, exact recovery",
        t0,
    )


def test_criterion_10_adversarial_lower_bound():
    t0 = time.time()
    instances = 0
    for kp, km in ((2, 0), (3, 0), (1, 1), (2, 1)):
        for e in (0, 1):
            for a in (0, 1, 2):
                for n in (4, 8, 12):
                    if n < 2 * e + a or e + a > n:
                        continue
                    for t in sorted({max(1, e + a), e + a + 1}):
                        f = t - e
                        if not 0 <= a <= f or t > n:
                            continue
                        p = ChannelParams(n, t, kp, km)
                        Y, C = adversarial_instance(p, e, a)
                        assert len(Y) == hamming_volume(kp + km, n, f - a)
                        assert len(C) >= adversarial_code_size_bound(n, e, a)
                        if len(C) >= 2:
                            assert code_min_distance(C, p) >= e + 1
                        ball = set(ball_vectors(n, t, kp, km))
                        for c in C:
                            for y in Y.reads:
                                assert tuple(p - q for p, q in zip(y, c)) in ball
                        instances += 1
    report(10, f"{instances} adversarial instances verified", t0)
