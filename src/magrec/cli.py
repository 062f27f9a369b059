"""Command-line front end.

Every formula ``ball``, ``intersect`` and ``check-splitting`` print can be
cross-checked against a brute-force oracle with --oracle; a mismatch is the
headline failure mode and exits nonzero.  Each command takes only the flags
it reads, so any other flag exits 2.  Output is deterministic for fixed
flags and seed (``simulate`` zeroes its timings unless --timings is given).
A command line is read in one loop off the flag table of its command, and
by the full argparse parser only when the table refuses it (``parse_args``).

Code mini-language for --code:

* ``sum-mod:M``       all-ones splitter over Z_M (length from --n);
* ``splitter:SPEC``   SPEC is ``group=Z4xZ3; s=[(1,0),(0,2),(1,1)]``
                      (rank-1 groups may list bare integers, ``s=[1,2]``);
* ``explicit:@FILE``  UTF-8 text, one codeword per line, comma-separated
                      integers, ``#`` comments;
* ``simplex:@FILE``   same, preceded by a header line ``m=,r=,delta=``.

Every integer, in a flag or a code, is ASCII decimal digits with an
optional sign (``core.parse_int``): ``1_0`` and non-ASCII digits are
errors.  Grid flags (--n, --t, --kp, --km, --delta, --a) accept a single
value ``2``, a range ``1:3`` (inclusive, its end not below its start), or a
comma list ``1,2,4``; any other value is an error naming the flag and the
value.
Each grid flag's value count, their product and --trials times it (the
random read sets) are charged against --cap (the default where a command
has none) before any is built; a one-value flag is checked before it is.
Only ``ball``, ``intersect`` and ``simulate`` sweep --n, --t, --kp and --km;
every other flag takes one value and a range or list there is an error.
A point that cannot run is noted as ``skipped n=.. t=.. kp=.. km=..:
<reason>``, never silently dropped.  ``reconstruct``, ``list`` and
``simulate`` resolve a point into its ``reconstruction.read_plan`` and run
its trials in one loop; a --delta above the code's distance, or a channel
the algorithm cannot handle, is an error in the first two and a skip note
in ``simulate``, and a ``tandem`` --delta above the file header's is an
error too.  Records mode emits one
JSON object per line with a fixed, documented field order; rationals are
rendered as ``p/q``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import astuple
from fractions import Fraction
from itertools import chain, product
from pathlib import Path
from typing import Iterable

import numpy as np

from magrec import channel, combinatorics, distances, lattice, reconstruction, tandem
from magrec.core import (
    DEFAULT_ENUM_CAP,
    ChannelParams,
    EnumerationCapExceeded,
    ExplicitCode,
    ReconstructionError,
    charge,
    parse_int,
    payload_lines,
    rows_per_block,
)

#: Internal anchor ids naming the formula behind each emitted value.
ANCHORS = {
    "ball-size": "V_{k++k-+1}(n,t)",
    "whole-space-max": "(k++k-) * V_{k++k-+1}(n-1,t-1)",
    "distance-asym": "max one-sided disagreement count, or n+1 past k+",
    "distance-general": "ceil(max(n_small-|mf-mb|,0)/2) + max(mf,mb) + n_large, or n+1",
    "splitting-test": "all e.s distinct and nonzero over 1<=wt(e)<=t",
    "reads-min": "k+^d * V_{k++1}(n-d,t-d) + 1",
    "unique-decode": "distance > t: one read, radius-(d-1) decode",
    "majority-reads": "(k++k-)^(2d) * V_{k++k-+1}(n,t-d) + 1",
    "list-reads-min": "k+^(d+a) * V_{k++1}(n-d-a,f-1-a) + 1",
    "list-reads-majority": "(k++k-)^(d+a+1) * V_{k++k-+1}(n-d-a,f-1-a) + 1",
    "sauer-reads": "V_{k++k-+1}(n,f-1-a) + 1",
    "simplex-reads": "C(m+t-d,m) + 1",
}


def _rat(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def parse_grid(flag: str, text: str) -> list[range]:
    """The ranges of grid flag --``flag``, none of them built; a malformed
    value, or a range whose end is below its start, raises ValueError
    instead of giving no values."""
    ranges = []
    for part in text.split(","):
        part = part.strip()
        try:
            bounds = [parse_int(v, f"--{flag}") for v in part.split(":")]
        except ValueError:
            bounds = []
        if not 1 <= len(bounds) <= 2:
            raise ValueError(
                f"--{flag}: bad grid value {part!r} (expected A, A:B or a comma list)"
            )
        if bounds[-1] < bounds[0]:
            raise ValueError(f"--{flag}: range {part} ends below its start")
        ranges.append(range(bounds[0], bounds[-1] + 1))
    return ranges


def _grid_size(ranges: list[range]) -> int:
    """How many values ``ranges`` hold."""
    return sum(r.stop - r.start for r in ranges)


def single_value(flag: str, text: str) -> int:
    """The one value of a grid flag that takes a single value here; a range
    or list raises ValueError, without being built, instead of being cut to
    its first value."""
    ranges = parse_grid(flag, text)
    if _grid_size(ranges) != 1:
        raise ValueError(f"--{flag} takes one value here, got {text}")
    return ranges[0].start


def parse_vector(flag: str, text: str) -> tuple[int, ...]:
    """The comma-separated integers of --``flag``; a malformed value raises
    ValueError naming the flag and the value."""
    try:
        return tuple(parse_int(v, f"--{flag}") for v in text.split(","))
    except ValueError:
        raise ValueError(f"--{flag}: bad vector {text!r} (expected comma-separated integers)")


def load_vectors(text: str, source: str) -> list[tuple[int, ...]]:
    """The codewords of explicit code file ``source``, whose text is ``text``."""
    lines = payload_lines(text, source)
    return [tuple(parse_int(v, where) for v in line.split(",")) for where, line in lines]


def parse_code_spec(text: str, n: int | None = None, cap: int = DEFAULT_ENUM_CAP):
    """Resolve a --code value into a code handle (or SimplexCode).  A
    ``splitter:`` or ``explicit:`` code has its own length, which a given
    --n must equal; a ``sum-mod:`` splitter's n entries are charged against
    ``cap`` before they are built.  A code file is read on every call and
    checked once per distinct text, its handle cached as ("code", kind, text)."""
    kind, _, rest = text.partition(":")
    if kind == "sum-mod":
        if n is None:
            raise ValueError("sum-mod codes need --n")
        modulus = parse_int(rest, "--code")
        charge(n, "splitter entries", cap)
        spec = lattice.SplitterSpec(lattice.cyclic(modulus), ((1,),) * n)
        return lattice.LatticeCode(spec)
    if kind == "splitter":
        code = lattice.LatticeCode(lattice.parse_splitter_spec(rest))
    elif kind in ("explicit", "simplex"):
        if not rest.startswith("@"):
            raise ValueError(f"{kind} codes are loaded from a file: {kind}:@FILE")
        path, text = rest[1:], Path(rest[1:]).read_text(encoding="utf-8")
        code = combinatorics.cached(("code", kind, text), lambda: (
            tandem.parse_simplex_code(text, path) if kind == "simplex"
            else ExplicitCode(load_vectors(text, path))))
        if kind == "simplex":
            return code
    else:
        raise ValueError(f"unknown code spec {text!r}")
    if n is not None and n != code.n:
        raise ValueError(f"--n {n} does not match the code's length {code.n}")
    return code


def code_distance(code, p: ChannelParams, cap: int) -> int:
    if isinstance(code, lattice.LatticeCode):
        return lattice.lattice_min_distance(code.spec, p.k_plus, p.k_minus, cap=cap)
    if isinstance(code, ExplicitCode):
        return distances.code_min_distance(code, p)
    raise ValueError("cannot compute a distance for this code")


class Report:
    """Collects rows and emits either an aligned table or JSON records."""

    def __init__(self, columns: list[str], fmt: str, explain: bool):
        self.columns = list(columns)
        if explain and "anchor" not in self.columns:
            self.columns.append("anchor")
        self.fmt = fmt
        self.explain = explain
        self.rows: list[dict] = []
        self.notes: list[str] = []

    def add(self, **row) -> None:
        if not self.explain:
            row.pop("anchor", None)
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        if self.fmt == "records":
            import json

            # a Fraction, which JSON cannot hold, is rendered as "p/q"
            lines = [
                json.dumps({c: r.get(c, "") for c in self.columns}, separators=(",", ":"),
                           default=_rat)
                for r in self.rows
            ]
            lines.extend(f"# {note}" for note in self.notes)
            return "\n".join(lines) + "\n"
        cells = [[_rat(r.get(c, "")) for c in self.columns] for r in self.rows]
        widths = [
            max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
            for i, c in enumerate(self.columns)
        ]
        lines = ["  ".join(c.ljust(w) for c, w in zip(self.columns, widths)).rstrip()]
        for row in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        lines.extend(f"# {note}" for note in self.notes)
        if self.explain:
            used = sorted({r.get("anchor") for r in self.rows} - {None, ""})
            lines.append("# anchor legend:")
            for a in used:
                lines.append(f"#   {a}: {ANCHORS.get(a, '?')}")
        return "\n".join(lines) + "\n"


def emit(report: Report, args, chunks: Iterable[str] | None = None) -> None:
    """Write the rendered report, or the strings of ``chunks`` one after
    another in its place, to --out or stdout."""
    chunks = [report.render()] if chunks is None else chunks
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _skip_note(n: int, t: int, kp: int, km: int, reason) -> str:
    return f"skipped n={n} t={t} kp={kp} km={km}: {reason}"


def _channel_flags(args, parse) -> list:
    """--n, --t, --kp and --km, each parsed by ``parse(flag, text)``."""
    if not (args.n and args.t and args.kp):
        raise ValueError("this command needs --n, --t and --kp")
    return [parse(flag, getattr(args, flag)) for flag in ("n", "t", "kp", "km")]


def _grid_params(args, report: Report):
    """Yield the ChannelParams of each point of the flag grids, in grid
    order; a point that violates a precondition is noted as skipped.  Each
    flag's value count, the point count, then its random read sets (none
    without --trials), is charged against --cap (``DEFAULT_ENUM_CAP`` for a
    command without it) before any value is built."""
    cap = getattr(args, "cap", DEFAULT_ENUM_CAP)
    grids = _channel_flags(args, parse_grid)
    sizes = list(map(_grid_size, grids))
    for flag, size in zip(GRID, sizes):
        charge(size, f"values of --{flag}", cap)
    charge(math.prod(sizes), "points of the --n, --t, --kp and --km grid", cap)
    charge(math.prod(sizes) * getattr(args, "trials", 0), "random read sets", cap)
    for point in product(*map(chain.from_iterable, grids)):
        try:
            p = ChannelParams(*point)
        except ValueError as exc:
            report.note(_skip_note(*point, exc))
        else:
            yield p


def _oracle_cells(row: dict, claim: str, **brute) -> int:
    """Add the one brute-force cell and the match cell to row; the status
    bit is 1 when the brute-force value differs from ``row[claim]``."""
    (value,) = brute.values()
    row.update(brute, match="MATCH" if value == row[claim] else "MISMATCH")
    return int(value != row[claim])


def cmd_ball(args) -> int:
    report = Report(["n", "t", "kp", "km", "size", "brute", "match"], args.format, args.explain)
    status = 0
    for p in _grid_params(args, report):
        row = dict(n=p.n, t=p.t, kp=p.k_plus, km=p.k_minus, anchor="ball-size")
        row["size"] = combinatorics.ball_size(p)
        if args.oracle:
            ball = combinatorics.ball_matrix(p, args.cap)
            status |= _oracle_cells(row, "size", brute=len(ball))
        report.add(**row)
    emit(report, args)
    return status


def cmd_intersect(args) -> int:
    report = Report(
        ["n", "t", "kp", "km", "formula", "brute", "match"], args.format, args.explain
    )
    status = 0
    for p in _grid_params(args, report):
        if p.t < 1:
            report.note(_skip_note(*astuple(p), "needs t >= 1"))
            continue
        row = dict(n=p.n, t=p.t, kp=p.k_plus, km=p.k_minus, anchor="whole-space-max")
        row["formula"] = combinatorics.max_intersection_whole_space(p)
        if args.oracle:
            charge(p.n, "entries of the zero word", DEFAULT_ENUM_CAP)
            zero = (0,) * p.n
            brute = combinatorics.intersection_exact(zero, (1,) + zero[1:], p)
            status |= _oracle_cells(row, "formula", brute=brute)
        report.add(**row)
    emit(report, args)
    return status


def cmd_distance(args) -> int:
    if not args.kp:
        raise ValueError("distance needs --kp")
    x = parse_vector("x", args.x)
    y = parse_vector("y", args.y)
    kp = single_value("kp", args.kp)
    km = single_value("km", args.km)
    p = ChannelParams(len(x), 0, kp, km)
    report = Report(["x", "y", "kp", "km", "distance"], args.format, args.explain)
    d = distances.distance_general(x, y, p)
    report.add(
        x=",".join(map(str, x)),
        y=",".join(map(str, y)),
        kp=kp,
        km=km,
        distance=d,
        anchor="distance-asym" if km == 0 else "distance-general",
    )
    if args.explain:
        c = distances.distance_components(x, y, p)
        report.note(
            f"components: n_small={c.n_small} n_large={c.n_large} "
            f"m_forward={c.m_forward} m_backward={c.m_backward} exceeds={c.exceeds}"
        )
    emit(report, args)
    return 0


def cmd_check_splitting(args) -> int:
    if not (args.t and args.kp):
        raise ValueError("check-splitting needs --t and --kp")
    # the flags are checked before the code is built, which may take long
    t, kp, km = (single_value(flag, getattr(args, flag)) for flag in ("t", "kp", "km"))
    if t < 1:
        raise ValueError("t must be >= 1")
    ChannelParams(t, t, kp, km)  # k+ and k- as the channel checks them
    code = parse_code_spec(args.code, single_value("n", args.n) if args.n else None, args.cap)
    if not isinstance(code, lattice.LatticeCode):
        raise ValueError("check-splitting needs a lattice code")
    spec = code.spec
    report = Report(
        ["spec", "kp", "km", "t", "splitting", "packing", "match"],
        args.format,
        args.explain,
    )
    p = ChannelParams(spec.n, t, kp, km)
    row = dict(spec=str(spec), kp=p.k_plus, km=p.k_minus, t=p.t, anchor="splitting-test")
    row["splitting"] = lattice.check_partial_splitting(spec, p, args.cap)
    status = 0
    if args.oracle:
        packs = lattice.max_pairwise_intersection_lattice(spec, p, args.cap) == 0
        status = _oracle_cells(row, "splitting", packing=packs)
    report.add(**row)
    emit(report, args)
    return status


def _transmitted_word(code, n: int, text: str | None = None) -> tuple[int, ...]:
    """The codeword --x names, or by default the zero word, or the first
    codeword of an explicit code that does not contain zero."""
    if text:
        x = parse_vector("x", text)
        if not code.contains(x):
            raise ValueError(f"--x {text} is not a codeword")
        return x
    x = (0,) * n
    if not code.contains(x) and isinstance(code, ExplicitCode):
        return code.members[0]
    return x


def _given_delta(delta, distance: int) -> int:
    """--delta's value, or the code's ``distance`` when ``delta`` is None; a
    --delta above the distance raises ValueError."""
    if delta is not None and delta > distance:
        raise ValueError(f"--delta {delta} exceeds the code's distance {distance}; the "
                         f"read-count guarantees assume delta <= distance")
    return distance if delta is None else delta


def _trials(args, report: Report, plan, code, x, N: int, reads: str):
    """Yield (weights, sizes, hits, share) for each block of N-read sets
    around x at ``plan``'s point: how many read sets each set stands for,
    the ``channel.score_sets`` of its ``ReadPlan.decode`` rows, and each
    set's equal share of the elapsed ns (0 unless --timings is given).
    Exhaustive reads under a ``ReadPlan.minimum_only`` plan come from
    ``channel.minimum_sets``, one set per distinct minimum weighted by its
    count of read sets; all other blocks come from ``channel.read_blocks``,
    each set weighing 1.  Both check each block as they build it, so it is
    decoded as it comes.  When N distinct reads cannot come from the ball,
    note the point as skipped and yield nothing."""
    p = plan.p
    size = combinatorics.ball_size(p)
    if N > size:
        report.note(_skip_note(*astuple(p), f"N={N} exceeds ball size {size}"))
        return
    if reads == "exhaustive" and plan.minimum_only:
        blocks = channel.minimum_sets(x, p, N, args.cap)
    else:
        blocks = (
            (block, np.ones(len(block), dtype=np.int64))
            for block in channel.read_blocks(x, p, N, reads, args.trials, args.seed, args.cap)
        )
    start = time.monotonic_ns()
    for block, weights in blocks:
        decoded = plan.decode(block, code, args.cap)
        share = (time.monotonic_ns() - start) // len(block) if args.timings else 0
        yield (weights, *channel.score_sets(decoded, len(block), x), share)
        start = time.monotonic_ns()


def _recon_row(args, algorithm: str, a: int, report: Report):
    """The report row of a reconstruct or list run, holding the columns of
    both commands, or None when its point is skipped (a run that is not
    skipped decodes at least one set)."""
    p = ChannelParams(*_channel_flags(args, single_value))
    code = parse_code_spec(args.code, p.n, args.cap)
    delta = single_value("delta", args.delta) if args.delta else None
    distance = code_distance(code, p, cap=args.cap)
    plan = reconstruction.read_plan(algorithm, p, _given_delta(delta, distance), a)
    N = args.N or plan.N
    x = _transmitted_word(code, p.n, args.x)
    sets = successes = longest = 0
    for weights, sizes, hits, _ in _trials(args, report, plan, code, x, N, args.reads):
        sets += int(weights.sum())
        successes += int(weights[hits].sum())
        longest = max(longest, int(sizes.max()))
    return dict(
        alg=args.alg, code=args.code, n=p.n, t=p.t, kp=p.k_plus, km=p.k_minus,
        delta=plan.delta, a=plan.a, N=N, tau="" if plan.tau is None else plan.tau,
        sets=sets, success=successes, fail=sets - successes, contains_x=successes,
        max_list=longest, bound=plan.bound, anchor=plan.anchor,
    ) if sets else None


def cmd_reconstruct(args) -> int:
    report = Report(
        ["alg", "code", "n", "t", "kp", "km", "delta", "N", "tau", "sets", "success", "fail"],
        args.format,
        args.explain,
    )
    row = _recon_row(args, args.alg, 0, report)
    if row:
        report.add(**row)
    emit(report, args)
    return 1 if row and row["fail"] else 0


def cmd_list(args) -> int:
    report = Report(
        ["alg", "n", "t", "kp", "km", "delta", "a", "N", "sets",
         "contains_x", "max_list", "bound", "match"],
        args.format,
        args.explain,
    )
    a = single_value("a", args.a) if args.a else 0
    row = _recon_row(args, f"list-{args.alg}", a, report)
    ok = not row or (row["contains_x"] == row["sets"] and row["max_list"] <= row["bound"])
    if row:
        report.add(**row, match="MATCH" if ok else "MISMATCH")
    emit(report, args)
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    columns = ["alg", "n", "t", "kp", "km", "delta", "N", "trials", "success"]
    report = Report(columns, args.format, args.explain)
    given_delta = single_value("delta", args.delta) if args.delta else None
    blocks = []  # per decoded block, its record_lines arguments, rendered at emit
    status = 0
    for p in _grid_params(args, report):
        code = parse_code_spec(args.code, p.n, args.cap)
        distance = code_distance(code, p, cap=args.cap)
        try:
            plan = reconstruction.read_plan(args.alg, p, _given_delta(given_delta, distance), 0)
        except ValueError as exc:
            report.note(_skip_note(*astuple(p), exc))
            continue
        x = _transmitted_word(code, p.n)
        trials = successes = 0
        for _, sizes, hits, share in _trials(args, report, plan, code, x, plan.N, "random"):
            if args.format == "records":
                blocks.append((p, plan.N, trials, hits, sizes, share))
            trials += len(hits)
            successes += int(hits.sum())
        if trials:
            status |= successes < trials
            report.add(
                alg=args.alg, n=p.n, t=p.t, kp=p.k_plus, km=p.k_minus, delta=plan.delta,
                N=plan.N, trials=args.trials, success=successes, anchor=plan.anchor,
            )
    if args.format == "records":
        # BLOCK_BYTES of lines at a time, a line charged 256 bytes: its 180-220
        # characters and its string object
        step = rows_per_block(256)
        records = (
            "\n".join(channel.record_lines(
                channel.RNG_NAME, args.seed, p, args.alg, N, first + i,
                hits[i:i + step].tolist(), sizes[i:i + step].tolist(), share)) + "\n"
            for p, N, first, hits, sizes, share in blocks for i in range(0, len(hits), step)
        )
        emit(report, args, chain(records, (f"# {note}\n" for note in report.notes)))
    else:
        emit(report, args)
    return status


def cmd_tandem(args) -> int:
    code = parse_code_spec(args.code)
    if not isinstance(code, tandem.SimplexCode):
        raise ValueError("tandem needs --code simplex:@FILE")
    t = single_value("t", args.t)
    delta = _given_delta(single_value("delta", args.delta) if args.delta else None, code.delta)
    N = args.N or tandem.reads_required_simplex(code.m, t, delta)
    report = Report(
        ["m", "r", "t", "delta", "N", "sets", "success", "fail"],
        args.format,
        args.explain,
    )
    sets, successes = tandem.simplex_min_counts(code, t, N, delta, args.cap)
    shell = math.comb(code.m + t, code.m)  # the outermost shell is the largest
    if N > shell:
        report.note(f"skipped m={code.m} r={code.r} t={t} delta={delta}: "
                    f"N={N} exceeds the largest shell size {shell}")
    else:
        report.add(
            m=code.m, r=code.r, t=t, delta=delta, N=N,
            sets=sets, success=successes, fail=sets - successes, anchor="simplex-reads",
        )
    emit(report, args)
    return 1 if sets > successes else 0


def integer(text: str) -> int:
    """An integer flag's value (``parse_int``)."""
    return parse_int(text, "integer")


def positive_int(text: str) -> int:
    value = integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: The argparse keywords of each flag that several commands take.
FLAGS = {
    "n": dict(help="length grid, e.g. 4 or 2:5 or 2,4"),
    "t": dict(help="error-count grid"),
    "kp": dict(help="k+ grid"),
    "km": dict(default="0", help="k- grid (default 0)"),
    "format": dict(choices=("table", "records"), default="table"),
    "out": dict(help="write the report to this file"),
    "oracle": dict(action="store_true", help="run brute-force cross-checks"),
    "explain": dict(action="store_true", help="show formula anchors"),
    "cap": dict(type=integer, default=DEFAULT_ENUM_CAP, help="enumeration cap"),
    "code": dict(required=True),
    "seed": dict(type=integer, default=0,
                 help="seed in [0, 2**64) of the one Philox generator all random read "
                 "sets are drawn from; trial i depends only on it, the ball, N and i "
                 "(used by --reads random only)"),
    "trials": dict(type=positive_int, default=10,
                   help="read sets per point, used by --reads random only"),
    "delta": dict(help="code distance (computed when omitted)"),
    "x": dict(help="transmitted codeword (default: the zero word, or the first "
              "codeword of an explicit code without it)"),
    "reads": dict(choices=("random", "exhaustive", "adversarial"), default="random"),
    "N": dict(type=positive_int, help="read count (default: formula value)"),
}

GRID = ("n", "t", "kp", "km")
REPORT = ("format", "out", "explain")
TRIALS = (*GRID, *REPORT, "cap", "seed", "trials", "code", "delta")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.  Each command
    takes only the flags its ``cmd_*`` function reads, kept in its ``flags``
    table (``_read_table``), and its --alg choices are the names of
    ``reconstruction.ALGORITHMS``.  Reusing the parser is
    safe: ``prog`` is fixed, no default is mutable and no action appends,
    so ``parse_args`` leaves nothing behind for the next call."""
    parser = argparse.ArgumentParser(
        prog="magrec",
        description="limited-magnitude reconstruction: formulas, oracles, trials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each command's name -> its own parser
    unique = [name for name in reconstruction.ALGORITHMS if not name.startswith("list-")]
    listed = [name.removeprefix("list-") for name in reconstruction.ALGORITHMS
              if name.startswith("list-")]

    def command(name, help_text, func, flags, **own):
        """Add subcommand ``name`` with the FLAGS entries named in ``flags``,
        then each flag of ``own`` with its own keywords."""
        sp = sub.add_parser(name, help=help_text)
        sp.flags = {}  # each option string -> its action, the table parse_args reads
        for flag, kwargs in [*((flag, FLAGS[flag]) for flag in flags), *own.items()]:
            sp.flags[f"--{flag}"] = sp.add_argument(f"--{flag}", **kwargs)
        sp.set_defaults(func=func)
        return sp

    command("ball", "error-ball sizes", cmd_ball, (*GRID, *REPORT, "oracle", "cap"))
    command("intersect", "worst-case two-ball intersections", cmd_intersect,
            (*GRID, *REPORT, "oracle"))
    command("distance", "channel distance between two vectors", cmd_distance,
            ("kp", "km", *REPORT), x=dict(required=True, help="comma-separated vector"),
            y=dict(required=True, help="comma-separated vector"))
    command("check-splitting", "partial splitting test", cmd_check_splitting,
            (*GRID, *REPORT, "oracle", "cap", "code"))
    # _trials reads --timings, which only simulate's per-trial records keep
    command("reconstruct", "unique reconstruction trials", cmd_reconstruct,
            (*TRIALS, "x", "reads", "N"), alg=dict(choices=unique, required=True)
            ).set_defaults(timings=False)
    command("list", "list-reconstruction trials", cmd_list,
            (*TRIALS, "x", "reads", "N"), alg=dict(choices=listed, required=True),
            a=dict(help="list exponent (default 0)")).set_defaults(timings=False)
    command("simulate", "seeded trial sweeps over a grid", cmd_simulate, TRIALS,
            alg=dict(choices=unique, required=True),
            timings=dict(action="store_true",
                         help="include real elapsed_ns (breaks byte determinism)"))
    command("tandem", "simplex reconstruction for duplications", cmd_tandem,
            (*REPORT, "cap", "N"), code=dict(required=True, help="simplex:@FILE"),
            t=dict(required=True, help="duplication count bound"),
            delta=dict(help="reconstruction distance, at most the file header's "
                       "(default: the header's)"))
    return parser


def _read_table(command: argparse.ArgumentParser, words: list[str]):
    """The namespace of command line ``words`` (its first word names
    ``command``) read off ``command.flags``, or None when the table refuses
    it.  It reads a line only when every later word is an exact ``--flag
    value`` whose value does not start with "-", an exact ``--flag=value``
    or a bare store_true flag, every value passes its action's type and
    choices, and every required flag is given.  Defaults are filled as
    argparse fills them: a string default goes through its type, then the
    command's ``set_defaults`` go under the names still unset."""
    flags, values = command.flags, {}
    rest = iter(words[1:])
    for word in rest:
        flag, eq, text = word.partition("=")
        action = flags.get(flag)
        if action is None or (eq and action.nargs == 0):
            return None
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        if not eq:
            text = next(rest, "-")  # a missing value is refused as a "-" one is
            if text.startswith("-"):
                return None
        try:
            value = action.type(text) if action.type else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in flags.values():
        if action.dest not in values:
            if action.required:
                return None
            default = action.default
            values[action.dest] = (action.type(default) if action.type and isinstance(default, str)
                                   else default)
    return argparse.Namespace(**{**command._defaults, **values}, command=words[0])


def parse_args(argv=None) -> argparse.Namespace:
    """The namespace of command line ``argv`` (default: the process's),
    read in one loop off the flag table of the command its first word names
    (``_read_table``).  Any line the table refuses (no command, ``-h``, an
    abbreviation, ``--``, a value starting with "-", a bad value or a
    missing required flag) goes to the full parser, so every usage text,
    error line and exit code is argparse's own."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    args = _read_table(command, argv) if command else None
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ReconstructionError, EnumerationCapExceeded, OSError, MemoryError) as exc:
        # numpy's MemoryError names the refused size; Python's names nothing
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
