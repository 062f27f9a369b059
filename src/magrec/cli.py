"""Command-line front end.

Every numeric claim a subcommand prints can be cross-checked against a
brute-force oracle with --oracle; a mismatch is the headline failure mode
and exits nonzero.  Output is deterministic for fixed flags and seed
(timings are zeroed unless --timings is given).

Code mini-language for --code:

* ``sum-mod:M``       all-ones splitter over Z_M (length from --n);
* ``splitter:SPEC``   SPEC is ``group=Z4xZ3; s=[(1,0),(0,2),(1,1)]``
                      (rank-1 groups may list bare integers, ``s=[1,2]``);
* ``explicit:@FILE``  UTF-8 text, one codeword per line, comma-separated
                      integers, ``#`` comments;
* ``simplex:@FILE``   same, preceded by a header line ``m=,r=,delta=``.

Grid flags (--n, --t, --kp, --km, --delta, --a) accept a single value
``2``, a range ``1:3`` (inclusive), or a comma list ``1,2,4``.  Grid points
that violate a precondition are reported as skipped, never silently
dropped.  Records mode emits one JSON object per line with a fixed,
documented field order; rationals are rendered as ``p/q``.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from magrec import channel, combinatorics, distances, lattice, reconstruction, tandem
from magrec.core import (
    ChannelParams,
    EnumerationCapExceeded,
    ExplicitCode,
    ReconstructionError,
)

#: Internal anchor ids naming the formula behind each emitted value.
ANCHORS = {
    "hamming-volume": "V_q(n,r) = sum_{i<=r} C(n,i)(q-1)^i",
    "ball-size": "V_{k++k-+1}(n,t)",
    "whole-space-max": "(k++k-) * V_{k++k-+1}(n-1,t-1)",
    "pair-bounds-asym": "sum C(n-2d,i)k+^i  <=  .  <=  sum C(n-d,i)k+^i sum C(d,k)(k+-1)^(d-k)",
    "pair-bounds-general": "sum C(n-2d,i)(k++k-)^i  <=  .  <=  sum C(n,i)(k++k-)^(i+2d)",
    "distance-asym": "max one-sided disagreement count, or n+1 past k+",
    "distance-general": "ceil(max(n_small-|mf-mb|,0)/2) + max(mf,mb) + n_large, or n+1",
    "splitting-test": "all e.s distinct and nonzero over 1<=wt(e)<=t",
    "reads-min": "k+^d * V_{k++1}(n-d,t-d) + 1",
    "unique-decode": "distance > t: one read, radius-(d-1) decode",
    "majority-reads": "(k++k-)^(2d) * V_{k++k-+1}(n,t-d) + 1",
    "majority-threshold": "(1-2/d)N + (2(k++k-)^d/d) V_{k++k-+1}(n-d,t-d)",
    "list-reads-min": "k+^(d+a) * V_{k++1}(n-d-a,f-1-a) + 1",
    "list-reads-majority": "(k++k-)^(d+a+1) * V_{k++k-+1}(n-d-a,f-1-a) + 1",
    "list-threshold-majority": "(1-2/(d+a))N + (2/(d+a)) sum C(n-d-a,i)(k++k-)^(i+d+a)",
    "list-size-majority": "(k++k-+1)^(2t(d+a)) * V_{k++k-+1}(n,a)",
    "sauer-reads": "V_{k++k-+1}(n,f-1-a) + 1",
    "list-size-sauer": "(k++k-+1)^(2(f-a)) * V_{k++k-+1}(n-f+a,a)",
    "simplex-reads": "C(m+t-d,m) + 1",
}


def _rat(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def parse_grid(text: str) -> list[int]:
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ":" in part:
            lo, hi = part.split(":")
            values.extend(range(int(lo), int(hi) + 1))
        else:
            values.append(int(part))
    return values


def parse_vector(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def load_vectors(path: str) -> list[tuple[int, ...]]:
    out = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(tuple(int(v) for v in line.split(",")))
    return out


def parse_code_spec(text: str, n: int | None = None):
    """Resolve a --code value into a code handle (or SimplexCode)."""
    kind, _, rest = text.partition(":")
    if kind == "sum-mod":
        if n is None:
            raise ValueError("sum-mod codes need --n")
        modulus = int(rest)
        spec = lattice.SplitterSpec(lattice.cyclic(modulus), ((1,),) * n)
        return lattice.lattice_code_handle(spec)
    if kind == "splitter":
        return lattice.lattice_code_handle(lattice.parse_splitter_spec(rest))
    if kind == "explicit":
        if not rest.startswith("@"):
            raise ValueError("explicit codes are loaded from a file: explicit:@FILE")
        return ExplicitCode(load_vectors(rest[1:]))
    if kind == "simplex":
        if not rest.startswith("@"):
            raise ValueError("simplex codes are loaded from a file: simplex:@FILE")
        return tandem.parse_simplex_code(Path(rest[1:]).read_text(encoding="utf-8"))
    raise ValueError(f"unknown code spec {text!r}")


def code_distance(code, k_plus: int, k_minus: int, cap: int) -> int:
    if isinstance(code, lattice.LatticeCode):
        return lattice.lattice_min_distance(code.spec, k_plus, k_minus, cap=cap)
    if isinstance(code, ExplicitCode):
        return distances.code_min_distance(code.members, k_plus, k_minus)
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

            def jval(v):
                if isinstance(v, Fraction):
                    return _rat(v)
                return v

            lines = [
                json.dumps(
                    {c: jval(r.get(c, "")) for c in self.columns},
                    separators=(",", ":"),
                )
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


def emit(report: Report, args) -> None:
    text = report.render()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _grid_params(args):
    """Yield ChannelParams for the flag grids, plus skip records."""
    if not (args.n and args.t and args.kp):
        raise ValueError("this command needs --n, --t and --kp")
    skipped = []
    points = []
    for n in parse_grid(args.n):
        for t in parse_grid(args.t):
            for kp in parse_grid(args.kp):
                for km in parse_grid(args.km):
                    try:
                        points.append(ChannelParams(n, t, kp, km))
                    except ValueError as exc:
                        skipped.append(f"skipped n={n} t={t} kp={kp} km={km}: {exc}")
    return points, skipped


def cmd_ball(args) -> int:
    report = Report(["n", "t", "kp", "km", "size", "brute", "match"], args.format, args.explain)
    points, skipped = _grid_params(args)
    status = 0
    for p in points:
        row = dict(n=p.n, t=p.t, kp=p.k_plus, km=p.k_minus, anchor="ball-size")
        row["size"] = combinatorics.ball_size(p)
        if args.oracle:
            brute = len(combinatorics.enumerate_ball(p, cap=args.cap))
            row["brute"] = brute
            row["match"] = "MATCH" if brute == row["size"] else "MISMATCH"
            if brute != row["size"]:
                status = 1
        report.add(**row)
    for s in skipped:
        report.note(s)
    emit(report, args)
    return status


def cmd_intersect(args) -> int:
    report = Report(
        ["n", "t", "kp", "km", "formula", "brute", "match"], args.format, args.explain
    )
    points, skipped = _grid_params(args)
    status = 0
    for p in points:
        if p.t < 1:
            skipped.append(f"skipped n={p.n} t={p.t}: needs t >= 1")
            continue
        row = dict(n=p.n, t=p.t, kp=p.k_plus, km=p.k_minus, anchor="whole-space-max")
        row["formula"] = combinatorics.max_intersection_whole_space(p)
        if args.oracle:
            zero = (0,) * p.n
            e1 = (1,) + (0,) * (p.n - 1)
            brute = combinatorics.intersection_exact(zero, e1, p, cap=args.cap)
            row["brute"] = brute
            row["match"] = "MATCH" if brute == row["formula"] else "MISMATCH"
            if brute != row["formula"]:
                status = 1
        report.add(**row)
    for s in skipped:
        report.note(s)
    emit(report, args)
    return status


def cmd_distance(args) -> int:
    if not args.kp:
        raise ValueError("distance needs --kp")
    x = parse_vector(args.x)
    y = parse_vector(args.y)
    kp = parse_grid(args.kp)[0]
    km = parse_grid(args.km)[0]
    report = Report(["x", "y", "kp", "km", "distance"], args.format, args.explain)
    d = distances.distance_general(x, y, kp, km)
    report.add(
        x=",".join(map(str, x)),
        y=",".join(map(str, y)),
        kp=kp,
        km=km,
        distance=d,
        anchor="distance-asym" if km == 0 else "distance-general",
    )
    if args.explain:
        c = distances.distance_components(x, y, kp, km)
        report.note(
            f"components: n_small={c.n_small} n_large={c.n_large} "
            f"m_forward={c.m_forward} m_backward={c.m_backward} exceeds={c.exceeds}"
        )
    emit(report, args)
    return 0


def cmd_check_splitting(args) -> int:
    if not (args.t and args.kp):
        raise ValueError("check-splitting needs --t and --kp")
    code = parse_code_spec(args.code, n=parse_grid(args.n)[0] if args.n else None)
    if not isinstance(code, lattice.LatticeCode):
        raise ValueError("check-splitting needs a lattice code")
    spec = code.spec
    report = Report(
        ["spec", "kp", "km", "t", "splitting", "packing", "match"],
        args.format,
        args.explain,
    )
    status = 0
    kp = parse_grid(args.kp)[0]
    km = parse_grid(args.km)[0]
    t = parse_grid(args.t)[0]
    ok = lattice.check_partial_splitting(spec, kp, km, t, cap=args.cap)
    row = dict(spec=str(spec), kp=kp, km=km, t=t, anchor="splitting-test")
    row["splitting"] = ok
    if args.oracle:
        packs = lattice.packing_by_differences(spec, kp, km, t, cap=args.cap)
        row["packing"] = packs
        row["match"] = "MATCH" if packs == ok else "MISMATCH"
        if packs != ok:
            status = 1
    report.add(**row)
    emit(report, args)
    return status


def _resolve_recon_setup(args):
    if not (args.n and args.t and args.kp):
        raise ValueError("this command needs --n, --t and --kp")
    n = parse_grid(args.n)[0]
    t = parse_grid(args.t)[0]
    kp = parse_grid(args.kp)[0]
    km = parse_grid(args.km)[0]
    p = ChannelParams(n, t, kp, km)
    code = parse_code_spec(args.code, n=n)
    actual = code_distance(code, kp, km, cap=args.cap)
    if args.delta:
        delta = parse_grid(args.delta)[0]
        if delta > actual:
            raise ValueError(
                f"--delta {delta} exceeds the code's distance {actual}; the "
                f"read-count guarantees assume delta <= distance"
            )
    else:
        delta = actual
    if args.x:
        x = parse_vector(args.x)
        if not code.contains(x):
            raise ValueError(f"--x {args.x} is not a codeword")
    else:
        x = (0,) * n
        if not code.contains(x):
            x = code.members[0] if isinstance(code, ExplicitCode) else x
    return p, code, delta, x


def _read_plan(alg: str, p: ChannelParams, delta: int):
    """(N, tau, anchor) for a unique-reconstruction run.

    A code distance beyond t means unique decoding of a single read covers
    every error pattern; the multi-read formulas only apply at delta <= t.
    """
    if delta > p.t:
        return 1, None, "unique-decode"
    if alg == "min":
        return (
            reconstruction.reads_required_min(p.n, p.t, p.k_plus, delta),
            None,
            "reads-min",
        )
    N, tau = reconstruction.majority_threshold(p.n, p.t, p.k_plus, p.k_minus, delta)
    return N, tau, "majority-reads"


def cmd_reconstruct(args) -> int:
    p, code, delta, x = _resolve_recon_setup(args)
    alg = args.alg
    default_n, tau, anchor = _read_plan(alg, p, delta)
    N = args.N or default_n
    report = Report(
        ["alg", "code", "n", "t", "kp", "km", "delta", "N", "tau", "sets", "success", "fail"],
        args.format,
        args.explain,
    )
    size = combinatorics.ball_size(p)
    if N > size:
        report.note(
            f"skipped: N={N} distinct reads cannot come from a ball of size {size}"
        )
        emit(report, args)
        return 0

    def run_one(Y):
        if anchor == "unique-decode":
            return code.decode_within(Y.anchor, delta - 1, p)
        if alg == "min":
            return reconstruction.reconstruct_min(Y, code, delta)
        return reconstruction.reconstruct_majority(Y, tau, code, delta)

    successes = failures = sets = 0
    if args.reads == "exhaustive":
        for Y in channel.exhaustive_read_sets(x, p, N, cap=args.cap):
            sets += 1
            try:
                ok = run_one(Y) == x
            except ReconstructionError:
                ok = False
            successes += ok
            failures += not ok
    else:
        for i in range(args.trials):
            mode = "random_distinct" if args.reads == "random" else "adversarial_heavy"
            rs = channel.ReadGenSpec(mode, N, seed=args.seed + i)
            Y = channel.generate_reads(x, p, rs)
            sets += 1
            try:
                ok = run_one(Y) == x
            except ReconstructionError:
                ok = False
            successes += ok
            failures += not ok
            if args.reads == "adversarial":
                break
    report.add(
        alg=alg,
        code=args.code,
        n=p.n,
        t=p.t,
        kp=p.k_plus,
        km=p.k_minus,
        delta=delta,
        N=N,
        tau="" if tau is None else tau,
        sets=sets,
        success=successes,
        fail=failures,
        anchor=anchor,
    )
    emit(report, args)
    return 1 if failures else 0


def cmd_list(args) -> int:
    p, code, delta, x = _resolve_recon_setup(args)
    a = parse_grid(args.a)[0] if args.a else 0
    alg = args.alg
    if alg == "min":
        N = reconstruction.list_params_min(p.n, p.t, p.k_plus, delta, a)
        tau = None
        bound = combinatorics.hamming_volume(p.k_plus + 1, p.n, a)
        anchor = "list-reads-min"
    elif alg == "majority":
        N, tau = reconstruction.list_params_general(
            p.n, p.t, p.k_plus, p.k_minus, delta, a
        )
        bound = reconstruction.majority_list_size_bound(
            p.t, p.k_plus, p.k_minus, delta, a, p.n
        )
        anchor = "list-reads-majority"
    else:
        N = reconstruction.sauer_reads_required(p.n, p.t, p.k_plus, p.k_minus, delta, a)
        tau = None
        bound = reconstruction.sauer_list_size_bound(
            p.t, p.k_plus, p.k_minus, delta, a, p.n
        )
        anchor = "sauer-reads"
    N = args.N or N
    report = Report(
        ["alg", "n", "t", "kp", "km", "delta", "a", "N", "sets",
         "contains_x", "max_list", "bound", "match"],
        args.format,
        args.explain,
    )
    size = combinatorics.ball_size(p)
    if N > size:
        report.note(
            f"skipped: N={N} distinct reads cannot come from a ball of size {size}"
        )
        emit(report, args)
        return 0

    def read_sets():
        if args.reads == "exhaustive":
            yield from channel.exhaustive_read_sets(x, p, N, cap=args.cap)
        elif args.reads == "adversarial":
            yield channel.generate_reads(x, p, channel.ReadGenSpec("adversarial_heavy", N))
        else:
            for i in range(args.trials):
                rs = channel.ReadGenSpec("random_distinct", N, seed=args.seed + i)
                yield channel.generate_reads(x, p, rs)

    contains = 0
    max_list = 0
    sets = 0
    for Y in read_sets():
        try:
            if alg == "min":
                L = reconstruction.list_reconstruct_min(Y, code, delta, a)
            elif alg == "majority":
                L = reconstruction.list_reconstruct_majority(Y, tau, code, delta, a)
            else:
                L = reconstruction.list_reconstruct_sauer(Y, code, delta, a)
        except ReconstructionError:
            L = ()
        contains += x in L
        max_list = max(max_list, len(L))
        sets += 1
    ok = contains == sets and max_list <= bound
    report.add(
        alg=alg,
        n=p.n,
        t=p.t,
        kp=p.k_plus,
        km=p.k_minus,
        delta=delta,
        a=a,
        N=N,
        sets=sets,
        contains_x=contains,
        max_list=max_list,
        bound=bound,
        match="MATCH" if ok else "MISMATCH",
        anchor=anchor,
    )
    emit(report, args)
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    code_cache: dict[int, object] = {}
    rows = []
    skipped = []
    trial_lines = []
    status = 0
    for n in parse_grid(args.n):
        for t in parse_grid(args.t):
            for kp in parse_grid(args.kp):
                for km in parse_grid(args.km):
                    try:
                        p = ChannelParams(n, t, kp, km)
                    except ValueError as exc:
                        skipped.append(f"skipped n={n} t={t} kp={kp} km={km}: {exc}")
                        continue
                    if n not in code_cache:
                        code_cache[n] = parse_code_spec(args.code, n=n)
                    code = code_cache[n]
                    actual = code_distance(code, kp, km, cap=args.cap)
                    delta = parse_grid(args.delta)[0] if args.delta else actual
                    if delta > actual:
                        skipped.append(
                            f"skipped n={n} t={t} kp={kp} km={km}: delta={delta} "
                            f"exceeds the code's distance {actual}"
                        )
                        continue
                    try:
                        N, _, anchor = _read_plan(args.alg, p, delta)
                    except ValueError as exc:
                        skipped.append(f"skipped n={n} t={t} kp={kp} km={km}: {exc}")
                        continue
                    if anchor == "unique-decode" and args.alg == "majority":
                        skipped.append(
                            f"skipped n={n} t={t} kp={kp} km={km}: distance > t "
                            f"needs only one read; use reconstruct"
                        )
                        continue
                    if N > combinatorics.ball_size(p):
                        skipped.append(
                            f"skipped n={n} t={t} kp={kp} km={km}: "
                            f"N={N} exceeds ball size {combinatorics.ball_size(p)}"
                        )
                        continue
                    x = (0,) * n
                    successes = 0
                    for i in range(args.trials):
                        rs = channel.ReadGenSpec(
                            "random_distinct", N, seed=args.seed + i
                        )
                        rec = channel.run_trial(code, args.alg, x, p, rs, delta)
                        if not args.timings:
                            rec = channel.TrialRecord(
                                rec.rng, rec.seed, rec.params, rec.algorithm,
                                rec.N, rec.success, rec.list_size, 0,
                            )
                        successes += rec.success
                        trial_lines.append(rec.to_line())
                        if not rec.success:
                            status = 1
                    rows.append(
                        dict(
                            alg=args.alg, n=n, t=t, kp=kp, km=km, delta=delta,
                            N=N, trials=args.trials, success=successes,
                        )
                    )
    if args.format == "records":
        text = "\n".join(trial_lines + [f"# {s}" for s in skipped]) + "\n"
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    else:
        report = Report(
            ["alg", "n", "t", "kp", "km", "delta", "N", "trials", "success"],
            args.format,
            args.explain,
        )
        for row in rows:
            report.add(**row)
        for s in skipped:
            report.note(s)
        emit(report, args)
    return status


def cmd_tandem(args) -> int:
    code = parse_code_spec(args.code)
    if not isinstance(code, tandem.SimplexCode):
        raise ValueError("tandem needs --code simplex:@FILE")
    t = parse_grid(args.t)[0]
    delta = parse_grid(args.delta)[0] if args.delta else code.delta
    N = args.N or tandem.reads_required_simplex(code.m, t, delta)
    report = Report(
        ["m", "r", "t", "delta", "N", "sets", "success", "fail"],
        args.format,
        args.explain,
    )
    successes = failures = sets = 0
    for x in code.members:
        for Y in tandem.exhaustive_simplex_read_sets(x, t, N, cap=args.cap):
            sets += 1
            try:
                ok = tandem.reconstruct_simplex_min(Y, code, delta) == x
            except ReconstructionError:
                ok = False
            successes += ok
            failures += not ok
    report.add(
        m=code.m, r=code.r, t=t, delta=delta, N=N,
        sets=sets, success=successes, fail=failures, anchor="simplex-reads",
    )
    emit(report, args)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magrec",
        description="limited-magnitude reconstruction: formulas, oracles, trials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, grids=True, seed=False):
        if grids:
            sp.add_argument("--n", help="length grid, e.g. 4 or 2:5 or 2,4")
            sp.add_argument("--t", help="error-count grid")
            sp.add_argument("--kp", help="k+ grid")
            sp.add_argument("--km", default="0", help="k- grid (default 0)")
        sp.add_argument("--format", choices=("table", "records"), default="table")
        sp.add_argument("--out", help="write the report to this file")
        sp.add_argument("--oracle", action="store_true", help="run brute-force cross-checks")
        sp.add_argument("--explain", action="store_true", help="show formula anchors")
        sp.add_argument("--cap", type=int, default=10**7, help="enumeration cap")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--trials", type=int, default=10)
            sp.add_argument("--timings", action="store_true",
                            help="include real elapsed_ns (breaks byte determinism)")

    sp = sub.add_parser("ball", help="error-ball sizes")
    common(sp)
    sp.set_defaults(func=cmd_ball)

    sp = sub.add_parser("intersect", help="worst-case two-ball intersections")
    common(sp)
    sp.set_defaults(func=cmd_intersect)

    sp = sub.add_parser("distance", help="channel distance between two vectors")
    common(sp)
    sp.add_argument("--x", required=True, help="comma-separated vector")
    sp.add_argument("--y", required=True, help="comma-separated vector")
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("check-splitting", help="partial splitting test")
    common(sp)
    sp.add_argument("--code", required=True)
    sp.set_defaults(func=cmd_check_splitting)

    sp = sub.add_parser("reconstruct", help="unique reconstruction trials")
    common(sp, seed=True)
    sp.add_argument("--alg", choices=("min", "majority"), required=True)
    sp.add_argument("--code", required=True)
    sp.add_argument("--delta", help="code distance (computed when omitted)")
    sp.add_argument("--x", help="transmitted codeword (default: zero vector)")
    sp.add_argument("--reads", choices=("random", "exhaustive", "adversarial"),
                    default="random")
    sp.add_argument("--N", type=int, help="read count (default: formula value)")
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("list", help="list-reconstruction trials")
    common(sp, seed=True)
    sp.add_argument("--alg", choices=("min", "majority", "sauer"), required=True)
    sp.add_argument("--code", required=True)
    sp.add_argument("--delta", help="code distance (computed when omitted)")
    sp.add_argument("--a", help="list exponent (default 0)")
    sp.add_argument("--x", help="transmitted codeword (default: zero vector)")
    sp.add_argument("--reads", choices=("random", "exhaustive", "adversarial"),
                    default="random")
    sp.add_argument("--N", type=int, help="read count (default: formula value)")
    sp.set_defaults(func=cmd_list)

    sp = sub.add_parser("simulate", help="seeded trial sweeps over a grid")
    common(sp, seed=True)
    sp.add_argument("--alg", choices=("min", "majority"), required=True)
    sp.add_argument("--code", required=True)
    sp.add_argument("--delta", help="code distance (computed when omitted)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("tandem", help="simplex reconstruction for duplications")
    common(sp, grids=False)
    sp.add_argument("--code", required=True, help="simplex:@FILE")
    sp.add_argument("--t", required=True, help="duplication count bound")
    sp.add_argument("--delta", help="reconstruction distance (default: file header)")
    sp.add_argument("--N", type=int, help="read count (default: formula value)")
    sp.set_defaults(func=cmd_tandem)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ReconstructionError, EnumerationCapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
