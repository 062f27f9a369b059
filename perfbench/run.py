"""magrec benchmark: drives ``magrec.cli.main`` in-process, checks every output.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload recon-trials --seed 1 --seconds 25 --trace 0

One client in a closed loop: each command is issued when the previous one
returns, in one process with no threads.  ``--seconds`` sets the run length
as a number of fixed rounds (see ``workloads.ROUND_SECONDS``), so a run of a
given length does the same work on every commit and for every seed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
commands with every traced function wrapped (``tracing.py``) and reports the
per-layer metrics.  The last line of standard output is the result object;
the line before it records the seed, the ``output_sha256`` of the
concatenated command outputs, the latency sample count and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
SETUP_PROBES = 7

# Start-up of a process that only imports numpy, and its usual wall time on
# the reference host.  Process start-up there drifts by up to 2x within
# seconds, apart from the CPU speed that ``calibrate()`` follows; scaling
# each set-up probe by the reference start-ups around it cut the quartile
# spread of single probes from 0.48 to 0.10.
REFERENCE_ARGV = [sys.executable, "-c", "import numpy"]
REFERENCE_S = 0.15

# Reference time of ``calibrate()``, in ns: about its usual time on the
# reference host (2-CPU Xeon VM, Python 3.11).  That shared host's speed
# swings by up to 1.7x within seconds and drifts over minutes, slowing all
# Python code alike.  Each command's time is therefore multiplied by
# CALIBRATION_NS over the mean time of the calibration loops run just before
# and just after it, which reports it at a fixed speed: over ten recon-trials
# runs this cut the quartile spread of cmd_p50_ms from 0.53 to 0.05.  The
# loop uses no magrec code, so a change to the program cannot move it.
CALIBRATION_NS = 4_000_000


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import the CLI from this checkout's ``src/`` (pulls in numpy)."""
    if not (SRC / "magrec" / "cli.py").is_file():
        _fail(f"no magrec sources under {SRC}; run from the root of a magrec checkout")
    sys.path.insert(0, str(SRC))
    from magrec import cli

    if Path(cli.__file__).resolve().parent != SRC / "magrec":
        _fail(f"imported magrec from {cli.__file__}, not from {SRC}")
    return cli


def _setup(workload: str, seed: int, rounds: int, codes: Path):
    """Everything before the first command: import, code files, command list."""
    cli = _import_program()
    workloads.write_code_files(codes)
    return cli, workloads.build(workload, seed, rounds, codes.as_posix())


def calibrate() -> int:
    """Time, in ns, of a fixed pure-Python loop: tuples, dict updates and a
    generator, the operations magrec spends its time on."""
    start = time.perf_counter_ns()
    counts: dict = {}
    acc = 0
    for i in range(3000):
        v = tuple(range(i % 7, i % 7 + 6))
        counts[v] = counts.get(v, 0) + 1
        acc += sum(x * x for x in v) % 13
    return time.perf_counter_ns() - start


# -- output checks -----------------------------------------------------------

def _check(cmd, rc: int, out: str, err: str) -> tuple[bool, int]:
    """(passed, read sets reconstructed) for one command's output.

    Checked by meaning: exit code 0 and no ``error:`` line, no skipped grid
    point, and per kind: ``recon`` has fail == 0 and success == sets;
    ``list`` has MATCH and contains_x == sets; ``simulate`` has every one of
    the expected trial records successful; ``oracle`` has MATCH on every row.
    """
    if rc != 0 or "error:" in err or "error:" in out:
        return False, 0
    lines = out.splitlines()
    if not lines or any(line.startswith("#") for line in lines):
        return False, 0
    try:
        rows = [json.loads(line) for line in lines]
        if cmd.kind == "simulate":
            ok = len(rows) == cmd.expect and all(r["success"] is True for r in rows)
            return ok, len(rows)
        if cmd.kind == "oracle":
            return all(r["match"] == "MATCH" for r in rows), 0
        (row,) = rows
        sets = row["sets"]
        if cmd.kind == "recon":
            ok = sets > 0 and row["fail"] == 0 and row["success"] == sets
        else:
            ok = sets > 0 and row["match"] == "MATCH" and row["contains_x"] == sets
        return ok, sets
    except (ValueError, KeyError, TypeError):  # not the records this check expects
        return False, 0


def run_commands(cli, commands, digest=None, speed=None):
    """Issue each command when the previous one returns.

    Returns (latency in ns per command, read sets per command, failed
    command count).  A command whose output check fails, or that raises,
    counts as failed; none is retried or dropped.  With a ``speed`` list,
    ``calibrate()`` runs before each command and after the last one, and its
    times are appended.
    """
    latencies, sets, failed = [], [], 0
    for cmd in commands:
        if speed is not None:
            speed.append(calibrate())
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception:  # a crash is a failed command, not a crashed run
            rc = -1
            err.write(traceback.format_exc())
        latencies.append(time.perf_counter_ns() - start)
        ok, n = _check(cmd, rc, out.getvalue(), err.getvalue())
        if not ok:
            failed += 1
            print(f"perfbench: check failed: magrec {' '.join(cmd.argv)}\n"
                  f"{out.getvalue()}{err.getvalue()}", file=sys.stderr)
        sets.append(n)
        if digest is not None:
            digest.update(out.getvalue().encode())
    if speed is not None:
        speed.append(calibrate())
    return latencies, sets, failed


# -- environment -------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "magrec").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
    }


# -- set-up time -------------------------------------------------------------

def _run_child(argv: list[str]) -> str:
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        _fail(f"{' '.join(argv[1:])} failed:\n{proc.stderr}")
    return proc.stdout


def _reference_s() -> float:
    start = time.monotonic()
    _run_child(REFERENCE_ARGV)
    return time.monotonic() - start


def measure_setup(workload: str, seed: int, seconds: float):
    """Set-up time of fresh processes, from spawn to the moment the first
    command could be issued: (scaled, raw, reference) sample lists.

    Each probe runs between two spawns of ``REFERENCE_ARGV`` and is scaled
    by REFERENCE_S over their mean time, as ``calibrate()`` scales commands.
    CLOCK_MONOTONIC is system-wide, so the child's reading compares with
    the parent's.
    """
    references = [_reference_s()]
    scaled, raw = [], []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--setup-only", str(i)]
        start = time.monotonic()
        raw.append(float(_run_child(argv).split()[-1]) - start)
        references.append(_reference_s())
        scaled.append(raw[-1] * 2 * REFERENCE_S / (references[-2] + references[-1]))
    return scaled, raw, references


# -- runs --------------------------------------------------------------------

def _scales(speed: list[int]) -> list[float]:
    """Per-command factor to the reference speed, from the calibration loops
    run just before and just after the command."""
    return [2 * CALIBRATION_NS / (a + b) for a, b in zip(speed, speed[1:])]


def _summary(latencies, sets, scales, rounds) -> dict:
    """Throughputs are medians over rounds, each round's count over the time
    its commands took; latencies are percentiles over all commands.  Every
    latency is first multiplied by its factor in ``scales``."""
    ms = [ns * k / 1e6 for ns, k in zip(latencies, scales)]
    size = len(ms) // rounds
    cmds, reads = [], []
    for r in range(0, len(ms), size):
        busy_s = sum(ms[r : r + size]) / 1e3
        cmds.append(size / busy_s)
        reads.append(sum(sets[r : r + size]) / busy_s)
    return {
        "cmds_per_s": statistics.median(cmds),
        "sets_per_s": statistics.median(reads),
        "cmd_p50_ms": statistics.median(ms),
        "cmd_p90_ms": statistics.quantiles(ms, n=10)[-1],
    }


def run_plain(cli, commands, args, rounds, digest):
    setup, setup_raw, setup_reference = measure_setup(args.workload, args.seed, args.seconds)
    speed: list[int] = []
    latencies, sets, failed = run_commands(cli, commands, digest, speed)
    values = _summary(latencies, sets, _scales(speed), rounds)
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = {"setup_s": "s", "cmds_per_s": "1/s", "sets_per_s": "1/s",
             "cmd_p50_ms": "ms", "cmd_p90_ms": "ms", "peak_rss_mb": "MB"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    raw = _summary(latencies, sets, [1.0] * len(latencies), rounds)
    record = {
        "cmd_samples": len(latencies),
        "beyond_p90": sum(ns / 1e6 > raw["cmd_p90_ms"] for ns in latencies),
        "host_slowdown": statistics.median(speed) / CALIBRATION_NS,
        "unscaled": raw,
        "setup_raw_s": setup_raw,
        "setup_reference_s": setup_reference,
    }
    return metrics, failed, record


def _scaled_busy_ns(latencies, speed) -> float:
    return sum(ns * k for ns, k in zip(latencies, _scales(speed)))


def run_traced(cli, commands, rounds, digest):
    import tracing

    tracer = tracing.Tracer()
    speed: list[int] = []
    with tracer.installed():
        latencies, sets, failed = run_commands(cli, commands, digest, speed)
    values = tracer.metrics(CALIBRATION_NS / statistics.median(speed))

    # Overhead: the first round again, untraced then traced, both with the
    # caches as the traced pass left them.
    first = commands[: len(commands) // rounds]
    plain_speed, traced_speed = [], []
    plain, _, f1 = run_commands(cli, first, speed=plain_speed)
    with tracing.Tracer().installed():
        traced, _, f2 = run_commands(cli, first, speed=traced_speed)
    values["trace.overhead_ratio"] = (
        _scaled_busy_ns(traced, traced_speed) / _scaled_busy_ns(plain, plain_speed)
    )

    baseline = tracing.Tracer()
    command = workloads.Command(tracing.BASELINE_ARGV + ("--format", "records"), "recon")
    with baseline.installed():
        _, _, f3 = run_commands(cli, [command])
    main_s = baseline.total_s("cli.main")
    for name in tracing.BASELINE_SHARES:
        values[f"baseline.{name}.share"] = baseline.total_s(name) / main_s

    units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    record = {
        "cmd_samples": len(latencies),
        "host_slowdown": statistics.median(speed) / CALIBRATION_NS,
        "baseline_argv": list(tracing.BASELINE_ARGV),
        "baseline_main_s": main_s,
        "side_checks_failed": f1 + f2 + f3,
    }
    return metrics, failed, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    rounds = max(1, round(args.seconds / workloads.ROUND_SECONDS[args.workload]))

    if args.setup_only is not None:
        codes = WORK / f"probe-{args.setup_only}"
        try:
            _setup(args.workload, args.seed, rounds, codes)
            print(time.monotonic(), flush=True)
        finally:
            shutil.rmtree(codes, ignore_errors=True)
        return 0

    codes = WORK / "codes"
    try:
        cli, commands = _setup(args.workload, args.seed, rounds, codes)
        digest = hashlib.sha256()
        if args.trace:
            metrics, failed, record = run_traced(cli, commands, rounds, digest)
        else:
            metrics, failed, record = run_plain(cli, commands, args, rounds, digest)
    finally:
        shutil.rmtree(codes, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    record.update(
        workload=args.workload,
        seed=args.seed,
        rounds=rounds,
        trace=args.trace,
        output_sha256=digest.hexdigest(),
        fail_share=failed / len(commands),
        environment=environment(),
    )
    print(json.dumps({"record": record}))
    correct = failed == 0 and not record.get("side_checks_failed")
    print(json.dumps({
        "correct": correct,
        "attempted": len(commands),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
