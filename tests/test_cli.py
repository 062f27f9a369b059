import ast
import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import random
import resource
import shlex
import subprocess
import sys
import time
from itertools import chain, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magrec import ChannelParams, cli, combinatorics
from magrec.cli import main, parse_code_spec, parse_grid
from magrec.reconstruction import ALGORITHMS, read_plan
from magrec.lattice import LatticeCode
from magrec.core import ExplicitCode
from magrec.tandem import (
    SimplexCode,
    format_simplex_code,
    greedy_simplex_code,
    parse_simplex_code,
)

from helpers import empty_cache, oracle_exhaustive_totals


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def grid_values(flag, text):
    return list(chain.from_iterable(parse_grid(flag, text)))


def test_parse_grid():
    assert grid_values("n", "2") == [2]
    assert grid_values("n", "1:3") == [1, 2, 3]
    assert grid_values("n", "1,2,4") == [1, 2, 4]
    assert grid_values("n", "1:2,5") == [1, 2, 5]


@pytest.mark.parametrize("argv, flag, text", [
    ("ball --n 3:1 --t 1 --kp 1", "n", "3:1"),
    ("intersect --n 3 --t 2:1 --kp 1", "t", "2:1"),
    ("simulate --alg min --code sum-mod:2 --n 2 --t 1 --kp 1 --km 1:0", "km", "1:0"),
])
def test_reversed_grid_range_is_one_error_line(argv, flag, text, capsys):
    with pytest.raises(ValueError, match=text):
        parse_grid(flag, text)
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: --{flag}: range {text} ends below its start\n"


@pytest.mark.parametrize("argv, message", [
    ("ball --n 1:1000000000000000 --t 1 --kp 1",
     "1000000000000000 values of --n exceed enumeration cap 10000000"),
    ("intersect --n 1:1000000000000000 --t 1 --kp 1",
     "1000000000000000 values of --n exceed enumeration cap 10000000"),
    ("reconstruct --alg majority --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1 "
     "--delta 1:1000000000000000", "--delta takes one value here, got 1:1000000000000000"),
    ("ball --n 1:4000 --t 1:4000 --kp 1",
     "16000000 points of the --n, --t, --kp and --km grid exceed enumeration cap 10000000"),
    ("ball --n 1:3 --t 1 --kp 1 --cap 2", "3 values of --n exceed enumeration cap 2"),
    ("ball --n 1:3 --t 1:2 --kp 1 --cap 5",
     "6 points of the --n, --t, --kp and --km grid exceed enumeration cap 5"),
])
def test_huge_grid_is_counted_before_it_is_built(argv, message, capsys):
    # a grid of 10**15 values would need 8 PB as a list: it must be refused
    # from its count, with one error: line naming the flag
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_grid_at_the_cap_runs(capsys):
    assert main("ball --n 1:3,7 --t 1 --kp 1 --cap 3".split()) == 1
    assert capsys.readouterr().err == "error: 4 values of --n exceed enumeration cap 3\n"
    assert main("ball --n 1:3,7 --t 1 --kp 1 --cap 4".split()) == 0
    assert main("ball --n 1:3 --t 1:2 --kp 1 --cap 6".split()) == 0


GRID = "grid value", "A, A:B or a comma list"
VECTOR = "vector", "comma-separated integers"


@pytest.mark.parametrize("command", [
    "reconstruct --alg min", "list --alg min --delta 1", "simulate --alg min",
])
def test_a_twenty_digit_trial_count_is_one_error_line(command, capsys):
    # a million trials take a fraction of a second, so 10**20 would run for
    # about 10**13 s: the count is charged against --cap before any is drawn
    trials = "99999999999999999999"
    argv = f"{command} --code sum-mod:2 --n 3 --t 1 --kp 1 --trials {trials}".split()
    start = time.monotonic()
    assert main(argv) == 1
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {trials} random read sets exceed enumeration cap 10000000\n"


@pytest.mark.parametrize("argv, flag, text, kind", [
    ("ball --n 3:1:2 --t 1 --kp 1", "n", "3:1:2", GRID),
    ("ball --n 1:x --t 1 --kp 1", "n", "1:x", GRID),
    ("simulate --alg min --code sum-mod:2 --n 2 --t 1 --kp 1,x", "kp", "x", GRID),
    ("reconstruct --alg min --code sum-mod:2 --n 4 --t 2:x --kp 1", "t", "2:x", GRID),
    ("distance --x 1,,2 --y 1,2,3 --kp 1", "x", "1,,2", VECTOR),
    ("distance --x 1,2,3 --y 1,y,3 --kp 1", "y", "1,y,3", VECTOR),
    ("reconstruct --alg min --code sum-mod:2 --n 2 --t 1 --kp 1 --x 0,", "x", "0,", VECTOR),
])
def test_malformed_grid_value_is_one_error_line_naming_flag_and_value(
    argv, flag, text, kind, capsys
):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    what, expected = kind
    assert captured.err == f"error: --{flag}: bad {what} {text!r} (expected {expected})\n"


def test_ball_example(capsys):
    code, out = run_cli(capsys, "ball", "--n", "2", "--t", "1", "--kp", "1", "--km", "1")
    assert code == 0
    assert out.splitlines()[1].split()[:5] == ["2", "1", "1", "1", "5"]


def test_ball_oracle_reports_a_wrong_formula(monkeypatch, capsys):
    empty_cache(monkeypatch)
    volume = combinatorics.hamming_volume
    # one point of the formula off by one: V_3(2, 1) = 5, reported as 6
    monkeypatch.setattr(
        combinatorics, "hamming_volume",
        lambda q, n, r: volume(q, n, r) + ((q, n, r) == (3, 2, 1)),
    )
    code, out = run_cli(
        capsys, "ball", "--n", "1:2", "--t", "1", "--kp", "1", "--km", "1", "--oracle"
    )
    assert code == 1
    assert [line.split() for line in out.splitlines()[1:]] == [
        ["1", "1", "1", "1", "3", "3", "MATCH"],
        ["2", "1", "1", "1", "6", "5", "MISMATCH"],
    ]


def test_intersect_oracle_match(capsys):
    code, out = run_cli(
        capsys, "intersect", "--n", "4", "--t", "1", "--kp", "1", "--km", "0", "--oracle"
    )
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[4] == "1" and row[5] == "1" and row[6] == "MATCH"


def test_intersect_grid_skips_invalid(capsys):
    code, out = run_cli(
        capsys, "intersect", "--n", "2", "--t", "1:3", "--kp", "1", "--oracle"
    )
    assert code == 0
    assert "skipped" in out  # t = 3 > n = 2 is listed, not dropped


def test_reconstruct_exhaustive_example(capsys):
    code, out = run_cli(
        capsys,
        "reconstruct", "--alg", "min", "--code", "sum-mod:2",
        "--n", "2", "--t", "1", "--kp", "1", "--reads", "exhaustive",
    )
    assert code == 0
    row = out.splitlines()[1].split()
    # 3 subsets of the 3-element ball, all successful
    assert row[-3:] == ["3", "3", "0"]


def test_distance_records(capsys):
    code, out = run_cli(
        capsys, "distance", "--x", "1,1,0", "--y", "0,0,0", "--kp", "1",
        "--format", "records",
    )
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["distance"] == 2


def test_distance_of_a_trivial_channel_is_one_error_line(capsys):
    # the distance builds its channel like every other command
    code = main(["distance", "--x", "1,2", "--y", "0,0", "--kp", "0", "--km", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: k_plus + k_minus = 0 makes the channel trivial\n"


def test_one_codeword_explicit_code_decodes_every_set(tmp_path, capsys):
    # a code of one word has no distance within n: n + 1, the one-read plan
    f = tmp_path / "one.txt"
    f.write_text("0,0,0\n", encoding="utf-8")
    records = {}
    for command in ("reconstruct", "simulate"):
        code, out = run_cli(
            capsys, command, "--alg", "majority", "--code", f"explicit:@{f}",
            "--n", "3", "--t", "1", "--kp", "1", "--km", "1", "--format", "records",
        )
        assert code == 0
        records[command] = [json.loads(line) for line in out.splitlines()]
    (row,) = records["reconstruct"]
    assert (row["delta"], row["N"], row["sets"], row["fail"]) == (4, 1, 10, 0)
    assert [rec["success"] for rec in records["simulate"]] == [True] * 10


def test_reconstruct_on_an_explicit_code_builds_it_once(tmp_path, capsys, monkeypatch):
    # the code distance reuses the member matrix of the code it is given; the
    # cache starts empty, so the one build is this command's
    empty_cache(monkeypatch)
    f = tmp_path / "two.txt"
    f.write_text("0,0,0,0\n1,1,-1,0\n", encoding="utf-8")
    real, builds = ExplicitCode.__init__, []

    def counting_init(self, members):
        builds.append(1)
        real(self, members)

    with mock.patch.object(ExplicitCode, "__init__", counting_init):
        code, out = run_cli(
            capsys, "reconstruct", "--alg", "majority", "--code", f"explicit:@{f}",
            "--n", "4", "--t", "2", "--kp", "1", "--km", "1", "--trials", "3",
            "--format", "records",
        )
    assert code == 0
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert (row["delta"], row["fail"]) == (2, 0)
    assert len(builds) == 1


def test_list_commands_run_the_one_read_plan_past_t(tmp_path, capsys):
    # distance 2 > t = 1 (and n + 1 for a one-word code): one read, one word
    f = tmp_path / "one.txt"
    f.write_text("0,0,0\n", encoding="utf-8")
    runs = [
        ("majority", "splitter:group=Z13; s=[1,2,3,4,5,6]", "6", 2),
        ("sauer", f"explicit:@{f}", "3", 4),
    ]
    for alg, spec, n, delta in runs:
        code, out = run_cli(
            capsys, "list", "--alg", alg, "--code", spec, "--n", n, "--t", "1",
            "--kp", "1", "--km", "1", "--format", "records",
        )
        assert code == 0
        (row,) = map(json.loads, out.splitlines())
        assert (row["delta"], row["N"], row["max_list"], row["bound"]) == (delta, 1, 1, 1)
        assert row["match"] == "MATCH"
    # a > 0 lists nothing more under one read: still an error
    code = main(["list", "--alg", "sauer", "--code", f"explicit:@{f}", "--n", "3",
                 "--t", "1", "--kp", "1", "--km", "1", "--a", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: need a = 0 at delta > t (one read decodes), got a=1\n"
    )


def test_intersect_oracle_past_the_default_cap(capsys):
    # the exact count builds no ball, so no cap applies
    code, out = run_cli(
        capsys, "intersect", "--n", "40", "--t", "20", "--kp", "3", "--km", "3", "--oracle",
    )
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[4] == row[5] == "295892263903763880460612554" and row[6] == "MATCH"


def test_check_splitting(capsys):
    code, out = run_cli(
        capsys, "check-splitting", "--code", "splitter:group=Z7; s=[1,2]",
        "--kp", "1", "--km", "1", "--t", "1", "--oracle",
    )
    assert code == 0
    assert "MATCH" in out
    code, out = run_cli(
        capsys, "check-splitting", "--code", "splitter:group=Z2; s=[1,1]",
        "--kp", "1", "--km", "0", "--t", "2", "--oracle",
    )
    assert code == 0
    assert "False" in out and "MATCH" in out


def test_check_splitting_refuses_k_plus_below_k_minus_with_and_without_oracle(capsys):
    argv = [
        "check-splitting", "--code", "splitter:group=Z7; s=[1,2]",
        "--kp", "0", "--km", "1", "--t", "1",
    ]
    for extra in ([], ["--oracle"]):
        code = main(argv + extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: need k_plus >= k_minus >= 0, got (0, 1)\n"


def test_splitting_over_a_group_beyond_int64_is_exact(capsys):
    code, out = run_cli(
        capsys, "check-splitting", "--code", f"splitter:group=Z{2**62}; s=[1,2]",
        "--kp", "1", "--km", "1", "--t", "1",
    )
    assert code == 0
    assert out.splitlines()[1].split()[-1] == "True"


def test_list_subcommand(capsys):
    code, out = run_cli(
        capsys, "list", "--alg", "sauer", "--code", "sum-mod:3",
        "--n", "4", "--t", "2", "--kp", "1", "--km", "1",
        "--delta", "1", "--a", "1", "--trials", "5", "--seed", "3",
    )
    assert code == 0
    assert "MATCH" in out


def test_simulate_records_deterministic(capsys):
    argv = [
        "simulate", "--alg", "min", "--code", "sum-mod:2",
        "--n", "2:3", "--t", "1:2", "--kp", "1",
        "--trials", "2", "--seed", "5", "--format", "records",
    ]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    first = json.loads(out1.splitlines()[0])
    assert first["rng"] == "philox" and first["elapsed_ns"] == 0
    assert first["success"] is True


def test_simulate_records_name_the_seed_and_their_trial(capsys):
    code, out = run_cli(
        capsys, "simulate", "--alg", "majority", "--code", "sum-mod:3", "--n", "4:5",
        "--t", "1", "--kp", "1", "--km", "1", "--trials", "3", "--seed", "9",
        "--format", "records",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["seed"], r["trial"]) for r in records] == [(9, i) for i in range(3)] * 2
    assert all(list(r)[:3] == ["rng", "seed", "trial"] for r in records)


@pytest.mark.parametrize("command", ["reconstruct --alg min", "list --alg min", "simulate --alg min"])
def test_largest_seed_runs_every_trial(command, capsys):
    # the one generator of a command takes any 64-bit seed; before, trial i
    # was seeded seed + i, and the second trial of this seed failed
    code, out = run_cli(
        capsys, *command.split(), "--code", "sum-mod:2", "--n", "4", "--t", "2",
        "--kp", "1", "--trials", "2", "--seed", str(2**64 - 1), "--format", "records",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    if command.startswith("simulate"):
        assert [(r["trial"], r["success"]) for r in rows] == [(0, True), (1, True)]
    else:
        (row,) = rows
        assert row["sets"] == row.get("success", row.get("contains_x")) == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_one_error_line(seed, capsys):
    code = main(
        f"reconstruct --alg min --code sum-mod:2 --n 4 --t 2 --kp 1 --trials 2 --seed {seed}"
        .split()
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: seed must fit in 64 bits\n"


def test_simulate_timings_fill_only_elapsed_ns(capsys):
    argv = [
        "simulate", "--alg", "majority", "--code", "sum-mod:3", "--n", "3:4",
        "--t", "1", "--kp", "1", "--km", "1", "--trials", "3", "--seed", "2",
        "--format", "records",
    ]
    code, plain = run_cli(capsys, *argv)
    assert code == 0
    plain = plain.splitlines()
    assert len(plain) == 6
    assert all(json.loads(line)["elapsed_ns"] == 0 for line in plain)
    code, timed = run_cli(capsys, *argv, "--timings")
    assert code == 0
    timed = [json.loads(line) for line in timed.splitlines()]
    assert all(record["elapsed_ns"] > 0 for record in timed)
    # field for field, in the same order, once the timing is zeroed
    zeroed = [json.dumps(dict(r, elapsed_ns=0), separators=(",", ":")) for r in timed]
    assert zeroed == plain


def test_explain_legend(capsys):
    code, out = run_cli(
        capsys, "ball", "--n", "2", "--t", "1", "--kp", "1", "--explain"
    )
    assert code == 0
    assert "anchor legend" in out and "ball-size" in out


def test_tandem_subcommand(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text("m=2,r=3,delta=1\n3,0,0\n0,3,0\n0,0,3\n1,1,1\n", encoding="utf-8")
    code, out = run_cli(capsys, "tandem", "--code", f"simplex:@{f}", "--t", "2")
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[-1] == "0"  # zero failures


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, _ = run_cli(
        capsys, "ball", "--n", "2", "--t", "1", "--kp", "1", "--out", str(target)
    )
    assert code == 0
    assert "size" in target.read_text(encoding="utf-8")


def test_code_spec_parsing(tmp_path):
    assert isinstance(parse_code_spec("sum-mod:3", n=2), LatticeCode)
    assert isinstance(
        parse_code_spec("splitter:group=Z4xZ3; s=[(1,0),(0,2)]"), LatticeCode
    )
    f = tmp_path / "code.txt"
    f.write_text("0,0\n2,2  # comment\n", encoding="utf-8")
    code = parse_code_spec(f"explicit:@{f}")
    assert isinstance(code, ExplicitCode) and len(code) == 2
    s = tmp_path / "simp.txt"
    s.write_text("m=1,r=2,delta=1\n2,0\n0,2\n", encoding="utf-8")
    assert isinstance(parse_code_spec(f"simplex:@{s}"), SimplexCode)
    with pytest.raises(ValueError):
        parse_code_spec("mystery:1")
    with pytest.raises(ValueError):
        parse_code_spec("sum-mod:2")  # needs n
    with pytest.raises(ValueError, match="^--n 3 does not match the code's length 2$"):
        parse_code_spec(f"explicit:@{f}", n=3)
    assert parse_code_spec(f"explicit:@{f}", n=2).n == 2


def test_bad_flags(capsys):
    # an infeasible grid point is listed as skipped, not an error
    code, out = run_cli(capsys, "ball", "--n", "2", "--t", "1", "--kp", "0")
    assert code == 0
    assert "skipped" in out
    # a malformed code spec fails loudly
    code, _ = run_cli(
        capsys, "check-splitting", "--code", "nope:1", "--kp", "1", "--t", "1"
    )
    assert code == 1


def test_enumeration_cap_is_one_error_line(capsys):
    code = main(["ball", "--n", "30", "--t", "10", "--kp", "2", "--km", "2", "--oracle"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # the lattice checks honour --cap too: the packing oracle's box ball
    # B(2, 2, 2, 2) holds 5**2 vectors
    code = main([
        "check-splitting", "--code", "splitter:group=Z7; s=[1,2]",
        "--kp", "1", "--km", "1", "--t", "1", "--oracle", "--cap", "10",
    ])
    assert code == 1
    err = "error: 25 ball vectors exceed enumeration cap 10\n"
    assert capsys.readouterr().err == err
    # the distance's first splitting test, on B(6, 1, 1, 1) of 1 + 6 * 2 vectors
    code = main([
        "reconstruct", "--alg", "min", "--code", "sum-mod:3",
        "--n", "6", "--t", "2", "--kp", "1", "--km", "1", "--cap", "10",
    ])
    assert code == 1
    err = "error: 13 ball vectors exceed enumeration cap 10\n"
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", [
    "check-splitting", "reconstruct --alg min", "list --alg min", "simulate --alg min",
])
@pytest.mark.parametrize("kind", ["splitter", "explicit"])
def test_n_that_disagrees_with_the_code_is_one_error_line(command, kind, tmp_path, capsys):
    # both codes have length 5; a sum-mod code takes its length from --n
    f = tmp_path / "code.txt"
    f.write_text("0,0,0,0,0\n1,1,-1,0,0\n", encoding="utf-8")
    code = {"splitter": "splitter:group=Z13; s=[1,2,3,4,5]", "explicit": f"explicit:@{f}"}
    argv = [*command.split(), "--code", code[kind], "--n", "4", "--t", "1", "--kp", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n 4 does not match the code's length 5\n"
    # at its own length the code gets past the check
    argv[argv.index("--n") + 1] = "5"
    main(argv)
    assert "--n" not in capsys.readouterr().err


def test_exhaustive_cap_error_names_only_what_the_user_can_change(capsys):
    # majority enumerates its C(233, 20) read sets, so they are charged
    code = main(
        "reconstruct --alg majority --code sum-mod:3 --n 6 --t 3 --kp 1 --km 1 "
        "--reads exhaustive --N 20".split()
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "sampled_read_sets" not in captured.err


def _records(argv):
    """(exit code, the one record) of a CLI run with --format records."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "records"])
    return code, json.loads(out.getvalue().splitlines()[0])


def _enumerating(*names):
    """The registry with ``names`` marked as reading more than each set's
    minimum, so exhaustive reads enumerate every set."""
    return mock.patch.dict(ALGORITHMS, {
        name: dataclasses.replace(ALGORITHMS[name], minimum_only=False) for name in names
    })


def _check_exhaustive_row(argv, algorithm, code, x, p, N, delta, a=0):
    """The exhaustive row of ``argv`` against the enumerating oracle's
    totals, and byte for byte against the CLI's own enumerating path."""
    status, row = _records(argv)
    sets, successes, longest = oracle_exhaustive_totals(algorithm, code, x, p, N, delta, a)
    assert row["sets"] == sets
    if algorithm.startswith("list-"):
        assert (row["contains_x"], row["max_list"]) == (successes, longest)
        assert status == (successes < sets or longest > row["bound"])
    else:
        assert (row["success"], row["fail"]) == (successes, sets - successes)
        assert status == (successes < sets)
    with _enumerating(algorithm):
        assert _records(argv) == (status, row)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_exhaustive_minimum_rows_equal_the_enumerating_oracle(data):
    n = data.draw(st.integers(1, 4))
    p = ChannelParams(n, data.draw(st.integers(1, n)), data.draw(st.integers(1, 3)), 0)
    size = combinatorics.ball_size(p)
    # read counts below the formula's leave sets that fail, up to N = |B|
    N = data.draw(st.integers(1, size))
    assume(math.comb(size, N) <= 2000)
    M = data.draw(st.integers(2, 4))
    word = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    x = (word[0] - sum(word) % M, *word[1:])
    argv = ["--code", f"sum-mod:{M}", "--n", str(n), "--t", str(p.t), "--kp", str(p.k_plus),
            "--reads", "exhaustive", "--N", str(N), "--x=" + ",".join(map(str, x)),
            "--cap", str(10**9)]
    code = parse_code_spec(f"sum-mod:{M}", n)
    if data.draw(st.booleans()):
        a = data.draw(st.integers(0, p.t - 1))
        _check_exhaustive_row(["list", "--alg", "min", "--delta", "1", "--a", str(a), *argv],
                              "list-min", code, x, p, N, 1, a)
    else:
        # at the code's distance, which may exceed t (the one-read plan)
        delta = cli.code_distance(code, p, 10**9)
        _check_exhaustive_row(["reconstruct", "--alg", "min", *argv],
                              "min", code, x, p, N, delta)


@pytest.mark.parametrize("alg, N, a", [
    ("min", 3, 0), ("min", 5, 0), ("min", 26, 0),
    ("list-min", 1, 1), ("list-min", 2, 1), ("list-min", 26, 0),
])
def test_exhaustive_minimum_rows_of_an_explicit_code(alg, N, a, tmp_path):
    # the words are at distance 2 under k+ = 1, so min plans N = 5 and
    # list-min at a = 1 plans N = 2; the ball holds 26 vectors
    f = tmp_path / "code.txt"
    f.write_text("0,0,0,0,0\n1,1,0,0,1\n1,1,1,1,1\n", encoding="utf-8")
    p, x = ChannelParams(5, 3, 1, 0), (1, 1, 0, 0, 1)
    code = parse_code_spec(f"explicit:@{f}")
    command = ["reconstruct", "--alg", "min"] if alg == "min" else [
        "list", "--alg", "min", "--a", str(a)]
    argv = [*command, "--code", f"explicit:@{f}", "--n", "5", "--t", "3", "--kp", "1",
            "--reads", "exhaustive", "--N", str(N), "--x", "1,1,0,0,1"]
    _check_exhaustive_row(argv, alg, code, x, p, N, 2, a)


def test_the_one_read_plan_stays_on_the_anchor_path(tmp_path, monkeypatch):
    # distance 4 > t: one read decodes, and with --N 3 each set's anchor,
    # not its minimum, is decoded
    f = tmp_path / "code.txt"
    f.write_text("0,0,0\n2,2,2\n", encoding="utf-8")
    code = parse_code_spec(f"explicit:@{f}")
    p = ChannelParams(3, 1, 2, 0)
    assert not read_plan("min", p, 4).minimum_only
    monkeypatch.setattr(cli.channel, "minimum_sets", mock.Mock(side_effect=AssertionError))
    argv = ["reconstruct", "--alg", "min", "--code", f"explicit:@{f}", "--n", "3",
            "--t", "1", "--kp", "2", "--reads", "exhaustive", "--N", "3", "--x", "2,2,2"]
    _check_exhaustive_row(argv, "min", code, (2, 2, 2), p, 3, 4)
    assert _records(argv)[1]["N"] == 3


def test_each_distinct_minimum_decodes_once(monkeypatch):
    # 8008 sets of the 16-row ball: no more rows than the ball has
    handed = []
    decode_rows = LatticeCode.decode_rows

    def counting(self, U, *args):
        handed.append(len(U))
        return decode_rows(self, U, *args)

    monkeypatch.setattr(LatticeCode, "decode_rows", counting)
    argv = "reconstruct --alg min --code sum-mod:2 --n 5 --t 2 --kp 1 --reads exhaustive"
    status, row = _records(argv.split())
    assert (status, row["sets"], row["fail"]) == (0, 8008, 0)
    assert 0 < sum(handed) <= combinatorics.ball_size(ChannelParams(5, 2, 1, 0)) == 16


@pytest.mark.parametrize("N, fail", [(None, 0), (46, 10)])
def test_the_paper_point_holds_for_every_read_set(N, fail):
    # all C(176, 47) sets of n=10, t=3, k+=1 decode at the planned N = 47,
    # and exactly 10 of the C(176, 46) fail one read below: the read count
    # is tight, shown over every read set at the default cap, which charges
    # the ball the counting builds, not the sets it counts
    argv = ["reconstruct", "--alg", "min", "--code", "sum-mod:2", "--n", "10", "--t", "3",
            "--kp", "1", "--reads", "exhaustive"]
    status, row = _records(argv + (["--N", str(N)] if N else []))
    assert row["N"] == (N or 47)
    assert row["sets"] == math.comb(176, row["N"]) and row["sets"] > 2**63
    assert (row["fail"], status) == (fail, int(fail > 0))


@pytest.mark.parametrize("argv", [
    # an explicit code decodes by its member scan
    "list --alg sauer --code explicit:@TWO --n 4 --t 2 --kp 1 --km 1 --delta 1 --trials 5",
    # a seeded 1000-member code over [-20, 20]^6: its distance comes from one
    # pass over the difference classes, not from a loop over its 499500 pairs
    "reconstruct --alg majority --code explicit:@BIG --n 6 --t 2 --kp 1 --km 1",
    "list --alg sauer --code explicit:@BIG --n 6 --t 2 --kp 1 --km 1 --delta 1",
    # the majority decoder counts its votes and cover-tests each block of
    # candidates at once
    "reconstruct --alg majority --code 'splitter:group=Z13; s=[1,2,3,4,5,6]' --n 6 --t 2 "
    "--kp 1 --km 1 --trials 800",
    "list --alg majority --code 'splitter:group=Z13; s=[1,2,3,4,5,6]' --n 6 --t 2 --kp 1 --km 1",
    "list --alg min --code sum-mod:2 --n 5 --t 2 --kp 1 --reads exhaustive",
    # every formula against its brute-force count
    "ball --n 1:7 --t 0:4 --kp 1:3 --km 0:2 --oracle",
    "intersect --n 2:6 --t 1:3 --kp 1:2 --km 0:1 --oracle",
    # the packing oracle agrees with the splitting test on a product group
    # and on a cyclic spec that does not split
    "check-splitting --code 'splitter:group=Z4xZ3; s=[(1,0),(0,1),(1,1)]' --kp 1 --km 0 --t 1 "
    "--oracle",
    "check-splitting --code 'splitter:group=Z9; s=[1,2,3,4,5,6]' --kp 1 --km 1 --t 1 --oracle",
])
def test_every_set_decodes_and_every_oracle_matches(argv, tmp_path, capsys):
    two, big = tmp_path / "two.txt", tmp_path / "big.txt"
    two.write_text("0,0,0,0\n1,1,-1,0\n", encoding="utf-8")
    big.write_text("".join(
        ",".join(str(v // 41**i % 41 - 20) for i in range(6)) + "\n"
        for v in random.Random(26).sample(range(41**6), 1000)
    ), encoding="utf-8")
    argv = argv.replace("@TWO", f"@{two}").replace("@BIG", f"@{big}")
    code, out = run_cli(capsys, *shlex.split(argv), "--format", "records")
    rows = [json.loads(line) for line in out.splitlines() if not line.startswith("#")]
    assert code == 0 and rows
    assert all(row.get("fail", 0) == 0 and row.get("match", "MATCH") == "MATCH" for row in rows)


def test_list_counts_failed_sauer_sets(capsys):
    # one read is too few for the Sauer search: each set fails, none aborts
    code, out = run_cli(
        capsys, "list", "--alg", "sauer", "--code", "sum-mod:3",
        "--n", "4", "--t", "2", "--kp", "1", "--km", "1",
        "--delta", "1", "--a", "1", "--trials", "5", "--seed", "3", "--N", "1",
    )
    assert code == 1
    row = out.splitlines()[1].split()
    assert row[8:10] == ["5", "0"]  # sets, contains_x
    assert row[-1] == "MISMATCH"


def test_list_exhaustive_reads(capsys):
    code, out = run_cli(
        capsys,
        "list", "--alg", "sauer", "--code", "sum-mod:3",
        "--n", "3", "--t", "2", "--kp", "1", "--km", "1",
        "--delta", "1", "--a", "1", "--reads", "exhaustive",
    )
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[8] == "171"  # C(19, 2) read sets, all checked
    assert row[-1] == "MATCH"


def test_delta_above_code_distance_rejected(capsys):
    code, _ = run_cli(
        capsys,
        "list", "--alg", "sauer", "--code", "sum-mod:3",
        "--n", "4", "--t", "2", "--kp", "1", "--km", "1",
        "--delta", "2", "--a", "0",
    )
    assert code == 1  # sum-mod:3 has distance 1 here; delta 2 breaks premises


def test_unique_decode_regime(tmp_path, capsys):
    # code distance beyond t: a single read reconstructs
    f = tmp_path / "code.txt"
    f.write_text("0,0\n3,3\n-3,3\n", encoding="utf-8")
    code, out = run_cli(
        capsys,
        "reconstruct", "--alg", "min", "--code", f"explicit:@{f}",
        "--n", "2", "--t", "1", "--kp", "1",
        "--reads", "exhaustive", "--x", "3,3",
    )
    assert code == 0
    row = out.splitlines()[1].split()
    assert row[7] == "1"  # N = 1
    assert row[-1] == "0"  # zero failures


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_simulate_skips_channels_the_algorithm_cannot_handle(capsys):
    # min needs k- = 0 and majority k- >= 1: the other point is a skip note
    for alg, ran, skipped in (("min", "0", "1"), ("majority", "1", "0")):
        code, out = run_cli(
            capsys, "simulate", "--alg", alg, "--code", "sum-mod:3",
            "--n", "3", "--t", "1", "--kp", "1", "--km", "0:1", "--trials", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].split()[4] == ran
        assert lines[2].startswith(f"# skipped n=3 t=1 kp=1 km={skipped}: ")


def test_simulate_without_grid_flags_is_one_error_line(capsys):
    code = main(["simulate", "--alg", "min", "--code", "sum-mod:2", "--t", "1", "--kp", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: this command needs --n, --t and --kp\n"


@pytest.mark.parametrize("argv", [
    "reconstruct --alg min --code sum-mod:2 --n 2 --t 1 --kp 1 --trials 0",
    "list --alg min --code sum-mod:2 --n 2 --t 1 --kp 1 --trials -1",
    "simulate --alg min --code sum-mod:2 --n 2 --t 1 --kp 1 --trials 0",
    "reconstruct --alg min --code sum-mod:2 --n 2 --t 1 --kp 1 --N 0",
    "list --alg sauer --code sum-mod:2 --n 2 --t 1 --kp 1 --N 0",
    "tandem --code simplex:@code.txt --t 1 --N 0",
])
def test_counts_below_one_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_simulate_runs_one_read_plan(tmp_path, capsys):
    # code distance 3 > t: both algorithms run one-read trials on any channel
    f = tmp_path / "code.txt"
    f.write_text("0,0\n3,3\n-3,3\n", encoding="utf-8")
    for alg in ("min", "majority"):
        code, out = run_cli(
            capsys, "simulate", "--alg", alg, "--code", f"explicit:@{f}",
            "--n", "2", "--t", "1", "--kp", "1", "--km", "0:1", "--trials", "3",
        )
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [row[4:] for row in rows] == [["0", "3", "1", "3", "3"], ["1", "3", "1", "3", "3"]]


def test_simulate_transmits_a_codeword_of_an_explicit_code(tmp_path, capsys):
    # the code lacks the zero word, so simulate sends its first codeword,
    # as reconstruct does
    f = tmp_path / "code.txt"
    f.write_text("1,1\n4,4\n", encoding="utf-8")
    code, out = run_cli(
        capsys, "simulate", "--alg", "min", "--code", f"explicit:@{f}",
        "--n", "2", "--t", "1", "--kp", "1", "--trials", "3",
    )
    assert code == 0
    assert out.splitlines()[1].split()[-2:] == ["3", "3"]


@pytest.mark.parametrize("x", [f"{2**63},0", f"{2**62},0", f"0,{-(2**62)}"])
def test_transmitted_word_beyond_int64_safe_range_is_one_error_line(x, capsys):
    code = main([
        "reconstruct", "--alg", "min", "--code", "sum-mod:2", "--n", "2",
        "--t", "1", "--kp", "1", f"--x={x}", "--trials", "2",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


SIMPLEX = "m=2,r=3,delta=1\n3,0,0\n0,3,0\n0,0,3\n1,1,1\n"


def test_simulate_on_a_code_without_a_distance_is_one_error_line(tmp_path, capsys):
    # only a --delta above the distance or a channel the algorithm cannot
    # handle is a skip note; a code with no channel distance is an error
    f = tmp_path / "code.txt"
    f.write_text(SIMPLEX, encoding="utf-8")
    code = main(["simulate", "--alg", "min", "--code", f"simplex:@{f}",
                 "--n", "3", "--t", "1", "--kp", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: cannot compute a distance for this code\n"


@pytest.mark.parametrize("argv, flag, text", [
    ("reconstruct --alg min --code sum-mod:2 --n 2:4 --t 1 --kp 1", "n", "2:4"),
    ("reconstruct --alg majority --code sum-mod:3 --n 4 --t 1 --kp 1 --km 1,2", "km", "1,2"),
    ("list --alg min --code sum-mod:2 --n 4 --t 2 --kp 1 --a 0:1", "a", "0:1"),
    ("list --alg sauer --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1 --delta 1,2", "delta", "1,2"),
    ("check-splitting --code sum-mod:7 --n 2 --kp 1 --km 1 --t 1:2", "t", "1:2"),
    ("distance --x 1,0 --y 0,0 --kp 1:2", "kp", "1:2"),
    ("simulate --alg min --code sum-mod:2 --n 2 --t 1 --kp 1 --delta 1,2", "delta", "1,2"),
    ("tandem --code simplex:@CODE --t 1,2", "t", "1,2"),
])
def test_single_value_flags_reject_a_grid(argv, flag, text, tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text(SIMPLEX, encoding="utf-8")
    code = main(argv.replace("@CODE", f"@{f}").split())
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: --{flag} takes one value here, got {text}\n"


@pytest.mark.parametrize("command", [
    "reconstruct --alg min", "reconstruct --alg min --reads adversarial",
    "list --alg min", "simulate --alg min",
])
def test_cap_bounds_the_read_ball(command, tmp_path, capsys):
    # distance 3 = t, so two reads from the 42-vector ball B(6, 3, 1, 0)
    f = tmp_path / "code.txt"
    f.write_text("0,0,0,0,0,0\n1,1,1,0,0,0\n", encoding="utf-8")
    argv = command.split() + [
        "--code", f"explicit:@{f}", "--n", "6", "--t", "3", "--kp", "1", "--trials", "2",
    ]
    assert main(argv + ["--cap", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 42 ball vectors exceed enumeration cap 5\n"
    assert main(argv + ["--cap", "42"]) == 0


def test_cap_bounds_the_decode_ball(tmp_path, capsys):
    # distance 7 > t = 1: one read from the 7-vector B(6, 1, 1, 0), decoded
    # within radius 6 by a scan of the code's two members, which enumerates
    # no ball; a lattice code's decode ball is capped in test_lattice.py
    f = tmp_path / "code.txt"
    f.write_text("0,0,0,0,0,0\n3,3,3,3,3,3\n", encoding="utf-8")
    argv = [
        "reconstruct", "--alg", "min", "--code", f"explicit:@{f}",
        "--n", "6", "--t", "1", "--kp", "1", "--trials", "2",
    ]
    assert main(argv + ["--cap", "10"]) == 0


def test_cap_bounds_the_sauer_search(capsys):
    # the coordinate search over 10 reads of length 4 charges
    # C(4, 2) * 3^2 * 10 = 540 member tests
    argv = [
        "list", "--alg", "sauer", "--code", "sum-mod:3", "--n", "4", "--t", "2",
        "--kp", "1", "--km", "1", "--delta", "1", "--trials", "3",
    ]
    assert main(argv + ["--cap", "539"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 540 coordinate-search member tests exceed enumeration cap 539\n"
    assert main(argv + ["--cap", "540"]) == 0


def test_tandem_cap_bounds_the_shells(tmp_path, capsys):
    # t = 3 shells of the m = 2 simplex hold 1, 3, 6 and 10 vectors; with
    # N = 10 only the last has a subset, but the whole ball of 20 vectors is
    # charged before any shell is built
    f = tmp_path / "code.txt"
    f.write_text(SIMPLEX, encoding="utf-8")
    argv = ["tandem", "--code", f"simplex:@{f}", "--t", "3", "--N", "10"]
    assert main(argv + ["--cap", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 20 upward ball vectors exceed enumeration cap 5\n"
    assert main(argv + ["--cap", "19"]) == 1
    capsys.readouterr()
    assert main(argv + ["--cap", "20"]) == 0


@pytest.mark.parametrize("t", [1000, 100000])
def test_tandem_charges_the_whole_ball_before_any_shell(t, tmp_path, capsys):
    # the shells of t = 1000 hold C(1003, 3) vectors, 4 GB of int64 rows
    # kept together; the ball's count must refuse them before the first
    # shell is built
    f = tmp_path / "code.txt"
    f.write_text(SIMPLEX, encoding="utf-8")
    built = mock.Mock(side_effect=AssertionError("a shell was built"))
    with mock.patch("magrec.tandem._excess_shell", built):
        assert main(["tandem", "--code", f"simplex:@{f}", "--t", str(t)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {math.comb(t + 3, 3)} upward ball vectors exceed enumeration cap 10000000\n"
    )
    assert not built.called


def test_tandem_delta_above_the_header_is_an_error(tmp_path, capsys):
    # the code decodes uniquely up to its header's delta = 1; at --delta 2
    # decoding is not unique, and 720 of the 6300 sets would fail
    f = tmp_path / "code.txt"
    f.write_text(format_simplex_code(greedy_simplex_code(2, 6, 1)), encoding="utf-8")
    argv = ["tandem", "--code", f"simplex:@{f}", "--t", "3"]
    assert main(argv + ["--delta", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --delta 2 exceeds the code's distance 1; the read-count guarantees "
        "assume delta <= distance\n"
    )
    assert main(argv + ["--delta", "1"]) == 0


@pytest.mark.parametrize("r", [4, 2**62 - 1, 2**63])
def test_tandem_counts_a_code_beyond_int64_like_a_small_one(r, tmp_path, capsys):
    # the walk adds a codeword and a shell minimum in Python ints, so a code
    # past int64 counts like a small one
    f = tmp_path / "code.txt"
    f.write_text(f"m=1,r={r},delta=1\n{r},0\n0,{r}\n", encoding="utf-8")
    code = main(["tandem", "--code", f"simplex:@{f}", "--t", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    row = dict(zip(*(line.split() for line in captured.out.splitlines())))
    assert (row["r"], row["sets"], row["success"], row["fail"]) == (str(r), "2", "2", "0")


def test_tandem_below_zero_t_is_one_error_line(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text(SIMPLEX, encoding="utf-8")
    assert main(["tandem", "--code", f"simplex:@{f}", "--t", "-1", "--N", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t must be >= 0\n"


def test_simplex_members_closer_than_two_delta_are_one_error_line(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text("m=2,r=3,delta=2\n2,1,0\n1,1,1\n", encoding="utf-8")
    assert main(["tandem", "--code", f"simplex:@{f}", "--t", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: l1 distance 2 between (1, 1, 1) and (2, 1, 0) is below 2*delta = 4\n"
    )


def test_tandem_notes_an_N_past_every_shell_as_skipped(tmp_path, capsys):
    # the t = 2 shells of the m = 2 simplex hold 1, 3 and 6 vectors
    f = tmp_path / "code.txt"
    f.write_text(SIMPLEX, encoding="utf-8")
    argv = ["tandem", "--code", f"simplex:@{f}", "--t", "2", "--N"]
    assert main(argv + ["100000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1:] == [
        "# skipped m=2 r=3 t=2 delta=1: N=100000 exceeds the largest shell size 6"
    ]
    assert main(argv + ["6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


@pytest.mark.parametrize("argv", [
    "intersect --n 99999999999999999999 --t 1 --kp 1 --oracle",
    "reconstruct --alg min --code sum-mod:2 --n 99999999999999999999 --t 1 --kp 1",
    "ball --n 4000 --t 2 --kp 1 --oracle",
    "check-splitting --code sum-mod:3 --n 200000 --t 1 --kp 1",
    "reconstruct --alg min --code sum-mod:2 --n 30000000 --t 1 --kp 1",
])
def test_a_huge_n_is_one_error_line(argv):
    # the first two would overflow a tuple's length, the middle two pass the
    # row cap with a ball matrix of hundreds of GiB, and the last asks for
    # 3e7 splitter entries; under a 2 GB address-space limit a build that
    # gets through fails at once instead of filling the machine's memory
    limit = 2 * 10**9
    done = subprocess.run(
        [sys.executable, "-m", "magrec.cli", *argv.split()],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")


@pytest.mark.parametrize("argv, where", [
    (["reconstruct", "--alg", "min", "--code", "sum-mod:x", "--n", "3", "--t", "1",
      "--kp", "1"], "--code: bad integer 'x'"),
    (["check-splitting", "--code", "splitter:group=Z4; s=[1,x]", "--t", "1", "--kp", "1"],
     "--code: bad integer 'x'"),
    (["reconstruct", "--alg", "min", "--code", "explicit:@FILE", "--n", "3", "--t", "1",
      "--kp", "1"], "FILE line 2: bad integer ''"),
    (["tandem", "--code", "simplex:@FILE", "--t", "1"], "FILE line 3: bad integer 'x'"),
])
def test_malformed_code_integer_is_one_error_line_naming_its_source(
    argv, where, tmp_path, capsys
):
    f = tmp_path / "code.txt"
    f.write_text("# header\nm=2,r=3,delta=1\n3,0,x\n" if argv[0] == "tandem"
                 else "0,0,0  # zero\n1,,2\n", encoding="utf-8")
    assert main([a.replace("FILE", str(f)) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {where.replace('FILE', str(f))}\n"


@pytest.mark.parametrize("argv, line", [
    ("ball --n 1_0 --t 3 --kp 1", "error: --n: bad grid value '1_0'"),
    ("ball --n 10 --t \u0663 --kp 1", "error: --t: bad grid value '\u0663'"),
    ("ball --n 3 --t 1 --kp 1:\u00b2", "error: --kp: bad grid value '1:\u00b2'"),
    ("distance --x 1_0,2 --y 1,2 --kp 1", "error: --x: bad vector '1_0,2'"),
    ("reconstruct --alg min --code sum-mod:2 --n 4 --t 1 --kp 1 --trials 1_0",
     "invalid positive_int value: '1_0'"),
    ("reconstruct --alg min --code sum-mod:2 --n 4 --t 1 --kp 1 --seed 1_0",
     "invalid integer value: '1_0'"),
    ("ball --n 3 --t 1 --kp 1 --cap \u0661\u0660\u0660", "invalid integer value"),
    ("check-splitting --code splitter:group=Z7;s=[1_0] --t 1 --kp 1",
     "error: --code: bad integer '1_0'"),
])
def test_integers_are_ascii_decimal(argv, line, capsys):
    # int() would read each of these as a number: 1_0 as 10, an Arabic-Indic
    # three as 3
    with contextlib.suppress(SystemExit):
        assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert line in captured.err


def test_decimal_integers_keep_their_sign_and_spaces(capsys):
    assert [cli.parse_int(text, "x") for text in ("7", " +7\t", "-0007", " -3 ")] == [7, 7, -7, -3]
    for text in ("", "+", "1_0", "\u0663", "1.0", "0x1", "1 2", "9" * 5000):
        with pytest.raises(ValueError, match="x: bad integer"):
            cli.parse_int(text, "x")
    code, out = run_cli(capsys, "ball", "--n", " 3 ", "--t", "+1", "--kp", "1", "--cap", " 10")
    assert code == 0 and out.splitlines()[1].split()[:5] == ["3", "1", "1", "0", "4"]


@pytest.mark.parametrize("flags, line", [
    (["--t", "0", "--kp", "1"], "error: t must be >= 1"),
    (["--t", "1", "--kp", "1", "--km", "2"], "error: need k_plus >= k_minus >= 0, got (1, 2)"),
    (["--t", "1:2", "--kp", "1"], "error: --t takes one value here, got 1:2"),
])
def test_check_splitting_checks_its_flags_before_building_the_code(flags, line, monkeypatch,
                                                                    capsys):
    monkeypatch.setattr(cli, "parse_code_spec", mock.Mock(side_effect=AssertionError))
    assert main(["check-splitting", "--code", "sum-mod:3", "--n", "3000000", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    from test_cli_golden import CASES

    argv, status, stdout = CASES[0]
    assert "--explain" not in argv and "--out" not in argv
    target = tmp_path / "report.txt"
    assert main([*argv.split(), "--explain", "--out", str(target)]) == status
    assert "anchor legend" in target.read_text(encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), "--format", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv.split()) == status
    assert capsys.readouterr().out == stdout
    assert cli.build_parser() is cli.build_parser()


def test_anchor_ids_are_the_emitted_ones():
    tree = ast.parse(inspect.getsource(cli))
    literal = {
        node.value
        for kw in ast.walk(tree)
        if isinstance(kw, ast.keyword) and kw.arg == "anchor"
        for node in ast.walk(kw.value)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    planned = set()
    for name in ALGORITHMS:
        for km, delta in product((0, 1), (1, 3)):
            try:
                planned.add(read_plan(name, ChannelParams(6, 2, 1, km), delta, 1).anchor)
            except ValueError:
                pass
    assert set(cli.ANCHORS) == literal | planned


def test_lattice_scan_past_int64_matches_its_oracle(capsys):
    code, out = run_cli(
        capsys, "check-splitting", "--code", f"splitter:group=Z{2**61}; s=[1,2]",
        "--kp", "1", "--km", "1", "--t", "1", "--oracle",
    )
    assert code == 0
    assert out.splitlines()[1].split()[-1] == "MATCH"


def test_command_flags():
    # each command takes only the flags its cmd_* function reads: edit this
    # table with them
    report, grid = ["--explain", "--format", "--out"], ["--km", "--kp", "--n", "--t"]
    trials = [*grid, *report, "--alg", "--cap", "--code", "--delta", "--seed", "--trials"]
    expected = {
        "ball": [*grid, *report, "--cap", "--oracle"],
        "intersect": [*grid, *report, "--oracle"],
        "distance": ["--km", "--kp", *report, "--x", "--y"],
        "check-splitting": [*grid, *report, "--cap", "--code", "--oracle"],
        "reconstruct": [*trials, "--N", "--reads", "--x"],
        "list": [*trials, "--N", "--a", "--reads", "--x"],
        "simulate": [*trials, "--timings"],
        "tandem": [*report, "--N", "--cap", "--code", "--delta", "--t"],
    }
    commands = cli.build_parser().commands
    flags = {
        name: sorted(s for a in sp._actions for s in a.option_strings if s.startswith("--")
                     and s != "--help")
        for name, sp in commands.items()
    }
    assert flags == {name: sorted(f) for name, f in expected.items()}
    assert sum(map(len, flags.values())) == 89
    alg = {name: sp._option_string_actions["--alg"].choices
           for name, sp in commands.items() if "--alg" in sp._option_string_actions}
    unique = [name for name in ALGORITHMS if not name.startswith("list-")]
    listed = [name[len("list-"):] for name in ALGORITHMS if name.startswith("list-")]
    assert alg == {"reconstruct": unique, "list": listed, "simulate": unique}
    assert unique == ["min", "majority"] and listed == ["min", "majority", "sauer"]


def test_alg_choices_follow_the_registry(monkeypatch):
    monkeypatch.setitem(ALGORITHMS, "cover", ALGORITHMS["min"])
    monkeypatch.setitem(ALGORITHMS, "list-cover", ALGORITHMS["list-min"])
    commands = cli.build_parser.__wrapped__().commands
    choices = {name: commands[name]._option_string_actions["--alg"].choices
               for name in ("reconstruct", "list", "simulate")}
    assert choices == {
        "reconstruct": ["min", "majority", "cover"],
        "list": ["min", "majority", "sauer", "cover"],
        "simulate": ["min", "majority", "cover"],
    }


RECONSTRUCT = "reconstruct --alg min --code sum-mod:2 --n 3 --t 1 --kp 1"
DISTANCE = "distance --x 3,0 --y 0,0 --kp 2 --km 1"


@pytest.mark.parametrize("argv, unread", [
    (RECONSTRUCT, "--oracle"),
    (RECONSTRUCT, "--timings"),
    (RECONSTRUCT.replace("reconstruct", "list"), "--oracle"),
    (RECONSTRUCT.replace("reconstruct", "list"), "--timings"),
    (RECONSTRUCT.replace("reconstruct", "simulate"), "--oracle"),
    ("tandem --code simplex:@code.txt --t 2", "--oracle"),
    (DISTANCE, "--oracle"),
    (DISTANCE, "--n 1:9"),
    (DISTANCE, "--t 7"),
    (DISTANCE, "--cap 1"),
    ("intersect --n 2 --t 1 --kp 1", "--cap 10"),
])
def test_a_flag_the_command_does_not_read_exits_two(argv, unread, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), *unread.split()])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {unread}\n" in captured.err


def test_one_pass_parses_every_golden_line_as_the_full_parser_does():
    from test_cli_golden import CASES

    parser = cli.build_parser()
    for argv, _, _ in CASES:
        full = parser.parse_args(shlex.split(argv))
        with mock.patch.object(parser, "parse_args", side_effect=AssertionError):
            args = cli.parse_args(shlex.split(argv))  # by the command's parser alone
        assert args == full and args.command == argv.split()[0]


def _run(argv, capsys):
    """(exit status, stdout, stderr) of ``main(argv)``."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("argv, status, err", [
    ("-h", 0, ""),
    ("reconstruct -h", 0, ""),
    ("frobnicate --n 3", 2, "magrec: error: argument command: invalid choice: 'frobnicate'"),
    (f"{RECONSTRUCT} --oracle", 2, "magrec: error: unrecognized arguments: --oracle\n"),
    (f"{RECONSTRUCT} --format bogus", 2,
     "magrec reconstruct: error: argument --format: invalid choice: 'bogus'"),
    (f"{RECONSTRUCT} --tri 5", 0, ""),
])
def test_one_pass_keeps_every_usage_error_and_exit_code(argv, status, err, capsys, monkeypatch):
    one = _run(argv.split(), capsys)
    monkeypatch.setattr(cli, "parse_args", cli.build_parser().parse_args)
    assert _run(argv.split(), capsys) == one  # byte for byte the full parser's
    assert one[0] == status and err in one[2]


def _rewrite(f, text):
    f.write_text(text, encoding="utf-8")
    return text


def test_a_code_file_is_read_on_every_command(tmp_path, capsys):
    # the file is read on every command, so rewriting it between two is seen
    f = tmp_path / "code.txt"
    argv = ["tandem", "--code", f"simplex:@{f}", "--t", "2", "--format", "records"]
    rows = []
    for m, r, delta in [(2, 6, 1), (3, 4, 1), (2, 6, 1)]:
        _rewrite(f, format_simplex_code(greedy_simplex_code(m, r, delta)))
        rows.append(json.loads(_run(argv, capsys)[1]))
    assert [(row["m"], row["r"]) for row in rows] == [(2, 6), (3, 4), (2, 6)]
    recon = ["reconstruct", "--alg", "min", "--code", f"explicit:@{f}", "--n", "2", "--t", "1",
             "--kp", "1", "--reads", "exhaustive", "--format", "records"]
    deltas = []
    for text in ["0,0\n3,3\n", "0,0\n1,1\n", "0,0\n3,3\n"]:
        _rewrite(f, text)
        deltas.append(json.loads(_run(recon, capsys)[1])["delta"])
    assert deltas == [3, 2, 3]


@pytest.mark.parametrize("argv, good, bad, where", [
    (["tandem", "--code", "simplex:@FILE", "--t", "1"], "m=1,r=2,delta=1\n2,0\n0,2\n",
     "m=1,r=2,delta=1\n2,0\n0,x\n", "FILE line 3: bad integer 'x'"),
    (["reconstruct", "--alg", "min", "--code", "explicit:@FILE", "--n", "2", "--t", "1",
      "--kp", "1"], "0,0\n3,3\n", "0,0\n3,x\n", "FILE line 2: bad integer 'x'"),
])
def test_a_code_file_that_breaks_after_a_good_run_is_one_error_line(
    argv, good, bad, where, tmp_path, capsys
):
    f = tmp_path / "code.txt"
    argv = [a.replace("FILE", str(f)) for a in argv]
    _rewrite(f, good)
    assert _run(argv, capsys)[0] == 0
    _rewrite(f, bad)
    assert _run(argv, capsys) == (1, "", f"error: {where.replace('FILE', str(f))}\n")


def _handle_bytes(code, matrix):
    """The bytes the one cache charges a code handle: its array and member tuples."""
    return matrix.nbytes + sum(map(sys.getsizeof, code.members))


def test_a_kept_code_handle_equals_a_fresh_one_and_is_read_only(tmp_path, monkeypatch):
    f, s = tmp_path / "code.txt", tmp_path / "simplex.txt"
    words = _rewrite(f, "0,0,0\n1,1,-1  # one\n2,0,0\n")
    simplex = _rewrite(s, format_simplex_code(greedy_simplex_code(2, 6, 1)))
    cache = empty_cache(monkeypatch)
    explicit, kept = parse_code_spec(f"explicit:@{f}"), parse_code_spec(f"simplex:@{s}")
    assert parse_code_spec(f"explicit:@{f}", n=3) is explicit
    assert parse_code_spec(f"simplex:@{s}") is kept
    fresh = ExplicitCode(cli.load_vectors(words, str(f)))
    assert explicit.members == fresh.members
    assert explicit._largest_first.tolist() == fresh._largest_first.tolist()
    fresh_simplex = parse_simplex_code(simplex)
    assert kept == fresh_simplex and kept._matrix.tolist() == fresh_simplex._matrix.tolist()
    assert not explicit._largest_first.flags.writeable and not kept._matrix.flags.writeable
    assert list(cache) == [("code", "explicit", words), ("code", "simplex", simplex)]
    assert combinatorics._cache_bytes == (
        _handle_bytes(explicit, explicit._largest_first) + _handle_bytes(kept, kept._matrix))


def test_a_code_handle_over_the_budget_is_returned_but_not_kept(tmp_path, monkeypatch):
    f = tmp_path / "code.txt"
    words = _rewrite(f, "".join(f"{i},{-i},0\n" for i in range(50)))
    code = ExplicitCode(cli.load_vectors(words, str(f)))
    monkeypatch.setattr(combinatorics, "BALL_CACHE_BYTES", _handle_bytes(code, code._largest_first))
    cache = empty_cache(monkeypatch)
    kept = parse_code_spec(f"explicit:@{f}")
    assert list(cache) == [("code", "explicit", words)]  # it fits exactly
    monkeypatch.setattr(combinatorics, "BALL_CACHE_BYTES", combinatorics.BALL_CACHE_BYTES - 1)
    cache = empty_cache(monkeypatch)
    big = parse_code_spec(f"explicit:@{f}")
    assert big.members == kept.members and big is not kept
    assert list(cache) == [] and combinatorics._cache_bytes == 0
    assert parse_code_spec(f"explicit:@{f}") is not big
