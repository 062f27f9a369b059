"""The CLI's error contract, fuzzed over every command of ``build_parser()``:
a command line exits 0, 1 or 2 within a deadline; an exit 1 that printed no
table printed exactly one ``error:`` line; and no other exception leaves
``cli.main``.  A command added to the parser is fuzzed from its first day.

Values are small, so a line that runs at all runs in milliseconds.  Huge
--n and --x values, which may allocate before they are refused, are checked
in ``test_cli.py::test_a_huge_n_is_one_error_line``, in a subprocess under
an address-space limit."""

import contextlib
import io
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from magrec import cli
from magrec.tandem import format_simplex_code, greedy_simplex_code

#: Seconds one command line may run before the example fails.
DEADLINE_S = 5

#: A value of any flag: small, or an edge token (zero, negative, non-numeric,
#: a range or list, a reversed range).
SMALL = st.integers(1, 3).map(str)
EDGE = st.sampled_from(["0", "-1", "x", "1:2", "1,3", "2:1"])
VECTORS = st.sampled_from(["0,0", "0,0,0", "3,3", "1", "-1,0", "x", ""])
#: The values of the flags that do not take SMALL or EDGE values.
OWN = {
    "--code": st.sampled_from([
        "sum-mod:2", "sum-mod:3", "splitter:group=Z5; s=[1,2]", "explicit:@code.txt",
        "simplex:@simplex.txt", "sum-mod:0", "explicit:@missing.txt", "x",
    ]),
    "--x": VECTORS,
    "--y": VECTORS,
    "--trials": SMALL | EDGE | st.just("9" * 20),
    "--out": st.just("report.txt"),
}


@st.composite
def command_lines(draw):
    """A command of build_parser() with, mostly, its required flags and the
    channel and --trials flags it takes, and a few more, each with a value from OWN, its
    choices or SMALL; half the lines also draw EDGE values and bad choices."""
    commands = cli.build_parser().commands
    name = draw(st.sampled_from(sorted(commands)))
    flags = commands[name].flags
    needed = [f for f, action in flags.items()
              if action.required or f in ("--n", "--t", "--kp", "--trials")]
    chosen = [f for f in needed if draw(st.integers(0, 7))]
    chosen += draw(st.lists(st.sampled_from(sorted(flags)), max_size=5, unique=True))
    edgy = draw(st.booleans())
    values = SMALL | EDGE if edgy else SMALL
    words = [name]
    for flag in dict.fromkeys(chosen):
        action = flags[flag]
        if action.nargs == 0:
            words.append(flag)
        elif action.choices:
            words += [flag, draw(st.sampled_from([*action.choices, *["bogus"] * edgy]))]
        else:
            words += [flag, draw(OWN.get(flag, values))]
    return words


class Overran(Exception):
    """A command line ran past DEADLINE_S."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise Overran in the code running ``seconds`` from now."""
    def overrun(signum, frame):
        raise Overran(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def code_files(tmp_path, monkeypatch):
    """A directory holding code.txt (an explicit code of length 2) and
    simplex.txt, as the working directory."""
    (tmp_path / "code.txt").write_text("0,0\n3,3\n", encoding="utf-8")
    simplex = format_simplex_code(greedy_simplex_code(2, 6, 1))
    (tmp_path / "simplex.txt").write_text(simplex, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
def test_every_command_line_keeps_the_error_contract(argv, code_files):
    report = code_files / "report.txt"
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), deadline(DEADLINE_S):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            status = exc.code
    assert status in (0, 1, 2)
    table = out.getvalue() + (report.read_text(encoding="utf-8") if report.exists() else "")
    if status == 1 and not table:
        (line,) = err.getvalue().splitlines(keepends=True)
        assert line.startswith("error: ") and line.endswith("\n")
