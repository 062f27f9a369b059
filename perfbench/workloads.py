"""Workloads: fixed rounds of CLI commands, with values drawn from a seed.

A workload is a round of command templates.  Parameter points, trial counts
and the number of commands per round are fixed; the seed picks each
command's ``--seed``, the transmitted codeword ``--x`` and the order of the
commands within the round.  So every run of a given length does the same
work whatever its seed.

Why each workload is there (see also ``BENCHMARK.json``):

* ``recon-trials`` -- few parameter points, hundreds to thousands of random
  read sets per command: read generation, the majority vote, erasure
  filling, the cover check and ``decode_within`` dominate.  The ball cache
  stays warm; the decode memo answers about 90% of calls, because a
  command's code handle keeps its memo across all of its trials.
* ``exact-geometry`` -- many short commands, each at its own parameter
  point: lattice box scans (``lattice_min_distance``, the packing oracle)
  and ``intersection_exact`` dominate, trials are trivial.
* ``exhaustive-search`` -- enumeration-driven commands: the Sauer list
  decoder's candidate search, exhaustive read-set iteration (where the
  decode memo mostly hits) and the tandem simplex reconstruction, which is
  measured only here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

#: Wall time of one round on the reference host (2-CPU Xeon VM, Python
#: 3.11) at its usual speed.  A run of ``--seconds S`` does round(S / this)
#: rounds, so every run of one length does the same work.
ROUND_SECONDS = {
    "recon-trials": 3.2,
    "exact-geometry": 3.3,
    "exhaustive-search": 1.3,
}

Z13 = "splitter:group=Z13; s=[1,2,3,4,5,6]"
Z8 = "splitter:group=Z8; s=[1,2,3,4,5,6,7]"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how to check its output.

    ``kind`` selects the check: ``recon`` (reconstruct, tandem), ``list``,
    ``simulate`` (records of ``expect`` trials) or ``oracle``.
    """

    argv: tuple[str, ...]
    kind: str
    expect: int = 0


def _explicit(n: int, *words: tuple[int, ...]) -> str:
    return "".join(",".join(map(str, w + (0,) * (n - len(w)))) + "\n" for w in words)


def write_code_files(directory: Path) -> None:
    """The explicit and simplex code files the commands refer to."""
    from magrec import tandem

    directory.mkdir(parents=True, exist_ok=True)
    files = {
        # delta = 2 for the (1, 1) channel
        "d2n10.txt": _explicit(10, (0,), (1, 1, -1)),
        # delta = 1 for the (1, 1) channel
        "d1n8.txt": _explicit(8, (0,), (1,)),
        "d1n10.txt": _explicit(10, (0,), (1,)),
    }
    for m, r, delta in ((2, 6, 1), (3, 4, 1), (2, 6, 2)):
        code = tandem.greedy_simplex_code(m, r, delta)
        files[f"simplex-m{m}-r{r}-d{delta}.txt"] = tandem.format_simplex_code(code)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**32))


def _word(rng: random.Random, splitter: list[int], modulus: int) -> str:
    """A random lattice codeword: small entries, then coordinate 0 (whose
    splitter entry is 1) fixed so the syndrome is zero, kept in
    [-modulus/2, modulus/2]."""
    x = [rng.randint(-2, 2) for _ in splitter]
    x[0] -= sum(a * s for a, s in zip(x, splitter)) % modulus
    if x[0] < -(modulus // 2):
        x[0] += modulus
    return ",".join(map(str, x))


def _sum_mod_word(rng: random.Random, modulus: int, n: int) -> str:
    return _word(rng, [1] * n, modulus)


def _member(rng: random.Random, n: int, *words: tuple[int, ...]) -> str:
    w = rng.choice(words)
    return ",".join(map(str, w + (0,) * (n - len(w))))


def _recon(rng, alg, code, n, t, kp, km, trials, x, *extra, command="reconstruct") -> Command:
    argv = (
        command, "--alg", alg, "--code", code, "--n", str(n), "--t", str(t),
        "--kp", str(kp), "--km", str(km), "--trials", str(trials),
        "--seed", _seed(rng), f"--x={x}", *extra,
    )
    return Command(argv, "recon" if command == "reconstruct" else "list")


def _list(*args) -> Command:
    return _recon(*args, command="list")


def _oracle(*argv: str) -> Command:
    return Command(tuple(argv) + ("--oracle",), "oracle")


def _recon_trials_round(rng: random.Random, codes: str) -> list[Command]:
    d2 = f"explicit:@{codes}/d2n10.txt"
    z13, z8 = list(range(1, 7)), list(range(1, 8))
    return [
        *(_recon(rng, "majority", d2, 10, 3, 1, 1, 100, _member(rng, 10, (0,), (1, 1, -1)))
          for _ in range(4)),
        *(Command(
            ("simulate", "--alg", "majority", "--code", d2, "--n", "10", "--t", "3",
             "--kp", "1", "--km", "1", "--trials", "100", "--seed", _seed(rng)),
            "simulate", expect=100,
        ) for _ in range(2)),
        *(_recon(rng, "majority", Z13, 6, 2, 1, 1, 800, _word(rng, z13, 13)) for _ in range(2)),
        *(_list(rng, "majority", Z13, 6, 2, 1, 1, 250, _word(rng, z13, 13)) for _ in range(2)),
        *(_recon(rng, "min", Z8, 7, 3, 1, 0, 1000, _word(rng, z8, 8)) for _ in range(3)),
        *(_list(rng, "min", Z8, 7, 3, 1, 0, 1000, _word(rng, z8, 8), "--a", "1")
          for _ in range(2)),
    ]


def _exact_geometry_round(rng: random.Random, codes: str) -> list[Command]:
    return [
        _recon(rng, "majority", "sum-mod:3", 5, 2, 1, 1, 3, _sum_mod_word(rng, 3, 5)),
        _recon(rng, "majority", "sum-mod:4", 6, 2, 1, 1, 3, _sum_mod_word(rng, 4, 6)),
        _recon(rng, "majority", "sum-mod:5", 7, 1, 1, 1, 3, _sum_mod_word(rng, 5, 7)),
        _recon(rng, "majority", "sum-mod:7", 6, 1, 1, 1, 3, _sum_mod_word(rng, 7, 6)),
        Command(
            ("simulate", "--alg", "majority", "--code", "sum-mod:3", "--n", "4:5",
             "--t", "1", "--kp", "1", "--km", "1", "--trials", "2", "--seed", _seed(rng)),
            "simulate", expect=4,
        ),
        Command(
            ("simulate", "--alg", "min", "--code", "sum-mod:2", "--n", "4:6",
             "--t", "1:2", "--kp", "1", "--trials", "2", "--seed", _seed(rng)),
            "simulate", expect=12,
        ),
        _oracle("check-splitting", "--code", Z13, "--kp", "1", "--km", "1", "--t", "1"),
        _oracle("check-splitting", "--code", Z13, "--kp", "2", "--km", "0", "--t", "1"),
        _oracle("check-splitting", "--code", "splitter:group=Z17; s=[1,2,3,4,5,6]",
                "--kp", "1", "--km", "1", "--t", "1"),
        _oracle("check-splitting", "--code", "splitter:group=Z19; s=[1,2,3,4,5,6]",
                "--kp", "1", "--km", "1", "--t", "1"),
        _oracle("check-splitting", "--code", "splitter:group=Z15; s=[1,2,3,4,5,6,7]",
                "--kp", "1", "--km", "0", "--t", "2"),
        _oracle("check-splitting", "--code", "splitter:group=Z11; s=[1,2,3,4,5]",
                "--kp", "1", "--km", "1", "--t", "1"),
        _oracle("check-splitting", "--code", "splitter:group=Z9; s=[1,2,3,4,5,6]",
                "--kp", "1", "--km", "1", "--t", "1"),
        _oracle("check-splitting", "--code", "splitter:group=Z8; s=[1,2,3,4,5]",
                "--kp", "2", "--km", "1", "--t", "1"),
        _oracle("intersect", "--n", "10", "--t", "4", "--kp", "2", "--km", "1"),
        _oracle("ball", "--n", "9", "--t", "3", "--kp", "2", "--km", "2"),
    ]


def _exhaustive_search_round(rng: random.Random, codes: str) -> list[Command]:
    def exhaustive(alg, m, n, t, kp, km, kind=_recon):
        return kind(rng, alg, f"sum-mod:{m}", n, t, kp, km, 1, _sum_mod_word(rng, m, n),
                    "--reads", "exhaustive")

    def simplex(m, r, delta, t):
        return Command(
            ("tandem", "--code", f"simplex:@{codes}/simplex-m{m}-r{r}-d{delta}.txt",
             "--t", str(t)),
            "recon",
        )

    return [
        _list(rng, "sauer", f"explicit:@{codes}/d1n8.txt", 8, 4, 1, 1, 1,
              _member(rng, 8, (0,), (1,)), "--delta", "1"),
        _list(rng, "sauer", f"explicit:@{codes}/d1n10.txt", 10, 3, 1, 1, 5,
              _member(rng, 10, (0,), (1,)), "--delta", "1"),
        exhaustive("min", 2, 5, 2, 1, 0),
        exhaustive("min", 2, 5, 2, 1, 0),
        exhaustive("min", 2, 5, 2, 1, 0, kind=_list),
        exhaustive("min", 2, 4, 2, 1, 0),
        exhaustive("majority", 3, 3, 1, 1, 1),
        simplex(2, 6, 1, 3),
        simplex(3, 4, 1, 2),
        simplex(2, 6, 2, 3),
    ]


# The command counts in each round put the run's median and 90th-percentile
# latency inside a run of same-kind commands rather than on the boundary
# between two kinds, where they would jump between kinds from run to run.
ROUNDS = {
    "recon-trials": _recon_trials_round,
    "exact-geometry": _exact_geometry_round,
    "exhaustive-search": _exhaustive_search_round,
}


def build(workload: str, seed: int, rounds: int, codes: str) -> list[Command]:
    """The run's command list: ``rounds`` rounds, each shuffled by the seed.

    ``codes`` is the directory holding the code files, relative to the
    working directory the commands run in.
    """
    rng = random.Random(seed)
    commands: list[Command] = []
    for _ in range(rounds):
        batch = ROUNDS[workload](rng, codes)
        rng.shuffle(batch)
        commands.extend(batch)
    return [
        Command(c.argv + ("--format", "records"), c.kind, c.expect) for c in commands
    ]
