"""Golden CLI output: exact stdout and exit code of `reconstruct`, `list`,
`simulate` and grid runs, recorded before their algorithm dispatch moved
into one registry, and of `tandem` runs, recorded before simplex read sets
moved onto stacks.  The random-read cases whose draws or records moved were
re-recorded when a command's trials came to share one generator and each
record named its trial.  The ``simulate --explain`` case with a point that
runs was added when simulate rows came to carry their anchor.  Any
difference here is a change in what a user sees."""

import shlex

import pytest

from magrec.cli import main
from magrec.tandem import format_simplex_code, greedy_simplex_code

#: Explicit code whose distance exceeds t = 1 on the (1, 0) and (1, 1)
#: channels: one read decodes uniquely.
UNIQUE_CODE = "0,0\n3,3\n-3,3\n"

#: (m, r, delta) of the greedy simplex codes the tandem cases read.
SIMPLEX_CODES = [(2, 6, 1), (3, 4, 1), (2, 6, 2)]

CASES = [
    (
        "reconstruct --alg min --code sum-mod:2 --n 4 --t 2 --kp 1 --trials 6 --seed 3",
        0,
        """\
alg  code       n  t  kp  km  delta  N  tau  sets  success  fail
min  sum-mod:2  4  2  1   0   1      5       6     6        0
""",
    ),
    (
        "reconstruct --alg min --code sum-mod:2 --n 3 --t 1 --kp 1 --reads exhaustive",
        0,
        """\
alg  code       n  t  kp  km  delta  N  tau  sets  success  fail
min  sum-mod:2  3  1  1   0   1      2       6     6        0
""",
    ),
    (
        "reconstruct --alg min --code sum-mod:2 --n 4 --t 2 --kp 1 --reads adversarial --x 1,1,0,0",
        0,
        """\
alg  code       n  t  kp  km  delta  N  tau  sets  success  fail
min  sum-mod:2  4  2  1   0   1      5       1     1        0
""",
    ),
    (
        "reconstruct --alg majority --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1 --trials 5 --seed 7",
        0,
        """\
alg  code  n  t  kp  km  delta  N  tau  sets  success  fail
# skipped n=4 t=2 kp=1 km=1: N=37 exceeds ball size 33
""",
    ),
    (
        "reconstruct --alg majority --code sum-mod:3 --n 4 --t 1 --kp 1 --km 1 --trials 5 --seed 7",
        0,
        """\
alg       code       n  t  kp  km  delta  N  tau   sets  success  fail
majority  sum-mod:3  4  1  1   1   1      5  -1/1  5     5        0
""",
    ),
    (
        "reconstruct --alg majority --code sum-mod:3 --n 3 --t 1 --kp 1 --km 1 --reads exhaustive --format records",
        0,
        """\
{"alg":"majority","code":"sum-mod:3","n":3,"t":1,"kp":1,"km":1,"delta":1,"N":5,"tau":"-1/1","sets":21,"success":21,"fail":0}
""",
    ),
    (
        "reconstruct --alg majority --code sum-mod:3 --n 4 --t 1 --kp 1 --km 1 --reads adversarial --explain",
        0,
        """\
alg       code       n  t  kp  km  delta  N  tau   sets  success  fail  anchor
majority  sum-mod:3  4  1  1   1   1      5  -1/1  1     1        0     majority-reads
# anchor legend:
#   majority-reads: (k++k-)^(2d) * V_{k++k-+1}(n,t-d) + 1
""",
    ),
    (
        "reconstruct --alg min --code explicit:@unique.txt --n 2 --t 1 --kp 1 --reads exhaustive --x 3,3",
        0,
        """\
alg  code                  n  t  kp  km  delta  N  tau  sets  success  fail
min  explicit:@unique.txt  2  1  1   0   3      1       3     3        0
""",
    ),
    (
        "reconstruct --alg min --code explicit:@unique.txt --n 2 --t 1 --kp 1 --km 1 --trials 4 --x 3,3 --explain",
        0,
        """\
alg  code                  n  t  kp  km  delta  N  tau  sets  success  fail  anchor
min  explicit:@unique.txt  2  1  1   1   3      1       4     4        0     unique-decode
# anchor legend:
#   unique-decode: distance > t: one read, radius-(d-1) decode
""",
    ),
    (
        "reconstruct --alg majority --code explicit:@unique.txt --n 2 --t 1 --kp 1 --km 1 --reads adversarial",
        0,
        """\
alg       code                  n  t  kp  km  delta  N  tau  sets  success  fail
majority  explicit:@unique.txt  2  1  1   1   3      1       1     1        0
""",
    ),
    (
        "reconstruct --alg min --code sum-mod:2 --n 2 --t 1 --kp 1 --N 5",
        0,
        """\
alg  code  n  t  kp  km  delta  N  tau  sets  success  fail
# skipped n=2 t=1 kp=1 km=0: N=5 exceeds ball size 3
""",
    ),
    (
        "reconstruct --alg min --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1",
        1,
        "",
    ),
    (
        "reconstruct --alg majority --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1 --N 3 --trials 4 --seed 1",
        1,
        """\
alg       code       n  t  kp  km  delta  N  tau   sets  success  fail
majority  sum-mod:3  4  2  1   1   1      3  -9/1  4     0        4
""",
    ),
    (
        "list --alg min --code sum-mod:2 --n 5 --t 2 --kp 1 --a 1 --trials 5 --seed 2",
        0,
        """\
alg  n  t  kp  km  delta  a  N  sets  contains_x  max_list  bound  match
min  5  2  1   0   1      1  2  5     5           5         6      MATCH
""",
    ),
    (
        "list --alg min --code sum-mod:2 --n 4 --t 2 --kp 1 --reads exhaustive --explain",
        0,
        """\
alg  n  t  kp  km  delta  a  N  sets  contains_x  max_list  bound  match  anchor
min  4  2  1   0   1      0  5  462   462         1         1      MATCH  list-reads-min
# anchor legend:
#   list-reads-min: k+^(d+a) * V_{k++1}(n-d-a,f-1-a) + 1
""",
    ),
    (
        "list --alg majority --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1 --trials 3 --seed 1",
        0,
        """\
alg       n  t  kp  km  delta  a  N   sets  contains_x  max_list  bound  match
majority  4  2  1   1   1      0  29  3     3           1         81     MATCH
""",
    ),
    (
        "list --alg sauer --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1 --delta 1 --a 1 --trials 5 --seed 3",
        0,
        """\
alg    n  t  kp  km  delta  a  N  sets  contains_x  max_list  bound  match
sauer  4  2  1   1   1      1  2  5     5           10        63     MATCH
""",
    ),
    (
        "list --alg sauer --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1 --delta 1 --a 1 --trials 5 --seed 3 --N 1",
        1,
        """\
alg    n  t  kp  km  delta  a  N  sets  contains_x  max_list  bound  match
sauer  4  2  1   1   1      1  1  5     0           0         63     MISMATCH
""",
    ),
    (
        "list --alg sauer --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1 --delta 1 --reads adversarial --format records --explain",
        0,
        """\
{"alg":"sauer","n":4,"t":2,"kp":1,"km":1,"delta":1,"a":0,"N":10,"sets":1,"contains_x":1,"max_list":6,"bound":81,"match":"MATCH","anchor":"sauer-reads"}
""",
    ),
    (
        "list --alg majority --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1 --N 40",
        0,
        """\
alg  n  t  kp  km  delta  a  N  sets  contains_x  max_list  bound  match
# skipped n=4 t=2 kp=1 km=1: N=40 exceeds ball size 33
""",
    ),
    (
        "list --alg majority --code sum-mod:3 --n 4 --t 2 --kp 1 --km 0",
        1,
        "",
    ),
    (
        "simulate --alg min --code sum-mod:2 --n 2:3 --t 1:3 --kp 1 --trials 2 --seed 5",
        0,
        """\
alg  n  t  kp  km  delta  N  trials  success
min  2  1  1   0   1      2  2       2
min  2  2  1   0   1      3  2       2
min  3  1  1   0   1      2  2       2
min  3  2  1   0   1      4  2       2
min  3  3  1   0   1      5  2       2
# skipped n=2 t=3 kp=1 km=0: t must be in [0, n=2], got 3
""",
    ),
    (
        "simulate --alg min --code sum-mod:2 --n 2:3 --t 1:3 --kp 1 --trials 2 --seed 5 --format records",
        0,
        """\
{"rng":"philox","seed":5,"trial":0,"params":{"n":2,"t":1,"kp":1,"km":0},"algorithm":"min","N":2,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":5,"trial":1,"params":{"n":2,"t":1,"kp":1,"km":0},"algorithm":"min","N":2,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":5,"trial":0,"params":{"n":2,"t":2,"kp":1,"km":0},"algorithm":"min","N":3,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":5,"trial":1,"params":{"n":2,"t":2,"kp":1,"km":0},"algorithm":"min","N":3,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":5,"trial":0,"params":{"n":3,"t":1,"kp":1,"km":0},"algorithm":"min","N":2,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":5,"trial":1,"params":{"n":3,"t":1,"kp":1,"km":0},"algorithm":"min","N":2,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":5,"trial":0,"params":{"n":3,"t":2,"kp":1,"km":0},"algorithm":"min","N":4,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":5,"trial":1,"params":{"n":3,"t":2,"kp":1,"km":0},"algorithm":"min","N":4,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":5,"trial":0,"params":{"n":3,"t":3,"kp":1,"km":0},"algorithm":"min","N":5,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":5,"trial":1,"params":{"n":3,"t":3,"kp":1,"km":0},"algorithm":"min","N":5,"success":true,"list_size":1,"elapsed_ns":0}
# skipped n=2 t=3 kp=1 km=0: t must be in [0, n=2], got 3
""",
    ),
    (
        "simulate --alg majority --code sum-mod:3 --n 3:4 --t 1:2 --kp 0:1 --km 0:1 --delta 1 --trials 2 --seed 4",
        0,
        """\
alg       n  t  kp  km  delta  N  trials  success
majority  3  1  1   1   1      5  2       2
majority  4  1  1   1   1      5  2       2
# skipped n=3 t=1 kp=0 km=0: k_plus + k_minus = 0 makes the channel trivial
# skipped n=3 t=1 kp=0 km=1: need k_plus >= k_minus >= 0, got (0, 1)
# skipped n=3 t=1 kp=1 km=0: majority reconstruction needs k_minus >= 1
# skipped n=3 t=2 kp=0 km=0: k_plus + k_minus = 0 makes the channel trivial
# skipped n=3 t=2 kp=0 km=1: need k_plus >= k_minus >= 0, got (0, 1)
# skipped n=3 t=2 kp=1 km=0: majority reconstruction needs k_minus >= 1
# skipped n=3 t=2 kp=1 km=1: N=29 exceeds ball size 19
# skipped n=4 t=1 kp=0 km=0: k_plus + k_minus = 0 makes the channel trivial
# skipped n=4 t=1 kp=0 km=1: need k_plus >= k_minus >= 0, got (0, 1)
# skipped n=4 t=1 kp=1 km=0: majority reconstruction needs k_minus >= 1
# skipped n=4 t=2 kp=0 km=0: k_plus + k_minus = 0 makes the channel trivial
# skipped n=4 t=2 kp=0 km=1: need k_plus >= k_minus >= 0, got (0, 1)
# skipped n=4 t=2 kp=1 km=0: majority reconstruction needs k_minus >= 1
# skipped n=4 t=2 kp=1 km=1: N=37 exceeds ball size 33
""",
    ),
    (
        "simulate --alg majority --code sum-mod:3 --n 3:4 --t 1:2 --kp 0:1 --km 0:1 --delta 1 --trials 2 --seed 4 --format records",
        0,
        """\
{"rng":"philox","seed":4,"trial":0,"params":{"n":3,"t":1,"kp":1,"km":1},"algorithm":"majority","N":5,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":4,"trial":1,"params":{"n":3,"t":1,"kp":1,"km":1},"algorithm":"majority","N":5,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":4,"trial":0,"params":{"n":4,"t":1,"kp":1,"km":1},"algorithm":"majority","N":5,"success":true,"list_size":1,"elapsed_ns":0}
{"rng":"philox","seed":4,"trial":1,"params":{"n":4,"t":1,"kp":1,"km":1},"algorithm":"majority","N":5,"success":true,"list_size":1,"elapsed_ns":0}
# skipped n=3 t=1 kp=0 km=0: k_plus + k_minus = 0 makes the channel trivial
# skipped n=3 t=1 kp=0 km=1: need k_plus >= k_minus >= 0, got (0, 1)
# skipped n=3 t=1 kp=1 km=0: majority reconstruction needs k_minus >= 1
# skipped n=3 t=2 kp=0 km=0: k_plus + k_minus = 0 makes the channel trivial
# skipped n=3 t=2 kp=0 km=1: need k_plus >= k_minus >= 0, got (0, 1)
# skipped n=3 t=2 kp=1 km=0: majority reconstruction needs k_minus >= 1
# skipped n=3 t=2 kp=1 km=1: N=29 exceeds ball size 19
# skipped n=4 t=1 kp=0 km=0: k_plus + k_minus = 0 makes the channel trivial
# skipped n=4 t=1 kp=0 km=1: need k_plus >= k_minus >= 0, got (0, 1)
# skipped n=4 t=1 kp=1 km=0: majority reconstruction needs k_minus >= 1
# skipped n=4 t=2 kp=0 km=0: k_plus + k_minus = 0 makes the channel trivial
# skipped n=4 t=2 kp=0 km=1: need k_plus >= k_minus >= 0, got (0, 1)
# skipped n=4 t=2 kp=1 km=0: majority reconstruction needs k_minus >= 1
# skipped n=4 t=2 kp=1 km=1: N=37 exceeds ball size 33
""",
    ),
    (
        "simulate --alg min --code sum-mod:2 --n 2:3 --t 1 --kp 1 --delta 2 --trials 2 --explain",
        0,
        """\
alg  n  t  kp  km  delta  N  trials  success  anchor
# skipped n=2 t=1 kp=1 km=0: --delta 2 exceeds the code's distance 1; the read-count guarantees assume delta <= distance
# skipped n=3 t=1 kp=1 km=0: --delta 2 exceeds the code's distance 1; the read-count guarantees assume delta <= distance
# anchor legend:
""",
    ),
    (
        "simulate --alg min --code sum-mod:2 --n 3 --t 1 --kp 1 --trials 2 --explain",
        0,
        """\
alg  n  t  kp  km  delta  N  trials  success  anchor
min  3  1  1   0   1      2  2       2        reads-min
# anchor legend:
#   reads-min: k+^d * V_{k++1}(n-d,t-d) + 1
""",
    ),
    (
        "intersect --n 2 --t 0:3 --kp 1 --oracle",
        0,
        """\
n  t  kp  km  formula  brute  match
2  1  1   0   1        1      MATCH
2  2  1   0   2        2      MATCH
# skipped n=2 t=0 kp=1 km=0: needs t >= 1
# skipped n=2 t=3 kp=1 km=0: t must be in [0, n=2], got 3
""",
    ),
    (
        "ball --n 1:2 --t 1:2 --kp 0:1 --oracle --explain",
        0,
        """\
n  t  kp  km  size  brute  match  anchor
1  1  1   0   2     2      MATCH  ball-size
2  1  1   0   3     3      MATCH  ball-size
2  2  1   0   4     4      MATCH  ball-size
# skipped n=1 t=1 kp=0 km=0: k_plus + k_minus = 0 makes the channel trivial
# skipped n=1 t=2 kp=0 km=0: t must be in [0, n=1], got 2
# skipped n=1 t=2 kp=1 km=0: t must be in [0, n=1], got 2
# skipped n=2 t=1 kp=0 km=0: k_plus + k_minus = 0 makes the channel trivial
# skipped n=2 t=2 kp=0 km=0: k_plus + k_minus = 0 makes the channel trivial
# anchor legend:
#   ball-size: V_{k++k-+1}(n,t)
""",
    ),
    # the tandem codes of the benchmark, the greedy codes (m, r, delta) =
    # (2, 6, 1), (3, 4, 1) and (2, 6, 2), at t = 1..3: delta = 2 > t = 1 is
    # an error, and (3, 4, 1) at t = 3 reads N = 18, as its formula's N = 11
    # gives 5.9 million sets; then rows with failures: too few reads, and a
    # delta below the code's
    (
        "tandem --code simplex:@simplex-m2-r6-d1.txt --t 1",
        0,
        """\
m  r  t  delta  N  sets  success  fail
2  6  1  1      2  84    84       0
""",
    ),
    (
        "tandem --code simplex:@simplex-m2-r6-d1.txt --t 2",
        0,
        """\
m  r  t  delta  N  sets  success  fail
2  6  2  1      4  420   420      0
""",
    ),
    (
        "tandem --code simplex:@simplex-m2-r6-d1.txt --t 3",
        0,
        """\
m  r  t  delta  N  sets  success  fail
2  6  3  1      7  3360  3360     0
""",
    ),
    (
        "tandem --code simplex:@simplex-m3-r4-d1.txt --t 1",
        0,
        """\
m  r  t  delta  N  sets  success  fail
3  4  1  1      2  210   210      0
""",
    ),
    (
        "tandem --code simplex:@simplex-m3-r4-d1.txt --t 2",
        0,
        """\
m  r  t  delta  N  sets  success  fail
3  4  2  1      5  8820  8820     0
""",
    ),
    (
        "tandem --code simplex:@simplex-m3-r4-d1.txt --t 3 --N 18",
        0,
        """\
m  r  t  delta  N   sets  success  fail
3  4  3  1      18  6650  6650     0
""",
    ),
    (
        "tandem --code simplex:@simplex-m2-r6-d2.txt --t 1",
        1,
        """\
""",
    ),
    (
        "tandem --code simplex:@simplex-m2-r6-d2.txt --t 2 --format records",
        0,
        """\
{"m":2,"r":6,"t":2,"delta":2,"N":2,"sets":180,"success":180,"fail":0}
""",
    ),
    (
        "tandem --code simplex:@simplex-m2-r6-d2.txt --t 3 --explain",
        0,
        """\
m  r  t  delta  N  sets  success  fail  anchor
2  6  3  2      4  2250  2250     0     simplex-reads
# anchor legend:
#   simplex-reads: C(m+t-d,m) + 1
""",
    ),
    (
        "tandem --code simplex:@simplex-m2-r6-d1.txt --t 3 --N 1",
        1,
        """\
m  r  t  delta  N  sets  success  fail
2  6  3  1      1  560   28       532
""",
    ),
    (
        "tandem --code simplex:@simplex-m3-r4-d1.txt --t 2 --N 2",
        1,
        """\
m  r  t  delta  N  sets  success  fail
3  4  2  1      2  1785  945      840
""",
    ),
    (
        "tandem --code simplex:@simplex-m2-r6-d2.txt --t 3 --delta 1 --N 3",
        1,
        """\
m  r  t  delta  N  sets  success  fail
2  6  3  1      3  1410  810      600
""",
    ),
]


@pytest.mark.parametrize("argv, status, stdout", CASES, ids=[c[0] for c in CASES])
def test_cli_output_unchanged(argv, status, stdout, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "unique.txt").write_text(UNIQUE_CODE, encoding="utf-8")
    for m, r, delta in SIMPLEX_CODES:
        (tmp_path / f"simplex-m{m}-r{r}-d{delta}.txt").write_text(
            format_simplex_code(greedy_simplex_code(m, r, delta)), encoding="utf-8"
        )
    assert main(shlex.split(argv)) == status
    assert capsys.readouterr().out == stdout
