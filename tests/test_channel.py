import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magrec import ChannelParams, EnumerationCapExceeded
from magrec.channel import (
    RNG_NAME,
    TrialRecord,
    exhaustive_read_sets,
    generate_reads,
    record_lines,
    run_trial,
)
from magrec.reconstruction import ALGORITHMS
from magrec.combinatorics import ball_size
from magrec.lattice import LatticeCode, SplitterSpec, cyclic

from helpers import in_ball, sampled_read_sets
from strategies import channels


def sum_mod(n, m):
    return LatticeCode(SplitterSpec(cyclic(m), ((1,),) * n))


def test_generate_reads_validation():
    p = ChannelParams(2, 1, 1, 0)
    with pytest.raises(ValueError):
        generate_reads((0, 0), p, 1, "bogus")
    with pytest.raises(ValueError):
        generate_reads((0, 0), p, 0)
    with pytest.raises(ValueError):
        generate_reads((0, 0), p, 1, seed=-1)
    with pytest.raises(ValueError):
        generate_reads((0, 0), p, 1, "exhaustive")


def test_generate_reads_whole_ball():
    p = ChannelParams(2, 1, 1, 0)
    Y = generate_reads((2, 2), p, ball_size(p), seed=5)
    assert set(Y.reads) == {(2, 2), (2, 3), (3, 2)}


def test_generate_reads_distinct_and_in_ball():
    p = ChannelParams(3, 2, 2, 1)
    Y = generate_reads((1, 1, 1), p, 10, seed=11)
    assert len(set(Y.reads)) == 10
    for r in Y.reads:
        e = tuple(a - b for a, b in zip(r, (1, 1, 1)))
        assert in_ball(e, p)
    again = generate_reads((1, 1, 1), p, 10, seed=11)
    assert Y.reads == again.reads


def test_generate_reads_too_many():
    p = ChannelParams(2, 1, 1, 0)
    with pytest.raises(ValueError):
        generate_reads((0, 0), p, 4)


def test_exhaustive_mode_counts_subsets():
    p = ChannelParams(2, 2, 1, 0)  # ball of size 4
    subsets = list(exhaustive_read_sets((0, 0), p, 2))
    assert len(subsets) == 6
    assert len({s.reads for s in subsets}) == 6
    with pytest.raises(EnumerationCapExceeded):
        list(exhaustive_read_sets((0, 0), ChannelParams(2, 2, 2, 2), 6, cap=10))


def test_adversarial_mode_prefers_heavy_errors():
    p = ChannelParams(2, 2, 1, 0)
    Y = generate_reads((0, 0), p, 2, "adversarial")
    assert Y.reads == ((0, 1), (1, 1))  # weight-2 error first, then (0,1)


def test_sampled_read_sets_deterministic():
    p = ChannelParams(3, 2, 1, 1)
    a = [stack.tolist() for stack in sampled_read_sets((0, 0, 0), p, 5, 20, seed=3)]
    b = [stack.tolist() for stack in sampled_read_sets((0, 0, 0), p, 5, 20, seed=3)]
    assert a == b
    assert sum(map(len, a)) == 20


def test_run_trial_clean_read():
    p = ChannelParams(2, 0, 1, 0)
    rec = run_trial(sum_mod(2, 2), "min", (0, 0), p, 1, delta=1, seed=4)
    assert rec.success
    assert rec.N == 1
    assert rec.rng == "philox" and rec.seed == 4 and rec.trial == 0


def test_run_trial_majority_and_list():
    p = ChannelParams(3, 1, 1, 1)
    code = sum_mod(3, 3)
    rec = run_trial(code, "majority", (0, 0, 0), p, 5, delta=1, seed=8)
    assert rec.success and rec.algorithm == "majority"
    rec = run_trial(code, "list-sauer", (0, 0, 0), p, 2, delta=1, a=0, seed=8)
    assert rec.success and rec.list_size >= 1
    # an unknown name is refused by the one plan lookup, before any read
    with pytest.raises(ValueError, match=r"^algorithm must be one of \('min', "):
        run_trial(code, "cover", (0, 0, 0), p, 5, delta=1)


def dumped(record: TrialRecord) -> str:
    """The record's line as ``json.dumps`` writes its object."""
    p = record.params
    obj = {
        "rng": record.rng, "seed": record.seed, "trial": record.trial,
        "params": {"n": p.n, "t": p.t, "kp": p.k_plus, "km": p.k_minus},
        "algorithm": record.algorithm, "N": record.N, "success": record.success,
        "list_size": record.list_size, "elapsed_ns": record.elapsed_ns,
    }
    return json.dumps(obj, separators=(",", ":"))


COUNTS = st.integers(0, 2**70)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**64 - 1), channels(), st.sampled_from(sorted(ALGORITHMS)), COUNTS, COUNTS,
    st.lists(st.tuples(st.booleans(), COUNTS), min_size=1, max_size=5), st.integers(1, 2**40),
)
def test_records_render_as_json_dumps_writes_them(seed, p, algorithm, first, elapsed, trials, N):
    records = [TrialRecord(RNG_NAME, seed, first + i, p, algorithm, N, hit, size, elapsed)
               for i, (hit, size) in enumerate(trials)]
    hits, sizes = zip(*trials)
    lines = record_lines(RNG_NAME, seed, p, algorithm, N, first, hits, sizes, elapsed)
    assert lines == [record.to_line() for record in records]
    assert lines == [dumped(record) for record in records]
    for line, record in zip(lines, records):
        obj = json.loads(line)
        q = obj.pop("params")
        assert TrialRecord(params=ChannelParams(q["n"], q["t"], q["kp"], q["km"]), **obj) == record


def test_trial_record_round_trip():
    p = ChannelParams(2, 1, 1, 0)
    rec = TrialRecord("philox", 7, 3, p, "min", 2, True, 1, 0)
    line = rec.to_line()
    assert line == (
        '{"rng":"philox","seed":7,"trial":3,"params":{"n":2,"t":1,"kp":1,"km":0},'
        '"algorithm":"min","N":2,"success":true,"list_size":1,"elapsed_ns":0}'
    )
    obj = json.loads(line)
    q = obj.pop("params")
    assert TrialRecord(params=ChannelParams(q["n"], q["t"], q["kp"], q["km"]), **obj) == rec
