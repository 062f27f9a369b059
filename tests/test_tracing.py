"""The benchmark's tracer still installs on every name it traces.

``perfbench/tracing.py`` wraps functions by name and reads some of their
arguments by position; a traced function that is renamed, deleted or whose
observed argument moves breaks traced benchmark runs.  This runs a few small
commands, and the traced functions the CLI does not call (two channel
functions, and ``reconstruction.sauer_shelah_find``, since ``list --alg
sauer`` searches a whole block at once), under an installed tracer.
"""

from pathlib import Path

from magrec import ChannelParams, channel, cli, reconstruction
from magrec.lattice import LatticeCode, SplitterSpec, cyclic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_reports(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    simplex = tmp_path / "code.txt"
    simplex.write_text("m=2,r=3,delta=1\n3,0,0\n0,3,0\n0,0,3\n1,1,1\n", encoding="utf-8")
    commands = [
        "reconstruct --alg majority --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1 --trials 3",
        "list --alg sauer --code sum-mod:3 --n 4 --t 2 --kp 1 --km 1 --delta 1 --a 1 --trials 3",
        f"tandem --code simplex:@{simplex} --t 2",
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        for command in commands:
            assert cli.main(command.split()) == 0, command
        code = LatticeCode(SplitterSpec(cyclic(3), ((1,),) * 3))
        record = channel.run_trial(code, "majority", (0, 0, 0), ChannelParams(3, 1, 1, 1), 5, 1)
        assert record.success
        assert reconstruction.sauer_shelah_find([(0, 0), (1, 1), (0, 1)], 2, 1) == (0,)
    capsys.readouterr()
    metrics = tracer.metrics(1.0)
    assert metrics["cli.main.calls"] == 3
    assert metrics["cli.code_distance.calls"] == 2
    assert metrics["channel.run_trial.calls"] == 1
    assert metrics["channel.generate_reads.calls"] == 1
    assert metrics["reconstruction.sauer_shelah_find.subsets_scanned"] > 0
