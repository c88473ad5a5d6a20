"""The console script: `pstokes run` prints one JSON line per step."""

import json
from dataclasses import fields, replace

import pstokes.cli as cli
from pstokes.stepper import NewtonConfig, StepStats, run_trajectory


def test_run_prints_one_line_per_step(capsys):
    code = cli.main(["run", "--m", "2", "--N", "2", "--p", "3", "--seed", "1"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert [line["n"] for line in lines] == [1, 2]
    keys = {"n", "max_div"} | {f.name for f in fields(StepStats)}
    for line in lines:
        assert set(line) == keys
        assert line["converged"] and line["max_div"] <= 1e-8


def test_failed_trajectory_exits_nonzero(capsys, monkeypatch):
    # one Newton iteration and one Kacanov iterate cannot finish a p = 3
    # step; the script has no Newton options, so the budget is patched in
    def starved(u0, inc, config, ops):
        newton = NewtonConfig(max_iter=1, picard_iters=1)
        return run_trajectory(u0, inc, replace(config, newton=newton), ops)

    monkeypatch.setattr(cli, "run_trajectory", starved)
    code = cli.main(["run", "--m", "2", "--N", "3", "--p", "3"])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 1
    assert len(lines) == 1 and not lines[0]["converged"]
