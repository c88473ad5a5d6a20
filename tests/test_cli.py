"""The console script: `pstokes run` prints one JSON line per step."""

import json
from dataclasses import fields, replace

import pytest

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


@pytest.mark.parametrize(
    "option,value,match",
    [
        ("--m", "0", "m=0"),
        ("--N", "0", "N=0"),
        ("--p", "1", "p=1.0"),
        ("--T", "-1", "T=-1.0"),
        ("--T", "inf", "T=inf"),
        ("--p", "inf", "p=inf"),
        ("--kappa", "nan", "kappa=nan"),
        ("--modes", "-1", "modes must be >= 0, got -1"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ],
)
def test_bad_value_is_a_usage_error(capsys, option, value, match):
    # a value the run cannot take exits like any usage error (code 2),
    # not like a trajectory that failed (code 1), and prints no trace
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", option, value])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and match in err and "Traceback" not in err
