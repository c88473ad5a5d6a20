"""Self-test of the benchmark harness at a tiny size.

    python3 -m pytest -q perfbench/test_harness.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that corrupted outputs are counted as failed operations, and that
the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import pstokes.diagnostics as diagnostics  # noqa: E402
import pstokes.pressure as pressure  # noqa: E402
import pstokes.stepper as stepper  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    CoupledLadder,
    EnsembleP2,
    NewtonP3,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "ensemble_p2": lambda **kw: EnsembleP2(m=2, N=4, **kw),
    "newton_p3": lambda **kw: NewtonP3(m=2, N=4, **kw),
    "coupled_ladder": lambda **kw: CoupledLadder(m_ref=4, N_ref=7, levels=((4, 1), (2, 7)), **kw),
}


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _assert_emits(out: dict, kind: str) -> None:
    line = run.result_line(out)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units(kind)
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    _assert_emits(harness.measure(TINY[name](), seed=3, seconds=0), "end_to_end")


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_emits_every_per_layer_metric(name):
    out = harness.measure_traced(TINY[name](), seed=3, seconds=0)
    _assert_emits(out, "per_layer")
    m = {k: v for k, (v, _) in out["metrics"].items()}
    partition = sum(m[k] for k in harness.PARTITION)
    assert partition == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["stepper.run_trajectory_calls"] >= 1


def _corrupt_last_field(monkeypatch):
    run_trajectory = stepper.run_trajectory

    def corrupted(*args, **kwargs):
        traj = run_trajectory(*args, **kwargs)
        u = traj.fields[-1].coeffs
        u[np.flatnonzero(u)[0]] += 1.0  # no longer divergence free
        return traj

    monkeypatch.setattr(stepper, "run_trajectory", corrupted)


def _nan_stability_stats(monkeypatch):
    stability_stats = diagnostics.stability_stats

    def corrupted(*args, **kwargs):
        st = stability_stats(*args, **kwargs)
        return type(st)(**{**vars(st), "e_max": float("nan")})

    monkeypatch.setattr(diagnostics, "stability_stats", corrupted)


def _raising_check(monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("corrupted reconstruction")

    monkeypatch.setattr(pressure, "verify_reconstruction", broken)


@pytest.mark.parametrize("corrupt", [_corrupt_last_field, _nan_stability_stats, _raising_check])
def test_corrupted_output_counts_as_failed(monkeypatch, corrupt):
    corrupt(monkeypatch)
    line = run.result_line(harness.measure(TINY["ensemble_p2"](), seed=3, seconds=0))
    assert line["failed"] >= 1
    assert not line["correct"]


def test_golden_mismatch_counts_as_failed():
    workload = TINY["newton_p3"](golden={"final_energy": 1.0})
    line = run.result_line(harness.measure(workload, seed=DEFAULT_SEED, seconds=0))
    assert line["failed"] == 1 and line["attempted"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "newton_p3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
