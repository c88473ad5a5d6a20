"""The benchmark's three workloads, run once each as a tier-1 test.

`perfbench/workloads.py` drives the package through the names the
benchmark times (`StepperWorkspace.stream_gram`, `is_linear`,
`linear_stream`, `AssembledOperators.projection_saddle`, ...) and checks
every output of a study: finiteness, the invariants and, for study 0 of
the default seed, the recorded headline statistics.  Running `setup()`
and study 0 of every workload here catches a change to `pstokes` that
breaks one of those names or moves one of those statistics, without the
benchmark's own timed runs.  It only reads `perfbench/`.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import harness
    import workloads

    return harness, workloads


@pytest.mark.parametrize("name", ["ensemble_p2", "newton_p3", "coupled_ladder"])
def test_study_zero_passes_its_checks(bench, name):
    harness, workloads = bench
    workload = workloads.WORKLOADS[name]
    ledger = harness.Ledger()
    state = workload.setup()
    assert workload.study(state, workloads.DEFAULT_SEED, 0, ledger) == 1
    assert ledger.failed == 0, ledger.problems
    assert ledger.attempted > 0
