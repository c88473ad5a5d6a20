"""Guard of the layer boundaries the traced benchmark run times.

`perfbench/spans.py` times the per-step kernels by replacing the names
`pstokes.stepper` calls them by, and restores every replaced attribute
when its `instrument` block ends.  A refactor that stops calling a
kernel through its module-level name would silently drop that kernel's
spans from the traced run.  This test steps one small trajectory inside
`instrument` and checks that the five kernel spans and the span of the
reduced factorizations (`spla.splu`, as the stepper calls it) were
recorded and that the instrumented modules are left as they were.  The
noise is linear, because an additive step evaluates no velocity and
calls no `data_G_n`.  It only reads `perfbench/`.
"""

import importlib.util
from pathlib import Path

import numpy as np

import pstokes.diagnostics as diagnostics
import pstokes.meshing as meshing
import pstokes.noise as noise
import pstokes.pressure as pressure
import pstokes.spaces as spaces
import pstokes.stepper as stepper
from pstokes.grids import TimeGrid
from pstokes.scenarios import curl_modes, u0_smooth
from pstokes.tensors import PowerLawParams

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
KERNELS = (
    "spaces.velocity_at_qp",
    "spaces.velocity_load_vector",
    "spaces.stress_residual_vector",
    "spaces.stress_tangent_matrix",
    "noise.data_G_n",
    "stepper.factorize",
)
OWNERS = (diagnostics, meshing, noise, pressure, spaces, stepper, spaces.AssembledOperators)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_spans_recorded_and_attributes_restored():
    spans = _load_spans()
    ops = spaces.assemble(meshing.alfeld_split(meshing.unit_square_mesh(2)))
    model = noise.NoiseModel(mode_fields=curl_modes(2, amplitude=1.0), rule="linear")
    cfg = stepper.SchemeConfig(PowerLawParams(p=3.0), TimeGrid(T=0.1, N=4), model)
    inc = noise.sample_increments(np.random.default_rng(0), cfg.grid, n_modes=2)
    u0 = stepper.initial_velocity(u0_smooth, ops)

    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traj = stepper.run_trajectory(u0, inc, cfg, ops)
    assert traj.ok

    recorded = {name for name, *_ in tracer.spans}
    assert set(KERNELS) <= recorded
    for owner, saved in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        changed = [attr for attr, value in saved.items() if now[attr] is not value]
        assert not changed, (owner, changed)
