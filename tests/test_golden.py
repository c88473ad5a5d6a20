"""Golden records: absolute trajectory values for both stepper backends.

The other stepper tests check invariants (energy identity, divergence,
backend agreement), which a change to the solver that moves every
trajectory by the same amount would still pass.  These records pin the
final velocity of small reference runs instead: mesh order 4, N = 8 steps
on T = 0.1, two curl modes with the linear noise rule, a fixed seed.
They were recorded from the stepper with one Newton loop per backend and
must survive refactors of the solver unchanged (1e-10 relative), together
with the Newton iteration count of every step.
"""

import numpy as np
import pytest

from pstokes.grids import TimeGrid
from pstokes.meshing import alfeld_split, unit_square_mesh
from pstokes.noise import NoiseModel, sample_increments
from pstokes.spaces import assemble, norms
from pstokes.stepper import SchemeConfig, initial_velocity, run_trajectory
from pstokes.tensors import PowerLawParams

from test_stepper import curl_modes, u0_smooth

SEED = 20230725
REL = 1e-10

# (p, kappa, solver): (sum of final coefficients, L2 norm of the final
# velocity, Newton iterations per step)
GOLDEN = {
    (1.5, 0.1, "kkt"): (
        -2.4308611240998583e-08, 3.6094904100920794e-05, [6, 4, 4, 3, 3, 3, 3, 3]
    ),
    (1.5, 0.1, "stream"): (
        -2.4308615962807464e-08, 3.609490410090546e-05, [6, 4, 4, 3, 3, 3, 3, 3]
    ),
    (2.0, 0.0, "kkt"): (
        3.8276592690886235e-07, 0.0008790460117433774, [1, 1, 1, 1, 1, 1, 1, 1]
    ),
    (2.0, 0.0, "stream"): (
        3.827659273616252e-07, 0.000879046011743387, [1, 1, 1, 1, 1, 1, 1, 1]
    ),
    (3.0, 0.0, "kkt"): (
        -0.00021345639352740586, 0.00686095108367945, [5, 6, 7, 7, 7, 7, 8, 7]
    ),
    (3.0, 0.0, "stream"): (
        -0.0002134563935283218, 0.006860951083679451, [5, 6, 7, 7, 7, 7, 8, 7]
    ),
}


@pytest.fixture(scope="module")
def ops4():
    return assemble(alfeld_split(unit_square_mesh(4)))


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: f"p{k[0]}-{k[2]}")
def test_final_velocity_matches_record(ops4, key):
    p, kappa, solver = key
    coeff_sum, l2, iterations = GOLDEN[key]
    grid = TimeGrid(T=0.1, N=8)
    model = NoiseModel(mode_fields=curl_modes(2, amplitude=1.0), rule="linear")
    cfg = SchemeConfig(PowerLawParams(p=p, kappa=kappa), grid, model, solver=solver)
    inc = sample_increments(np.random.default_rng(SEED), grid, n_modes=2)
    traj = run_trajectory(initial_velocity(u0_smooth, ops4), inc, cfg, ops4)
    assert traj.ok
    u = traj.fields[-1]
    assert float(u.coeffs.sum()) == pytest.approx(coeff_sum, rel=REL, abs=0.0)
    assert norms(u, "L2", ops4) == pytest.approx(l2, rel=REL, abs=0.0)
    assert [s.iterations for s in traj.stats] == iterations
