"""Golden records: absolute trajectory values of the stepper.

The other stepper tests check invariants (energy identity, divergence,
the momentum equation), which a change to the solver that moves every
trajectory by the same amount would still pass.  These records pin the
final velocity of small reference runs instead: mesh order 4, N = 8 steps
on T = 0.1, two curl modes of amplitude 1 with the linear noise rule at
p in {1.5 (kappa = 0.1), 2, 3} and with the additive rule at p in
{1.5 (kappa = 0.1), 3}, a fixed seed.  The additive runs leave the
small-data regime of the linear ones: Newton takes up to 14 iterations a
step there and rebuilds its lagged factor on drift, and at p = 3 also
after a correction that barely contracts.
They were recorded from the stepper solving in the divergence-free
stream basis and must survive refactors of the solver unchanged (1e-10
relative), together with the Newton iteration count of every step.  The final field is pinned
by its L2 norm and by its pairing with a fixed standard-normal vector,
not by its coefficient sum: the coefficients nearly cancel in the sum
(at p = 1.5 it is 3e-6 of their absolute sum), so rounding alone moves
it by more than the tolerance, while the pairing is well conditioned.

A second set pins what the saddle-point projections feed: the pressure
reconstruction and all cross-mesh error functionals of a coupled pair of
stream runs (reference m = 4, N = 7 and coarse m = 2, N = 3, both driven
by one Wiener path with delta = tau_ref/4): at p = 2 for each noise rule,
and at p = 1.5 (kappa = 0.1) and p = 3 with the linear rule.  Norms are
recorded rather than coefficient sums.  The initial pressure is
the one exception: the initial velocity is discretely divergence free, so
its pressure vanishes and its norm (about 4e-18) is rounding noise; it is
checked against an absolute bound instead of a record.
"""

import numpy as np
import pytest

from pstokes.grids import TimeGrid
from pstokes.meshing import alfeld_split, unit_square_mesh
from pstokes.diagnostics import error_stats
from pstokes.noise import NoiseModel, sample_increments, sample_wiener_path
from pstokes.pressure import reconstruct
from pstokes.scenarios import curl_modes, u0_smooth
from pstokes.spaces import Field, assemble, norms
from pstokes.stepper import SchemeConfig, initial_velocity, run_trajectory
from pstokes.tensors import PowerLawParams

SEED = 20230725
REL = 1e-10

# (noise rule, p, kappa): (final coefficients paired with _probe(n_dofs),
# L2 norm of the final velocity, Newton iterations per step)
GOLDEN = {
    ("linear", 1.5, 0.1): (
        -0.0008953629522457753, 3.609490410090546e-05, [6, 4, 4, 3, 3, 3, 3, 3]
    ),
    ("linear", 2.0, 0.0): (
        -0.02177665733999438, 0.000879046011743387, [1, 1, 1, 1, 1, 1, 1, 1]
    ),
    ("linear", 3.0, 0.0): (
        -0.17485672541610875, 0.006860951083679451, [5, 6, 7, 7, 7, 7, 8, 7]
    ),
    ("additive", 1.5, 0.1): (
        0.3501710916700569, 0.012834046752300475, [6, 4, 6, 10, 10, 6, 9, 8]
    ),
    ("additive", 3.0, 0.0): (
        1.327595580410207, 0.04387259663726994, [5, 6, 9, 14, 12, 8, 12, 14]
    ),
}


def _golden_id(key) -> str:
    rule, p, _ = key
    return f"p{p}-stream" if rule == "linear" else f"p{p}-{rule}"


def _probe(n: int) -> np.ndarray:
    return np.random.default_rng(0).standard_normal(n)


@pytest.fixture(scope="module")
def ops4():
    return assemble(alfeld_split(unit_square_mesh(4)))


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=_golden_id)
def test_final_velocity_matches_record(ops4, key):
    rule, p, kappa = key
    pairing, l2, iterations = GOLDEN[key]
    grid = TimeGrid(T=0.1, N=8)
    model = NoiseModel(mode_fields=curl_modes(2, amplitude=1.0), rule=rule)
    cfg = SchemeConfig(PowerLawParams(p=p, kappa=kappa), grid, model)
    inc = sample_increments(np.random.default_rng(SEED), grid, n_modes=2)
    traj = run_trajectory(initial_velocity(u0_smooth, ops4), inc, cfg, ops4)
    assert traj.ok
    u = traj.fields[-1]
    assert float(u.coeffs @ _probe(u.coeffs.size)) == pytest.approx(
        pairing, rel=REL, abs=0.0
    )
    assert norms(u, "L2", ops4) == pytest.approx(l2, rel=REL, abs=0.0)
    assert [s.iterations for s in traj.stats] == iterations


# case: (noise rule, p, kappa); per run, L2 norms of (pi_det[-1],
# pi_sto[-1], z_sto[-1]), then the cross-mesh ErrorStats values.  The
# p != 2 cases pin the nonlinear V(eps u) comparison across meshes, which
# at p = 2 reduces to eps u.
PRESSURE_GOLDEN = {
    "additive": {
        "params": (2.0, 0.0),
        "ref": [0.014302356999467594, 0.006885301297658518, 0.07550031779199216],
        "coarse": [0.006256804947300031, 0.012460366190698546, 0.10397307711582462],
        "errors": {
            "natural_err": 0.0009356252856137517,
            "vgrad_err": 0.0019135702474369493,
            "besov_err": 0.0007527440314984181,
            "C_init": 1.8593003080555223e-08,
            "C_Linf": 0.0007716322390400023,
            "C_best": 0.0052723854607719415,
            "C_G": 0.01907657117385051,
            "C_V": 0.0026031530217559442,
        },
    },
    "linear": {
        "params": (2.0, 0.0),
        "ref": [0.0006751958826254315, 2.4050634891682286e-05, 0.00019091717554918055],
        "coarse": [0.0010152825546494893, 5.8492256461245925e-05, 0.0002277087816241597],
        "errors": {
            "natural_err": 4.539154739420218e-06,
            "vgrad_err": 6.565139867182575e-06,
            "besov_err": 5.633016490550592e-06,
            "C_init": 1.8593003080555223e-08,
            "C_Linf": 3.7133716139110442e-06,
            "C_best": 2.763748923287454e-05,
            "C_G": 2.901907850048971e-07,
            "C_V": 4.5768409900325e-06,
        },
    },
    "linear-p1.5": {
        "params": (1.5, 0.1),
        "ref": [0.0007473814917344403, 1.2036723115073276e-05, 7.611809527693176e-05],
        "coarse": [0.001107767700018915, 2.8835868897189e-05, 0.00011162893102485936],
        "errors": {
            "natural_err": 1.1109753375930127e-06,
            "vgrad_err": 5.274486894632941e-06,
            "besov_err": 8.253655012492647e-06,
            "C_init": 1.85930030805563e-08,
            "C_Linf": 8.81892016794209e-07,
            "C_best": 3.449542809191167e-05,
            "C_G": 1.7085921240089784e-07,
            "C_V": 2.1063835727441388e-05,
        },
    },
    "linear-p3": {
        "params": (3.0, 0.0),
        "ref": [0.0001240246437154501, 7.270399873819655e-05, 0.000483439995765081],
        "coarse": [0.0002441671038122306, 0.00010962274681434284, 0.00044903024555272497],
        "errors": {
            "natural_err": 1.2718563411445208e-05,
            "vgrad_err": 2.3829252314743357e-06,
            "besov_err": 7.208250418118163e-07,
            "C_init": 1.85930030805563e-08,
            "C_Linf": 1.2477674818187072e-05,
            "C_best": 9.984732885067963e-06,
            "C_G": 6.673228992147629e-07,
            "C_V": 2.951176198133382e-08,
        },
    },
}


def _pressure_norms(traj, inc, cfg, ops):
    pt = reconstruct(traj, inc, cfg, ops, verify=True)
    assert norms(pt.pi_init, "L2", ops) < 1e-15
    return [
        norms(pt.pi_det[-1], "L2", ops),
        norms(pt.pi_sto[-1], "L2", ops),
        norms(Field("velocity", pt.z_sto[-1]), "L2", ops),
    ]


@pytest.mark.parametrize("case", sorted(PRESSURE_GOLDEN))
def test_pressure_and_error_stats_match_record(case):
    record = PRESSURE_GOLDEN[case]
    rule = case.split("-")[0]
    model = NoiseModel(mode_fields=curl_modes(2, amplitude=1.0), rule=rule)
    params = PowerLawParams(*record["params"])
    runs = {}
    path = None
    for name, m, N in (("ref", 4, 7), ("coarse", 2, 3)):
        ops = assemble(alfeld_split(unit_square_mesh(m)))
        cfg = SchemeConfig(params, TimeGrid(T=0.1, N=N), model)
        if path is None:
            path = sample_wiener_path(0.1, cfg.grid.tau / 4, 2, np.random.default_rng(SEED))
        inc = sample_increments(path, cfg.grid)
        traj = run_trajectory(initial_velocity(u0_smooth, ops), inc, cfg, ops)
        assert traj.ok
        assert _pressure_norms(traj, inc, cfg, ops) == pytest.approx(
            record[name], rel=REL, abs=0.0
        )
        runs[name] = (traj, cfg, ops)
    (tf, cf, of), (tc, cc, oc) = runs["ref"], runs["coarse"]
    es = error_stats([tc], [tf], cc, cf, oc, of)
    errors = record["errors"]
    assert {k: getattr(es, k) for k in errors} == pytest.approx(errors, rel=REL, abs=0.0)
