"""Golden records: absolute trajectory values of the stepper.

The other stepper tests check invariants (energy identity, divergence,
the momentum equation), which a change to the solver that moves every
trajectory by the same amount would still pass.  These records pin the
final velocity of small reference runs instead: mesh order 4, N = 8 steps
on T = 0.1, two curl modes of amplitude 1 with the linear noise rule at
p in {1.5 (kappa = 0.1), 2, 3} and with the additive rule at p in
{1.5 (kappa = 0.1 and the degenerate kappa = 0), 3}, a fixed seed.  The
additive runs leave the small-data regime of the linear ones: Newton
takes up to 14 iterations a step there and rebuilds its lagged factor on
drift, and at p = 3 also after a correction that barely contracts.  The
degenerate law is the one record in which the Armijo backtrack fires:
Newton evaluates its residual 106 times for 103 iterations, up to 20 a
step.  (The degenerate law with the linear rule is not pinned: its field
decays to about 1e-16, which is rounding noise.)
They were recorded from the stepper solving in the divergence-free
stream basis and must survive refactors of the solver unchanged (1e-10
relative), together with the Newton iteration count of every step and
the totals of refactorizations and Kacanov fallback steps (COUNTS, which
also pins two runs in which Newton is cut short and the fallback runs).
The final field is pinned by its L2 norm and by its pairing with a
fixed standard-normal vector, not by its coefficient sum: the coefficients nearly cancel in the sum
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
from pstokes.pressure import reconstruct, verify_reconstruction
from pstokes.records import load_checkpoints, save_checkpoints
from pstokes.scenarios import curl_modes, u0_smooth
from pstokes.spaces import Field, assemble, l2_norm
from pstokes.stepper import NewtonConfig, SchemeConfig, initial_velocity, run_trajectory
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
    ("additive", 1.5, 0.0): (
        0.2001751967532215, 0.007878614462713054, [15, 8, 8, 9, 20, 19, 12, 12]
    ),
    ("additive", 3.0, 0.0): (
        1.327595580410207, 0.04387259663726994, [5, 6, 9, 14, 12, 8, 12, 14]
    ),
}


def _golden_id(key) -> str:
    rule, p, kappa = key
    name = f"p{p}-stream" if rule == "linear" else f"p{p}-{rule}"
    return name + "-degenerate" if p < 2.0 and kappa == 0.0 else name


def _probe(n: int) -> np.ndarray:
    return np.random.default_rng(0).standard_normal(n)


@pytest.fixture(scope="module")
def ops4():
    return assemble(alfeld_split(unit_square_mesh(4)))


def _golden_run(ops4, key):
    rule, p, kappa = key
    grid = TimeGrid(T=0.1, N=8)
    model = NoiseModel(mode_fields=curl_modes(2, amplitude=1.0), rule=rule)
    cfg = SchemeConfig(PowerLawParams(p=p, kappa=kappa), grid, model)
    inc = sample_increments(np.random.default_rng(SEED), grid, n_modes=2)
    traj = run_trajectory(initial_velocity(u0_smooth, ops4), inc, cfg, ops4)
    assert traj.ok
    return traj


def _check_final_velocity(u, ops4, key):
    pairing, l2, _ = GOLDEN[key]
    assert float(u.coeffs @ _probe(u.coeffs.size)) == pytest.approx(
        pairing, rel=REL, abs=0.0
    )
    assert l2_norm(u, ops4) == pytest.approx(l2, rel=REL, abs=0.0)


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=_golden_id)
def test_final_velocity_matches_record(ops4, key):
    traj = _golden_run(ops4, key)
    _check_final_velocity(traj.fields[-1], ops4, key)
    assert [s.iterations for s in traj.stats] == GOLDEN[key][2]
    assert _counts(traj) == COUNTS[key]


def test_checkpoint_round_trip_matches_record(ops4, tmp_path):
    # a golden trajectory written in the checkpoint format and read back
    key = ("linear", 3.0, 0.0)
    traj = _golden_run(ops4, key)
    file = tmp_path / "velocity.bin"
    save_checkpoints(traj.fields, traj.grid, file)
    grid, fields = load_checkpoints(file)
    assert grid == traj.grid and len(fields) == grid.N + 1
    _check_final_velocity(fields[-1], ops4, key)


# (noise rule, p, kappa, Newton max_iter): totals over the trajectory of
# (Newton iterations, refactorizations, steps finished by the Kacanov
# fallback), recorded before the reduced tangent was assembled in the
# stream basis.  The first six are the runs of GOLDEN; in the last two
# Newton is cut short, so the fallback finishes 6 of 8 and 3 of 8 steps.
COUNTS = {
    ("linear", 1.5, 0.1): (29, 9, 0),
    ("linear", 2.0, 0.0): (8, 1, 0),
    ("linear", 3.0, 0.0): (54, 1, 0),
    ("additive", 1.5, 0.1): (59, 11, 0),
    ("additive", 1.5, 0.0): (103, 20, 0),
    ("additive", 3.0, 0.0): (80, 9, 0),
    ("linear", 3.0, 0.0, 6): (47, 72, 6),
    ("linear", 1.5, 0.1, 3): (24, 24, 3),
}


def _counts(traj) -> tuple[int, int, int]:
    return (
        sum(s.iterations for s in traj.stats),
        sum(s.refactorizations for s in traj.stats),
        sum(s.used_picard for s in traj.stats),
    )


@pytest.mark.parametrize(
    "key", [k for k in COUNTS if len(k) == 4], ids=lambda k: f"p{k[1]}-max_iter{k[3]}"
)
def test_fallback_counts_match_record(ops4, key):
    rule, p, kappa, max_iter = key
    grid = TimeGrid(T=0.1, N=8)
    model = NoiseModel(mode_fields=curl_modes(2, amplitude=1.0), rule=rule)
    cfg = SchemeConfig(
        PowerLawParams(p=p, kappa=kappa), grid, model, NewtonConfig(max_iter=max_iter)
    )
    inc = sample_increments(np.random.default_rng(SEED), grid, n_modes=2)
    traj = run_trajectory(initial_velocity(u0_smooth, ops4), inc, cfg, ops4)
    assert traj.ok
    assert _counts(traj) == COUNTS[key]


# case: (noise rule, p, kappa); per run, L2 norms of (pi_det[-1],
# pi_sto[-1], z_sto[-1]), then the cross-mesh ErrorStats values.  The
# p != 2 cases pin the nonlinear V(eps u) comparison across meshes, which
# at p = 2 reduces to eps u.  The step ratio is 2, so the peak of each hat
# a_n falls inside a fine cell; C_G integrates a_n^2 exactly all the same.
# Its additive record can be checked by hand: only G_1 = G_2 = 0 differ
# from G, so C_G = (int a_1^2 + int a_2^2) (||g_1||^2 + ||g_2||^2)
# = (5 tau/6 + 2 tau/3) / 2 = 0.01875 at tau = 0.025.
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
            "C_G": 0.018750000000000003,
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
            "C_G": 2.8667949840883136e-07,
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
            "C_G": 1.6965432962376366e-07,
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
            "C_G": 6.556020895736704e-07,
            "C_V": 2.951176198133382e-08,
        },
    },
}


def _pressure_norms(traj, inc, cfg, ops):
    pt = reconstruct(traj, inc, cfg, ops)
    assert verify_reconstruction(traj, pt, cfg, ops) <= 1e-6
    assert l2_norm(pt.pi_init, ops) < 1e-15
    return [
        l2_norm(pt.pi_det[-1], ops),
        l2_norm(pt.pi_sto[-1], ops),
        l2_norm(Field("velocity", pt.z_sto[-1]), ops),
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
