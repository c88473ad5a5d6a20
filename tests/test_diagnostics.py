"""Tests for ensemble diagnostics: stability statistics, two-level error
functionals, and the moment-domination verifier.

Measured references (frozen from direct-oracle runs on this machine):
deterministic p = 2 decay from the curl bump on the m = 2 mesh with N = 8
gives ||u0||^2 = 4.56516e-5, max energy 1.20002e-6, dissipation 6.26946e-6;
an m = 2 velocity measured through m = 4 quadrature deviates by 0.325%
(kinked integrands, well under the 1% documentation bound); the small
domination run (m = 2, N = 8, two bounded-Lipschitz modes, 1000 samples,
seed 21) measures C = 8.209e-3 with domination margin 0.99179 +- 0.00036.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstokes.diagnostics as dg
from pstokes.diagnostics import (
    ErrorStats,
    ExtrapolationReport,
    StabilityStats,
    besov_halves,
    error_stats,
    extrapolation_check,
    stability_stats,
    temporal_oscillation,
)
from pstokes.grids import TimeGrid, weight_antiderivative
from pstokes.meshing import alfeld_split, unit_square_mesh
from pstokes.noise import (
    NoiseModel,
    compensator_Ebar,
    data_G_n,
    sample_increments,
    sample_wiener_path,
)
from pstokes.pressure import reconstruct
from pstokes.spaces import (
    Field,
    StructuredLocator,
    assemble,
    interpolate_velocity,
    norms,
    point_evaluation,
    sym_grad_at_qp,
    velocity_at_qp,
)
from pstokes.stepper import (
    SchemeConfig,
    StepperWorkspace,
    Trajectory,
    hs_norm,
    initial_velocity,
    run_trajectory,
)
from pstokes.tensors import PowerLawParams, nonlinear_V

# Frozen references (see module docstring).
U0_SQ = 4.56516219986525e-05
DET_E_MAX = 1.2000178973315132e-06
DET_DISSIPATION = 6.26946266969843e-06
DET_BESOV_U = 3.3112696659241956e-05
CROSS_REL_DEV = 0.003253472484439017
XC_C_MEASURED = 0.008209028921956903
XC_DOM_MARGIN = 0.9917909710780431
XC_DOM_SIGMA = 0.00035748367916543474
XC_COR_MARGIN = 0.974272250211208
XC_COR_SIGMA = 0.000500447462907267

FROZEN_RTOL = 1e-8


def curl_bump(pts, kx=1.0):
    x, y = pts[..., 0], pts[..., 1]
    b = x * y * (1 - x) * (1 - y)
    psi_x = 2 * b * y * (1 - y) * (1 - 2 * x)
    psi_y = 2 * b * x * (1 - x) * (1 - 2 * y)
    if kx != 1.0:
        s = np.sin(np.pi * kx * x) * np.sin(np.pi * y)
        psi_x = psi_x * s
        psi_y = psi_y * s
    return np.stack([psi_y, -psi_x], axis=-1)


def make_model(n_modes=2, amplitude=0.1, rule="additive"):
    fields = [
        (lambda k: (lambda pts: curl_bump(pts, kx=1.0 + k)))(k)
        for k in range(n_modes)
    ]
    return NoiseModel(fields, rule=rule, amplitude=amplitude)


def build(m, N, p=2.0, kappa=0.0, model=None, T=1.0):
    ops = assemble(alfeld_split(unit_square_mesh(m)))
    config = SchemeConfig(
        params=PowerLawParams(p=p, kappa=kappa),
        grid=TimeGrid(T=T, N=N),
        model=model,
    )
    return ops, config


def run_ensemble(u0, config, ops, n_samples, seed, delta=None):
    work = StepperWorkspace(config, ops)
    trajs, paths = [], []
    n_modes = config.model.n_modes if config.model else 0
    for child in np.random.SeedSequence(seed).spawn(n_samples):
        rng = np.random.default_rng(child)
        if delta is None:
            incs = sample_increments(rng, config.grid, n_modes=n_modes)
            paths.append(None)
        else:
            path = sample_wiener_path(config.grid.T, delta, n_modes, rng)
            incs = sample_increments(path, config.grid)
            paths.append(path)
        traj = run_trajectory(u0, incs, config, ops, work)
        assert traj.ok
        trajs.append(traj)
    return trajs, paths


@pytest.fixture(scope="module")
def ops2():
    return assemble(alfeld_split(unit_square_mesh(2)))


@pytest.fixture(scope="module")
def noisy_run(ops2):
    config = SchemeConfig(
        params=PowerLawParams(p=2.0, kappa=0.0),
        grid=TimeGrid(T=1.0, N=6),
        model=make_model(),
    )
    u0 = initial_velocity(curl_bump, ops2)
    trajs, _ = run_ensemble(u0, config, ops2, n_samples=3, seed=11)
    return trajs, config


# ---------------------------------------------------------------------------
# besov_halves


def test_besov_mean_of_max_matches_direct_loop(ops2, noisy_run):
    trajs, config = noisy_run
    N = config.grid.N
    direct = []
    for t in trajs:
        best = 0.0
        for k in range(1, N + 1):
            s = sum(
                norms(Field("velocity", t.fields[n].coeffs - t.fields[n - k].coeffs), "L2", ops2) ** 2
                for n in range(k, N + 1)
            )
            best = max(best, s / k)
        direct.append(best)
    module = besov_halves([t.fields for t in trajs], "mean-of-max", ops2)
    assert module == pytest.approx(float(np.mean(direct)), rel=1e-12)


def test_besov_max_of_mean_matches_direct_loop(ops2, noisy_run):
    trajs, config = noisy_run
    N = config.grid.N
    best = 0.0
    for k in range(1, N + 1):
        s = 0.0
        for n in range(k, N + 1):
            s += np.mean(
                [
                    norms(Field("velocity", t.fields[n].coeffs - t.fields[n - k].coeffs), "L2", ops2) ** 2
                    for t in trajs
                ]
            )
        best = max(best, s / k)
    module = besov_halves([t.fields for t in trajs], "max-of-mean", ops2)
    assert module == pytest.approx(best, rel=1e-12)


def random_sequences(draw, ops, max_samples=3):
    n_samples = draw(st.integers(1, max_samples))
    n_steps = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = ops.space_v.n_dofs
    return [
        [Field("velocity", rng.standard_normal(n)) for _ in range(n_steps + 1)]
        for _ in range(n_samples)
    ]


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_besov_mean_of_max_dominates_max_of_mean(ops2, data):
    ensemble = random_sequences(data.draw, ops2)
    mom = besov_halves(ensemble, "mean-of-max", ops2)
    mam = besov_halves(ensemble, "max-of-mean", ops2)
    assert mom >= mam - 1e-12 * max(mam, 1.0)


@given(seed=st.integers(0, 2**31 - 1), n_steps=st.integers(1, 5))
@settings(max_examples=20, deadline=None)
def test_besov_single_sample_modes_agree(ops2, seed, n_steps):
    rng = np.random.default_rng(seed)
    seq = [Field("velocity", rng.standard_normal(ops2.space_v.n_dofs)) for _ in range(n_steps + 1)]
    mom = besov_halves(seq, "mean-of-max", ops2)
    mam = besov_halves(seq, "max-of-mean", ops2)
    assert mom == pytest.approx(mam, rel=1e-12)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_besov_constant_sequence_vanishes(ops2, seed):
    rng = np.random.default_rng(seed)
    f = Field("velocity", rng.standard_normal(ops2.space_v.n_dofs))
    assert besov_halves([f] * 4, "mean-of-max", ops2) == 0.0
    assert besov_halves([f] * 4, "max-of-mean", ops2) == 0.0


def test_besov_rejects_mixed_kinds_and_ragged(ops2):
    v = Field("velocity", np.zeros(ops2.space_v.n_dofs))
    q = Field("pressure", np.zeros(ops2.n_pressure))
    with pytest.raises(ValueError, match="mixed field kinds"):
        besov_halves([v, q], "mean-of-max", ops2)
    with pytest.raises(ValueError, match="different lengths"):
        besov_halves([[v, v], [v, v, v]], "mean-of-max", ops2)
    with pytest.raises(ValueError, match="unknown mode"):
        besov_halves([v, v], "median", ops2)


# ---------------------------------------------------------------------------
# stability_stats


def test_stability_stats_match_direct_loops(ops2, noisy_run):
    trajs, config = noisy_run
    tau, p = config.grid.tau, config.params.p
    press = [reconstruct(t, None, config, ops2) for t in trajs]
    stats = stability_stats(trajs, press, config, ops2)

    e_direct = float(np.mean([max(norms(f, "L2", ops2) ** 2 for f in t.fields[1:]) for t in trajs]))
    d_direct = float(
        np.mean(
            [
                sum(tau * norms(f, "Lp_of_sym_grad", ops2, p=p) ** p for f in t.fields[1:])
                for t in trajs
            ]
        )
    )
    assert stats.e_max == pytest.approx(e_direct, rel=1e-12)
    assert stats.dissipation == pytest.approx(d_direct, rel=1e-12)
    assert stats.n_samples == len(trajs)
    assert stats.besov_u_strong >= stats.besov_u - 1e-15
    assert set(stats.stderr) >= {"e_max", "dissipation", "besov_u_strong"}


def test_stability_stochastic_besov_r2_equals_z_row_besov(ops2, noisy_run):
    trajs, config = noisy_run
    press = [reconstruct(t, None, config, ops2) for t in trajs]
    stats = stability_stats(trajs, press, config, ops2)
    zrows = []
    for ptraj in press:
        Z = np.vstack([np.zeros(ops2.space_v.n_dofs), ptraj.z_sto])
        zrows.append([Field("velocity", z) for z in Z])
    direct = besov_halves(zrows, "max-of-mean", ops2)
    assert stats.sto_besov_2 == pytest.approx(direct, rel=1e-12)
    # Higher integrability never shrinks the Besov aggregate.
    assert stats.sto_besov_4 >= stats.sto_besov_2 - 1e-15
    assert stats.sto_besov_8 >= stats.sto_besov_4 - 1e-15


def test_stochastic_besov_matches_direct_lag_loop(ops2, noisy_run):
    trajs, config = noisy_run
    tau, N = config.grid.tau, config.grid.N
    press = [reconstruct(t, None, config, ops2) for t in trajs]
    stats = stability_stats(trajs, press, config, ops2)
    Z = [np.vstack([np.zeros(ops2.space_v.n_dofs), pt.z_sto]) for pt in press]
    for r, module in ((4.0, stats.sto_besov_4), (8.0, stats.sto_besov_8)):
        best = 0.0
        for k in range(1, N + 1):
            s = 0.0
            for n in range(k, N + 1):
                Ed = np.mean([norms(Field("velocity", z[n] - z[n - k]), "L2", ops2) ** 2 for z in Z])
                s += tau * (Ed / (tau * k)) ** (r / 2.0)
            best = max(best, s)
        assert module == pytest.approx(best ** (2.0 / r), rel=1e-12)


def test_stability_deterministic_energy_frozen():
    ops, config = build(m=2, N=8)
    u0 = initial_velocity(curl_bump, ops)
    incs = sample_increments(np.random.default_rng(0), config.grid, n_modes=0)
    traj = run_trajectory(u0, incs, config, ops)
    stats = stability_stats([traj], None, config, ops)
    assert norms(u0, "L2", ops) ** 2 == pytest.approx(U0_SQ, rel=FROZEN_RTOL)
    assert stats.e_max == pytest.approx(DET_E_MAX, rel=FROZEN_RTOL)
    assert stats.dissipation == pytest.approx(DET_DISSIPATION, rel=FROZEN_RTOL)
    assert stats.besov_u == pytest.approx(DET_BESOV_U, rel=FROZEN_RTOL)
    # Discrete energy inequality: max energy + dissipation stays below ||u0||^2.
    assert stats.e_max + stats.dissipation <= U0_SQ * (1 + 1e-12)
    assert stats.sto_max is None and stats.det_increment is None


def test_stability_stats_validation(ops2, noisy_run):
    trajs, config = noisy_run
    with pytest.raises(ValueError, match="at least one trajectory"):
        stability_stats([], None, config, ops2)
    other_config = SchemeConfig(params=config.params, grid=TimeGrid(T=1.0, N=3), model=config.model)
    u0 = initial_velocity(curl_bump, ops2)
    short, _ = run_ensemble(u0, other_config, ops2, n_samples=1, seed=1)
    with pytest.raises(ValueError, match="mixed grids"):
        stability_stats(trajs + short, None, config, ops2)
    with pytest.raises(ValueError, match="expects"):
        stability_stats(short, None, config, ops2)
    press = [reconstruct(t, None, config, ops2) for t in trajs]
    with pytest.raises(ValueError, match="ensemble size"):
        stability_stats(trajs, press[:-1], config, ops2)


@pytest.fixture(scope="module")
def run_on_other_grid(ops2):
    """An N = 8 run on T = 0.1, with configs of two other grids."""
    model = make_model(rule="linear")
    cfg = {
        (T, N): SchemeConfig(PowerLawParams(p=2.0), TimeGrid(T=T, N=N), model)
        for T, N in ((0.1, 8), (0.1, 4), (0.2, 8))
    }
    incs = sample_increments(np.random.default_rng(0), cfg[0.1, 8].grid, n_modes=2)
    traj = run_trajectory(initial_velocity(curl_bump, ops2), incs, cfg[0.1, 8], ops2)
    assert traj.ok and traj.grid == cfg[0.1, 8].grid
    return traj, cfg


def test_stability_stats_rejects_trajectory_of_another_grid(ops2, run_on_other_grid):
    traj, cfg = run_on_other_grid
    with pytest.raises(ValueError, match="config expects"):
        stability_stats([traj], None, cfg[0.2, 8], ops2)
    # the statistics need every step of the grid
    prefix = Trajectory(
        fields=traj.fields[:5],
        noise_loads=traj.noise_loads[:4],
        stats=traj.stats[:4],
        increment_access_log=traj.increment_access_log,
        grid=traj.grid,
    )
    with pytest.raises(ValueError, match="4 of 8 steps"):
        stability_stats([prefix], None, cfg[0.1, 8], ops2)


# ---------------------------------------------------------------------------
# time-grid tiling helpers


def test_tiling_weights_partition_each_window():
    gc, gf = TimeGrid(T=1.0, N=4), TimeGrid(T=1.0, N=24)
    for n in range(gc.N + 1):
        _, w = dg._tiling_average_weights(n, gc, gf)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        if n > 0:
            # Odd ratio: fine cells tile the window exactly, so weights are flat.
            assert np.allclose(w, w[0])
    gf_even = TimeGrid(T=1.0, N=9)
    for n in range(gc.N + 1):
        _, w = dg._tiling_average_weights(n, gc, gf_even)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_hat_cell_integrals_reproduce_antiderivative():
    gc, gf = TimeGrid(T=1.0, N=4), TimeGrid(T=1.0, N=24)
    for n in range(1, gc.N + 1):
        lo, hi = gc.interval(n)
        _, w = dg._hat_cell_integrals(n, gc, gf, restrict=True)
        exact = (
            weight_antiderivative(n, np.array([hi]), gc)[0]
            - weight_antiderivative(n, np.array([lo]), gc)[0]
        )
        assert w.sum() == pytest.approx(exact, abs=1e-14)
        _, w_full = dg._hat_cell_integrals(n, gc, gf, restrict=False)
        # The full hat integrates to tau.
        assert w_full.sum() == pytest.approx(gc.tau, abs=1e-14)


# ---------------------------------------------------------------------------
# error_stats


def test_error_stats_self_comparison_vanishes(ops2):
    config = SchemeConfig(
        params=PowerLawParams(p=2.0, kappa=0.0),
        grid=TimeGrid(T=1.0, N=6),
        model=make_model(),
    )
    u0 = initial_velocity(curl_bump, ops2)
    trajs, _ = run_ensemble(u0, config, ops2, n_samples=2, seed=5, delta=config.grid.tau / 8)
    es = error_stats(trajs, trajs, config, config, ops2, ops2)
    assert es.natural_err == 0.0
    assert es.vgrad_err == 0.0
    assert es.besov_err == 0.0
    assert es.C_init == 0.0
    assert es.C_Linf < 1e-30
    # With identical runs the best-approximation constant reduces to the
    # pure within-window oscillation, i.e. coincides with C_V.
    assert es.C_best == pytest.approx(es.C_V, rel=1e-10)


def test_error_stats_coupled_two_level_magnitudes():
    model = make_model()
    ops_c, config_c = build(m=2, N=4, model=model)
    ops_f, config_f = build(m=4, N=24, model=model)
    u0c = initial_velocity(curl_bump, ops_c)
    u0f = initial_velocity(curl_bump, ops_f)
    delta = config_f.grid.tau / 4
    work_c = StepperWorkspace(config_c, ops_c)
    work_f = StepperWorkspace(config_f, ops_f)
    tc_list, tf_list = [], []
    for child in np.random.SeedSequence(77).spawn(2):
        rng = np.random.default_rng(child)
        path = sample_wiener_path(config_f.grid.T, delta, 2, rng)
        tc = run_trajectory(u0c, sample_increments(path, config_c.grid), config_c, ops_c, work_c)
        tf = run_trajectory(u0f, sample_increments(path, config_f.grid), config_f, ops_f, work_f)
        assert tc.ok and tf.ok
        tc_list.append(tc)
        tf_list.append(tf)
    es = error_stats(tc_list, tf_list, config_c, config_f, ops_c, ops_f)
    # Frozen magnitudes from the oracle run of the same coupled pair.
    assert es.natural_err == pytest.approx(1.8894774173330622e-07, rel=FROZEN_RTOL)
    assert es.vgrad_err == pytest.approx(1.3789412629253168e-06, rel=FROZEN_RTOL)
    assert es.besov_err == pytest.approx(1.2297257667891687e-05, rel=FROZEN_RTOL)
    assert es.C_init == pytest.approx(1.8593003080554422e-08, rel=FROZEN_RTOL)
    assert es.C_Linf == pytest.approx(1.6517058622159322e-08, rel=FROZEN_RTOL)
    assert es.C_G == pytest.approx(2.5253784006025206e-07, rel=FROZEN_RTOL)
    assert es.C_V == pytest.approx(6.182429580268306e-05, rel=FROZEN_RTOL)
    assert es.n_samples == 2
    assert set(es.stderr) >= {"natural_err", "vgrad_err"}


def test_error_stats_validation(ops2):
    model = make_model()
    config = SchemeConfig(
        params=PowerLawParams(p=2.0, kappa=0.0), grid=TimeGrid(T=1.0, N=4), model=model
    )
    u0 = initial_velocity(curl_bump, ops2)
    trajs, _ = run_ensemble(u0, config, ops2, n_samples=2, seed=3, delta=config.grid.tau / 4)
    with pytest.raises(ValueError, match="differ in size"):
        error_stats(trajs, trajs[:1], config, config, ops2, ops2)
    config_p3 = SchemeConfig(params=PowerLawParams(p=3.0, kappa=0.0), grid=config.grid, model=model)
    with pytest.raises(ValueError, match="different exponents"):
        error_stats(trajs, trajs, config, config_p3, ops2, ops2)
    bad_grid = SchemeConfig(
        params=config.params, grid=TimeGrid(T=2.0, N=4), model=model
    )
    with pytest.raises(ValueError, match="horizons"):
        error_stats(trajs, trajs, config, bad_grid, ops2, ops2)
    # kappa enters V(eps u); newton_reg only the Newton linearization
    config_kappa = SchemeConfig(
        params=PowerLawParams(p=2.0, kappa=0.5), grid=config.grid, model=model
    )
    with pytest.raises(ValueError, match="kappa"):
        error_stats(trajs, trajs, config_kappa, config, ops2, ops2)
    config_reg = SchemeConfig(
        params=PowerLawParams(p=2.0, kappa=0.0, newton_reg=1e-4), grid=config.grid, model=model
    )
    error_stats(trajs, trajs, config_reg, config, ops2, ops2, with_CV=False)
    coarser = SchemeConfig(params=config.params, grid=TimeGrid(T=1.0, N=2), model=model)
    trajs_c, _ = run_ensemble(u0, coarser, ops2, n_samples=2, seed=3, delta=coarser.grid.tau / 4)
    with pytest.raises(ValueError, match="multiple"):
        error_stats(trajs, trajs_c, config, coarser, ops2, ops2)


def test_error_stats_rejects_trajectory_of_another_grid(ops2, run_on_other_grid):
    traj, cfg = run_on_other_grid
    with pytest.raises(ValueError, match="config expects"):
        error_stats([traj], [traj], cfg[0.2, 8], cfg[0.2, 8], ops2, ops2)


def test_temporal_oscillation_rejects_trajectory_of_another_grid(ops2, run_on_other_grid):
    traj, cfg = run_on_other_grid
    with pytest.raises(ValueError, match="config expects"):
        temporal_oscillation([traj], cfg[0.1, 4], ops2, [cfg[0.1, 4].grid])


@pytest.fixture(scope="module")
def coupled_pairs():
    """A reference ensemble (m = 4, N = 15) with a cross-mesh (2, 3) and a
    same-mesh (4, 7) coupled coarse ensemble."""
    model = make_model(rule="linear")
    ops_f, config_f = build(m=4, N=15, model=model, T=0.1)
    refs, paths = run_ensemble(
        initial_velocity(curl_bump, ops_f), config_f, ops_f, n_samples=2, seed=6,
        delta=config_f.grid.tau / 2,
    )
    ops = {2: assemble(alfeld_split(unit_square_mesh(2))), 4: ops_f}
    pairs = {}
    for m, Nc in ((2, 3), (4, 7)):
        config_c = SchemeConfig(config_f.params, TimeGrid(T=0.1, N=Nc), model)
        u0c = initial_velocity(curl_bump, ops[m])
        coarse = [
            run_trajectory(u0c, sample_increments(path, config_c.grid), config_c, ops[m])
            for path in paths
        ]
        pairs[m, Nc] = (coarse, config_c, ops[m])
    return refs, config_f, ops_f, pairs


@pytest.mark.parametrize("level", [(2, 3), (4, 7)], ids=["cross-mesh", "same-mesh"])
def test_error_stats_C_V_matches_temporal_oscillation(coupled_pairs, level):
    # error_stats reduces the reference rows it holds (point-evaluated);
    # temporal_oscillation stacks its own from the native gradients.
    refs, config_f, ops_f, pairs = coupled_pairs
    coarse, config_c, ops_c = pairs[level]
    es = error_stats(coarse, refs, config_c, config_f, ops_c, ops_f)
    osc = temporal_oscillation(refs, config_f, ops_f, [config_c.grid])[0]
    assert osc > 0.0
    assert es.C_V == pytest.approx(osc, rel=1e-12)


def test_temporal_oscillation_matches_direct_double_loop(ops2):
    # (1/tau_c) sum_n sum_{i,j} w_ni w_nj ||V_i - V_j||^2, with w_nj the
    # integral of the hat a_n over the fine midpoint cell J_j, by direct
    # differences of native V(eps u) fields.
    config = SchemeConfig(PowerLawParams(p=3.0), TimeGrid(T=0.1, N=15), make_model(amplitude=1.0))
    trajs, _ = run_ensemble(initial_velocity(curl_bump, ops2), config, ops2, n_samples=2, seed=12)
    gf = config.grid
    cells = [(max((j - 0.5) * gf.tau, 0.0), (j + 0.5) * gf.tau) for j in range(gf.N + 1)]
    coarse = [TimeGrid(T=0.1, N=N) for N in (1, 3, 7)]
    direct = np.zeros(len(coarse))
    for t in trajs:
        V = [nonlinear_V(sym_grad_at_qp(f.coeffs, ops2), config.params) for f in t.fields]
        for g, gc in enumerate(coarse):
            for n in range(1, gc.N + 1):
                w = [weight_antiderivative(n, hi, gc) - weight_antiderivative(n, lo, gc) for lo, hi in cells]
                for i in range(gf.N + 1):
                    for j in range(gf.N + 1):
                        d = V[i] - V[j]
                        sq = float(np.einsum("tq,tqcd,tqcd->", ops2.qw, d, d))
                        direct[g] += w[i] * w[j] * sq / gc.tau
    direct /= len(trajs)
    assert temporal_oscillation(trajs, config, ops2, coarse) == pytest.approx(list(direct), rel=1e-12)


def test_error_stats_point_location_is_per_call():
    # One located point set per evaluation operator, whatever the number
    # of coarse steps or samples.
    model = make_model(rule="linear")
    ops_f, config_f = build(m=4, N=15, model=model, T=0.1)
    u0f = initial_velocity(curl_bump, ops_f)
    refs, paths = run_ensemble(u0f, config_f, ops_f, n_samples=2, seed=6, delta=config_f.grid.tau / 2)
    original = StructuredLocator.locate
    counts = {}
    for Nc in (3, 7):
        ops_c, config_c = build(m=2, N=Nc, model=model, T=0.1)
        u0c = initial_velocity(curl_bump, ops_c)
        coarse = [
            run_trajectory(u0c, sample_increments(path, config_c.grid), config_c, ops_c)
            for path in paths
        ]
        for ns in (1, 2):
            calls = []

            def counting(self, points):
                calls.append(len(points))
                return original(self, points)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(StructuredLocator, "locate", counting)
                error_stats(coarse[:ns], refs[:ns], config_c, config_f, ops_c, ops_f)
            counts[Nc, ns] = len(calls)
    assert min(counts.values()) > 0
    assert len(set(counts.values())) == 1, counts


def test_temporal_oscillation_accepts_unstructured_mesh(jiggled_mesh):
    # A same-mesh pass locates no points: it needs time nesting only,
    # while error_stats still refuses a mesh it cannot locate points on.
    ops = assemble(alfeld_split(jiggled_mesh))
    config = SchemeConfig(
        params=PowerLawParams(p=3.0), grid=TimeGrid(T=0.1, N=3), model=make_model()
    )
    trajs, _ = run_ensemble(initial_velocity(curl_bump, ops), config, ops, n_samples=1, seed=4)
    osc = temporal_oscillation(trajs, config, ops, [TimeGrid(T=0.1, N=1)])
    assert np.isfinite(osc[0]) and osc[0] > 0.0
    with pytest.raises(ValueError, match="unit_square_mesh"):
        error_stats(trajs, trajs, config, config, ops, ops, with_CV=False)


def test_cross_mesh_quadrature_deviation_small(ops2):
    ops4 = assemble(alfeld_split(unit_square_mesh(4)))
    v2 = interpolate_velocity(curl_bump, ops2)
    flat = point_evaluation(ops2, ops4.qp_x.reshape(-1, 2)).values(v2.coeffs[None]).ravel()
    w2 = dg._qp_weight_vector(ops4, 2)
    cross_sq = float(np.sum(flat * flat * w2))
    native_sq = norms(v2, "L2", ops2) ** 2
    rel = abs(cross_sq - native_sq) / native_sq
    assert rel == pytest.approx(CROSS_REL_DEV, rel=1e-6)
    assert rel < 0.01


def test_cross_load_same_mesh_is_exact(ops2):
    rng = np.random.default_rng(8)
    c = rng.standard_normal(ops2.space_v.n_dofs)
    load = dg._loads(point_evaluation(ops2, ops2.qp_x.reshape(-1, 2)), c[None], ops2)[:, 0]
    expected = (ops2.M_full @ c)[ops2.free]
    assert np.allclose(load, expected, rtol=0, atol=1e-15 * np.abs(expected).max())


def test_temporal_oscillation_constant_reference_vanishes(ops2):
    config = SchemeConfig(
        params=PowerLawParams(p=2.0, kappa=0.0),
        grid=TimeGrid(T=1.0, N=15),
        model=make_model(),
    )
    u0 = initial_velocity(curl_bump, ops2)
    trajs, _ = run_ensemble(u0, config, ops2, n_samples=1, seed=9)
    frozen = [Field("velocity", trajs[0].fields[0].coeffs.copy()) for _ in trajs[0].fields]
    src = trajs[0]
    fake = type(src)(
        fields=frozen,
        noise_loads=src.noise_loads,
        stats=src.stats,
        increment_access_log=src.increment_access_log,
        grid=src.grid,
    )
    osc = temporal_oscillation([fake], config, ops2, [TimeGrid(T=1.0, N=3)])
    # Gram cancellation leaves only roundoff, many orders below real values.
    assert osc[0] == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# domination / extrapolation


@pytest.fixture(scope="module")
def xpath_setup(ops2):
    config = SchemeConfig(
        params=PowerLawParams(p=2.0, kappa=0.0),
        grid=TimeGrid(T=1.0, N=6),
        model=make_model(n_modes=2, amplitude=0.3, rule="bounded_lipschitz"),
    )
    u0 = initial_velocity(curl_bump, ops2)
    delta = config.grid.tau / 8
    rng = np.random.default_rng(123)
    path = sample_wiener_path(config.grid.T, delta, 2, rng)
    incs = sample_increments(path, config.grid)
    traj = run_trajectory(u0, incs, config, ops2, StepperWorkspace(config, ops2))
    assert traj.ok
    return traj, path, config, delta


def test_x_path_matches_direct_compensator_trapezoid(ops2, xpath_setup):
    traj, path, config, delta = xpath_setup
    grid, r = config.grid, 4.0
    X, _ = dg._xy_paths(traj, path, config, ops2, r)
    n_tri, nq = ops2.qw.shape
    g_vals = config.model.mode_values(ops2.qp_x.reshape(-1, 2)).reshape(-1, n_tri, nq, 2)
    Fs = {}
    for n in range(1, grid.N + 1):
        u_vals = velocity_at_qp(traj.fields[max(n - 2, 0)].coeffs, ops2)
        Fs[n] = data_G_n(n, u_vals, config.model, grid, g_vals)
    X_direct = np.zeros(grid.N + 1)
    for n in range(1, grid.N + 1):
        lo, hi = grid.interval(n)
        ts = np.arange(int(round(lo / delta)), int(round(hi / delta)) + 1) * delta
        vals = []
        for t in ts:
            Eb = compensator_Ebar(t, n, Fs[n], Fs.get(n + 1), path, grid)
            nrm2 = float(np.einsum("tq,tqc->", ops2.qw, Eb**2))
            vals.append((nrm2 / grid.tau) ** (r / 2.0))
        vals = np.array(vals)
        X_direct[n] = X_direct[n - 1] + delta * float(np.sum(0.5 * (vals[:-1] + vals[1:])))
    scale = np.maximum(np.abs(X_direct), 1e-300)
    assert np.max(np.abs(X - X_direct) / scale) < 1e-12


def test_y_path_matches_recorded_step_norms(ops2, xpath_setup):
    traj, path, config, delta = xpath_setup
    grid, r = config.grid, 4.0
    _, Y = dg._xy_paths(traj, path, config, ops2, r)
    hs = np.array([0.0] + [s.hs_G for s in traj.stats])
    Y_direct = np.array(
        [hs[1 : min(M + 2, grid.N) + 1].max() ** r for M in range(grid.N + 1)]
    )
    assert np.array_equal(Y, Y_direct)


def test_extrapolation_check_frozen_margins():
    ops, config = build(m=2, N=8, model=make_model(n_modes=2, amplitude=0.3, rule="bounded_lipschitz"))
    u0 = initial_velocity(curl_bump, ops)
    rep = extrapolation_check(u0, config, ops, delta=config.grid.tau / 8, n_samples=1000, seed=21)
    assert rep.C_measured == pytest.approx(XC_C_MEASURED, rel=FROZEN_RTOL)
    assert rep.C_used == 1.0
    assert rep.domination_margin == pytest.approx(XC_DOM_MARGIN, rel=FROZEN_RTOL)
    assert rep.domination_sigma == pytest.approx(XC_DOM_SIGMA, rel=1e-6)
    assert rep.corollary_margin == pytest.approx(XC_COR_MARGIN, rel=FROZEN_RTOL)
    assert rep.corollary_sigma == pytest.approx(XC_COR_SIGMA, rel=1e-6)
    # Margins clear three sigma, and every stopping rule obeys domination.
    assert rep.domination_margin > 3 * rep.domination_sigma
    assert rep.corollary_margin > 3 * rep.corollary_sigma
    assert all(ratio <= rep.C_used for _, _, ratio in rep.rule_table.values())
    assert rep.n_samples == 1000


def test_extrapolation_check_noise_free_short_circuit():
    ops, config = build(m=2, N=4, model=None)
    u0 = initial_velocity(curl_bump, ops)
    rep = extrapolation_check(u0, config, ops, delta=config.grid.tau / 2, n_samples=1000)
    assert rep.domination_margin == 1.0
    assert rep.corollary_margin == 1.0
    assert rep.C_measured == 0.0


def test_extrapolation_check_validation():
    model = make_model(n_modes=2, amplitude=0.3, rule="bounded_lipschitz")
    ops, config = build(m=2, N=8, model=model)
    u0 = initial_velocity(curl_bump, ops)
    tau = config.grid.tau
    with pytest.raises(ValueError, match="1000"):
        extrapolation_check(u0, config, ops, delta=tau / 8, n_samples=10)
    with pytest.raises(ValueError, match="small grid"):
        _, big = build(m=2, N=20, model=model)
        extrapolation_check(u0, big, ops, delta=big.grid.tau / 8, n_samples=1000)
    with pytest.raises(ValueError, match="at most 4"):
        _, many = build(m=2, N=8, model=make_model(n_modes=5, rule="bounded_lipschitz"))
        extrapolation_check(u0, many, ops, delta=tau / 8, n_samples=1000)
    with pytest.raises(ValueError, match="k must lie"):
        extrapolation_check(u0, config, ops, delta=tau / 8, n_samples=1000, k=1.5)
    with pytest.raises(ValueError, match="divide"):
        extrapolation_check(u0, config, ops, delta=tau / 3, n_samples=1000)
