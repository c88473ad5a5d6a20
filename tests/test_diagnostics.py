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

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstokes.diagnostics as dg
from pstokes.diagnostics import (
    besov_halves,
    error_stats,
    error_stats_ladder,
    extrapolation_check,
    stability_stats,
    temporal_oscillation,
)
from pstokes.grids import (
    TimeGrid,
    hat_pieces,
    hat_windows,
    weight_a,
    weight_antiderivative,
    weight_inner,
    weight_support,
)
from pstokes.meshing import alfeld_split, unit_square_mesh
from pstokes.noise import (
    NoiseModel,
    compensator_Ebar,
    data_G_n,
    modulation_average,
    sample_increments,
    sample_wiener_path,
    sigma_bounded,
)
from pstokes.pressure import DIV_GRAD_CONSTANT, reconstruct
from pstokes.spaces import (
    Field,
    PointEvaluation,
    SaddleSolver,
    StructuredLocator,
    assemble,
    interpolate_velocity,
    l2_norm,
    lp_norm,
    point_evaluation,
    qp_weights,
    sym_grad_at_qp,
    velocity_at_qp,
    velocity_load_vector,
)
from pstokes.stepper import (
    NewtonConfig,
    SchemeConfig,
    StepperWorkspace,
    Trajectory,
    dissipation_pairing,
    initial_velocity,
    run_trajectory,
)
from pstokes.tensors import PowerLawParams, frobenius, nonlinear_V

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
                l2_norm(Field("velocity", t.fields[n].coeffs - t.fields[n - k].coeffs), ops2) ** 2
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
                    l2_norm(Field("velocity", t.fields[n].coeffs - t.fields[n - k].coeffs), ops2) ** 2
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


def test_besov_of_nan_field_is_nan(ops2):
    # A NaN in field 1 of 4 spoils every lag but the longest (fields 0
    # and 3); the seminorm must not drop the spoiled lags.
    rng = np.random.default_rng(2)
    seq = [Field("velocity", rng.standard_normal(ops2.space_v.n_dofs)) for _ in range(4)]
    seq[1].coeffs[5] = np.nan
    assert np.isnan(besov_halves(seq, "mean-of-max", ops2))
    assert np.isnan(besov_halves([seq, seq], "max-of-mean", ops2))


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

    e_direct = float(np.mean([max(l2_norm(f, ops2) ** 2 for f in t.fields[1:]) for t in trajs]))
    d_direct = float(
        np.mean(
            [
                sum(
                    tau * lp_norm(frobenius(sym_grad_at_qp(f.coeffs, ops2)), ops2, p) ** p
                    for f in t.fields[1:]
                )
                for t in trajs
            ]
        )
    )
    assert stats.e_max == pytest.approx(e_direct, rel=1e-12)
    assert stats.dissipation == pytest.approx(d_direct, rel=1e-12)
    assert stats.n_samples == len(trajs)
    assert stats.besov_u_strong >= stats.besov_u - 1e-15
    assert set(stats.stderr) >= {"e_max", "dissipation", "besov_u_strong"}


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_stability_dissipation_is_read_from_the_steps(p, monkeypatch):
    """At kappa > 0 the dissipation is tau sum_n (S(eps u_n), eps u_n) =
    tau sum_n ||V(eps u_n)||^2, the quantity of the energy identity, not
    tau sum_n ||eps u_n||_p^p; it is read from the steps, so no field is
    evaluated at the quadrature points."""
    ops, config = build(m=2, N=4, p=p, kappa=0.1, model=make_model(), T=0.1)
    trajs, _ = run_ensemble(initial_velocity(curl_bump, ops), config, ops, n_samples=2, seed=3)
    calls = []
    sym_grad = PointEvaluation.sym_grad

    def counting(self, rows):
        calls.append(len(rows))
        return sym_grad(self, rows)

    monkeypatch.setattr(PointEvaluation, "sym_grad", counting)
    stats = stability_stats(trajs, None, config, ops)
    monkeypatch.undo()
    assert calls == []

    tau, params = config.grid.tau, config.params
    pairing = np.mean(
        [tau * sum(dissipation_pairing(f.coeffs, ops, params) for f in t.fields[1:]) for t in trajs]
    )
    V = [[nonlinear_V(sym_grad_at_qp(f.coeffs, ops), params) for f in t.fields[1:]] for t in trajs]
    natural = np.mean(
        [tau * sum(float(np.einsum("tq,tqcd,tqcd->", ops.qw, v, v)) for v in vs) for vs in V]
    )
    assert stats.dissipation == pytest.approx(pairing, rel=1e-12)
    assert stats.dissipation == pytest.approx(natural, rel=1e-12)


def test_stability_stats_refuses_missing_step_statistics(ops2, noisy_run):
    trajs, config = noisy_run
    short = dataclasses.replace(trajs[0], stats=trajs[0].stats[:-1])
    with pytest.raises(ValueError, match="trajectory 1 has 6 of 6 steps, 5 stats"):
        stability_stats([trajs[1], short], None, config, ops2)


def test_det_increment_matches_direct_loop(ops2, noisy_run):
    # one pressure evaluation product over the stacked increments against
    # a per-step loop of pressure L^p' norms over d_n pi_det / tau
    trajs, config = noisy_run
    tau, p = config.grid.tau, config.params.p
    p_conj = p / (p - 1.0)
    press = [reconstruct(t, None, config, ops2) for t in trajs]
    stats = stability_stats(trajs, press, config, ops2)
    per_sample = []
    for ptraj in press:
        prev, acc = np.zeros(ops2.n_pressure), 0.0
        for q in ptraj.pi_det:
            inc = Field("pressure", (q.coeffs - prev) / tau)
            prev = q.coeffs
            lp = lp_norm(np.abs(ops2.P @ inc.coeffs), ops2, p_conj)
            acc += tau * (DIV_GRAD_CONSTANT * lp) ** p_conj
        per_sample.append(acc)
    assert min(per_sample) > 0.0
    assert stats.det_increment == pytest.approx(np.mean(per_sample), rel=1e-12)


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
                Ed = np.mean([l2_norm(Field("velocity", z[n] - z[n - k]), ops2) ** 2 for z in Z])
                s += tau * (Ed / (tau * k)) ** (r / 2.0)
            best = max(best, s)
        assert module == pytest.approx(best ** (2.0 / r), rel=1e-12)


def test_stability_deterministic_energy_frozen():
    ops, config = build(m=2, N=8)
    u0 = initial_velocity(curl_bump, ops)
    incs = sample_increments(np.random.default_rng(0), config.grid, n_modes=0)
    traj = run_trajectory(u0, incs, config, ops)
    stats = stability_stats([traj], None, config, ops)
    assert l2_norm(u0, ops) ** 2 == pytest.approx(U0_SQ, rel=FROZEN_RTOL)
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
        noise_basis=traj.noise_basis,
        noise_coeffs=traj.noise_coeffs[:4],
        stress_loads=traj.stress_loads[:4],
        stats=traj.stats[:4],
        increment_access_log=traj.increment_access_log,
        grid=traj.grid,
    )
    with pytest.raises(ValueError, match="4 of 8 steps"):
        stability_stats([prefix], None, cfg[0.1, 8], ops2)


# ---------------------------------------------------------------------------
# time tables of a nested grid pair


@pytest.mark.parametrize("ratio", [1, 2, 3, 4, 8])
def test_hat_pieces_cut_each_support_at_cells_and_kinks(ratio):
    gc = TimeGrid(T=1.0, N=4)
    gf = TimeGrid(T=1.0, N=5 * ratio - 1)
    hats = hat_pieces(gc, gf)
    assert len(hats) == gc.N
    nodes, weights = np.polynomial.legendre.leggauss(3)
    for n, h in enumerate(hats, 1):
        # contiguous pieces covering supp a_n, each inside its fine cell
        assert (h.lo[0], h.hi[-1]) == pytest.approx(weight_support(n, gc), abs=1e-15)
        assert h.lo[1:] == pytest.approx(h.hi[:-1], abs=1e-15)
        assert np.all(h.hi > h.lo)
        tol = 1e-12 * gf.tau
        assert np.all(h.lo >= np.maximum((h.cells - 0.5) * gf.tau, 0.0) - tol)
        assert np.all(h.hi <= (h.cells + 0.5) * gf.tau + tol)
        # the late pieces make up J_n, the others J_{n-1}
        lo, hi = gc.interval(n)
        assert np.all(h.lo[h.late] >= lo - tol) and np.all(h.hi[~h.late] <= lo + tol)
        # a_n is linear on every piece, so 3-point Gauss integrates a_n^2
        # exactly, also where a fine cell straddles the peak of a_n
        half = 0.5 * (h.hi - h.lo)[:, None]
        t = 0.5 * (h.lo + h.hi)[:, None] + half * nodes
        integral = np.sum(half * weights * weight_a(n, t, gc) ** 2)
        assert integral == pytest.approx(weight_inner(n, n, gc), rel=1e-13)


@pytest.mark.parametrize("ratio", [1, 2, 3, 4, 8])
def test_time_tables_partition_windows_and_integrate_hats(ratio):
    gc = TimeGrid(T=1.0, N=4)
    gf = TimeGrid(T=1.0, N=5 * ratio - 1)
    windows = hat_windows(gc, gf)
    for n, (_, w) in enumerate(windows.tiles):
        # the overlaps |J_j ∩ J_n| partition J_n
        lo, hi = gc.interval(n)
        assert w.sum() == pytest.approx(hi - lo, abs=1e-14)
        if n > 0 and ratio % 2:
            # Odd ratio: fine cells tile the window exactly, so weights are flat.
            assert np.allclose(w, w[0])
    for n, (h, (_, w), (js, w_full)) in enumerate(
        zip(windows.pieces, windows.hat_tile, windows.hat_full), 1
    ):
        lo, hi = gc.interval(n)
        exact = weight_antiderivative(n, hi, gc) - weight_antiderivative(n, lo, gc)
        assert w.sum() == pytest.approx(exact, abs=1e-14)
        # the window is the contiguous run of the pieces' fine cells, one
        # integral per cell; the full hat integrates to tau
        assert np.array_equal(np.unique(h.cells), np.arange(js.start, js.stop))
        assert w_full.size == js.stop - js.start
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
    # kappa enters V(eps u); the Newton settings only the steps
    config_kappa = SchemeConfig(
        params=PowerLawParams(p=2.0, kappa=0.5), grid=config.grid, model=model
    )
    with pytest.raises(ValueError, match="kappa"):
        error_stats(trajs, trajs, config_kappa, config, ops2, ops2)
    config_newton = dataclasses.replace(config, newton=NewtonConfig(abs_tol=1e-4))
    error_stats(trajs, trajs, config_newton, config, ops2, ops2, with_CV=False)
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


def _direct_data_term(coarse, ref, config_c, config_f, ops_c, ops_f):
    """C_G of one coupled pair from the per-mode fields: 5-point Gauss on
    every fine cell of every hat support, split where a_n has its peak, of
    a_n^2 sum_k ||G(t) e_k - G_n e_k||^2."""
    model, grid_c, grid_f = config_f.model, config_c.grid, config_f.grid
    pts = ops_f.qp_x.reshape(-1, 2)
    g, w = model.mode_values(pts), ops_f.qw.ravel()
    Uc = point_evaluation(ops_c, pts).values(np.stack([f.coeffs for f in coarse.fields]))
    Uf = ops_f.qp_eval.values(np.stack([f.coeffs for f in ref.fields]))
    nodes, weights = np.polynomial.legendre.leggauss(5)
    tf, total = grid_f.tau, 0.0
    for n in range(1, grid_c.N + 1):
        c_n = 0.0 if n <= 2 else modulation_average(model, *grid_c.interval(n - 2))
        G_n = c_n * g * sigma_bounded(Uc[max(n - 2, 0)])
        lo, hi = weight_support(n, grid_c)
        peak = grid_c.interval(n)[0]
        for j in range(grid_f.N + 1):
            G_ref = g * sigma_bounded(Uf[j])
            c_lo, c_hi = max((j - 0.5) * tf, 0.0), (j + 0.5) * tf
            for a, b in ((max(c_lo, lo), min(c_hi, peak)), (max(c_lo, peak), min(c_hi, hi))):
                if b <= a:
                    continue
                for x, wx in zip(nodes, weights):
                    t = 0.5 * (a + b) + 0.5 * (b - a) * x
                    d = model.modulation(t) * G_ref - G_n
                    total += 0.5 * (b - a) * wx * weight_a(n, t, grid_c) ** 2 * np.einsum(
                        "q,kqc,kqc->", w, d, d
                    )
    return total


@pytest.mark.parametrize(
    "m_coarse, ratio",
    [pytest.param(m, r, id=name + ("" if r == 3 else f"-ratio{r}"))
     for r in (3, 2, 4) for m, name in ((2, "cross-mesh"), (4, "same-mesh"))],
)
def test_error_stats_C_G_bounded_modulated_matches_per_mode_formula(m_coarse, ratio):
    # at an even step ratio the peak of a_n falls inside a fine cell; a
    # linear modulation keeps a_n^2 m^2 within both Gauss rules' degree
    model = make_model(n_modes=3, amplitude=2.0, rule="bounded_lipschitz")
    model.time_modulation = lambda t: 1.0 + 8.0 * t
    ops_f, config_f = build(m=4, N=5 * ratio - 1, p=3.0, model=model, T=0.1)
    ops_c = ops_f if m_coarse == 4 else assemble(alfeld_split(unit_square_mesh(m_coarse)))
    config_c = SchemeConfig(config_f.params, TimeGrid(T=0.1, N=4), model)
    path = sample_wiener_path(0.1, config_f.grid.tau / 2, 3, np.random.default_rng(8))
    coarse, ref = (
        run_trajectory(initial_velocity(curl_bump, o), sample_increments(path, c.grid), c, o)
        for o, c in ((ops_c, config_c), (ops_f, config_f))
    )
    es = error_stats([coarse], [ref], config_c, config_f, ops_c, ops_f, with_CV=False)
    direct = _direct_data_term(coarse, ref, config_c, config_f, ops_c, ops_f)
    assert direct > 0.0
    assert es.C_G == pytest.approx(direct, rel=1e-12)


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


def test_error_stats_without_noise_match_zero_amplitude_noise():
    # a noise-free pair across meshes has no data term: C_G is exactly 0,
    # and every statistic is that of the pair driven by a zero-amplitude
    # additive model, whose loads and data fields vanish
    ops_f = assemble(alfeld_split(unit_square_mesh(4)))
    ops_c = assemble(alfeld_split(unit_square_mesh(2)))
    stats = []
    for model in (None, make_model(amplitude=0.0)):
        config_f, config_c = (
            SchemeConfig(PowerLawParams(p=2.0), TimeGrid(T=0.1, N=N), model) for N in (15, 3)
        )
        refs, _ = run_ensemble(initial_velocity(curl_bump, ops_f), config_f, ops_f, 2, seed=6)
        coarse, _ = run_ensemble(initial_velocity(curl_bump, ops_c), config_c, ops_c, 2, seed=6)
        stats.append(error_stats(coarse, refs, config_c, config_f, ops_c, ops_f))
    quiet, zero = stats
    assert quiet.C_G == 0.0
    assert quiet.natural_err > 0.0 and quiet.C_V > 0.0
    assert dataclasses.asdict(quiet) == dataclasses.asdict(zero)


@pytest.mark.parametrize("level", [(2, 3), (4, 7)], ids=["cross-mesh", "same-mesh"])
def test_error_stats_C_V_matches_temporal_oscillation(coupled_pairs, level):
    # both reduce the reference rows of the one row helper over the same
    # hat windows
    refs, config_f, ops_f, pairs = coupled_pairs
    coarse, config_c, ops_c = pairs[level]
    es = error_stats(coarse, refs, config_c, config_f, ops_c, ops_f)
    osc = temporal_oscillation(refs, config_f, ops_f, [config_c.grid])[0]
    assert osc > 0.0
    assert es.C_V == pytest.approx(osc, rel=1e-12)


@pytest.mark.parametrize("level", [(2, 3), (4, 7)], ids=["cross-mesh", "same-mesh"])
def test_error_stats_makes_one_saddle_solve_per_sample(coupled_pairs, level, monkeypatch):
    refs, config_f, ops_f, pairs = coupled_pairs
    coarse, config_c, ops_c = pairs[level]
    calls = []
    saddle_solve = SaddleSolver.velocity

    def counting(self, rhs_v):
        calls.append(np.shape(rhs_v)[1:])
        return saddle_solve(self, rhs_v)

    monkeypatch.setattr(SaddleSolver, "velocity", counting)
    error_stats(coarse, refs, config_c, config_f, ops_c, ops_f, with_CV=False)
    # the averages and both initial data; across meshes also the nodal
    # interpolants of the averages
    Nc = config_c.grid.N
    assert calls == [(Nc + 3 if ops_c is ops_f else 2 * Nc + 4,)] * len(refs)


def test_ladder_matches_per_level_calls(coupled_pairs):
    # one pass over the references for both levels gives every statistic
    # of the two one-level calls
    refs, config_f, ops_f, pairs = coupled_pairs
    ladder = error_stats_ladder(list(pairs.values()), refs, config_f, ops_f)
    for (coarse, config_c, ops_c), es in zip(pairs.values(), ladder):
        alone = error_stats(coarse, refs, config_c, config_f, ops_c, ops_f)
        for name, value in dataclasses.asdict(alone).items():
            assert getattr(es, name) == pytest.approx(value, rel=1e-12, abs=0.0), name
        assert es.C_V > 0.0 and set(es.stderr) == {"natural_err", "vgrad_err"}


def test_ladder_forms_reference_rows_once_per_sample(coupled_pairs, monkeypatch):
    refs, config_f, ops_f, pairs = coupled_pairs
    calls = []
    original = dg.nonlinear_V

    def counting(A, params):
        calls.append(len(A))
        return original(A, params)

    monkeypatch.setattr(dg, "nonlinear_V", counting)
    error_stats_ladder(list(pairs.values()), refs, config_f, ops_f)
    # per sample: the reference rows once, then two coarse stacks per level
    n_ref = config_f.grid.N + 1
    assert calls.count(n_ref) == len(refs)
    assert len(calls) == len(refs) * (1 + 2 * len(pairs))


def test_ladder_validation_names_the_level(coupled_pairs):
    refs, config_f, ops_f, pairs = coupled_pairs
    good = pairs[2, 3]
    coarse, config_c, ops_c = pairs[4, 7]
    with pytest.raises(ValueError, match="empty ladder"):
        error_stats_ladder([], refs, config_f, ops_f)
    off_grid = SchemeConfig(config_c.params, TimeGrid(T=0.1, N=5), config_c.model)
    kappa = SchemeConfig(PowerLawParams(p=2.0, kappa=0.5), config_c.grid, config_c.model)
    ops3 = assemble(alfeld_split(unit_square_mesh(3)))
    config3 = SchemeConfig(config_f.params, TimeGrid(T=0.1, N=3), config_f.model)
    coarse3, _ = run_ensemble(initial_velocity(curl_bump, ops3), config3, ops3, len(refs), seed=1)
    for level, match in (
        ((coarse, off_grid, ops_c), "multiple"),
        ((coarse, kappa, ops_c), "different exponents"),
        ((coarse3, config3, ops3), "does not refine"),
    ):
        with pytest.raises(ValueError, match=f"^level 1: .*{match}"):
            error_stats_ladder([good, level], refs, config_f, ops_f)


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


def test_error_stats_same_mesh_locates_no_point(ops2):
    # A same-mesh level (one operator bundle) evaluates through the
    # mesh's own quadrature operator only.
    config = SchemeConfig(
        params=PowerLawParams(p=2.0, kappa=0.0), grid=TimeGrid(T=0.1, N=7), model=make_model()
    )
    coarse = SchemeConfig(config.params, TimeGrid(T=0.1, N=3), config.model)
    u0 = initial_velocity(curl_bump, ops2)
    refs, paths = run_ensemble(u0, config, ops2, n_samples=1, seed=6, delta=config.grid.tau / 2)
    trajs = [run_trajectory(u0, sample_increments(paths[0], coarse.grid), coarse, ops2)]
    original = StructuredLocator.locate
    calls = []

    def counting(self, points):
        calls.append(len(points))
        return original(self, points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StructuredLocator, "locate", counting)
        es = error_stats(trajs, refs, coarse, config, ops2, ops2)
    assert calls == []
    assert es.natural_err > 0.0


def test_temporal_oscillation_accepts_unstructured_mesh(jiggled_mesh):
    # A same-mesh pass locates no points: it needs time nesting only.  So
    # does a same-mesh error_stats level (one operator bundle), while two
    # bundles are compared across meshes, which needs point location.
    ops = assemble(alfeld_split(jiggled_mesh))
    config = SchemeConfig(
        params=PowerLawParams(p=3.0), grid=TimeGrid(T=0.1, N=3), model=make_model()
    )
    trajs, _ = run_ensemble(initial_velocity(curl_bump, ops), config, ops, n_samples=1, seed=4)
    osc = temporal_oscillation(trajs, config, ops, [TimeGrid(T=0.1, N=1)])
    assert np.isfinite(osc[0]) and osc[0] > 0.0
    es = error_stats(trajs, trajs, config, config, ops, ops, with_CV=False)
    assert es.natural_err == 0.0 and es.vgrad_err == 0.0
    other = assemble(alfeld_split(jiggled_mesh))
    with pytest.raises(ValueError, match="unit_square_mesh"):
        error_stats(trajs, trajs, config, config, ops, other, with_CV=False)


def test_cross_mesh_quadrature_deviation_small(ops2):
    ops4 = assemble(alfeld_split(unit_square_mesh(4)))
    v2 = interpolate_velocity(curl_bump, ops2)
    flat = point_evaluation(ops2, ops4.qp_x.reshape(-1, 2)).values(v2.coeffs[None]).ravel()
    w2 = qp_weights(ops4, 2)
    cross_sq = float(np.sum(flat * flat * w2))
    native_sq = l2_norm(v2, ops2) ** 2
    rel = abs(cross_sq - native_sq) / native_sq
    assert rel == pytest.approx(CROSS_REL_DEV, rel=1e-6)
    assert rel < 0.01


def test_cross_load_same_mesh_is_exact(ops2):
    rng = np.random.default_rng(8)
    c = rng.standard_normal(ops2.space_v.n_dofs)
    vals = point_evaluation(ops2, ops2.qp_x.reshape(-1, 2)).values(c[None])
    load = velocity_load_vector(vals.reshape((1,) + ops2.qp_x.shape), ops2)[ops2.free, 0]
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
        noise_basis=src.noise_basis,
        noise_coeffs=src.noise_coeffs,
        stress_loads=src.stress_loads,
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
    X, _ = dg._xy_paths(traj, path, StepperWorkspace(config, ops2), r)
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
    _, Y = dg._xy_paths(traj, path, StepperWorkspace(config, ops2), r)
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
