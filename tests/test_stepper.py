"""Tests for the time stepper: projections, per-step identities, causality.

The energy identity is algebraic (test the scheme with its own solution)
so its defect is bounded by the solver tolerance; the divergence bound
is the Scott-Vogelius exactness of the divergence-free basis every step
is solved in.  The linear step is checked against an implicit-Euler
Stokes step assembled from scratch as one KKT system.
"""

import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pstokes.grids import TimeGrid
from pstokes.meshing import alfeld_split, unit_square_mesh
import pstokes.stepper as stepper
from pstokes.noise import NoiseModel, data_G_n, sample_increments
import pstokes.pressure as pressure
from pstokes.pressure import reconstruct, verify_reconstruction
from pstokes.scenarios import curl_modes, u0_smooth
from pstokes.spaces import (
    Field,
    assemble,
    divergence_pointwise_max,
    interpolate_velocity,
    l2_norm,
    project_div,
    stress_residual_vector,
    stress_tangent_matrix,
    velocity_at_qp,
    velocity_load_vector,
)
from pstokes.stepper import (
    NewtonConfig,
    SchemeConfig,
    StepperWorkspace,
    _newton,
    _picard_fallback,
    dissipation_pairing,
    initial_velocity,
    run_trajectory,
)
from pstokes.tensors import PowerLawParams

ABS_TOL = 1e-10
ENERGY_TOL = 10 * ABS_TOL
DIV_TOL = 1e-8


@pytest.fixture(scope="module")
def ops4():
    return assemble(alfeld_split(unit_square_mesh(4)))


@pytest.fixture(scope="module")
def u0h(ops4):
    return initial_velocity(u0_smooth, ops4)


def make_config(p, kappa=0.0, N=16, model=None):
    return SchemeConfig(
        params=PowerLawParams(p=p, kappa=kappa),
        grid=TimeGrid(T=1.0, N=N),
        model=model,
    )


class TestInitialVelocity:
    def test_zero_data(self, ops4):
        u = initial_velocity(lambda pts: np.zeros((len(pts), 2)), ops4)
        assert np.abs(u.coeffs).max() == 0.0

    def test_idempotent_on_projected_fields(self, ops4, u0h):
        again = project_div(u0h, ops4)
        assert np.abs(again.coeffs - u0h.coeffs).max() < ABS_TOL

    def test_result_is_divergence_free(self, ops4, u0h):
        assert divergence_pointwise_max(u0h, ops4) < ABS_TOL

    def test_l2_convergence_order(self):
        # measured L2 errors 3.78e-3, 5.52e-4, 8.01e-5, 1.11e-5 on
        # m = 2,4,8,16: consecutive orders 2.78, 2.78, 2.85 (>= h^2).
        errs = []
        for m in (2, 4, 8, 16):
            ops = assemble(alfeld_split(unit_square_mesh(m)))
            uh = initial_velocity(u0_smooth, ops)
            vals = velocity_at_qp(uh.coeffs, ops)
            exact = u0_smooth(ops.qp_x.reshape(-1, 2)).reshape(vals.shape)
            errs.append(np.sqrt(np.einsum("tq,tqc->", ops.qw, (vals - exact) ** 2)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert orders.min() > 2.0


class TestStepColumns:
    """What a step forms once and keeps: its stress column and dissipation."""

    @pytest.mark.parametrize(
        "p,kappa,max_iter",
        [(1.5, 0.1, 50), (2.0, 0.0, 50), (2.0, 0.1, 50), (3.0, 0.0, 50), (1.5, 0.1, 1)],
        ids=["p1.5", "p2", "p2-kappa", "p3", "p1.5-fallback"],
    )
    def test_stress_loads_and_dissipation(self, ops4, u0h, monkeypatch, p, kappa, max_iter):
        # with max_iter = 1 Newton finishes no step: the Kacanov fallback
        # returns its best iterate, and the column must be that iterate's,
        # formed once per step (at p = 2 it is a product, no quadrature)
        calls = []
        stress = stepper.stress_residual_vector

        def counted(*args):
            calls.append(args)
            return stress(*args)

        monkeypatch.setattr(stepper, "stress_residual_vector", counted)
        model = NoiseModel(mode_fields=curl_modes(2), rule="linear")
        grid = TimeGrid(T=0.1, N=4)
        params = PowerLawParams(p=p, kappa=kappa)
        cfg = SchemeConfig(params, grid, model, NewtonConfig(max_iter=max_iter))
        inc = sample_increments(np.random.default_rng(3), grid, n_modes=2)
        traj = run_trajectory(u0h, inc, cfg, ops4)
        assert traj.ok and traj.stress_loads.shape == (grid.N, ops4.n_free)
        assert any(s.used_picard for s in traj.stats) == (max_iter == 1)
        assert len(calls) == (0 if p == 2.0 else grid.N)
        for n, (column, stats) in enumerate(zip(traj.stress_loads, traj.stats), 1):
            u = traj.fields[n].coeffs
            ref = grid.tau * stress_residual_vector(u, ops4, params)
            assert np.abs(column - ref).max() <= 1e-13 * np.abs(ref).max()
            diss = dissipation_pairing(u, ops4, params)
            assert stats.dissipation == pytest.approx(diss, rel=1e-12, abs=0.0)

    def test_quadrature_stress_calls(self, ops4, u0h, monkeypatch):
        # at p = 2 the columns are one product with tau K C (K =
        # ops.sym_grad_stiffness), so a trajectory evaluates no stress by
        # quadrature; at p = 3 the closing pass does once per step,
        # however many Newton iterations the steps took;
        # verify_reconstruction evaluates each of the N fields afresh, at
        # p = 2 too
        calls = {"stress": 0}
        stress = stress_residual_vector

        def counted_stress(*args):
            calls["stress"] += 1
            return stress(*args)

        monkeypatch.setattr(stepper, "stress_residual_vector", counted_stress)
        monkeypatch.setattr(pressure, "stress_residual_vector", counted_stress)
        model = NoiseModel(mode_fields=curl_modes(2), rule="linear")
        for p in (3.0, 2.0):
            cfg = make_config(p, N=4, model=model)
            inc = sample_increments(np.random.default_rng(4), cfg.grid, n_modes=2)
            calls.update(stress=0)
            traj = run_trajectory(u0h, inc, cfg, ops4)
            assert traj.ok
            if p != 2.0:
                assert sum(s.iterations for s in traj.stats) > cfg.grid.N
            assert calls["stress"] == (0 if p == 2.0 else cfg.grid.N), p
        ptraj = reconstruct(traj, None, cfg, ops4)
        assert calls["stress"] == 0
        verify_reconstruction(traj, ptraj, cfg, ops4)
        assert calls["stress"] == cfg.grid.N


class TestVelocityStep:
    def test_zero_fixed_point(self, ops4):
        for p in (1.5, 2.0, 3.0):
            cfg = make_config(p, kappa=0.1, N=1)
            zero = Field("velocity", np.zeros(ops4.space_v.n_dofs))
            inc = sample_increments(np.random.default_rng(0), cfg.grid, n_modes=1)
            traj = run_trajectory(zero, inc, cfg, ops4)
            assert np.abs(traj.fields[1].coeffs).max() < ABS_TOL
            assert traj.ok and traj.stats[0].converged

    def test_linear_case_single_iteration(self, ops4, u0h):
        cfg = make_config(2.0, kappa=0.7, N=1)
        inc = sample_increments(np.random.default_rng(1), cfg.grid, n_modes=1)
        (stats,) = run_trajectory(u0h, inc, cfg, ops4).stats
        assert stats.iterations == 1
        assert stats.converged
        assert stats.residual < ENERGY_TOL

    @pytest.mark.parametrize("p,kappa", [(1.5, 0.01), (2.0, 0.0), (3.0, 0.0)])
    def test_energy_identity_with_noise(self, ops4, u0h, p, kappa):
        model = NoiseModel(mode_fields=curl_modes(4), rule="linear")
        cfg = make_config(p, kappa=kappa, N=24, model=model)
        inc = sample_increments(np.random.default_rng(7), cfg.grid, n_modes=4)
        traj = run_trajectory(u0h, inc, cfg, ops4)
        assert traj.ok
        assert max(abs(s.energy_defect) for s in traj.stats) < ENERGY_TOL
        assert max(divergence_pointwise_max(f, ops4) for f in traj.fields) < DIV_TOL

    def test_noise_zero_initialized_steps(self, ops4, u0h):
        model = NoiseModel(mode_fields=curl_modes(3), rule="additive")
        cfg = make_config(2.0, N=8, model=model)
        inc = sample_increments(np.random.default_rng(3), cfg.grid, n_modes=3)
        traj = run_trajectory(u0h, inc, cfg, ops4)
        hs = [s.hs_G for s in traj.stats]
        assert hs[0] == 0.0 and hs[1] == 0.0
        assert all(h > 0.0 for h in hs[2:])

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_non_finite_load_names_the_step(self, ops4, u0h, p):
        # the noise data vanish at steps 1 and 2 (G_1 = G_2 = 0), so a
        # mode that is NaN on x > 0.5 first reaches the load at step 3
        def half_nan_mode(pts):
            return np.where(pts[..., :1] > 0.5, np.nan, curl_modes(1)[0](pts))

        model = NoiseModel(mode_fields=[half_nan_mode], rule="linear")
        cfg = make_config(p, N=4, model=model)
        inc = sample_increments(np.random.default_rng(0), cfg.grid, n_modes=1)
        with pytest.raises(FloatingPointError, match="step 3"):
            run_trajectory(u0h, inc, cfg, ops4)

    def test_non_finite_residual_names_step_and_iteration(self):
        # finite data whose stress overflows: at p = 3, S(eps u) scales
        # like |eps u|^2, beyond the float range for u0 scaled by 1e160,
        # so the first residual of step 1 is not finite.  At 1e100 every
        # residual entry is finite and the step just fails to converge.
        ops = assemble(alfeld_split(unit_square_mesh(2)))
        u0 = initial_velocity(u0_smooth, ops).coeffs
        cfg = SchemeConfig(PowerLawParams(p=3.0), TimeGrid(T=0.1, N=2))
        inc = sample_increments(np.random.default_rng(0), cfg.grid, n_modes=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="step 1, Newton iteration 1"):
                run_trajectory(Field("velocity", 1e160 * u0), inc, cfg, ops)
            traj = run_trajectory(Field("velocity", 1e100 * u0), inc, cfg, ops)
        assert traj.failed_at == 1
        # the stress record is one array, cut after the failed step
        assert traj.stress_loads.shape == (1, ops.n_free)

    def test_residual_norm_does_not_overflow(self):
        # at p = 3 the Newton residual at u0 scaled by 1e100 has finite
        # entries near 1e200, whose squares overflow: its norm must stay
        # finite
        ops = assemble(alfeld_split(unit_square_mesh(2)))
        u = 1e100 * initial_velocity(u0_smooth, ops).coeffs
        cfg = SchemeConfig(PowerLawParams(p=3.0), TimeGrid(T=0.1, N=2))
        work = StepperWorkspace(cfg, ops)
        x = work.stream_coefficients((ops.M_full @ u)[ops.free])
        F, res = work.stream_residual(x, np.zeros(x.size))
        s = np.abs(F).max()
        assert np.isfinite(F).all() and s > 1e160
        assert res == pytest.approx(s * np.linalg.norm(F / s), rel=1e-12, abs=0.0)

    def test_matches_direct_linear_solver(self, ops4, u0h, free_element_basis):
        # independent implicit-Euler Stokes step assembled from scratch;
        # its multiplier is the reconstructed pressure increment d_1 pi
        cfg = make_config(2.0)
        tau = cfg.grid.tau
        inc = sample_increments(np.random.default_rng(5), cfg.grid, n_modes=1)
        traj = run_trajectory(u0h, inc, cfg, ops4)
        u1 = traj.fields[1]
        d_pi = reconstruct(traj, None, cfg, ops4).increment(1).coeffs

        K = stress_tangent_matrix(
            np.zeros(ops4.space_v.n_dofs), ops4, cfg.params, False, free_element_basis(ops4)
        )
        npr = ops4.n_pressure
        c = sp.csc_matrix(
            (ops4.cvec, (np.arange(npr), np.zeros(npr, dtype=int))), shape=(npr, 1)
        )
        KKT = sp.bmat(
            [
                [ops4.M_free + tau * K, -ops4.B_free.T, None],
                [ops4.B_free, None, c],
                [None, c.T, None],
            ],
            format="csc",
        )
        rhs = np.zeros(KKT.shape[0])
        rhs[: ops4.n_free] = (ops4.M_full @ u0h.coeffs)[ops4.free]
        sol = spla.spsolve(KKT, rhs)
        assert np.abs(sol[: ops4.n_free] - u1.coeffs[ops4.free]).max() < ABS_TOL
        assert np.abs(sol[ops4.n_free : ops4.n_free + npr] - d_pi).max() < ABS_TOL


class TestTrajectory:
    def test_zero_everything(self, ops4):
        cfg = make_config(2.0, N=4)
        zero = Field("velocity", np.zeros(ops4.space_v.n_dofs))
        inc = sample_increments(np.random.default_rng(0), cfg.grid, n_modes=1)
        traj = run_trajectory(zero, inc, cfg, ops4)
        assert traj.ok
        for f in traj.fields:
            assert np.abs(f.coeffs).max() < ABS_TOL

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_deterministic_decay_is_monotone(self, ops4, u0h, p):
        cfg = make_config(p, N=16)
        inc = sample_increments(np.random.default_rng(0), cfg.grid, n_modes=1)
        traj = run_trajectory(u0h, inc, cfg, ops4)
        assert traj.ok
        seq = [l2_norm(f, ops4) for f in traj.fields]
        assert all(b <= a + 1e-14 for a, b in zip(seq, seq[1:]))

    def test_reproducibility(self, ops4, u0h):
        model = NoiseModel(mode_fields=curl_modes(2), rule="bounded_lipschitz")
        cfg = make_config(3.0, N=8, model=model)
        runs = []
        for _ in range(2):
            inc = sample_increments(np.random.default_rng(11), cfg.grid, n_modes=2)
            traj = run_trajectory(u0h, inc, cfg, ops4)
            runs.append(np.stack([f.coeffs for f in traj.fields]))
        assert np.array_equal(runs[0], runs[1])

    def test_causality_audit(self, ops4, u0h):
        model = NoiseModel(mode_fields=curl_modes(2), rule="linear")
        cfg = make_config(2.0, N=8, model=model)
        inc = sample_increments(np.random.default_rng(2), cfg.grid, n_modes=2)
        traj = run_trajectory(u0h, inc, cfg, ops4)
        assert len(traj.increment_access_log) > 0
        for step, accessed in traj.increment_access_log:
            assert accessed <= step

    @pytest.mark.parametrize("rule", ["additive", "linear", None])
    def test_factored_noise_record(self, ops4, u0h, rule):
        # additive: the workspace's mode loads by reference and c_n DW_n per
        # step; velocity-dependent: the step loads and the identity; no
        # model: rank 0.  Multiplied out, the record gives each step's load.
        model = None if rule is None else NoiseModel(mode_fields=curl_modes(3), rule=rule)
        cfg = make_config(2.0, N=6, model=model)
        work = StepperWorkspace(cfg, ops4)
        inc = sample_increments(np.random.default_rng(3), cfg.grid, n_modes=3)
        traj = run_trajectory(u0h, inc, cfg, ops4, work)
        loads = np.stack([
            work.noise_rhs(n, traj.fields[max(n - 2, 0)].coeffs, inc.increment(n))[0]
            for n in range(1, 7)
        ])
        assert traj.noise_loads.shape == loads.shape == (6, ops4.n_free)
        if rule == "additive":
            assert traj.noise_basis is work.mode_loads[0]
            assert not traj.noise_basis.flags.writeable
            c = [stepper.data_coefficient(n, model, cfg.grid) for n in range(1, 7)]
            assert np.array_equal(traj.noise_coeffs, np.array(c)[:, None] * inc.values)
            assert np.abs(traj.noise_loads - loads).max() <= 1e-14 * np.abs(loads).max()
        elif rule == "linear":
            assert np.array_equal(traj.noise_basis, loads.T)
            assert np.array_equal(traj.noise_coeffs, np.eye(6))
            assert np.array_equal(traj.noise_loads, loads)
        else:
            assert traj.noise_basis.shape == (ops4.n_free, 0)
            assert traj.noise_coeffs.shape == (6, 0)
            assert not np.any(traj.noise_loads) and not np.any(loads)

    @pytest.mark.parametrize("rule", ["additive", "linear"])
    def test_failed_closing_residual_cuts_the_trajectory(self, ops4, u0h, monkeypatch, rule):
        # a p = 2 step is one solve, checked by the closing pass alone: a
        # factor whose third solve is 1 % off gives step 3 a closing
        # residual above 10 abs_tol, and the run ends there, whatever the
        # later steps did
        cfg = make_config(2.0, N=6, model=NoiseModel(curl_modes(2), rule=rule))
        inc = sample_increments(np.random.default_rng(8), cfg.grid, n_modes=2)
        ref = run_trajectory(u0h, inc, cfg, ops4)
        work = StepperWorkspace(cfg, ops4)
        lu, solves = work.linear_factor(), []

        def solve(b):
            solves.append(b)
            return lu.solve(b) * (1.01 if len(solves) == 3 else 1.0)

        monkeypatch.setattr(work, "linear_factor", lambda: SimpleNamespace(solve=solve))
        traj = run_trajectory(u0h, inc, cfg, ops4, work)
        assert len(solves) == cfg.grid.N
        assert traj.failed_at == 3 and not traj.ok
        assert [s.converged for s in traj.stats] == [True, True, False]
        assert traj.stats[2].residual > 10 * cfg.newton.abs_tol
        assert len(traj.fields) == 4 and traj.stress_loads.shape == (3, ops4.n_free)
        assert traj.noise_coeffs.shape[0] == 3 and traj.noise_loads.shape == (3, ops4.n_free)
        assert traj.increment_access_log == [(1, 1), (2, 2), (3, 3)]
        for n in range(3):
            assert np.array_equal(traj.fields[n].coeffs, ref.fields[n].coeffs)
        assert np.array_equal(traj.noise_loads[:2], ref.noise_loads[:2])

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_step_residuals_recomputed_from_the_fields(self, ops4, u0h, monkeypatch, p):
        # each StepStats.residual is ||C^T (M u_n + s_n - M u_{n-1} - l_n)||
        # of the returned fields, stress columns and noise loads.  The
        # residuals are made large enough to compare: at p = 2 every solve
        # is 1 % off, at p = 3 Newton stops at a loose tolerance
        cfg = SchemeConfig(
            PowerLawParams(p=p),
            TimeGrid(T=0.1, N=6),
            NoiseModel(curl_modes(2), rule="linear"),
            NewtonConfig(abs_tol=1e-3 if p == 3.0 else 1.0),
        )
        work = StepperWorkspace(cfg, ops4)
        if p == 2.0:
            lu = work.linear_factor()
            off = SimpleNamespace(solve=lambda b: 1.01 * lu.solve(b))
            monkeypatch.setattr(work, "linear_factor", lambda: off)
        inc = sample_increments(np.random.default_rng(9), cfg.grid, n_modes=2)
        traj = run_trajectory(u0h, inc, cfg, ops4, work)
        assert traj.ok
        free, loads = ops4.free, traj.noise_loads
        for n, stats in enumerate(traj.stats, 1):
            u, u_prev = traj.fields[n].coeffs[free], traj.fields[n - 1].coeffs[free]
            R = ops4.M_free @ (u - u_prev) + traj.stress_loads[n - 1] - loads[n - 1]
            ref = np.linalg.norm(ops4.stream_basis_T @ R)
            assert ref > 1e-8
            assert stats.residual == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_multiplier_count(self, ops4, u0h):
        # one noise load per step, and one multiplier of the divergence
        # constraint, the reconstructed pressure increment, per step
        cfg = make_config(2.0, N=6)
        inc = sample_increments(np.random.default_rng(4), cfg.grid, n_modes=1)
        traj = run_trajectory(u0h, inc, cfg, ops4)
        assert len(traj.noise_loads) == len(traj.stats) == 6
        pt = reconstruct(traj, None, cfg, ops4)
        assert pt.n_steps == 6
        # the increments carry the mean-zero normalization
        for n in range(1, 7):
            assert abs(ops4.cvec @ pt.increment(n).coeffs) < 1e-12


class TestDecayedVelocity:
    """Steps past a velocity that has decayed almost to zero, on the
    noisy-run inputs of test_diagnostics: m = 2, N = 6, T = 1, two
    curl-bump modes at amplitude 0.1, SeedSequence(11)."""

    @pytest.mark.parametrize("kappa", [0.0, 1e-3])
    def test_every_step_converges_at_p15(self, kappa):
        # at kappa = 0 max|u| falls 9.2e-3 -> 1.2e-5 -> 1.8e-10 over the
        # first steps, so Newton linearizes at radii |eps u| down to about 4e-12
        from test_diagnostics import curl_bump, make_model

        ops = assemble(alfeld_split(unit_square_mesh(2)))
        cfg = SchemeConfig(PowerLawParams(p=1.5, kappa=kappa), TimeGrid(T=1.0, N=6), make_model())
        u0 = initial_velocity(curl_bump, ops)
        work = StepperWorkspace(cfg, ops)
        for child in np.random.SeedSequence(11).spawn(3):
            inc = sample_increments(np.random.default_rng(child), cfg.grid, n_modes=2)
            traj = run_trajectory(u0, inc, cfg, ops, work)
            assert traj.ok, f"stopped at step {traj.failed_at}"


class TestFactorRule:
    """Every SPD system of the scheme is factored by `spaces.SPD_SPLU`:
    diagonal pivots, so the row permutation is the column one, and a
    fill set by the sparsity pattern alone.  Every stream-basis matrix
    has the pattern of C^T M C; at m = 8 its factors hold 14,520 L+U
    non-zeros, against 15,170-17,457 under COLAMD with partial pivoting
    for the same matrices."""

    @pytest.fixture(scope="class")
    def ops8(self):
        return assemble(alfeld_split(unit_square_mesh(8)))

    @pytest.mark.parametrize(
        "p, picard",
        [(2.0, False), (3.0, False), (1.5, False), (1.5, True), (None, False)],
        ids=["p2-linear", "p3-newton", "p1.5-newton", "p1.5-kacanov", "saddle"],
    )
    def test_diagonal_pivots_and_one_fill(self, ops8, p, picard):
        saddle = ops8.projection_saddle().lu
        if p is None:
            A, lu = ops8.stream_mass, saddle
        else:
            cfg = make_config(p)
            work = StepperWorkspace(cfg, ops8)
            u = initial_velocity(u0_smooth, ops8).coeffs
            lu = work.linear_factor() if p == 2.0 else work.factorize(u, picard)
            K = stress_tangent_matrix(u, ops8, cfg.params, picard, ops8.stream_element_basis)
            A = ops8.stream_mass + cfg.grid.tau * K
        colamd = spla.splu(A.tocsc(), permc_spec="COLAMD")
        nnz = lu.L.nnz + lu.U.nnz
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert nnz == saddle.L.nnz + saddle.U.nnz
        assert nnz <= colamd.L.nnz + colamd.U.nnz

    def test_degenerate_tangent_solves_to_rounding(self):
        # the p = 1.5, kappa = 0 run of TestDecayedVelocity: u_2 has
        # max|u| 2e-11 and |eps u| between 4e-12 and 2e-10 at the
        # quadrature points, so the Newton weight |eps u|^(p - 2) ranges
        # over 7e4-5e5 and tau K outweighs the mass block by 3e6
        from test_diagnostics import curl_bump, make_model

        ops = assemble(alfeld_split(unit_square_mesh(2)))
        cfg = SchemeConfig(PowerLawParams(p=1.5), TimeGrid(T=1.0, N=6), make_model())
        inc = sample_increments(np.random.default_rng(11), cfg.grid, n_modes=2)
        traj = run_trajectory(initial_velocity(curl_bump, ops), inc, cfg, ops)
        u = traj.fields[2].coeffs
        assert np.abs(u).max() < 1e-10
        K = stress_tangent_matrix(u, ops, cfg.params, False, ops.stream_element_basis)
        A = (ops.stream_mass + cfg.grid.tau * K).tocsc()
        b = np.random.default_rng(2).standard_normal(A.shape[0])
        for lu in (StepperWorkspace(cfg, ops).factorize(u), spla.splu(A, permc_spec="COLAMD")):
            x = lu.solve(b)
            assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


class TestSolverMachinery:
    def test_newton_config_validation(self):
        # an infinite tolerance would accept every first iterate and
        # ignore the noise; a fractional or boolean count is no count
        for bad in (0.0, -1e-10, np.inf, np.nan):
            with pytest.raises(ValueError, match="abs_tol"):
                NewtonConfig(abs_tol=bad)
        for name in ("max_iter", "picard_iters"):
            for bad in (0, -3, 2.5, True, 1.0):
                with pytest.raises(ValueError, match=name):
                    NewtonConfig(**{name: bad})
        assert NewtonConfig(max_iter=np.int64(3), picard_iters=1).max_iter == 3

    def test_picard_fallback_reduces_residual(self, ops4, u0h):
        work = StepperWorkspace(make_config(3.0, N=4), ops4)
        b = work.stream_load((ops4.M_full @ u0h.coeffs)[ops4.free])
        x, res = _picard_fallback(np.zeros(b.size), b, work)
        assert res < 1e-6
        assert np.isfinite(x).all()

    def test_fallback_trajectory_matches_newton(self, ops4, u0h):
        # one Newton iteration never converges from u_{n-1}, so every
        # step is finished by the Kacanov fallback; both iterations solve
        # the same step equation to the Newton tolerance.  Measured:
        # residuals <= 8.5e-11, energy defect 1.3e-12, 6.2e-10 from
        # the trajectory Newton finishes.
        grid = TimeGrid(T=0.1, N=4)
        runs = []
        for newton in (NewtonConfig(max_iter=1), NewtonConfig()):
            cfg = SchemeConfig(PowerLawParams(p=1.5, kappa=0.1), grid, newton=newton)
            inc = sample_increments(np.random.default_rng(0), grid, n_modes=1)
            traj = run_trajectory(u0h, inc, cfg, ops4)
            assert traj.ok
            assert all(s.converged for s in traj.stats)
            assert max(abs(s.energy_defect) for s in traj.stats) <= 1e-9
            runs.append((traj.stats, np.stack([f.coeffs for f in traj.fields])))
        assert all(s.used_picard for s in runs[0][0])
        assert not any(s.used_picard for s in runs[1][0])
        assert np.abs(runs[0][1] - runs[1][1]).max() <= 1e-8

    @pytest.mark.parametrize("p", [2.0, 3.0], ids=lambda p: f"{p}-stream")
    def test_step_refactorizations_add_up(self, ops4, u0h, p):
        # the p = 2 factorization is built inside step 1 and counted there
        cfg = make_config(p, N=4)
        work = StepperWorkspace(cfg, ops4)
        inc = sample_increments(np.random.default_rng(6), cfg.grid, n_modes=1)
        traj = run_trajectory(u0h, inc, cfg, ops4, work)
        assert work.refactor_count >= 1
        assert sum(s.refactorizations for s in traj.stats) == work.refactor_count

    def test_stale_factor_freed_before_refactoring(self, ops4, u0h):
        # two Newton factorizations never live at once: the driver holds
        # no factor, and the workspace drops its stale one before
        # building the next
        cfg = make_config(3.0, N=4)
        work = StepperWorkspace(cfg, ops4)
        factorize, built = work.factorize, []

        class Factor:
            def __init__(self, lu):
                self.solve = lu.solve

        def tracked(u_full, picard=False):
            assert not any(ref() is not None for ref in built)
            factor = Factor(factorize(u_full, picard))
            built.append(weakref.ref(factor))
            return factor

        work.factorize = tracked
        inc = sample_increments(np.random.default_rng(6), cfg.grid, n_modes=1)
        traj = run_trajectory(u0h, inc, cfg, ops4, work)
        assert traj.ok and not any(s.used_picard for s in traj.stats)
        assert len(built) == work.refactor_count >= 2

    def test_noise_loads_do_not_build_the_basis(self):
        # pressure reconstruction assembles loads through a workspace of
        # its own; that must not cost a stream basis.  The lagged velocity
        # is a plain interpolant: the divergence-free projection of
        # initial_velocity solves in the basis and would build it.
        ops = assemble(alfeld_split(unit_square_mesh(2)))
        model = NoiseModel(mode_fields=curl_modes(2), rule="linear")
        work = StepperWorkspace(make_config(3.0, N=4, model=model), ops)
        u = interpolate_velocity(u0_smooth, ops).coeffs
        _, hs_G = work.noise_rhs(3, u, np.ones(2))
        assert hs_G > 0.0
        assert "stream_basis" not in vars(ops)

    @pytest.mark.parametrize("rule", ["additive", "linear", "bounded_lipschitz"])
    @pytest.mark.parametrize("modulated", [False, True])
    def test_noise_rhs_matches_the_per_mode_formula(self, rule, modulated):
        # the load from the contracted field and ||G_n||_HS from the
        # root-sum-square field, against the per-mode stack of G_n
        ops = assemble(alfeld_split(unit_square_mesh(2)))
        model = NoiseModel(
            mode_fields=curl_modes(3, amplitude=0.7),
            rule=rule,
            time_modulation=(lambda t: 1.0 + 4.0 * np.sin(9.0 * t)) if modulated else None,
        )
        cfg = make_config(3.0, N=6, model=model)
        work = StepperWorkspace(cfg, ops)
        u = 3.0 * initial_velocity(u0_smooth, ops).coeffs
        dW = np.array([0.3, -1.1, 0.6])
        for n in range(1, cfg.grid.N + 1):
            load, hs_G = work.noise_rhs(n, u, dW)
            G = data_G_n(n, velocity_at_qp(u, ops), model, cfg.grid, work.g_qp)
            ref = velocity_load_vector(np.tensordot(dW, G, axes=1), ops)[ops.free]
            ref_hs = np.sqrt(np.einsum("tq,ktqc,ktqc->", ops.qw, G, G))
            if n <= 2:
                assert not np.any(load) and hs_G == 0.0
                continue
            assert np.abs(load - ref).max() <= 1e-13 * np.abs(ref).max()
            assert hs_G == pytest.approx(ref_hs, rel=1e-13, abs=0.0)
            # the additive rule's c_n L DW_n against the quadrature of
            # sum_k DW_k g_k that pressure.reconstruct recomputes loads by
            q_load, q_hs = work.quadrature_load(n, u, dW)
            assert np.abs(load - q_load).max() <= 1e-12 * np.abs(q_load).max()
            assert hs_G == pytest.approx(q_hs, rel=1e-12, abs=0.0)
        for n in (0, cfg.grid.N + 1):
            with pytest.raises(IndexError):
                work.noise_rhs(n, u, dW)

    def test_additive_step_reads_no_velocity(self, ops4, u0h, monkeypatch):
        # an additive load is c_n L DW_n: no velocity and no G_n is
        # evaluated; a linear-rule step evaluates both once
        calls = {"velocity": 0, "G_n": 0}

        def counted(u_coeffs, ops):
            calls["velocity"] += 1
            return velocity_at_qp(u_coeffs, ops)

        def counted_G(*args):
            calls["G_n"] += 1
            return data_G_n(*args)

        monkeypatch.setattr(stepper, "velocity_at_qp", counted)
        monkeypatch.setattr(stepper, "data_G_n", counted_G)
        for rule, per_step in (("additive", 0), ("linear", 1)):
            cfg = make_config(2.0, N=4, model=NoiseModel(curl_modes(2), rule=rule))
            inc = sample_increments(np.random.default_rng(0), cfg.grid, n_modes=2)
            calls.update(velocity=0, G_n=0)
            assert run_trajectory(u0h, inc, cfg, ops4).ok
            assert calls == {"velocity": per_step * 4, "G_n": per_step * 4}, rule

    def test_p2_step_forms_two_mass_products(self, monkeypatch):
        # two products with M per trajectory, whatever N: M u_0 for the
        # coefficients x_0, and one block product M [u_1 .. u_N] in the
        # closing pass; the steps themselves multiply by C^T M C
        ops = assemble(alfeld_split(unit_square_mesh(2)))
        u0 = initial_velocity(u0_smooth, ops)

        class CountedMatrix(sp.csc_matrix):
            products = 0

            def __matmul__(self, other):
                CountedMatrix.products += 1
                return super().__matmul__(other)

        monkeypatch.setattr(ops, "M_full", CountedMatrix(ops.M_full))
        monkeypatch.setattr(ops, "M_free", CountedMatrix(ops.M_free))
        for N in (4, 8):
            cfg = make_config(2.0, N=N, model=NoiseModel(curl_modes(2)))
            work = StepperWorkspace(cfg, ops)
            work.linear_factor()
            inc = sample_increments(np.random.default_rng(2), cfg.grid, n_modes=2)
            CountedMatrix.products = 0
            assert run_trajectory(u0, inc, cfg, ops, work).ok
            assert CountedMatrix.products == 2, N

    def test_workspace_linear_saddle_reused(self, ops4, u0h):
        cfg = make_config(2.0, N=4)
        work = StepperWorkspace(cfg, ops4)
        inc = sample_increments(np.random.default_rng(6), cfg.grid, n_modes=1)
        run_trajectory(u0h, inc, cfg, ops4, work)
        assert work.refactor_count == 1


class TestNewtonRetry:
    """The fresh-factor retry of the line search: when a stale direction
    fails the Armijo search down to MIN_STEP, `_newton` forces one
    fresh direction at the same point, and gives up if that fails too.
    No small tier-1 run reaches this path, so a stub workspace drives
    the Newton loop: the basis is the identity, the residual of v is v
    itself, and each direction call is logged with its force flag."""

    class Stub:
        def __init__(self, stale, forced):
            self.config = SimpleNamespace(newton=NewtonConfig())
            self.directions = {False: stale, True: forced}
            self.forced = []

        def stream_residual(self, v, b):
            return v.copy(), float(np.linalg.norm(v))

        def direction(self, u, F, force=False):
            self.forced.append(force)
            sign, fresh = self.directions[force]
            return sign * u, fresh

    def test_forced_direction_rescues_a_stale_one(self):
        # the stale direction points uphill; the forced one is exact
        work = self.Stub(stale=(1.0, False), forced=(-1.0, True))
        u, res, its, converged = _newton(1, np.array([1.0, -2.0]), None, work)
        assert work.forced == [False, True]
        assert converged and its == 2
        assert res == 0.0 and not u.any()

    def test_failed_forced_direction_ends_the_step(self):
        # both point uphill: one forced retry, then `_newton` returns
        # the start point unconverged without a second forced call
        work = self.Stub(stale=(1.0, False), forced=(1.0, True))
        u0 = np.array([1.0, -2.0])
        u, res, its, converged = _newton(1, u0.copy(), None, work)
        assert work.forced == [False, True]
        assert not converged and its == 1
        assert np.array_equal(u, u0) and res == np.linalg.norm(u0)


class TestPicardFallback:
    """The Kacanov fallback when no iterate has a finite residual: it
    returns the start's velocity, copied, with residual inf.  A stub
    workspace whose solves give NaN drives it; its basis is the identity
    and its residual of v is v itself."""

    class Stub:
        def __init__(self):
            self.config = SimpleNamespace(newton=NewtonConfig(picard_iters=3))
            self.solves = 0

        def factorize(self, u, picard=False):
            assert picard
            return SimpleNamespace(solve=self.solve)

        def solve(self, b):
            self.solves += 1
            return np.full(2, np.nan)

        def velocity(self, x):
            return x

        def stream_residual(self, v, b):
            return v.copy(), float(np.linalg.norm(v))

    def test_no_finite_residual_returns_the_start(self):
        work = self.Stub()
        u0 = np.array([1.0, -2.0])
        u, res = _picard_fallback(u0, None, work)
        assert work.solves == 3
        assert np.array_equal(u, u0) and u is not u0 and res == np.inf


class TestInputConsistency:
    """A step or a reconstruction given increments, a workspace or a
    mesh of another configuration raises instead of running on the
    wrong grid or step size."""

    @pytest.fixture(scope="class")
    def setup2(self):
        ops = assemble(alfeld_split(unit_square_mesh(2)))
        model = NoiseModel(mode_fields=curl_modes(2), rule="linear")
        cfg4, cfg8 = (
            SchemeConfig(PowerLawParams(p=2.0), TimeGrid(T=0.1, N=N), model) for N in (4, 8)
        )
        incs = {
            N: sample_increments(np.random.default_rng(0), TimeGrid(T=0.1, N=N), n_modes=2)
            for N in (4, 8)
        }
        return ops, cfg4, cfg8, incs, initial_velocity(u0_smooth, ops)

    def test_step_rejects_increments_of_another_grid(self, setup2):
        ops, cfg4, cfg8, incs, u0 = setup2
        with pytest.raises(ValueError, match="increments"):
            run_trajectory(u0, incs[8], cfg4, ops)
        with pytest.raises(ValueError, match="increments"):
            run_trajectory(u0, incs[4], cfg8, ops)

    def test_step_rejects_workspace_of_another_config_or_mesh(self, setup2):
        ops, cfg4, cfg8, incs, u0 = setup2
        with pytest.raises(ValueError, match="workspace"):
            run_trajectory(u0, incs[4], cfg4, ops, StepperWorkspace(cfg8, ops))
        other = assemble(alfeld_split(unit_square_mesh(2)))
        with pytest.raises(ValueError, match="workspace"):
            run_trajectory(u0, incs[4], cfg4, ops, StepperWorkspace(cfg4, other))
        # an equal configuration built separately is the same configuration
        twin = SchemeConfig(PowerLawParams(p=2.0), TimeGrid(T=0.1, N=4), cfg4.model)
        assert run_trajectory(u0, incs[4], cfg4, ops, StepperWorkspace(twin, ops)).ok

    def test_reconstruct_rejects_increments_of_another_grid(self, setup2):
        ops, cfg4, _, incs, u0 = setup2
        traj = run_trajectory(u0, incs[4], cfg4, ops)
        with pytest.raises(ValueError, match="increments"):
            reconstruct(traj, incs[8], cfg4, ops)
        pt = reconstruct(traj, incs[4], cfg4, ops)
        assert pt.n_steps == 4
        assert verify_reconstruction(traj, pt, cfg4, ops) <= 1e-6

    @pytest.mark.parametrize("n_modes", [1, 3])
    def test_step_rejects_increments_with_another_mode_count(self, setup2, n_modes):
        ops, cfg4, _, _, u0 = setup2
        inc = sample_increments(np.random.default_rng(0), cfg4.grid, n_modes=n_modes)
        message = rf"step 1: the increments have {n_modes} modes, the noise model 2"
        with pytest.raises(ValueError, match=message):
            run_trajectory(u0, inc, cfg4, ops)
        # without a noise model any increments are accepted
        quiet = SchemeConfig(cfg4.params, cfg4.grid)
        assert run_trajectory(u0, inc, quiet, ops).ok

    def test_reconstruct_rejects_increments_with_another_mode_count(self, setup2):
        ops, cfg4, _, incs, u0 = setup2
        traj = run_trajectory(u0, incs[4], cfg4, ops)
        inc3 = sample_increments(np.random.default_rng(0), cfg4.grid, n_modes=3)
        with pytest.raises(ValueError, match="the increments have 3 modes, the noise model 2"):
            reconstruct(traj, inc3, cfg4, ops)

    def test_reconstruct_rejects_trajectory_of_another_grid(self, setup2):
        ops, cfg4, cfg8, incs, u0 = setup2
        traj = run_trajectory(u0, incs[8], cfg8, ops)
        with pytest.raises(ValueError, match="trajectory is for"):
            reconstruct(traj, None, cfg4, ops)
        pt = reconstruct(traj, None, cfg8, ops)
        assert pt.n_steps == 8
        assert verify_reconstruction(traj, pt, cfg8, ops) <= 1e-6
