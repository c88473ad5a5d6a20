"""Tests for pressure reconstruction and the two pressure norms.

Measured references (m = 4 Alfeld mesh, N = 12, seed 42, 4 curl modes):
initial-pressure identity gap 2.5e-18; reconstruction-equation residual
<= 2.1e-17 over L2-normalized perp directions; full momentum residual
with the reconstructed increment as multiplier 8.4e-18 at p = 2,
7.8e-11 at p = 3 and 9.1e-11 at p = 1.5 (the Newton tolerance);
decomposition linearity gap 2.8e-16.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstokes.pressure as pressure
import pstokes.stepper as stepper
from pstokes.grids import TimeGrid
from pstokes.meshing import alfeld_split, unit_square_mesh
from pstokes.noise import NoiseModel, sample_increments
from pstokes.scenarios import curl_modes, u0_smooth
from pstokes.spaces import (
    Field,
    SaddleSolver,
    assemble,
    discrete_gradient,
    interpolate_velocity,
    norms,
    project_perp,
    stress_residual_vector,
)
from pstokes.stepper import (
    SchemeConfig,
    Trajectory,
    initial_velocity,
    run_trajectory,
)
from pstokes.tensors import PowerLawParams
from pstokes.pressure import (
    _solve_vperp,
    initial_pressure,
    norm_Qdet,
    norm_Qsto,
    reconstruct,
    stress_dual_norm,
    verify_reconstruction,
)

EXACT_TOL = 1e-12
RECON_TOL = 1e-10
MULTIPLIER_TOL = 1e-8


@pytest.fixture(scope="module")
def ops4():
    return assemble(alfeld_split(unit_square_mesh(4)))


@pytest.fixture(scope="module")
def u0h(ops4):
    return initial_velocity(u0_smooth, ops4)


def make_run(ops, u0, p, kappa, N=12, seed=42, n_modes=4, rule="additive"):
    model = NoiseModel(mode_fields=curl_modes(n_modes), rule=rule)
    config = SchemeConfig(
        params=PowerLawParams(p=p, kappa=kappa),
        grid=TimeGrid(T=0.25, N=N),
        model=model,
    )
    inc = sample_increments(np.random.default_rng(seed), config.grid, n_modes=n_modes)
    traj = run_trajectory(u0, inc, config, ops)
    assert traj.ok
    return traj, inc, config


@pytest.fixture(scope="module")
def run_p2(ops4, u0h):
    return make_run(ops4, u0h, 2.0, 0.0)


@pytest.fixture(scope="module")
def run_p3(ops4, u0h):
    return make_run(ops4, u0h, 3.0, 0.0)


@pytest.fixture(scope="module")
def run_p15(ops4, u0h):
    return make_run(ops4, u0h, 1.5, 0.01)


def random_mean_zero_pressure(ops, seed=7):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(ops.n_pressure)
    return Field("pressure", q - ops.cvec @ q)


class TestInitialPressure:
    def test_divergence_free_datum_gives_zero(self, ops4, u0h):
        pi0 = initial_pressure(u0h, ops4)
        assert np.abs(pi0.coeffs).max() < EXACT_TOL

    def test_norm_identity_on_raw_interpolant(self, ops4):
        # the raw interpolant is not discretely divergence-free, so the
        # least-squares pressure is nonzero and its Qsto norm equals the
        # L2 norm of the complementary projection of the datum
        u_raw = interpolate_velocity(u0_smooth, ops4)
        pi0 = initial_pressure(u_raw, ops4)
        perp = norms(project_perp(u_raw, ops4), "L2", ops4)
        assert perp > 1e-5  # nondegenerate test case
        assert abs(norm_Qsto(pi0, ops4) - perp) < RECON_TOL

    def test_defining_equation_on_random_perp_directions(self, ops4):
        u_raw = interpolate_velocity(u0_smooth, ops4)
        pi0 = initial_pressure(u_raw, ops4)
        rng = np.random.default_rng(3)
        d_full = ops4.B_full.T @ pi0.coeffs
        Mu = ops4.M_full @ u_raw.coeffs
        worst = 0.0
        for _ in range(20):
            v = np.zeros(ops4.space_v.n_dofs)
            v[ops4.free] = rng.standard_normal(ops4.n_free)
            xi = project_perp(Field("velocity", v), ops4)
            xi_c = xi.coeffs / norms(xi, "L2", ops4)
            worst = max(worst, abs(d_full @ xi_c - Mu @ xi_c))
        assert worst < RECON_TOL

    def test_mean_zero(self, ops4):
        u_raw = interpolate_velocity(u0_smooth, ops4)
        pi0 = initial_pressure(u_raw, ops4)
        assert abs(ops4.cvec @ pi0.coeffs) < EXACT_TOL

    def test_rejects_pressure_field(self, ops4):
        with pytest.raises(ValueError):
            initial_pressure(Field("pressure", np.zeros(ops4.n_pressure)), ops4)


class TestReconstruct:
    @pytest.mark.parametrize("run", ["run_p2", "run_p3", "run_p15"])
    def test_equation_residual(self, run, ops4, request):
        traj, inc, config = request.getfixturevalue(run)
        pt = reconstruct(traj, None, config, ops4)
        assert verify_reconstruction(traj, pt, config, ops4) < RECON_TOL

    @pytest.mark.parametrize("run", ["run_p2", "run_p3", "run_p15"])
    def test_multiplier_equals_pressure_increment(self, run, ops4, request):
        # d_n pi is the multiplier of the step's divergence constraint:
        # with it the full momentum equation holds on every free dof,
        # M (u_n - u_{n-1}) + tau S(eps u_n) - B^T d_n pi = load_n
        traj, inc, config = request.getfixturevalue(run)
        pt = reconstruct(traj, None, config, ops4)
        tau = config.grid.tau
        worst = 0.0
        for n in range(1, traj.n_steps + 1):
            u_n = traj.fields[n].coeffs
            r = (
                (ops4.M_full @ (u_n - traj.fields[n - 1].coeffs))[ops4.free]
                + tau * stress_residual_vector(u_n, ops4, config.params)
                - ops4.B_free.T @ pt.increment(n).coeffs
                - traj.noise_loads[n - 1]
            )
            worst = max(worst, float(np.linalg.norm(r)))
        assert worst <= MULTIPLIER_TOL

    def test_components_mean_zero(self, ops4, run_p3):
        traj, _, config = run_p3
        pt = reconstruct(traj, None, config, ops4)
        worst = abs(ops4.cvec @ pt.pi_init.coeffs)
        for n in range(traj.n_steps):
            worst = max(worst, abs(ops4.cvec @ pt.pi_det[n].coeffs))
            worst = max(worst, abs(ops4.cvec @ pt.pi_sto[n].coeffs))
        assert worst < EXACT_TOL

    def test_decomposition_matches_single_solve(self, ops4, run_p3):
        # components solved separately must sum to the pressure of the
        # totalled right-hand side: linearity of the projected solves
        traj, _, config = run_p3
        pt = reconstruct(traj, None, config, ops4)
        tau = config.grid.tau
        n = traj.n_steps
        d = (ops4.M_full @ traj.fields[0].coeffs)[ops4.free]
        for l in range(1, n + 1):
            d = d + tau * stress_residual_vector(traj.fields[l].coeffs, ops4, config.params)
            d = d - traj.noise_loads[l - 1]
        q_tot, _ = _solve_vperp(d, ops4)
        gap = norm_Qsto(Field("pressure", q_tot - pt.combined(n).coeffs), ops4)
        assert gap < RECON_TOL

    def test_recomputed_loads_match_stored(self, ops4, u0h):
        # velocity-dependent loads take one quadrature path in the stepper
        # and in the recomputation, so the pressures agree bit for bit
        traj, inc, config = make_run(ops4, u0h, 3.0, 0.0, rule="linear")
        pt_stored = reconstruct(traj, None, config, ops4)
        pt_fresh = reconstruct(traj, inc, config, ops4)
        for n in range(traj.n_steps):
            assert np.array_equal(
                pt_stored.pi_sto[n].coeffs, pt_fresh.pi_sto[n].coeffs
            )

    def test_recomputed_additive_loads_match_stored(self, ops4, run_p3):
        # the stepper's additive loads are c_n L DW_n, the recomputed ones a
        # quadrature of sum_k DW_k g_k: the two sums round differently
        # (3e-16 relative here), while a wrong lag or increment would move
        # the pressures by the size of a noise increment
        traj, inc, config = run_p3
        pt_stored = reconstruct(traj, None, config, ops4)
        pt_fresh = reconstruct(traj, inc, config, ops4)
        scale = max(np.abs(f.coeffs).max() for f in pt_stored.pi_sto)
        for n in range(traj.n_steps):
            gap = np.abs(pt_stored.pi_sto[n].coeffs - pt_fresh.pi_sto[n].coeffs).max()
            assert gap <= 1e-13 * scale

    def test_recomputed_loads_are_assembled_by_quadrature(self, ops4, u0h, monkeypatch):
        # the stepper assembles the additive mode loads once, one call per
        # mode; recomputed loads take one quadrature assembly per step
        calls = []
        load_vector = stepper.velocity_load_vector

        def counting(values, ops):
            calls.append(values.shape)
            return load_vector(values, ops)

        monkeypatch.setattr(stepper, "velocity_load_vector", counting)
        traj, inc, config = make_run(ops4, u0h, 2.0, 0.0, N=6, n_modes=3)
        assert len(calls) == 3
        calls.clear()
        reconstruct(traj, inc, config, ops4)
        assert len(calls) == traj.n_steps

    def test_causality_prefix_reconstruction(self, ops4, run_p3):
        # pi_n may only depend on data up to index n: reconstructing a
        # truncated trajectory must reproduce the prefix.  The batched
        # triangular solves round differently for different column
        # counts (~1e-12), while an actual future-data leak would move
        # coefficients by the size of a noise increment (~1e-3).
        traj, _, config = run_p3
        pt = reconstruct(traj, None, config, ops4)
        cut = 5
        sub = Trajectory(
            fields=traj.fields[: cut + 1],
            noise_loads=traj.noise_loads[:cut],
            stress_loads=traj.stress_loads[:cut],
            stats=traj.stats[:cut],
            increment_access_log=traj.increment_access_log,
            grid=traj.grid,
        )
        pt_sub = reconstruct(sub, None, config, ops4)
        for n in range(cut):
            assert np.abs(pt.pi_det[n].coeffs - pt_sub.pi_det[n].coeffs).max() < 1e-10
            assert np.abs(pt.pi_sto[n].coeffs - pt_sub.pi_sto[n].coeffs).max() < 1e-10

    def test_no_noise_gives_zero_stochastic_part(self, ops4, u0h):
        config = SchemeConfig(
            params=PowerLawParams(p=2.0, kappa=0.0),
            grid=TimeGrid(T=0.25, N=8),
            model=None,
        )
        inc = sample_increments(np.random.default_rng(0), config.grid, n_modes=1)
        traj = run_trajectory(u0h, inc, config, ops4)
        pt = reconstruct(traj, None, config, ops4)
        assert max(np.abs(f.coeffs).max() for f in pt.pi_sto) == 0.0
        assert np.abs(pt.z_sto).max() == 0.0
        # deterministic part is nonzero for nonzero motion
        assert max(np.abs(f.coeffs).max() for f in pt.pi_det) > 0.0

    def test_zero_data_all_components_zero(self, ops4):
        config = SchemeConfig(
            params=PowerLawParams(p=2.0, kappa=0.0),
            grid=TimeGrid(T=0.25, N=6),
            model=None,
        )
        inc = sample_increments(np.random.default_rng(0), config.grid, n_modes=1)
        zero = Field("velocity", np.zeros(ops4.space_v.n_dofs))
        traj = run_trajectory(zero, inc, config, ops4)
        pt = reconstruct(traj, None, config, ops4)
        assert np.abs(pt.pi_init.coeffs).max() == 0.0
        assert max(np.abs(f.coeffs).max() for f in pt.pi_det) == 0.0
        assert max(np.abs(f.coeffs).max() for f in pt.pi_sto) == 0.0

    def test_stochastic_norm_shortcut_matches_definition(self, ops4, run_p3):
        traj, _, config = run_p3
        pt = reconstruct(traj, None, config, ops4)
        for n in range(traj.n_steps):
            direct = norm_Qsto(pt.pi_sto[n], ops4)
            shortcut = float(
                np.sqrt(pt.z_sto[n] @ (ops4.M_full @ pt.z_sto[n]))
            )
            assert abs(direct - shortcut) < EXACT_TOL

    def test_verify_flag_passes_on_good_data(self, ops4, run_p2):
        traj, inc, config = run_p2
        reconstruct(traj, inc, config, ops4, verify=True)

    def test_verification_propagates_nan(self, ops4, run_p2):
        # one NaN coefficient spoils the pressure increments of steps 2
        # and 3 only; the maximum over all steps must keep it
        traj, _, config = run_p2
        pt = reconstruct(traj, None, config, ops4)
        pt.pi_det[1].coeffs[0] = np.nan
        assert np.isnan(verify_reconstruction(traj, pt, config, ops4))

    def test_verify_flag_raises_on_nan_residual(self, ops4, run_p2, monkeypatch):
        traj, _, config = run_p2
        monkeypatch.setattr(pressure, "_reconstruction_residual", lambda *args: float("nan"))
        with pytest.raises(ValueError, match="residual nan"):
            reconstruct(traj, None, config, ops4, verify=True)

    def test_verify_flag_forms_each_stress_vector_once(self, ops4, run_p2, monkeypatch):
        # reconstruct and its check read the columns tau (S(eps u_n), eps xi)
        # the stepper stored; the standalone check forms them afresh
        traj, _, config = run_p2
        calls = []

        def counting(*args):
            calls.append(args)
            return stress_residual_vector(*args)

        monkeypatch.setattr(pressure, "stress_residual_vector", counting)
        pt = reconstruct(traj, None, config, ops4, verify=True)
        assert len(calls) == 0
        verify_reconstruction(traj, pt, config, ops4)
        assert len(calls) == traj.n_steps

    def test_verification_refuses_zero_direction(self, ops4, run_p2, monkeypatch):
        traj, _, config = run_p2
        pt = reconstruct(traj, None, config, ops4)
        monkeypatch.setattr(
            pressure, "_random_perp", lambda k, ops: np.zeros((ops.space_v.n_dofs, k))
        )
        with pytest.raises(FloatingPointError, match="norms"):
            verify_reconstruction(traj, pt, config, ops4)

    def test_rejects_failed_trajectory(self, ops4, run_p2):
        traj, _, config = run_p2
        broken = Trajectory(
            fields=traj.fields,
            noise_loads=traj.noise_loads,
            stress_loads=traj.stress_loads,
            stats=traj.stats,
            increment_access_log=traj.increment_access_log,
            grid=traj.grid,
            failed_at=3,
        )
        with pytest.raises(ValueError):
            reconstruct(broken, None, config, ops4)

    def test_combined_indexing(self, ops4, run_p2):
        traj, _, config = run_p2
        pt = reconstruct(traj, None, config, ops4)
        assert np.array_equal(pt.combined(0).coeffs, pt.pi_init.coeffs)
        with pytest.raises(IndexError):
            pt.combined(traj.n_steps + 1)
        inc1 = pt.increment(1)
        expect = pt.pi_det[0].coeffs + pt.pi_sto[0].coeffs
        assert np.abs(inc1.coeffs - expect).max() < EXACT_TOL


class TestDetIncrementBound:
    @pytest.mark.parametrize("run", ["run_p2", "run_p3", "run_p15"])
    def test_per_step_bound_via_lower_bracket(self, run, ops4, request):
        # ||d_n pi_det / tau||_Qdet <= ||S(eps u_n)||_{p'}: any lower
        # bracket value must stay below the stress dual norm
        traj, _, config = request.getfixturevalue(run)
        pt = reconstruct(traj, None, config, ops4)
        tau = config.grid.tau
        p = config.params.p
        for n in (1, traj.n_steps // 2, traj.n_steps):
            prev = pt.pi_det[n - 2].coeffs if n >= 2 else 0.0
            dq = Field("pressure", (pt.pi_det[n - 1].coeffs - prev) / tau)
            br = norm_Qdet(dq, p, ops4)
            bound = stress_dual_norm(traj.fields[n], ops4, config.params)
            assert br["lower"] <= bound * (1.0 + 1e-10)

    def test_stress_dual_norm_rejects_pressure(self, ops4):
        with pytest.raises(ValueError):
            stress_dual_norm(
                Field("pressure", np.zeros(ops4.n_pressure)),
                ops4,
                PowerLawParams(p=2.0, kappa=0.0),
            )


class TestNormQsto:
    def test_zero(self, ops4):
        assert norm_Qsto(Field("pressure", np.zeros(ops4.n_pressure)), ops4) == 0.0

    def test_duality_maximizer_attains_norm(self, ops4):
        q = random_mean_zero_pressure(ops4)
        nq = norm_Qsto(q, ops4)
        vstar = project_perp(discrete_gradient(q, ops4), ops4)
        v = -vstar.coeffs
        num = (ops4.B_full.T @ q.coeffs) @ v
        den = np.sqrt(v @ (ops4.M_full @ v))
        assert abs(num / den - nq) < RECON_TOL * max(1.0, nq)

    def test_rejects_velocity_field(self, ops4):
        with pytest.raises(ValueError):
            norm_Qsto(Field("velocity", np.zeros(ops4.space_v.n_dofs)), ops4)

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(-50, 50), seed=st.integers(0, 10**6))
    def test_homogeneity(self, ops4, alpha, seed):
        q = random_mean_zero_pressure(ops4, seed)
        nq = norm_Qsto(q, ops4)
        nq_scaled = norm_Qsto(Field("pressure", alpha * q.coeffs), ops4)
        assert abs(nq_scaled - abs(alpha) * nq) < 1e-9 * max(1.0, abs(alpha) * nq)


class TestNormQdet:
    def test_zero(self, ops4):
        br = norm_Qdet(Field("pressure", np.zeros(ops4.n_pressure)), 2.0, ops4)
        assert br == {"lower": 0.0, "upper": 0.0, "ascent_ratios": []}

    def test_ascent_monotone_at_p2(self, ops4):
        q = random_mean_zero_pressure(ops4)
        br = norm_Qdet(q, 2.0, ops4)
        ratios = np.asarray(br["ascent_ratios"])
        assert len(ratios) >= 2
        scale = max(1.0, ratios.max())
        assert (np.diff(ratios) >= -1e-9 * scale).all()

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        p=st.sampled_from([1.25, 1.5, 2.0, 2.5, 3.0, 4.0]),
    )
    def test_bracket_order(self, ops4, seed, p):
        q = random_mean_zero_pressure(ops4, seed)
        br = norm_Qdet(q, p, ops4)
        assert 0.0 < br["lower"] <= br["upper"]

    def test_rejects_bad_exponent(self, ops4):
        with pytest.raises(ValueError):
            norm_Qdet(random_mean_zero_pressure(ops4), 1.0, ops4)

    def test_candidate_count_controls_lower_bound(self, ops4):
        # more candidates can only improve (or keep) the lower bound
        q = random_mean_zero_pressure(ops4, seed=11)
        small = norm_Qdet(q, 3.0, ops4, n_candidates=8)
        large = norm_Qdet(q, 3.0, ops4, n_candidates=32)
        assert large["lower"] >= small["lower"] - 1e-14


class TestSolveCounts:
    """Each family of pressure functionals is one multi-column solve."""

    @pytest.fixture
    def calls(self, ops4, monkeypatch):
        calls = {"saddle": [], "mass": []}
        saddle_solve = SaddleSolver.velocity
        mass_lu = ops4.mass_free_lu

        def saddle(self, rhs_v):
            calls["saddle"].append(np.shape(rhs_v)[1:])
            return saddle_solve(self, rhs_v)

        class CountingLU:
            def solve(self, rhs):
                calls["mass"].append(np.shape(rhs)[1:])
                return mass_lu.solve(rhs)

        monkeypatch.setattr(SaddleSolver, "velocity", saddle)
        monkeypatch.setattr(ops4, "mass_free_lu", CountingLU())
        return calls

    @pytest.mark.parametrize("N", [4, 12])
    def test_reconstruct(self, ops4, u0h, calls, N):
        traj, _, config = make_run(ops4, u0h, 2.0, 0.0, N=N)
        for log in calls.values():
            log.clear()
        reconstruct(traj, None, config, ops4)
        assert calls == {"saddle": [(N + 1,), (N,)], "mass": [(N,)]}

    def test_verification_and_norms(self, ops4, run_p2, calls):
        traj, _, config = run_p2
        pt = reconstruct(traj, None, config, ops4)
        for log in calls.values():
            log.clear()
        verify_reconstruction(traj, pt, config, ops4)
        assert calls == {"saddle": [(pressure.VERIFY_DIRECTIONS,)], "mass": []}
        calls["saddle"].clear()
        norm_Qsto(pt.pi_sto[-1], ops4)
        assert calls["saddle"] == []
        norm_Qdet(pt.pi_sto[-1], 3.0, ops4)
        assert len(calls["saddle"]) <= 6
