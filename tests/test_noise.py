"""Time grid, weights, increment samplers, noise operator, compensator."""

import numpy as np
import pytest
from scipy.integrate import quad

from pstokes.grids import (
    TimeGrid,
    cholesky_factor_banded,
    covariance_matrix,
    weight_a,
    weight_antiderivative,
    weight_cell_averages,
    weight_inner,
)
from pstokes.noise import (
    NoiseModel,
    WienerPath,
    compensator_Ebar,
    coupled_covariance,
    data_coefficient,
    data_G_n,
    modulation_average,
    sample_increments,
    sample_wiener_path,
    sigma_bounded,
)


class TestTimeGrid:
    def test_tau_times_steps_is_horizon(self):
        grid = TimeGrid(T=2.0, N=15)
        assert grid.tau * (grid.N + 1) == grid.T

    def test_intervals_partition(self):
        grid = TimeGrid(T=1.0, N=7)
        lo0, hi0 = grid.interval(0)
        assert lo0 == 0.0 and hi0 == pytest.approx(grid.tau / 2)
        for n in range(grid.N):
            assert grid.interval(n)[1] == pytest.approx(grid.interval(n + 1)[0])
        assert grid.interval(grid.N)[1] == pytest.approx(grid.T - grid.tau / 2)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(T=0.0, N=4)
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, N=0)
        for T in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                TimeGrid(T=T, N=4)


class TestWeights:
    def test_hat_peak_and_support(self):
        grid = TimeGrid(T=1.0, N=9)
        tau = grid.tau
        for n in (2, 5, 9):
            peak = grid.node(n - 1) + 0.5 * tau
            assert weight_a(n, peak, grid) == pytest.approx(1.0)
            assert weight_a(n, peak - 1.5 * tau, grid) == 0.0
            assert weight_a(n, peak + 1.5 * tau, grid) == 0.0
        assert weight_a(1, 0.0, grid) == 1.0
        assert weight_a(1, 0.49 * tau, grid) == 1.0

    @staticmethod
    def _kinks(grid):
        # Ramp breakpoints of all hats: the half-open interval endpoints.
        return [
            k * grid.tau / 2 for k in range(1, 2 * grid.N + 2) if k * grid.tau / 2 < grid.T
        ]

    def test_weight_integrates_to_tau(self):
        grid = TimeGrid(T=1.0, N=12)
        pts = self._kinks(grid)
        for n in (1, 2, 7, 12):
            val, _ = quad(
                lambda s: weight_a(n, s, grid), 0.0, grid.T, points=pts, limit=200
            )
            assert val == pytest.approx(grid.tau, rel=1e-12)

    def test_inner_products_match_adaptive_quadrature(self):
        # Independent oracle for the frozen closed forms.
        grid = TimeGrid(T=1.0, N=10)
        pts = self._kinks(grid)
        for n, m in [(1, 1), (1, 2), (2, 2), (4, 4), (4, 5), (4, 6), (3, 7)]:
            oracle, _ = quad(
                lambda s: weight_a(n, s, grid) * weight_a(m, s, grid),
                0.0,
                grid.T,
                points=pts,
                limit=400,
            )
            assert weight_inner(n, m, grid) == pytest.approx(oracle, abs=1e-13)
            assert weight_inner(m, n, grid) == weight_inner(n, m, grid)

    def test_closed_form_values(self):
        grid = TimeGrid(T=3.0, N=20)
        tau = grid.tau
        assert weight_inner(1, 1, grid) == pytest.approx(5 * tau / 6)
        assert weight_inner(5, 5, grid) == pytest.approx(2 * tau / 3)
        assert weight_inner(5, 6, grid) == pytest.approx(tau / 6)
        assert weight_inner(5, 7, grid) == 0.0

    def test_weight_square_sum_bounded_by_one(self):
        grid = TimeGrid(T=1.0, N=16)
        ts = np.linspace(0.0, grid.T, 4001)
        total = sum(weight_a(n, ts, grid) ** 2 for n in range(1, grid.N + 1))
        assert float(np.max(total)) <= 1.0 + 1e-12

    def test_antiderivative_matches_quadrature(self):
        grid = TimeGrid(T=1.0, N=8)
        for n in (1, 3, 8):
            for t in np.linspace(0.0, grid.T, 17):
                pts = [s for s in self._kinks(grid) if s < t]
                oracle, _ = quad(
                    lambda s: weight_a(n, s, grid), 0.0, t, points=pts or None, limit=200
                )
                assert weight_antiderivative(n, t, grid) == pytest.approx(
                    oracle, abs=1e-12
                )

    def test_cell_averages_sum_to_integral(self):
        grid = TimeGrid(T=1.0, N=6)
        delta = grid.tau / 8
        n_cells = int(round(grid.T / delta))
        for n in (1, 4, 6):
            abar = weight_cell_averages(n, grid, delta, 0, n_cells)
            assert delta * abar.sum() == pytest.approx(grid.tau, rel=1e-12)

    def test_index_out_of_range(self):
        grid = TimeGrid(T=1.0, N=4)
        with pytest.raises(IndexError):
            weight_a(0, 0.1, grid)
        with pytest.raises(IndexError):
            weight_inner(1, 5, grid)


class TestCovariance:
    def test_banded_cholesky_succeeds_for_large_N(self):
        grid = TimeGrid(T=1.0, N=10_000)
        L = cholesky_factor_banded(grid)
        assert L.shape == (2, 10_000)
        assert np.all(L[0] > 0.0)

    def test_cholesky_reproduces_covariance(self):
        grid = TimeGrid(T=1.0, N=64)
        L = cholesky_factor_banded(grid)
        dense = np.zeros((64, 64))
        np.fill_diagonal(dense, L[0])
        dense[np.arange(1, 64), np.arange(63)] = L[1][:63]
        np.testing.assert_allclose(
            dense @ dense.T, covariance_matrix(grid), atol=1e-15
        )

    def test_entries_are_weight_inner(self):
        # the band, its expansion and the zeros beyond are weight_inner's
        grid = TimeGrid(T=1.0, N=9)
        n = range(1, grid.N + 1)
        inner = np.array([[weight_inner(i, j, grid) for j in n] for i in n])
        assert np.array_equal(covariance_matrix(grid), inner)


class TestSamplers:
    def test_exact_sampler_covariance(self):
        # Modes are iid copies, so a single wide draw is a sample batch.
        grid = TimeGrid(T=1.0, N=16)
        rng = np.random.default_rng(42)
        X = sample_increments(rng, grid, 200_000).values.T
        emp = X.T @ X / X.shape[0]
        C = covariance_matrix(grid)
        se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / X.shape[0])
        assert np.all(np.abs(emp - C) <= 5.0 * se)

    def test_exact_sampler_mean_centered(self):
        grid = TimeGrid(T=1.0, N=16)
        rng = np.random.default_rng(7)
        X = sample_increments(rng, grid, 50_000).values.T
        se = np.sqrt(np.diag(covariance_matrix(grid)) / X.shape[0])
        assert np.all(np.abs(X.mean(axis=0)) <= 4.0 * se)

    def test_coupled_covariance_consistency(self):
        # Deterministic quadrature check: no Monte Carlo noise involved.
        grid = TimeGrid(T=1.0, N=8)
        C = covariance_matrix(grid)
        Cq = coupled_covariance(grid, grid.tau / 64)
        nz = np.abs(C) > 0
        assert np.max(np.abs(Cq[nz] - C[nz]) / np.abs(C[nz])) <= 0.02
        # and the error shrinks with delta
        Cq2 = coupled_covariance(grid, grid.tau / 256)
        assert np.max(np.abs(Cq2 - C)) < np.max(np.abs(Cq - C))

    def test_coupled_adaptedness_audit(self):
        grid = TimeGrid(T=1.0, N=12)
        rng = np.random.default_rng(3)
        path = sample_wiener_path(grid.T, grid.tau / 16, 2, rng)
        incr = sample_increments(path, grid)
        for n in range(1, grid.N + 1):
            t_cutoff = grid.node(n) + 0.5 * grid.tau
            used_up_to = (incr.last_cell_used[n - 1] + 1) * path.delta
            assert used_up_to <= t_cutoff + 1e-12

    def test_coupled_matches_exact_in_distribution(self):
        # Two-sample covariance agreement at delta = tau/64.
        grid = TimeGrid(T=1.0, N=8)
        rng = np.random.default_rng(11)
        n_samples = 20_000
        path = sample_wiener_path(grid.T, grid.tau / 64, n_samples, rng)
        Xc = sample_increments(path, grid).values.T
        emp = Xc.T @ Xc / n_samples
        C = covariance_matrix(grid)
        se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / n_samples)
        assert np.all(np.abs(emp - C) <= 5.0 * se + 0.02 * np.abs(C))

    def test_delta_must_divide_tau(self):
        grid = TimeGrid(T=1.0, N=4)
        rng = np.random.default_rng(0)
        path = sample_wiener_path(grid.T, grid.tau / 3.7, 1, rng)
        with pytest.raises(ValueError):
            sample_increments(path, grid)

    def test_exact_needs_mode_count(self):
        grid = TimeGrid(T=1.0, N=4)
        with pytest.raises(ValueError):
            sample_increments(np.random.default_rng(0), grid)

    def test_coupled_sampling_refuses_a_path_that_ends_too_early(self):
        # a_7 of this grid is supported up to t_7 + tau/2 = 0.09375
        grid = TimeGrid(T=0.1, N=7)
        delta = grid.tau / 4
        short = sample_wiener_path(0.05, delta, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"ends at t=0\.05; a_N needs it up to t=0\.09375"):
            sample_increments(short, grid)
        # a longer path is accepted and only its first cells are read
        long = sample_wiener_path(0.2, delta, 2, np.random.default_rng(1))
        exact = WienerPath(T=grid.T, delta=delta, increments=long.increments[:32])
        np.testing.assert_array_equal(
            sample_increments(long, grid).values, sample_increments(exact, grid).values
        )

    def test_compensator_refuses_a_path_that_ends_too_early(self):
        grid = TimeGrid(T=0.1, N=7)
        short = sample_wiener_path(0.05, grid.tau / 4, 1, np.random.default_rng(0))
        fields = np.ones((1, 3))
        with pytest.raises(ValueError, match="integration range"):
            compensator_Ebar(grid.interval(grid.N)[0], grid.N, fields, None, short, grid)

    @pytest.mark.parametrize("ratio", [2, 3, 5])
    def test_coupled_estimator_contracts_the_whole_hat(self, ratio):
        # Contracting the unit increments of every fine cell gives the
        # estimator's coefficients; their covariance is the quadrature
        # covariance for any integer ratio tau/delta, odd ones included.
        grid = TimeGrid(T=1.0, N=5)
        delta = grid.tau / ratio
        n_cells = int(np.ceil(grid.T / delta - 1e-9))
        unit = WienerPath(T=grid.T, delta=delta, increments=np.eye(n_cells))
        A = sample_increments(unit, grid).values
        np.testing.assert_allclose(delta * A.sum(axis=1), grid.tau, rtol=1e-13)
        np.testing.assert_allclose(delta * A @ A.T, coupled_covariance(grid, delta), atol=1e-15)


def _point_cloud(n=128, seed=5):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, 2))


def _model(rule="additive", modulation=None, modes=2):
    def make(k):
        return lambda x: 0.1 * np.stack(
            [np.sin((k + 1) * np.pi * x[..., 0]), np.cos((k + 1) * np.pi * x[..., 1])],
            axis=-1,
        )

    return NoiseModel(
        mode_fields=[make(k) for k in range(modes)],
        rule=rule,
        time_modulation=modulation,
    )


class TestNoiseOperator:
    def test_empty_mode_list_rejected(self):
        with pytest.raises(ValueError, match="at least one mode field"):
            NoiseModel([])

    @pytest.mark.parametrize("rule", ["additive", "linear", "bounded_lipschitz"])
    def test_apply_is_mode_values_times_the_factor(self, rule):
        pts = _point_cloud()
        model = _model(rule, modes=3)
        g_vals = model.mode_values(pts)
        u_vals = np.random.default_rng(2).standard_normal(pts.shape)
        expected = {"additive": 1.0, "linear": u_vals, "bounded_lipschitz": sigma_bounded(u_vals)}
        np.testing.assert_array_equal(model.apply(g_vals, u_vals), g_vals * expected[rule])
        assert model.velocity_dependent == (rule != "additive")
        np.testing.assert_allclose(
            model.mode_square_sum(pts), np.sum(g_vals**2, axis=0), rtol=1e-15
        )

    def test_sigma_is_bounded_and_lipschitz(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((1000, 2)) * 10
        v = rng.standard_normal((1000, 2)) * 10
        assert np.all(np.linalg.norm(sigma_bounded(u), axis=-1) < 1.0)
        num = np.linalg.norm(sigma_bounded(u) - sigma_bounded(v), axis=-1)
        den = np.linalg.norm(u - v, axis=-1)
        assert np.all(num <= den + 1e-12)

    def test_first_two_steps_are_zero(self):
        grid = TimeGrid(T=1.0, N=8)
        pts = _point_cloud()
        model = _model("linear")
        g_vals = model.mode_values(pts)
        u_vals = np.ones_like(pts)
        for n in (1, 2):
            out = data_G_n(n, u_vals, model, grid, g_vals)
            assert np.all(out == 0.0)

    def test_data_coefficient(self):
        # zero for n <= 2, then the average of m(t) = 1 + t^2 over J_{n-2}
        grid = TimeGrid(T=1.0, N=8)
        model = _model(modulation=lambda t: 1.0 + t**2)
        assert data_coefficient(1, model, grid) == data_coefficient(2, model, grid) == 0.0
        for n in range(3, grid.N + 1):
            lo, hi = grid.interval(n - 2)
            exact = 1.0 + (hi**3 - lo**3) / (3.0 * (hi - lo))
            assert data_coefficient(n, model, grid) == pytest.approx(exact, rel=1e-14)
        for n in (0, grid.N + 1):
            with pytest.raises(IndexError):
                data_coefficient(n, model, grid)

    def test_constant_modulation_is_exact_average(self):
        grid = TimeGrid(T=1.0, N=8)
        pts = _point_cloud()
        model = _model("bounded_lipschitz")
        g_vals = model.mode_values(pts)
        u_vals = np.full_like(pts, 0.5)
        out = data_G_n(5, u_vals, model, grid, g_vals)
        np.testing.assert_array_equal(out, model.apply(g_vals, u_vals))

    def test_polynomial_modulation_average_is_exact(self):
        grid = TimeGrid(T=1.0, N=8)
        model = _model(modulation=lambda t: t**4)
        lo, hi = grid.interval(3)
        exact = (hi**5 - lo**5) / (5.0 * (hi - lo))
        assert modulation_average(model, lo, hi) == pytest.approx(exact, rel=1e-14)

    def test_growth_and_lipschitz_constants(self):
        # Calibration pass: empirical constants from the mode fields.
        pts = _point_cloud(256)
        rng = np.random.default_rng(9)
        for rule in ("linear", "bounded_lipschitz"):
            model = _model(rule)
            g_vals = model.mode_values(pts)
            g_inf_sq = np.sum(np.max(np.abs(g_vals), axis=1) ** 2)
            for _ in range(50):
                u = rng.standard_normal(pts.shape) * rng.uniform(0.1, 10)
                v = rng.standard_normal(pts.shape) * rng.uniform(0.1, 10)
                gu, gv = model.apply(g_vals, u), model.apply(g_vals, v)
                hs_diff = np.mean(np.sum((gu - gv) ** 2, axis=-1), axis=-1).sum()
                l2_diff = np.mean(np.sum((u - v) ** 2, axis=-1))
                assert hs_diff <= g_inf_sq * l2_diff * (1.0 + 1e-9)
                hs_u = np.mean(np.sum(gu**2, axis=-1), axis=-1).sum()
                l2_u = np.mean(np.sum(u**2, axis=-1))
                assert hs_u <= g_inf_sq * (1.0 + l2_u) * (1.0 + 1e-9)

    def test_averaged_time_regularity_decays_linearly(self):
        # sum_n int a_n^2 |G(t,v) - G_n(v)|_HS^2 dt ~ tau, dominated by the
        # two zero-initialized steps; slope fit over a tau-halving ladder.
        pts = _point_cloud(64)
        model = _model("bounded_lipschitz", modulation=np.sin)
        g_vals = model.mode_values(pts)
        u_vals = np.full_like(pts, 0.3)
        base = model.apply(g_vals, u_vals)
        base_hs = np.mean(np.sum(base**2, axis=-1), axis=-1).sum()
        stats, taus = [], []
        for N in (7, 15, 31, 63):
            grid = TimeGrid(T=1.0, N=N)
            total = 0.0
            for n in range(1, N + 1):
                avg = 0.0 if n <= 2 else modulation_average(model, *grid.interval(n - 2))
                lo = max(grid.node(n - 1) - 0.5 * grid.tau, 0.0)
                hi = grid.node(n) + 0.5 * grid.tau
                val, _ = quad(
                    lambda s: weight_a(n, s, grid) ** 2
                    * (model.modulation(s) - avg) ** 2,
                    lo,
                    hi,
                    limit=100,
                )
                total += val * base_hs
            stats.append(total)
            taus.append(grid.tau)
        slope = np.polyfit(np.log(taus), np.log(stats), 1)[0]
        assert slope >= 0.9


class TestCompensator:
    def test_zero_noise_gives_zero(self):
        grid = TimeGrid(T=1.0, N=8)
        rng = np.random.default_rng(2)
        path = sample_wiener_path(grid.T, grid.tau / 8, 2, rng)
        zeros = np.zeros((2, 16, 2))
        t = grid.node(4)
        out = compensator_Ebar(t, 4, zeros, zeros, path, grid)
        assert np.all(out == 0.0)

    def test_right_endpoint_last_interval_vanishes(self):
        grid = TimeGrid(T=1.0, N=8)
        rng = np.random.default_rng(2)
        path = sample_wiener_path(grid.T, grid.tau / 8, 1, rng)
        fields = np.ones((1, 4, 2))
        t = grid.node(grid.N) + 0.5 * grid.tau
        out = compensator_Ebar(t, grid.N, fields, None, path, grid)
        # First integral over an empty interval, no (N+1)-th term.
        assert np.allclose(out, 0.0)

    def test_ito_isometry_for_additive_noise(self):
        # E|Ebar(t)|^2 against the closed-form integrals of a_n^2; this is
        # the quantitative oracle for the Riemann-Ito evaluation.  Modes
        # batch iid samples of the two stochastic integrals.
        from pstokes.noise import _ito_coefficients

        grid = TimeGrid(T=1.0, N=8)
        delta = grid.tau / 16
        n, offset = 4, 5  # t = 5 fine cells into J_4
        lo, hi = grid.interval(n)
        t = lo + offset * delta
        n_samples = 200_000
        rng = np.random.default_rng(31)
        path = sample_wiener_path(grid.T, delta, n_samples, rng)
        vals = -_ito_coefficients(n, t, hi, path, grid) + _ito_coefficients(
            n + 1, lo, t, path, grid
        )
        emp = float(np.mean(vals**2))
        v1, _ = quad(lambda s: weight_a(n, s, grid) ** 2, t, hi, limit=100)
        v2, _ = quad(lambda s: weight_a(n + 1, s, grid) ** 2, lo, t, limit=100)
        exact = v1 + v2
        assert emp == pytest.approx(exact, rel=0.05)

    def test_compensator_is_mode_contraction(self):
        from pstokes.noise import _ito_coefficients

        grid = TimeGrid(T=1.0, N=8)
        delta = grid.tau / 8
        n = 3
        lo, hi = grid.interval(n)
        t = lo + 2 * delta
        rng = np.random.default_rng(13)
        path = sample_wiener_path(grid.T, delta, 3, rng)
        f_n = rng.standard_normal((3, 5, 2))
        f_np1 = rng.standard_normal((3, 5, 2))
        out = compensator_Ebar(t, n, f_n, f_np1, path, grid)
        c1 = _ito_coefficients(n, t, hi, path, grid)
        c2 = _ito_coefficients(n + 1, lo, t, path, grid)
        expected = -np.einsum("m,mxy->xy", c1, f_n) + np.einsum(
            "m,mxy->xy", c2, f_np1
        )
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_t_outside_interval_rejected(self):
        grid = TimeGrid(T=1.0, N=8)
        path = sample_wiener_path(grid.T, grid.tau / 8, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            compensator_Ebar(0.9, 2, np.ones((1, 1)), np.ones((1, 1)), path, grid)
