"""Tests for the divergence-free stream-function basis the time stepper
solves every step in.

The decisive property is span-exactness: solving the same saddle system
through the reduced basis must reproduce a dense solve of the bordered
KKT system (frozen at 1e-10, on m = 4 and on a jiggled mesh).  That the reconstructed
pressure increment closes the full momentum equation of every step is
checked in test_pressure; here the momentum residual of a converged
reduced step drops to the Newton tolerance once the optimal multiplier
is fitted (measured 8.5e-11).
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from pstokes.grids import TimeGrid
from pstokes.meshing import alfeld_split, unit_square_mesh
from pstokes.noise import NoiseModel, sample_increments
from pstokes.pressure import reconstruct, verify_reconstruction
from pstokes.scenarios import curl_modes, u0_smooth
from pstokes.spaces import (
    Field,
    assemble,
    divergence_pointwise_max,
    stress_residual_vector,
    stress_tangent_matrix,
)
from pstokes.stepper import (
    SchemeConfig,
    StepperWorkspace,
    initial_velocity,
    run_trajectory,
)
from pstokes.streamfunc import DROP, stream_curl_basis
from pstokes.tensors import PowerLawParams


@pytest.fixture(scope="module")
def ops2():
    return assemble(alfeld_split(unit_square_mesh(2)))


def reduced_solve_error(ops) -> float:
    """Span exactness: relative difference between a dense solve of the
    bordered KKT system and the same problem solved in the reduced
    basis, which vanishes only if the basis spans the full
    divergence-free space, not a proper subspace of it."""
    C = stream_curl_basis(ops)
    rng = np.random.default_rng(3)
    u = np.zeros(ops.space_v.n_dofs)
    u[ops.free] = 0.05 * rng.standard_normal(ops.n_free)
    A = ops.M_free + 0.01 * stress_tangent_matrix(
        u, ops, PowerLawParams(p=3.0, kappa=0.0), False, ops.free_element_basis
    )
    f = rng.standard_normal(ops.n_free)
    nf, npr = ops.n_free, ops.n_pressure
    B, c = ops.B_free.toarray(), ops.cvec[:, None]
    K = np.block(
        [
            [A.toarray(), -B.T, np.zeros((nf, 1))],
            [B, np.zeros((npr, npr)), c],
            [np.zeros((1, nf)), c.T, np.zeros((1, 1))],
        ]
    )
    u_kkt = np.linalg.solve(K, np.concatenate([f, np.zeros(npr + 1)]))[:nf]
    H = (C.T @ (A @ C)).tocsc()
    u_red = C @ spla.splu(H).solve(C.T @ f)
    return float(np.linalg.norm(u_red - u_kkt) / np.linalg.norm(u_kkt))


@pytest.fixture(scope="module")
def setup2(ops2):
    grid = TimeGrid(N=6, T=0.5)
    model = NoiseModel(mode_fields=curl_modes(2))
    inc = sample_increments(np.random.default_rng(11), grid, n_modes=2)
    u0 = initial_velocity(u0_smooth, ops2)
    return grid, model, inc, u0


def run(ops, setup, p, kappa):
    grid, model, inc, u0 = setup
    cfg = SchemeConfig(PowerLawParams(p=p, kappa=kappa), grid, model)
    return run_trajectory(u0, inc, cfg, ops), cfg


class TestBasisConstruction:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_dimension_formula(self, m):
        ops = assemble(alfeld_split(unit_square_mesh(m)))
        C = stream_curl_basis(ops)
        expected = ops.n_free - (ops.n_pressure - 1)
        assert C.shape == (ops.n_free, expected)

    def test_columns_divergence_free(self, ops2):
        C = stream_curl_basis(ops2)
        D = ops2.B_free @ C
        assert np.abs(D.toarray()).max() <= 1e-12

    def test_columns_unit_norm(self, ops2):
        C = stream_curl_basis(ops2)
        norms_sq = np.asarray(C.multiply(C).sum(axis=0)).ravel()
        assert np.allclose(norms_sq, 1.0, atol=1e-12)

    def test_unstructured_mesh_basis(self, jiggled_mesh):
        """Dimension, pointwise divergence, column scaling and span
        exactness on a mesh whose macro-elements all differ in shape."""
        ops = assemble(alfeld_split(jiggled_mesh))
        C = stream_curl_basis(ops)
        assert C.shape == (ops.n_free, ops.n_free - (ops.n_pressure - 1))
        u = np.zeros(ops.space_v.n_dofs)
        for j in range(C.shape[1]):
            u[ops.free] = C[:, j].toarray().ravel()
            assert divergence_pointwise_max(Field("velocity", u), ops) <= 1e-10
        norms_sq = np.asarray(C.multiply(C).sum(axis=0)).ravel()
        assert np.allclose(norms_sq, 1.0, atol=1e-12)
        assert reduced_solve_error(ops) <= 1e-10

    def test_reduced_solve_matches_saddle(self):
        ops = assemble(alfeld_split(unit_square_mesh(4)))
        assert reduced_solve_error(ops) <= 1e-10

    def test_requires_split_mesh(self):
        # the operator bundle itself refuses unsplit meshes, so the
        # basis can rely on the parent map being present
        with pytest.raises(ValueError, match="Alfeld"):
            assemble(unit_square_mesh(2))

    def test_cached_on_operator_bundle(self, ops2, setup2):
        assert stream_curl_basis(ops2) is stream_curl_basis(ops2)
        assert ops2.stream_element_basis is ops2.stream_element_basis
        # one C^T M C per mesh: the stepper reads the bundle's product
        gram = ops2.stream_mass
        assert gram is ops2.stream_mass
        grid, model, _, _ = setup2
        cfg = SchemeConfig(PowerLawParams(p=2.0, kappa=0.0), grid, model)
        assert StepperWorkspace(cfg, ops2).stream_gram()[1] is gram

    def test_rounding_noise_dropped_per_column(self):
        """At m = 16 the Gram matrix C^T M C couples exactly the stream
        dofs that share a macro-element (48,703 non-zeros while noise of
        1e-15 relative survived a drop against the largest entry of the
        whole unscaled C), and no kept entry is below DROP of its
        column's largest."""
        ops = assemble(alfeld_split(unit_square_mesh(16)))
        C = stream_curl_basis(ops)
        gram = (C.T @ (ops.M_free @ C)).tocsc()
        gram.sort_indices()
        pattern = ops.stream_element_basis.pattern
        assert gram.nnz == pattern.nnz == 32509
        assert np.array_equal(gram.indptr, pattern.indptr)
        assert np.array_equal(gram.indices, pattern.indices)
        col_max = abs(C).max(axis=0).toarray().ravel()
        col = np.repeat(np.arange(C.shape[1]), np.diff(C.indptr))
        assert (np.abs(C.data) >= DROP * col_max[col]).all()
        norms_sq = np.asarray(C.multiply(C).sum(axis=0)).ravel()
        assert np.allclose(norms_sq, 1.0, atol=1e-12)


class TestStreamTangent:
    """The stepper assembles C^T K C element by element in the stream
    basis; it must equal the Galerkin product of the free-dof tangent,
    on the pattern of C^T M C."""

    @pytest.mark.parametrize("mesh", ["square", "jiggled"])
    @pytest.mark.parametrize("p,kappa", [(1.5, 0.1), (3.0, 0.0)])
    @pytest.mark.parametrize("picard", [False, True], ids=["newton", "picard"])
    def test_matches_product_of_free_tangent(self, jiggled_mesh, mesh, p, kappa, picard):
        base = unit_square_mesh(4) if mesh == "square" else jiggled_mesh
        ops = assemble(alfeld_split(base))
        C = stream_curl_basis(ops)
        params = PowerLawParams(p=p, kappa=kappa)
        u = np.zeros(ops.space_v.n_dofs)
        u[ops.free] = 0.05 * np.random.default_rng(7).standard_normal(ops.n_free)
        K = stress_tangent_matrix(u, ops, params, picard, ops.stream_element_basis)
        free = stress_tangent_matrix(u, ops, params, picard, ops.free_element_basis)
        reference = (C.T @ (free @ C)).tocsc()
        scale = np.abs(reference.data).max()
        assert np.abs((K - reference).toarray()).max() <= 1e-14 * scale
        gram = (C.T @ (ops.M_free @ C)).tocsc()
        gram.sort_indices()
        assert np.array_equal(K.indptr, gram.indptr)
        assert np.array_equal(K.indices, gram.indices)


class TestStreamSolverBackend:
    def test_divergence_and_energy(self, ops2, setup2):
        ts, _ = run(ops2, setup2, p=3.0, kappa=0.05)
        assert ts.ok and all(s.converged for s in ts.stats)
        div = max(divergence_pointwise_max(f, ops2) for f in ts.fields)
        defect = max(abs(s.energy_defect) for s in ts.stats)
        assert div <= 1e-12
        assert defect <= 1e-9

    def test_full_momentum_residual(self, ops2, setup2):
        """The reduced convergence test controls the full KKT residual:
        fitting the optimal multiplier leaves only the Newton tolerance."""
        grid, _, _, _ = setup2
        ts, cfg = run(ops2, setup2, p=3.0, kappa=0.05)
        tau = grid.tau
        u_end, u_prev = ts.fields[-1], ts.fields[-2]
        rhs = (ops2.M_full @ u_prev.coeffs)[ops2.free] + ts.noise_loads[-1]
        Fu = (
            (ops2.M_full @ u_end.coeffs)[ops2.free]
            + tau * stress_residual_vector(u_end.coeffs, ops2, cfg.params)
            - rhs
        )
        lam = spla.lsqr(ops2.B_free.T, Fu, atol=1e-14, btol=1e-14)[0]
        assert np.linalg.norm(Fu - ops2.B_free.T @ lam) <= 1e-8

    def test_linear_case_single_factorization(self, ops2, setup2):
        # one factorization serves every step and every sample stepped
        # with the same workspace, and reproduces a fresh workspace
        grid, model, _, u0 = setup2
        cfg = SchemeConfig(PowerLawParams(p=2.0, kappa=0.0), grid, model)
        work = StepperWorkspace(cfg, ops2)
        for seed in (11, 12):
            inc = sample_increments(np.random.default_rng(seed), grid, n_modes=2)
            shared = run_trajectory(u0, inc, cfg, ops2, work=work)
            fresh = run_trajectory(u0, inc, cfg, ops2)
            dev = max(
                np.abs(a.coeffs - b.coeffs).max()
                for a, b in zip(shared.fields, fresh.fields)
            )
            assert dev <= 1e-12
        assert work.refactor_count == 1

    def test_pressure_reconstruction_accepts_stream_trajectory(
        self, ops2, setup2
    ):
        grid, _, inc, _ = setup2
        ts, cfg = run(ops2, setup2, p=3.0, kappa=0.05)
        ptraj = reconstruct(ts, inc, cfg, ops2)
        assert ptraj.n_steps == grid.N
        assert verify_reconstruction(ts, ptraj, cfg, ops2) <= 1e-6

    def test_solver_name_validated(self, setup2):
        grid, model, _, _ = setup2
        with pytest.raises(ValueError, match="solver"):
            SchemeConfig(
                PowerLawParams(p=2.0, kappa=0.0), grid, model, solver="direct"
            )
        with pytest.raises(ValueError, match="removed"):
            SchemeConfig(PowerLawParams(p=2.0, kappa=0.0), grid, model, solver="kkt")
        assert SchemeConfig(PowerLawParams(p=2.0, kappa=0.0), grid).solver == "stream"
