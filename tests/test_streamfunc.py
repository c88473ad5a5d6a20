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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import pstokes.spaces as spaces
import pstokes.streamfunc as streamfunc
from pstokes.grids import TimeGrid
from pstokes.meshing import TriMesh, alfeld_split, unit_square_mesh
from pstokes.noise import NoiseModel, sample_increments
from pstokes.pressure import reconstruct, verify_reconstruction
from pstokes.scenarios import curl_modes, u0_smooth
from pstokes.spaces import (
    Field,
    SaddleSolver,
    _full_velocity,
    assemble,
    divergence_pointwise_max,
    element_basis,
    element_stress_vector,
    stress_residual_vector,
    stress_tangent_matrix,
    sym_grad_at_qp,
)
from pstokes.stepper import (
    SchemeConfig,
    StepperWorkspace,
    initial_velocity,
    run_trajectory,
)
from pstokes.streamfunc import DROP, build_curl_basis, stream_curl_basis
from pstokes.tensors import PowerLawParams


@pytest.fixture(scope="module")
def ops2():
    return assemble(alfeld_split(unit_square_mesh(2)))


def reduced_solve_error(ops, free_basis) -> float:
    """Span exactness: relative difference between a dense solve of the
    bordered KKT system and the same problem solved in the reduced
    basis, which vanishes only if the basis spans the full
    divergence-free space, not a proper subspace of it.  free_basis is
    the element basis of the free velocity dofs."""
    C = stream_curl_basis(ops)
    rng = np.random.default_rng(3)
    u = np.zeros(ops.space_v.n_dofs)
    u[ops.free] = 0.05 * rng.standard_normal(ops.n_free)
    A = ops.M_free + 0.01 * stress_tangent_matrix(
        u, ops, PowerLawParams(p=3.0, kappa=0.0), False, free_basis
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
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_dimension_formula(self, m):
        # m = 0 stands for a lone macro-element: every stream dof is
        # clamped, no macro-element is solved and C has no column
        if m == 0:
            base = TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
        else:
            base = unit_square_mesh(m)
        ops = assemble(alfeld_split(base))
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

    def test_unstructured_mesh_basis(self, jiggled_mesh, free_element_basis):
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
        assert reduced_solve_error(ops, free_element_basis(ops)) <= 1e-10

    def test_reduced_solve_matches_saddle(self, free_element_basis):
        ops = assemble(alfeld_split(unit_square_mesh(4)))
        assert reduced_solve_error(ops, free_element_basis(ops)) <= 1e-10

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

    def test_drop_sits_in_the_gap_at_m32(self, monkeypatch):
        """Built without a drop, every entry of C at m = 32 is either
        rounding noise below 1e-12 of its column's largest or a genuine
        entry above 1e-3 of it (the smallest is 6.9e-3); DROP drops
        exactly the noise."""
        ops = assemble(alfeld_split(unit_square_mesh(32)))
        C, _ = build_curl_basis(ops)
        monkeypatch.setattr(streamfunc, "DROP", 0.0)
        raw, _ = build_curl_basis(ops)
        col = np.repeat(np.arange(raw.shape[1]), np.diff(raw.indptr))
        rel = np.abs(raw.data) / np.maximum.reduceat(np.abs(raw.data), raw.indptr[:-1])[col]
        genuine = rel > 1e-3
        assert (genuine | (rel < 1e-12)).all()
        assert rel[genuine].min() == pytest.approx(6.9e-3, rel=1e-2)
        assert 1e-12 < DROP < 1e-3
        assert C.nnz == genuine.sum() == 199906


def each_its_own(*keys):
    """The grouping of `spaces._distinct_problems` with every local
    problem its own: the per-element build."""
    n = len(keys[0])
    return np.arange(n), np.arange(n)


def per_element(monkeypatch):
    """Patch both callers of the grouping to solve every element alone."""
    monkeypatch.setattr(streamfunc, "_distinct_problems", each_its_own)
    monkeypatch.setattr(spaces, "_distinct_problems", each_its_own)


class TestDistinctMacroElements:
    """Each distinct macro-element is solved once; a mesh whose
    macro-elements all differ is built exactly as element by element."""

    @pytest.mark.parametrize("m", [2, 3, 6, 16])
    def test_square_mesh_batches_two_solves_and_two_svds(self, m, monkeypatch):
        solves, svds = [], []
        macro_elements, svd = streamfunc._macro_elements, np.linalg.svd

        def counting_solves(P, Z, h, normals):
            solves.append(len(P))
            return macro_elements(P, Z, h, normals)

        def counting_svds(a, *args, **kwargs):
            svds.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(streamfunc, "_macro_elements", counting_solves)
        monkeypatch.setattr(np.linalg, "svd", counting_svds)
        SaddleSolver(assemble(alfeld_split(unit_square_mesh(m))))
        assert solves == [2] and svds == [2]

    @pytest.mark.parametrize("m", [3, 6, 8, 16])
    def test_matches_per_element_build(self, m, monkeypatch):
        ops = assemble(alfeld_split(unit_square_mesh(m)))
        C, _ = build_curl_basis(ops)
        with monkeypatch.context() as patch:
            per_element(patch)
            ref, _ = build_curl_basis(ops)
        assert np.array_equal(C.indptr, ref.indptr)
        assert np.array_equal(C.indices, ref.indices)
        col = np.repeat(np.arange(C.shape[1]), np.diff(C.indptr))
        col_max = np.maximum.reduceat(np.abs(ref.data), ref.indptr[:-1])[col]
        assert (np.abs(C.data - ref.data) <= 1e-13 * col_max).all()

    def test_unstructured_mesh_is_built_element_by_element(self, jiggled_mesh, monkeypatch):
        """Every macro-element of the jiggled mesh is its own group, so the
        basis and the saddle solutions are those of the per-element build,
        bit for bit."""
        groups = []
        grouping = spaces._distinct_problems

        def recording(*keys):
            rep, inverse = grouping(*keys)
            groups.append((len(inverse), len(rep)))
            return rep, inverse

        results = []
        for alone in (False, True):
            with monkeypatch.context() as patch:
                if alone:
                    per_element(patch)
                else:
                    patch.setattr(streamfunc, "_distinct_problems", recording)
                    patch.setattr(spaces, "_distinct_problems", recording)
                ops = assemble(alfeld_split(jiggled_mesh))
                rhs = np.random.default_rng(4).standard_normal((ops.n_free, 3))
                C = ops.stream_basis
                results.append((C.data, C.indices, C.indptr, *SaddleSolver(ops).solve(rhs)))
        assert len(groups) == 2 and all(n == n_rep for n, n_rep in groups)
        for grouped, alone in zip(*results):
            assert np.array_equal(grouped, alone)


def per_element_tangent(u, ops, params, picard, alone):
    """The tangent by the per-element formula on a basis whose blocks
    are each their own group: every block's table, with the rank-one
    weight (p - 2) (kappa + r)^(p-3) / r of eps u itself."""
    eps = sym_grad_at_qp(u, ops).reshape(-1, 2, 2)[alone.points]
    r = np.sqrt((eps**2).sum(axis=(2, 3)))
    w = ops.qw.ravel()[alone.points]
    E = alone.tables.reshape(len(eps), -1, alone.tables.shape[-1])
    alpha = np.repeat((params.kappa + r) ** (params.p - 2.0), 4, axis=1)
    K_loc = np.matmul(E.transpose(0, 2, 1), E * (np.repeat(w, 4, axis=1) * alpha)[:, :, None])
    if not picard:
        beta = (params.p - 2.0) * (params.kappa + r) ** (params.p - 3.0) / r
        v = np.matmul(eps.reshape(len(eps), -1, 1, 4), alone.tables)[:, :, 0]
        K_loc += np.matmul(v.transpose(0, 2, 1), v * (w * beta)[:, :, None])
    pattern = alone.pattern
    data = np.bincount(alone.pos, weights=K_loc.ravel(), minlength=pattern.nnz + 1)[:-1]
    return sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


class TestStreamTangent:
    """The stepper assembles C^T K C element by element in the stream
    basis, from one table per group of macro-elements; it must equal
    the Galerkin product of the free-dof tangent, on the pattern of
    C^T M C, and the per-element formula on the tables of every
    block."""

    @pytest.mark.parametrize("mesh", ["square2", "square", "square8", "jiggled"])
    @pytest.mark.parametrize("p,kappa", [(1.5, 0.1), (3.0, 0.0)])
    @pytest.mark.parametrize("picard", [False, True], ids=["newton", "picard"])
    def test_matches_product_of_free_tangent(
        self, jiggled_mesh, free_element_basis, mesh, p, kappa, picard
    ):
        bases = {
            "square2": unit_square_mesh(2),
            "square": unit_square_mesh(4),
            "square8": unit_square_mesh(8),
        }
        ops = assemble(alfeld_split(bases.get(mesh, jiggled_mesh)))
        C = stream_curl_basis(ops)
        params = PowerLawParams(p=p, kappa=kappa)
        u = np.zeros(ops.space_v.n_dofs)
        u[ops.free] = 0.05 * np.random.default_rng(7).standard_normal(ops.n_free)
        K = stress_tangent_matrix(u, ops, params, picard, ops.stream_element_basis)
        free = stress_tangent_matrix(u, ops, params, picard, free_element_basis(ops))
        reference = (C.T @ (free @ C)).tocsc()
        scale = np.abs(reference.data).max()
        assert np.abs((K - reference).toarray()).max() <= 1e-14 * scale
        cols = streamfunc._global_columns(streamfunc._coarse_structure(ops))
        alone = element_basis(ops, cols, C, np.arange(len(cols)))
        oracle = per_element_tangent(u, ops, params, picard, alone)
        assert np.abs((K - oracle).toarray()).max() <= 1e-13 * scale
        gram = (C.T @ (ops.M_free @ C)).tocsc()
        gram.sort_indices()
        assert np.array_equal(K.indptr, gram.indptr)
        assert np.array_equal(K.indices, gram.indices)


@pytest.mark.parametrize("mesh", ["2", "3", "16", "32", "jiggled"])
def test_first_writes_are_the_first_occurrences(jiggled_mesh, mesh):
    """C keeps the first write of each (row, column) among the values the
    macro-elements write; `_first_writes` finds them from the layout, and
    they are exactly the first occurrences of the keys, so C is built bit
    for bit as by a first-occurrence unique over the keys."""
    base = jiggled_mesh if mesh == "jiggled" else unit_square_mesh(int(mesh))
    ops = assemble(alfeld_split(base))
    cs = streamfunc._coarse_structure(ops)
    macros = streamfunc._active_macros(ops, cs)
    shape = (len(macros.active), 3, 2, 6, 12)
    nodes = 2 * macros.snodes[:, :, None, :, None] + np.arange(2)[:, None, None]
    rows = np.broadcast_to(nodes, shape)
    cols = np.broadcast_to(macros.gcols[:, None, None, None, :], shape)
    written = cols >= 0
    _, first = np.unique((rows * np.int64(cs.dim) + cols)[written], return_index=True)
    expected = np.zeros(written.sum(), dtype=bool)
    expected[first] = True
    keep = streamfunc._first_writes(cs, macros)
    assert not keep[~written].any()
    assert np.array_equal(keep[written], expected)


class TestGroupedTables:
    """The stream basis keeps one element table per group of
    macro-elements with the same geometry, whatever dofs they clamp; the
    kernels read each block as its group's table scaled by column, a
    clamped column scaled by 0.  The stress vector of the Newton
    residual must agree with C^T of the quadrature through `qp_eval`
    (the tangent is checked in TestStreamTangent)."""

    @pytest.fixture(scope="class")
    def meshes(self, jiggled_mesh):
        bases = {
            "2": unit_square_mesh(2),
            "4": unit_square_mesh(4),
            "8": unit_square_mesh(8),
            "jiggled": jiggled_mesh,
        }
        return {name: assemble(alfeld_split(base)) for name, base in bases.items()}

    @pytest.mark.parametrize("mesh", ["2", "4", "8", "jiggled"])
    @pytest.mark.parametrize("p,kappa", [(1.5, 0.1), (3.0, 0.0)])
    def test_stress_vector_matches_quadrature(self, meshes, mesh, p, kappa):
        ops = meshes[mesh]
        params = PowerLawParams(p=p, kappa=kappa)
        C = stream_curl_basis(ops)
        x = 0.05 * np.random.default_rng(7).standard_normal(C.shape[1])
        got = element_stress_vector(x, ops, params, ops.stream_element_basis)
        want = C.T @ stress_residual_vector(_full_velocity(ops, C @ x), ops, params)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("p,kappa", [(1.5, 0.1), (3.0, 0.0)])
    def test_column_scales(self, meshes, p, kappa):
        # every column of the unit-norm C has the same scale on the square
        # mesh, so the columns are rescaled at random: the grouped tables
        # must then read each member block through its column scales
        ops = meshes["8"]
        cs = streamfunc._coarse_structure(ops)
        cols = streamfunc._global_columns(cs)
        d = 10.0 ** np.random.default_rng(5).uniform(-1.0, 1.0, cs.dim)
        C = (stream_curl_basis(ops) @ sp.diags(d)).tocsc()
        macros = streamfunc._active_macros(ops, cs)
        group = np.zeros(len(cols), dtype=np.int64)
        group[macros.active] = macros.inverse
        basis = element_basis(ops, cols, C, group)
        present = basis.cols < cs.dim
        assert len(basis.tables) == 2 and np.ptp(basis.scale[present]) > 1.0
        params = PowerLawParams(p=p, kappa=kappa)
        x = 0.05 * np.random.default_rng(7).standard_normal(cs.dim) / d
        u = _full_velocity(ops, C @ x)
        got = element_stress_vector(x, ops, params, basis)
        want = C.T @ stress_residual_vector(u, ops, params)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        alone = element_basis(ops, cols, C, np.arange(len(cols)))
        for picard in (False, True):
            K = stress_tangent_matrix(u, ops, params, picard, basis)
            oracle = per_element_tangent(u, ops, params, picard, alone)
            assert np.abs((K - oracle).toarray()).max() <= 1e-13 * np.abs(oracle.data).max()

    def test_group_count_does_not_grow_with_m(self, meshes):
        counts = [
            len(assemble(alfeld_split(unit_square_mesh(m))).stream_element_basis.tables)
            for m in (2, 3, 4, 8, 16)
        ]
        assert counts == [2, 2, 2, 2, 2]
        basis = meshes["jiggled"].stream_element_basis
        # on the jiggled mesh every block is its own group
        assert len(basis.tables) == len(basis.groups) == len(basis.cols)
        np.testing.assert_array_equal(basis.scale[basis.cols < basis.pattern.shape[0]], 1.0)


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
