"""Tests for the velocity/pressure pair, assembly, and projections.

Expected values are either closed-form (constant-tensor integrals,
monomial quadrature identities, reproduction of quadratics by the nodal
interpolant) or frozen from an independent measurement noted inline.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pstokes.meshing import TriMesh, alfeld_split, unit_square_mesh
from pstokes.spaces import (
    QUAD_POINTS,
    QUAD_WEIGHTS,
    AssembledOperators,
    Field,
    SaddleSolver,
    StructuredLocator,
    _macro_interior_dofs,
    _p1_values,
    _p2_gradients,
    _p2_values,
    assemble,
    discrete_gradient,
    divergence_pointwise_max,
    grad_at_qp,
    infsup_witness,
    interpolate_velocity,
    l2_norm,
    lp_norm,
    point_evaluation,
    project_div,
    project_perp,
    stress_residual_vector,
    stress_tangent_matrix,
    sym_grad_at_qp,
    velocity_at_qp,
)
from pstokes.tensors import PowerLawParams, frobenius

SOLVER_TOL = 1e-10
EXACT_TOL = 1e-12
SYMMETRY_TOL = 1e-14

# Inf-sup witness on the L2 pair, measured once on the ladder m=2,4,8:
# 2.8165, 3.0320, 3.0949 (monotone in m).  Floor chosen below the ladder
# minimum; degeneration toward 0 is what the test must catch.
INFSUP_FLOOR = 2.5


@pytest.fixture(scope="module")
def ops4() -> AssembledOperators:
    return assemble(alfeld_split(unit_square_mesh(4)))


def nodal_field(fn, ops: AssembledOperators) -> Field:
    """The P2 field with nodal values fn(nodes) at every node, the
    boundary nodes included: free-slip data for norm checks."""
    return Field("velocity", np.asarray(fn(ops.space_v.node_coords), dtype=float).ravel())


def sym_grad_lp(v: Field, ops: AssembledOperators, p: float) -> float:
    """||eps v||_{L^p} by quadrature."""
    return lp_norm(frobenius(sym_grad_at_qp(v.coeffs, ops)), ops, p)


def smooth_velocity(pts: np.ndarray) -> np.ndarray:
    x, y = pts[:, 0], pts[:, 1]
    ux = 2 * x**2 * (1 - x) ** 2 * y * (1 - y) * (1 - 2 * y)
    uy = -2 * x * (1 - x) * (1 - 2 * x) * y**2 * (1 - y) ** 2
    return np.stack([ux, uy], axis=-1)


class TestQuadratureAndBasis:
    def test_rule_is_degree_four(self):
        # int_T x^a y^b = a! b! / (a+b+2)! on the reference triangle.
        from math import factorial

        for a in range(5):
            for b in range(5 - a):
                exact = factorial(a) * factorial(b) / factorial(a + b + 2)
                got = np.sum(QUAD_WEIGHTS * QUAD_POINTS[:, 0] ** a * QUAD_POINTS[:, 1] ** b)
                assert abs(got - exact) < 1e-15

    def test_partition_of_unity(self):
        rng = np.random.default_rng(7)
        pts = rng.random((200, 2))
        pts = pts[pts.sum(axis=1) <= 1.0]
        vals = _p2_values(pts)
        assert np.abs(vals.sum(axis=0) - 1.0).max() < 1e-12
        grads = _p2_gradients(pts)
        assert np.abs(grads.sum(axis=0)).max() < 1e-12
        assert np.abs(_p1_values(pts).sum(axis=0) - 1.0).max() < 1e-12

    def test_p2_basis_is_nodal(self):
        nodes = np.array(
            [[0, 0], [1, 0], [0, 1], [0.5, 0.5], [0, 0.5], [0.5, 0]], dtype=float
        )
        vals = _p2_values(nodes)
        assert np.abs(vals - np.eye(6)).max() < 1e-14


class TestAssembly:
    def test_requires_split_mesh(self):
        with pytest.raises(ValueError):
            assemble(unit_square_mesh(2))

    def test_dof_counts(self):
        mesh = alfeld_split(unit_square_mesh(2))
        ops = assemble(mesh)
        expected_nodes = mesh.n_vertices + mesh.n_edges
        assert ops.space_v.n_dofs == 2 * expected_nodes
        n_bdry = int(mesh.boundary_vertex.sum() + mesh.boundary_edge.sum())
        assert ops.space_v.n_free == 2 * (expected_nodes - n_bdry)
        assert ops.n_pressure == 3 * mesh.n_triangles

    def test_mass_total_and_symmetry(self, ops4):
        assert abs(ops4.M_full.sum() - 2.0) < 1e-12
        d = ops4.M_full - ops4.M_full.T
        assert (np.abs(d.data).max() if d.nnz else 0.0) < SYMMETRY_TOL
        dq = ops4.Mq - ops4.Mq.T
        assert (np.abs(dq.data).max() if dq.nnz else 0.0) < SYMMETRY_TOL

    def test_mass_positive_definite(self):
        ops = assemble(alfeld_split(unit_square_mesh(2)))
        eigs = np.linalg.eigvalsh(ops.M_free.toarray())
        assert eigs.min() > 0.0
        eigs_q = np.linalg.eigvalsh(ops.Mq.toarray())
        assert eigs_q.min() > 0.0

    def test_divergence_of_constants(self, ops4):
        c = np.tile([0.3, -0.7], ops4.space_v.n_nodes)
        assert np.abs(ops4.B_full @ c).max() < EXACT_TOL

    def test_constant_pressure_representable(self, ops4):
        # cvec integrates each basis function; the constant q=1 has
        # integral |O| = 1 and B^T annihilates it on zero-trace fields.
        one = np.ones(ops4.n_pressure)
        assert abs(ops4.cvec @ one - 1.0) < 1e-12
        assert np.abs((ops4.B_free.T @ one)).max() < EXACT_TOL

    def test_pressure_lp_of_constant(self, ops4):
        q = Field("pressure", np.ones(ops4.n_pressure))
        assert abs(lp_norm(np.abs(ops4.P @ q.coeffs), ops4, 1.5) - 1.0) < 1e-12

    def test_forms_match_element_formulas(self, jiggled_mesh):
        # every form against its element formula: local blocks from the
        # physical gradient table grad_phys and the basis values at the
        # quadrature points, scattered entry by entry
        for mesh in (alfeld_split(unit_square_mesh(4)), alfeld_split(jiggled_mesh)):
            ops = assemble(mesh)
            n_tri = mesh.n_triangles
            corners = mesh.corners()
            jac = np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=2)
            det = np.linalg.det(jac)
            inv_t = np.linalg.inv(jac).transpose(0, 2, 1)
            qw = QUAD_WEIGHTS[None] * det[:, None]
            phi, lam = _p2_values(QUAD_POINTS), _p1_values(QUAD_POINTS)
            grad_phys = np.einsum("tcd,iqd->tiqc", inv_t, _p2_gradients(QUAD_POINTS))
            l2g = ops.space_v.scalar_l2g
            n, n_p = ops.space_v.n_nodes, 3 * n_tri
            p_dofs = 3 * np.arange(n_tri)[:, None] + np.arange(3)
            v_dofs = (2 * l2g[:, :, None] + np.arange(2)).reshape(n_tri, 12)

            def scatter(loc, rows, cols, shape):
                r = np.broadcast_to(rows[:, :, None], loc.shape)
                c = np.broadcast_to(cols[:, None, :], loc.shape)
                return sp.coo_matrix((loc.ravel(), (r.ravel(), c.ravel())), shape=shape).tocsr()

            def vector(loc):
                return sp.kron(scatter(loc, l2g, l2g, (n, n)), sp.eye(2), format="csr")

            m_loc = np.einsum("q,iq,jq->ij", QUAD_WEIGHTS, phi, phi)
            b_loc = np.einsum("tq,iq,tjqc->tijc", qw, lam, grad_phys).reshape(n_tri, 3, 12)
            mq_loc = np.einsum("tq,iq,jq->tij", qw, lam, lam)
            k_loc = np.einsum("tq,tiqc,tjqc->tij", qw, grad_phys, grad_phys)
            free = ops.free
            for got, want in (
                (ops.M_full, vector(det[:, None, None] * m_loc[None])),
                (ops.B_full, scatter(b_loc, p_dofs, v_dofs, (n_p, 2 * n))),
                (ops.Mq, scatter(mq_loc, p_dofs, p_dofs, (n_p, n_p))),
                (ops.cvec, np.einsum("tq,iq->ti", qw, lam).ravel()),
                (ops.grad_stiffness, vector(k_loc)[free][:, free]),
            ):
                assert got.shape == want.shape
                diff = got - want
                diff = diff.toarray() if sp.issparse(diff) else diff
                assert np.abs(diff).max() <= 1e-14 * abs(want).max()

            # qp_eval's gradients against grad_phys
            row = np.random.default_rng(17).standard_normal(ops.space_v.n_dofs)
            u_loc = row.reshape(-1, 2)[l2g]  # (t, 6, c)
            grad = np.einsum("tiqd,tic->tqcd", grad_phys, u_loc)
            sym = 0.5 * (grad + np.swapaxes(grad, -1, -2))
            for got, want in (
                (ops.qp_eval.sym_grad(row[None])[0], sym.reshape(-1, 2, 2)),
                (grad_at_qp(row, ops), grad),
            ):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestFreeDofFactors:
    def test_mass_factor_is_fill_reduced(self):
        # a symmetric minimum-degree ordering of the SPD mass matrix
        # against SuperLU's default column ordering COLAMD, measured at
        # 26k against 60k L+U non-zeros
        ops = assemble(alfeld_split(unit_square_mesh(8)))
        lu = ops.mass_free_lu
        colamd = spla.splu(ops.M_free, permc_spec="COLAMD")
        assert lu.L.nnz + lu.U.nnz <= 0.5 * (colamd.L.nnz + colamd.U.nnz)
        B = np.random.default_rng(8).standard_normal((ops.n_free, 32))
        X = lu.solve(B)
        assert np.abs(ops.M_free @ X - B).max() <= 1e-13 * np.abs(B).max()
        assert ops.mass_free_lu is lu


class TestProjections:
    def test_idempotence(self, ops4):
        v = interpolate_velocity(smooth_velocity, ops4)
        w = project_div(v, ops4)
        w2 = project_div(w, ops4)
        assert np.abs(w2.coeffs - w.coeffs).max() < SOLVER_TOL

    def test_constraint_satisfaction(self, ops4):
        rng = np.random.default_rng(3)
        v = Field("velocity", np.zeros(ops4.space_v.n_dofs))
        v.coeffs[ops4.free] = rng.standard_normal(ops4.n_free)
        w = project_div(v, ops4)
        assert np.abs(ops4.B_full @ w.coeffs).max() < SOLVER_TOL

    def test_orthogonality_on_divfree_directions(self, ops4):
        rng = np.random.default_rng(4)
        v = Field("velocity", np.zeros(ops4.space_v.n_dofs))
        v.coeffs[ops4.free] = rng.standard_normal(ops4.n_free)
        w = project_div(v, ops4)
        resid = v.coeffs - w.coeffs
        for _ in range(20):
            xi = Field("velocity", np.zeros(ops4.space_v.n_dofs))
            xi.coeffs[ops4.free] = rng.standard_normal(ops4.n_free)
            xi = project_div(xi, ops4)
            inner = resid @ (ops4.M_full @ xi.coeffs)
            assert abs(inner) < SOLVER_TOL

    def test_perp_complement(self, ops4):
        v = interpolate_velocity(smooth_velocity, ops4)
        w = project_div(v, ops4)
        vp = project_perp(v, ops4)
        assert np.abs(w.coeffs + vp.coeffs - v.coeffs).max() < 1e-14

    def test_kind_checked(self, ops4):
        with pytest.raises(ValueError):
            project_div(Field("pressure", np.zeros(ops4.n_pressure)), ops4)


class TestSaddleSolver:
    # the solver takes the mass block M only, hence the "M" in the ids
    @pytest.mark.parametrize("k", [None, 3], ids=["one-M", "block-M"])
    def test_matches_dense_bordered_system(self, k):
        """The pinned factorization returns the solution of the bordered
        system with the dense pressure-mean row and column (zero
        constraint data, as in every projection)."""
        ops = assemble(alfeld_split(unit_square_mesh(2)))
        nf, npr = ops.n_free, ops.n_pressure
        B, c = ops.B_free.toarray(), ops.cvec[:, None]
        K = np.block(
            [
                [ops.M_free.toarray(), -B.T, np.zeros((nf, 1))],
                [B, np.zeros((npr, npr)), c],
                [np.zeros((1, nf)), c.T, np.zeros((1, 1))],
            ]
        )
        rng = np.random.default_rng(8)
        shape = () if k is None else (k,)
        rhs_v = rng.standard_normal((nf,) + shape)
        ref = np.linalg.solve(K, np.concatenate([rhs_v, np.zeros((npr + 1,) + shape)]))
        w, q = SaddleSolver(ops).solve(rhs_v)
        assert w.shape == rhs_v.shape and q.shape == (npr,) + shape
        assert np.abs(w - ref[:nf]).max() <= 1e-10
        assert np.abs(q - ref[nf : nf + npr]).max() <= 1e-10
        assert np.abs(ref[-1]).max() <= 1e-10
        assert np.abs(ops.cvec @ q).max() <= 1e-12

    @pytest.mark.parametrize("k", [None, 5], ids=["one", "block"])
    def test_velocity_is_the_velocity_of_solve(self, k):
        ops = assemble(alfeld_split(unit_square_mesh(2)))
        saddle = SaddleSolver(ops)
        shape = () if k is None else (k,)
        rhs_v = np.random.default_rng(10).standard_normal((ops.n_free,) + shape)
        assert np.array_equal(saddle.velocity(rhs_v), saddle.solve(rhs_v)[0])

    @pytest.mark.parametrize("mesh", ["jiggled", "one macro-element"])
    def test_matches_dense_bordered_system_on_other_meshes(self, jiggled_mesh, mesh):
        """The per-macro-element pressure recovery where no two
        macro-elements are congruent, and on a single macro-element,
        whose stream basis is empty."""
        if mesh == "jiggled":
            base = jiggled_mesh
        else:
            base = TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
        ops = assemble(alfeld_split(base))
        nf, npr = ops.n_free, ops.n_pressure
        B, c = ops.B_free.toarray(), ops.cvec[:, None]
        K = np.block(
            [
                [ops.M_free.toarray(), -B.T, np.zeros((nf, 1))],
                [B, np.zeros((npr, npr)), c],
                [np.zeros((1, nf)), c.T, np.zeros((1, 1))],
            ]
        )
        rhs_v = np.random.default_rng(9).standard_normal((nf, 2))
        ref = np.linalg.solve(K, np.concatenate([rhs_v, np.zeros((npr + 1, 2))]))
        w, q = SaddleSolver(ops).solve(rhs_v)
        # one scale for both: on one macro-element the exact w is zero
        scale = np.abs(ref[: nf + npr]).max()
        assert np.abs(w - ref[:nf]).max() <= 1e-10 * scale
        assert np.abs(q - ref[nf : nf + npr]).max() <= 1e-10 * scale

    @pytest.mark.parametrize(
        "case,match",
        [
            ("no parent", "no parent map"),
            ("children elsewhere", "3K..3K[+]2"),
            ("unsplit", "macro-element 0 breaks"),
        ],
    )
    def test_refuses_meshes_that_are_not_alfeld_splits(self, case, match):
        split = alfeld_split(unit_square_mesh(2))
        n = split.n_triangles
        if case == "no parent":
            # assemble refuses such a mesh itself; the solver must as well
            mesh = TriMesh(split.vertices, split.triangles)
            ops = assemble(split)
            ops = dataclasses.replace(ops, space_v=dataclasses.replace(ops.space_v, mesh=mesh))
            with pytest.raises(ValueError, match=match):
                SaddleSolver(ops)
            return
        if case == "unsplit":
            # triples of elements of an unsplit mesh posing as macro-elements
            base = unit_square_mesh(3)
            layout = (base.vertices, base.triangles, np.arange(18) // 3)
        else:
            layout = (split.vertices, split.triangles, (n - 1 - np.arange(n)) // 3)
        # a fake layout is refused by the mesh, before any solver is built
        with pytest.raises(ValueError, match=match):
            TriMesh(*layout)

    @pytest.mark.parametrize("base", ["square", "jiggled"])
    def test_interior_dofs_match_an_owner_scan(self, jiggled_mesh, base):
        """The interior dofs read from the Alfeld layout are those of a
        layout-free scan: a node is interior to K when every element
        around it is a child of K and it is not on the boundary."""
        mesh = alfeld_split(unit_square_mesh(4) if base == "square" else jiggled_mesh)
        ops = assemble(mesh)
        n_macro = mesh.n_triangles // 3
        nodes = ops.space_v.scalar_l2g.ravel()
        owner = np.repeat(mesh.parent, 6)
        lo = np.full(ops.space_v.n_nodes, n_macro)
        hi = np.full(ops.space_v.n_nodes, -1)
        np.minimum.at(lo, nodes, owner)
        np.maximum.at(hi, nodes, owner)
        inner = np.flatnonzero((lo == hi) & ~ops.space_v.boundary_node)
        assert np.array_equal(np.bincount(lo[inner], minlength=n_macro), np.full(n_macro, 4))
        inner = inner[np.argsort(lo[inner], kind="stable")].reshape(n_macro, 4)
        free_index = np.cumsum(ops.free) - 1
        scan = free_index[2 * inner[:, :, None] + np.arange(2)].reshape(n_macro, 8)
        assert np.array_equal(_macro_interior_dofs(ops), scan)

    def test_refuses_a_singular_local_block(self):
        # the barycentre of macro-element 5 (vertex 9 + 5 at m = 2) loses
        # its x-divergence column
        ops = assemble(alfeld_split(unit_square_mesh(2)))
        keep = np.ones(ops.n_free)
        keep[np.cumsum(ops.free)[2 * 14] - 1] = 0.0
        ops = dataclasses.replace(ops, B_free=(ops.B_free @ sp.diags(keep)).tocsc())
        with pytest.raises(ValueError, match="macro-element 5"):
            SaddleSolver(ops)

    def test_non_finite_input_raises(self, ops4):
        v = Field("velocity", np.zeros(ops4.space_v.n_dofs))
        v.coeffs[np.flatnonzero(ops4.free)[7]] = np.nan
        with pytest.raises(FloatingPointError):
            project_div(v, ops4)


class TestDiscreteGradient:
    def test_zero_maps_to_zero(self, ops4):
        q = Field("pressure", np.zeros(ops4.n_pressure))
        g = discrete_gradient(q, ops4)
        assert np.abs(g.coeffs).max() == 0.0

    def test_duality_relation(self, ops4):
        rng = np.random.default_rng(5)
        q = Field("pressure", rng.standard_normal(ops4.n_pressure))
        q.coeffs -= (ops4.cvec @ q.coeffs) / ops4.cvec.sum()
        g = discrete_gradient(q, ops4)
        for _ in range(20):
            v = np.zeros(ops4.space_v.n_dofs)
            v[ops4.free] = rng.standard_normal(ops4.n_free)
            lhs = g.coeffs @ (ops4.M_full @ v)
            rhs = -(q.coeffs @ (ops4.B_full @ v))
            assert abs(lhs - rhs) < SOLVER_TOL * max(1.0, abs(rhs))

    def test_range_in_v_perp(self, ops4):
        rng = np.random.default_rng(6)
        q = Field("pressure", rng.standard_normal(ops4.n_pressure))
        q.coeffs -= (ops4.cvec @ q.coeffs) / ops4.cvec.sum()
        g = discrete_gradient(q, ops4)
        gp = project_div(g, ops4)
        assert l2_norm(gp, ops4) < SOLVER_TOL


class TestDivergenceMax:
    def test_constant_field(self, ops4):
        c = Field("velocity", np.tile([1.0, 2.0], ops4.space_v.n_nodes))
        assert divergence_pointwise_max(c, ops4) < EXACT_TOL

    def test_projected_field_is_pointwise_divfree(self, ops4):
        rng = np.random.default_rng(8)
        v = Field("velocity", np.zeros(ops4.space_v.n_dofs))
        v.coeffs[ops4.free] = rng.standard_normal(ops4.n_free)
        w = project_div(v, ops4)
        assert divergence_pointwise_max(w, ops4) < SOLVER_TOL

    def test_linear_field(self, ops4):
        v = nodal_field(lambda pts: np.stack([pts[:, 0], 0 * pts[:, 1]], axis=-1), ops4)
        assert abs(divergence_pointwise_max(v, ops4) - 1.0) < 1e-13


class TestNorms:
    def test_zero_field(self, ops4):
        z = Field("velocity", np.zeros(ops4.space_v.n_dofs))
        assert l2_norm(z, ops4) == 0.0
        assert sym_grad_lp(z, ops4, 1.5) == 0.0
        assert divergence_pointwise_max(z, ops4) == 0.0

    def test_shear_sym_grad_norm(self, ops4):
        v = nodal_field(lambda pts: np.stack([pts[:, 1], 0 * pts[:, 0]], axis=-1), ops4)
        assert abs(sym_grad_lp(v, ops4, 2.0) ** 2 - 0.5) < 1e-12
        eps = sym_grad_at_qp(v.coeffs, ops4)
        assert np.abs(eps - np.array([[0.0, 0.5], [0.5, 0.0]])).max() < 1e-13

    def test_p2_norm_matches_stiffness_form(self, ops4):
        # Independent path: at p=2 the stress tangent at u=0 is the
        # symmetric-gradient stiffness, so u'Ku = ||eps u||_L2^2.
        v = interpolate_velocity(smooth_velocity, ops4)
        zero = np.zeros(ops4.space_v.n_dofs)
        K = stress_tangent_matrix(zero, ops4, PowerLawParams(p=2.0), False, ops4.free_element_basis)
        quad = v.coeffs[ops4.free] @ (K @ v.coeffs[ops4.free])
        direct = sym_grad_lp(v, ops4, 2.0) ** 2
        assert abs(quad - direct) < SOLVER_TOL

    def test_lp_norm_of_columns_is_per_column(self, ops4):
        # k magnitudes as columns give the k norms of one call each
        mags = np.abs(np.random.default_rng(3).standard_normal((ops4.qw.size, 3)))
        for p in (1.5, 2.0, 3.0):
            cols = lp_norm(mags, ops4, p)
            assert cols.shape == (3,)
            each = [lp_norm(m.reshape(ops4.qw.shape), ops4, p) for m in mags.T]
            np.testing.assert_allclose(cols, each, rtol=1e-14, atol=0.0)


class TestStressForms:
    def test_p2_residual_is_linear(self, ops4):
        v = project_div(interpolate_velocity(smooth_velocity, ops4), ops4)
        params = PowerLawParams(p=2.0)
        r = stress_residual_vector(v.coeffs, ops4, params)
        K = stress_tangent_matrix(v.coeffs, ops4, params, False, ops4.free_element_basis)
        assert np.abs(r - K @ v.coeffs[ops4.free]).max() < 1e-14

    def test_p2_residual_matches_tangent_on_random_field(self, ops4):
        # the residual goes through qp_eval, the tangent through the
        # element tables of sym_basis; both take their physical gradients
        # from one map, and at p = 2 both are (eps u, eps xi)
        u = np.zeros(ops4.space_v.n_dofs)
        u[ops4.free] = np.random.default_rng(16).standard_normal(ops4.n_free)
        params = PowerLawParams(p=2.0)
        K = stress_tangent_matrix(np.zeros_like(u), ops4, params, False, ops4.free_element_basis)
        expected = K @ u[ops4.free]
        r = stress_residual_vector(u, ops4, params)
        assert np.abs(r - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("base", ["square", "jiggled"])
    def test_sym_grad_stiffness_is_the_p2_tangent(self, jiggled_mesh, base):
        # one quadrature product of qp_eval against the element tables
        # of the free element basis: at p = 2 both are (eps v, eps xi)
        ops = assemble(alfeld_split(unit_square_mesh(4) if base == "square" else jiggled_mesh))
        K = ops.sym_grad_stiffness
        want = stress_tangent_matrix(
            np.zeros(ops.space_v.n_dofs), ops, PowerLawParams(p=2.0), False, ops.free_element_basis
        )
        assert K.format == "csr" and K.shape == (ops.n_free, ops.n_free)
        scale = np.abs(want).max()
        assert np.abs((K - want).toarray()).max() <= 1e-14 * scale
        assert np.abs((K - K.T).toarray()).max() <= SYMMETRY_TOL * scale
        assert ops.sym_grad_stiffness is K

    @pytest.mark.parametrize("p,kappa", [(1.5, 0.2), (2.5, 0.0), (3.0, 0.1)])
    def test_tangent_matches_finite_differences(self, ops4, p, kappa):
        params = PowerLawParams(p=p, kappa=kappa)
        u = project_div(interpolate_velocity(smooth_velocity, ops4), ops4).coeffs
        rng = np.random.default_rng(11)
        d = np.zeros_like(u)
        d[ops4.free] = rng.standard_normal(ops4.n_free) * 0.1
        h = 1e-6
        fd = (
            stress_residual_vector(u + h * d, ops4, params)
            - stress_residual_vector(u - h * d, ops4, params)
        ) / (2 * h)
        Kd = stress_tangent_matrix(u, ops4, params, False, ops4.free_element_basis) @ d[ops4.free]
        scale = max(np.abs(Kd).max(), 1e-30)
        assert np.abs(fd - Kd).max() / scale < 1e-5

    def test_tangent_positive_semidefinite(self):
        ops = assemble(alfeld_split(unit_square_mesh(2)))
        u = project_div(interpolate_velocity(smooth_velocity, ops), ops).coeffs
        params = PowerLawParams(p=1.5, kappa=0.0)
        K = stress_tangent_matrix(u, ops, params, False, ops.free_element_basis)
        eigs = np.linalg.eigvalsh(K.toarray())
        assert eigs.min() > -1e-12


class TestInfSupAndNondegeneracy:
    def test_witness_bounded_below_on_ladder(self):
        for m in (2, 4, 8):
            ops = assemble(alfeld_split(unit_square_mesh(m)))
            assert infsup_witness(ops) > INFSUP_FLOOR

    def test_nondegeneracy_on_vperp(self, ops4):
        rng = np.random.default_rng(12)
        for _ in range(20):
            v = Field("velocity", np.zeros(ops4.space_v.n_dofs))
            v.coeffs[ops4.free] = rng.standard_normal(ops4.n_free)
            vp = project_perp(v, ops4)
            nrm = l2_norm(vp, ops4)
            assert nrm > 0.0
            assert np.abs(ops4.B_full @ vp.coeffs).max() > 1e-12 * nrm


class TestInterpolation:
    def test_boundary_masking(self, ops4):
        v = interpolate_velocity(lambda pts: np.ones((len(pts), 2)), ops4)
        bdry = np.repeat(ops4.space_v.boundary_node, 2)
        assert np.abs(v.coeffs[bdry]).max() == 0.0
        assert np.abs(v.coeffs[~bdry] - 1.0).max() == 0.0

    def test_reproduces_quadratics(self, ops4):
        def quad_field(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.stack([x**2 - 3 * x * y, y**2 + 0.5 * x], axis=-1)

        v = nodal_field(quad_field, ops4)
        rng = np.random.default_rng(13)
        pts = rng.random((400, 2))
        vals = point_evaluation(ops4, pts).values(v.coeffs[None])[0]
        err = np.abs(vals - quad_field(pts)).max()
        assert err < 1e-13

    def test_cubic_order_on_ladder(self):
        def fn(pts):
            x, y = pts[:, 0], pts[:, 1]
            return np.stack(
                [np.sin(np.pi * x) * np.sin(2 * np.pi * y), x * (1 - x) * np.cos(np.pi * x * y)],
                axis=-1,
            )

        errs = []
        for m in (2, 4, 8, 16):
            ops = assemble(alfeld_split(unit_square_mesh(m)))
            v = nodal_field(fn, ops)
            phi = _p2_values(QUAD_POINTS)
            u_loc = v.coeffs.reshape(-1, 2)[ops.space_v.scalar_l2g]
            vals = np.einsum("iq,tic->tqc", phi, u_loc)
            exact = fn(ops.qp_x.reshape(-1, 2)).reshape(vals.shape)
            errs.append(np.sqrt(np.einsum("tq,tqc->", ops.qw, (vals - exact) ** 2)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        # P2 nodal interpolation is third order; the coarsest step is
        # pre-asymptotic (measured 2.57, 2.94, 2.98).
        assert orders.min() > 2.4
        assert orders[-1] > 2.85


class TestLocator:
    def test_locates_all_quadrature_points(self, ops4):
        loc = StructuredLocator(ops4)
        pts = ops4.qp_x.reshape(-1, 2)
        tri, ref = loc.locate(pts)
        expected = np.repeat(np.arange(ops4.space_v.mesh.n_triangles), 6)
        assert np.array_equal(tri, expected)
        assert ref.min() > -1e-12 and (ref.sum(axis=1)).max() < 1 + 1e-12

    def test_sym_grad_evaluation(self, ops4):
        v = nodal_field(lambda pts: np.stack([pts[:, 1], 0 * pts[:, 0]], axis=-1), ops4)
        rng = np.random.default_rng(14)
        sg = point_evaluation(ops4, rng.random((100, 2))).sym_grad(v.coeffs[None])[0]
        assert np.abs(sg - np.array([[0.0, 0.5], [0.5, 0.0]])).max() < 1e-12

    def test_point_evaluation_matches_native_kernels(self, ops4):
        # a stack of rows through one operator at the mesh's own
        # quadrature points gives each row's native values and gradients
        rows = np.random.default_rng(15).standard_normal((3, ops4.space_v.n_dofs))
        ev = point_evaluation(ops4, ops4.qp_x.reshape(-1, 2))
        vals, sg = ev.values(rows), ev.sym_grad(rows)
        assert vals.shape == (3, ops4.qp_x.size // 2, 2)
        assert sg.shape == (3, ops4.qp_x.size // 2, 2, 2)
        for k, row in enumerate(rows):
            native = velocity_at_qp(row, ops4).reshape(-1, 2)
            assert np.abs(vals[k] - native).max() < EXACT_TOL * np.abs(native).max()
            native = sym_grad_at_qp(row, ops4).reshape(-1, 2, 2)
            assert np.abs(sg[k] - native).max() < EXACT_TOL * np.abs(native).max()

    def test_quadrature_operator_matches_element_tables(self, ops4):
        # qp_eval's values against the element formula: the P2 basis
        # values contracted with each element's local coefficients (its
        # gradients are checked in TestAssembly.test_forms_match_element_formulas)
        rows = np.random.default_rng(17).standard_normal((3, ops4.space_v.n_dofs))
        ev = ops4.qp_eval
        phi = _p2_values(QUAD_POINTS)
        for row, vals in zip(rows, ev.values(rows)):
            u_loc = row.reshape(-1, 2)[ops4.space_v.scalar_l2g]  # (t, 6, c)
            exact = np.einsum("iq,tic->tqc", phi, u_loc)
            for got, want in (
                (vals, exact.reshape(-1, 2)),
                (velocity_at_qp(row, ops4), exact),
            ):
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_corners_and_edges_handled(self, ops4):
        loc = StructuredLocator(ops4)
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [0.25, 0.25], [1.0, 0.0]])
        tri, ref = loc.locate(pts)
        assert (tri >= 0).all() and (tri < ops4.space_v.mesh.n_triangles).all()

    def test_wrong_mesh_rejected(self, jiggled_mesh):
        # 6 m^2 triangles, but interior vertices moved off the grid: the
        # analytic search would put 29 % of the mesh's own quadrature points
        # in the wrong element, so the locator refuses the mesh.
        ops = assemble(alfeld_split(jiggled_mesh))
        assert ops.space_v.mesh.n_triangles == 6 * 4 * 4
        assert alfeld_split(unit_square_mesh(4)).square_order == 4
        with pytest.raises(ValueError, match="unit_square_mesh"):
            StructuredLocator(ops)
        with pytest.raises(ValueError, match="unit_square_mesh"):
            ops.locator


class TestField:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            Field("temperature", np.zeros(3))
