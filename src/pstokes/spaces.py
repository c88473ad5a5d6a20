"""Scott-Vogelius velocity/pressure pair and all assembled operators.

Velocity space: continuous vector-valued quadratic Lagrange elements with
zero boundary trace, on an Alfeld-split triangulation.  Pressure space:
discontinuous linears (3 dofs per triangle) with the global mean-zero
constraint kept as one dense row.  On Alfeld splits this pair is inf-sup
stable and div V_h is contained in the pressure space, which makes the
discrete divergence constraint pointwise exact: the velocity iterates
returned by the saddle solves are exactly divergence free up to solver
tolerance.

Conventions: scalar velocity node k is a vertex (k < n_vertices) or the
midpoint of edge k - n_vertices; vector dof = 2 * node + component.
Pressure dof = 3 * triangle + local vertex.  All quadrature is a 6-point
degree-4 rule, exact for every polynomial integrand appearing in the
bilinear forms (P2 x P2 products); the non-polynomial stress integrands
inherit a quadrature error that is absorbed into solver tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pstokes.meshing import TriMesh
from pstokes.tensors import PowerLawParams, jacobian_coefficients, stress_S

__all__ = [
    "QUAD_POINTS",
    "QUAD_WEIGHTS",
    "Field",
    "VelocitySpace",
    "PressureSpace",
    "AssembledOperators",
    "assemble",
    "SaddleSolver",
    "project_div",
    "project_perp",
    "discrete_gradient",
    "divergence_pointwise_max",
    "norms",
    "interpolate_velocity",
    "velocity_at_qp",
    "velocity_load_vector",
    "sym_grad_at_qp",
    "sym_grad_p_power",
    "stress_residual_vector",
    "stress_tangent_matrix",
    "StructuredLocator",
    "infsup_witness",
]

# 6-point Dunavant rule on the reference triangle {(0,0),(1,0),(0,1)},
# degree of precision 4; weights sum to the reference area 1/2.
_A1, _B1, _W1 = 0.445948490915965, 0.108103018168070, 0.223381589678011
_A2, _B2, _W2 = 0.091576213509771, 0.816847572980459, 0.109951743655322
QUAD_POINTS = np.array(
    [
        [_A1, _A1],
        [_B1, _A1],
        [_A1, _B1],
        [_A2, _A2],
        [_B2, _A2],
        [_A2, _B2],
    ]
)
QUAD_WEIGHTS = 0.5 * np.array([_W1, _W1, _W1, _W2, _W2, _W2])
N_QP = len(QUAD_WEIGHTS)


def _p2_values(pts: np.ndarray) -> np.ndarray:
    """P2 basis at reference points, shape (6, n_pts).

    Node order: vertices 0..2, then midpoints of the edges opposite
    vertices 0, 1, 2 (matching TriMesh.triangle_edges slots).
    """
    x, y = pts[:, 0], pts[:, 1]
    l1, l2, l3 = 1.0 - x - y, x, y
    return np.stack(
        [
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            l3 * (2 * l3 - 1),
            4 * l2 * l3,
            4 * l3 * l1,
            4 * l1 * l2,
        ]
    )


def _p2_gradients(pts: np.ndarray) -> np.ndarray:
    """Reference gradients of the P2 basis, shape (6, n_pts, 2)."""
    x, y = pts[:, 0], pts[:, 1]
    l1 = 1.0 - x - y
    one = np.ones_like(x)
    zero = np.zeros_like(x)
    g = np.empty((6, len(pts), 2))
    g[0] = np.stack([-(4 * l1 - 1) * one, -(4 * l1 - 1) * one], axis=-1)
    g[1] = np.stack([(4 * x - 1), zero], axis=-1)
    g[2] = np.stack([zero, (4 * y - 1)], axis=-1)
    g[3] = np.stack([4 * y, 4 * x], axis=-1)
    g[4] = np.stack([-4 * y, 4 * (l1 - y)], axis=-1)
    g[5] = np.stack([4 * (l1 - x), -4 * x], axis=-1)
    return g


def _p1_values(pts: np.ndarray) -> np.ndarray:
    """Barycentric P1 basis at reference points, shape (3, n_pts)."""
    x, y = pts[:, 0], pts[:, 1]
    return np.stack([1.0 - x - y, x, y])


@dataclass
class Field:
    """Coefficient vector tagged with its space.

    Velocity coefficients are stored at full length (boundary entries
    present and exactly zero); pressure coefficients have one entry per
    discontinuous-P1 dof.
    """

    kind: str
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("velocity", "pressure"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        self.coeffs = np.asarray(self.coeffs, dtype=float)

    def copy(self) -> "Field":
        return Field(self.kind, self.coeffs.copy())


@dataclass
class VelocitySpace:
    mesh: TriMesh
    node_coords: np.ndarray
    boundary_node: np.ndarray
    scalar_l2g: np.ndarray  # (n_tri, 6) scalar node per local P2 node

    @property
    def n_nodes(self) -> int:
        return len(self.node_coords)

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_nodes

    @property
    def free_mask(self) -> np.ndarray:
        return ~np.repeat(self.boundary_node, 2)

    @property
    def n_free(self) -> int:
        return int(self.free_mask.sum())


@dataclass
class PressureSpace:
    mesh: TriMesh

    @property
    def n_dofs(self) -> int:
        return 3 * self.mesh.n_triangles


@dataclass
class AssembledOperators:
    """Everything the steppers and reconstructions consume.

    Matrices live in CSR/CSC; `free` marks the interior velocity dofs.
    grad_phys holds the physical P2 gradients at all quadrature points,
    the only geometry-dependent table the nonlinear assembly needs.
    """

    space_v: VelocitySpace
    space_q: PressureSpace
    M_full: sp.csr_matrix
    M_free: sp.csc_matrix
    B_full: sp.csr_matrix
    B_free: sp.csc_matrix
    Mq: sp.csr_matrix
    cvec: np.ndarray
    qp_x: np.ndarray  # (n_tri, nq, 2) physical quadrature points
    qw: np.ndarray  # (n_tri, nq) physical weights
    grad_phys: np.ndarray  # (n_tri, 6, nq, 2)
    vel_l2g: np.ndarray  # (n_tri, 12) velocity dof per local basis
    params: PowerLawParams | None = None
    _cache: dict = field(default_factory=dict)

    @property
    def free(self) -> np.ndarray:
        return self.space_v.free_mask

    @property
    def n_free(self) -> int:
        return self.space_v.n_free

    @property
    def n_pressure(self) -> int:
        return self.space_q.n_dofs

    # -- prefactored solvers, built on first use and reused everywhere --

    def mass_free_lu(self):
        if "mass_free_lu" not in self._cache:
            self._cache["mass_free_lu"] = spla.splu(self.M_free)
        return self._cache["mass_free_lu"]

    def mass_pressure_lu(self):
        if "mass_pressure_lu" not in self._cache:
            self._cache["mass_pressure_lu"] = spla.splu(self.Mq.tocsc())
        return self._cache["mass_pressure_lu"]

    def projection_saddle(self) -> "SaddleSolver":
        if "projection_saddle" not in self._cache:
            self._cache["projection_saddle"] = SaddleSolver(self.M_free, self)
        return self._cache["projection_saddle"]

    def grad_stiffness_lu(self):
        """Full-gradient stiffness on free dofs, for norm ascent solves."""
        if "grad_stiffness_lu" not in self._cache:
            ee = np.einsum("tiqc,tjqc->tqij", self.grad_phys, self.grad_phys)
            loc = np.einsum("tq,tqij->tij", self.qw, ee)
            n = self.space_v.n_nodes
            rows = np.repeat(self.space_v.scalar_l2g, 6, axis=1).ravel()
            cols = np.tile(self.space_v.scalar_l2g, (1, 6)).ravel()
            K_s = sp.coo_matrix(
                (loc.ravel(), (rows, cols)), shape=(n, n)
            ).tocsr()
            K = sp.kron(K_s, sp.eye(2), format="csc")
            free = self.free
            self._cache["grad_stiffness_lu"] = spla.splu(K[free][:, free].tocsc())
        return self._cache["grad_stiffness_lu"]


def _build_velocity_space(mesh: TriMesh) -> VelocitySpace:
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    node_coords = np.vstack([mesh.vertices, midpoints])
    boundary = np.concatenate([mesh.boundary_vertex, mesh.boundary_edge])
    scalar_l2g = np.hstack([mesh.triangles, mesh.n_vertices + mesh.triangle_edges])
    return VelocitySpace(
        mesh=mesh,
        node_coords=node_coords,
        boundary_node=boundary,
        scalar_l2g=scalar_l2g,
    )


def assemble(mesh: TriMesh, params: PowerLawParams | None = None) -> AssembledOperators:
    """Assemble mass, divergence, and pressure-mass matrices plus the
    quadrature tables used by the nonlinear forms.

    The power-law parameters do not enter any linear matrix; they are
    stored so downstream norm and stress evaluations default to them.
    """
    if mesh.parent is None:
        raise ValueError("velocity/pressure pair requires an Alfeld-split mesh")
    space_v = _build_velocity_space(mesh)
    space_q = PressureSpace(mesh=mesh)
    n_tri = mesh.n_triangles

    corners = mesh.corners()
    jac = np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    if np.any(det <= 0.0):
        raise ValueError("degenerate element Jacobian")
    inv_t = np.empty_like(jac)  # inverse transpose of the affine map
    inv_t[:, 0, 0] = jac[:, 1, 1]
    inv_t[:, 0, 1] = -jac[:, 1, 0]
    inv_t[:, 1, 0] = -jac[:, 0, 1]
    inv_t[:, 1, 1] = jac[:, 0, 0]
    inv_t /= det[:, None, None]

    qp_x = corners[:, None, 0, :] + QUAD_POINTS[None] @ np.swapaxes(jac, 1, 2)
    qw = QUAD_WEIGHTS[None, :] * det[:, None]

    phi = _p2_values(QUAD_POINTS)  # (6, nq)
    grad_ref = _p2_gradients(QUAD_POINTS)  # (6, nq, 2)
    grad_phys = np.einsum("tcd,iqd->tiqc", inv_t, grad_ref)

    # Scalar P2 mass, expanded to the vector space by Kronecker product.
    m_loc = np.einsum("q,iq,jq->ij", QUAD_WEIGHTS, phi, phi)
    m_elem = det[:, None, None] * m_loc[None]
    n_s = space_v.n_nodes
    rows = np.repeat(space_v.scalar_l2g, 6, axis=1).ravel()
    cols = np.tile(space_v.scalar_l2g, (1, 6)).ravel()
    M_s = sp.coo_matrix((m_elem.ravel(), (rows, cols)), shape=(n_s, n_s)).tocsr()
    M_full = sp.kron(M_s, sp.eye(2), format="csr")

    # Divergence form B[(t,i), (j,c)] = int lambda_i d_c phi_j.
    p1 = _p1_values(QUAD_POINTS)  # (3, nq)
    b_loc = np.einsum("tq,iq,tjqc->tijc", qw, p1, grad_phys)  # (t, 3, 6, 2)
    vel_l2g = (
        2 * np.repeat(space_v.scalar_l2g, 2, axis=1)
        + np.tile([0, 1], (n_tri, 6))
    )
    b_rows = np.repeat(3 * np.arange(n_tri)[:, None] + np.arange(3)[None], 12, axis=1)
    b_cols = np.repeat(vel_l2g[:, None, :], 3, axis=1)
    B_full = sp.coo_matrix(
        (
            b_loc.reshape(n_tri, 3, 12).ravel(),
            (b_rows.ravel(), b_cols.ravel()),
        ),
        shape=(3 * n_tri, 2 * n_s),
    ).tocsr()

    # Discontinuous-P1 pressure mass (block diagonal) and mean row.
    mq_loc = np.einsum("tq,iq,jq->tij", qw, p1, p1)
    q_rows = np.repeat(3 * np.arange(n_tri)[:, None] + np.arange(3)[None], 3, axis=1)
    q_cols = np.tile(3 * np.arange(n_tri)[:, None, None] + np.arange(3)[None, None], (1, 3, 1))
    Mq = sp.coo_matrix(
        (mq_loc.ravel(), (q_rows.ravel(), q_cols.ravel())),
        shape=(3 * n_tri, 3 * n_tri),
    ).tocsr()
    cvec = np.einsum("tq,iq->ti", qw, p1).ravel()

    free = ~np.repeat(space_v.boundary_node, 2)
    M_free = M_full[free][:, free].tocsc()
    B_free = B_full[:, free].tocsc()

    return AssembledOperators(
        space_v=space_v,
        space_q=space_q,
        M_full=M_full,
        M_free=M_free,
        B_full=B_full,
        B_free=B_free,
        Mq=Mq,
        cvec=cvec,
        qp_x=qp_x,
        qw=qw,
        grad_phys=grad_phys,
        vel_l2g=vel_l2g,
        params=params,
    )


class SaddleSolver:
    """Direct factorization of the KKT operator

        [ A   -B^T   0 ] [ w  ]   [ rhs_v ]
        [ B    0     c ] [ q  ] = [ rhs_p ]
        [ 0   c^T    0 ] [ mu ]   [ rhs_c ]

    with A an SPD velocity block on free dofs, B the divergence form, and
    c the pressure-mean row that removes the constant nullspace.  With
    this sign convention the multiplier q of the time stepper coincides
    with the pressure increment of the reconstruction equation.
    """

    def __init__(self, A: sp.spmatrix, ops: AssembledOperators):
        nf, npr = ops.n_free, ops.n_pressure
        c = sp.csc_matrix((ops.cvec, (np.arange(npr), np.zeros(npr, dtype=int))), shape=(npr, 1))
        K = sp.bmat(
            [
                [A, -ops.B_free.T, None],
                [ops.B_free, None, c],
                [None, c.T, None],
            ],
            format="csc",
        )
        self.n_free = nf
        self.n_pressure = npr
        self.lu = spla.splu(K)

    def solve(
        self,
        rhs_v: np.ndarray,
        rhs_p: np.ndarray | None = None,
        rhs_c: float = 0.0,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        rhs = np.zeros(self.n_free + self.n_pressure + 1)
        rhs[: self.n_free] = rhs_v
        if rhs_p is not None:
            rhs[self.n_free : self.n_free + self.n_pressure] = rhs_p
        rhs[-1] = rhs_c
        sol = self.lu.solve(rhs)
        return (
            sol[: self.n_free],
            sol[self.n_free : self.n_free + self.n_pressure],
            float(sol[-1]),
        )


def _full_velocity(ops: AssembledOperators, free_values: np.ndarray) -> np.ndarray:
    out = np.zeros(ops.space_v.n_dofs)
    out[ops.free] = free_values
    return out


def project_div(v: Field, ops: AssembledOperators) -> Field:
    """L2 projection onto the discretely divergence-free subspace."""
    if v.kind != "velocity":
        raise ValueError("project_div expects a velocity Field")
    rhs_v = (ops.M_full @ v.coeffs)[ops.free]
    w_free, _, _ = ops.projection_saddle().solve(rhs_v)
    return Field("velocity", _full_velocity(ops, w_free))


def project_perp(v: Field, ops: AssembledOperators) -> Field:
    """Complementary projection onto V-perp: v - Pi_div v."""
    w = project_div(v, ops)
    return Field("velocity", v.coeffs - w.coeffs)


def discrete_gradient(q: Field, ops: AssembledOperators) -> Field:
    """Discrete gradient: mass-solve of (grad_h q, v) = -(q, div v).

    The result lies in V-perp exactly (up to the mass solve) because
    (grad_h q, w) = -(q, div w) = 0 for discretely divergence-free w.
    """
    if q.kind != "pressure":
        raise ValueError("discrete_gradient expects a pressure Field")
    rhs = -(ops.B_free.T @ q.coeffs)
    w_free = ops.mass_free_lu().solve(rhs)
    return Field("velocity", _full_velocity(ops, w_free))


def velocity_at_qp(u_coeffs: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Velocity values at all quadrature points, shape (n_tri, nq, 2)."""
    if "phi_qp" not in ops._cache:
        ops._cache["phi_qp"] = _p2_values(QUAD_POINTS)
    phi = ops._cache["phi_qp"]
    u_loc = u_coeffs.reshape(-1, 2)[ops.space_v.scalar_l2g]
    return np.einsum("iq,tic->tqc", phi, u_loc)


def velocity_load_vector(values_at_qp: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Assemble (f, xi) for a vector function given at quadrature points.

    Returns the full-length dof vector; restrict with ops.free for the
    zero-trace test space.
    """
    if "phi_qp" not in ops._cache:
        ops._cache["phi_qp"] = _p2_values(QUAD_POINTS)
    phi = ops._cache["phi_qp"]
    r_loc = np.einsum("tq,tqc,iq->tic", ops.qw, values_at_qp, phi)
    return np.bincount(
        ops.vel_l2g.ravel(),
        weights=r_loc.reshape(len(r_loc), -1).ravel(),
        minlength=ops.space_v.n_dofs,
    )


def _grad_table(ops: AssembledOperators) -> np.ndarray:
    """Contiguous (n_tri, 6, nq*2) view of the physical gradients, the
    layout the batched-matmul kernels below want."""
    if "grad_flat" not in ops._cache:
        nt, _, nq, _ = ops.grad_phys.shape
        ops._cache["grad_flat"] = np.ascontiguousarray(ops.grad_phys.reshape(nt, 6, nq * 2))
    return ops._cache["grad_flat"]


def sym_grad_at_qp(u_coeffs: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Symmetric gradient of a velocity field at all quadrature points,
    shape (n_tri, nq, 2, 2)."""
    nt, _, nq, _ = ops.grad_phys.shape
    u_loc = u_coeffs.reshape(-1, 2)[ops.space_v.scalar_l2g]  # (t, 6, 2)
    grad = (
        np.matmul(u_loc.transpose(0, 2, 1), _grad_table(ops))
        .reshape(nt, 2, nq, 2)
        .transpose(0, 2, 1, 3)
    )
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


def divergence_pointwise_max(v: Field, ops: AssembledOperators) -> float:
    """Max |div v| over all element quadrature points."""
    nodes = ops.space_v.scalar_l2g
    u_loc = v.coeffs.reshape(-1, 2)[nodes]
    div = np.einsum("tic,tiqc->tq", u_loc, ops.grad_phys)
    return float(np.max(np.abs(div)))


def norms(v: Field, kind: str, ops: AssembledOperators, p: float | None = None) -> float:
    """Field norms: L2 (mass form), Lp_of_sym_grad (quadrature), Linf_div."""
    if kind == "L2":
        M = ops.M_full if v.kind == "velocity" else ops.Mq
        return float(np.sqrt(max(v.coeffs @ (M @ v.coeffs), 0.0)))
    if kind == "Lp_of_sym_grad":
        if p is None:
            raise ValueError("Lp_of_sym_grad needs the exponent p")
        return sym_grad_p_power(v.coeffs, ops, p) ** (1.0 / p)
    if kind == "Linf_div":
        return divergence_pointwise_max(v, ops)
    raise ValueError(f"unknown norm kind {kind!r}")


def sym_grad_p_power(u_coeffs: np.ndarray, ops: AssembledOperators, p: float) -> float:
    """int |eps u|^p by quadrature (the p-th power, not the norm)."""
    eps = sym_grad_at_qp(u_coeffs, ops)
    mag = np.sqrt(np.einsum("tqcd,tqcd->tq", eps, eps))
    return float(np.einsum("tq,tq->", ops.qw, mag**p))


def pressure_lp_norm(q: Field, ops: AssembledOperators, p: float) -> float:
    """L^p norm of a pressure field by quadrature."""
    vals = _pressure_at_qp(q.coeffs, ops)
    return float(np.einsum("tq,tq->", ops.qw, np.abs(vals) ** p) ** (1.0 / p))


def _pressure_at_qp(q_coeffs: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    p1 = _p1_values(QUAD_POINTS)
    return np.einsum("ti,iq->tq", q_coeffs.reshape(-1, 3), p1)


def interpolate_velocity(
    fn: Callable[[np.ndarray], np.ndarray],
    ops: AssembledOperators,
    zero_boundary: bool = True,
) -> Field:
    """Nodal P2 interpolation of a vector field.

    With zero_boundary (the default) boundary nodes are masked to zero so
    the result lies in the zero-trace space; for data that already
    vanishes on the boundary this is the plain interpolant.  Pass False
    to interpolate free-slip data for norm checks only.
    """
    vals = np.asarray(fn(ops.space_v.node_coords), dtype=float)
    if zero_boundary:
        vals = vals.copy()
        vals[ops.space_v.boundary_node] = 0.0
    return Field("velocity", vals.ravel())


def stress_residual_vector(
    u_coeffs: np.ndarray, ops: AssembledOperators, params: PowerLawParams
) -> np.ndarray:
    """Assembled nonlinear form (S(eps u), eps xi) over free dofs."""
    nt, _, nq, _ = ops.grad_phys.shape
    eps = sym_grad_at_qp(u_coeffs, ops)
    S = stress_S(eps, params)
    # the (q,c)/(q,d) axis pairing below is valid because S is symmetric
    Sw = (ops.qw[..., None, None] * S).reshape(nt, nq * 2, 2)
    r_loc = np.matmul(_grad_table(ops), Sw)  # (t, 6, 2)
    flat = np.bincount(
        ops.vel_l2g.ravel(),
        weights=r_loc.reshape(nt, -1).ravel(),
        minlength=ops.space_v.n_dofs,
    )
    return flat[ops.free]


def _sym_basis_tables(ops: AssembledOperators) -> tuple[np.ndarray, np.ndarray]:
    """Per-element tables for the stress tangent:

    E[t, q, a, :] = eps(phi_a) at quadrature point q flattened to 4
    entries, and EE[t, q, a*12+b] = eps(phi_a) : eps(phi_b); a runs over
    the 12 local vector dofs, ordered like vel_l2g.
    """
    if "sym_basis" in ops._cache:
        return ops._cache["sym_basis"]
    n_tri, _, nq, _ = ops.grad_phys.shape
    E = np.zeros((n_tri, 12, nq, 2, 2))
    for i in range(6):
        for c in range(2):
            a = 2 * i + c
            E[:, a, :, c, :] += 0.5 * ops.grad_phys[:, i]
            E[:, a, :, :, c] += 0.5 * ops.grad_phys[:, i]
    EE = np.einsum("taqcd,tbqcd->tqab", E, E).reshape(n_tri, nq, 144)
    E = np.ascontiguousarray(E.transpose(0, 2, 1, 3, 4).reshape(n_tri, nq, 12, 4))
    ops._cache["sym_basis"] = (E, np.ascontiguousarray(EE))
    return ops._cache["sym_basis"]


def _tangent_sparsity(ops: AssembledOperators):
    """Fixed CSC pattern of the stress tangent on free dofs, plus the
    map from per-element dense blocks into the CSC data array."""
    if "tangent_pattern" in ops._cache:
        return ops._cache["tangent_pattern"]
    rows = np.repeat(ops.vel_l2g, 12, axis=1).ravel()
    cols = np.tile(ops.vel_l2g, (1, 12)).ravel()
    free = ops.free
    nf = ops.n_free
    free_index = np.cumsum(free) - 1
    keep = free[rows] & free[cols]
    r_f = free_index[rows[keep]]
    c_f = free_index[cols[keep]]
    pattern = sp.csc_matrix((np.ones(r_f.size), (r_f, c_f)), shape=(nf, nf))
    pattern.sum_duplicates()
    # flat CSC data index of each surviving per-element entry
    lookup = pattern.copy()
    lookup.data = np.arange(lookup.nnz, dtype=float)
    pos = np.asarray(lookup[r_f, c_f]).ravel().astype(np.int64)
    ops._cache["tangent_pattern"] = (pattern, keep, pos)
    return ops._cache["tangent_pattern"]


def stress_tangent_matrix(
    u_coeffs: np.ndarray,
    ops: AssembledOperators,
    params: PowerLawParams,
    picard: bool = False,
) -> sp.csc_matrix:
    """Linearization of the stress form on free dofs.

    Newton: (DS(eps u)[eps phi_b], eps phi_a); Picard drops the rank-one
    part and keeps the radial weight only.
    """
    nt, _, nq, _ = ops.grad_phys.shape
    eps = sym_grad_at_qp(u_coeffs, ops)
    alpha, beta = jacobian_coefficients(eps, params)
    E, EE = _sym_basis_tables(ops)
    wa = (ops.qw * alpha)[:, None, :]  # (t, 1, q)
    K_loc = np.matmul(wa, EE).reshape(nt, 12, 12)
    if not picard:
        w = np.matmul(E, eps.reshape(nt, nq, 4, 1))[..., 0]  # (t, q, 12)
        wb = w * (ops.qw * beta)[..., None]
        K_loc += np.matmul(w.transpose(0, 2, 1), wb)
    pattern, keep, pos = _tangent_sparsity(ops)
    K = pattern.copy()
    K.data = np.zeros(pattern.nnz)
    np.add.at(K.data, pos, K_loc.ravel()[keep])
    return K


class StructuredLocator:
    """Point location for Alfeld splits of the structured square mesh.

    Locates the containing element analytically: grid cell, diagonal
    side, then the barycentric sector of the Alfeld child.  Points on
    internal edges resolve to either neighbor; the fields evaluated
    through this locator are continuous across those edges.
    """

    def __init__(self, ops: AssembledOperators, m: int):
        self.ops = ops
        self.m = m
        mesh = ops.space_v.mesh
        if mesh.n_triangles != 6 * m * m:
            raise ValueError("locator expects alfeld_split(unit_square_mesh(m))")
        corners = mesh.corners()
        jac = np.stack(
            [corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=2
        )
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        self._inv = inv / det[:, None, None]
        self._origin = corners[:, 0]

    def locate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Containing triangle index and reference coordinates per point."""
        pts = np.asarray(points, dtype=float)
        m = self.m
        scaled = np.clip(pts * m, 0.0, m * (1.0 - 1e-15))
        ij = np.minimum(scaled.astype(int), m - 1)
        local = scaled - ij
        lower = local[:, 1] <= local[:, 0] + 1e-14
        parent = 2 * (ij[:, 1] * m + ij[:, 0]) + (~lower).astype(int)
        # Barycentric coordinates within the parent right triangle.
        lam = np.empty((len(pts), 3))
        x, y = local[:, 0], local[:, 1]
        lam[lower, 0] = 1.0 - x[lower]
        lam[lower, 1] = x[lower] - y[lower]
        lam[lower, 2] = y[lower]
        up = ~lower
        lam[up, 0] = 1.0 - y[up]
        lam[up, 1] = x[up]
        lam[up, 2] = y[up] - x[up]
        child = (np.argmin(lam, axis=1) + 1) % 3
        tri = 3 * parent + child
        ref = np.einsum(
            "ncd,nd->nc", self._inv[tri], pts - self._origin[tri]
        )
        return tri, ref

    def evaluate(self, u_coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Velocity field values at arbitrary points, shape (n_pts, 2)."""
        tri, ref = self.locate(points)
        phi = _p2_values(ref)  # (6, n_pts)
        nodes = self.ops.space_v.scalar_l2g[tri]  # (n_pts, 6)
        u_loc = u_coeffs.reshape(-1, 2)[nodes]  # (n_pts, 6, 2)
        return np.einsum("in,nic->nc", phi, u_loc)

    def evaluate_sym_grad(self, u_coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Symmetric gradient at arbitrary points, shape (n_pts, 2, 2)."""
        tri, ref = self.locate(points)
        grad_ref = _p2_gradients(ref)  # (6, n_pts, 2)
        mesh = self.ops.space_v.mesh
        corners = mesh.corners()[tri]
        jac = np.stack(
            [corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=2
        )
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv_t = np.empty_like(jac)
        inv_t[:, 0, 0] = jac[:, 1, 1]
        inv_t[:, 0, 1] = -jac[:, 1, 0]
        inv_t[:, 1, 0] = -jac[:, 0, 1]
        inv_t[:, 1, 1] = jac[:, 0, 0]
        inv_t /= det[:, None, None]
        grad_phys = np.einsum("ncd,ind->nic", inv_t, grad_ref)
        nodes = self.ops.space_v.scalar_l2g[tri]
        u_loc = u_coeffs.reshape(-1, 2)[nodes]
        grad = np.einsum("nic,nid->ncd", u_loc, grad_phys)
        return 0.5 * (grad + np.swapaxes(grad, -1, -2))


def infsup_witness(ops: AssembledOperators) -> float:
    """Smallest nonzero singular value of the mass-scaled Schur complement.

    beta^2 is the second-smallest eigenvalue of B M^-1 B^T q = mu Mq q
    (the smallest is 0 on constants); beta bounded away from 0 across a
    mesh ladder witnesses the discrete inf-sup condition on the L2 pair.
    """
    import scipy.linalg as la

    lu = ops.mass_free_lu()
    cols = lu.solve(ops.B_free.T.toarray())
    S = ops.B_free @ cols
    Mq = ops.Mq.toarray()
    vals = la.eigh(0.5 * (S + S.T), Mq, eigvals_only=True)
    return float(np.sqrt(max(vals[1], 0.0)))
