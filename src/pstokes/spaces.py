"""Scott-Vogelius velocity/pressure pair and all assembled operators.

Velocity space: continuous vector-valued quadratic Lagrange elements with
zero boundary trace, on an Alfeld-split triangulation.  Pressure space:
discontinuous linears (3 dofs per triangle) with the global mean-zero
constraint.  On Alfeld splits this pair is inf-sup stable and div V_h is
contained in the pressure space, which makes the discrete divergence
constraint pointwise exact: the velocity iterates returned by the saddle
solves are exactly divergence free up to solver tolerance.

Conventions: scalar velocity node k is a vertex (k < n_vertices) or the
midpoint of edge k - n_vertices; vector dof = 2 * node + component.
Pressure dof = 3 * triangle + local vertex.  All quadrature is a 6-point
degree-4 rule, exact for every polynomial integrand appearing in the
bilinear forms (P2 x P2 products); the non-polynomial stress integrands
inherit a quadrature error that is absorbed into solver tolerances.

Everything derived from the mesh has one owner.  `assemble` computes the
affine element maps once (`AssembledOperators.inv_t`).  The operator
bundle builds its factorizations (`mass_free_lu`, `projection_saddle`,
`grad_stiffness_lu`) and tables (`grad_table`, `sym_basis`,
`tangent_pattern`, `grad_stiffness`, `locator`) on first use and keeps
them; `pstokes.streamfunc` fills `stream_basis`.
The `locator` only locates points; `point_evaluation` turns one located
point set into sparse value and gradient matrices of the velocity space,
which evaluate a whole stack of fields there in one product (the
cross-mesh transfer of `pstokes.diagnostics`).  `SaddleSolver` alone
knows the layout of the KKT system: callers hand it velocity-block
right-hand sides, one column or many, and get the velocity and the
mean-zero pressure back.  It serves the projections
(`project_div`, the pressure solves of `pstokes.pressure`, the
divergence projections of `pstokes.diagnostics`); the time stepper
solves in the divergence-free basis of `pstokes.streamfunc` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
    "grad_at_qp",
    "sym_grad_at_qp",
    "sym_grad_p_power",
    "stress_residual_vector",
    "stress_tangent_matrix",
    "StructuredLocator",
    "PointEvaluation",
    "point_evaluation",
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


# Basis values at the quadrature points: mesh independent, so computed once.
_P2_QP = _p2_values(QUAD_POINTS)  # (6, nq)
_P1_QP = _p1_values(QUAD_POINTS)  # (3, nq)


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
    inv_t holds the inverse transposed Jacobian of every affine element
    map, and grad_phys the physical P2 gradients at all quadrature
    points, the only geometry-dependent table the nonlinear assembly
    needs.

    Derived data is built on first use and kept for the life of the
    bundle, each piece under its own name: the factorizations
    `mass_free_lu()`, `projection_saddle()` and `grad_stiffness_lu()`;
    the tables `grad_table`, `sym_basis`, `tangent_pattern` and
    `grad_stiffness`; the point `locator` of structured meshes; and
    `stream_basis`, which `pstokes.streamfunc` fills.
    Only `SaddleSolver` knows the layout of the KKT system.
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
    inv_t: np.ndarray  # (n_tri, 2, 2) inverse transpose of the affine map
    grad_phys: np.ndarray  # (n_tri, 6, nq, 2)
    vel_l2g: np.ndarray  # (n_tri, 12) velocity dof per local basis
    params: PowerLawParams | None = None
    # Curl basis C (free velocity dofs x stream dofs) of the divergence-
    # free subspace, built by pstokes.streamfunc.stream_curl_basis.
    stream_basis: sp.csc_matrix | None = field(default=None, init=False, repr=False)
    _mass_free_lu: spla.SuperLU | None = field(default=None, init=False, repr=False)
    _projection_saddle: SaddleSolver | None = field(default=None, init=False, repr=False)
    _grad_stiffness_lu: spla.SuperLU | None = field(default=None, init=False, repr=False)

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

    def mass_free_lu(self) -> spla.SuperLU:
        """LU factors of the velocity mass matrix on free dofs."""
        if self._mass_free_lu is None:
            self._mass_free_lu = spla.splu(self.M_free)
        return self._mass_free_lu

    def projection_saddle(self) -> SaddleSolver:
        """The saddle operator with the mass block: its velocity solution
        is the L2 projection onto the divergence-free subspace, its
        multiplier the V-perp pressure."""
        if self._projection_saddle is None:
            self._projection_saddle = SaddleSolver(self.M_free, self)
        return self._projection_saddle

    def grad_stiffness_lu(self) -> spla.SuperLU:
        """LU factors of `grad_stiffness`, for norm ascent solves."""
        if self._grad_stiffness_lu is None:
            self._grad_stiffness_lu = spla.splu(self.grad_stiffness)
        return self._grad_stiffness_lu

    # -- tables, built on first use --

    @cached_property
    def grad_stiffness(self) -> sp.csc_matrix:
        """Full-gradient stiffness (grad v, grad xi) on free dofs."""
        ee = np.einsum("tiqc,tjqc->tqij", self.grad_phys, self.grad_phys)
        loc = np.einsum("tq,tqij->tij", self.qw, ee)
        K = _vector_matrix(self.space_v, loc)
        return K[self.free][:, self.free].tocsc()

    @cached_property
    def grad_table(self) -> np.ndarray:
        """Contiguous (n_tri, 6, nq*2) view of the physical gradients, the
        layout the batched-matmul kernels want."""
        nt, _, nq, _ = self.grad_phys.shape
        return np.ascontiguousarray(self.grad_phys.reshape(nt, 6, nq * 2))

    @cached_property
    def sym_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-element tables for the stress tangent:

        E[t, q, a, :] = eps(phi_a) at quadrature point q flattened to 4
        entries, and EE[t, q, a*12+b] = eps(phi_a) : eps(phi_b); a runs
        over the 12 local vector dofs, ordered like vel_l2g.
        """
        n_tri, _, nq, _ = self.grad_phys.shape
        E = np.zeros((n_tri, 12, nq, 2, 2))
        for i in range(6):
            for c in range(2):
                a = 2 * i + c
                E[:, a, :, c, :] += 0.5 * self.grad_phys[:, i]
                E[:, a, :, :, c] += 0.5 * self.grad_phys[:, i]
        EE = np.einsum("taqcd,tbqcd->tqab", E, E).reshape(n_tri, nq, 144)
        E = np.ascontiguousarray(E.transpose(0, 2, 1, 3, 4).reshape(n_tri, nq, 12, 4))
        return E, np.ascontiguousarray(EE)

    @cached_property
    def tangent_pattern(self) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
        """Fixed CSC pattern of the stress tangent on free dofs, the mask
        of per-element entries that touch only free dofs, and the map from
        those entries into the CSC data array."""
        rows = np.repeat(self.vel_l2g, 12, axis=1).ravel()
        cols = np.tile(self.vel_l2g, (1, 12)).ravel()
        free = self.free
        nf = self.n_free
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
        return pattern, keep, pos

    @cached_property
    def locator(self) -> StructuredLocator:
        """Point location on alfeld_split(unit_square_mesh(m)); raises
        ValueError on any other mesh."""
        return StructuredLocator(self)


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


def _vector_matrix(space_v: VelocitySpace, loc: np.ndarray) -> sp.csr_matrix:
    """Scatter per-element scalar P2 blocks (n_tri, 6, 6) into the global
    scalar matrix and expand it to both velocity components."""
    n = space_v.n_nodes
    rows = np.repeat(space_v.scalar_l2g, 6, axis=1).ravel()
    cols = np.tile(space_v.scalar_l2g, (1, 6)).ravel()
    K = sp.coo_matrix((loc.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return sp.kron(K, sp.eye(2), format="csr")


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

    grad_ref = _p2_gradients(QUAD_POINTS)  # (6, nq, 2)
    grad_phys = np.einsum("tcd,iqd->tiqc", inv_t, grad_ref)

    # Scalar P2 mass, expanded to the vector space by Kronecker product.
    m_loc = np.einsum("q,iq,jq->ij", QUAD_WEIGHTS, _P2_QP, _P2_QP)
    M_full = _vector_matrix(space_v, det[:, None, None] * m_loc[None])

    # Divergence form B[(t,i), (j,c)] = int lambda_i d_c phi_j.
    b_loc = np.einsum("tq,iq,tjqc->tijc", qw, _P1_QP, grad_phys)  # (t, 3, 6, 2)
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
        shape=(3 * n_tri, space_v.n_dofs),
    ).tocsr()

    # Discontinuous-P1 pressure mass (block diagonal) and mean row.
    mq_loc = np.einsum("tq,iq,jq->tij", qw, _P1_QP, _P1_QP)
    q_rows = np.repeat(3 * np.arange(n_tri)[:, None] + np.arange(3)[None], 3, axis=1)
    q_cols = np.tile(3 * np.arange(n_tri)[:, None, None] + np.arange(3)[None, None], (1, 3, 1))
    Mq = sp.coo_matrix(
        (mq_loc.ravel(), (q_rows.ravel(), q_cols.ravel())),
        shape=(3 * n_tri, 3 * n_tri),
    ).tocsr()
    cvec = np.einsum("tq,iq->ti", qw, _P1_QP).ravel()

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
        inv_t=inv_t,
        grad_phys=grad_phys,
        vel_l2g=vel_l2g,
        params=params,
    )


class SaddleSolver:
    """Direct solver for the KKT operator

        [ A   -B^T   0 ] [ w  ]   [ rhs_v ]
        [ B    0     c ] [ q  ] = [   0   ]
        [ 0   c^T    0 ] [ mu ]   [   0   ]

    with A an SPD velocity block on free dofs, B the divergence form, and
    c the pressure-mean row that removes the constant nullspace: w is the
    A-orthogonal projection of A^{-1} rhs_v onto the discretely
    divergence-free subspace and q the mean-zero pressure with
    A w - B^T q = rhs_v.  The projections of `project_div` and the
    pressure solves of `pstokes.pressure` are of this form.  This class
    is the only code that knows how the blocks are laid out.

    The dense row and column c would ruin the fill of the sparse LU, so
    they are not factored.  The pair is inf-sup stable on the Alfeld
    split, so the kernel of B^T is exactly the constant pressures:
    1^T B = 0, and any one row of B is fixed by the others.  The factored
    matrix (`.lu`) is therefore

        [ A   -B'^T ]
        [ B'    0   ]

    with B' the rows of B without the last pressure dof, which is pinned
    to zero; the multiplier mu vanishes, and `solve` shifts q by a
    constant so that c^T q = 0.
    """

    def __init__(self, A: sp.spmatrix, ops: AssembledOperators):
        B_pinned = ops.B_free[:-1]
        K = sp.bmat([[A, -B_pinned.T], [B_pinned, None]], format="csc")
        self.n_free = ops.n_free
        self.n_pressure = ops.n_pressure
        self.cvec = ops.cvec
        self.lu = spla.splu(K)

    def solve(self, rhs_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve for (w, q).  rhs_v has shape (n_free,) or, to solve for
        k right-hand sides at once, (n_free, k); w and q then carry the
        same trailing axis.  Raises FloatingPointError if the solution
        is not finite."""
        nf, c = self.n_free, self.cvec
        tail = np.shape(rhs_v)[1:]
        rhs = np.zeros((nf + self.n_pressure - 1,) + tail)
        rhs[:nf] = rhs_v
        sol = self.lu.solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise FloatingPointError("saddle solve produced non-finite values")
        q = np.zeros((self.n_pressure,) + tail)
        q[:-1] = sol[nf:]
        q -= (c @ q) / c.sum()
        return sol[:nf], q


def _full_velocity(ops: AssembledOperators, free_values: np.ndarray) -> np.ndarray:
    """Full-length coefficients (boundary entries zero) from free-dof
    values of shape (n_free,) or (n_free, k)."""
    out = np.zeros((ops.space_v.n_dofs,) + free_values.shape[1:])
    out[ops.free] = free_values
    return out


def project_div(v: Field, ops: AssembledOperators) -> Field:
    """L2 projection onto the discretely divergence-free subspace."""
    if v.kind != "velocity":
        raise ValueError("project_div expects a velocity Field")
    rhs_v = (ops.M_full @ v.coeffs)[ops.free]
    w_free, _ = ops.projection_saddle().solve(rhs_v)
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
    u_loc = u_coeffs.reshape(-1, 2)[ops.space_v.scalar_l2g]
    return np.einsum("iq,tic->tqc", _P2_QP, u_loc)


def velocity_load_vector(values_at_qp: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Assemble (f, xi) for a vector function given at quadrature points.

    Returns the full-length dof vector; restrict with ops.free for the
    zero-trace test space.
    """
    r_loc = np.einsum("tq,tqc,iq->tic", ops.qw, values_at_qp, _P2_QP)
    return np.bincount(
        ops.vel_l2g.ravel(),
        weights=r_loc.reshape(len(r_loc), -1).ravel(),
        minlength=ops.space_v.n_dofs,
    )


def grad_at_qp(u_coeffs: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Full gradient of a velocity field at all quadrature points,
    shape (n_tri, nq, 2, 2), entry [..., c, d] = d_d u_c."""
    nt, _, nq, _ = ops.grad_phys.shape
    u_loc = u_coeffs.reshape(-1, 2)[ops.space_v.scalar_l2g]  # (t, 6, 2)
    return (
        np.matmul(u_loc.transpose(0, 2, 1), ops.grad_table)
        .reshape(nt, 2, nq, 2)
        .transpose(0, 2, 1, 3)
    )


def sym_grad_at_qp(u_coeffs: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Symmetric gradient of a velocity field at all quadrature points,
    shape (n_tri, nq, 2, 2)."""
    grad = grad_at_qp(u_coeffs, ops)
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


def divergence_pointwise_max(v: Field, ops: AssembledOperators) -> float:
    """Max |div v| over all element quadrature points."""
    grad = grad_at_qp(v.coeffs, ops)
    return float(np.max(np.abs(grad[..., 0, 0] + grad[..., 1, 1])))


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
    return np.einsum("ti,iq->tq", q_coeffs.reshape(-1, 3), _P1_QP)


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
    r_loc = np.matmul(ops.grad_table, Sw)  # (t, 6, 2)
    flat = np.bincount(
        ops.vel_l2g.ravel(),
        weights=r_loc.reshape(nt, -1).ravel(),
        minlength=ops.space_v.n_dofs,
    )
    return flat[ops.free]


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
    E, EE = ops.sym_basis
    wa = (ops.qw * alpha)[:, None, :]  # (t, 1, q)
    K_loc = np.matmul(wa, EE).reshape(nt, 12, 12)
    if not picard:
        w = np.matmul(E, eps.reshape(nt, nq, 4, 1))[..., 0]  # (t, q, 12)
        wb = w * (ops.qw * beta)[..., None]
        K_loc += np.matmul(w.transpose(0, 2, 1), wb)
    pattern, keep, pos = ops.tangent_pattern
    K = pattern.copy()
    K.data = np.zeros(pattern.nnz)
    np.add.at(K.data, pos, K_loc.ravel()[keep])
    return K


class StructuredLocator:
    """Point location for Alfeld splits of the structured square mesh.

    Locates the containing element analytically: grid cell, diagonal
    side, then the barycentric sector of the Alfeld child.  It only
    locates; `point_evaluation` turns the located points into evaluation
    matrices.  Points on internal edges resolve to either neighbor; the
    velocity fields evaluated there are continuous across those edges.
    The mesh order m is the one `unit_square_mesh` recorded on the mesh;
    a mesh without it (for example one rebuilt from moved vertices) is
    refused, since the analytic search would silently pick wrong
    elements there.
    """

    def __init__(self, ops: AssembledOperators):
        mesh = ops.space_v.mesh
        m = mesh.square_order
        if m is None or mesh.n_triangles != 6 * m * m:
            raise ValueError("locator expects alfeld_split(unit_square_mesh(m))")
        self.ops = ops
        self.m = m
        self._origin = mesh.corners()[:, 0]

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
        # reference coordinates: the inverse map is the transpose of inv_t
        ref = np.einsum("ndc,nd->nc", self.ops.inv_t[tri], pts - self._origin[tri])
        return tri, ref


@dataclass(frozen=True)
class PointEvaluation:
    """P2 evaluation at a fixed point set, as three sparse scalar matrices
    of shape (n_points, n_nodes): P holds the basis values at the points,
    Gx and Gy the physical x- and y-derivatives of the basis.  Applied to
    a stack of velocity coefficient rows (k, n_dofs), one sparse product
    per matrix evaluates every row at once."""

    P: sp.csr_matrix
    Gx: sp.csr_matrix
    Gy: sp.csr_matrix

    def _apply(self, mat: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
        """mat applied to both components of (k, n_dofs) coefficient rows
        at once, as (k, n_points, 2)."""
        k = len(rows)
        nodal = rows.reshape(k, -1, 2).transpose(1, 0, 2).reshape(-1, 2 * k)
        return (mat @ nodal).reshape(-1, k, 2).transpose(1, 0, 2)

    def values(self, rows: np.ndarray) -> np.ndarray:
        """Velocity values at the points, shape (k, n_points, 2)."""
        return self._apply(self.P, rows)

    def sym_grad(self, rows: np.ndarray) -> np.ndarray:
        """Symmetric gradients at the points, shape (k, n_points, 2, 2)."""
        grad = np.empty((len(rows), self.P.shape[0], 2, 2))  # [..., c, d] = d_d u_c
        grad[..., 0] = self._apply(self.Gx, rows)
        grad[..., 1] = self._apply(self.Gy, rows)
        grad[..., 0, 1] = grad[..., 1, 0] = 0.5 * (grad[..., 0, 1] + grad[..., 1, 0])
        return grad


def point_evaluation(ops: AssembledOperators, points: np.ndarray) -> PointEvaluation:
    """The evaluation operator of the velocity space of `ops` at `points`
    (n_points, 2): one point location, then the P2 basis values and
    physical gradients of each containing element."""
    tri, ref = ops.locator.locate(points)
    row_starts = np.arange(0, 6 * len(tri) + 1, 6)  # six basis functions per point
    cols = ops.space_v.scalar_l2g[tri].ravel()
    # physical basis gradients (n, 6, 2): the reference ones mapped by inv_t
    grad = _p2_gradients(ref).transpose(1, 0, 2) @ ops.inv_t[tri].transpose(0, 2, 1)
    shape = (len(tri), ops.space_v.n_nodes)

    def matrix(data: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((data.ravel(), cols, row_starts), shape=shape)

    return PointEvaluation(
        P=matrix(_p2_values(ref).T), Gx=matrix(grad[..., 0]), Gy=matrix(grad[..., 1])
    )


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
