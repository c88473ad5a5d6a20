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
affine element maps once (`AssembledOperators.inv_t`) and the evaluation
operators at the mesh's own quadrature points: `qp_eval` for the P2
velocity and `P` for the discontinuous P1 pressure.  Every linear form
is a quadrature product of these two, A^T W B with W the weight of each
row's point: the mass `M_full`, the divergence `B_full`, the pressure
mass `Mq`, the mean row `cvec`, `grad_stiffness` and
`sym_grad_stiffness`.  Every load (f, xi) is `velocity_load_vector` of
the values of f at the points, for one field or a stack of them.  The
weights W have one owner as well: other modules read them through
`qp_weights`, the weight of each entry of a field at the points, and
`lp_norm`, the quadrature L^p norm of one pointwise magnitude or of
several.  The operator bundle owns every table and factorization
derived from the mesh, each a cached property built on first read (the
stream basis by the build functions of `pstokes.streamfunc`);
`projection_saddle()` alone stays a method.  No other module assigns to
the bundle.
The stress tangent is assembled element by element in a basis local to
elements, an `ElementBasis` built once by `element_basis`: the symmetric
gradients of its functions at the quadrature points, one table per
group of blocks that agree up to the scale of each column, and the
position of every element entry in the tangent's fixed sparsity
pattern, into which one `np.bincount` adds them.  The same tables give
the stress form of a field given by its coefficients in the basis
(`element_stress_vector`).  The free velocity dofs are the identity
element basis (`free_element_basis`); `pstokes.streamfunc` builds the
one of the stream basis (`stream_element_basis`), in which the stepper
evaluates its Newton residuals and assembles its reduced tangents
C^T K C directly.
A P2 field is evaluated one way only, by a `PointEvaluation`: sparse
value and gradient matrices that evaluate a stack of fields into a
C-contiguous stack, one product per field.  The quadrature kernels
apply or transpose `qp_eval`; `point_evaluation` builds one at points the `locator` located (the
cross-mesh transfer of `pstokes.diagnostics`).  One function,
`_physical_gradients`, maps reference basis gradients to physical ones,
for the evaluation operators and the element tables of the stress
tangent alike.  `SaddleSolver` solves the saddle problem with the
mass block, the only block it takes: callers hand it velocity-block
right-hand sides, one column or many, and get the velocity and the
mean-zero pressure back.  No KKT matrix is formed.  The velocity is a
solve in the divergence-free basis of `pstokes.streamfunc`, the basis
the time stepper solves in too, and the pressure is recovered
macro-element by macro-element, because on the Alfeld split the
divergence maps the velocities interior to a macro-element one to one
onto its mean-zero pressures; those velocities are read from the
Alfeld layout the mesh checks (`meshing.TriMesh`).  It serves the
projections (`project_div`, the pressure solves of `pstokes.pressure`,
the divergence projections of `pstokes.diagnostics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pstokes.meshing import TriMesh
from pstokes.tensors import PowerLawParams, jacobian_coefficients, stress_S, unit_direction

__all__ = [
    "QUAD_POINTS",
    "QUAD_WEIGHTS",
    "SPD_SPLU",
    "Field",
    "VelocitySpace",
    "AssembledOperators",
    "assemble",
    "SaddleSolver",
    "project_div",
    "project_perp",
    "discrete_gradient",
    "divergence_pointwise_max",
    "l2_norm",
    "qp_weights",
    "lp_norm",
    "interpolate_velocity",
    "velocity_at_qp",
    "velocity_load_vector",
    "grad_at_qp",
    "sym_grad_at_qp",
    "stress_residual_vector",
    "stress_tangent_matrix",
    "element_stress_vector",
    "ElementBasis",
    "element_basis",
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

# The keywords of `spla.splu` for every symmetric positive definite
# system of the scheme: the free-dof mass and stiffness, C^T M C, the
# constants' normal equations G^T G, and the stepper's Newton, Kacanov
# and p = 2 matrices C^T (M + tau K) C, SPD for every p > 1 and kappa >= 0
# since S is the gradient of a convex potential.  The columns are
# ordered by symmetric minimum degree on A^T + A and every pivot is
# taken on the diagonal (threshold 0), which for an SPD matrix is as
# stable as Cholesky (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 10), so the fill depends on the pattern alone.  Under
# SuperLU's default threshold 1 the factorization still pivots for
# size, and its off-diagonal pivots break the symmetric structure.  At
# m = 16 every stream-basis factor holds 120k L+U non-zeros this way,
# against 124k-146k under the default column ordering COLAMD.
SPD_SPLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


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


def _own_points(n_tri: int) -> tuple[np.ndarray, np.ndarray]:
    """Containing element and reference coordinates of every quadrature
    point of a mesh with n_tri elements, in the order of qp_x: point k
    is quadrature point k % nq of element k // nq."""
    return np.repeat(np.arange(n_tri), N_QP), np.tile(QUAD_POINTS, (n_tri, 1))


def _physical_gradients(inv_t: np.ndarray, tri: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Physical P2 basis gradients at points with containing elements
    `tri` and reference coordinates `ref` (n, 2), shape (n, 2, 6), entry
    [k, d, i] = d_d phi_i: the reference gradients mapped by inv_t."""
    return inv_t[tri] @ _p2_gradients(ref).transpose(1, 2, 0)


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

    @cached_property
    def free_mask(self) -> np.ndarray:
        """Read-only mask of the interior (zero-trace) vector dofs."""
        mask = ~np.repeat(self.boundary_node, 2)
        mask.flags.writeable = False
        return mask

    @cached_property
    def n_free(self) -> int:
        return int(self.free_mask.sum())


@dataclass
class AssembledOperators:
    """Everything the steppers and reconstructions consume.

    Matrices live in CSR/CSC; `free` marks the interior velocity dofs.
    inv_t holds the inverse transposed Jacobian of every affine element
    map.  qp_eval (P2 velocity) and P (discontinuous P1 pressure)
    evaluate at the quadrature points qp_x, point k being quadrature
    point k % nq of element k // nq; every matrix here is a product
    A^T W B of them, W the weights qw of each row's point.

    Derived data is a cached property, built on first read and kept
    for the life of the bundle: the factorizations `mass_free_lu` and
    `grad_stiffness_lu`; the tables `grad_stiffness`,
    `sym_grad_stiffness` and `free_element_basis`; the point `locator`
    of structured meshes; and the five `stream_*` tables of the stream
    basis, the factor of C^T M C (`stream_mass_lu`) among them.
    `projection_saddle()` alone is a method, over the private slot
    `_projection_saddle`, because benchmarks time it as one.

    `sym_grad_stiffness` is the stress form (eps u, eps xi) of p = 2,
    where S(A) = A for every kappa: there the stepper's stress column
    is one sparse product with it instead of a quadrature per step.
    `stream_basis_T` keeps C^T, a CSR view of the arrays of the CSC
    matrix C, because every C^T r of a step or a projection would
    otherwise build that view anew.  The two free-dof factorizations
    are of SPD matrices and follow the factor rule of every SPD system
    (`SPD_SPLU`): symmetric minimum degree on A^T + A with diagonal
    pivots.  The column ordering COLAMD, SuperLU's default, treats them
    as unsymmetric and leaves 3.6 times the fill at m = 16 (499k against
    139k L+U non-zeros for `M_free`).
    """

    space_v: VelocitySpace
    M_full: sp.csr_matrix
    M_free: sp.csc_matrix
    B_full: sp.csr_matrix
    B_free: sp.csc_matrix
    Mq: sp.csr_matrix
    cvec: np.ndarray
    qp_x: np.ndarray  # (n_tri, nq, 2) physical quadrature points
    qw: np.ndarray  # (n_tri, nq) physical weights
    inv_t: np.ndarray  # (n_tri, 2, 2) inverse transpose of the affine map
    qp_eval: PointEvaluation
    P: sp.csr_matrix  # (n_qp, n_pressure) pressure values at qp_x
    vel_l2g: np.ndarray  # (n_tri, 12) velocity dof per local basis
    _projection_saddle: SaddleSolver | None = field(default=None, init=False, repr=False)

    @property
    def free(self) -> np.ndarray:
        return self.space_v.free_mask

    @property
    def n_free(self) -> int:
        return self.space_v.n_free

    @property
    def n_pressure(self) -> int:
        return self.P.shape[1]

    # -- prefactored solvers, built on first use and reused everywhere --

    @cached_property
    def mass_free_lu(self) -> spla.SuperLU:
        """LU factors of the velocity mass matrix on free dofs."""
        return spla.splu(self.M_free, **SPD_SPLU)

    def projection_saddle(self) -> SaddleSolver:
        """The saddle solver with the mass block: its velocity solution
        is the L2 projection onto the divergence-free subspace, its
        multiplier the V-perp pressure.  Its reduced factor is that of
        C^T M C, the Gram matrix the stepper reads too."""
        if self._projection_saddle is None:
            self._projection_saddle = SaddleSolver(self)
        return self._projection_saddle

    @cached_property
    def grad_stiffness_lu(self) -> spla.SuperLU:
        """LU factors of `grad_stiffness`, for norm ascent solves."""
        return spla.splu(self.grad_stiffness, **SPD_SPLU)

    # -- tables, built on first use --

    @cached_property
    def grad_stiffness(self) -> sp.csc_matrix:
        """Full-gradient stiffness (grad v, grad xi) on free dofs."""
        K = _quadrature_form(self.qp_eval.G, self.qp_eval.G, self.qw)
        return K[self.free][:, self.free].tocsc()

    @cached_property
    def sym_grad_stiffness(self) -> sp.csr_matrix:
        """Symmetric-gradient stiffness (eps v, eps xi) on free dofs:
        (grad xi, eps v), eps v the mean of G and of G with the rows
        d_1 u_0 and d_0 u_1 of every point swapped."""
        G = self.qp_eval.G
        swap = np.arange(G.shape[0]).reshape(-1, 4)[:, [0, 2, 1, 3]].ravel()
        K = 0.5 * _quadrature_form(G, G + G[swap], self.qw)
        return K[self.free][:, self.free].tocsr()

    @cached_property
    def free_element_basis(self) -> ElementBasis:
        """The element tables of the stress tangent on the free velocity
        dofs: the identity element basis."""
        return element_basis(self, _free_local_dofs(self), sp.identity(self.n_free, format="csc"))

    @cached_property
    def stream_basis(self) -> sp.csc_matrix:
        """The curl basis C (free velocity dofs x stream dofs) of the
        divergence-free subspace.  streamfunc imports this module, so
        the stream tables import its build functions on use."""
        from pstokes.streamfunc import build_curl_basis

        return build_curl_basis(self)

    @cached_property
    def stream_basis_T(self) -> sp.csr_matrix:
        """C^T, a CSR view of the arrays of C."""
        return self.stream_basis.T

    @cached_property
    def stream_mass(self) -> sp.csc_matrix:
        """C^T M C, the mass block of every reduced system."""
        return (self.stream_basis_T @ (self.M_free @ self.stream_basis)).tocsc()

    @cached_property
    def stream_mass_lu(self) -> spla.SuperLU:
        """The factor of C^T M C: the projections' velocity solves
        (`SaddleSolver.lu`) and the start of each nonlinear step in the
        basis read it."""
        return spla.splu(self.stream_mass, **SPD_SPLU)

    @cached_property
    def stream_element_basis(self) -> ElementBasis:
        """The grouped element tables of the Newton residual and the
        stress tangent in the stream basis."""
        from pstokes.streamfunc import build_element_basis

        return build_element_basis(self)

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


def _quadrature_form(A: sp.csr_matrix, B: sp.csr_matrix, qw: np.ndarray) -> sp.csr_matrix:
    """A^T W B for two operators evaluating at the quadrature points
    with the same number of rows per point, W the weight of each row's
    point."""
    W = sp.diags(np.repeat(qw.ravel(), A.shape[0] // qw.size))
    return (A.T @ W @ B).tocsr()


def assemble(mesh: TriMesh) -> AssembledOperators:
    """Assemble the evaluation operators at the quadrature points and the
    mass, divergence, and pressure-mass matrices, their quadrature forms."""
    if mesh.parent is None:
        raise ValueError("velocity/pressure pair requires an Alfeld-split mesh")
    space_v = _build_velocity_space(mesh)
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

    # The containing elements of the quadrature points are known, so no
    # point is located and every mesh has both operators.
    tri, ref = _own_points(n_tri)
    qp_eval = _evaluation(space_v, inv_t, tri, ref)
    p_cols = (3 * tri[:, None] + np.arange(3)).ravel()
    P = sp.csr_matrix(
        (_p1_values(ref).T.ravel(), p_cols, np.arange(0, p_cols.size + 1, 3)),
        shape=(tri.size, 3 * n_tri),
    )

    M_full = _quadrature_form(qp_eval.V, qp_eval.V, qw)
    # B[(t,i), (j,c)] = int lambda_i d_c phi_j: rows 4k and 4k + 3 of G
    # are d_0 u_0 and d_1 u_1 at point k.
    B_full = _quadrature_form(P, qp_eval.G[0::4] + qp_eval.G[3::4], qw)
    Mq = _quadrature_form(P, P, qw)
    cvec = P.T @ qw.ravel()

    free = space_v.free_mask
    M_free = M_full[free][:, free].tocsc()
    B_free = B_full[:, free].tocsc()
    vel_l2g = (
        2 * np.repeat(space_v.scalar_l2g, 2, axis=1)
        + np.tile([0, 1], (n_tri, 6))
    )

    return AssembledOperators(
        space_v=space_v,
        M_full=M_full,
        M_free=M_free,
        B_full=B_full,
        B_free=B_free,
        Mq=Mq,
        cvec=cvec,
        qp_x=qp_x,
        qw=qw,
        inv_t=inv_t,
        qp_eval=qp_eval,
        P=P,
        vel_l2g=vel_l2g,
    )


# Smallest singular value of a macro-element's divergence block, relative
# to its largest, below which SaddleSolver refuses the mesh.
LOCAL_SV_RATIO = 1e-8
# Two local problems whose keys agree after rounding at this resolution
# are solved once.
_KEY_RESOLUTION = 1e-12


def _distinct_problems(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group a batch of n small local problems by everything their solve
    reads, so that each distinct problem is solved once.

    Each key has shape (n, ...), scaled by the caller so that rounding
    its entries at 1e-12 absolute is rounding at 1e-12 relative.
    Returns the representatives rep, the first member of each group in
    increasing order, and the inverse index (n,), so that the solution
    of problem i is that of problem rep[inverse[i]].  Where no two
    problems agree, rep = arange(n) and every problem is its own.
    """
    n = len(keys[0])
    flat = np.concatenate([k.reshape(n, int(np.prod(k.shape[1:]))) for k in keys], axis=1)
    _, first, inverse = np.unique(
        np.round(flat / _KEY_RESOLUTION), axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


class SaddleSolver:
    """Direct solver for the projection saddle problem

        M w - B^T q = rhs_v,    B w = 0,    c^T q = 0,

    with M the velocity mass matrix on free dofs, the only block it
    takes, B the divergence form, and c the pressure-mean row: w is the
    L2 projection of M^{-1} rhs_v onto the discretely divergence-free
    subspace and q the mean-zero pressure.  No bordered system is formed;
    both unknowns come from the Alfeld split.

    Velocity: the stream basis C of `pstokes.streamfunc` spans the
    divergence-free subspace exactly, so w = C (C^T M C)^{-1} C^T rhs_v
    with C^T M C, the Gram matrix the stepper factors too
    (`AssembledOperators.stream_mass`), factored once on the bundle
    (`.lu`, `AssembledOperators.stream_mass_lu`).  `velocity`
    returns w alone, for the projections that never read q.

    Pressure: q solves B^T q = M w - rhs_v =: r.  The 8 velocity dofs
    interior to a macro-element (its barycentre and the midpoints of its
    three inner edges) live on its three children 3K..3K+2 alone, and B
    maps them one to one onto the mean-zero P1 pressures of the
    macro-element, dofs 9K..9K+8 (Arnold & Qin 1992; Guzman & Neilan
    2018).  So
      1. per macro-element, the 9 x 8 pseudo-inverse of its block of B^T
         gives q from the interior rows of r up to one constant; the
         pseudo-inverses come from one SVD per distinct block, up to
         scale (two on `unit_square_mesh(m)`, one per macro-element on
         a mesh whose macro-elements all differ);
      2. the constants solve the remaining rows of r in the least-squares
         sense: one factored normal-equation system, one unknown per
         macro-element but the last (`.constants_lu`);
      3. q is shifted to mean zero.
    C drops only rounding noise from its columns (`streamfunc.DROP`), so
    r lies in range(B^T) to rounding and step 2 is consistent to it.

    Raises ValueError for a mesh without a parent map and for a
    macro-element whose local block has a smallest singular value below
    LOCAL_SV_RATIO of its largest.
    """

    def __init__(self, ops: AssembledOperators):
        interior = _macro_interior_dofs(ops)
        n_macro = len(interior)
        self._interior = interior.ravel()
        self._pinv = _local_pseudo_inverses(ops.B_free, interior)

        rest = np.ones(ops.n_free, dtype=bool)
        rest[self._interior] = False
        B_rest = ops.B_free[:, rest]
        n_pressure = ops.n_pressure
        macro = sp.csr_matrix(
            (np.ones(n_pressure), np.arange(n_pressure) // 9, np.arange(n_pressure + 1)),
            shape=(n_pressure, n_macro),
        )
        self._rest = rest
        self._B_rest_T = B_rest.T.tocsr()
        self._G = (self._B_rest_T @ macro[:, :-1]).tocsr()
        self.constants_lu = spla.splu((self._G.T @ self._G).tocsc(), **SPD_SPLU)

        self._M = ops.M_free
        self._C = ops.stream_basis
        self._CT = ops.stream_basis_T
        self.lu = ops.stream_mass_lu
        self.cvec = ops.cvec

    def velocity(self, rhs_v: np.ndarray) -> np.ndarray:
        """The velocity w alone, for callers that do not read q: one
        back-substitution in the stream basis.  rhs_v has shape (n_free,)
        or (n_free, k).  Raises FloatingPointError if w is not finite."""
        y = self.lu.solve(self._CT @ rhs_v)
        if not np.all(np.isfinite(y)):
            raise FloatingPointError("saddle solve produced non-finite values")
        return self._C @ y

    def solve(self, rhs_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve for (w, q).  rhs_v has shape (n_free,) or, to solve for
        k right-hand sides at once, (n_free, k); w and q then carry the
        same trailing axis.  Raises FloatingPointError if the solution
        is not finite."""
        w = self.velocity(rhs_v)
        r = self._M @ w - rhs_v
        n_macro = len(self._pinv)
        q = self._pinv @ r[self._interior].reshape(n_macro, 8, -1)
        q = q.reshape((9 * n_macro,) + np.shape(rhs_v)[1:])
        const = self.constants_lu.solve(self._G.T @ (r[self._rest] - self._B_rest_T @ q))
        q[:-9] += np.repeat(const, 9, axis=0)
        q -= (self.cvec @ q) / self.cvec.sum()
        if not np.all(np.isfinite(q)):
            raise FloatingPointError("saddle solve produced non-finite values")
        return w, q


def _macro_interior_dofs(ops: AssembledOperators) -> np.ndarray:
    """The free-dof indices (n_macro, 8) of the velocity dofs interior to
    each macro-element, by node id and component, from the Alfeld layout
    `TriMesh` checks: the barycentre is local node 2 of child 3K, the
    midpoint of spoke k local node 4 of child 3K + k.  Raises ValueError
    for a mesh without a parent map."""
    if ops.space_v.mesh.parent is None:
        raise ValueError("the saddle solver needs an Alfeld-split mesh: no parent map")
    l2g = ops.space_v.scalar_l2g
    inner = np.sort(np.column_stack([l2g[0::3, 2], l2g[0::3, 4], l2g[1::3, 4], l2g[2::3, 4]]))
    free_index = np.cumsum(ops.free) - 1
    return free_index[2 * inner[:, :, None] + np.arange(2)].reshape(len(inner), 8)


def _local_pseudo_inverses(B_free: sp.csc_matrix, interior: np.ndarray) -> np.ndarray:
    """The pseudo-inverses (n_macro, 9, 8) of the blocks of B^T on each
    macro-element's interior dofs and its 9 pressures.  Blocks that agree
    once divided by their largest entry are one problem
    (`_distinct_problems`): one batched SVD of the distinct blocks, each
    pseudo-inverse rescaled to its member's block.  Raises ValueError
    naming the first macro-element whose block has a smallest singular
    value below LOCAL_SV_RATIO of its largest."""
    n_macro = len(interior)
    block = B_free[:, interior.ravel()].tocoo()
    macro = block.col // 8
    BT = np.zeros((n_macro, 8, 9))
    BT[macro, block.col % 8, block.row - 9 * macro] = block.data
    scale = np.abs(BT).max(axis=(1, 2))
    rep, inverse = _distinct_problems(BT / scale[:, None, None])
    U, s, Vh = np.linalg.svd(BT[rep], full_matrices=False)
    bad = np.flatnonzero(s[:, -1] < LOCAL_SV_RATIO * s[:, 0])
    if bad.size:
        K = bad[0]
        raise ValueError(
            f"macro-element {rep[K]}: the divergence of its interior velocities is "
            f"singular (singular values {s[K, -1]:.2e} / {s[K, 0]:.2e})"
        )
    pinv = Vh.transpose(0, 2, 1) @ (U.transpose(0, 2, 1) / s[:, :, None])
    # pinv(c B) = pinv(B) / c
    return pinv[inverse] * (scale[rep][inverse] / scale)[:, None, None]


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
    return Field("velocity", _full_velocity(ops, ops.projection_saddle().velocity(rhs_v)))


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
    w_free = ops.mass_free_lu.solve(rhs)
    return Field("velocity", _full_velocity(ops, w_free))


def velocity_at_qp(u_coeffs: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Velocity values at all quadrature points, shape (n_tri, nq, 2)."""
    return (ops.qp_eval.V @ u_coeffs).reshape(ops.qp_x.shape)


def velocity_load_vector(values_at_qp: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Assemble (f, xi) for a vector function given at quadrature points,
    of shape qp_x.shape, or for a stack of k of them, (k,) + qp_x.shape,
    in one product with the transpose of `qp_eval`.

    Returns the full-length dof vector, or one column per function
    (n_dofs, k); restrict with ops.free for the zero-trace test space.
    """
    weighted = ops.qw[..., None] * values_at_qp
    stack = weighted.shape[: weighted.ndim - ops.qp_x.ndim]
    return ops.qp_eval.V.T @ weighted.reshape(stack + (ops.qp_x.size,)).T


def grad_at_qp(u_coeffs: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Full gradient of a velocity field at all quadrature points,
    shape (n_tri, nq, 2, 2), entry [..., c, d] = d_d u_c."""
    return (ops.qp_eval.G @ u_coeffs).reshape(ops.qw.shape + (2, 2))


def sym_grad_at_qp(u_coeffs: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Symmetric gradient of a velocity field at all quadrature points,
    shape (n_tri, nq, 2, 2)."""
    return ops.qp_eval.sym_grad(u_coeffs[None]).reshape(ops.qw.shape + (2, 2))


def divergence_pointwise_max(v: Field, ops: AssembledOperators) -> float:
    """Max |div v| over all element quadrature points."""
    grad = grad_at_qp(v.coeffs, ops)
    return float(np.max(np.abs(grad[..., 0, 0] + grad[..., 1, 1])))


def qp_weights(ops: AssembledOperators, comps: int) -> np.ndarray:
    """The quadrature weight of every entry of a field with `comps`
    components per quadrature point, flattened point-major as the rows
    of `qp_eval` are: (n_qp comps,)."""
    return np.repeat(ops.qw.ravel(), comps)


def lp_norm(mag: np.ndarray, ops: AssembledOperators, p: float):
    """(sum_x w_x mag(x)^p)^(1/p) over the quadrature points x of ops:
    the L^p norm of a field whose pointwise magnitude is `mag`, of shape
    qw.shape or (n_qp,); for k magnitudes as the columns of an (n_qp, k)
    array, the k norms."""
    w = ops.qw.ravel()
    if mag.ndim == 2 and mag.shape[0] == w.size:
        return (w @ mag**p) ** (1.0 / p)
    return float((w @ mag.ravel() ** p) ** (1.0 / p))


def l2_norm(v: Field, ops: AssembledOperators) -> float:
    """L2 norm of a velocity or pressure field by its mass form."""
    M = ops.M_full if v.kind == "velocity" else ops.Mq
    return float(np.sqrt(max(v.coeffs @ (M @ v.coeffs), 0.0)))


def interpolate_velocity(fn: Callable[[np.ndarray], np.ndarray], ops: AssembledOperators) -> Field:
    """Nodal P2 interpolation of a vector field into the zero-trace space:
    the boundary nodes are masked to zero, so for data that vanishes on
    the boundary this is the plain interpolant."""
    vals = np.array(fn(ops.space_v.node_coords), dtype=float)
    vals[ops.space_v.boundary_node] = 0.0
    return Field("velocity", vals.ravel())


def stress_residual_vector(
    u_coeffs: np.ndarray, ops: AssembledOperators, params: PowerLawParams
) -> np.ndarray:
    """Assembled nonlinear form (S(eps u), eps xi) over free dofs."""
    S = stress_S(sym_grad_at_qp(u_coeffs, ops), params)
    # (S, grad xi) = (S, eps xi) because S is symmetric
    return (ops.qp_eval.GT @ (ops.qw[..., None, None] * S).ravel())[ops.free]


@dataclass(frozen=True)
class ElementBasis:
    """The element tables of a basis of k functions per block of g
    consecutive elements (g = 1 on the free dofs; g = 3, the children of
    one macro-element, in the stream basis), one table per group of
    blocks that agree up to the scale of each column:

        tables (n_groups, g nq, 4, k): eps of the k functions of the
               group's first block at each quadrature point of the
               block, flattened to 4 entries;
        starts (n_groups + 1,): the blocks are stored sorted by group,
               group i in blocks starts[i]:starts[i + 1], the groups of
               several blocks first and the lone blocks last;
        points (n, g nq): the quadrature point (index into qw.ravel())
               of each row of a stored block's table;
        cols   (n, k): the function of each block column, n_functions
               (one past the last) for an absent one;
        scale  (n, k): each block column against its group's table, 0
               for an absent one: block b of group i has the table
               tables[i] * scale[b];
        pattern: the tangent's fixed CSC pattern (zero data);
        pos    (n k k,): the data index in `pattern` of each block
               entry [row, column], pattern.nnz for an absent function.

    A block without a function is not stored.  The kernels work group
    by group, one small GEMM against the group's table at a time, so no
    table of every block is formed; the lone blocks, each its own group
    (all of them on a mesh whose macro-elements all differ), are one
    batch of GEMMs, one per block.
    """

    tables: np.ndarray
    starts: np.ndarray
    points: np.ndarray
    cols: np.ndarray
    scale: np.ndarray
    pattern: sp.csc_matrix
    pos: np.ndarray

    @cached_property
    def groups(self) -> list[tuple[np.ndarray, slice]]:
        """(table, blocks) per group of several blocks: its table as a
        (g nq 4, k) matrix and the slice of its stored blocks; then, if
        there are lone blocks, their tables as one (n_lone, g nq 4, k)
        stack and their slice."""
        q, k = self.tables.shape[1] * 4, self.tables.shape[3]
        bounds = self.starts.tolist()
        shared = int((np.diff(self.starts) > 1).sum())
        out = [
            (table.reshape(q, k), slice(lo, hi))
            for table, lo, hi in zip(self.tables[:shared], bounds[:shared], bounds[1:])
        ]
        if shared < len(self.tables):
            out.append((self.tables[shared:].reshape(-1, q, k), slice(bounds[shared], bounds[-1])))
        return out


def _free_local_dofs(ops: AssembledOperators) -> np.ndarray:
    """Free-dof index of the 12 local velocity dofs of every element,
    (n_tri, 12), -1 on the boundary."""
    free = ops.free
    return np.where(free[ops.vel_l2g], (np.cumsum(free) - 1)[ops.vel_l2g], -1)


def element_basis(
    ops: AssembledOperators, cols: np.ndarray, C: sp.spmatrix, group: np.ndarray | None = None
) -> ElementBasis:
    """The element tables of the basis C (free velocity dofs x n).

    cols (n_blocks, k) lists the columns of C that may be non-zero on
    each block of n_tri // n_blocks consecutive elements, -1 for none.
    group (n_blocks,) names blocks whose tables agree up to the scale of
    each column; it is read, not checked, and by default every block is
    its own group.  A block's functions are the entries of C in the rows
    of its free local dofs and its columns, looked up by sorted keys; an
    entry of C outside every block's columns is not seen.  Each group's
    table is that of its first block; the scale of a member's column is
    its entry of C at the row of the first block's largest |entry| in
    that column, over the first block's entry there.  The pattern holds
    every pair of columns that share a block.
    """
    n_tri, nq = ops.qw.shape
    n_blocks, k = cols.shape
    g = n_tri // n_blocks
    if group is None:
        group = np.arange(n_blocks)
    stored = np.flatnonzero((cols >= 0).any(axis=1))
    _, inv, size = np.unique(group[stored], return_inverse=True, return_counts=True)
    # the groups of several blocks first, then the lone blocks
    srt = np.lexsort((inv, size[inv] == 1))
    order, inv = stored[srt], inv[srt]
    first = np.flatnonzero(np.diff(inv, prepend=-1))
    size = np.diff(np.append(first, len(order)))
    rep = order[first]
    member = np.repeat(np.arange(len(first)), size)
    cols = cols[order]

    C = C.tocsc()
    C.sort_indices()
    n_rows, n = C.shape
    ckeys = np.repeat(np.arange(n, dtype=np.int64) * n_rows, np.diff(C.indptr)) + C.indices

    def entries(rows: np.ndarray, tcols: np.ndarray) -> np.ndarray:
        """C[rows, tcols], 0 for a row or column of -1."""
        keys = tcols * np.int64(n_rows) + rows
        idx = np.minimum(np.searchsorted(ckeys, keys), ckeys.size - 1)
        hit = (rows >= 0) & (tcols >= 0) & (ckeys[idx] == keys)
        return np.where(hit, C.data[idx], 0.0)

    local = _free_local_dofs(ops).reshape(n_blocks, g * 12)
    table = entries(local[rep][:, :, None], cols[first][:, None, :])  # [group, a, j]
    peak = np.abs(table).argmax(axis=1)  # (n_groups, k)
    ref = np.take_along_axis(table, peak[:, None, :], axis=1)[:, 0][member]
    mine = entries(np.take_along_axis(local[order], peak[member], axis=1), cols)
    scale = np.divide(mine, ref, out=np.zeros_like(mine), where=ref != 0.0)

    # eps of the 12 local velocity dofs (ordered like vel_l2g) at the
    # points of each first block's elements, then of its functions: the
    # table applied to them
    elems = (rep[:, None] * g + np.arange(g)).ravel()
    ref_pts = np.tile(QUAD_POINTS, (len(elems), 1))
    half = 0.5 * _physical_gradients(ops.inv_t, np.repeat(elems, nq), ref_pts)
    half = half.reshape(len(elems), nq, 2, 6)
    E = np.zeros((len(elems), nq, 2, 2, 6, 2))  # (t, q, c, d, node, component)
    for comp in range(2):
        E[:, :, comp, :, :, comp] += half
        E[:, :, :, comp, :, comp] += half
    E = np.matmul(E.reshape(len(elems), nq * 4, 12), table.reshape(len(elems), 12, k))

    # CSC key column * n + row of each block entry [b, row, column]
    pair = (cols[:, :, None] >= 0) & (cols[:, None, :] >= 0)
    keys = (cols[:, None, :] * np.int64(n) + cols[:, :, None])[pair]
    uniq, inv = np.unique(keys, return_inverse=True)
    pos = np.full(pair.shape, uniq.size, dtype=np.int64)
    pos[pair] = inv
    indptr = np.searchsorted(uniq, np.arange(n + 1, dtype=np.int64) * n)
    pattern = sp.csc_matrix((np.zeros(uniq.size), uniq % n, indptr), shape=(n, n))
    return ElementBasis(
        tables=E.reshape(len(rep), g * nq, 4, k),
        starts=np.append(first, len(order)),
        points=order[:, None] * (g * nq) + np.arange(g * nq),
        cols=np.where(cols >= 0, cols, n),
        scale=scale,
        pattern=pattern,
        pos=pos.ravel(),
    )


def element_stress_vector(
    coeffs: np.ndarray, ops: AssembledOperators, params: PowerLawParams, basis: ElementBasis
) -> np.ndarray:
    """(S(eps u), eps phi_j) for every function phi_j of an element
    basis, u = sum_j coeffs_j phi_j: in the stream basis C^T of
    `stress_residual_vector` at C coeffs.  Per group, one GEMM with its
    table gives eps at the points of its blocks from their
    coefficients, and one GEMM back gives their entries from the
    weighted stress, which are added at their functions; the lone
    blocks make one GEMV each, batched."""
    n, k = basis.cols.shape
    gathered = np.append(coeffs, 0.0)[basis.cols] * basis.scale
    groups = basis.groups
    eps = np.empty((n, basis.tables.shape[1] * 4))
    for table, blocks in groups:
        if table.ndim == 2:
            np.matmul(gathered[blocks], table.T, out=eps[blocks])
        else:
            np.matmul(table, gathered[blocks, :, None], out=eps[blocks, :, None])
    S = stress_S(eps.reshape(n, -1, 2, 2), params)
    S *= np.take(ops.qw, basis.points)[..., None, None]
    S = S.reshape(eps.shape)
    local = np.empty((n, k))
    for table, blocks in groups:
        if table.ndim == 2:
            np.matmul(S[blocks], table, out=local[blocks])
        else:
            np.matmul(S[blocks, None, :], table, out=local[blocks, None, :])
    local *= basis.scale
    n_functions = basis.pattern.shape[0]
    return np.bincount(basis.cols.ravel(), local.ravel(), minlength=n_functions + 1)[:-1]


def stress_tangent_matrix(
    u_coeffs: np.ndarray,
    ops: AssembledOperators,
    params: PowerLawParams,
    picard: bool,
    basis: ElementBasis,
) -> sp.csc_matrix:
    """Linearization of the stress form in an element basis: the stepper's
    `ops.stream_element_basis`, or `ops.free_element_basis` for the free
    velocity dofs.

    Newton: (DS(eps u)[eps phi_b], eps phi_a); Picard drops the rank-one
    part and keeps the radial weight only.  Group by group, the radial
    part is one GEMM of the blocks' point weights with the products of
    the table's rows (for the lone blocks, a batch of one weighted GEMM
    each), and the rank-one part a batch of small GEMMs of eps phi
    against the unit direction of eps u at the points
    (`tensors.jacobian_coefficients`); the blocks' entries, scaled by
    their columns, are added at their pattern positions.
    """
    n, k = basis.cols.shape
    eps = np.take(sym_grad_at_qp(u_coeffs, ops).reshape(-1, 2, 2), basis.points, axis=0)
    alpha, beta = jacobian_coefficients(eps, params)
    w = np.take(ops.qw, basis.points)
    w_alpha = w * alpha
    if not picard:
        unit = unit_direction(eps).reshape(n, -1, 4)
        w_beta = w * beta
    K_loc = np.empty((n, k, k))
    # radial part: sum over the points of w alpha eps(phi_a) : eps(phi_b);
    # rank-one part from v = unit(eps u) : eps(phi_a) at the points
    for table, blocks in basis.groups:
        if table.ndim == 2:
            rows = table.reshape(-1, 4, k)
            products = np.matmul(rows.transpose(0, 2, 1), rows).reshape(len(rows), k * k)
            np.matmul(w_alpha[blocks], products, out=K_loc[blocks].reshape(-1, k * k))
            if not picard:
                v = np.matmul(unit[blocks].transpose(1, 0, 2), rows)  # (q, block, k)
                vb = v * w_beta[blocks].T[:, :, None]
                K_loc[blocks] += np.matmul(vb.transpose(1, 2, 0), v.transpose(1, 0, 2))
        else:
            weighted = table * np.repeat(w_alpha[blocks], 4, axis=1)[:, :, None]
            np.matmul(table.transpose(0, 2, 1), weighted, out=K_loc[blocks])
            if not picard:
                tables = table.reshape(len(table), -1, 4, k)
                v = np.matmul(unit[blocks, :, None, :], tables)[:, :, 0]  # (block, q, k)
                K_loc[blocks] += np.matmul(v.transpose(0, 2, 1), v * w_beta[blocks][:, :, None])
    K_loc *= basis.scale[:, :, None]
    K_loc *= basis.scale[:, None, :]
    pattern = basis.pattern
    data = np.bincount(basis.pos, weights=K_loc.ravel(), minlength=pattern.nnz + 1)
    return sp.csc_matrix(
        (data[:-1], pattern.indices.copy(), pattern.indptr.copy()), shape=pattern.shape
    )


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
    """P2 evaluation at a fixed point set, as two sparse matrices on the
    interleaved velocity dofs (dof 2 node + c):

        V  (2 n_points x n_dofs), row 2k + c: component c at point k;
        G  (4 n_points x n_dofs), row 4k + 2c + d: d_d u_c at point k.

    Applied to a stack of coefficient rows (k, n_dofs), `values` and
    `sym_grad` return C-contiguous stacks, one row-major block per row:
    each block is the product of the matrix with that one row, bit for
    bit, written in place, so a row of the stack is contiguous and no
    transposing copy of the stack is made.  A stack of k = 0 rows gives
    an empty stack of the same trailing shape.  The transposes assemble
    load vectors from values at the points."""

    V: sp.csr_matrix
    G: sp.csr_matrix

    @cached_property
    def GT(self) -> sp.csr_matrix:
        """G^T in CSR, kept: it assembles forms from stress values at the
        points, a gather per dof where the CSC view G.T scatters."""
        return self.G.T.tocsr()

    @property
    def n_points(self) -> int:
        return self.V.shape[0] // 2

    def values(self, rows: np.ndarray) -> np.ndarray:
        """Velocity values at the points, shape (k, n_points, 2)."""
        return _row_products(self.V, rows).reshape(len(rows), self.n_points, 2)

    def sym_grad(self, rows: np.ndarray) -> np.ndarray:
        """Symmetric gradients at the points, shape (k, n_points, 2, 2).

        The off-diagonal pair is symmetrized in the product itself, with
        the same rounding as 0.5 (grad + grad^T)."""
        grad = _row_products(self.G, rows).reshape(len(rows), self.n_points, 2, 2)
        grad[..., 0, 1] += grad[..., 1, 0]
        grad[..., 0, 1] *= 0.5
        grad[..., 1, 0] = grad[..., 0, 1]
        return grad


def _row_products(A: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """A @ row for every row of `rows`, stacked as the rows of one
    C-contiguous (k, A.shape[0]) array: one sparse product per row."""
    out = np.empty((len(rows), A.shape[0]))
    for row, dest in zip(rows, out):
        dest[:] = A @ row
    return out


def _evaluation(
    space_v: VelocitySpace, inv_t: np.ndarray, tri: np.ndarray, ref: np.ndarray
) -> PointEvaluation:
    """The evaluation operator at the points with containing elements
    `tri` and reference coordinates `ref` (n_points, 2): the P2 basis
    values and physical gradients of each element, placed on the dofs of
    both components, six per row."""
    n = len(tri)
    dofs = 2 * space_v.scalar_l2g[tri][:, None] + np.arange(2)[:, None]  # (n, c, 6)
    grad = _physical_gradients(inv_t, tri, ref)  # (n, d, 6)

    def matrix(data: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
        starts = np.arange(0, data.size + 1, 6)
        shape = (len(starts) - 1, space_v.n_dofs)
        return sp.csr_matrix((data.ravel(), cols.ravel(), starts), shape=shape)

    return PointEvaluation(
        V=matrix(np.broadcast_to(_p2_values(ref).T[:, None], (n, 2, 6)), dofs),
        G=matrix(np.broadcast_to(grad[:, None], (n, 2, 2, 6)), np.repeat(dofs, 2, axis=1)),
    )


def point_evaluation(ops: AssembledOperators, points: np.ndarray) -> PointEvaluation:
    """The evaluation operator of the velocity space of `ops` at `points`
    (n_points, 2): one point location, then `_evaluation`."""
    return _evaluation(ops.space_v, ops.inv_t, *ops.locator.locate(points))


def infsup_witness(ops: AssembledOperators) -> float:
    """Smallest nonzero singular value of the mass-scaled Schur complement.

    beta^2 is the second-smallest eigenvalue of B M^-1 B^T q = mu Mq q
    (the smallest is 0 on constants); beta bounded away from 0 across a
    mesh ladder witnesses the discrete inf-sup condition on the L2 pair.
    """
    import scipy.linalg as la

    lu = ops.mass_free_lu
    cols = lu.solve(ops.B_free.T.toarray())
    S = ops.B_free @ cols
    Mq = ops.Mq.toarray()
    vals = la.eigh(0.5 * (S + S.T), Mq, eigvals_only=True)
    return float(np.sqrt(max(vals[1], 0.0)))
