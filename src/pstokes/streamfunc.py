"""Explicit basis of the divergence-free velocity subspace.

On a barycentrically refined (Alfeld-split) triangulation, the
divergence-free subspace of the zero-trace quadratic velocity space is
exactly the curl of the clamped C^1 composite-cubic stream functions on
the coarse triangulation (the classic Clough-Tocher construction:
piecewise cubic on the three subtriangles of each coarse triangle, C^1
inside the macro-element, glued C^1 across coarse edges by the shared
vertex gradients and one normal-derivative dof per coarse edge; the
clamped boundary conditions zero out every dof attached to the
boundary).  Velocities u = curl psi = (d_y psi, -d_x psi) built this way
are continuous piecewise quadratics with exactly zero divergence and
zero boundary trace.

The point of materializing the basis as a sparse matrix C is speed: the
constrained saddle systems collapse to unconstrained SPD systems, the
stepper's C^T (M + tau K) C d = -C^T F and the projections'
C^T M C y = C^T rhs (`spaces.SaddleSolver`, which recovers the pressure
afterwards per macro-element).  These are the only velocity systems
factored, and their dimension

    dim = 3 * (interior coarse vertices) + (interior coarse edges)
        = n_free_velocity_dofs - (n_pressure_dofs - 1)

is about a seventh of the bordered saddle system's (1,411 against 10,625
unknowns at m = 16, where the L+U factors of C^T M C hold 120,318 non-zeros
and those of the bordered system 2.25M).  The Gram matrix C^T M C is
formed once per mesh (`AssembledOperators.stream_mass`).  The 19-node
interpolation problems of all macro-elements are stacked and solved in
one batch: one batched inverse for the subtriangle cubics, one batched
pseudo-inverse for the C^1 and dof conditions, one batched evaluation
at the P2 nodes.
This module only builds: `build_curl_basis` returns C and
`build_element_basis` reads each macro-element's block of C into the
element tables the stepper assembles C^T K C from.  The operator bundle
calls them on first use and keeps what they return
(`AssembledOperators.stream_basis`, `.stream_element_basis`); nothing
here writes to it, and `stream_curl_basis` only reads the bundle's
basis.  The basis is geometry-only; the coarse structure it is
numbered by is read from the Alfeld layout the mesh checks
(`meshing.TriMesh`) while the basis is built, and not kept.  Entries
of C that are rounding noise are dropped column by column.

Stream dof ordering: for each interior coarse vertex v (in increasing
vertex id) the triple (psi(v), d_x psi(v), d_y psi(v)), followed by one
normal-derivative dof per interior coarse edge (in increasing edge
order; the normal of edge (a, b) with a < b is the right-hand rotation
of the unit vector from a to b, a global convention both neighbouring
macro-elements agree on).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from pstokes.spaces import AssembledOperators, ElementBasis, element_basis

__all__ = ["stream_curl_basis", "build_curl_basis", "build_element_basis"]

# Exponents of the ten bivariate monomials of degree <= 3.
_EXP = np.array(
    [(i, j) for d in range(4) for i in range(d, -1, -1) for j in (d - i,)]
)
_IX, _IY = _EXP[:, 0], _EXP[:, 1]
_EX, _EY = _IX.astype(float), _IY.astype(float)
# The exponents after differentiation, a zero one kept at zero.
_IX_LOW, _IY_LOW = np.maximum(_IX - 1, 0), np.maximum(_IY - 1, 0)
_POWERS = np.arange(4.0)


# Local node ids of the 19-node macro-element: 0-2 corners, 3 centroid,
# 4+2k/5+2k thirds of outer edge k, 10+2k/11+2k thirds of spoke k (from
# P_k towards Z), 16+k subtriangle barycenters.  Row k lists the ten
# nodes of subtriangle k = (P_k, P_{k+1}, Z), which carry its cubic.
_LOCAL = np.array(
    [
        [k, (k + 1) % 3, 3,
         4 + 2 * k, 5 + 2 * k,
         10 + 2 * ((k + 1) % 3), 11 + 2 * ((k + 1) % 3),
         10 + 2 * k, 11 + 2 * k,
         16 + k]
        for k in range(3)
    ]
)
# Relative size, within its column of the unit-norm basis, below which
# an entry of C is rounding noise; any value from 1e-13 to 1e-10 drops
# the same entries.
DROP = 1e-13
# Where the normal jump across each spoke is sampled, as fractions of the
# spoke from its corner towards the centroid.
_SPOKE_POINTS = np.array([0.25, 0.5, 0.75])


def _powers(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x^e and y^e for e = 0..3 at points (..., 2), each (..., 4).

    The monomials read this table with np.take, which keeps them in C
    order; indexing the last axis would not, and the batched products
    that consume them would round differently."""
    return pts[..., :1] ** _POWERS, pts[..., 1:] ** _POWERS


def _monomial_values(pts: np.ndarray) -> np.ndarray:
    """The 10 cubic monomials at points (..., 2), shape (..., 10)."""
    px, py = _powers(pts)
    return np.take(px, _IX, axis=-1) * np.take(py, _IY, axis=-1)


def _monomial_gradients(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d_x and d_y of the 10 monomials at points (..., 2), each (..., 10),
    read from one table of powers: a zero exponent's factor _EX or _EY
    clears its (finite) lowered power."""
    px, py = _powers(pts)
    return (
        _EX * np.take(px, _IX_LOW, axis=-1) * np.take(py, _IY, axis=-1),
        _EY * np.take(py, _IY_LOW, axis=-1) * np.take(px, _IX, axis=-1),
    )


class _Coarse(NamedTuple):
    """The pre-split triangulation and its numbering of stream dofs."""

    n_coarse_verts: int
    coarse_tris: np.ndarray
    coarse_edges: np.ndarray
    tri_edges: np.ndarray
    interior_vertex: np.ndarray
    interior_edge: np.ndarray
    vert_dof_base: np.ndarray
    edge_dof_base: np.ndarray
    dim: int  # 3 x interior coarse vertices + interior coarse edges


def _coarse_structure(ops: AssembledOperators) -> _Coarse:
    """Read the pre-split triangulation from the Alfeld layout."""
    mesh = ops.space_v.mesh
    n_coarse_tris = mesh.n_triangles // 3
    n_coarse_verts = mesh.n_vertices - n_coarse_tris
    # children of coarse triangle i are 3i..3i+2 with vertex layout
    # (v0, v1, z), (v1, v2, z), (v2, v0, z) and centroid z = n_cv + i,
    # the layout TriMesh checked when the mesh was built
    tri = mesh.triangles
    coarse_tris = np.column_stack(
        [tri[0::3, 0], tri[0::3, 1], tri[1::3, 1]]
    )

    both_coarse = (mesh.edges < n_coarse_verts).all(axis=1)
    coarse_edges = mesh.edges[both_coarse]
    coarse_edge_boundary = mesh.boundary_edge[both_coarse]
    # edge slot 2 of child 3i+k (opposite z) is the outer edge (v_k, v_k+1)
    tri_edges = (np.cumsum(both_coarse) - 1)[mesh.triangle_edges[:, 2]].reshape(-1, 3)

    interior_vertex = ~mesh.boundary_vertex[:n_coarse_verts]
    vert_rank = np.cumsum(interior_vertex) - 1
    interior_edge = ~coarse_edge_boundary
    edge_rank = np.cumsum(interior_edge) - 1
    n_iv = int(interior_vertex.sum())

    return _Coarse(
        n_coarse_verts=n_coarse_verts,
        coarse_tris=coarse_tris,
        coarse_edges=coarse_edges,
        tri_edges=tri_edges,
        interior_vertex=interior_vertex,
        interior_edge=interior_edge,
        vert_dof_base=3 * vert_rank,
        edge_dof_base=3 * n_iv + edge_rank,
        dim=3 * n_iv + int(interior_edge.sum()),
    )


def _global_columns(cs: _Coarse) -> np.ndarray:
    """Stream dof of each of the 12 local dofs of every macro-element,
    (n_coarse_tris, 12); -1 marks the clamped (boundary) dofs."""
    cv, e = cs.coarse_tris, cs.tri_edges
    vcols = cs.vert_dof_base[cv][:, :, None] + np.arange(3)
    gcols = np.empty((len(cv), 12), dtype=np.int64)
    gcols[:, :9] = np.where(cs.interior_vertex[cv][:, :, None], vcols, -1).reshape(-1, 9)
    gcols[:, 9:] = np.where(cs.interior_edge[e], cs.edge_dof_base[e], -1)
    return gcols


def _macro_elements(
    P: np.ndarray, Z: np.ndarray, normals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve the interpolation problems of n macro-elements at once.

    P: (n, 3, 2) coarse vertex coords, Z: (n, 2) centroids, normals:
    (n, 3, 2) global unit normals of the outer edges (P_k, P_{k+1}).
    Returns the monomial coefficients (n, 3, 10, 12) of the stream
    function on each subtriangle for each of the 12 local dofs (in
    coordinates (x - Z) / h), the scales h (n,), and the largest
    residual of the consistent over-determined systems.
    """
    n = len(P)
    P1 = np.roll(P, -1, axis=1)  # P_{k+1}
    Zc = Z[:, None, :]
    h = np.linalg.norm(P - np.roll(P, 1, axis=1), axis=2).max(axis=1)
    nodes = np.empty((n, 19, 2))
    nodes[:, 0:3] = P
    nodes[:, 3] = Z
    nodes[:, 4:10:2] = P + (P1 - P) / 3.0
    nodes[:, 5:10:2] = P + 2.0 * (P1 - P) / 3.0
    nodes[:, 10:16:2] = P + (Zc - P) / 3.0
    nodes[:, 11:16:2] = P + 2.0 * (Zc - P) / 3.0
    nodes[:, 16:19] = (P + P1 + Zc) / 3.0
    hb = h[:, None, None]
    Vinv = np.linalg.inv(_monomial_values((nodes - Zc)[:, _LOCAL] / hb[..., None]))

    def grad_rows(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """d_x, d_y of psi at physical points (n, n_pts, 2), as rows
        (n, n_pts, 19) acting on the nodal values, evaluated through
        subtriangle k."""
        gx, gy = _monomial_gradients((pts - Zc) / hb)
        rows_x = np.zeros(pts.shape[:2] + (19,))
        rows_y = np.zeros(pts.shape[:2] + (19,))
        rows_x[:, :, _LOCAL[k]] = (gx / hb) @ Vinv[:, k]
        rows_y[:, :, _LOCAL[k]] = (gy / hb) @ Vinv[:, k]
        return rows_x, rows_y

    # C^1 coupling across the three spokes: the tangential derivative is
    # continuous by construction (shared nodal values along the spoke),
    # the normal jump is a quadratic along the edge -> three point
    # conditions per spoke (rank 7 in total, the centroid ties them).
    stacked = np.zeros((n, 21, 19))
    for s in range(3):
        t = Z - P[:, s]
        nrm = np.stack([t[:, 1], -t[:, 0]], axis=1) / np.linalg.norm(t, axis=1)[:, None]
        pts = P[:, s, None] + _SPOKE_POINTS[None, :, None] * t[:, None, :]
        ax, ay = grad_rows(pts, s)            # subtri s has spoke s as an edge
        bx, by = grad_rows(pts, (s + 2) % 3)  # so does subtri s-1
        stacked[:, 3 * s : 3 * s + 3] = (
            nrm[:, 0, None, None] * (ax - bx) + nrm[:, 1, None, None] * (ay - by)
        )

    # The 12 dof functionals: (value, d_x, d_y) at each corner, then the
    # global-normal derivative at each outer edge midpoint (rows 9-20).
    A_dof = stacked[:, 9:]
    for v in range(3):
        A_dof[:, 3 * v, v] = 1.0
        gx, gy = grad_rows(P[:, v, None], v)
        A_dof[:, 3 * v + 1] = gx[:, 0]
        A_dof[:, 3 * v + 2] = gy[:, 0]
    for k in range(3):
        gx, gy = grad_rows(0.5 * (P[:, k, None] + P1[:, k, None]), k)
        A_dof[:, 9 + k] = normals[:, k, 0, None] * gx[:, 0] + normals[:, k, 1, None] * gy[:, 0]

    # least-squares solution for the right-hand sides [0; I]: the last
    # 12 columns of the pseudo-inverse
    psi = np.linalg.pinv(stacked)[:, :, 9:]
    target = np.vstack([np.zeros((9, 12)), np.eye(12)])
    resid = float(np.abs(stacked @ psi - target).max(initial=0.0))
    return Vinv @ psi[:, _LOCAL], h, resid


def stream_curl_basis(ops: AssembledOperators) -> sp.csc_matrix:
    """The curl basis C the operator bundle keeps (`ops.stream_basis`)."""
    return ops.stream_basis


def build_curl_basis(ops: AssembledOperators) -> sp.csc_matrix:
    """Sparse curl matrix C: free velocity dofs x stream dofs.

    Columns are scaled to unit Euclidean norm, then every entry below
    DROP of its column's largest is dropped: the curl of a stream dof
    vanishes at the nodes of its macro-elements' outer edges on which
    the dof's function and gradient vanish, and what is computed there
    is rounding noise (1e-15 relative), which would otherwise double
    the fill of the reduced factorizations.  Construction is
    geometry-only; the operator bundle keeps the result as
    `ops.stream_basis`.
    """
    cs = _coarse_structure(ops)
    sv = ops.space_v
    verts = sv.mesh.vertices

    gcols = _global_columns(cs)
    # macro-elements with every dof clamped contribute nothing
    active = np.flatnonzero((gcols >= 0).any(axis=1))
    gcols = gcols[active]
    ends = verts[cs.coarse_edges[cs.tri_edges[active]]]  # (n, 3, a<b, 2)
    t = ends[:, :, 1] - ends[:, :, 0]
    normals = np.stack([t[..., 1], -t[..., 0]], axis=-1) / np.linalg.norm(t, axis=-1)[..., None]
    Z = verts[cs.n_coarse_verts + active]
    coeffs, h, resid = _macro_elements(verts[cs.coarse_tris[active]], Z, normals)
    if resid > 1e-8:
        raise ArithmeticError(
            f"macro-element interpolation inconsistent (residual {resid:.2e})"
        )

    # velocity u = (d_y psi, -d_x psi) at the six P2 nodes of each
    # subtriangle: (n, 3 subtris, 2 components, 6 nodes, 12 local dofs)
    snodes = sv.scalar_l2g.reshape(-1, 3, 6)[active]
    hb = h[:, None, None, None]
    gx, gy = _monomial_gradients((sv.node_coords[snodes] - Z[:, None, None]) / hb)
    vals = np.stack([(gy / hb) @ coeffs, -(gx / hb) @ coeffs], axis=2)
    rows = 2 * snodes[:, :, None, :, None] + np.arange(2)[:, None, None]
    cols = gcols[:, None, None, None, :]
    keep = np.broadcast_to(cols >= 0, vals.shape)
    row_arr = np.broadcast_to(rows, vals.shape)[keep]
    col_arr = np.broadcast_to(cols, vals.shape)[keep]
    val_arr = vals[keep]
    # shared nodes are written by several macro-elements with equal
    # values (C^1 gluing); keep the first occurrence of each (row, col)
    key = row_arr * np.int64(cs.dim) + col_arr
    _, first = np.unique(key, return_index=True)
    C_full = sp.coo_matrix(
        (val_arr[first], (row_arr[first], col_arr[first])),
        shape=(sv.n_dofs, cs.dim),
    ).tocsc()
    C = C_full[ops.free]
    col = np.repeat(np.arange(cs.dim), np.diff(C.indptr))
    C.data /= np.sqrt(np.bincount(col, weights=C.data**2, minlength=cs.dim))[col]
    col_max = np.maximum.reduceat(np.abs(C.data), C.indptr[:-1])
    C.data[np.abs(C.data) < DROP * col_max[col]] = 0.0
    C.eliminate_zeros()
    return C


def build_element_basis(ops: AssembledOperators) -> ElementBasis:
    """The element tables of the stress tangent in the stream basis
    (`spaces.element_basis`): one block per macro-element, its three
    children and its 12 stream dofs.  The operator bundle keeps them as
    `ops.stream_element_basis`."""
    cols = _global_columns(_coarse_structure(ops))
    return element_basis(ops, cols, ops.stream_basis)
