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
interpolation problem of a macro-element reads only its shape, scale and
edge normals, so it is solved once per distinct macro-element (two on
`unit_square_mesh(m)`, one per macro-element on a mesh whose
macro-elements all differ), and the distinct problems are stacked
in one batch: one batched inverse for the subtriangle cubics, one
batched pseudo-inverse for the C^1 and dof conditions, one batched
evaluation at the P2 nodes.
This module only builds: `build_curl_basis` returns C and
`build_element_basis` reads the blocks of C into the element tables
the stepper evaluates its Newton residuals and assembles C^T K C from,
one table per group of macro-elements with the same geometry and the
same clamped dofs.  The operator bundle
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

from pstokes.spaces import AssembledOperators, ElementBasis, _distinct_problems, element_basis

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
# an entry of C is rounding noise.  On `unit_square_mesh(m)` (m = 2, 3,
# 16 and 32 checked) the noise stays below 1.1e-13 of its column's
# largest entry and the smallest genuine entry is 6.9e-3 of it, so the
# drop sits deep in the gap.
DROP = 1e-10
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
    P: np.ndarray, Z: np.ndarray, h: np.ndarray, normals: np.ndarray
) -> tuple[np.ndarray, float]:
    """Solve the interpolation problems of n macro-elements at once.

    P: (n, 3, 2) coarse vertex coords, Z: (n, 2) centroids, h: (n,)
    scales, normals: (n, 3, 2) global unit normals of the outer edges
    (P_k, P_{k+1}).  Returns the monomial coefficients (n, 3, 10, 12) of
    the stream function on each subtriangle for each of the 12 local
    dofs (in coordinates (x - Z) / h) and the largest residual of the
    consistent over-determined systems.
    """
    n = len(P)
    P1 = np.roll(P, -1, axis=1)  # P_{k+1}
    Zc = Z[:, None, :]
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
    return Vinv @ psi[:, _LOCAL], resid


def stream_curl_basis(ops: AssembledOperators) -> sp.csc_matrix:
    """The curl basis C the operator bundle keeps (`ops.stream_basis`)."""
    return ops.stream_basis


class _Macros(NamedTuple):
    """The active macro-elements (those with a stream dof that is not
    clamped) and everything their local problems read."""

    active: np.ndarray  # (n,) macro-element index
    gcols: np.ndarray  # (n, 12) stream dof per local dof, -1 clamped
    P: np.ndarray  # (n, 3, 2) coarse vertices
    Z: np.ndarray  # (n, 2) centroids
    h: np.ndarray  # (n,) longest outer edge
    normals: np.ndarray  # (n, 3, 2) global unit normals of the outer edges
    snodes: np.ndarray  # (n, 3 subtris, 6) scalar P2 node of each child
    offsets: np.ndarray  # (n, 3, 6, 2) (x - Z) / h of those nodes
    rep: np.ndarray  # first macro-element of each group (`_distinct_problems`)
    inverse: np.ndarray  # (n,) group of each


def _active_macros(ops: AssembledOperators, cs: _Coarse) -> _Macros:
    """The active macro-elements, grouped by everything their
    interpolation problem and their values at the P2 nodes read: (P -
    Z)/h, h (in log scale, so relatively), the outer normals and the
    offsets (x - Z)/h of the P2 nodes.  Macro-elements that agree in
    these at 1e-12 are one problem."""
    sv = ops.space_v
    verts = sv.mesh.vertices
    gcols = _global_columns(cs)
    active = np.flatnonzero((gcols >= 0).any(axis=1))
    ends = verts[cs.coarse_edges[cs.tri_edges[active]]]  # (n, 3, a<b, 2)
    t = ends[:, :, 1] - ends[:, :, 0]
    normals = np.stack([t[..., 1], -t[..., 0]], axis=-1) / np.linalg.norm(t, axis=-1)[..., None]
    P = verts[cs.coarse_tris[active]]
    Z = verts[cs.n_coarse_verts + active]
    h = np.linalg.norm(P - np.roll(P, 1, axis=1), axis=2).max(axis=1)
    snodes = sv.scalar_l2g.reshape(-1, 3, 6)[active]
    offsets = (sv.node_coords[snodes] - Z[:, None, None]) / h[:, None, None, None]
    rep, inverse = _distinct_problems(
        (P - Z[:, None]) / h[:, None, None], np.log(h), normals, offsets
    )
    return _Macros(active, gcols[active], P, Z, h, normals, snodes, offsets, rep, inverse)


# Where each entry a macro-element writes into C is written first.  In
# the Alfeld layout child k is (P_k, P_k+1, Z) with P2 nodes P_k, P_k+1,
# Z, the midpoints of spokes k+1 and k, and the midpoint of outer edge k
# (P_k, P_k+1).  _FIRST[k, slot] marks the first child and slot at which
# the macro-element reaches each of its ten P2 nodes.
_FIRST = np.array(
    [[True] * 6, [False, True, False, True, False, True], [False] * 5 + [True]]
)
# The entities of a macro-element by their coarse vertices: vertices
# 0-2, outer edges 3-5 (3 + k is (P_k, P_k+1)) and 6, the macro-element.
_ENTITY_VERTICES = [{0}, {1}, {2}, {0, 1}, {1, 2}, {2, 0}, {0, 1, 2}]
# The entity of each (child, slot) node: vertex k, vertex k+1, the
# outer edge k for its midpoint, the macro-element for the rest.
_OUTER_NODE = np.array([[k, (k + 1) % 3, 6, 6, 6, 3 + k] for k in range(3)])
# The entity of each local dof: three per vertex, then one per edge.
_DOF_ENTITY = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 4, 5]
# _SPAN[node, dof]: the smallest entity holding a node's entity and a
# dof's entity both.
_SPAN = np.array(
    [
        [_ENTITY_VERTICES.index(_ENTITY_VERTICES[node] | _ENTITY_VERTICES[e]) for e in _DOF_ENTITY]
        for node in range(7)
    ]
)


def _first_writes(cs: _Coarse, macros: _Macros) -> np.ndarray:
    """Which of the values (n, 3 subtris, 2 components, 6 nodes, 12
    dofs) the macro-elements write into C is the first write of its
    (row, column) in that order, for an unclamped column.  Two
    macro-elements write the same entry only at a node and a column
    that both have, that is on the vertex or outer edge the node and the
    dof span together; the first write is then by the first active
    macro-element on that vertex or edge, at its first child and slot
    that reach the node.  An entry spanning a whole macro-element is
    its own."""
    n = len(macros.active)
    first = np.full(cs.n_coarse_verts + len(cs.coarse_edges), n)
    order = np.repeat(np.arange(n), 3)
    np.minimum.at(first, cs.coarse_tris[macros.active].ravel(), order)
    np.minimum.at(first, cs.n_coarse_verts + cs.tri_edges[macros.active].ravel(), order)
    entities = np.column_stack(
        [
            first[cs.coarse_tris[macros.active]],
            first[cs.n_coarse_verts + cs.tri_edges[macros.active]],
            np.arange(n),
        ]
    )
    own = entities[:, _SPAN] == np.arange(n)[:, None, None]  # (n, 7 nodes, 12 dofs)
    keep = own[:, _OUTER_NODE] & _FIRST[:, :, None] & (macros.gcols >= 0)[:, None, None]
    return np.broadcast_to(keep[:, :, None], (n, 3, 2, 6, 12))


def build_curl_basis(ops: AssembledOperators) -> sp.csc_matrix:
    """Sparse curl matrix C: free velocity dofs x stream dofs.

    Columns are scaled to unit Euclidean norm, then every entry below
    DROP of its column's largest is dropped: the curl of a stream dof
    vanishes at the nodes of its macro-elements' outer edges on which
    the dof's function and gradient vanish, and what is computed there
    is rounding noise (1e-15 relative), which would otherwise double
    the fill of the reduced factorizations.

    Each distinct macro-element is solved once (`_active_macros`):
    `unit_square_mesh(m)` has two distinct macro-elements (m = 1..8, 16
    and 32 checked); on a mesh whose macro-elements all differ each is
    its own, and C is the per-element build bit for bit.  A node shared
    by several macro-elements is written by each with values equal up
    to rounding (C^1 gluing); C keeps the first write of each entry,
    found from the layout (`_first_writes`).  Construction is
    geometry-only; the operator bundle keeps the result as
    `ops.stream_basis`.
    """
    cs = _coarse_structure(ops)
    sv = ops.space_v
    macros = _active_macros(ops, cs)
    rep, inverse, h = macros.rep, macros.inverse, macros.h
    coeffs, resid = _macro_elements(macros.P[rep], macros.Z[rep], h[rep], macros.normals[rep])
    if resid > 1e-8:
        raise ArithmeticError(
            f"macro-element interpolation inconsistent (residual {resid:.2e})"
        )

    # velocity u = (d_y psi, -d_x psi) at the P2 nodes, per distinct
    # macro-element, then for each: (n, 3 subtris, 2 components, 6 nodes,
    # 12 local dofs)
    gx, gy = _monomial_gradients(macros.offsets[rep])
    hb = h[rep, None, None, None]
    vals = np.stack([(gy / hb) @ coeffs, -(gx / hb) @ coeffs], axis=2)[inverse]
    rows = 2 * macros.snodes[:, :, None, :, None] + np.arange(2)[:, None, None]
    cols = macros.gcols[:, None, None, None, :]
    keep = _first_writes(cs, macros)
    C_full = sp.coo_matrix(
        (
            vals[keep],
            (np.broadcast_to(rows, vals.shape)[keep], np.broadcast_to(cols, vals.shape)[keep]),
        ),
        shape=(sv.n_dofs, cs.dim),
    ).tocsc()
    C = C_full[ops.free]
    col = np.repeat(np.arange(cs.dim), np.diff(C.indptr))
    C.data /= np.sqrt(np.bincount(col, weights=C.data**2, minlength=cs.dim))[col]
    col_max = np.maximum.reduceat(np.abs(C.data), C.indptr[:-1])
    C.data[np.abs(C.data) < DROP * col_max[col]] = 0.0
    C.eliminate_zeros()
    return C


def _block_groups(ops: AssembledOperators, cs: _Coarse) -> np.ndarray:
    """The group of every macro-element's block of C, from small keys and
    never from its table: its group of `_active_macros` and its clamped
    dofs.  Two macro-elements with both equal have the same functions up
    to the scale of each column (14 groups on `unit_square_mesh(m)` at
    m = 4, 8 and 16).  A macro-element without an active dof is in
    group 0; `element_basis` does not store its block."""
    macros = _active_macros(ops, cs)
    clamped = (macros.gcols < 0) @ (1 << np.arange(12))
    group = np.zeros(len(cs.coarse_tris), dtype=np.int64)
    group[macros.active] = macros.inverse * (1 << 12) + clamped
    return group


def build_element_basis(ops: AssembledOperators) -> ElementBasis:
    """The element tables of the stress tangent in the stream basis
    (`spaces.element_basis`): one block per macro-element, its three
    children and its 12 stream dofs, one table per group of blocks
    (`_block_groups`).  The operator bundle keeps them as
    `ops.stream_element_basis`."""
    cs = _coarse_structure(ops)
    return element_basis(ops, _global_columns(cs), ops.stream_basis, _block_groups(ops, cs))
