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
constrained saddle systems of the time stepper collapse to unconstrained
SPD systems C^T (M + tau K) C d = -C^T F whose dimension

    dim = 3 * (interior coarse vertices) + (interior coarse edges)
        = n_free_velocity_dofs - (n_pressure_dofs - 1)

is an order of magnitude below the KKT system, with proportionally
cheaper factorizations.  The basis is geometry-only and is kept on the
operator bundle (`AssembledOperators.stream_basis`, with the coarse
structure it is numbered by in `AssembledOperators.stream_coarse`).

Stream dof ordering: for each interior coarse vertex v (in increasing
vertex id) the triple (psi(v), d_x psi(v), d_y psi(v)), followed by one
normal-derivative dof per interior coarse edge (in increasing edge
order; the normal of edge (a, b) with a < b is the right-hand rotation
of the unit vector from a to b, a global convention both neighbouring
macro-elements agree on).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from pstokes.spaces import AssembledOperators

__all__ = ["stream_curl_basis", "stream_dimension"]

# Exponents of the ten bivariate monomials of degree <= 3.
_EXP = np.array(
    [(i, j) for d in range(4) for i in range(d, -1, -1) for j in (d - i,)]
)
_EX, _EY = _EXP[:, 0].astype(float), _EXP[:, 1].astype(float)


def _monomial_values(pts: np.ndarray) -> np.ndarray:
    """Rows: points, columns: the 10 cubic monomials."""
    return pts[:, :1] ** _EXP[:, 0] * pts[:, 1:] ** _EXP[:, 1]


def _monomial_gradients(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d_x and d_y of the 10 monomials at each point, shape (n_pts, 10)."""
    x, y = pts[:, :1], pts[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        gx = _EX * np.where(_EXP[:, 0] > 0, x ** np.maximum(_EXP[:, 0] - 1, 0), 0.0)
        gy = _EY * np.where(_EXP[:, 1] > 0, y ** np.maximum(_EXP[:, 1] - 1, 0), 0.0)
    return gx * y ** _EXP[:, 1], gy * x ** _EXP[:, 0]


def stream_dimension(ops: AssembledOperators) -> int:
    """3 x interior coarse vertices + interior coarse edges."""
    return _coarse_structure(ops)["dim"]


def _coarse_structure(ops: AssembledOperators) -> dict:
    """Recover the pre-split triangulation from the parent map."""
    if ops.stream_coarse is not None:
        return ops.stream_coarse
    mesh = ops.space_v.mesh
    if mesh.parent is None:
        raise ValueError(
            "stream-function basis needs an Alfeld-split mesh (no parent map)"
        )
    n_coarse_tris = int(mesh.parent.max()) + 1
    n_coarse_verts = mesh.n_vertices - n_coarse_tris
    # children of coarse triangle i are 3i..3i+2 with vertex layout
    # (v0, v1, z), (v1, v2, z), (v2, v0, z) and centroid z = n_cv + i
    tri = mesh.triangles
    coarse_tris = np.column_stack(
        [tri[0::3, 0], tri[0::3, 1], tri[1::3, 1]]
    )
    centroids = tri[0::3, 2]
    if not np.array_equal(centroids, n_coarse_verts + np.arange(n_coarse_tris)):
        raise ValueError("unexpected refinement layout: centroid ids not contiguous")

    both_coarse = (mesh.edges < n_coarse_verts).all(axis=1)
    coarse_edges = mesh.edges[both_coarse]
    coarse_edge_boundary = mesh.boundary_edge[both_coarse]
    edge_index = {tuple(e): i for i, e in enumerate(coarse_edges)}

    interior_vertex = ~mesh.boundary_vertex[:n_coarse_verts]
    vert_rank = np.cumsum(interior_vertex) - 1
    interior_edge = ~coarse_edge_boundary
    edge_rank = np.cumsum(interior_edge) - 1
    n_iv = int(interior_vertex.sum())

    ops.stream_coarse = {
        "n_coarse_verts": n_coarse_verts,
        "coarse_tris": coarse_tris,
        "coarse_edges": coarse_edges,
        "edge_index": edge_index,
        "interior_vertex": interior_vertex,
        "interior_edge": interior_edge,
        "vert_dof_base": 3 * vert_rank,
        "edge_dof_base": 3 * n_iv + edge_rank,
        "dim": 3 * n_iv + int(interior_edge.sum()),
    }
    return ops.stream_coarse


def _macro_columns(
    P: np.ndarray, Z: np.ndarray, normals: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Solve one macro-element interpolation problem.

    P: (3, 2) coarse vertex coords, Z: centroid, normals: (3, 2) global
    unit normals of the outer edges (P_k, P_{k+1}).  Returns the three
    per-subtriangle monomial coefficient blocks (10, 12) of the stream
    function for each of the 12 local dofs, plus the lstsq residual.

    Local node ids: 0-2 corners, 3 centroid, 4+2k/5+2k thirds of outer
    edge k, 10+2k/11+2k thirds of spoke k (from P_k towards Z), 16+k
    subtriangle barycenters.
    """
    h = float(np.max(np.linalg.norm(P - np.roll(P, 1, axis=0), axis=1)))
    nodes = np.empty((19, 2))
    nodes[0:3] = P
    nodes[3] = Z
    for k in range(3):
        a, b = P[k], P[(k + 1) % 3]
        nodes[4 + 2 * k] = a + (b - a) / 3.0
        nodes[5 + 2 * k] = a + 2.0 * (b - a) / 3.0
        nodes[10 + 2 * k] = P[k] + (Z - P[k]) / 3.0
        nodes[11 + 2 * k] = P[k] + 2.0 * (Z - P[k]) / 3.0
        nodes[16 + k] = (P[k] + P[(k + 1) % 3] + Z) / 3.0

    local = [
        [k, (k + 1) % 3, 3,
         4 + 2 * k, 5 + 2 * k,
         10 + 2 * ((k + 1) % 3), 11 + 2 * ((k + 1) % 3),
         10 + 2 * k, 11 + 2 * k,
         16 + k]
        for k in range(3)
    ]
    scaled = (nodes - Z) / h
    Vinv = [
        np.linalg.inv(_monomial_values(scaled[local[k]])) for k in range(3)
    ]

    def grad_rows(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """d_x, d_y of psi at physical points, as rows acting on the 19
        nodal values, evaluated through subtriangle k."""
        gx, gy = _monomial_gradients((pts - Z) / h)
        rows_x = np.zeros((len(pts), 19))
        rows_y = np.zeros((len(pts), 19))
        rows_x[:, local[k]] = (gx / h) @ Vinv[k]
        rows_y[:, local[k]] = (gy / h) @ Vinv[k]
        return rows_x, rows_y

    # C^1 coupling across the three spokes: the tangential derivative is
    # continuous by construction (shared nodal values along the spoke),
    # the normal jump is a quadratic along the edge -> three point
    # conditions per spoke (rank 7 in total, the centroid ties them).
    c1_rows = []
    for s in range(3):
        t = Z - P[s]
        nrm = np.array([t[1], -t[0]]) / np.linalg.norm(t)
        pts = P[s] + np.outer([0.25, 0.5, 0.75], t)
        ax, ay = grad_rows(pts, s)          # subtri s has spoke s as an edge
        bx, by = grad_rows(pts, (s + 2) % 3)  # so does subtri s-1
        c1_rows.append(nrm[0] * (ax - bx) + nrm[1] * (ay - by))
    A_c1 = np.vstack(c1_rows)

    # The 12 dof functionals: (value, d_x, d_y) at each corner, then the
    # global-normal derivative at each outer edge midpoint.
    A_dof = np.zeros((12, 19))
    for v in range(3):
        A_dof[3 * v, v] = 1.0
        gx, gy = grad_rows(P[v][None, :], v)
        A_dof[3 * v + 1] = gx[0]
        A_dof[3 * v + 2] = gy[0]
    for k in range(3):
        mid = 0.5 * (P[k] + P[(k + 1) % 3])
        gx, gy = grad_rows(mid[None, :], k)
        A_dof[9 + k] = normals[k, 0] * gx[0] + normals[k, 1] * gy[0]

    stacked = np.vstack([A_c1, A_dof])
    target = np.vstack([np.zeros((9, 12)), np.eye(12)])
    psi, *_ = np.linalg.lstsq(stacked, target, rcond=None)
    resid = float(np.abs(stacked @ psi - target).max())

    coeff_blocks = [Vinv[k] @ psi[local[k]] for k in range(3)]

    # convert to velocity values: u = (d_y psi, -d_x psi); evaluation
    # points are supplied later, so hand back evaluators' ingredients
    return coeff_blocks, np.array([h, resid])


def stream_curl_basis(ops: AssembledOperators) -> sp.csc_matrix:
    """Sparse curl matrix C: free velocity dofs x stream dofs.

    Columns are scaled to unit Euclidean norm.  Kept on the operator
    bundle as `ops.stream_basis`; construction is geometry-only.
    """
    if ops.stream_basis is not None:
        return ops.stream_basis
    cs = _coarse_structure(ops)
    mesh = ops.space_v.mesh
    sv = ops.space_v
    verts = mesh.vertices
    n_cv = cs["n_coarse_verts"]
    edge_index = cs["edge_index"]
    interior_vertex = cs["interior_vertex"]
    interior_edge = cs["interior_edge"]
    vbase, ebase = cs["vert_dof_base"], cs["edge_dof_base"]

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    worst_resid = 0.0

    for i, cv in enumerate(cs["coarse_tris"]):
        P = verts[cv]
        Z = verts[n_cv + i]
        # global columns of the 12 local dofs; -1 marks clamped dofs
        gcols = np.full(12, -1, dtype=np.int64)
        normals = np.empty((3, 2))
        for v in range(3):
            if interior_vertex[cv[v]]:
                gcols[3 * v: 3 * v + 3] = vbase[cv[v]] + np.arange(3)
        for k in range(3):
            a, b = sorted((int(cv[k]), int(cv[(k + 1) % 3])))
            t = verts[b] - verts[a]
            normals[k] = np.array([t[1], -t[0]]) / np.linalg.norm(t)
            e = edge_index[(a, b)]
            if interior_edge[e]:
                gcols[9 + k] = ebase[e]
        if np.all(gcols < 0):
            continue

        coeff_blocks, (h, resid) = _macro_columns(P, Z, normals)
        worst_resid = max(worst_resid, resid)

        keep = np.flatnonzero(gcols >= 0)
        for k in range(3):
            snodes = sv.scalar_l2g[3 * i + k]
            pts = (sv.node_coords[snodes] - Z) / h
            gx, gy = _monomial_gradients(pts)
            ck = coeff_blocks[k][:, keep]
            ux = (gy / h) @ ck          # (6 nodes, n_keep)
            uy = -(gx / h) @ ck
            dof_rows = 2 * snodes
            for comp, uvals in ((0, ux), (1, uy)):
                rows.append(np.repeat(dof_rows + comp, len(keep)))
                cols.append(np.tile(gcols[keep], 6))
                vals.append(uvals.ravel())

    if worst_resid > 1e-8:
        raise ArithmeticError(
            f"macro-element interpolation inconsistent (residual {worst_resid:.2e})"
        )

    row_arr = np.concatenate(rows)
    col_arr = np.concatenate(cols)
    val_arr = np.concatenate(vals)
    # shared nodes are written by several macro-elements with equal
    # values (C^1 gluing); keep the first occurrence of each (row, col)
    key = row_arr * np.int64(cs["dim"]) + col_arr
    _, first = np.unique(key, return_index=True)
    C_full = sp.coo_matrix(
        (val_arr[first], (row_arr[first], col_arr[first])),
        shape=(sv.n_dofs, cs["dim"]),
    ).tocsc()
    C = C_full[ops.free]
    C.data[np.abs(C.data) < 1e-14 * np.abs(C.data).max()] = 0.0
    C.eliminate_zeros()
    scale = np.sqrt(C.multiply(C).sum(axis=0)).A1
    C = C @ sp.diags(1.0 / scale)
    ops.stream_basis = C.tocsc()
    return ops.stream_basis
