"""Structured triangulations of the unit square with Alfeld refinement.

The velocity/pressure pair used downstream is only inf-sup stable and
exactly divergence-free on barycentrically refined (Alfeld-split)
triangulations, so meshes carry a parent map recording the split, and
the mesh checks that map's layout once, when it is built.  All
meshes are conforming (no hanging nodes) with counterclockwise
triangles; quality metrics follow the shape-regularity convention
gamma = max_K h_K / rho_K with rho_K the inscribed-circle diameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TriMesh", "unit_square_mesh", "alfeld_split", "quality_report"]


@dataclass
class TriMesh:
    """Conforming triangulation: vertices, CCW triangles, boundary flags.

    edges and triangle_edges give each undirected edge a global index and
    map local edge slots (edge i is opposite local vertex i) to it; both
    are derived in __post_init__ and shared immutably by assembly code.
    square_order is the m of unit_square_mesh(m) for that mesh and its
    Alfeld split, and None for every other mesh; point location relies
    on it.  A parent map marks an Alfeld split, whose layout is checked
    here, once: the children of macro-element K are triangles 3K..3K+2 =
    (a, b, z), (b, c, z), (c, a, z), with a, b, c below n_vertices -
    n_macro and z = n_vertices - n_macro + K, or ValueError names the
    first K that breaks the rule.  The saddle solver reads the interior
    nodes of each macro-element from it (`spaces._macro_interior_dofs`),
    the stream basis its coarse mesh, the locator its children.  The
    arrays are copied on construction and read-only, so a
    mesh cannot be moved in place under what was derived from it: build
    a new TriMesh instead.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    parent: np.ndarray | None = None
    square_order: int | None = None
    edges: np.ndarray = field(init=False)
    triangle_edges: np.ndarray = field(init=False)
    boundary_vertex: np.ndarray = field(init=False)
    boundary_edge: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.vertices = np.array(self.vertices, dtype=float)
        self.triangles = np.array(self.triangles, dtype=np.int64)
        if self.parent is not None:
            self.parent = np.array(self.parent, dtype=np.int64)
            _check_alfeld_layout(self.triangles, self.parent, len(self.vertices))
        if np.any(self.signed_areas() <= 0.0):
            raise ValueError("mesh has a degenerate or misoriented triangle")
        # Edge slot i is opposite local vertex i: (1,2), (2,0), (0,1).
        raw = self.triangles[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
        raw_sorted = np.sort(raw, axis=1)
        self.edges, inverse, counts = np.unique(
            raw_sorted, axis=0, return_inverse=True, return_counts=True
        )
        self.triangle_edges = inverse.reshape(-1, 3)
        if np.any(counts > 2):
            raise ValueError("non-manifold edge: more than two incident triangles")
        self.boundary_edge = counts == 1
        self.boundary_vertex = np.zeros(len(self.vertices), dtype=bool)
        self.boundary_vertex[self.edges[self.boundary_edge].ravel()] = True
        for a in (
            self.vertices, self.triangles, self.parent, self.edges,
            self.triangle_edges, self.boundary_vertex, self.boundary_edge,
        ):
            if a is not None:
                a.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def corners(self) -> np.ndarray:
        """Vertex coordinates per triangle, shape (n_triangles, 3, 2)."""
        return self.vertices[self.triangles]

    def signed_areas(self) -> np.ndarray:
        c = self.vertices[self.triangles]
        d1 = c[:, 1] - c[:, 0]
        d2 = c[:, 2] - c[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def side_lengths(self) -> np.ndarray:
        """Edge lengths per triangle, slot i opposite local vertex i."""
        c = self.vertices[self.triangles]
        out = np.empty((self.n_triangles, 3))
        for i, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            out[:, i] = np.linalg.norm(c[:, a] - c[:, b], axis=1)
        return out

    @property
    def h_max(self) -> float:
        return float(self.side_lengths().max())

    def barycenters(self) -> np.ndarray:
        return self.corners().mean(axis=1)


def _check_alfeld_layout(tri: np.ndarray, parent: np.ndarray, n_vertices: int) -> None:
    """Raise ValueError naming the first macro-element off the layout
    `TriMesh` documents."""
    n = len(tri)
    if len(parent) != n:
        raise ValueError(f"parent map of {len(parent)} entries for {n} triangles")
    K, k = np.divmod(np.arange(n), 3)
    n_coarse = n_vertices - (n + 2) // 3
    ok = (
        (parent == K) & (K < n // 3) & (tri[:, 0] < n_coarse) & (tri[:, 2] == n_coarse + K)
        & (tri[:, 1] == tri[np.minimum(3 * K + (k + 1) % 3, n - 1), 0])
    )
    if not ok.all():
        raise ValueError(
            f"not an Alfeld split: macro-element {K[np.argmin(ok)]} breaks the layout "
            "3K..3K+2 = (a, b, z), (b, c, z), (c, a, z), z = n_vertices - n_macro + K"
        )


def unit_square_mesh(m: int) -> TriMesh:
    """Structured mesh of (0,1)^2: m x m squares, each cut along the main
    diagonal into two right triangles; 2 m^2 triangles, h = sqrt(2)/m.

    All diagonals share one direction, so unit_square_mesh(2m) refines
    unit_square_mesh(m) exactly (vertex nesting used by the ladders).
    """
    if m < 1:
        raise ValueError(f"need at least one subdivision, got m={m}")
    side = np.linspace(0.0, 1.0, m + 1)
    X, Y = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i: int, j: int) -> int:
        return j * (m + 1) + i

    tris = []
    for j in range(m):
        for i in range(m):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return TriMesh(vertices=vertices, triangles=np.array(tris), square_order=m)


def alfeld_split(mesh: TriMesh) -> TriMesh:
    """Barycentric refinement: each triangle splits into 3 at its
    barycenter; the parent map indexes the originating triangle.  The
    square order of a structured mesh carries over to its split.
    Triangle K's barycenter is vertex n_vertices + K, its children are
    3K..3K+2: the layout `TriMesh` checks and its readers rely on."""
    bary = mesh.barycenters()
    n_old = mesh.n_vertices
    vertices = np.vstack([mesh.vertices, bary])
    t = mesh.triangles
    b = n_old + np.arange(mesh.n_triangles)
    children = np.empty((3 * mesh.n_triangles, 3), dtype=np.int64)
    children[0::3] = np.column_stack([t[:, 0], t[:, 1], b])
    children[1::3] = np.column_stack([t[:, 1], t[:, 2], b])
    children[2::3] = np.column_stack([t[:, 2], t[:, 0], b])
    parent = np.repeat(np.arange(mesh.n_triangles), 3)
    return TriMesh(
        vertices=vertices,
        triangles=children,
        parent=parent,
        square_order=mesh.square_order,
    )


def quality_report(mesh: TriMesh) -> dict[str, float]:
    """Shape metrics: gamma = max h_K/rho_K, h ratio, mesh size.

    rho_K is the inscribed-circle diameter 4|K|/(a+b+c); degenerate
    elements are rejected by the TriMesh constructor already, but a
    near-zero area still surfaces here as an invalid-mesh error.
    """
    areas = mesh.signed_areas()
    if np.any(areas <= 1e-15):
        raise ValueError("degenerate triangle: nonpositive area")
    sides = mesh.side_lengths()
    h_K = sides.max(axis=1)
    rho_K = 4.0 * areas / sides.sum(axis=1)
    return {
        "gamma": float(np.max(h_K / rho_K)),
        "quasi_uniform_ratio": float(h_K.max() / h_K.min()),
        "h_max": float(h_K.max()),
    }
