"""Fixtures shared by several test modules."""

import numpy as np
import pytest

from pstokes.meshing import TriMesh, unit_square_mesh


@pytest.fixture(scope="session")
def jiggled_mesh() -> TriMesh:
    """unit_square_mesh(4) with its interior vertices moved at random
    (+0.05 N(0, 1), seed 1) and rebuilt: no two macro-elements are
    congruent, and the mesh records no square order."""
    base = unit_square_mesh(4)
    verts = base.vertices.copy()
    inner = ~base.boundary_vertex
    verts[inner] += 0.05 * np.random.default_rng(1).standard_normal((inner.sum(), 2))
    return TriMesh(verts, base.triangles)
