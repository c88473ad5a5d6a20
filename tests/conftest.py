"""Fixtures shared by several test modules."""

import numpy as np
import pytest
import scipy.sparse as sp

from pstokes.meshing import TriMesh, unit_square_mesh
from pstokes.spaces import _free_local_dofs, element_basis


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


@pytest.fixture(scope="session")
def free_element_basis():
    """Builds the element basis of the free velocity dofs of an operator
    bundle: the identity basis, every element its own group.  The
    tangent on it is the free-dof tangent the stream tangent and the
    saddle solves are checked against."""

    def build(ops):
        n_tri = ops.qw.shape[0]
        identity = sp.identity(ops.n_free, format="csc")
        return element_basis(ops, _free_local_dofs(ops), identity, np.arange(n_tri))

    return build
