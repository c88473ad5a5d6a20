"""Mesh construction, Alfeld refinement, and quality metrics."""

import numpy as np
import pytest

from pstokes.meshing import TriMesh, alfeld_split, quality_report, unit_square_mesh


class TestUnitSquare:
    def test_minimal_mesh(self):
        mesh = unit_square_mesh(1)
        assert mesh.n_triangles == 2
        assert mesh.n_vertices == 4

    def test_counts_and_boundary_flags(self):
        mesh = unit_square_mesh(4)
        assert mesh.n_triangles == 32
        assert mesh.n_vertices == 25
        on_box = (
            np.isclose(mesh.vertices[:, 0], 0.0)
            | np.isclose(mesh.vertices[:, 0], 1.0)
            | np.isclose(mesh.vertices[:, 1], 0.0)
            | np.isclose(mesh.vertices[:, 1], 1.0)
        )
        assert int(on_box.sum()) == 16
        np.testing.assert_array_equal(mesh.boundary_vertex, on_box)

    def test_total_area_is_one(self):
        for m in (1, 3, 8):
            mesh = unit_square_mesh(m)
            assert mesh.signed_areas().sum() == pytest.approx(1.0, abs=1e-14)

    def test_h_max(self):
        mesh = unit_square_mesh(5)
        assert mesh.h_max == pytest.approx(np.sqrt(2.0) / 5.0)

    def test_zero_subdivision_rejected(self):
        with pytest.raises(ValueError):
            unit_square_mesh(0)

    def test_euler_formula(self):
        for mesh in (unit_square_mesh(3), alfeld_split(unit_square_mesh(3))):
            assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1

    def test_orientation_positive(self):
        mesh = alfeld_split(unit_square_mesh(6))
        assert np.all(mesh.signed_areas() > 0.0)

    def test_conforming_interior_edges(self):
        mesh = alfeld_split(unit_square_mesh(3))
        # every edge is in 1 (boundary) or 2 (interior) triangles; the
        # constructor enforces <= 2, this checks the partition
        n_boundary = int(mesh.boundary_edge.sum())
        incidences = 3 * mesh.n_triangles
        assert incidences == n_boundary + 2 * (mesh.n_edges - n_boundary)

    def test_refinement_nesting(self):
        coarse = unit_square_mesh(2)
        fine = unit_square_mesh(4)
        for v in coarse.vertices:
            assert np.min(np.linalg.norm(fine.vertices - v, axis=1)) < 1e-14

    def test_arrays_read_only(self):
        # a mesh moved in place would keep what was derived from it (its
        # square order, its edges), so the arrays refuse writes; the
        # caller's own arrays are copied, not frozen
        verts = unit_square_mesh(2).vertices.copy()
        mesh = TriMesh(verts, unit_square_mesh(2).triangles)
        split = alfeld_split(mesh)
        for m in (mesh, split):
            for name in ("vertices", "triangles", "edges", "triangle_edges",
                         "boundary_vertex", "boundary_edge"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(m, name)[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            split.parent[0] = 1
        verts[4] += 0.01
        assert mesh.vertices[4, 0] == 0.5


class TestAlfeldSplit:
    def test_two_triangle_example(self):
        split = alfeld_split(unit_square_mesh(1))
        assert split.n_triangles == 6
        assert split.n_vertices == 6

    def test_child_areas_are_thirds(self):
        mesh = unit_square_mesh(3)
        split = alfeld_split(mesh)
        parent_areas = mesh.signed_areas()
        child_areas = split.signed_areas()
        for t in range(split.n_triangles):
            assert child_areas[t] == pytest.approx(
                parent_areas[split.parent[t]] / 3.0, abs=1e-14
            )

    def test_parent_map_covers_all(self):
        mesh = unit_square_mesh(2)
        split = alfeld_split(mesh)
        assert sorted(set(split.parent)) == list(range(mesh.n_triangles))

    def test_shape_regularity_bounded_by_three_times_parent(self):
        for m in (1, 2, 4, 8):
            mesh = unit_square_mesh(m)
            split = alfeld_split(mesh)
            gp = quality_report(mesh)["gamma"]
            gc = quality_report(split)["gamma"]
            assert np.isfinite(gc)
            assert gc <= 3.0 * gp

    @pytest.mark.parametrize("case", ["children elsewhere", "unsplit", "permuted"])
    def test_mesh_refuses_parent_maps_off_the_alfeld_layout(self, case):
        """A parent map must come with the layout of alfeld_split; the
        mesh names the first macro-element that breaks it."""
        split = alfeld_split(unit_square_mesh(2))
        n = split.n_triangles
        verts, tris, parent = split.vertices, split.triangles.copy(), split.parent
        if case == "children elsewhere":
            parent, bad = (n - 1 - np.arange(n)) // 3, 0
        elif case == "unsplit":
            # triples of elements of an unsplit mesh posing as macro-elements
            base = unit_square_mesh(3)
            verts, tris, parent, bad = base.vertices, base.triangles, np.arange(18) // 3, 0
        else:
            # the last two children of macro-element 2 swapped: every
            # child keeps its orientation, but the shared vertices do not
            # chain (a, b, z), (b, c, z), (c, a, z)
            tris[[7, 8]] = tris[[8, 7]]
            bad = 2
        with pytest.raises(ValueError, match=f"macro-element {bad} breaks the layout"):
            TriMesh(verts, tris, parent)

    def test_barycenters_are_interior(self):
        split = alfeld_split(unit_square_mesh(2))
        new = split.vertices[unit_square_mesh(2).n_vertices :]
        assert np.all((new > 0.0) & (new < 1.0))


class TestQuality:
    def test_equilateral_gamma(self):
        tri = TriMesh(
            vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]),
            triangles=np.array([[0, 1, 2]]),
        )
        assert quality_report(tri)["gamma"] == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_uniform_mesh_congruent_elements(self):
        mesh = unit_square_mesh(5)
        sides = mesh.side_lengths()
        h_K = sides.max(axis=1)
        assert h_K.max() == pytest.approx(h_K.min(), rel=1e-12)
        assert quality_report(mesh)["quasi_uniform_ratio"] == pytest.approx(1.0)

    def test_split_quasi_uniform_ratio_is_m_independent(self):
        # Children of congruent parents are congruent across the whole
        # structured family, so the split ratio is one fixed number
        # (sqrt 2: longest child diameter = parent hypotenuse, shortest =
        # parent leg) for every m, and stays within the paper's bound 4.
        ratios = [
            quality_report(alfeld_split(unit_square_mesh(m)))["quasi_uniform_ratio"]
            for m in (1, 2, 4, 8)
        ]
        for r in ratios:
            assert r == pytest.approx(np.sqrt(2.0), rel=1e-12)
            assert r <= 4.0

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(ValueError):
            TriMesh(
                vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                triangles=np.array([[0, 1, 2]]),
            )

    def test_misoriented_triangle_rejected(self):
        with pytest.raises(ValueError):
            TriMesh(
                vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                triangles=np.array([[0, 2, 1]]),
            )
