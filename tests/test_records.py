"""Tests for the flat binary record formats and the VTK writer.

The byte-layout oracle builds the expected files by hand with the struct
module (header of five little-endian float64 values: kind, version 1 and
three kind-specific values, then the payload) and compares them byte for
byte with the writers; loaders are checked as exact round-trips, against
hand-made byte strings, and against records of the other kinds.
"""

import struct

import numpy as np
import pytest

from pstokes.grids import TimeGrid
from pstokes.meshing import alfeld_split, unit_square_mesh
from pstokes.noise import NoiseModel, WienerPath, sample_increments, sample_wiener_path
from pstokes.pressure import reconstruct
from pstokes.records import (
    export_vtk,
    load_checkpoints,
    load_pressure_components,
    load_wiener_path,
    pressure_cell_means,
    save_checkpoints,
    save_pressure_components,
    save_wiener_path,
    velocity_vertex_values,
)
from pstokes.spaces import Field, assemble, interpolate_velocity, velocity_at_qp
from pstokes.stepper import SchemeConfig, initial_velocity, run_trajectory
from pstokes.tensors import PowerLawParams

WIENER, VELOCITY, PRESSURE = 1.0, 2.0, 3.0


def header(kind: float, a: float, b: float, c: float) -> bytes:
    return struct.pack("<5d", kind, 1.0, a, b, c)


def u0_fn(pts):
    x, y = pts[..., 0], pts[..., 1]
    b = x * y * (1 - x) * (1 - y)
    psi_x = 2 * b * y * (1 - y) * (1 - 2 * x)
    psi_y = 2 * b * x * (1 - x) * (1 - 2 * y)
    return np.stack([psi_y, -psi_x], axis=-1)


@pytest.fixture(scope="module")
def ops2():
    return assemble(alfeld_split(unit_square_mesh(2)))


@pytest.fixture(scope="module")
def small_run(ops2):
    model = NoiseModel([lambda pts: u0_fn(pts)], rule="additive", amplitude=0.1)
    config = SchemeConfig(
        params=PowerLawParams(p=2.0, kappa=0.0),
        grid=TimeGrid(T=1.0, N=4),
        model=model,
    )
    u0 = initial_velocity(u0_fn, ops2)
    incs = sample_increments(np.random.default_rng(3), config.grid, n_modes=1)
    traj = run_trajectory(u0, incs, config, ops2)
    assert traj.ok
    return traj, config


# ---------------------------------------------------------------------------
# Wiener path records


def test_wiener_path_bytes_match_struct_oracle(tmp_path):
    rng = np.random.default_rng(0)
    path = sample_wiener_path(1.0, 0.25, 2, rng)
    file = tmp_path / "path.bin"
    save_wiener_path(path, file)
    raw = file.read_bytes()
    expected = header(WIENER, 0.25, 1.0, 2.0)
    # Mode-major payload: all of mode 0, then all of mode 1.
    for k in range(2):
        for j in range(4):
            expected += struct.pack("<d", path.increments[j, k])
    assert raw == expected


def test_wiener_path_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    path = sample_wiener_path(0.5, 0.5 / 64, 3, rng)
    file = tmp_path / "path.bin"
    save_wiener_path(path, file)
    back = load_wiener_path(file)
    assert back.T == path.T
    assert back.delta == path.delta
    assert back.n_modes == 3
    assert np.array_equal(back.increments, path.increments)


def test_wiener_path_loader_validates(tmp_path):
    file = tmp_path / "bad.bin"
    file.write_bytes(struct.pack("<2d", 0.25, 1.0))
    with pytest.raises(ValueError, match="too short"):
        load_wiener_path(file)
    # Header promises 4 cells x 2 modes; give 3 values only.
    file.write_bytes(header(WIENER, 0.25, 1.0, 2.0) + struct.pack("<3d", 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="does not tile"):
        load_wiener_path(file)
    file.write_bytes(header(WIENER, 0.25, 1.0, 2.5) + struct.pack("<d", 0.0))
    with pytest.raises(ValueError, match="positive integer"):
        load_wiener_path(file)
    # 2 cells per mode but delta implies 4.
    file.write_bytes(header(WIENER, 0.25, 1.0, 2.0) + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ValueError, match="header implies"):
        load_wiener_path(file)


def test_loaded_path_drives_identical_increments(tmp_path):
    grid = TimeGrid(T=1.0, N=4)
    path = sample_wiener_path(1.0, grid.tau / 8, 2, np.random.default_rng(11))
    file = tmp_path / "p.bin"
    save_wiener_path(path, file)
    a = sample_increments(path, grid)
    b = sample_increments(load_wiener_path(file), grid)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# velocity checkpoints


def test_checkpoints_bytes_match_struct_oracle(tmp_path, ops2):
    grid = TimeGrid(T=1.0, N=1)
    rng = np.random.default_rng(5)
    fields = [Field("velocity", rng.standard_normal(ops2.space_v.n_dofs)) for _ in range(2)]
    file = tmp_path / "traj.bin"
    save_checkpoints(fields, grid, file)
    expected = header(VELOCITY, grid.tau, 1.0, float(ops2.space_v.n_dofs))
    expected += fields[0].coeffs.astype("<f8").tobytes()
    expected += fields[1].coeffs.astype("<f8").tobytes()
    assert file.read_bytes() == expected


def test_checkpoints_round_trip(tmp_path, small_run, ops2):
    traj, config = small_run
    file = tmp_path / "traj.bin"
    save_checkpoints(traj.fields, config.grid, file)
    grid, fields = load_checkpoints(file)
    assert grid.N == config.grid.N and grid.T == config.grid.T
    for a, b in zip(traj.fields, fields):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_checkpoints_validation(tmp_path, ops2):
    grid = TimeGrid(T=1.0, N=2)
    v = Field("velocity", np.zeros(ops2.space_v.n_dofs))
    q = Field("pressure", np.zeros(ops2.n_pressure))
    with pytest.raises(ValueError, match="expected 3 checkpoints"):
        save_checkpoints([v, v], grid, tmp_path / "x.bin")
    with pytest.raises(ValueError, match="velocity fields"):
        save_checkpoints([v, q, v], grid, tmp_path / "x.bin")
    # Header step inconsistent with the row count.
    bad = header(VELOCITY, 0.2, 1.0, 2.0) + struct.pack("<4d", 0, 0, 0, 0)
    f = tmp_path / "bad.bin"
    f.write_bytes(bad)
    with pytest.raises(ValueError, match="disagrees"):
        load_checkpoints(f)
    # A fractional row length: three rows of 8 values, under a header
    # that is otherwise that of N = 2 steps on [0, 1].
    f.write_bytes(header(VELOCITY, 1 / 3, 1.0, 8.4) + struct.pack("<24d", *range(24)))
    with pytest.raises(ValueError, match="row length 8.4 is not a positive integer"):
        load_checkpoints(f)


# ---------------------------------------------------------------------------
# pressure components


def test_pressure_components_round_trip(tmp_path, small_run, ops2):
    traj, config = small_run
    ptraj = reconstruct(traj, None, config, ops2)
    file = tmp_path / "press.bin"
    save_pressure_components(ptraj, config.grid, file)
    grid, pi_init, pi_det, pi_sto = load_pressure_components(file)
    assert grid.N == config.grid.N
    assert np.array_equal(pi_init.coeffs, ptraj.pi_init.coeffs)
    assert len(pi_det) == len(pi_sto) == config.grid.N
    for a, b in zip(pi_det, ptraj.pi_det):
        assert np.array_equal(a.coeffs, b.coeffs)
    for a, b in zip(pi_sto, ptraj.pi_sto):
        assert np.array_equal(a.coeffs, b.coeffs)
    assert all(f.kind == "pressure" for f in [pi_init] + pi_det + pi_sto)


def test_pressure_components_reject_even_rows(tmp_path):
    f = tmp_path / "bad.bin"
    f.write_bytes(header(PRESSURE, 0.5, 1.0, 2.0) + struct.pack("<4d", 0, 0, 0, 0))
    with pytest.raises(ValueError, match="odd row count"):
        load_pressure_components(f)


def test_pressure_components_validation(tmp_path):
    f = tmp_path / "bad.bin"
    # A fractional row length: three rows of 8 values, under a header
    # that is otherwise that of N = 1 step on [0, 1].
    f.write_bytes(header(PRESSURE, 0.5, 1.0, 8.4) + struct.pack("<24d", *range(24)))
    with pytest.raises(ValueError, match="row length 8.4 is not a positive integer"):
        load_pressure_components(f)
    # 5 rows of 2 values: N = 2 steps, whose step is 1/3, not 0.5
    f.write_bytes(header(PRESSURE, 0.5, 1.0, 2.0) + struct.pack("<10d", *range(10)))
    with pytest.raises(ValueError, match="disagrees"):
        load_pressure_components(f)
    f.write_bytes(header(PRESSURE, 1 / 3, 1.0, 2.0) + struct.pack("<9d", *range(9)))
    with pytest.raises(ValueError, match="does not tile"):
        load_pressure_components(f)


# ---------------------------------------------------------------------------
# record kinds


@pytest.fixture(scope="module")
def records_of_each_kind(tmp_path_factory, small_run, ops2):
    """One file of each kind.  Without the kind slot the first two load
    as each other: the velocity checkpoints (N = 7, 50 dofs) as a
    50-mode Wiener path, the Wiener path (delta = T/16, 3 modes) as 16
    velocity checkpoints of 3 dofs.  The third is the pressure
    components of a stepped run."""
    folder = tmp_path_factory.mktemp("kinds")
    grid = TimeGrid(T=1.0, N=7)
    rng = np.random.default_rng(2)
    files = {}
    files["velocity"] = (
        folder / "traj.bin",
        [Field("velocity", rng.standard_normal(50)) for _ in range(grid.N + 1)],
    )
    save_checkpoints(files["velocity"][1], grid, files["velocity"][0])
    files["wiener"] = (folder / "path.bin", sample_wiener_path(1.0, 1.0 / 16, 3, rng))
    save_wiener_path(files["wiener"][1], files["wiener"][0])
    traj, config = small_run
    files["pressure"] = (folder / "press.bin", reconstruct(traj, None, config, ops2))
    save_pressure_components(files["pressure"][1], config.grid, files["pressure"][0])
    return files


LOADERS = {
    "wiener": load_wiener_path,
    "velocity": load_checkpoints,
    "pressure": load_pressure_components,
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_each_loader_refuses_other_kinds(records_of_each_kind, kind):
    for other, (file, _) in records_of_each_kind.items():
        if other != kind:
            with pytest.raises(ValueError, match="record kind"):
                LOADERS[kind](file)


def test_each_kind_round_trips(records_of_each_kind):
    file, path = records_of_each_kind["wiener"]
    back = load_wiener_path(file)
    assert (back.T, back.delta) == (path.T, path.delta)
    assert np.array_equal(back.increments, path.increments)
    file, fields = records_of_each_kind["velocity"]
    grid, back = load_checkpoints(file)
    assert grid.N == 7
    assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(fields, back))
    file, ptraj = records_of_each_kind["pressure"]
    _, pi_init, pi_det, pi_sto = load_pressure_components(file)
    assert np.array_equal(pi_init.coeffs, ptraj.pi_init.coeffs)
    for a, b in zip(pi_det + pi_sto, ptraj.pi_det + ptraj.pi_sto):
        assert np.array_equal(a.coeffs, b.coeffs)


def test_loader_refuses_other_format_version(tmp_path):
    f = tmp_path / "v2.bin"
    f.write_bytes(struct.pack("<5d", WIENER, 2.0, 0.25, 1.0, 1.0) + struct.pack("<4d", 0, 0, 0, 0))
    with pytest.raises(ValueError, match="version"):
        load_wiener_path(f)


# ---------------------------------------------------------------------------
# VTK export


def test_vtk_header_and_counts(tmp_path, ops2, small_run):
    traj, config = small_run
    mesh = ops2.space_v.mesh
    ptraj = reconstruct(traj, None, config, ops2)
    vel = velocity_vertex_values(traj.fields[-1], ops2)
    prs = pressure_cell_means(ptraj.pi_det[-1], ops2)
    file = tmp_path / "out.vtk"
    export_vtk(file, mesh, point_data={"velocity": vel}, cell_data={"pressure_det": prs})
    lines = file.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == f"POINTS {mesh.n_vertices} double"
    ci = lines.index(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
    first_cell = lines[ci + 1].split()
    assert first_cell[0] == "3" and len(first_cell) == 4
    assert f"POINT_DATA {mesh.n_vertices}" in lines
    assert "VECTORS velocity double" in lines
    assert f"CELL_DATA {mesh.n_triangles}" in lines
    assert "SCALARS pressure_det double 1" in lines
    # Every vertex line carries a zero z-coordinate.
    pt = lines[5].split()
    assert len(pt) == 3 and pt[2] == "0"


def test_vtk_points_match_mesh_exactly(tmp_path, ops2):
    mesh = ops2.space_v.mesh
    file = tmp_path / "mesh.vtk"
    export_vtk(file, mesh)
    lines = file.read_text().splitlines()
    pts = np.array([[float(v) for v in ln.split()] for ln in lines[5 : 5 + mesh.n_vertices]])
    assert np.array_equal(pts[:, :2], mesh.vertices)
    tri_start = lines.index(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}") + 1
    tris = np.array(
        [[int(v) for v in ln.split()[1:]] for ln in lines[tri_start : tri_start + mesh.n_triangles]]
    )
    assert np.array_equal(tris, mesh.triangles)


def test_vtk_rejects_bad_fields(tmp_path, ops2):
    mesh = ops2.space_v.mesh
    with pytest.raises(ValueError, match="may not contain spaces"):
        export_vtk(tmp_path / "x.vtk", mesh, point_data={"a b": np.zeros(mesh.n_vertices)})
    with pytest.raises(ValueError, match="expected"):
        export_vtk(tmp_path / "x.vtk", mesh, cell_data={"q": np.zeros(mesh.n_triangles + 1)})
    with pytest.raises(ValueError, match="unsupported shape"):
        export_vtk(tmp_path / "x.vtk", mesh, point_data={"v": np.zeros((mesh.n_vertices, 3))})


def test_vertex_values_match_nodal_interpolation(ops2):
    v = interpolate_velocity(u0_fn, ops2, zero_boundary=False)
    vv = velocity_vertex_values(v, ops2)
    mesh = ops2.space_v.mesh
    assert vv.shape == (mesh.n_vertices, 2)
    assert np.allclose(vv, u0_fn(mesh.vertices), atol=1e-15)


def test_pressure_cell_means_constant_field(ops2):
    q = Field("pressure", np.full(ops2.n_pressure, 2.5))
    assert np.allclose(pressure_cell_means(q, ops2), 2.5)
    with pytest.raises(ValueError, match="pressure"):
        pressure_cell_means(Field("velocity", np.zeros(ops2.space_v.n_dofs)), ops2)
