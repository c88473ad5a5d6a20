"""On-disk records: flat little-endian binaries and legacy VTK export.

All binary records share one layout: a five-value header followed by a
row-major float64 payload, everything little-endian.  The header holds
the record kind, the format version and three values that depend on the
kind:

  - kind 1, Wiener path:        (delta, T, n_modes), payload one mode
    after another (mode-major), n_cells values per mode;
  - kind 2, velocity trajectory: (tau, T, n_dofs), payload the
    checkpoints u_0..u_N one step after another;
  - kind 3, pressure components: (tau, T, n_pressure), payload the
    initial part, then the N cumulative deterministic parts, then the N
    cumulative stochastic parts.

Each loader accepts only its own kind and the current version, so a
record of one kind never loads as another even when the sizes happen to
tile.  A mode count or row length must be a positive integer, and row
counts are inferred from the file size and cross-checked against the
header, so a truncated file fails loudly instead of shifting data.
VTK output uses the legacy ASCII unstructured-grid format with velocity
vectors at mesh vertices as point data and per-cell means of
discontinuous-P1 fields as cell data.
"""

from __future__ import annotations

import os

import numpy as np

from .grids import TimeGrid
from .meshing import TriMesh
from .noise import WienerPath
from .spaces import AssembledOperators, Field

_HEADER_DTYPE = np.dtype("<f8")
_HEADER_SLOTS = 5
_VERSION = 1
_WIENER, _VELOCITY, _PRESSURE = 1, 2, 3
_KINDS = {_WIENER: "Wiener path", _VELOCITY: "velocity checkpoints", _PRESSURE: "pressure components"}


def _write_record(
    file: str | os.PathLike, kind: int, values: tuple[float, float, float], payload: np.ndarray
) -> None:
    head = np.asarray((kind, _VERSION) + tuple(values), dtype=_HEADER_DTYPE)
    body = np.ascontiguousarray(payload, dtype=_HEADER_DTYPE)
    with open(file, "wb") as fh:
        fh.write(head.tobytes())
        fh.write(body.tobytes())


def _read_record(file: str | os.PathLike, kind: int) -> tuple[np.ndarray, np.ndarray]:
    """(the three kind-specific header values, payload) of a record that
    must be of the given kind and the current version."""
    raw = np.fromfile(file, dtype=_HEADER_DTYPE)
    if raw.size < _HEADER_SLOTS:
        raise ValueError(f"{file}: too short to hold a record header")
    found, version = float(raw[0]), float(raw[1])
    if found != kind:
        what = _KINDS.get(found, "unknown")
        raise ValueError(f"{file}: record kind {found:g} ({what}), expected {_KINDS[kind]}")
    if version != _VERSION:
        raise ValueError(f"{file}: record format version {version:g}, expected {_VERSION}")
    return raw[2:_HEADER_SLOTS], raw[_HEADER_SLOTS:]


def _count(file: str | os.PathLike, value: float, what: str) -> int:
    """A header value that must be a positive integer."""
    if not (value.is_integer() and value >= 1):
        raise ValueError(f"{file}: {what} {value} is not a positive integer")
    return int(value)


def _read_stepped(
    file: str | os.PathLike, kind: int, per_step: int
) -> tuple[TimeGrid, np.ndarray]:
    """(grid, rows) of a stepped record: 1 + per_step N whole rows under
    a (tau, T, row length) header whose step is the grid's."""
    head, flat = _read_record(file, kind)
    tau, T = float(head[0]), float(head[1])
    row_len = _count(file, float(head[2]), "row length")
    if flat.size % row_len:
        raise ValueError(f"{file}: payload of {flat.size} values does not tile rows of {row_len}")
    rows = flat.reshape(-1, row_len)
    N, extra = divmod(len(rows) - 1, per_step)
    if extra:  # two rows per step: the components of pi_det and pi_sto
        raise ValueError(f"{file}: component record needs an odd row count, got {len(rows)}")
    grid = TimeGrid(T=T, N=N)
    if not np.isclose(grid.tau, tau, rtol=1e-12, atol=0.0):
        raise ValueError(f"{file}: header step {tau} disagrees with {grid.N} steps on [0, {T}]")
    return grid, rows


# ---------------------------------------------------------------------------
# Wiener paths


def save_wiener_path(path: WienerPath, file: str | os.PathLike) -> None:
    """Write the fine increments mode-major under a (delta, T, M) header."""
    _write_record(file, _WIENER, (path.delta, path.T, float(path.n_modes)), path.increments.T)


def load_wiener_path(file: str | os.PathLike) -> WienerPath:
    head, flat = _read_record(file, _WIENER)
    delta, T = float(head[0]), float(head[1])
    n_modes = _count(file, float(head[2]), "mode count")
    if flat.size % n_modes:
        raise ValueError(f"{file}: payload of {flat.size} values does not tile {n_modes} modes")
    increments = flat.reshape(n_modes, -1).T
    expected = int(np.ceil(T / delta - 1e-9))
    if increments.shape[0] != expected:
        raise ValueError(
            f"{file}: {increments.shape[0]} cells per mode but the header implies {expected}"
        )
    return WienerPath(T=T, delta=delta, increments=np.ascontiguousarray(increments))


# ---------------------------------------------------------------------------
# velocity checkpoints


def save_checkpoints(fields: list[Field], grid: TimeGrid, file: str | os.PathLike) -> None:
    """Write velocity checkpoints u_0..u_N under a (tau, T, n_dofs) header."""
    if len(fields) != grid.N + 1:
        raise ValueError(f"expected {grid.N + 1} checkpoints for the grid, got {len(fields)}")
    kinds = {f.kind for f in fields}
    if kinds != {"velocity"}:
        raise ValueError(f"checkpoints must be velocity fields, got kinds {sorted(kinds)}")
    U = np.vstack([f.coeffs for f in fields])
    _write_record(file, _VELOCITY, (grid.tau, grid.T, float(U.shape[1])), U)


def load_checkpoints(file: str | os.PathLike) -> tuple[TimeGrid, list[Field]]:
    grid, U = _read_stepped(file, _VELOCITY, 1)
    return grid, [Field("velocity", row.copy()) for row in U]


# ---------------------------------------------------------------------------
# pressure components


def save_pressure_components(ptraj, grid: TimeGrid, file: str | os.PathLike) -> None:
    """Write (initial, deterministic, stochastic) parts as stacked rows."""
    N = len(ptraj.pi_det)
    if N != grid.N or len(ptraj.pi_sto) != N:
        raise ValueError("pressure trajectory length disagrees with the grid")
    rows = [ptraj.pi_init.coeffs]
    rows += [f.coeffs for f in ptraj.pi_det]
    rows += [f.coeffs for f in ptraj.pi_sto]
    P = np.vstack(rows)
    _write_record(file, _PRESSURE, (grid.tau, grid.T, float(P.shape[1])), P)


def load_pressure_components(
    file: str | os.PathLike,
) -> tuple[TimeGrid, Field, list[Field], list[Field]]:
    grid, P = _read_stepped(file, _PRESSURE, 2)
    N = grid.N
    pi_init = Field("pressure", P[0].copy())
    pi_det = [Field("pressure", row.copy()) for row in P[1 : N + 1]]
    pi_sto = [Field("pressure", row.copy()) for row in P[N + 1 :]]
    return grid, pi_init, pi_det, pi_sto


# ---------------------------------------------------------------------------
# VTK legacy ASCII export


def velocity_vertex_values(field: Field, ops: AssembledOperators) -> np.ndarray:
    """Velocity vectors at the mesh vertices (the P2 vertex nodes)."""
    if field.kind != "velocity":
        raise ValueError("expected a velocity field")
    n_vert = ops.space_v.mesh.n_vertices
    return field.coeffs.reshape(-1, 2)[:n_vert]


def pressure_cell_means(field: Field, ops: AssembledOperators) -> np.ndarray:
    """Per-triangle mean of a discontinuous-P1 field (its P0 part)."""
    if field.kind != "pressure":
        raise ValueError("expected a pressure field")
    return field.coeffs.reshape(-1, 3).mean(axis=1)


def export_vtk(
    file: str | os.PathLike,
    mesh: TriMesh,
    point_data: dict[str, np.ndarray] | None = None,
    cell_data: dict[str, np.ndarray] | None = None,
    title: str = "pstokes output",
) -> None:
    """Write the mesh and optional fields as a legacy ASCII VTK file.

    point_data values are per-vertex scalars (shape (n_vertices,)) or
    vectors (shape (n_vertices, 2), padded with a zero z-component);
    cell_data values are per-triangle scalars.
    """
    nv, nt = mesh.n_vertices, mesh.n_triangles
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} 0")
    lines.append(f"CELLS {nt} {4 * nt}")
    for tri in mesh.triangles:
        lines.append(f"3 {tri[0]} {tri[1]} {tri[2]}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)

    def emit_fields(data: dict[str, np.ndarray], n_expected: int, where: str) -> None:
        for name, values in data.items():
            arr = np.asarray(values, dtype=float)
            if " " in name:
                raise ValueError(f"VTK field name {name!r} may not contain spaces")
            if arr.ndim == 1:
                if arr.shape != (n_expected,):
                    raise ValueError(f"{where} field {name!r}: expected {n_expected} scalars")
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(f"{v:.17g}" for v in arr)
            elif arr.ndim == 2 and arr.shape == (n_expected, 2):
                lines.append(f"VECTORS {name} double")
                lines.extend(f"{v[0]:.17g} {v[1]:.17g} 0" for v in arr)
            else:
                raise ValueError(f"{where} field {name!r}: unsupported shape {arr.shape}")

    if point_data:
        lines.append(f"POINT_DATA {nv}")
        emit_fields(point_data, nv, "point")
    if cell_data:
        lines.append(f"CELL_DATA {nt}")
        emit_fields(cell_data, nt, "cell")
    with open(file, "w") as fh:
        fh.write("\n".join(lines) + "\n")
