"""Spans around the calls into each `pstokes` layer, for the traced run.

Nothing under `src/` knows about tracing.  `instrument` replaces module
attributes with timing wrappers for the duration of a `with` block and
restores them afterwards.  A wrapper is installed in the namespace of the
*caller* (for example `pstokes.stepper.stress_residual_vector`), so a span
names the layer boundary as seen from that caller: the per-step kernels
are timed where `pstokes.stepper` calls them, and the calls that
`pstokes.pressure` makes to the same kernels stay inside the
`pressure.reconstruct` span.

A span is (name, start, end, parent, unit).  `unit` names the piece of
benchmark work the span belongs to ("setup", "study0/sample1", ...), so
the spans of one Monte Carlo sample share an identifier.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import scipy.sparse.linalg as spla

import pstokes.diagnostics as diagnostics
import pstokes.meshing as meshing
import pstokes.noise as noise
import pstokes.pressure as pressure
import pstokes.spaces as spaces
import pstokes.stepper as stepper

ROOT_SPAN = "bench.pass"
CHECK_SPAN = "bench.check"

# Bytes per stored factor entry, as computed from nnz: one float64 value
# and one int32 index.  Supernode bookkeeping is not counted.
FACTOR_ENTRY_BYTES = 12


class Tracer:
    """Records nested spans and the counts observed at span boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.unit = ""
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1], self.unit])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, observe=None):
        """fn with every call recorded as a span; `name` is a string or a
        function of the call arguments, `observe(tracer, result)` sees
        each result."""

        def traced(*args, **kwargs):
            idx = self._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time (duration minus the time its
        direct children cover) and number of spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        selfs: dict[str, float] = {}
        calls: dict[str, int] = {}
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            selfs[name] = selfs.get(name, 0.0) + (t1 - t0) - c
            calls[name] = calls.get(name, 0) + 1
        return selfs, calls

    def inclusive(self, name: str) -> float:
        return sum(t1 - t0 for n, t0, t1, _, _ in self.spans if n == name)

    def write(self, path: Path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, (name, t0, t1, parent, unit) in enumerate(self.spans):
                rec = {
                    "id": i,
                    "parent": parent,
                    "name": name,
                    "unit": unit,
                    "start": t0 - origin,
                    "end": t1 - origin,
                }
                out.write(json.dumps(rec) + "\n")


# -- what is instrumented ---------------------------------------------------


def _observe_factor(tracer: Tracer, lu) -> None:
    tracer.add("stepper.factor_nnz", lu.L.nnz + lu.U.nnz)


def _error_stats_name(coarse_trajs, ref_trajs, cfg_c, cfg_r, ops_c, ops_r, *a, **k) -> str:
    same = ops_c is ops_r
    return "diagnostics.error_stats." + ("same_mesh" if same else "cross_mesh")


class _ModuleView:
    """A module with some attributes replaced; everything else delegates."""

    def __init__(self, module, **replaced) -> None:
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _points(tracer: Tracer):
    """(owner, attribute, replacement) for every instrumented boundary."""
    w = tracer.wrap
    points = [
        (meshing, "unit_square_mesh", w(meshing.unit_square_mesh, "meshing.build")),
        (meshing, "alfeld_split", w(meshing.alfeld_split, "meshing.build")),
        (spaces, "assemble", w(spaces.assemble, "spaces.assemble")),
        (
            spaces.AssembledOperators,
            "projection_saddle",
            w(spaces.AssembledOperators.projection_saddle, "spaces.projection_saddle"),
        ),
        (stepper, "stream_curl_basis",
         w(stepper.stream_curl_basis, "streamfunc.stream_curl_basis")),
        (stepper, "initial_velocity", w(stepper.initial_velocity, "stepper.initial_velocity")),
        (stepper, "run_trajectory", w(stepper.run_trajectory, "stepper.run_trajectory")),
        (stepper, "dissipation_pairing",
         w(stepper.dissipation_pairing, "stepper.dissipation_pairing")),
        (stepper, "data_G_n", w(stepper.data_G_n, "noise.data_G_n")),
        (stepper, "spla", _ModuleView(
            spla, splu=w(spla.splu, "stepper.factorize", observe=_observe_factor))),
        (pressure, "reconstruct", w(pressure.reconstruct, "pressure.reconstruct")),
        (diagnostics, "stability_stats", w(diagnostics.stability_stats,
                                           "diagnostics.stability_stats")),
        (diagnostics, "error_stats", w(diagnostics.error_stats, _error_stats_name)),
        (diagnostics, "temporal_oscillation",
         w(diagnostics.temporal_oscillation, "diagnostics.temporal_oscillation")),
    ]
    for kernel in ("stress_residual_vector", "velocity_load_vector", "velocity_at_qp",
                   "stress_tangent_matrix"):
        points.append((stepper, kernel, w(getattr(stepper, kernel), f"spaces.{kernel}")))
    for fn in ("sample_increments", "sample_wiener_path"):
        points.append((noise, fn, w(getattr(noise, fn), "noise.sample")))
    return points


@contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    points = _points(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in points]
    try:
        for owner, attr, replacement in points:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
