"""Measurement loops, failure accounting and output checks.

An untraced run sets the workload up once, runs whole studies back to
back until the time budget is spent, then sets it up again until it has
done so at least SETUP_MIN_REPEATS times and for SETUP_MIN_SECONDS.
setup_s is the median set-up time, samples_per_s the median over studies
of completed samples per second of program time, both scaled to seconds
of the reference machine by the probe (probe.py): studies by the probes
run before every study, set-ups by the probes run just before and just
after every set-up.  The time of the benchmark's own output checks is not
program time.

A traced run starts with one untraced warm-up pass (one set-up plus
study 0), then alternates traced and untraced passes over the same work
until the time budget is spent.  Layer metrics come from the traced pass
of median wall time; the median traced over the median untraced wall
time, minus one, is the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

from pstokes.spaces import divergence_pointwise_max

import spans as tr
from probe import REFERENCE_S as PROBE_REFERENCE_S, MachineProbe

# Set-up is repeated at least this often and until this much time is
# spent, so that the median is steady even where one set-up takes
# milliseconds.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 4.0
SETUP_MAX_REPEATS = 200
PROBE_EVERY_S = 0.5

# Same tolerances as the package's own stepper tests: the energy defect
# within 10 Newton tolerances and the pointwise divergence within 1e-8,
# both relative to the size of the field where that exceeds 1.
ENERGY_TOL_FACTOR = 10.0
DIV_TOL = 1e-8
# `pressure.reconstruct(verify=True)` raises above this residual.
RECONSTRUCTION_TOL = 1e-6
GOLDEN_RTOL = 1e-6


class _NoTracer:
    unit = ""

    def span(self, name):
        return nullcontext()


@dataclass
class Ledger:
    """Operations attempted and failed, and seconds spent in program calls."""

    tracer: object = field(default_factory=_NoTracer)
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    problems: list[str] = field(default_factory=list)

    def timed(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), its wall time added to `seconds`."""
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += perf_counter() - t0

    def checked(self, label: str, n: int, check) -> bool:
        """Count n operations; they fail together if check() returns
        problems or raises."""
        self.attempted += n
        with self.tracer.span(tr.CHECK_SPAN):
            try:
                problems = check()
            except Exception as exc:  # a raising check is a failed operation
                problems = [f"check raised {exc!r}"]
        if problems:
            self.fail(label, n, "; ".join(problems))
            return False
        return True

    def op(self, label: str, n: int, work, check):
        """Run work() timed and check(result) untimed, counting n
        operations; returns the result, or None if either failed."""
        try:
            result = self.timed(work)
        except Exception as exc:  # keep measuring; the failure is counted
            self.attempted += n
            self.fail(label, n, "raised " + "".join(traceback.format_exception_only(exc)).strip())
            return None
        return result if self.checked(label, n, lambda: check(result)) else None

    def fail(self, label: str, n: int, why: str) -> None:
        self.failed += n
        self.problems.append(f"{label}: {why}")
        print(f"FAILED {label}: {why}", file=sys.stderr)


# -- output checks ----------------------------------------------------------


def trajectory_problems(traj, ops, config) -> list[str]:
    """Every step converged, the energy identity holds and every field is
    pointwise divergence free, all to solver tolerance."""
    if not traj.ok:
        return [f"trajectory failed at step {traj.failed_at}"]
    problems = []
    if not all(s.converged for s in traj.stats):
        problems.append("a step did not converge")
    M = ops.M_full
    energy = max(float(f.coeffs @ (M @ f.coeffs)) for f in traj.fields)
    defect = max((abs(s.energy_defect) for s in traj.stats), default=0.0)
    if not defect <= ENERGY_TOL_FACTOR * config.newton.abs_tol * max(1.0, energy):
        problems.append(f"energy defect {defect:.3e} at energy {energy:.3e}")
    grad_scale = max(np.abs(f.coeffs).max() for f in traj.fields) / ops.space_v.mesh.h_max
    div = max(divergence_pointwise_max(f, ops) for f in traj.fields)
    if not div <= DIV_TOL * max(1.0, grad_scale):
        problems.append(f"max |div u| {div:.3e}")
    return problems


def finite_problems(name: str, values) -> list[str]:
    bad = [k for k, v in values.items() if v is not None and not np.all(np.isfinite(v))]
    return [f"{name}: non-finite {', '.join(bad)}"] if bad else []


def golden_problems(name: str, got: float, want: float) -> list[str]:
    if math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=0.0):
        return []
    return [f"{name} = {got!r}, recorded {want!r}"]


# -- measurement ------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probed_setup(workload, probe):
    """(state, seconds) of one set-up, with a probe just before and after."""
    probe()
    t0 = perf_counter()
    state = workload.setup()
    dt = perf_counter() - t0
    probe()
    return state, dt


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics plus the counts behind them."""
    setup_probe = MachineProbe()
    state, dt = _probed_setup(workload, setup_probe)
    setup_times = [dt]

    probe = MachineProbe()
    ledger = Ledger()
    rates = []
    start = perf_counter()
    study = 0
    last = 0.0  # program seconds of the previous study
    while study == 0 or perf_counter() - start < seconds:
        # about one probe per PROBE_EVERY_S of program time, so that runs
        # of a few long studies get as steady a median as the rest
        for _ in range(max(1, round(last / PROBE_EVERY_S))):
            probe()
        before = ledger.seconds
        completed = workload.study(state, seed, study, ledger)
        last = ledger.seconds - before
        rates.append(completed / last)
        if study == 0:
            # set-up plus one study: what a user's process needs.  Later
            # studies and set-ups only add heap fragmentation, which
            # varies from process to process.
            peak_rss = peak_rss_mb()
        study += 1
    counts = {**state.counts, "projection_saddle_lu_nnz": workload.saddle_nnz(state)}

    while (
        len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS
    ) and len(setup_times) < SETUP_MAX_REPEATS:
        state = None  # release the previous set-up before timing the next
        state, dt = _probed_setup(workload, setup_probe)
        setup_times.append(dt)
    # seconds of the reference machine per second of this one, while
    # studying and while setting up
    speed = PROBE_REFERENCE_S / median(probe.times)
    setup_speed = PROBE_REFERENCE_S / median(setup_probe.times)
    return {
        "ledger": ledger,
        "metrics": {
            "setup_s": (median(setup_times) * setup_speed, "s"),
            "samples_per_s": (median(rates) / speed, "1/s"),
            "peak_rss_mb": (peak_rss, "MB"),
        },
        "detail": {
            "speed": speed,
            "setup_speed": setup_speed,
            "probe_s": [min(probe.times), median(probe.times), max(probe.times)],
            "setup_s_wall": median(setup_times),
            "samples_per_s_wall": median(rates),
            "setup_repeats": len(setup_times),
            "samples_per_s_wall_by_study": rates,
            "program_seconds": ledger.seconds,
            "counts": counts,
        },
    }


def _pass(workload, seed: int, ledger: Ledger, tracer=None):
    """One set-up plus study 0; returns (wall seconds, samples, state)."""
    ledger.tracer = tracer if tracer is not None else _NoTracer()
    t0 = perf_counter()
    if tracer is None:
        state = workload.setup()
        completed = workload.study(state, seed, 0, ledger)
    else:
        with tr.instrument(tracer), tracer.span(tr.ROOT_SPAN):
            tracer.unit = "setup"
            state = workload.setup()
            completed = workload.study(state, seed, 0, ledger)
    return perf_counter() - t0, completed, state


def measure_traced(workload, seed: int, seconds: float, trace_path=None) -> dict:
    """Traced run: per-layer metrics of one traced pass, and the overhead
    of tracing against untraced passes of the same work."""
    ledger = Ledger()
    start = perf_counter()
    _pass(workload, seed, ledger)  # warm-up: first-call costs of the process
    plain, traced = [], []
    while not plain or perf_counter() - start < seconds:
        tracer = tr.Tracer()
        wall, completed, state = _pass(workload, seed, ledger, tracer)
        traced.append((wall, completed, tracer, workload.saddle_nnz(state), state.counts))
        state = tracer = None
        plain.append(_pass(workload, seed, ledger)[0])
    traced.sort(key=lambda t: t[0])
    wall, completed, tracer, saddle_nnz, counts = traced[(len(traced) - 1) // 2]
    if trace_path is not None:
        tracer.write(trace_path)

    metrics = layer_metrics(tracer, saddle_nnz, counts)
    metrics["trace.untraced_wall_s"] = (median(plain), "s")
    metrics["trace.overhead"] = (median(t[0] for t in traced) / median(plain) - 1.0, "ratio")
    metrics["trace.samples"] = (completed, "count")
    ledger.tracer = _NoTracer()
    unaccounted = metrics["trace.wall_s"][0] - sum(
        metrics[name][0] for name in PARTITION
    )
    ledger.checked(
        "trace accounting",
        1,
        lambda: [] if abs(unaccounted) <= 1e-6 * metrics["trace.wall_s"][0]
        else [f"layer self times miss the pass wall time by {unaccounted:.3e} s"],
    )
    return {
        "ledger": ledger,
        "metrics": metrics,
        "detail": {
            "traced_walls": [t[0] for t in traced],
            "untraced_walls": plain,
            "spans": len(tracer.spans),
        },
    }


# Span names whose self times, with the unspanned remainder, partition a
# traced pass.  Metric `<name>_s` is the self time, `<name>_calls` the count.
SPANS = [
    "meshing.build",
    "spaces.assemble",
    "streamfunc.stream_curl_basis",
    "spaces.projection_saddle",
    "stepper.initial_velocity",
    "stepper.run_trajectory",
    "spaces.stress_residual_vector",
    "spaces.velocity_load_vector",
    "spaces.velocity_at_qp",
    "noise.data_G_n",
    "stepper.dissipation_pairing",
    "spaces.stress_tangent_matrix",
    "stepper.factorize",
    "noise.sample",
    "pressure.reconstruct",
    "diagnostics.stability_stats",
    "diagnostics.error_stats.same_mesh",
    "diagnostics.error_stats.cross_mesh",
    "diagnostics.temporal_oscillation",
    tr.CHECK_SPAN,
]
_CALLS_NAME = {"stepper.factorize": "stepper.factorizations"}
PARTITION = [s + "_s" for s in SPANS] + ["trace.unspanned_s"]


def layer_metrics(tracer, saddle_nnz: int, counts: dict) -> dict:
    """Metrics of one traced pass; `counts` are the step counts the
    workload tallied in that pass."""
    selfs, calls = tracer.self_times()
    out = {}
    for s in SPANS:
        out[s + "_s"] = (selfs.get(s, 0.0), "s")
        out[_CALLS_NAME.get(s, s + "_calls")] = (calls.get(s, 0), "count")
    out["diagnostics.error_stats_s"] = (
        selfs.get("diagnostics.error_stats.same_mesh", 0.0)
        + selfs.get("diagnostics.error_stats.cross_mesh", 0.0),
        "s",
    )
    n_factor = calls.get("stepper.factorize", 0)
    factor_nnz = tracer.counts.get("stepper.factor_nnz", 0.0) / n_factor if n_factor else 0.0
    steps = counts["steps"]
    out.update(
        {
            "spaces.projection_saddle_lu_nnz": (saddle_nnz, "count"),
            "spaces.projection_saddle_lu_bytes": (saddle_nnz * tr.FACTOR_ENTRY_BYTES, "B"),
            "stepper.factor_nnz_mean": (factor_nnz, "count"),
            "stepper.factor_bytes_mean": (factor_nnz * tr.FACTOR_ENTRY_BYTES, "B"),
            "stepper.steps": (steps, "count"),
            "stepper.newton_its_per_step": (
                counts["newton_its"] / steps if steps else 0.0, "count"),
            "stepper.refactors_per_step": (
                counts["refactors"] / steps if steps else 0.0, "count"),
            "stepper.picard_steps": (counts["picard_steps"], "count"),
            "trace.wall_s": (tracer.inclusive(tr.ROOT_SPAN), "s"),
            "trace.unspanned_s": (selfs.get(tr.ROOT_SPAN, 0.0), "s"),
            "trace.spans": (len(tracer.spans), "count"),
        }
    )
    return out
