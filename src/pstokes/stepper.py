"""Time stepping: initial projection, nonlinear velocity step, trajectory.

Each step solves

    (u_n, xi) + tau (S(eps u_n), eps xi)
        = (u_{n-1} + G_n(u_{(n-2) v 0}) DW_n, xi)   for all xi in V_h^div,

with V_h^div the exactly divergence-free subspace of the Scott-Vogelius
velocity space.  The subspace has an explicit basis C (the curls of the
composite-cubic stream functions, see streamfunc), so the step is a
Galerkin problem in the coefficients of C: every iterate is a
combination of divergence-free fields and stays pointwise divergence
free up to rounding, and the factorizations are those of the reduced
matrices C^T (M + tau K) C, an order of magnitude cheaper than the full
saddle system.  No pressure multiplier is produced: the pressure
increment is recovered afterwards by the reconstruction in
pstokes.pressure, and with it the full constrained momentum equation
of the step holds to the Newton tolerance.

The step is solved by one damped Newton driver: Armijo backtracking on
the norm of the reduced residual, a lagged Jacobian factorization that
is rebuilt only when the expansion point has drifted, the line search
fails on a stale factor, or a stale direction barely contracts.  For
small time steps most Newton iterations are then a single
back-substitution.  A step Newton does not finish falls back to the
Kacanov (Picard) iteration, which freezes the radial stress weight at
the previous iterate.  At p = 2 the step is linear: one factorization
serves the whole trajectory (and every Monte Carlo sample on the same
grid) and the step is a single solve.

The safeguards of the driver are fixed module constants: no caller
needs other values, and changing any of them can move the iterates that
the golden records pin.  ARMIJO_FACTOR (0.5) shrinks a rejected step,
MIN_STEP (2^-20) ends the line search, LAG_THRESHOLD (0.2) is the
relative drift of the iterate that rebuilds the lagged factor, and
CONTRACTION (0.5) is the residual ratio above which a stale direction
forces a fresh factor for the next correction.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

from pstokes.grids import TimeGrid
from pstokes.noise import AveragedIncrements, NoiseModel, data_G_n
from pstokes.spaces import (
    AssembledOperators,
    Field,
    _full_velocity,
    interpolate_velocity,
    project_div,
    stress_residual_vector,
    stress_tangent_matrix,
    sym_grad_at_qp,
    velocity_at_qp,
    velocity_load_vector,
)
from pstokes.streamfunc import stream_curl_basis
from pstokes.tensors import PowerLawParams, stress_S

__all__ = [
    "NewtonConfig",
    "SchemeConfig",
    "StepStats",
    "Trajectory",
    "StepperWorkspace",
    "initial_velocity",
    "velocity_step",
    "run_trajectory",
    "dissipation_pairing",
    "hs_norm",
]


# Newton driver safeguards, fixed (see the module docstring).
ARMIJO_FACTOR = 0.5
MIN_STEP = 2.0**-20
LAG_THRESHOLD = 0.2
CONTRACTION = 0.5


@dataclass(frozen=True)
class NewtonConfig:
    """Stopping rules of the step solver: the residual norm abs_tol, the
    Newton iterations max_iter before the Kacanov fallback, and the
    fallback's picard_iters.  The safeguards ARMIJO_FACTOR, MIN_STEP,
    LAG_THRESHOLD and CONTRACTION are fixed module constants."""

    abs_tol: float = 1e-10
    max_iter: int = 50
    picard_iters: int = 20

    def __post_init__(self) -> None:
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.picard_iters < 1:
            raise ValueError("picard_iters must be >= 1")


@dataclass
class SchemeConfig:
    """Everything one scheme instance needs besides the mesh.

    solver names the direction path and accepts only "stream", the
    divergence-free basis every step is solved in; it is kept so that
    configurations that name it explicitly still construct."""

    params: PowerLawParams
    grid: TimeGrid
    model: NoiseModel | None = None
    newton: NewtonConfig = dc_field(default_factory=NewtonConfig)
    solver: str = "stream"

    def __post_init__(self) -> None:
        if self.solver == "kkt":
            raise ValueError(
                "solver 'kkt' was removed: steps are solved in the divergence-free "
                "stream basis, and the pressure increment comes from pressure.reconstruct"
            )
        if self.solver != "stream":
            raise ValueError(f"unknown solver {self.solver!r}")


@dataclass
class StepStats:
    iterations: int
    residual: float
    refactorizations: int
    converged: bool
    used_picard: bool = False
    energy_defect: float = 0.0
    dissipation: float = 0.0
    hs_G: float = 0.0


@dataclass
class Trajectory:
    """Velocity fields u_0..u_N plus everything reconstruction needs.

    noise_loads[n-1] is the assembled right-hand side (G_n DW_n, xi) of
    step n on free dofs; with the fields it determines the pressure
    increments (pstokes.pressure.reconstruct).  increment_access_log
    records every averaged-increment index read during the step that is
    listed with it, for the causality audit.  grid is the time grid the
    run was stepped on; reconstruction and the statistics refuse a
    configuration of another grid.
    """

    fields: list[Field]
    noise_loads: list[np.ndarray]
    stats: list[StepStats]
    increment_access_log: list[tuple[int, int]]
    grid: TimeGrid
    failed_at: int | None = None

    @property
    def ok(self) -> bool:
        return self.failed_at is None

    @property
    def n_steps(self) -> int:
        return len(self.fields) - 1


class _AuditedIncrements:
    """Pass-through wrapper that records which increments were read."""

    def __init__(self, inner: AveragedIncrements):
        self._inner = inner
        self.accessed: list[int] = []

    @property
    def grid(self) -> TimeGrid:
        return self._inner.grid

    def increment(self, n: int) -> np.ndarray:
        self.accessed.append(n)
        return self._inner.increment(n)


def initial_velocity(
    u0_exact: Callable[[np.ndarray], np.ndarray], ops: AssembledOperators
) -> Field:
    """Nodal interpolation followed by the divergence-free projection."""
    return project_div(interpolate_velocity(u0_exact, ops), ops)


def dissipation_pairing(
    u_coeffs: np.ndarray, ops: AssembledOperators, params: PowerLawParams
) -> float:
    """(S(eps u), eps u) with the same quadrature the residual uses."""
    eps = sym_grad_at_qp(u_coeffs, ops)
    S = stress_S(eps, params)
    return float(np.einsum("tq,tqcd,tqcd->", ops.qw, S, eps))


def hs_norm(g_vals: np.ndarray, ops: AssembledOperators) -> float:
    """Hilbert-Schmidt norm sqrt(sum_k ||g_k||_L2^2) of per-mode fields
    given at quadrature points, shape (n_modes, n_tri, nq, 2)."""
    return float(np.sqrt(np.einsum("tq,ktqc->", ops.qw, g_vals**2)))


class StepperWorkspace:
    """Per-(mesh, config) scratch shared across steps and samples.

    Holds the noise mode values at quadrature points, the divergence-free
    basis C with its Gram matrix C^T M C (built on first use, so a
    workspace that only assembles noise loads never builds it), and two
    factorization slots: the lagged Newton factor with the point it was
    built at, and the p = 2 factor.  Never mutated by concurrent
    trajectories in ways that affect results: the cached factorizations
    are pure solver accelerators keyed on the expansion point.

    residual, factorize, direction and solve are the four jobs the
    Newton driver and the Kacanov fallback ask of the reduced system.
    """

    def __init__(self, config: SchemeConfig, ops: AssembledOperators):
        self.config = config
        self.ops = ops
        if config.model is not None:
            qp = ops.qp_x.reshape(-1, 2)
            n_tri, nq = ops.qw.shape
            self.g_qp = config.model.mode_values(qp).reshape(-1, n_tri, nq, 2)
        else:
            self.g_qp = None
        self._stream: tuple | None = None
        self._lagged: tuple | None = None
        self._linear = None
        self.refactor_count = 0

    @property
    def is_linear(self) -> bool:
        return self.config.params.p == 2.0

    def stream_gram(self):
        """(C, C^T M C) for the divergence-free basis, built lazily."""
        if self._stream is None:
            C = stream_curl_basis(self.ops)
            self._stream = (C, (C.T @ (self.ops.M_free @ C)).tocsc())
        return self._stream

    def residual(self, u_full: np.ndarray, rhs_free: np.ndarray):
        """(F, ||F||) with F = C^T ((u, xi) + tau (S(eps u), eps xi) - rhs),
        the momentum residual tested against the basis.  It equals C^T
        of the constrained momentum residual for any pressure, since
        C^T B^T = (B C)^T = 0."""
        ops, cfg = self.ops, self.config
        C, _ = self.stream_gram()
        form = (ops.M_full @ u_full)[ops.free] + cfg.grid.tau * stress_residual_vector(
            u_full, ops, cfg.params
        )
        F = C.T @ (form - rhs_free)
        return F, float(np.linalg.norm(F))

    def factorize(self, u_full: np.ndarray, picard: bool = False):
        """Factor C^T (M + tau K) C with K the stress linearization at
        u_full: the Newton Jacobian, or with picard the radial-weight
        (Kacanov) matrix."""
        K = stress_tangent_matrix(u_full, self.ops, self.config.params, picard=picard)
        self.refactor_count += 1
        C, HM = self.stream_gram()
        H = HM + self.config.grid.tau * (C.T @ (K @ C))
        return spla.splu(H.tocsc())

    def direction(self, factor, F: np.ndarray) -> np.ndarray:
        """The full-length update du solving the reduced system J du = -F."""
        C, _ = self.stream_gram()
        return _full_velocity(self.ops, C @ factor.solve(-F))

    def solve(self, factor, rhs_free: np.ndarray) -> np.ndarray:
        """The full-length velocity solving the factored linear step
        with load rhs_free outright."""
        C, _ = self.stream_gram()
        return _full_velocity(self.ops, C @ factor.solve(C.T @ rhs_free))

    def linear_factor(self):
        """The p = 2 factor: the tangent does not depend on u, so one
        factorization serves every step and sample."""
        if self._linear is None:
            self._linear = self.factorize(np.zeros(self.ops.space_v.n_dofs))
        return self._linear

    # the name perfbench pre-warms the p = 2 factor by
    linear_stream = linear_factor

    def lagged_factor(self, u_full: np.ndarray, force: bool = False):
        """(factor, fresh): the Newton factor, reused while the point it
        was built at is within LAG_THRESHOLD (relative sup-norm) of
        u_full; fresh tells whether it was built by this call."""
        if not force and self._lagged is not None:
            factor, point = self._lagged
            drift = np.abs(u_full - point).max()
            scale = max(np.abs(point).max(), 1e-12)
            if drift <= LAG_THRESHOLD * scale:
                return factor, False
        self._lagged = (self.factorize(u_full), u_full.copy())
        return self._lagged[0], True

    def noise_rhs(
        self, n: int, u_lag_coeffs: np.ndarray, dW: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Assembled load (G_n(u_lag) DW_n, xi) on free dofs and ||G_n||_HS."""
        ops = self.ops
        if self.g_qp is None:
            return np.zeros(ops.n_free), 0.0
        u_vals = velocity_at_qp(u_lag_coeffs, ops)
        G_vals = data_G_n(n, u_vals, self.config.model, self.config.grid, self.g_qp)
        if not np.any(G_vals):
            return np.zeros(ops.n_free), 0.0
        forcing = np.tensordot(dW, G_vals, axes=1)
        load = velocity_load_vector(forcing, ops)[ops.free]
        return load, hs_norm(G_vals, ops)


def velocity_step(
    n: int,
    u_prev: Field,
    u_lag: Field,
    increments,
    config: SchemeConfig,
    ops: AssembledOperators,
    work: StepperWorkspace | None = None,
) -> tuple[Field, np.ndarray, StepStats]:
    """One implicit step; returns (u_n, noise_load, stats).

    u_lag must be u_{(n-2) v 0}; the only increment read is DW_n.  The
    noise load is the assembled (G_n DW_n, xi) on free dofs, returned so
    the pressure reconstruction can verify its equation against data
    that was not derived from the solved step itself.  Raises
    ValueError when the increments or the workspace belong to another
    grid, config or mesh.  Raises FloatingPointError naming the step when
    the right-hand side is not finite, and naming the step and the Newton
    iteration when a residual is not finite.
    """
    if increments.grid != config.grid:
        raise ValueError(
            f"step {n}: the increments are for {increments.grid}, the config for {config.grid}"
        )
    if work is None:
        work = StepperWorkspace(config, ops)
    elif work.config != config or work.ops is not ops:
        raise ValueError(f"step {n}: the workspace was built for another config or mesh")
    nt = config.newton
    dW = increments.increment(n)
    noise_free, hs_G = work.noise_rhs(n, u_lag.coeffs, dW)
    rhs_free = (ops.M_full @ u_prev.coeffs)[ops.free] + noise_free
    if not np.isfinite(rhs_free).all():
        raise FloatingPointError(f"step {n}: the right-hand side has non-finite entries")
    refactors_before = work.refactor_count

    if work.is_linear:
        u_full = work.solve(work.linear_factor(), rhs_free)
        _, res = work.residual(u_full, rhs_free)
        iterations, converged, used_picard = 1, res <= 10 * nt.abs_tol, False
    else:
        u_full, res, iterations, converged = _newton(n, u_prev.coeffs.copy(), rhs_free, work)
        used_picard = not converged
        if used_picard:
            u_full, res = _picard_fallback(u_prev.coeffs, rhs_free, work)
            converged = res <= nt.abs_tol

    diss = dissipation_pairing(u_full, ops, work.config.params)
    d = u_full - u_prev.coeffs
    M = ops.M_full
    defect = (
        u_full @ (M @ u_full)
        - u_prev.coeffs @ (M @ u_prev.coeffs)
        + d @ (M @ d)
        + 2.0 * work.config.grid.tau * diss
        - 2.0 * float(noise_free @ u_full[ops.free])
    )
    stats = StepStats(
        iterations=iterations,
        residual=res,
        refactorizations=work.refactor_count - refactors_before,
        converged=converged,
        used_picard=used_picard,
        energy_defect=float(defect),
        dissipation=diss,
        hs_G=hs_G,
    )
    return Field("velocity", u_full), noise_free, stats


def _newton(
    n: int, u: np.ndarray, rhs_free: np.ndarray, work: StepperWorkspace
) -> tuple[np.ndarray, float, int, bool]:
    """Damped Newton for step n from the velocity u on the lagged
    factorization: each correction is backtracked (Armijo) until the
    residual norm drops.  Returns (u, residual, iterations, converged).
    A residual with a non-finite entry raises FloatingPointError before
    anything is factored at its point."""
    nt = work.config.newton

    def residual(v: np.ndarray, it: int) -> tuple[np.ndarray, float]:
        F, res = work.residual(v, rhs_free)
        if not np.isfinite(F).all():
            raise FloatingPointError(
                f"step {n}, Newton iteration {it}: the residual has non-finite entries"
            )
        return F, res

    F, res = residual(u, 1)
    force_fresh = False
    for it in range(1, nt.max_iter + 1):
        if res <= nt.abs_tol:
            return u, res, it, True
        factor, fresh = work.lagged_factor(u, force=force_fresh)
        du = work.direction(factor, F)
        step = 1.0
        retried = False
        while True:
            trial = u + step * du
            tF, tres = residual(trial, it)
            if tres <= (1.0 - 1e-4 * step) * res:
                break
            step *= ARMIJO_FACTOR
            if step < MIN_STEP:
                if retried or fresh:
                    return u, res, it, False
                # stale Jacobian is the usual culprit: refactor at the
                # current point and retry the search once
                factor, fresh = work.lagged_factor(u, force=True)
                du = work.direction(factor, F)
                step = 1.0
                retried = True
        # a stale direction may pass the line search while barely
        # contracting; when that happens refresh the factorization
        # before the next correction
        force_fresh = not fresh and tres > CONTRACTION * res
        u, F, res = trial, tF, tres
    return u, res, nt.max_iter, False


def _picard_fallback(
    u_start: np.ndarray, rhs_free: np.ndarray, work: StepperWorkspace
) -> tuple[np.ndarray, float]:
    """Kacanov fixed-point iteration from the velocity u_start: each
    iterate solves the step with the radial-weight matrix frozen at the
    previous one.  Returns the iterate with the smallest residual, and
    that residual."""
    u = u_start
    best = (u_start.copy(), np.inf)
    for _ in range(work.config.newton.picard_iters):
        u = work.solve(work.factorize(u, picard=True), rhs_free)
        _, res = work.residual(u, rhs_free)
        if res < best[1]:
            best = (u, res)
        if res <= work.config.newton.abs_tol:
            break
    return best


def run_trajectory(
    u0: Field,
    increments: AveragedIncrements,
    config: SchemeConfig,
    ops: AssembledOperators,
    work: StepperWorkspace | None = None,
) -> Trajectory:
    """Sequential steps n = 1..N from u0; aborts cleanly on failure.

    The increments object is wrapped so that every read is logged; the
    log is checked after each step to enforce that step n touched no
    increment beyond index n (adaptedness of the discrete flow).
    """
    if work is None:
        work = StepperWorkspace(config, ops)
    audited = _AuditedIncrements(increments)
    N = config.grid.N
    fields = [u0]
    noise_loads: list[np.ndarray] = []
    stats_list: list[StepStats] = []
    access_log: list[tuple[int, int]] = []
    failed_at = None
    for n in range(1, N + 1):
        u_lag = fields[max(n - 2, 0)]
        mark = len(audited.accessed)
        u_n, noise_free, stats = velocity_step(
            n, fields[-1], u_lag, audited, config, ops, work
        )
        new_reads = audited.accessed[mark:]
        for idx in new_reads:
            access_log.append((n, idx))
            if idx > n:
                raise AssertionError(
                    f"step {n} read increment {idx}: causality violated"
                )
        fields.append(u_n)
        noise_loads.append(noise_free)
        stats_list.append(stats)
        if not stats.converged:
            failed_at = n
            break
    return Trajectory(
        fields=fields,
        noise_loads=noise_loads,
        stats=stats_list,
        increment_access_log=access_log,
        grid=config.grid,
        failed_at=failed_at,
    )
