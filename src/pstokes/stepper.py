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
saddle system.  C, C^T, C^T M C and its factor are formed once per mesh
and kept on the operator bundle, where the projections of
`spaces.SaddleSolver` read them too.

At p != 2 the Newton system lives in the basis: the iterate is the
coefficient vector x, started from the coefficients of u_{n-1} (one
back-substitution with the factor of C^T M C), and the residual is

    F(x) = C^T M C x + tau F_S(x) - C^T rhs,
    F_S(x) = C^T (S(eps C x), eps xi),

with F_S evaluated macro-element by macro-element from the element
tables of the bundle's `stream_element_basis`, one table per distinct
macro-element (`spaces.element_stress_vector`): no velocity-space
quadrature and no product with C^T per iterate.  C^T K C is assembled
from the same tables (`spaces.stress_tangent_matrix`), so no free-dof
tangent and no sparse triple product is formed, and a direction is one
back-substitution.  The drift test of the lagged factor measures the
velocity C x in the sup norm.  No pressure multiplier is produced: the
pressure increment is recovered afterwards by the reconstruction in
pstokes.pressure, and with it the full constrained momentum equation of
the step holds to the Newton tolerance.

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

Each per-step quantity is formed once.  The check that closes a step
(`StepperWorkspace.residual`, once, at the iterate the step keeps:
Newton's, or the Kacanov fallback's best) forms the
stress column s_n = tau (S(eps u_n), eps xi) on the free dofs by
quadrature, with u_n = C x_n, and M u_n; the step keeps both, reads the
dissipation (S(eps u_n), eps u_n) as s_n . u_n / tau from s_n (u_n
vanishes on the boundary dofs) and the energy defect from M u_n, and
stores s_n on the trajectory, where the pressure reconstruction reads
it.  At p = 2, S(A) = A for every kappa, so the step is one solve and
its column is tau K u_n with K the symmetric-gradient stiffness the
mesh assembles once (`AssembledOperators.sym_grad_stiffness`): one
sparse product, no quadrature.  The step forms M u_{n-1} once for its
load, its start and its energy defect.  The additive
noise load is c_n L DW_n with L = ((g_k, xi)) assembled once per
workspace and c_n the time coefficient of G_n
(`noise.data_coefficient`), since G_n is then c_n times the fixed mode
fields.  So every load of an additive run lies in the span of the K
columns of L; the trajectory records L and the coefficients c_n DW_n
(`Trajectory`), and the pressure reconstruction solves for K columns
instead of N loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from pstokes.grids import TimeGrid
from pstokes.noise import AveragedIncrements, NoiseModel, data_coefficient, data_G_n
from pstokes.spaces import (
    SPD_SPLU,
    AssembledOperators,
    Field,
    _full_velocity,
    element_stress_vector,
    interpolate_velocity,
    lp_norm,
    project_div,
    qp_weights,
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
        if not (np.isfinite(self.abs_tol) and self.abs_tol > 0):
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol!r}")
        for name in ("max_iter", "picard_iters"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
                raise ValueError(f"{name} must be a positive integer, got {count!r}")


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

    The noise loads are kept factored: the assembled right-hand side
    (G_n DW_n, xi) of step n on free dofs is noise_basis @
    noise_coeffs[n-1], with noise_basis an (n_free, r) array and
    noise_coeffs an (N, r) array.  Under the additive rule the basis is
    the workspace's mode loads L = ((g_k, xi)), held by reference and
    not copied (r = K), and row n-1 holds c_n DW_n, the coefficient the
    step multiplies L by; the step's own load c_n (L DW_n) rounds
    differently in the last bits.  Under a velocity-dependent rule the
    basis is the N assembled loads themselves and the coefficients the
    identity (r = N); without a noise model r = 0.  `noise_loads`
    multiplies the two out.

    stress_loads is one (N, n_free) array, truncated after a failed
    step; row n-1 is the stress column tau (S(eps u_n), eps xi) on free
    dofs that the step's last residual formed; with the fields and
    the noise loads it determines the pressure increments
    (pstokes.pressure.reconstruct).  increment_access_log
    records every averaged-increment index read during the step that is
    listed with it, for the causality audit.  grid is the time grid the
    run was stepped on; reconstruction and the statistics refuse a
    configuration of another grid.
    """

    fields: list[Field]
    noise_basis: np.ndarray
    noise_coeffs: np.ndarray
    stress_loads: np.ndarray
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

    @property
    def noise_loads(self) -> np.ndarray:
        """The loads (G_n DW_n, xi) on free dofs, row n-1 for step n:
        one product of the factored record, formed on every read."""
        return self.noise_coeffs @ self.noise_basis.T


class _AuditedIncrements:
    """Pass-through wrapper that records which increments were read."""

    def __init__(self, inner: AveragedIncrements):
        self._inner = inner
        self.accessed: list[int] = []

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def increment(self, n: int) -> np.ndarray:
        self.accessed.append(n)
        return self._inner.increment(n)


def _increments_mismatch(increments, config: SchemeConfig) -> str | None:
    """Why the increments cannot drive config, or None."""
    model = config.model
    if increments.grid != config.grid:
        return f"the increments are for {increments.grid}, the config for {config.grid}"
    if model is not None and increments.n_modes != model.n_modes:
        return f"the increments have {increments.n_modes} modes, the noise model {model.n_modes}"
    return None


def initial_velocity(
    u0_exact: Callable[[np.ndarray], np.ndarray], ops: AssembledOperators
) -> Field:
    """Nodal interpolation followed by the divergence-free projection."""
    return project_div(interpolate_velocity(u0_exact, ops), ops)


def dissipation_pairing(
    u_coeffs: np.ndarray, ops: AssembledOperators, params: PowerLawParams
) -> float:
    """(S(eps u), eps u) with the same quadrature the residual uses,
    evaluated afresh from u.  A step reads its dissipation from the
    stress column of its last residual instead; this function is the
    independent value the tests compare that with."""
    eps = sym_grad_at_qp(u_coeffs, ops)
    return float(qp_weights(ops, 4) @ (stress_S(eps, params) * eps).ravel())


class StepperWorkspace:
    """Per-(mesh, config) scratch shared across steps and samples.

    Holds the noise mode values g_k and sqrt(sum_k g_k^2) at quadrature
    points (g_qp, g_rss), the additive-noise mode loads (`mode_loads`,
    a cached property) and two factorization slots: the lagged Newton
    factor with the point it was built at, and the p = 2 factor.  Every
    per-mesh table is a cached property of the operator bundle, built on
    first read, so a workspace that only assembles noise loads never
    builds the basis: C (`stream_basis`) and its CSR view C^T
    (`stream_basis_T`), which every load and solve applies, C^T M C
    (`stream_mass`) and its factor (`stream_mass_lu`), the element
    tables of the Newton residual and tangent (`stream_element_basis`)
    and, at p = 2 only, `sym_grad_stiffness`, which the closing
    residual's stress column is a product with; the first residual
    builds it, not `linear_factor`, so a workspace's set-up does not pay
    for it.  `stream_gram()` is the
    set-up hook that builds C and C^T M C before the first step.  Never
    mutated by concurrent trajectories in ways that affect results: the
    cached factorizations are pure solver accelerators keyed on the
    expansion point.

    The Newton driver and the Kacanov fallback ask the reduced system
    for loads in the basis (`stream_load`), residuals of coefficients
    (`stream_residual`), directions, factorizations and the velocity
    of coefficients; the p = 2 step asks for one `solve`, and every
    step for the closing check (`residual`) of the iterate it keeps.
    The lagged factor is owned by the workspace alone: the driver asks
    for directions, never for the factor, and a stale factor is
    released before its successor is built, so two Newton
    factorizations never live at once.
    """

    def __init__(self, config: SchemeConfig, ops: AssembledOperators):
        self.config = config
        self.ops = ops
        if config.model is not None:
            qp = ops.qp_x.reshape(-1, 2)
            self.g_qp = config.model.mode_values(qp).reshape((-1,) + ops.qp_x.shape)
            self.g_rss = np.sqrt(config.model.mode_square_sum(qp)).reshape((1,) + ops.qp_x.shape)
        else:
            self.g_qp = self.g_rss = None
        self._lagged: tuple | None = None
        self._linear = None
        self.refactor_count = 0

    @property
    def is_linear(self) -> bool:
        return self.config.params.p == 2.0

    def stream_gram(self):
        """(C, C^T M C) from the operator bundle: the set-up hook that
        builds the divergence-free basis before the first step."""
        return stream_curl_basis(self.ops), self.ops.stream_mass

    def residual(self, u_full: np.ndarray, rhs_free: np.ndarray):
        """(F, ||F||, s, M u): the check that closes a step, with F =
        C^T ((u, xi) + s - rhs) the momentum residual tested against the
        basis, s = tau (S(eps u), eps xi) the stress column on free dofs
        and M u the full-length mass product, both returned for the step
        to keep: s is at p = 2 a product with `sym_grad_stiffness`, else
        a quadrature.  F equals C^T of the constrained momentum residual
        for any pressure, since C^T B^T = (B C)^T = 0.  The scaled BLAS
        nrm2 keeps ||F|| finite for any finite F; a plain sum of squares
        overflows beyond 1e154."""
        ops, cfg = self.ops, self.config
        if self.is_linear:
            s = cfg.grid.tau * (ops.sym_grad_stiffness @ u_full[ops.free])
        else:
            s = cfg.grid.tau * stress_residual_vector(u_full, ops, cfg.params)
        Mu = ops.M_full @ u_full
        F = ops.stream_basis_T @ (Mu[ops.free] + s - rhs_free)
        return F, float(la.norm(F, check_finite=False)), s, Mu

    def stream_load(self, rhs_free: np.ndarray) -> np.ndarray:
        """C^T rhs_free: a load on the free dofs tested against the basis."""
        return self.ops.stream_basis_T @ rhs_free

    def stream_coefficients(self, Mu_free: np.ndarray) -> np.ndarray:
        """The coefficients x of a divergence-free velocity u = C x from
        its mass product M u on the free dofs: x = (C^T M C)^{-1} C^T M u,
        one back-substitution with the factor the projections solve with
        (`AssembledOperators.stream_mass_lu`)."""
        return self.ops.stream_mass_lu.solve(self.stream_load(Mu_free))

    def velocity(self, x: np.ndarray) -> np.ndarray:
        """The full-length velocity C x of the coefficients x."""
        ops = self.ops
        return _full_velocity(ops, ops.stream_basis @ x)

    def stream_residual(self, x: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
        """(F, ||F||): the Newton residual in the basis,
        F = C^T M C x + tau F_S(x) - b, with b = C^T rhs and
        F_S(x) = C^T (S(eps C x), eps xi) from the element tables
        (`spaces.element_stress_vector`).  It is the closing check's F
        up to rounding; ||F|| is the scaled nrm2, as there."""
        ops, cfg = self.ops, self.config
        stress = element_stress_vector(x, ops, cfg.params, ops.stream_element_basis)
        F = ops.stream_mass @ x + cfg.grid.tau * stress - b
        return F, float(la.norm(F, check_finite=False))

    def factorize(self, u_full: np.ndarray, picard: bool = False):
        """Factor C^T (M + tau K) C with K the stress linearization at
        u_full: the Newton Jacobian, or with picard the radial-weight
        (Kacanov) matrix.  C^T K C is assembled in the stream basis
        itself, from its element tables.  Both matrices are SPD, so the
        factor follows `spaces.SPD_SPLU`: its fill depends on the
        sparsity pattern alone, 120k L+U non-zeros at m = 16 for every
        p, expansion point and Kacanov step."""
        ops = self.ops
        K = stress_tangent_matrix(u_full, ops, self.config.params, picard, ops.stream_element_basis)
        self.refactor_count += 1
        return spla.splu(ops.stream_mass + self.config.grid.tau * K, **SPD_SPLU)

    def solve(self, factor, rhs_free: np.ndarray) -> np.ndarray:
        """The full-length velocity solving the factored linear step
        with load rhs_free outright."""
        return self.velocity(factor.solve(self.stream_load(rhs_free)))

    def linear_factor(self):
        """The p = 2 factor: the tangent does not depend on u, so one
        factorization serves every step and sample."""
        if self._linear is None:
            self._linear = self.factorize(np.zeros(self.ops.space_v.n_dofs))
        return self._linear

    # the name perfbench pre-warms the p = 2 factor by
    linear_stream = linear_factor

    def direction(self, x: np.ndarray, F: np.ndarray, force: bool = False):
        """(dx, fresh): the update dx of the coefficients solving the
        reduced system J dx = -F with the lagged Newton factor, reused
        while the velocity it was built at is within LAG_THRESHOLD
        (relative sup norm) of the velocity C x; fresh tells whether it
        was built by this call."""
        ops = self.ops
        u = ops.stream_basis @ x  # free dofs: the boundary ones are 0
        fresh = force or self._lagged is None
        if not fresh:
            point = self._lagged[1]
            drift = np.abs(u - point).max()
            fresh = drift > LAG_THRESHOLD * max(np.abs(point).max(), 1e-12)
        if fresh:
            self._lagged = None  # free the stale factor's memory first
            self._lagged = (self.factorize(_full_velocity(ops, u)), u)
        return self._lagged[0].solve(-F), fresh

    @cached_property
    def mode_loads(self) -> tuple[np.ndarray, float]:
        """(L, ||g_rss||): L = ((g_k, xi)) on free dofs, one column per
        mode (n_free x K) from one stacked assembly, and the L2 norm of
        sqrt(sum_k g_k^2), assembled on first use.  L is read-only: every
        additive trajectory of the workspace holds it as its noise basis."""
        ops = self.ops
        L = velocity_load_vector(self.g_qp, ops)[ops.free]
        L.flags.writeable = False
        return L, lp_norm(np.linalg.norm(self.g_rss[0], axis=-1), ops, 2.0)

    def noise_rhs(
        self, n: int, u_lag_coeffs: np.ndarray, dW: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Assembled load (G_n(u_lag) DW_n, xi) on free dofs and ||G_n||_HS.

        For the additive rule G_n is c_n times the mode fields, with c_n
        zero for n <= 2 and the modulation average over J_{n-2} after, so
        the load is c_n L DW_n and ||G_n||_HS = |c_n| ||g_rss|| (see
        `mode_loads`, `noise.data_coefficient`); the other rules read
        u_lag and are assembled by quadrature (`quadrature_load`).  Raises
        IndexError for n outside 1..N."""
        model = self.config.model
        if model is None or model.velocity_dependent:
            return self.quadrature_load(n, u_lag_coeffs, dW)
        c = data_coefficient(n, model, self.config.grid)
        if c == 0.0:
            return np.zeros(self.ops.n_free), 0.0
        L, g_norm = self.mode_loads
        return c * (L @ dW), abs(c) * g_norm

    def quadrature_load(
        self, n: int, u_lag_coeffs: np.ndarray, dW: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """`noise_rhs` for any rule, assembled by quadrature: G_n of one
        two-row stack, sum_k DW_k g_k and g_rss, so r(u_lag) is evaluated
        once; the image of g_rss has the L2 norm ||G_n||_HS since every
        rule is g_k * r(u)."""
        ops, model, grid = self.ops, self.config.model, self.config.grid
        if model is None:
            return np.zeros(ops.n_free), 0.0
        u_vals = velocity_at_qp(u_lag_coeffs, ops) if model.velocity_dependent else None
        stack = np.concatenate([np.tensordot(dW, self.g_qp, axes=1)[None], self.g_rss])
        forcing, G_rss = data_G_n(n, u_vals, model, grid, stack)
        load = velocity_load_vector(forcing, ops)[ops.free]
        return load, lp_norm(np.linalg.norm(G_rss, axis=-1), ops, 2.0)


def velocity_step(
    n: int,
    u_prev: Field,
    u_lag: Field,
    increments,
    config: SchemeConfig,
    ops: AssembledOperators,
    work: StepperWorkspace | None = None,
) -> tuple[Field, np.ndarray, np.ndarray, StepStats]:
    """One implicit step; returns (u_n, noise_load, stress_load, stats).

    u_lag must be u_{(n-2) v 0}; the only increment read is DW_n.  The
    noise load is the assembled (G_n DW_n, xi) on free dofs, returned so
    the pressure reconstruction can verify its equation against data
    that was not derived from the solved step itself.  The stress load
    is tau (S(eps u_n), eps xi) on free dofs, from the step's last
    residual; the dissipation in the stats is read from it.  Raises
    ValueError when the increments or the workspace belong to another
    grid, config, mode count or mesh.  Raises FloatingPointError naming
    the step when the right-hand side is not finite, and naming the step
    and the Newton iteration when a residual is not finite.
    """
    why = _increments_mismatch(increments, config)
    if why:
        raise ValueError(f"step {n}: {why}")
    if work is None:
        work = StepperWorkspace(config, ops)
    elif work.config != config or work.ops is not ops:
        raise ValueError(f"step {n}: the workspace was built for another config or mesh")
    nt = config.newton
    dW = increments.increment(n)
    noise_free, hs_G = work.noise_rhs(n, u_lag.coeffs, dW)
    Mu_prev = ops.M_full @ u_prev.coeffs
    rhs_free = Mu_prev[ops.free] + noise_free
    if not np.isfinite(rhs_free).all():
        raise FloatingPointError(f"step {n}: the right-hand side has non-finite entries")
    refactors_before = work.refactor_count

    if work.is_linear:
        u_full = work.solve(work.linear_factor(), rhs_free)
        _, res, stress, Mu = work.residual(u_full, rhs_free)
        iterations, converged, used_picard = 1, res <= 10 * nt.abs_tol, False
    else:
        # u_{n-1} is divergence free: Newton starts from its coefficients
        x0 = work.stream_coefficients(Mu_prev[ops.free])
        u_full, res, iterations, converged = _newton(n, x0, rhs_free, work)
        used_picard = not converged
        if used_picard:
            u_full, res = _picard_fallback(u_prev.coeffs, rhs_free, work)
            converged = res <= nt.abs_tol
        _, _, stress, Mu = work.residual(u_full, rhs_free)

    tau = config.grid.tau
    diss = float(stress @ u_full[ops.free]) / tau
    defect = (
        u_full @ Mu
        - u_prev.coeffs @ Mu_prev
        + (u_full - u_prev.coeffs) @ (Mu - Mu_prev)
        + 2.0 * tau * diss
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
    return Field("velocity", u_full), noise_free, stress, stats


def _newton(
    n: int, x: np.ndarray, rhs_free: np.ndarray, work: StepperWorkspace
) -> tuple[np.ndarray, float, int, bool]:
    """Damped Newton for step n in the stream basis, from the
    coefficients x, on the lagged factorization: each correction is
    backtracked (Armijo) until the residual norm drops.  Returns (u,
    residual, iterations, converged) with u = C x the full-length
    velocity of the last iterate.  A residual with a non-finite entry
    raises FloatingPointError before anything is factored at its
    point."""
    nt = work.config.newton
    b = work.stream_load(rhs_free)

    def residual(y: np.ndarray, it: int) -> tuple[np.ndarray, float]:
        F, res = work.stream_residual(y, b)
        if not np.isfinite(F).all():
            raise FloatingPointError(
                f"step {n}, Newton iteration {it}: the residual has non-finite entries"
            )
        return F, res

    F, res = residual(x, 1)
    force_fresh = False
    for it in range(1, nt.max_iter + 1):
        if res <= nt.abs_tol:
            return work.velocity(x), res, it, True
        dx, fresh = work.direction(x, F, force=force_fresh)
        step = 1.0
        while True:
            trial = x + step * dx
            tF, tres = residual(trial, it)
            if tres <= (1.0 - 1e-4 * step) * res:
                break
            step *= ARMIJO_FACTOR
            if step < MIN_STEP:
                if fresh:
                    return work.velocity(x), res, it, False
                # stale Jacobian is the usual culprit: refactor at the
                # current point and retry the search once (a forced
                # direction is always fresh)
                dx, fresh = work.direction(x, F, force=True)
                step = 1.0
        # a stale direction may pass the line search while barely
        # contracting; when that happens refresh the factorization
        # before the next correction
        force_fresh = not fresh and tres > CONTRACTION * res
        x, F, res = trial, tF, tres
    return work.velocity(x), res, nt.max_iter, False


def _picard_fallback(
    u_start: np.ndarray, rhs_free: np.ndarray, work: StepperWorkspace
) -> tuple[np.ndarray, float]:
    """Kacanov fixed-point iteration from the velocity u_start: each
    iterate solves the step in the stream basis with the radial-weight
    matrix frozen at the previous one.  Returns the iterate with the
    smallest residual (the start, copied, if none is finite) and that
    residual."""
    b = work.stream_load(rhs_free)
    u, best, best_res = u_start, u_start.copy(), np.inf
    for _ in range(work.config.newton.picard_iters):
        x = work.factorize(u, picard=True).solve(b)
        u = work.velocity(x)
        _, res = work.stream_residual(x, b)
        if res < best_res:
            best, best_res = u, res
        if res <= work.config.newton.abs_tol:
            break
    return best, best_res


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
    increment beyond index n (adaptedness of the discrete flow).  The
    noise loads are recorded factored (see `Trajectory`).
    """
    if work is None:
        work = StepperWorkspace(config, ops)
    audited = _AuditedIncrements(increments)
    N = config.grid.N
    model = config.model
    additive = model is not None and not model.velocity_dependent
    fields = [u0]
    noise_loads: list[np.ndarray] = []
    coeffs = np.zeros((N, model.n_modes if additive else 0))
    stress_loads = np.empty((N, ops.n_free))
    stats_list: list[StepStats] = []
    access_log: list[tuple[int, int]] = []
    failed_at = None
    for n in range(1, N + 1):
        u_lag = fields[max(n - 2, 0)]
        mark = len(audited.accessed)
        u_n, noise_free, stress, stats = velocity_step(
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
        if additive:
            c = data_coefficient(n, model, config.grid)
            if c:  # as in noise_rhs: exact zeros where c_n is zero
                coeffs[n - 1] = c * increments.increment(n)
        elif model is not None:
            noise_loads.append(noise_free)
        stress_loads[n - 1] = stress
        stats_list.append(stats)
        if not stats.converged:
            failed_at = n
            break
    steps = len(stats_list)
    if additive:
        basis, coeffs = work.mode_loads[0], coeffs[:steps]
    else:
        basis = np.stack(noise_loads, axis=1) if noise_loads else np.zeros((ops.n_free, 0))
        coeffs = np.eye(steps, len(noise_loads))
    return Trajectory(
        fields=fields,
        noise_basis=basis,
        noise_coeffs=coeffs,
        stress_loads=stress_loads[:steps],
        stats=stats_list,
        increment_access_log=access_log,
        grid=config.grid,
        failed_at=failed_at,
    )
