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

A trajectory is a recurrence in the coefficients x_n of u_n = C x_n.
x_0 holds the coefficients of u_0 (one back-substitution with the
factor of C^T M C), and step n solves

    C^T M C x_n + tau F_S(x_n) = b_n,   b_n = C^T M C x_{n-1} + C^T l_n,
    F_S(x) = C^T (S(eps C x), eps xi),

with l_n = (G_n DW_n, xi) on free dofs.  Under the additive rule G_n is
c_n times the fixed mode fields (c_n the time coefficient,
`noise.data_coefficient`), so C^T l_n is the workspace's C^T L
(`StepperWorkspace.stream_mode_loads`, L = ((g_k, xi)) assembled once)
times c_n DW_n; a velocity-dependent rule assembles l_n by quadrature
at u_lag = C x_{n-2}.  At p = 2, S(A) = A for every kappa and the step
is one back-substitution with the factor that serves the whole
trajectory and every Monte Carlo sample on the same grid
(`StepperWorkspace.linear_factor`).  At p != 2 Newton starts from
x_{n-1} and evaluates F_S macro-element by macro-element from the
element tables of the bundle's `stream_element_basis`, one table per
distinct macro-element (`spaces.element_stress_vector`): no
velocity-space quadrature and no product with C^T per iterate.  C^T K C
is assembled from the same tables (`spaces.stress_tangent_matrix`), so
no free-dof tangent and no sparse triple product is formed, and a
direction is one back-substitution.  The drift test of the lagged
factor measures the velocity C x in the sup norm.  No pressure
multiplier is produced: the pressure increment is recovered afterwards
by the reconstruction in pstokes.pressure, and with it the full
constrained momentum equation of the step holds to the Newton
tolerance.

The nonlinear step is solved by one damped Newton iteration: Armijo
backtracking on the norm of the reduced residual, a lagged Jacobian
factorization that is rebuilt only when the expansion point has
drifted, the line search fails on a stale factor, or a stale direction
barely contracts.  For small time steps most Newton iterations are then
a single back-substitution.  A step Newton does not finish falls back
to the Kacanov (Picard) iteration, which freezes the radial stress
weight at the previous iterate.

The safeguards of the driver are fixed module constants: no caller
needs other values, and changing any of them can move the iterates that
the golden records pin.  ARMIJO_FACTOR (0.5) shrinks a rejected step,
MIN_STEP (2^-20) ends the line search, LAG_THRESHOLD (0.2) is the
relative drift of the iterate that rebuilds the lagged factor, and
CONTRACTION (0.5) is the residual ratio above which a stale direction
forces a fresh factor for the next correction.

The steps keep their coefficients alone; one closing pass after the
loop (`_close_steps`) forms what every step is checked and recorded
by, as block products over all steps: the fields U = C X, the mass
products M U, the stress columns s_n = tau (S(eps u_n), eps xi) on free
dofs (at p = 2 one product tau K C X with K the symmetric-gradient
stiffness the mesh assembles once, `AssembledOperators.sym_grad_stiffness`,
and tau K C kept on the workspace; at p != 2 one quadrature per step,
`stress_residual_vector`), the
closing residuals C^T (M u_n + s_n - M u_{n-1} - l_n), the energy
defects and the dissipation (S(eps u_n), eps u_n) = s_n . u_n / tau.  A
step fails when its solver did not converge or its closing residual
exceeds 10 abs_tol, and the trajectory is cut at the first failed step.
The stress columns are stored on the trajectory, where the pressure
reconstruction reads them; the noise loads are stored factored
(`Trajectory`), so under the additive rule every load lies in the span
of the K columns of L and the pressure reconstruction solves for K
columns instead of N loads.
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
    """Velocity fields u_0..u_N plus everything reconstruction needs,
    as the closing pass of `run_trajectory` formed them: every record
    ends at the first failed step (failed_at), which it includes.

    fields[0] is the u0 the run started from; fields[n] for n >= 1 is
    u_n = C x_n at full length, rows of one block.  The noise loads are
    kept factored: the assembled right-hand side (G_n DW_n, xi) of step
    n on free dofs is noise_basis @ noise_coeffs[n-1], with noise_basis
    an (n_free, r) array and noise_coeffs an (N, r) array.  Under the
    additive rule the basis is the workspace's mode loads L =
    ((g_k, xi)), held by reference and not copied (r = K), and row n-1
    holds c_n DW_n; the step itself applied C^T L to it, which rounds
    differently in the last bits.  Under a velocity-dependent rule the
    basis is the N assembled loads themselves and the coefficients the
    identity (r = N); without a noise model r = 0.  `noise_loads`
    multiplies the two out.

    stress_loads is one (N, n_free) array (a transposed view of the
    closing pass's column block); row n-1 is the stress column
    tau (S(eps u_n), eps xi) on free dofs, which the closing residual of
    step n read; with the fields and the noise loads it determines the
    pressure increments (pstokes.pressure.reconstruct).
    increment_access_log records every averaged-increment index read
    during the step that is listed with it, for the causality audit.
    grid is the time grid the run was stepped on; reconstruction and the
    statistics refuse a configuration of another grid.
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
    evaluated afresh from u.  The closing pass of a trajectory reads
    each step's dissipation from its stress column instead; this
    function is the independent value the tests compare that with."""
    eps = sym_grad_at_qp(u_coeffs, ops)
    return float(qp_weights(ops, 4) @ (stress_S(eps, params) * eps).ravel())


class StepperWorkspace:
    """Per-(mesh, config) scratch shared across steps and samples.

    Holds the noise mode values g_k and sqrt(sum_k g_k^2) at quadrature
    points (g_qp, and g_rss formed from it), the additive-noise mode
    loads and their image in the basis (`mode_loads`,
    `stream_mode_loads`, cached properties) and two factorization
    slots: the lagged Newton factor with the point it was built at, and
    the p = 2 factor.  Every per-mesh table is a cached property of the
    operator bundle, built on first read, so a workspace that only
    assembles noise loads never builds the basis: C (`stream_basis`) and
    its CSR view C^T (`stream_basis_T`), which every load applies,
    C^T M C (`stream_mass`) and its factor (`stream_mass_lu`), the
    element tables of the Newton residual and tangent
    (`stream_element_basis`) and, at p = 2 only, `sym_grad_stiffness`,
    of which the workspace keeps tau K C (`linear_stress_basis`) for the
    closing pass's stress columns; the first closing pass builds both,
    not `linear_factor`, so a workspace's set-up does not pay for them.
    `stream_gram()` is the set-up hook that
    builds C and C^T M C before the first step.  Never mutated by
    concurrent trajectories in ways that affect results: the cached
    factorizations are pure solver accelerators keyed on the expansion
    point.

    Newton and the Kacanov fallback ask the reduced system
    for residuals of coefficients (`stream_residual`), directions,
    factorizations and the velocity of coefficients; the p = 2 step asks
    for one back-substitution with `linear_factor()`.  The lagged factor
    is owned by the workspace alone: Newton asks for directions,
    never for the factor, and a stale factor is released before its
    successor is built, so two Newton factorizations never live at once.
    """

    def __init__(self, config: SchemeConfig, ops: AssembledOperators):
        self.config = config
        self.ops = ops
        if config.model is not None:
            qp = ops.qp_x.reshape(-1, 2)
            self.g_qp = config.model.mode_values(qp).reshape((-1,) + ops.qp_x.shape)
            self.g_rss = np.sqrt(np.sum(self.g_qp**2, axis=0, keepdims=True))
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

    def stream_load(self, rhs_free: np.ndarray) -> np.ndarray:
        """C^T rhs_free: a load on the free dofs tested against the basis."""
        return self.ops.stream_basis_T @ rhs_free

    def stream_coefficients(self, Mu_free: np.ndarray) -> np.ndarray:
        """The coefficients x of a divergence-free velocity u = C x from
        its mass product M u on the free dofs: x = (C^T M C)^{-1} C^T M u,
        one back-substitution with the factor the projections solve with
        (`AssembledOperators.stream_mass_lu`); a trajectory's x_0."""
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

    def linear_factor(self):
        """The p = 2 factor: the tangent does not depend on u, so one
        factorization serves every step and sample."""
        if self._linear is None:
            self._linear = self.factorize(np.zeros(self.ops.space_v.n_dofs))
        return self._linear

    # the name perfbench pre-warms the p = 2 factor by
    linear_stream = linear_factor

    @cached_property
    def linear_stress_basis(self):
        """tau K C (free dofs x stream dim), K = `sym_grad_stiffness`:
        at p = 2 the stress columns of coefficients X are one product
        with it, tau K C X^T, with fewer non-zeros than K (81k against
        129k at m = 16).  Built on first use by the closing pass."""
        ops = self.ops
        return (self.config.grid.tau * ops.sym_grad_stiffness @ ops.stream_basis).tocsr()

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

    @cached_property
    def stream_mode_loads(self) -> np.ndarray:
        """C^T L (stream dim x K): the mode loads tested against the
        basis, so that an additive step's noise load in the basis is one
        product with its K coefficients c_n DW_n."""
        return self.stream_load(self.mode_loads[0])

    def noise_rhs(
        self, n: int, u_lag_coeffs: np.ndarray, dW: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Assembled load (G_n(u_lag) DW_n, xi) on free dofs and ||G_n||_HS.

        For the additive rule G_n is c_n times the mode fields, with c_n
        zero for n <= 2 and the modulation average over J_{n-2} after, so
        the load is c_n L DW_n and ||G_n||_HS = |c_n| ||g_rss|| (see
        `mode_loads`, `noise.data_coefficient`); the other rules read
        u_lag and are assembled by quadrature (`quadrature_load`).  An
        additive trajectory forms its loads in the basis instead, as
        `stream_mode_loads` times c_n DW_n.  Raises IndexError for n
        outside 1..N."""
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


def _newton(
    n: int, x: np.ndarray, b: np.ndarray, work: StepperWorkspace
) -> tuple[np.ndarray, float, int, bool]:
    """Damped Newton for step n in the stream basis, from the
    coefficients x, with the load b in the basis, on the lagged
    factorization: each correction is backtracked (Armijo) until the
    residual norm drops.  Returns (x, residual, iterations, converged)
    for the last iterate.  A residual with a non-finite entry raises
    FloatingPointError before anything is factored at its point."""
    nt = work.config.newton

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
            return x, res, it, True
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
                    return x, res, it, False
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
    return x, res, nt.max_iter, False


def _picard_fallback(
    x_start: np.ndarray, b: np.ndarray, work: StepperWorkspace
) -> tuple[np.ndarray, float]:
    """Kacanov fixed-point iteration from the coefficients x_start, with
    the load b in the basis: each iterate solves the step in the stream
    basis with the radial-weight matrix frozen at the previous one.
    Returns the iterate with the smallest residual (the start, copied,
    if none is finite) and that residual."""
    u, best, best_res = work.velocity(x_start), x_start.copy(), np.inf
    for _ in range(work.config.newton.picard_iters):
        x = work.factorize(u, picard=True).solve(b)
        u = work.velocity(x)
        _, res = work.stream_residual(x, b)
        if res < best_res:
            best, best_res = x, res
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
    """Sequential steps n = 1..N from u0, then the closing pass; a
    trajectory ends at its first failed step.

    Each step keeps its stream coefficients x_n alone and solves
    (C^T M C + tau F_S) x_n = C^T M C x_{n-1} + C^T l_n, with x_0 the
    coefficients of u0 and l_n = (G_n(u_{(n-2) v 0}) DW_n, xi) on free
    dofs; the only increment it reads is DW_n.  The increments object is
    wrapped so that every read is logged; the log is checked after each
    step to enforce that step n touched no increment beyond index n
    (adaptedness of the discrete flow).  A step ends the loop when its
    solver does not converge or its coefficients are not finite.  The
    closing pass (`_close_steps`) then forms the fields, stress columns
    and stats of every step and cuts the run at the first step that
    failed.  The noise loads are recorded factored (see `Trajectory`).

    Raises ValueError when the increments or the workspace belong to
    another grid, config, mode count or mesh.  Raises FloatingPointError
    naming the step when its right-hand side is not finite, and naming
    the step and the Newton iteration when a residual is not finite.
    """
    why = _increments_mismatch(increments, config)
    if why:
        raise ValueError(f"step 1: {why}")
    if work is None:
        work = StepperWorkspace(config, ops)
    elif work.config != config or work.ops is not ops:
        raise ValueError("step 1: the workspace was built for another config or mesh")
    audited = _AuditedIncrements(increments)
    N, model, nt = config.grid.N, config.model, config.newton
    additive = model is not None and not model.velocity_dependent
    X = np.empty((N, ops.stream_mass.shape[0]))
    noise_b = np.empty_like(X)  # row n-1: C^T l_n
    coeffs = np.zeros((N, model.n_modes if additive else 0))
    loads: list[np.ndarray] = []
    solved: list[tuple] = []
    access_log: list[tuple[int, int]] = []
    Mu0 = ops.M_free @ u0.coeffs[ops.free]
    x = work.stream_coefficients(Mu0)
    for n in range(1, N + 1):
        mark = len(audited.accessed)
        dW = audited.increment(n)
        if additive:
            c = data_coefficient(n, model, config.grid)
            if c:  # exact zeros where c_n is zero
                coeffs[n - 1] = c * dW
            noise_b[n - 1] = work.stream_mode_loads @ coeffs[n - 1]
            hs_G = abs(c) * work.mode_loads[1]
        else:
            u_lag = u0.coeffs if n <= 2 else work.velocity(X[n - 3])
            load, hs_G = work.noise_rhs(n, u_lag, dW)
            loads.append(load)
            noise_b[n - 1] = work.stream_load(load)
        b = noise_b[n - 1] + ops.stream_mass @ x
        if not np.isfinite(b).all():
            raise FloatingPointError(f"step {n}: the right-hand side has non-finite entries")
        refactors_before = work.refactor_count
        if work.is_linear:
            x_n, iterations, converged, used_picard = work.linear_factor().solve(b), 1, True, False
        else:
            x_n, _, iterations, converged = _newton(n, x, b, work)
            used_picard = not converged
            if used_picard:
                x_n, res = _picard_fallback(x, b, work)
                converged = res <= nt.abs_tol
        for idx in audited.accessed[mark:]:
            access_log.append((n, idx))
            if idx > n:
                raise AssertionError(f"step {n} read increment {idx}: causality violated")
        X[n - 1] = x = x_n
        refactors = work.refactor_count - refactors_before
        solved.append((iterations, refactors, converged, used_picard, hs_G))
        if not (converged and np.isfinite(x).all()):
            break

    done = len(solved)
    fields, stress_loads, stats = _close_steps(work, u0, Mu0, X[:done], noise_b[:done], solved)
    failed_at = next((n for n, st in enumerate(stats, 1) if not st.converged), None)
    steps = failed_at or done
    if additive:
        basis, coeffs = work.mode_loads[0], coeffs[:steps]
    elif model is not None:
        basis, coeffs = np.stack(loads[:steps], axis=1), np.eye(steps)
    else:
        basis, coeffs = np.zeros((ops.n_free, 0)), np.zeros((steps, 0))
    return Trajectory(
        fields=fields[: steps + 1],
        noise_basis=basis,
        noise_coeffs=coeffs,
        stress_loads=stress_loads[:steps],
        stats=stats[:steps],
        increment_access_log=[(n, i) for n, i in access_log if n <= steps],
        grid=config.grid,
        failed_at=failed_at,
    )


def _close_steps(
    work: StepperWorkspace,
    u0: Field,
    Mu0: np.ndarray,
    X: np.ndarray,
    noise_b: np.ndarray,
    solved: list[tuple],
) -> tuple[list[Field], np.ndarray, list[StepStats]]:
    """The closing pass of the steps with coefficients X (S x stream
    dim): (fields u_0..u_S, stress columns (S x n_free), stats).

    Velocities live on the free dofs here, where they are nonzero: Mu0
    is M u_0 there, row n-1 of noise_b is the load C^T l_n of step n in
    the basis, and solved[n-1] holds what the solve of step n reported:
    (iterations, refactorizations, converged, used_picard, hs_G).  The pass forms, each as one block product over the S
    steps, the velocities U = C X^T, their mass products M U, the stress
    columns s_n = tau (S(eps u_n), eps xi) (at p = 2 one product
    tau K C X^T, `StepperWorkspace.linear_stress_basis`, else one
    quadrature per step, `stress_residual_vector`) and the closing
    residuals

        F_n = C^T (M u_n + s_n - M u_{n-1}) - C^T l_n.

    F_n equals C^T of the constrained momentum residual for any
    pressure, since C^T B^T = (B C)^T = 0; its norm is the scaled BLAS
    nrm2, finite for any finite F_n.  A step converged when its solver
    did and ||F_n|| <= 10 abs_tol.  The stats read the dissipation
    (S(eps u_n), eps u_n) as s_n . u_n / tau and the energy defect of
    the discrete energy identity tested with u_n,

        |u_n|^2 - |u_{n-1}|^2 + |u_n - u_{n-1}|^2
            + 2 tau (S(eps u_n), eps u_n) - 2 (l_n, u_n),

    with |.| the L2 norm, |u_n - u_{n-1}|^2 = |u_n|^2 + |u_{n-1}|^2 -
    2 (u_n, u_{n-1}) and (l_n, u_n) = (C^T l_n) . x_n."""
    ops, cfg = work.ops, work.config
    tau, free = cfg.grid.tau, ops.free
    U = ops.stream_basis @ X.T
    rows = np.zeros((len(X), ops.space_v.n_dofs))
    rows[:, free] = U.T
    MU = ops.M_free @ U
    if work.is_linear:
        S = work.linear_stress_basis @ X.T
    else:
        S = np.empty_like(U)
        for j, u in enumerate(rows):
            S[:, j] = tau * stress_residual_vector(u, ops, cfg.params)
    diss = np.einsum("ij,ij->j", S, U) / tau
    energy = np.einsum("ij,ij->j", U, MU)
    prev = np.concatenate([[u0.coeffs[free] @ Mu0], energy[:-1]])
    cross = np.concatenate([[U[:, 0] @ Mu0], np.einsum("ij,ij->j", U[:, 1:], MU[:, :-1])])
    defect = (
        energy
        - prev
        + (energy + prev - 2.0 * cross)
        + 2.0 * tau * diss
        - 2.0 * np.einsum("ij,ij->i", noise_b, X)
    )
    # the residual block M (u_n - u_{n-1}) + s_n, in the buffer of U
    R = U
    np.subtract(MU[:, 1:], MU[:, :-1], out=R[:, 1:])
    R[:, 0] = MU[:, 0] - Mu0
    R += S
    F = ops.stream_basis_T @ R - noise_b.T
    res = [float(la.norm(f, check_finite=False)) for f in F.T]
    ok = 10 * cfg.newton.abs_tol
    stats = [
        StepStats(
            iterations=its,
            residual=r,
            refactorizations=refactors,
            converged=converged and r <= ok,
            used_picard=used_picard,
            energy_defect=float(e),
            dissipation=float(d),
            hs_G=hs_G,
        )
        for (its, refactors, converged, used_picard, hs_G), r, e, d in zip(solved, res, defect, diss)
    ]
    return [u0] + [Field("velocity", u) for u in rows], S.T, stats
