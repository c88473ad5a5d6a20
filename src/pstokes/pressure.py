"""Pressure reconstruction: initial pressure, per-step decomposition,
and the two pressure norms.

Every pressure solve here is the same problem: given a functional
l(xi) = d' xi on the velocity space, find the mean-zero q with
(q, div xi) = l(xi) for all xi in the L2-orthogonal complement of the
discretely divergence-free subspace.  Feeding rhs_v = -d into the
factorized projection saddle solves it in one pass: the saddle returns
w = -Pi_div f with f the Riesz representative of l, so its multiplier q
satisfies B'q = M (f + w) = M Pi_perp f, which is exactly the normal
equation of the least-squares definition.  The byproduct z = f + w
equals -grad_h q = Pi_perp f, so ||q||_Qsto = ||z||_L2 comes for free.

The three components: pi_init from l(xi) = (u_0, xi); pi_det_n from
l(xi) = sum_{l<=n} tau (S(eps u_l), eps xi); pi_sto_n from
l(xi) = -sum_{l<=n} (G_l DW_l, xi).  All solves are increments plus
cumulative sums, so reconstruction costs two triangular solves per step.
"""

from __future__ import annotations

import numpy as np

from pstokes.spaces import (
    AssembledOperators,
    Field,
    _full_velocity,
    discrete_gradient,
    grad_at_qp,
    norms,
    pressure_lp_norm,
    project_perp,
    stress_residual_vector,
    sym_grad_at_qp,
)
from pstokes.stepper import SchemeConfig, StepperWorkspace, Trajectory
from pstokes.tensors import PowerLawParams, frobenius, stress_S

__all__ = [
    "PressureTrajectory",
    "initial_pressure",
    "reconstruct",
    "reconstruction_increments",
    "norm_Qsto",
    "norm_Qdet",
    "stress_dual_norm",
    "verify_reconstruction",
]

# Pointwise |div v|^2 = (d1 v1 + d2 v2)^2 <= 2 |grad v|^2, so the
# discrete Q_det norm is bounded by sqrt(2) ||q||_{L^p'} rigorously;
# used as the upper end of the bracket.
DIV_GRAD_CONSTANT = np.sqrt(2.0)


class PressureTrajectory:
    """pi_n = pi_init + pi_det_n + pi_sto_n (componentwise mean-zero).

    z_sto[n-1] is the velocity-length vector Pi_perp f of pi_sto_n, the
    quantity whose L2 norm is the Q_sto norm; kept as an array so Besov
    statistics reduce to Gram-matrix algebra.
    """

    def __init__(
        self,
        pi_init: Field,
        pi_det: list[Field],
        pi_sto: list[Field],
        z_sto: np.ndarray,
        z_init: np.ndarray,
    ):
        self.pi_init = pi_init
        self.pi_det = pi_det
        self.pi_sto = pi_sto
        self.z_sto = z_sto
        self.z_init = z_init

    @property
    def n_steps(self) -> int:
        return len(self.pi_det)

    def combined(self, n: int) -> Field:
        """pi_n; n = 0 returns the initial pressure alone."""
        if n == 0:
            return self.pi_init.copy()
        if not 1 <= n <= self.n_steps:
            raise IndexError(f"pressure index {n} outside 0..{self.n_steps}")
        return Field(
            "pressure",
            self.pi_init.coeffs + self.pi_det[n - 1].coeffs + self.pi_sto[n - 1].coeffs,
        )

    def increment(self, n: int) -> Field:
        """d_n pi = pi_n - pi_{n-1}."""
        a = self.combined(n)
        b = self.combined(n - 1)
        return Field("pressure", a.coeffs - b.coeffs)


def _solve_vperp(
    d_free: np.ndarray, ops: AssembledOperators, want_z: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Mean-zero q with (q, div xi) = d'xi on V-perp, and z = Pi_perp f.

    d_free has shape (n_free,) or, for k functionals at once, (n_free, k);
    q and z (full velocity length) then carry the same trailing axis.
    With want_z=False the mass solve for z is skipped and z is None.
    """
    w_free, q = ops.projection_saddle().solve(-d_free)
    if not want_z:
        return q, None
    f_free = ops.mass_free_lu().solve(d_free)
    return q, _full_velocity(ops, f_free + w_free)


def initial_pressure(u0h: Field, ops: AssembledOperators) -> Field:
    """Least-squares pressure of the initial datum:
    (pi_0, div xi) = (u_0^h, xi) for all xi in V-perp, mean zero."""
    if u0h.kind != "velocity":
        raise ValueError("initial_pressure expects a velocity Field")
    d = (ops.M_full @ u0h.coeffs)[ops.free]
    q, _ = _solve_vperp(d, ops)
    return Field("pressure", q)


def reconstruct(
    traj: Trajectory,
    increments,
    config: SchemeConfig,
    ops: AssembledOperators,
    verify: bool = False,
) -> PressureTrajectory:
    """Pressure components for every step of a completed trajectory.

    Uses only data with indices <= n for pi_n (the stress sums and noise
    loads of steps 1..n), mirroring the stepper's causality.  When
    `increments` is given, the noise loads are recomputed from the
    Wiener increments and the lagged velocities instead of taking the
    stepper's stored loads, giving an independent assembly path; pass
    None to reuse the stored loads.  With verify=True the per-step
    reconstruction equation residual is checked against random test
    directions and a residual above 1e-6 raises.
    """
    if not traj.ok:
        raise ValueError(f"trajectory failed at step {traj.failed_at}")
    tau = config.grid.tau
    N = traj.n_steps

    loads = traj.noise_loads
    if increments is not None:
        work = StepperWorkspace(config, ops)
        loads = []
        for n in range(1, N + 1):
            u_lag = traj.fields[max(n - 2, 0)].coeffs
            load, _ = work.noise_rhs(n, u_lag, increments.increment(n))
            loads.append(load)

    d0 = (ops.M_full @ traj.fields[0].coeffs)[ops.free]
    q0, z0 = _solve_vperp(d0, ops)
    pi_init = Field("pressure", q0)

    dq_det, dq_sto, z_cum = reconstruction_increments(traj, loads, config, ops)
    q_det_cum = np.cumsum(dq_det, axis=0)
    q_sto_cum = np.cumsum(dq_sto, axis=0)
    pi_det = [Field("pressure", q_det_cum[n]) for n in range(N)]
    pi_sto = [Field("pressure", q_sto_cum[n]) for n in range(N)]
    ptraj = PressureTrajectory(pi_init, pi_det, pi_sto, z_cum, z0)
    if verify:
        res = verify_reconstruction(traj, ptraj, config, ops)
        if res > 1e-6:
            raise ValueError(f"reconstruction equation residual {res:.3e} exceeds 1e-6")
    return ptraj


def reconstruction_increments(
    traj: Trajectory,
    loads: list[np.ndarray] | None,
    config: SchemeConfig,
    ops: AssembledOperators,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-step pressure increments, batched through the factorizations.

    Returns (dq_det, dq_sto, z_cum): dq_det[n-1] and dq_sto[n-1] are the
    pressure coefficient increments of the two components at step n, and
    z_cum[n-1] is the cumulative Pi_perp representative whose L2 norm is
    ||pi_sto_n||_Qsto.  This is the whole cost of pressure statistics:
    one multi-column solve per factorization.
    """
    if loads is None:
        loads = traj.noise_loads
    tau = config.grid.tau
    N = traj.n_steps
    D_det = np.empty((ops.n_free, N))
    for n in range(1, N + 1):
        D_det[:, n - 1] = tau * stress_residual_vector(
            traj.fields[n].coeffs, ops, config.params
        )
    L = np.stack(loads, axis=1) if N else np.zeros((ops.n_free, 0))
    dq_det, _ = _solve_vperp(D_det, ops, want_z=False)
    dq_sto, dz = _solve_vperp(-L, ops)
    z_cum = np.cumsum(dz.T, axis=0)
    return dq_det.T, dq_sto.T, z_cum


def norm_Qsto(q: Field, ops: AssembledOperators) -> float:
    """||q||_Qsto = ||Pi_perp grad_h q||_L2 (duality form of the sup)."""
    if q.kind != "pressure":
        raise ValueError("norm_Qsto expects a pressure Field")
    g = discrete_gradient(q, ops)
    gp = project_perp(g, ops)
    return norms(gp, "L2", ops)


def _grad_lp_norm(v_coeffs: np.ndarray, ops: AssembledOperators, p: float) -> float:
    """Full-gradient L^p norm by quadrature."""
    grad = grad_at_qp(v_coeffs, ops)
    mag = np.sqrt(np.einsum("tqcd,tqcd->tq", grad, grad))
    return float(np.einsum("tq,tq->", ops.qw, mag**p) ** (1.0 / p))


def norm_Qdet(
    q: Field,
    p: float,
    ops: AssembledOperators,
    n_candidates: int = 32,
    seed: int = 0,
) -> dict:
    """Bracket for sup over V-perp of (q, div v) / ||grad v||_p.

    lower: the ratio maximized over n_candidates directions in V-perp —
    the Q_sto maximizer, gradient-stiffness preconditioned ascent
    iterates (monotone by construction: each iterate maximizes over a
    growing subspace), and random projected fields.  upper: the rigorous
    bound sqrt(2) ||q||_{L^p'}.  The true value lies in [lower, upper].
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    p_conj = p / (p - 1.0)
    upper = DIV_GRAD_CONSTANT * pressure_lp_norm(q, ops, p_conj)
    if not np.any(q.coeffs):
        return {"lower": 0.0, "upper": 0.0, "ascent_ratios": []}

    d_full = ops.B_full.T @ q.coeffs  # (q, div v) = d'v
    d_free = d_full[ops.free]

    def ratio(v_full: np.ndarray) -> float:
        den = _grad_lp_norm(v_full, ops, p)
        if den == 0.0:
            return 0.0
        return float(d_full @ v_full) / den

    def perp(v_full: np.ndarray) -> np.ndarray:
        return project_perp(Field("velocity", v_full), ops).coeffs

    candidates: list[np.ndarray] = []
    # Q_sto maximizer: -Pi_perp grad_h q (sign chosen to make the pairing
    # positive: (q, div grad_h q) = -||Pi_perp grad_h q||^2)
    g = discrete_gradient(q, ops)
    v_star = -perp(g.coeffs)
    candidates.append(v_star)

    # subspace ascent in the p=2 geometry: maximize (d'v)^2 / (v'Kv)
    # over a growing span of stiffness-preconditioned directions.  Each
    # iterate maximizes over a nested subspace, so for p = 2 the ratios
    # are nondecreasing by construction.
    lu = ops.grad_stiffness_lu()
    basis: list[np.ndarray] = []
    k_basis: list[np.ndarray] = []
    ascent_ratios: list[float] = []
    w = v_star
    for _ in range(6):
        if not np.any(w):
            break
        basis.append(w[ops.free])
        k_basis.append(ops.grad_stiffness @ w[ops.free])
        W = np.stack(basis, axis=1)  # (nf, k)
        KW = np.stack(k_basis, axis=1)
        A = W.T @ KW
        b = W.T @ d_free
        c = np.linalg.lstsq(A, b, rcond=None)[0]
        v_best = np.zeros(ops.space_v.n_dofs)
        v_best[ops.free] = W @ c
        candidates.append(v_best)
        ascent_ratios.append(ratio(v_best))
        # next direction: preconditioned residual, projected to V-perp
        r = d_free - KW @ c
        w_new = np.zeros(ops.space_v.n_dofs)
        w_new[ops.free] = lu.solve(r)
        w = perp(w_new)

    rng = np.random.default_rng(seed)
    while len(candidates) < n_candidates:
        v = np.zeros(ops.space_v.n_dofs)
        v[ops.free] = rng.standard_normal(ops.n_free)
        candidates.append(perp(v))

    lower = max(ratio(v) for v in candidates[:n_candidates])
    return {"lower": lower, "upper": upper, "ascent_ratios": ascent_ratios}


def stress_dual_norm(u: Field, ops: AssembledOperators, params: PowerLawParams) -> float:
    """||S(eps u)||_{L^p'} by quadrature — the per-step bound on the
    deterministic pressure increment: ||d_n pi_det / tau||_Qdet never
    exceeds this value."""
    if u.kind != "velocity":
        raise ValueError("stress_dual_norm expects a velocity Field")
    p_conj = params.p / (params.p - 1.0)
    eps = sym_grad_at_qp(u.coeffs, ops)
    S = stress_S(eps, params)
    mag = frobenius(S)
    return float(np.einsum("tq,tq->", ops.qw, mag**p_conj) ** (1.0 / p_conj))


def verify_reconstruction(
    traj: Trajectory,
    ptraj: PressureTrajectory,
    config: SchemeConfig,
    ops: AssembledOperators,
    n_directions: int = 20,
    seed: int = 0,
) -> float:
    """Max per-step residual of the reconstruction equation

        (d_n u, xi) + tau (S(eps u_n), eps xi) - (d_n pi, div xi)
            = (G_n DW_n, xi)

    over random normalized directions xi in V-perp, all steps."""
    rng = np.random.default_rng(seed)
    tau = config.grid.tau
    dirs = []
    for _ in range(n_directions):
        v = np.zeros(ops.space_v.n_dofs)
        v[ops.free] = rng.standard_normal(ops.n_free)
        xi = project_perp(Field("velocity", v), ops)
        nrm = norms(xi, "L2", ops)
        if nrm > 0:
            dirs.append(xi.coeffs / nrm)
    worst = 0.0
    for n in range(1, traj.n_steps + 1):
        du = traj.fields[n].coeffs - traj.fields[n - 1].coeffs
        d_pi = ptraj.increment(n)
        r_free = (
            (ops.M_full @ du)[ops.free]
            + tau * stress_residual_vector(traj.fields[n].coeffs, ops, config.params)
            - ops.B_free.T @ d_pi.coeffs
            - traj.noise_loads[n - 1]
        )
        for xi in dirs:
            worst = max(worst, abs(float(r_free @ xi[ops.free])))
    return worst
