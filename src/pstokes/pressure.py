"""Pressure reconstruction: initial pressure, per-step decomposition,
and the two pressure norms.

Every pressure solve here is the same problem: given a functional
l(xi) = d' xi on the velocity space, find the mean-zero q with
(q, div xi) = l(xi) for all xi in the L2-orthogonal complement of the
discretely divergence-free subspace.  Feeding rhs_v = -d into the
projection saddle (`spaces.SaddleSolver`) solves it in one pass: its
velocity w = -Pi_div f, with f the Riesz representative of l, is one
back-substitution with the factor of C^T M C in the stream basis, and
its pressure q, recovered macro-element by macro-element from
B^T q = M (f + w) = M Pi_perp f, is exactly the solution of the
least-squares definition.  The byproduct z = f + w equals
-grad_h q = Pi_perp f, so ||q||_Qsto = ||z||_L2 comes for free.

The three components: pi_init from l(xi) = (u_0, xi); pi_det_n from
l(xi) = sum_{l<=n} tau (S(eps u_l), eps xi); pi_sto_n from
l(xi) = -sum_{l<=n} (G_l DW_l, xi).  The functionals are per-step
increments plus cumulative sums, stacked into two families of columns,
each solved in one pass: the N + 1 functionals of pi_init and the
deterministic increments need q only (one saddle solve), the
stochastic ones also z (one saddle solve and one mass solve).  The
solves are linear in the load, so the stochastic family is solved for
the basis B of the trajectory's factored noise record
(`Trajectory.noise_basis`), not for the N loads B W[n-1]: the
increments of q and z are the solutions for B times the coefficients
W.  Under the additive rule B holds the K mode loads ((g_k, xi)), so
the family costs K columns however many steps the run has; under a
velocity-dependent rule B holds the N loads and W is the identity.

`reconstruct` forms no stress: the deterministic increments are the
columns tau (S(eps u_n), eps xi) that each step's last residual formed
and the trajectory stores (`Trajectory.stress_loads`).
`verify_reconstruction`, the one check of the reconstruction equation,
evaluates them afresh from the fields, so that it stays independent of
the stepper's columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pstokes.spaces import (
    AssembledOperators,
    Field,
    _full_velocity,
    discrete_gradient,
    grad_at_qp,
    l2_norm,
    lp_norm,
    project_perp,
    stress_residual_vector,
    sym_grad_at_qp,
)
from pstokes.stepper import SchemeConfig, StepperWorkspace, Trajectory, _increments_mismatch
from pstokes.tensors import PowerLawParams, frobenius, stress_S

__all__ = [
    "PressureTrajectory",
    "initial_pressure",
    "reconstruct",
    "norm_Qsto",
    "norm_Qdet",
    "stress_dual_norm",
    "verify_reconstruction",
]

# Pointwise |div v|^2 = (d1 v1 + d2 v2)^2 <= 2 |grad v|^2, so the
# discrete Q_det norm is bounded by sqrt(2) ||q||_{L^p'} rigorously;
# used as the upper end of the bracket.
DIV_GRAD_CONSTANT = np.sqrt(2.0)

# The random V-perp fields of verify_reconstruction and norm_Qdet come
# from one fixed seed, so that a check reads the same on every run.
VERIFY_DIRECTIONS = 20
PERP_SEED = 0


@dataclass
class PressureTrajectory:
    """pi_n = pi_init + pi_det_n + pi_sto_n, each component mean-zero.

    z_sto[n-1] = Pi_perp f of pi_sto_n (equal to -grad_h pi_sto_n), the
    velocity-length vector whose L2 norm is ||pi_sto_n||_Qsto; the rows
    are stacked in one (N, n_dofs) array, so Besov statistics reduce to
    Gram-matrix algebra.  The other two components need no such vector:
    norm_Qsto evaluates any pressure from its discrete gradient.
    """

    pi_init: Field
    pi_det: list[Field]
    pi_sto: list[Field]
    z_sto: np.ndarray

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
    d_free: np.ndarray, ops: AssembledOperators, want_z: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Mean-zero q with (q, div xi) = d'xi on V-perp, and z = Pi_perp f.

    d_free has shape (n_free,) or, for k functionals at once, (n_free, k);
    q and z (full velocity length) then carry the same trailing axis.
    z costs one mass solve; without want_z it is skipped and z is None.
    """
    w_free, q = ops.projection_saddle().solve(-d_free)
    if not want_z:
        return q, None
    f_free = ops.mass_free_lu.solve(d_free)
    return q, _full_velocity(ops, f_free + w_free)


def _random_perp(k: int, ops: AssembledOperators) -> np.ndarray:
    """k random fields of V-perp as full-length columns (n_dofs, k).

    Their free values are standard normal draws from PERP_SEED, one row
    of n_free per field, so the first j fields do not depend on k; all k
    are projected in one multi-column saddle solve."""
    rng = np.random.default_rng(PERP_SEED)
    v = _full_velocity(ops, rng.standard_normal((k, ops.n_free)).T)
    v[ops.free] -= ops.projection_saddle().velocity((ops.M_full @ v)[ops.free])
    return v


def initial_pressure(u0h: Field, ops: AssembledOperators) -> Field:
    """Least-squares pressure of the initial datum:
    (pi_0, div xi) = (u_0^h, xi) for all xi in V-perp, mean zero."""
    if u0h.kind != "velocity":
        raise ValueError("initial_pressure expects a velocity Field")
    q, _ = _solve_vperp((ops.M_full @ u0h.coeffs)[ops.free], ops)
    return Field("pressure", q)


def reconstruct(
    traj: Trajectory,
    increments,
    config: SchemeConfig,
    ops: AssembledOperators,
) -> PressureTrajectory:
    """Pressure components for every step of a trajectory that did not fail.

    Uses only data with indices <= n for pi_n (the stored stress columns
    and noise loads of steps 1..n), mirroring the stepper's causality.
    The stochastic family is one solve, with z, for the basis B
    (n_free x r) of the trajectory's factored noise record, giving
    (Q_B, Z_B); with the coefficients W (N x r) the increments are
    Q_B W^T and Z_B W^T, and their sums up to step n are the
    cumulative sums of W times Q_B^T and Z_B^T.  That is K columns
    under the additive rule, N under a velocity-dependent one and none
    without a noise model (pi_sto and z_sto are then zero and nothing
    is solved).  When `increments` is given, the noise loads are assembled
    again by quadrature from the Wiener increments and the lagged
    velocities and take the place of B, with W the identity, instead of
    the stepper's record: an independent assembly path.  Pass None to
    use the record; no workspace is built then.  A failed trajectory
    (`failed_at` set), a trajectory or increments for another grid than
    config's, and increments with another mode count than its noise
    model raise ValueError; a prefix of a run, fewer than N steps none
    of which failed, is reconstructed for the steps it has.  The result
    is not checked here: `verify_reconstruction` returns the residual of
    the reconstruction equation, for the caller to bound.
    """
    if not traj.ok:
        raise ValueError(f"trajectory failed at step {traj.failed_at}")
    if traj.grid != config.grid:
        raise ValueError(f"the trajectory is for {traj.grid}, the config for {config.grid}")
    why = increments is not None and _increments_mismatch(increments, config)
    if why:
        raise ValueError(why)
    N = traj.n_steps

    B, W = traj.noise_basis, traj.noise_coeffs
    if increments is not None:
        work = StepperWorkspace(config, ops)
        loads = []
        for n in range(1, N + 1):
            u_lag = traj.fields[max(n - 2, 0)].coeffs
            load, _ = work.quadrature_load(n, u_lag, increments.increment(n))
            loads.append(load)
        B = np.stack(loads, axis=1) if N else np.zeros((ops.n_free, 0))
        W = np.eye(N)

    # The functionals that need q only: pi_init's, then the deterministic
    # increments tau (S(eps u_n), eps xi).
    D = np.column_stack([(ops.M_full @ traj.fields[0].coeffs)[ops.free]] + traj.stress_loads)
    q, _ = _solve_vperp(D, ops)
    if B.shape[1]:
        q_B, z_B = _solve_vperp(-B, ops, want_z=True)
    else:  # r = 0, no noise model: nothing to solve
        q_B, z_B = np.zeros((ops.n_pressure, 0)), np.zeros((ops.space_v.n_dofs, 0))

    # the cumulative sums of the increments W Q_B^T are the cumulative
    # sums of the N x r coefficients times Q_B^T: no sum over full columns
    W_cum = np.cumsum(W, axis=0)
    q_det_cum = np.cumsum(q[:, 1:].T, axis=0)
    q_sto_cum = W_cum @ q_B.T
    return PressureTrajectory(
        Field("pressure", q[:, 0].copy()),
        [Field("pressure", q_det_cum[n]) for n in range(N)],
        [Field("pressure", q_sto_cum[n]) for n in range(N)],
        W_cum @ z_B.T,
    )


def norm_Qsto(q: Field, ops: AssembledOperators) -> float:
    """||q||_Qsto = sup over V-perp of (q, div v) / ||v||_L2 = ||grad_h q||_L2.

    The sup is attained at v = -grad_h q, which needs no projection to
    V-perp: (grad_h q, w) = -(q, div w) vanishes for every discretely
    divergence-free w, so grad_h q lies in V-perp up to its mass solve."""
    if q.kind != "pressure":
        raise ValueError("norm_Qsto expects a pressure Field")
    return l2_norm(discrete_gradient(q, ops), ops)


def norm_Qdet(
    q: Field,
    p: float,
    ops: AssembledOperators,
    n_candidates: int = 32,
) -> dict:
    """Bracket for sup over V-perp of (q, div v) / ||grad v||_p.

    lower: the ratio maximized over n_candidates directions in V-perp —
    the Q_sto maximizer -grad_h q, gradient-stiffness preconditioned
    ascent iterates (monotone by construction: each iterate maximizes
    over a growing subspace), and random fields of V-perp.  upper: the
    rigorous bound sqrt(2) ||q||_{L^p'}.  The true value lies in
    [lower, upper].
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    upper = DIV_GRAD_CONSTANT * lp_norm(np.abs(ops.P @ q.coeffs), ops, p / (p - 1.0))
    if not np.any(q.coeffs):
        return {"lower": 0.0, "upper": 0.0, "ascent_ratios": []}

    d_full = ops.B_full.T @ q.coeffs  # (q, div v) = d'v
    d_free = d_full[ops.free]

    def ratio(v_full: np.ndarray) -> float:
        den = lp_norm(frobenius(grad_at_qp(v_full, ops)), ops, p)
        if den == 0.0:
            return 0.0
        return float(d_full @ v_full) / den

    # Q_sto maximizer, in V-perp as it is (see norm_Qsto); the sign makes
    # the pairing positive: (q, div grad_h q) = -||grad_h q||^2
    v_star = -discrete_gradient(q, ops).coeffs
    candidates = [v_star]

    # subspace ascent in the p=2 geometry: maximize (d'v)^2 / (v'Kv)
    # over a growing span of stiffness-preconditioned directions.  Each
    # iterate maximizes over a nested subspace, so for p = 2 the ratios
    # are nondecreasing by construction.
    lu = ops.grad_stiffness_lu
    basis: list[np.ndarray] = []
    k_basis: list[np.ndarray] = []
    ascent_ratios: list[float] = []
    w = v_star
    for step in range(6):
        if step:
            # next direction: the preconditioned residual of the last
            # iterate, projected to V-perp
            w_new = _full_velocity(ops, lu.solve(d_free - KW @ c))
            w = project_perp(Field("velocity", w_new), ops).coeffs
        if not np.any(w):
            break
        basis.append(w[ops.free])
        k_basis.append(ops.grad_stiffness @ w[ops.free])
        W = np.stack(basis, axis=1)  # (nf, k)
        KW = np.stack(k_basis, axis=1)
        c = np.linalg.lstsq(W.T @ KW, W.T @ d_free, rcond=None)[0]
        v_best = _full_velocity(ops, W @ c)
        candidates.append(v_best)
        ascent_ratios.append(ratio(v_best))

    if len(candidates) < n_candidates:
        candidates.extend(_random_perp(n_candidates - len(candidates), ops).T)
    lower = float(np.max([ratio(v) for v in candidates[:n_candidates]]))
    return {"lower": lower, "upper": upper, "ascent_ratios": ascent_ratios}


def stress_dual_norm(u: Field, ops: AssembledOperators, params: PowerLawParams) -> float:
    """||S(eps u)||_{L^p'} by quadrature — the per-step bound on the
    deterministic pressure increment: ||d_n pi_det / tau||_Qdet never
    exceeds this value."""
    if u.kind != "velocity":
        raise ValueError("stress_dual_norm expects a velocity Field")
    S = stress_S(sym_grad_at_qp(u.coeffs, ops), params)
    return lp_norm(frobenius(S), ops, params.p_conj)


def verify_reconstruction(
    traj: Trajectory,
    ptraj: PressureTrajectory,
    config: SchemeConfig,
    ops: AssembledOperators,
) -> float:
    """Max per-step residual of the reconstruction equation

        (d_n u, xi) + tau (S(eps u_n), eps xi) - (d_n pi, div xi)
            = (G_n DW_n, xi)

    over VERIFY_DIRECTIONS random L2-normalized directions xi in V-perp
    and all steps: the largest entry of one product of the stacked step
    residuals with the stacked directions.  The stress columns
    tau (S(eps u_n), eps xi) are formed afresh from the fields, not read
    from the trajectory, so the check is independent of the columns
    `reconstruct` solved with; the noise loads are the trajectory's
    factored record multiplied out in one product
    (`Trajectory.noise_loads`).  The caller bounds the result.  A
    non-finite residual makes the result NaN; a direction of zero or
    non-finite norm raises FloatingPointError."""
    tau = config.grid.tau
    xi = _random_perp(VERIFY_DIRECTIONS, ops)
    nrm = np.sqrt(np.einsum("ik,ik->k", xi, ops.M_full @ xi))
    if not np.all(nrm > 0.0):
        raise FloatingPointError(f"verification direction norms {nrm} are not all positive")
    loads = traj.noise_loads
    R = np.empty((ops.n_free, traj.n_steps))
    for n in range(1, traj.n_steps + 1):
        R[:, n - 1] = (
            (ops.M_full @ (traj.fields[n].coeffs - traj.fields[n - 1].coeffs))[ops.free]
            + tau * stress_residual_vector(traj.fields[n].coeffs, ops, config.params)
            - ops.B_free.T @ ptraj.increment(n).coeffs
            - loads[n - 1]
        )
    return float(np.abs(R.T @ (xi[ops.free] / nrm)).max(initial=0.0))
