"""Statistics of trajectory ensembles: stability, errors, domination.

Three groups of tools, all plain Monte Carlo over completed trajectories
(expectations are sample means; reported standard errors quantify the MC
noise):

* Stability statistics (`stability_stats`, `besov_halves`): energy
  maxima, dissipation sums, and discrete Nikolskii seminorms

      max_k (1/k) sum_{n=k}^N ||u_n - u_{n-k}||^2,

  the lag-maximum taken exactly over all k (O(N^2) pairwise norms via
  one Gram matrix per trajectory).  The seminorm comes in two scales --
  max-of-mean (expectation inside the lag maximum) and mean-of-max
  (maximum inside the expectation); the second dominates the first.
  The dissipation is that of the discrete energy identity, tau sum_n
  ||V(eps u_n)||^2, read from the steps (`StepStats.dissipation`).
  Pressure ensembles add the dual-norm counterparts: the summed p'-power
  of deterministic pressure increments (upper bracket sqrt(2)||.||_p'),
  the maximal stochastic pressure, and its r-weighted Nikolskii scale.

* Error functionals (`error_stats`, `temporal_oscillation`): coupled
  comparison of a coarse trajectory against a reference computed on a
  nested finer grid pair from the same Wiener path (every trajectory
  carries its time grid, which must be its config's).  The reference is
  read as piecewise constant on its midpoint intervals; the coarse-step
  average <u>_n is its exact average over the coarse interval J_n; the
  hat-weighted time integrals are exact on the pieces of supp a_n
  (`grids.hat_pieces`), where the reference is constant, a_n linear.  Spatial
  comparison evaluates both fields at the fine mesh's quadrature points
  through sparse evaluation operators applied to whole trajectories: a
  mesh's own `qp_eval` at its own quadrature points (every operator of
  a same-mesh level, whose runs share one operator bundle), across
  meshes operators built once per call at located points
  (`spaces.point_evaluation`).  Self-comparison goes
  through one operator, so all error functionals vanish identically.
  Component proxies C_init, C_Linf, C_best, C_G, C_V isolate
  initial-datum, projection, best-approximation, data-approximation and
  temporal-oscillation contributions; C_best is an upper proxy
  (divergence-projected nodal interpolant of the reference in place of
  the true infimum).  The
  oscillation C_V and the lag seminorms are reductions of Gram matrices
  of rows the functions stack anyway: one hat-window reduction
  (`_window_oscillation`) and one lag kernel (`_lag_seminorm`) serve
  `error_stats`, `temporal_oscillation`, `stability_stats` and
  `besov_halves`.

* Domination / extrapolation verifier (`extrapolation_check`): builds
  the nonnegative adapted processes

      X_M = sum_{n<=M} int_{J_n} ||Ebar(t)/sqrt(tau)||_{L^2}^r dt,
      Y_M = max_{n <= (M+2) ^ N} ||G_n(u_{(n-2) v 0})||_HS^r,

  with Ebar the noise compensator, evaluates E[X_n]/E[Y_n] over a
  documented finite family of stopping rules (deterministic times,
  Y-threshold hitting times and their shifted variants -- an honest
  partial check of a statement quantified over all stopping times), and
  tests the fractional-moment extrapolation inequality

      E[(X_N)^k] < (1 + C - k)/(1 - k) * E[(Y_N)^k],  k in (0,1),

  reporting both margins as (RHS - LHS)/RHS with delta-method standard
  errors.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from pstokes.grids import HatPieces, TimeGrid, hat_pieces, weight_a, weight_cell_averages
from pstokes.noise import (
    _GAUSS3_NODES,
    _GAUSS3_WEIGHTS,
    NoiseModel,
    WienerPath,
    data_G_n,
    sample_increments,
    sample_wiener_path,
)
from pstokes.pressure import DIV_GRAD_CONSTANT, PressureTrajectory
from pstokes.spaces import (
    AssembledOperators,
    Field,
    PointEvaluation,
    _full_velocity,
    lp_norm,
    point_evaluation,
    qp_weights,
    velocity_at_qp,
)
from pstokes.stepper import SchemeConfig, StepperWorkspace, Trajectory, run_trajectory
from pstokes.tensors import nonlinear_V

__all__ = [
    "StabilityStats",
    "ErrorStats",
    "ExtrapolationReport",
    "besov_halves",
    "stability_stats",
    "error_stats",
    "temporal_oscillation",
    "extrapolation_check",
]


# ---------------------------------------------------------------------------
# Nikolskii seminorm machinery


def _mass_gram(U: np.ndarray, M) -> np.ndarray:
    """Gram matrix U M U^T of stacked coefficient rows."""
    return U @ (M @ U.T)


def _lag_seminorm(G: np.ndarray, tau: float = 1.0, r: float = 2.0) -> float:
    """Nikolskii lag seminorm of the rows u_0..u_N with Gram matrix G:

        (max_k sum_{n=k}^N tau (||u_n - u_{n-k}||^2 / (tau k))^{r/2})^{2/r}

    over the lags k = 1..N (zero when there is none), with
    ||u_n - u_m||^2 = G_nn + G_mm - 2 G_nm clipped at zero.  At r = 2 it
    is max_k (1/k) sum_n ||u_n - u_{n-k}||^2, whatever tau.  A non-finite
    entry of G makes the seminorm NaN.
    """
    d = np.diag(G)
    sums = []
    for k in range(1, len(G)):
        sq = np.maximum(d[k:] + d[:-k] - 2.0 * np.diagonal(G, offset=-k), 0.0)
        sums.append(np.sum(tau * (sq / (tau * k)) ** (r / 2.0)))
    # np.max keeps a NaN, where the builtin max would drop it
    return float(np.max(sums, initial=0.0)) ** (2.0 / r)


def _coeff_rows(seq: Sequence[Field]) -> tuple[np.ndarray, str]:
    kinds = {f.kind for f in seq}
    if len(kinds) != 1:
        raise ValueError(f"mixed field kinds in sequence: {sorted(kinds)}")
    return np.stack([f.coeffs for f in seq]), kinds.pop()


def besov_halves(ensemble, mode: str, ops: AssembledOperators) -> float:
    """Discrete Nikolskii half-order seminorm of a field-sequence ensemble.

    mode "max-of-mean" averages the squared lag increments over samples
    first and then maximizes over the lag; "mean-of-max" maximizes per
    sample and averages the maxima.  The second always dominates the
    first.  A bare sequence of Fields is treated as a one-sample
    ensemble, for which both modes coincide.
    """
    if mode not in ("max-of-mean", "mean-of-max"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(ensemble) == 0:
        raise ValueError("empty ensemble")
    if isinstance(ensemble[0], Field):
        ensemble = [ensemble]
    lengths = {len(seq) for seq in ensemble}
    if len(lengths) != 1:
        raise ValueError("sequences of different lengths in ensemble")
    if lengths.pop() < 1:
        raise ValueError("empty field sequence")

    grams = []
    for seq in ensemble:
        U, kind = _coeff_rows(seq)
        grams.append(_mass_gram(U, ops.M_full if kind == "velocity" else ops.Mq))
    if mode == "mean-of-max":
        return float(np.mean([_lag_seminorm(G) for G in grams]))
    return _lag_seminorm(sum(grams) / len(grams))


# ---------------------------------------------------------------------------
# Stability statistics


@dataclass(frozen=True)
class StabilityStats:
    """Ensemble statistics behind the uniform stability bounds.

    e_max          mean of max_n ||u_n||_L2^2 over steps 1..N
    dissipation    mean of sum_n tau (S(eps u_n), eps u_n) = sum_n tau
                   ||V(eps u_n)||^2 of the energy identity, read from
                   StepStats.dissipation (sum_n tau ||eps u_n||_p^p at
                   kappa = 0 only)
    besov_u        max-of-mean velocity Nikolskii seminorm
    besov_u_strong mean-of-max velocity Nikolskii seminorm (>= besov_u)
    det_increment  mean of sum_n tau ||d_n pi_det / tau||^p' (upper
                   bracket sqrt(2)||.||_{L^p'} of the dual norm)
    sto_max        mean of max_n ||pi_sto_n||^2 in the stochastic dual norm
    sto_besov_{r}  r-weighted Nikolskii scale of pi_sto for r in {2,4,8}:
                   (max_k sum_{n=k}^N tau (E[||pi_n - pi_{n-k}||^2]/(tau k))^{r/2})^{2/r}
    stderr         MC standard errors of the per-sample-reducible stats
    """

    n_samples: int
    e_max: float
    dissipation: float
    besov_u: float
    besov_u_strong: float
    det_increment: float | None
    sto_max: float | None
    sto_besov_2: float | None
    sto_besov_4: float | None
    sto_besov_8: float | None
    stderr: dict[str, float] = dc_field(default_factory=dict)


def _check_ensemble(trajs: Sequence[Trajectory], grid: TimeGrid, ops: AssembledOperators) -> int:
    """The step count N of an ensemble of complete runs on `grid` and the
    mesh of `ops`, with one StepStats per step; anything else raises."""
    if len(trajs) == 0:
        raise ValueError("need at least one trajectory")
    grids = {t.grid for t in trajs}
    if len(grids) != 1:
        raise ValueError(f"mixed grids in ensemble: (T, N) {sorted((g.T, g.N) for g in grids)}")
    if (traj_grid := grids.pop()) != grid:
        raise ValueError(f"the trajectories are for {traj_grid}, but the config expects {grid}")
    for i, t in enumerate(trajs):
        if not t.ok:
            raise ValueError(f"trajectory {i} failed at step {t.failed_at}")
        if t.n_steps != grid.N or len(t.stats) != grid.N:
            n, n_stats = t.n_steps, len(t.stats)
            raise ValueError(f"trajectory {i} has {n} of {grid.N} steps, {n_stats} stats")
        if t.fields[0].coeffs.size != ops.space_v.n_dofs:
            raise ValueError("trajectory dof count does not match the operators")
    return grid.N


def _mean_and_se(vals: list[float]) -> tuple[float, float]:
    a = np.asarray(vals)
    se = float(a.std(ddof=1) / np.sqrt(len(a))) if len(a) > 1 else 0.0
    return float(a.mean()), se


def stability_stats(
    trajs: Sequence[Trajectory],
    pressures: Sequence[PressureTrajectory] | None,
    config: SchemeConfig,
    ops: AssembledOperators,
) -> StabilityStats:
    """All stability statistics of an ensemble on one grid.

    `pressures` carries the reconstructed pressure trajectories matching
    `trajs` sample by sample; pass None to compute velocity statistics
    only (the pressure entries are then None).  The dissipation is read
    from the steps' StepStats; no field is evaluated at the points.
    """
    N = _check_ensemble(trajs, config.grid, ops)
    if pressures is not None and len(pressures) != len(trajs):
        raise ValueError("pressure ensemble size differs from trajectory ensemble")
    tau = config.grid.tau
    p_conj = config.params.p_conj

    e_max_s: list[float] = []
    diss_s: list[float] = []
    strong_s: list[float] = []
    det_s: list[float] = []
    sto_max_s: list[float] = []
    gram_sum = np.zeros((N + 1, N + 1))
    gram_z_sum = np.zeros((N + 1, N + 1))

    for i, traj in enumerate(trajs):
        U, _ = _coeff_rows(traj.fields)
        G = _mass_gram(U, ops.M_full)
        gram_sum += G
        strong_s.append(_lag_seminorm(G))
        e_max_s.append(float(np.diag(G)[1:].max()))
        diss_s.append(sum(tau * s.dissipation for s in traj.stats))
        if pressures is not None:
            ptraj = pressures[i]
            if ptraj.n_steps != N:
                raise ValueError(f"pressure trajectory {i} has {ptraj.n_steps} steps, expected {N}")
            Z = np.vstack([np.zeros(ops.space_v.n_dofs), ptraj.z_sto])
            Gz = _mass_gram(Z, ops.M_full)
            gram_z_sum += Gz
            sto_max_s.append(float(np.diag(Gz)[1:].max()))
            # L^p' norms of the increments d_n pi_det / tau, pi_det_0 = 0
            inc = np.diff(_coeff_rows(ptraj.pi_det)[0], axis=0, prepend=0.0) / tau
            lp = lp_norm(np.abs(ops.P @ inc.T), ops, p_conj)
            det_s.append(tau * float(np.sum((DIV_GRAD_CONSTANT * lp) ** p_conj)))

    ns = len(trajs)
    besov_u = _lag_seminorm(gram_sum / ns)

    e_max, e_se = _mean_and_se(e_max_s)
    diss, diss_se = _mean_and_se(diss_s)
    strong, strong_se = _mean_and_se(strong_s)
    stderr = {
        "e_max": e_se,
        "dissipation": diss_se,
        "besov_u_strong": strong_se,
    }

    det = sto_max = sb2 = sb4 = sb8 = None
    if pressures is not None:
        det, det_se = _mean_and_se(det_s)
        sto_max, sto_se = _mean_and_se(sto_max_s)
        stderr["det_increment"] = det_se
        stderr["sto_max"] = sto_se
        sb2, sb4, sb8 = (_lag_seminorm(gram_z_sum / ns, tau, r) for r in (2.0, 4.0, 8.0))

    return StabilityStats(
        n_samples=ns,
        e_max=e_max,
        dissipation=diss,
        besov_u=besov_u,
        besov_u_strong=strong,
        det_increment=det,
        sto_max=sto_max,
        sto_besov_2=sb2,
        sto_besov_4=sb4,
        sto_besov_8=sb8,
        stderr=stderr,
    )


# ---------------------------------------------------------------------------
# Nested-grid plumbing: time tables from the pieces of the hat supports


def _check_mesh_nesting(ops_c: AssembledOperators, ops_f: AssembledOperators) -> None:
    """Refuse a pair of meshes whose square meshes do not refine: only the
    square meshes nest, their Alfeld splits do not (coarse Alfeld edges
    cut fine cells).  The locators read the mesh orders and refuse
    unstructured meshes."""
    mc, mf = ops_c.locator.m, ops_f.locator.m
    if mf % mc != 0:
        raise ValueError(f"reference mesh order {mf} does not refine coarse order {mc}")


def _per_cell(h: HatPieces, vals: np.ndarray, sel=slice(None)) -> tuple[slice, np.ndarray]:
    """The fine cells of the pieces `sel`, a contiguous run as the pieces
    are in time order, and the values of those pieces summed per cell."""
    js, starts = np.unique(h.cells[sel], return_index=True)
    return slice(js[0], js[-1] + 1), np.add.reduceat(vals[sel], starts)


def _hat_integrals(n: int, h: HatPieces, grid_c: TimeGrid, sel=slice(None)):
    """Integrals of a_n over the fine cells of the pieces `sel`: exact, as
    a_n is linear on each piece."""
    return _per_cell(h, (h.hi - h.lo) * weight_a(n, 0.5 * (h.lo + h.hi), grid_c), sel)


# ---------------------------------------------------------------------------
# Quadrature-weighted rows and loads of point-evaluated fields


def _rows(vals: np.ndarray) -> np.ndarray:
    """Point values of a stack of fields, one flat row per field."""
    return vals.reshape(len(vals), -1)


def _windowed_sq_dists(Vf: np.ndarray, V: np.ndarray, windows) -> float:
    """sum_n sum_j w_nj ||Vf[j] - V[n]||^2 over the fine cells j (a slice)
    and weights w_nj of window n; identical rows give exactly zero."""
    total = 0.0
    for (js, w), row in zip(windows, V):
        d = Vf[js] - row
        total += float(w @ np.einsum("jd,jd->j", d, d))
    return total


def _window_oscillation(G: np.ndarray, windows) -> float:
    """sum_n (1/sum w) sum_{i,j} w_i w_j ||V_i - V_j||^2 over the windows
    (js, w) of the rows V_j with Gram matrix G, js a slice, reduced from
    the block G_n = G[js, js] as 2 (w . diag G_n - w^T G_n w / sum w);
    clipped at zero against rounding."""
    total = 0.0
    for js, w in windows:
        total += 2.0 * (w @ np.diagonal(G)[js] - w @ G[js, js] @ w / w.sum())
    return max(total, 0.0)


def _loads(ev: PointEvaluation, rows: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Load functionals (f, xi) on the free dofs of `ops`, one column per
    coefficient row, with f evaluated by `ev` at the quadrature points
    of `ops`."""
    vals = _rows(ev.values(rows)) * qp_weights(ops, 2)
    return (ops.qp_eval.V.T @ vals.T)[ops.free]


# ---------------------------------------------------------------------------
# Error functionals


@dataclass(frozen=True)
class ErrorStats:
    """Coupled coarse-vs-reference error functionals and component proxies.

    natural_err  mean of max_n ||<u_ref>_n - u_n||^2
    vgrad_err    mean of sum_n int_{J_n} a_n ||V(eps u_ref(t)) - V(eps u_n)||^2 dt
    besov_err    max_k (1/k) sum_{n=k}^N E||e_n - e_{n-k}||^2, e_n = <u_ref>_n - u_n
    C_init       squared distance of the divergence-projected initial data
    C_Linf       mean of max_n ||<u>_n - P_div <u>_n||^2 (coarse projection)
    C_best       upper proxy: divergence-projected nodal interpolant cost
    C_G          data term: mean of sum_n int a_n^2 ||G(t,u_ref) - G_n||_HS^2 dt
    C_V          temporal oscillation of V(eps u_ref) under the hat weights
    """

    n_samples: int
    natural_err: float
    vgrad_err: float
    besov_err: float
    C_init: float
    C_Linf: float
    C_best: float
    C_G: float
    C_V: float | None
    stderr: dict[str, float] = dc_field(default_factory=dict)


def error_stats(
    coarse_trajs: Sequence[Trajectory],
    ref_trajs: Sequence[Trajectory],
    config_coarse: SchemeConfig,
    config_ref: SchemeConfig,
    ops_coarse: AssembledOperators,
    ops_ref: AssembledOperators,
    with_CV: bool = True,
) -> ErrorStats:
    """Error statistics of coarse trajectories against coupled references.

    Preconditions: the reference grid refines the coarse grid (step
    counts N+1 divide, any ratio) and sample i of both ensembles was
    driven by the same Wiener path; both runs use the same p and kappa.
    Each ensemble must hold complete runs on its config's grid.

    A level is same-mesh when both runs share one operator bundle
    (`ops_coarse is ops_ref`): it locates no point and runs on any mesh.
    Otherwise the square mesh of the reference must refine the coarse
    one (their Alfeld splits do not nest) and points are located once
    per call, for the cross-mesh operators that serve every sample.
    Each field family of a sample is then evaluated in one sparse
    product, and all its divergence projections are one multi-column
    velocity solve: one back-substitution with the factor of C^T M C
    in the stream basis (`spaces.SaddleSolver.velocity`).  A sample
    holds its (N_f+1) reference V(eps u) rows of 4 n_qp floats each
    (n_qp fine quadrature points), plus, for
    a velocity-dependent noise rule, its (N_f+1) noise factor fields of
    2 n_qp floats each.  C_V is reduced from the Gram matrix of
    the held V(eps u) rows over the hat windows of the coarse grid, as
    `temporal_oscillation` does; with_CV=False skips it and leaves C_V
    None, for callers that evaluate a ladder of grids in one
    `temporal_oscillation` call.
    """
    if len(coarse_trajs) != len(ref_trajs):
        raise ValueError("coarse and reference ensembles differ in size")
    grid_c, grid_f = config_coarse.grid, config_ref.grid
    hats = hat_pieces(grid_c, grid_f)
    Nc = _check_ensemble(coarse_trajs, grid_c, ops_coarse)
    _check_ensemble(ref_trajs, grid_f, ops_ref)
    same_mesh = ops_coarse is ops_ref
    if not same_mesh:
        _check_mesh_nesting(ops_coarse, ops_ref)
    params, model = config_ref.params, config_ref.model
    if (config_coarse.params.p, config_coarse.params.kappa) != (params.p, params.kappa):
        raise ValueError("coarse and reference runs use different exponents p or kappa")
    ns = len(coarse_trajs)

    w2 = np.sqrt(qp_weights(ops_ref, 2))
    w4 = np.sqrt(qp_weights(ops_ref, 4))
    saddle = ops_coarse.projection_saddle()
    free_c = ops_coarse.free

    # Point evaluation: both meshes' fields at the fine quadrature
    # points; reference fields at the coarse quadrature points (loads)
    # and, across meshes, at the free coarse nodes (nodal interpolant).
    # The coarse initial datum is loaded from its own quadrature points,
    # so that on a same-mesh level the two initial loads are formed the
    # same way.
    ref_at_fq, coarse_at_cq = ops_ref.qp_eval, ops_coarse.qp_eval
    if same_mesh:  # the point sets coincide
        coarse_at_fq, ref_at_cq = coarse_at_cq, ref_at_fq
    else:
        coarse_at_fq = point_evaluation(ops_coarse, ops_ref.qp_x.reshape(-1, 2))
        ref_at_cq = point_evaluation(ops_ref, ops_coarse.qp_x.reshape(-1, 2))
        free_nodes = ~ops_coarse.space_v.boundary_node
        ref_at_cn = point_evaluation(ops_ref, ops_coarse.space_v.node_coords[free_nodes])

    # Time-weight tables shared by every sample: |J_j ∩ J_n| for the fine
    # cells J_j of each coarse interval J_n (J_0 precedes J_1 in supp a_1).
    intervals = [(hats[0], ~hats[0].late)] + [(h, h.late) for h in hats]
    tiles = [_per_cell(h, h.hi - h.lo, sel) for h, sel in intervals]
    hat_tile = [_hat_integrals(n, h, grid_c, h.late) for n, h in enumerate(hats, 1)]
    hat_full = [_hat_integrals(n, h, grid_c) for n, h in enumerate(hats, 1)]

    def v_rows(ev: PointEvaluation, rows: np.ndarray) -> np.ndarray:
        """Quadrature-weighted V(eps u) at the fine points, one row per field."""
        V = _rows(nonlinear_V(ev.sym_grad(rows), params))
        V *= w4
        return V

    # The two blocks of fine-point values a sample needs are formed in
    # these two functions, so that the first is freed before the second.
    def value_terms(Uf, Uc, avg, proj_avg) -> tuple[float, np.ndarray, float, float]:
        """max_n ||e_n||^2 and the Gram matrix of the weighted rows e_n,
        C_Linf and C_G, from the values at the fine points."""
        avg_vals = _rows(ref_at_fq.values(avg))
        coarse_vals = coarse_at_fq.values(Uc)
        E = (avg_vals - _rows(coarse_vals)) * w2
        d = (avg_vals[1:] - _rows(coarse_at_fq.values(proj_avg[1:]))) * w2
        natural = float(np.einsum("nd,nd->n", E[1:], E[1:]).max())
        linf = float(np.einsum("nd,nd->n", d, d).max())
        cg = _data_term(coarse_vals, Uf, grid_c, hats, ops_ref, model)
        return natural, E @ E.T, linf, cg

    def v_terms(Uf, Uc, eta) -> tuple[float, float, float | None]:
        """vgrad, the V(eps u) part of C_best and C_V: the reference rows
        of every fine step against the coarse run over the restricted
        windows, against eta over the full-support windows, and against
        each other over the full-support windows."""
        Vf = v_rows(ref_at_fq, Uf)
        vgrad = _windowed_sq_dists(Vf, v_rows(coarse_at_fq, Uc[1:]), hat_tile)
        best = _windowed_sq_dists(Vf, v_rows(coarse_at_fq, eta[1:]), hat_full)
        return vgrad, best, _window_oscillation(Vf @ Vf.T, hat_full) if with_CV else None

    per_sample = []
    gram_e_sum = np.zeros((Nc + 1, Nc + 1))

    for coarse, ref in zip(coarse_trajs, ref_trajs):
        Uc = np.stack([f.coeffs for f in coarse.fields])
        Uf = np.stack([f.coeffs for f in ref.fields])
        avg = np.stack([(w / w.sum()) @ Uf[js] for js, w in tiles])  # <u_ref>_n coefficients

        # Divergence projections on the coarse space, in one velocity solve,
        # as rows: the averages, both initial data and, across meshes, the
        # averages' nodal interpolants (on one mesh, the averages).
        loads = [
            _loads(ref_at_cq, np.vstack([avg, Uf[:1]]), ops_coarse),
            _loads(coarse_at_cq, Uc[:1], ops_coarse),
        ]
        if not same_mesh:
            interp = np.zeros((Nc + 1, ops_coarse.space_v.n_dofs))
            interp[:, free_c] = _rows(ref_at_cn.values(avg))
            loads.append((ops_coarse.M_full @ interp.T)[free_c])
        projected = _full_velocity(ops_coarse, saddle.velocity(np.hstack(loads))).T
        proj_avg, u0_ref, u0_coarse, eta = np.split(projected, [Nc + 1, Nc + 2, Nc + 3])
        if same_mesh:
            eta = proj_avg

        # ||P_div u0_ref - P_div u0_coarse||^2 on the coarse space
        gap0 = u0_ref[0] - u0_coarse[0]
        init = float(gap0 @ (ops_coarse.M_full @ gap0))

        natural, gram_e, linf, cg = value_terms(Uf, Uc, avg, proj_avg)
        gram_e_sum += gram_e
        vgrad, best, cv = v_terms(Uf, Uc, eta)
        gap = proj_avg[1:] - eta[1:]
        best += float(np.einsum("nd,nd->", gap, (ops_coarse.M_full @ gap.T).T))
        per_sample.append((natural, vgrad, init, linf, best, cg, cv))
    natural_s, vgrad_s, init_s, linf_s, best_s, cg_s, cv_s = zip(*per_sample)

    natural, natural_se = _mean_and_se(natural_s)
    vgrad, vgrad_se = _mean_and_se(vgrad_s)

    return ErrorStats(
        n_samples=ns,
        natural_err=natural,
        vgrad_err=vgrad,
        besov_err=_lag_seminorm(gram_e_sum / ns),
        C_init=float(np.mean(init_s)),
        C_Linf=float(np.mean(linf_s)),
        C_best=float(np.mean(best_s)),
        C_G=float(np.mean(cg_s)),
        C_V=float(np.mean(cv_s)) if with_CV else None,
        stderr={"natural_err": natural_se, "vgrad_err": vgrad_se},
    )


def _data_term(
    coarse_vals: np.ndarray,
    Uf: np.ndarray,
    grid_c: TimeGrid,
    hats: list[HatPieces],
    ops_f: AssembledOperators,
    model: NoiseModel | None,
) -> float:
    """sum_n int a_n^2(t) ||G(t, u_ref(t)) - G_n(u_lag)||_HS^2 dt.

    Every rule is G(t, u) e_k = m(t) g_k * r(u), so this is the L2 norm
    of m(t) F - G with F = s * r(u_ref(t)), s = sqrt(sum_k g_k * g_k),
    and G = G_n(u_lag) of the stack s, at the fine quadrature points
    (coarse_vals holds the coarse velocities there).  The reference rows
    Uf are evaluated only for a factor that reads them.  On each piece of
    `hats` m F - G = (m - 1) F + (F - G) is paired with int a_n^2 (m - 1)^l
    dt (l = 0, 1, 2) by 3-point Gauss, exact for m linear on the piece, so
    an unmodulated rule cancels exactly where F = G.
    """
    if model is None:
        return 0.0
    w = qp_weights(ops_f, 2).reshape(-1, 2)
    s = np.sqrt(model.mode_square_sum(ops_f.qp_x.reshape(-1, 2)))
    U = ops_f.qp_eval.values(Uf) if model.velocity_dependent else None
    F = np.broadcast_to(model.apply(s, U), (len(Uf),) + s.shape)
    sF = np.einsum("jqc,qc,jqc->j", F, w, F)
    total = 0.0
    for n, h in enumerate(hats, 1):
        G = data_G_n(n, coarse_vals[max(n - 2, 0)], model, grid_c, s[None])[0]
        half = 0.5 * (h.hi - h.lo)[:, None]
        t = 0.5 * (h.lo + h.hi)[:, None] + half * _GAUSS3_NODES
        quad = weight_a(n, t, grid_c) ** 2 * half * _GAUSS3_WEIGHTS
        m1 = model.modulation(t.ravel()).reshape(t.shape) - 1.0
        js, K = _per_cell(h, np.stack([(quad * m1**l).sum(axis=1) for l in range(3)], axis=1))
        D = F[js] - G
        sD = np.einsum("jqc,qc,jqc->j", D, w, D)
        sFD = np.einsum("jqc,qc,jqc->j", F[js], w, D)
        total += float(K[:, 2] @ sF[js] + 2.0 * K[:, 1] @ sFD + K[:, 0] @ sD)
    return max(total, 0.0)


def temporal_oscillation(
    ref_trajs: Sequence[Trajectory],
    config_ref: SchemeConfig,
    ops_ref: AssembledOperators,
    coarse_grids: Sequence[TimeGrid],
) -> list[float]:
    """Hat-weighted temporal oscillation of V(eps u_ref), one value per grid:

        (1/tau) sum_n int int a_n(s) a_n(t) ||V(eps u(s)) - V(eps u(t))||^2 ds dt

    with u piecewise constant on the reference midpoint cells.  Per
    sample the (N_f+1) quadrature-weighted rows V(eps u_j), of 4 n_qp
    floats each, are evaluated in one `qp_eval` product and their
    (N_f+1)^2 Gram matrix is reduced over the hat windows of every coarse
    grid, so a ladder of grids shares one Gram matrix.  No point is
    located, so a mesh without point location is accepted.
    `error_stats` reduces the rows it already holds the same way.
    """
    grid_f = config_ref.grid
    _check_ensemble(ref_trajs, grid_f, ops_ref)
    windows = [
        [_hat_integrals(n, h, grid_c) for n, h in enumerate(hat_pieces(grid_c, grid_f), 1)]
        for grid_c in coarse_grids
    ]
    w4 = np.sqrt(qp_weights(ops_ref, 4))
    totals = np.zeros(len(coarse_grids))
    for ref in ref_trajs:
        U, _ = _coeff_rows(ref.fields)
        V = _rows(nonlinear_V(ops_ref.qp_eval.sym_grad(U), config_ref.params))
        V *= w4
        G = V @ V.T
        totals += [_window_oscillation(G, per_n) for per_n in windows]
    return list(totals / len(ref_trajs))


# ---------------------------------------------------------------------------
# Domination / extrapolation verifier


# Quantiles of the terminal Y whose hitting times (rules hit_q...) and
# one-step-back shifts (hitshift_q...) join the deterministic times in
# the stopping-rule family of extrapolation_check.
HIT_QUANTILES = (0.25, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class ExtrapolationReport:
    """Stopping-rule domination ratios and the extrapolation-inequality margin.

    rule_table maps each tested stopping rule to (E[X], E[Y], ratio);
    C_measured is the worst ratio (a lower bound for the domination
    constant), C_used the constant the margins are evaluated with,
    max(C_measured, 1).  Margins are
    (RHS - LHS)/RHS with delta-method standard errors.  For a noise-free
    configuration both processes vanish: every rule reads (0, 0, 0),
    C_measured is 0, and the margins are 1 with sigma 0, the convention
    of a vanishing ratio (`_ratio_margin`).
    """

    n_samples: int
    r: float
    k: float
    C_measured: float
    C_used: float
    rule_table: dict[str, tuple[float, float, float]]
    domination_margin: float
    domination_sigma: float
    corollary_margin: float
    corollary_sigma: float
    mean_X_final: float
    mean_Y_final: float


def _mode_gram(F: np.ndarray, H: np.ndarray, ops: AssembledOperators) -> np.ndarray:
    """Modewise L2 Gram matrix of two stacks of fields at quadrature points."""
    return (_rows(F) * qp_weights(ops, 2)) @ _rows(H).T


def _compensator_sq_path(
    n: int,
    fields_n: np.ndarray,
    fields_np1: np.ndarray | None,
    path: WienerPath,
    grid: TimeGrid,
    ops: AssembledOperators,
) -> np.ndarray:
    """||Ebar(t)||_L2^2 at every fine-cell boundary of the interval J_n.

    The compensator is a mode contraction of two stochastic integrals
    whose per-boundary coefficients are prefix/suffix sums of the
    hat-averaged path increments; the squared norm then reduces to the
    3 small mode Gram matrices of the neighbouring data fields.
    """
    lo, hi = grid.interval(n)
    delta = path.delta
    j0, j1 = int(round(lo / delta)), int(round(hi / delta))
    inc = path.increments[j0:j1]

    seg_n = weight_cell_averages(n, grid, delta, j0, j1)[:, None] * inc
    c1 = np.vstack([np.cumsum(seg_n[::-1], axis=0)[::-1], np.zeros((1, path.n_modes))])

    A = _mode_gram(fields_n, fields_n, ops)
    out = np.einsum("bk,kl,bl->b", c1, A, c1)
    if n + 1 <= grid.N:
        seg_2 = weight_cell_averages(n + 1, grid, delta, j0, j1)[:, None] * inc
        c2 = np.vstack([np.zeros((1, path.n_modes)), np.cumsum(seg_2, axis=0)])
        B = _mode_gram(fields_np1, fields_np1, ops)
        C12 = _mode_gram(fields_n, fields_np1, ops)
        out += np.einsum("bk,kl,bl->b", c2, B, c2)
        out -= 2.0 * np.einsum("bk,kl,bl->b", c1, C12, c2)
    return np.maximum(out, 0.0)


def _xy_paths(
    traj: Trajectory, path: WienerPath, work: StepperWorkspace, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample processes X_M and Y_M for M = 0..N of a trajectory
    stepped with the workspace `work`.

    X sums the trapezoid-rule time integrals of (||Ebar||^2/tau)^{r/2}
    over the intervals J_n, from the data fields G_n(u_lag) at the mode
    values of `work`; Y is the running maximum of the data-field norms
    ||G_n(u_lag)||_HS^r the steps recorded, seen up to step (M+2) ^ N.
    """
    config, ops = work.config, work.ops
    grid = config.grid
    model = config.model
    N = grid.N
    delta = path.delta
    U = [velocity_at_qp(f.coeffs, ops) if model.velocity_dependent else None for f in traj.fields]
    fields = [data_G_n(n, U[max(n - 2, 0)], model, grid, work.g_qp) for n in range(1, N + 1)]

    x_inc = np.zeros(N + 1)
    for n in range(1, N + 1):
        nxt = fields[n] if n < N else None
        sq = _compensator_sq_path(n, fields[n - 1], nxt, path, grid, ops)
        vals = (sq / grid.tau) ** (r / 2.0)
        x_inc[n] = delta * float(np.sum(0.5 * (vals[:-1] + vals[1:])))
    X = np.cumsum(x_inc)

    running = np.maximum.accumulate([s.hs_G**r for s in traj.stats])
    upto = np.minimum(np.arange(N + 1) + 2, N)
    Y = running[upto - 1]
    return X, Y


def _ratio_margin(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """margin = 1 - mean(num)/mean(den) with a delta-method standard error."""
    ns = len(num)
    nbar, dbar = float(num.mean()), float(den.mean())
    if dbar <= 0.0:
        return (1.0, 0.0) if nbar <= 0.0 else (float("-inf"), 0.0)
    rho = nbar / dbar
    cov = np.cov(num, den, ddof=1) if ns > 1 else np.zeros((2, 2))
    var = (cov[0, 0] - 2.0 * rho * cov[0, 1] + rho**2 * cov[1, 1]) / (ns * dbar**2)
    return 1.0 - rho, float(np.sqrt(max(var, 0.0)))


def extrapolation_check(
    u0: Field,
    config: SchemeConfig,
    ops: AssembledOperators,
    delta: float,
    n_samples: int,
    seed: int = 0,
    r: float = 4.0,
    k: float = 0.5,
) -> ExtrapolationReport:
    """Monte Carlo check of the domination relation and its extrapolation.

    Runs `n_samples` coupled trajectories on the given (small) scheme,
    builds the processes X and Y per sample, and evaluates E[X]/E[Y]
    over the finite stopping-rule family: deterministic times 0..N,
    Y-threshold hitting times at the HIT_QUANTILES of the terminal Y,
    and their one-step-back shifts.  The reported ratios bound the
    domination constant from below; the margins test

        E[X_N] <= C * E[Y_N]           (domination at the terminal time)
        E[X_N^k] <= (1+C-k)/(1-k) E[Y_N^k]   (extrapolation inequality)

    with C = max(C_measured, 1), C_measured the largest ratio over the
    rule family: the check is self-contained, with no constant injected.
    Refuses fewer than 1000 samples: the 3-sigma buffers the margins are
    judged by would be meaningless.
    """
    if n_samples < 1000:
        raise ValueError(
            f"refusing to estimate domination margins from {n_samples} samples; "
            "need at least 1000 for a meaningful 3-sigma buffer"
        )
    grid = config.grid
    if grid.N > 16:
        raise ValueError(f"extrapolation check expects a small grid (N <= 16), got N={grid.N}")
    if config.model is not None and config.model.n_modes > 4:
        raise ValueError("extrapolation check expects at most 4 noise modes")
    if not 0.0 < k < 1.0:
        raise ValueError(f"moment order k must lie in (0, 1), got {k}")
    half_cells = grid.tau / (2.0 * delta)
    if abs(half_cells - round(half_cells)) > 1e-9:
        raise ValueError("delta must divide tau/2 so interval boundaries align with fine cells")

    N = grid.N
    X_all = np.zeros((n_samples, N + 1))
    Y_all = np.zeros((n_samples, N + 1))
    if config.model is not None:
        work = StepperWorkspace(config, ops)
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_samples)):
            rng = np.random.default_rng(child)
            path = sample_wiener_path(grid.T, delta, config.model.n_modes, rng)
            incs = sample_increments(path, grid)
            traj = run_trajectory(u0, incs, config, ops, work)
            if not traj.ok:
                raise RuntimeError(f"sample {i} failed at step {traj.failed_at}")
            X_all[i], Y_all[i] = _xy_paths(traj, path, work, r)

    samples = np.arange(n_samples)
    rules: dict[str, np.ndarray] = {f"time_{m}": np.full(n_samples, m) for m in range(N + 1)}
    y_final = Y_all[:, N]
    for q in HIT_QUANTILES:
        y = float(np.quantile(y_final, q))
        above = Y_all > y
        hit = np.where(above.any(axis=1), above.argmax(axis=1), N)
        rules[f"hit_q{q:g}"] = hit
        rules[f"hitshift_q{q:g}"] = np.maximum(hit - 1, 0)

    rule_table: dict[str, tuple[float, float, float]] = {}
    C_measured = 0.0
    for name, idx in rules.items():
        ex = float(X_all[samples, idx].mean())
        ey = float(Y_all[samples, idx].mean())
        ratio = ex / ey if ey > 0.0 else (0.0 if ex <= 0.0 else float("inf"))
        rule_table[name] = (ex, ey, ratio)
        C_measured = max(C_measured, ratio)

    C_used = max(C_measured, 1.0)
    dom_margin, dom_sigma = _ratio_margin(X_all[:, N], C_used * y_final)
    factor = (1.0 + C_used - k) / (1.0 - k)
    cor_margin, cor_sigma = _ratio_margin(X_all[:, N] ** k, factor * y_final**k)

    return ExtrapolationReport(
        n_samples=n_samples,
        r=r,
        k=k,
        C_measured=C_measured,
        C_used=C_used,
        rule_table=rule_table,
        domination_margin=dom_margin,
        domination_sigma=dom_sigma,
        corollary_margin=cor_margin,
        corollary_sigma=cor_sigma,
        mean_X_final=float(X_all[:, N].mean()),
        mean_Y_final=float(y_final.mean()),
    )
