"""Statistics of trajectory ensembles: stability, errors, domination.

Three groups of tools, all plain Monte Carlo over completed trajectories
(expectations are sample means; reported standard errors quantify the MC
noise).  The module only reduces: one tally (`_Tally`) turns per-sample
values into means and standard errors, and the time tables and loads it
reads are those of `pstokes.grids` and `pstokes.spaces`.

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

* Error functionals (`error_stats_ladder`, `error_stats`,
  `temporal_oscillation`): coupled comparison of coarse trajectories
  against a reference computed on a nested finer grid pair from the same
  Wiener path (every trajectory carries its time grid, which must be its
  config's).  One pass over the reference samples serves a ladder of
  coarse levels: a sample's rows, its V(eps u) rows, their Gram matrix
  and the level-free half of its data term are formed once, and every
  level reduces its terms from them; `error_stats` is the one-level
  ladder.  The reference is read as piecewise constant on its midpoint
  intervals, <u>_n is its exact average over the coarse interval J_n,
  and the hat-weighted time integrals are exact on the pieces of supp
  a_n (`grids.hat_windows`); the projections' loads are one stacked
  `spaces.velocity_load_vector` call.  Both fields are compared at the fine
  quadrature points through sparse evaluation operators built once per
  call: a mesh's own `qp_eval` on a same-mesh level, located points
  across meshes (`spaces.point_evaluation`); self-comparison vanishes
  identically.  The proxies C_init, C_Linf, C_best, C_G, C_V isolate
  initial-datum, projection, best-approximation, data-approximation and
  temporal-oscillation contributions; C_best is an upper proxy (the
  divergence-projected nodal interpolant of the reference in place of
  the true infimum).  One hat-window reduction (`_window_oscillation`)
  and one lag kernel (`_lag_seminorm`) serve every Gram matrix.

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

from pstokes.grids import HatPieces, TimeGrid, hat_windows, weight_a, weight_cell_averages
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
    velocity_load_vector,
)
from pstokes.stepper import SchemeConfig, StepperWorkspace, Trajectory, run_trajectory
from pstokes.tensors import PowerLawParams, nonlinear_V

__all__ = [
    "StabilityStats",
    "ErrorStats",
    "ExtrapolationReport",
    "besov_halves",
    "stability_stats",
    "error_stats",
    "error_stats_ladder",
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


class _Tally(dict):
    """The per-sample values of named statistics, a list per name, reduced
    to means and to Monte Carlo standard errors std / sqrt(S), zero for
    one sample."""

    def add(self, **values: float) -> None:
        for name, value in values.items():
            self.setdefault(name, []).append(value)

    def means(self) -> dict[str, float]:
        return {name: float(np.mean(v)) for name, v in self.items()}

    def stderr(self, *names: str) -> dict[str, float]:
        """The standard errors of `names`, or of every statistic."""
        out = {}
        for name in names or self:
            a = np.asarray(self[name])
            out[name] = float(a.std(ddof=1) / np.sqrt(len(a))) if len(a) > 1 else 0.0
        return out


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

    tally = _Tally()
    gram_sum = np.zeros((N + 1, N + 1))
    gram_z_sum = np.zeros((N + 1, N + 1))

    for i, traj in enumerate(trajs):
        U, _ = _coeff_rows(traj.fields)
        G = _mass_gram(U, ops.M_full)
        gram_sum += G
        tally.add(
            e_max=float(np.diag(G)[1:].max()),
            dissipation=sum(tau * s.dissipation for s in traj.stats),
            besov_u_strong=_lag_seminorm(G),
        )
        if pressures is not None:
            ptraj = pressures[i]
            if ptraj.n_steps != N:
                raise ValueError(f"pressure trajectory {i} has {ptraj.n_steps} steps, expected {N}")
            Z = np.vstack([np.zeros(ops.space_v.n_dofs), ptraj.z_sto])
            Gz = _mass_gram(Z, ops.M_full)
            gram_z_sum += Gz
            # L^p' norms of the increments d_n pi_det / tau, pi_det_0 = 0
            inc = np.diff(_coeff_rows(ptraj.pi_det)[0], axis=0, prepend=0.0) / tau
            lp = lp_norm(np.abs(ops.P @ inc.T), ops, p_conj)
            tally.add(
                det_increment=tau * float(np.sum((DIV_GRAD_CONSTANT * lp) ** p_conj)),
                sto_max=float(np.diag(Gz)[1:].max()),
            )

    ns = len(trajs)
    stats = dict.fromkeys(["det_increment", "sto_max"] + [f"sto_besov_{r}" for r in (2, 4, 8)])
    if pressures is not None:
        stats |= {f"sto_besov_{r}": _lag_seminorm(gram_z_sum / ns, tau, r) for r in (2, 4, 8)}
    stats |= tally.means()
    return StabilityStats(ns, besov_u=_lag_seminorm(gram_sum / ns), stderr=tally.stderr(), **stats)


# ---------------------------------------------------------------------------
# Quadrature-weighted rows of point-evaluated fields


def _rows(vals: np.ndarray) -> np.ndarray:
    """Point values of a stack of fields, one flat row per field: a view
    of the C-contiguous stacks `PointEvaluation` returns, not a copy."""
    return vals.reshape(len(vals), -1)


def _windowed_sq_dists(Vf: np.ndarray, V: np.ndarray, windows) -> float:
    """sum_n sum_j w_nj ||Vf[j] - V[n]||^2 over the fine cells j (a slice)
    and weights w_nj of window n; identical rows give exactly zero.  Vf
    and V are C-contiguous stacks of rows (`_v_rows`), so every row the
    windows slice is one contiguous run of floats."""
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


def _v_rows(
    ev: PointEvaluation, rows: np.ndarray, params: PowerLawParams, ops: AssembledOperators
) -> np.ndarray:
    """V(eps u) at the points of `ev`, the quadrature points of `ops`,
    one flat row per coefficient row, weighted by the square roots of
    the quadrature weights: the rows whose Gram matrix is the L2 one.
    The stack is C-contiguous (k, 4 n_points), each row one contiguous
    run in the point-major order of `ev.sym_grad`.  At p = 2, where
    `nonlinear_V` is the identity, it is the fresh sym_grad stack itself,
    scaled in place without the copy `nonlinear_V` would return."""
    eps = ev.sym_grad(rows)
    V = _rows(eps if params.p == 2.0 else nonlinear_V(eps, params))
    V *= np.sqrt(qp_weights(ops, 4))
    return V


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
    """Error statistics of coarse trajectories against coupled references:
    `error_stats_ladder` on the one level (coarse_trajs, config_coarse,
    ops_coarse), whose docstring states the preconditions."""
    level = (coarse_trajs, config_coarse, ops_coarse)
    return error_stats_ladder([level], ref_trajs, config_ref, ops_ref, with_CV)[0]


def error_stats_ladder(
    levels: Sequence[tuple[Sequence[Trajectory], SchemeConfig, AssembledOperators]],
    ref_trajs: Sequence[Trajectory],
    config_ref: SchemeConfig,
    ops_ref: AssembledOperators,
    with_CV: bool = True,
) -> list[ErrorStats]:
    """Error statistics of every level of a ladder against one coupled
    reference ensemble, in one pass over the reference samples.

    A level is a triple (coarse_trajs, config_coarse, ops_coarse): the
    reference grid refines its grid (step counts N+1 divide, any ratio),
    sample i of both ensembles was driven by one Wiener path, both use
    one p and kappa, and each ensemble holds complete runs on its
    config's grid; a level that breaks this raises ValueError naming its
    index.  A same-mesh level (`ops_coarse is ops_ref`) locates no point
    and runs on any mesh; otherwise the reference's square mesh must
    refine the level's (their Alfeld splits do not nest).  Every level's
    checks, point evaluations and hat tables are built before the first
    sample, and so is the sample-free part of the data term, the noise
    stack at the fine quadrature points (`_data_table`).

    A reference sample is formed once for all levels: its rows Uf; the
    level-free half of the data term, with (N_f+1) noise factor fields
    of 2 n_qp floats for a velocity-dependent rule (n_qp fine quadrature
    points); then its (N_f+1) weighted V(eps u) rows of 4 n_qp floats
    and, with with_CV, their Gram matrix.  Each level projects its
    averages and initial data in one velocity solve
    (`spaces.SaddleSolver.velocity`) and reduces its terms from values
    at the fine points, which are freed before the V(eps u) rows are
    formed; then vgrad and C_best from the rows, and C_V from the Gram
    matrix over its hat windows.  with_CV=False leaves C_V None.
    """
    if len(levels) == 0:
        raise ValueError("empty ladder: need at least one coarse level")
    ladder = [_Level(k, level, ref_trajs, config_ref, ops_ref) for k, level in enumerate(levels)]
    _check_ensemble(ref_trajs, config_ref.grid, ops_ref)
    table = _data_table(ops_ref, config_ref.model)
    for i, ref in enumerate(ref_trajs):
        Uf = np.stack([f.coeffs for f in ref.fields])
        data = _data_reference(Uf, table, ops_ref, config_ref.model)
        held = [level.value_terms(i, Uf, data) for level in ladder]
        del data  # the values at the fine points go before the V(eps u) rows come
        Vf = _v_rows(ops_ref.qp_eval, Uf, config_ref.params, ops_ref)
        G = Vf @ Vf.T if with_CV else None
        for level, (Uc, eta, best) in zip(ladder, held):
            level.v_terms(Vf, G, Uc, eta, best)
    return [level.stats() for level in ladder]


class _Level:
    """One coarse level of a ladder: its checks, point evaluations and
    hat tables, and the per-sample terms it reduces from the reference."""

    def __init__(self, k: int, level, ref_trajs, config_ref: SchemeConfig, ops_ref) -> None:
        self.trajs, config_c, self.ops = level
        self.grid = grid_c = config_c.grid
        self.ops_ref, self.params, self.model = ops_ref, config_ref.params, config_ref.model
        try:
            if len(self.trajs) != len(ref_trajs):
                raise ValueError("coarse and reference ensembles differ in size")
            self.windows = hat_windows(grid_c, config_ref.grid)
            self.Nc = _check_ensemble(self.trajs, grid_c, self.ops)
            self.same_mesh = self.ops is ops_ref
            # only the square meshes nest, their Alfeld splits do not; the
            # locators read the mesh orders and refuse unstructured meshes
            if not self.same_mesh and ops_ref.locator.m % self.ops.locator.m:
                mf, mc = ops_ref.locator.m, self.ops.locator.m
                raise ValueError(f"reference mesh order {mf} does not refine coarse order {mc}")
            if (config_c.params.p, config_c.params.kappa) != (self.params.p, self.params.kappa):
                raise ValueError("coarse and reference runs use different exponents p or kappa")
        except ValueError as err:
            raise ValueError(f"level {k}: {err}") from None
        self.w2 = np.sqrt(qp_weights(ops_ref, 2))
        self.saddle = self.ops.projection_saddle()

        # Both meshes' fields at the fine quadrature points; reference fields
        # at the coarse quadrature points (loads) and, across meshes, at the
        # free coarse nodes (nodal interpolant).  The coarse initial datum is
        # loaded from its own points, as the reference's on a same-mesh level.
        self.ref_at_fq, self.coarse_at_cq = ops_ref.qp_eval, self.ops.qp_eval
        if self.same_mesh:  # the point sets coincide
            self.coarse_at_fq, self.ref_at_cq = self.coarse_at_cq, self.ref_at_fq
        else:
            self.coarse_at_fq = point_evaluation(self.ops, ops_ref.qp_x.reshape(-1, 2))
            self.ref_at_cq = point_evaluation(ops_ref, self.ops.qp_x.reshape(-1, 2))
            free_nodes = ~self.ops.space_v.boundary_node
            self.ref_at_cn = point_evaluation(ops_ref, self.ops.space_v.node_coords[free_nodes])

        self.tally = _Tally()
        self.gram_e_sum = np.zeros((self.Nc + 1, self.Nc + 1))

    def value_terms(self, i: int, Uf: np.ndarray, data):
        """natural, the Gram matrix of the rows e_n, C_init, C_Linf and C_G of
        sample i, from values at the fine points; returns what `v_terms`
        reads: the coarse rows, eta and the coefficient part of C_best."""
        ops_c, Nc = self.ops, self.Nc
        Uc = np.stack([f.coeffs for f in self.trajs[i].fields])
        avg = np.stack([(w / w.sum()) @ Uf[js] for js, w in self.windows.tiles])  # <u_ref>_n

        # Divergence projections on the coarse space, in one velocity solve,
        # as rows: the averages, both initial data and, across meshes, the
        # averages' nodal interpolants (on one mesh, the averages).
        at_cq = np.concatenate(
            [self.ref_at_cq.values(np.vstack([avg, Uf[:1]])), self.coarse_at_cq.values(Uc[:1])]
        )
        loads = [velocity_load_vector(at_cq.reshape((-1,) + ops_c.qp_x.shape), ops_c)[ops_c.free]]
        if not self.same_mesh:
            interp = np.zeros((Nc + 1, ops_c.space_v.n_dofs))
            interp[:, ops_c.free] = _rows(self.ref_at_cn.values(avg))
            loads.append((ops_c.M_full @ interp.T)[ops_c.free])
        projected = _full_velocity(ops_c, self.saddle.velocity(np.hstack(loads))).T
        proj_avg, u0_ref, u0_coarse, eta = np.split(projected, [Nc + 1, Nc + 2, Nc + 3])
        if self.same_mesh:
            eta = proj_avg

        gap0 = u0_ref[0] - u0_coarse[0]  # P_div u0_ref - P_div u0_coarse
        gap = proj_avg[1:] - eta[1:]

        avg_vals = _rows(self.ref_at_fq.values(avg))
        coarse_vals = self.coarse_at_fq.values(Uc)
        E = (avg_vals - _rows(coarse_vals)) * self.w2
        d = (avg_vals[1:] - _rows(self.coarse_at_fq.values(proj_avg[1:]))) * self.w2
        self.gram_e_sum += E @ E.T
        self.tally.add(
            natural_err=float(np.einsum("nd,nd->n", E[1:], E[1:]).max()),
            C_init=float(gap0 @ (ops_c.M_full @ gap0)),
            C_Linf=float(np.einsum("nd,nd->n", d, d).max()),
            C_G=_data_term(data, coarse_vals, self.grid, self.windows.pieces, self.model),
        )
        return Uc, eta, float(np.einsum("nd,nd->", gap, (ops_c.M_full @ gap.T).T))

    def v_terms(self, Vf: np.ndarray, G, Uc: np.ndarray, eta: np.ndarray, best: float) -> None:
        """vgrad, C_best and C_V: the reference rows Vf against the coarse run
        over the restricted windows, against eta over the full-support
        windows, and against each other from their Gram matrix G, if any."""
        ev, params, ops_f, windows = self.coarse_at_fq, self.params, self.ops_ref, self.windows
        vgrad = _windowed_sq_dists(Vf, _v_rows(ev, Uc[1:], params, ops_f), windows.hat_tile)
        best += _windowed_sq_dists(Vf, _v_rows(ev, eta[1:], params, ops_f), windows.hat_full)
        self.tally.add(vgrad_err=vgrad, C_best=best)
        if G is not None:
            self.tally.add(C_V=_window_oscillation(G, windows.hat_full))

    def stats(self) -> ErrorStats:
        ns = len(self.trajs)
        return ErrorStats(
            ns,
            besov_err=_lag_seminorm(self.gram_e_sum / ns),
            stderr=self.tally.stderr("natural_err", "vgrad_err"),
            **{"C_V": None} | self.tally.means(),
        )


def _data_table(ops_f: AssembledOperators, model: NoiseModel | None):
    """The sample-free part of the data term at the fine quadrature
    points: the weights w and the stack s = sqrt(sum_k g_k * g_k); None
    without noise."""
    if model is None:
        return None
    w = qp_weights(ops_f, 2).reshape(-1, 2)
    return w, np.sqrt(model.mode_square_sum(ops_f.qp_x.reshape(-1, 2)))


def _data_reference(Uf: np.ndarray, table, ops_f: AssembledOperators, model: NoiseModel | None):
    """The level-free half of the data term of one reference sample: the
    (w, s) of `_data_table`, F = s * r(u_ref) per reference row and
    (F, F)_w; None without noise.  The rows Uf are evaluated only for a
    factor r that reads them."""
    if table is None:
        return None
    w, s = table
    U = ops_f.qp_eval.values(Uf) if model.velocity_dependent else None
    F = np.broadcast_to(model.apply(s, U), (len(Uf),) + s.shape)
    return w, s, F, np.einsum("jqc,qc,jqc->j", F, w, F)


def _data_term(
    data,
    coarse_vals: np.ndarray,
    grid_c: TimeGrid,
    hats: Sequence[HatPieces],
    model: NoiseModel | None,
) -> float:
    """sum_n int a_n^2(t) ||G(t, u_ref(t)) - G_n(u_lag)||_HS^2 dt.

    Every rule is G(t, u) e_k = m(t) g_k * r(u), so this is the L2 norm
    of m(t) F - G, with (w, s, F, (F, F)_w) = `_data_reference` and G =
    G_n(u_lag) of the stack s, at the fine quadrature points (coarse_vals
    holds the coarse velocities there).  On each piece of `hats` m F - G
    = (m - 1) F + (F - G) is paired with int a_n^2 (m - 1)^l dt (l = 0,
    1, 2) by 3-point Gauss, exact for m linear on the piece, so an
    unmodulated rule cancels exactly where F = G.
    """
    if data is None:
        return 0.0
    w, s, F, sF = data
    total = 0.0
    for n, h in enumerate(hats, 1):
        G = data_G_n(n, coarse_vals[max(n - 2, 0)], model, grid_c, s[None])[0]
        half = 0.5 * (h.hi - h.lo)[:, None]
        t = 0.5 * (h.lo + h.hi)[:, None] + half * _GAUSS3_NODES
        quad = weight_a(n, t, grid_c) ** 2 * half * _GAUSS3_WEIGHTS
        m1 = model.modulation(t.ravel()).reshape(t.shape) - 1.0
        js, K = h.per_cell(np.stack([(quad * m1**l).sum(axis=1) for l in range(3)], axis=1))
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
    floats each, are formed as `error_stats_ladder` forms them, and
    their (N_f+1)^2 Gram matrix is reduced over the hat windows of every
    coarse grid, so a ladder of grids shares one Gram matrix.  No point
    is located, so a mesh without point location is accepted.
    """
    _check_ensemble(ref_trajs, config_ref.grid, ops_ref)
    windows = [hat_windows(grid_c, config_ref.grid).hat_full for grid_c in coarse_grids]
    totals = np.zeros(len(coarse_grids))
    for ref in ref_trajs:
        U, _ = _coeff_rows(ref.fields)
        V = _v_rows(ops_ref.qp_eval, U, config_ref.params, ops_ref)
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
