"""Averaged Wiener increments, the noise operator G, and the compensator.

The scheme never sees pointwise Wiener increments.  It consumes the
averaged quantities

    Delta_n W = <W>_{J_n} - <W>_{J_{n-1}} = int a_n(t) dW(t),

a centered Gaussian vector with the tridiagonal covariance
int a_n a_m dt per mode.  Two samplers produce them: an exact one
(banded Cholesky of the covariance) and a coupled one that contracts the
exact cell averages of a_n against a shared fine-resolution path, so
that all grid levels of a convergence study see the same driving noise.

The noise operator G multiplies each mode field by one factor r(u); its
time-discretization G_n = c_n G(., v) has one time coefficient, owned by
`data_coefficient`: zero for n in {1, 2}, else the modulation averaged
over J_{n-2}.  `data_G_n` multiplies it in, and the stepper's additive
load reads it alone.  The compensator Ebar(t) collects the two stochastic
integrals that separate the piecewise-constant interpolant of the scheme
from its time-average; it is evaluated as a Riemann-Ito sum over fine
cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from pstokes.grids import (
    TimeGrid,
    cholesky_factor_banded,
    weight_cell_averages,
    weight_support,
)

__all__ = [
    "WienerPath",
    "AveragedIncrements",
    "sample_wiener_path",
    "sample_increments",
    "NoiseModel",
    "sigma_bounded",
    "data_coefficient",
    "data_G_n",
    "modulation_average",
    "compensator_Ebar",
]

# Nodes and weights of the 3-point Gauss-Legendre rule on [-1, 1]; exact
# for the polynomial modulations of degree <= 5 used in tests.
_GAUSS3_NODES = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
_GAUSS3_WEIGHTS = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


@dataclass
class WienerPath:
    """Fine-resolution increments of an M-mode Wiener process on [0, T].

    increments[j, k] = W_k((j+1) delta) - W_k(j delta) ~ N(0, delta).
    """

    T: float
    delta: float
    increments: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.increments.shape[1]

    @property
    def n_cells(self) -> int:
        return self.increments.shape[0]

    @staticmethod
    def cell_count(T: float, delta: float) -> int:
        """The count ceil(T / delta) of fine cells of a path on [0, T];
        ValueError unless T, delta and T / delta are finite and positive."""
        if not (np.isfinite([T, delta]).all() and min(T, delta) > 0.0 and np.isfinite(T / delta)):
            raise ValueError(f"T={T} and delta={delta} must be finite and positive, T/delta finite")
        return int(np.ceil(T / delta - 1e-9))


def sample_wiener_path(
    T: float, delta: float, n_modes: int, rng: np.random.Generator
) -> WienerPath:
    n_cells = WienerPath.cell_count(T, delta)
    incr = rng.standard_normal((n_cells, n_modes)) * np.sqrt(delta)
    return WienerPath(T=T, delta=delta, increments=incr)


@dataclass
class AveragedIncrements:
    """Averaged increments Delta_n W, n = 1..N, for each of M modes.

    values[n-1, k] holds the n-th increment of mode k.  last_cell_used
    records, per n, the largest fine-cell index contracted against (the
    adaptedness audit for coupled sampling); it stays None for exact
    sampling, where adaptedness is the lower-triangularity of the
    Cholesky factor.
    """

    grid: TimeGrid
    values: np.ndarray
    last_cell_used: np.ndarray | None = None

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    def increment(self, n: int) -> np.ndarray:
        """Delta_n W as a length-M vector; n is 1-based."""
        if not 1 <= n <= self.grid.N:
            raise IndexError(f"increment index {n} outside 1..{self.grid.N}")
        return self.values[n - 1]


def _check_divides(delta: float, tau: float) -> None:
    ratio = tau / delta
    if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
        raise ValueError(
            f"fine step delta={delta} does not divide the grid step tau={tau}"
        )


def sample_increments(
    source: np.random.Generator | WienerPath,
    grid: TimeGrid,
    n_modes: int | None = None,
) -> AveragedIncrements:
    """Draw (exact) or contract (coupled) the averaged increments.

    Exact mode consumes a Generator and draws N x M standard normals
    through the banded Cholesky factor of the closed-form covariance.
    Coupled mode consumes a WienerPath and forms
    Delta_n W = sum_j abar_{n,j} DW_j with abar the exact cell averages
    of a_n; the covariance error of this quadrature vanishes as
    delta -> 0 and is already below 1% relative at delta = tau/8.  The
    path must reach t_N + tau/2, where the support of a_N ends.
    """
    N = grid.N
    if isinstance(source, WienerPath):
        path = source
        _check_divides(path.delta, grid.tau)
        if n_modes is not None and n_modes != path.n_modes:
            raise ValueError("n_modes disagrees with the supplied path")
        end, hi = path.n_cells * path.delta, weight_support(N, grid)[1]
        if path.n_cells < np.ceil(hi / path.delta - 1e-9):
            raise ValueError(f"the Wiener path ends at t={end:g}; a_N needs it up to t={hi:g}")
        values = np.empty((N, path.n_modes))
        last_used = np.empty(N, dtype=int)
        for n in range(1, N + 1):
            lo_t, hi_t = weight_support(n, grid)
            j0 = int(np.floor(lo_t / path.delta + 1e-9))
            j1 = int(np.ceil(hi_t / path.delta - 1e-9))
            abar = weight_cell_averages(n, grid, path.delta, j0, j1)
            values[n - 1] = abar @ path.increments[j0:j1]
            nz = np.nonzero(abar)[0]
            last_used[n - 1] = j0 + (int(nz[-1]) if nz.size else 0)
        return AveragedIncrements(grid=grid, values=values, last_cell_used=last_used)

    rng = source
    if n_modes is None:
        raise ValueError("exact sampling needs the number of modes")
    L = cholesky_factor_banded(grid)
    z = rng.standard_normal((N, n_modes))
    values = L[0][:, None] * z
    values[1:] += L[1][: N - 1, None] * z[:-1]
    return AveragedIncrements(grid=grid, values=values)


def coupled_covariance(grid: TimeGrid, delta: float) -> np.ndarray:
    """Exact covariance of the coupled estimator: sum_j abar_n abar_m delta.

    Deterministic quadrature of the weight products; used to quantify the
    coupling consistency error against the closed-form covariance.
    """
    _check_divides(delta, grid.tau)
    n_cells = WienerPath.cell_count(grid.T, delta)
    A = np.zeros((grid.N, n_cells))
    for n in range(1, grid.N + 1):
        A[n - 1] = weight_cell_averages(n, grid, delta, 0, n_cells)
    return delta * (A @ A.T)


def sigma_bounded(u: np.ndarray) -> np.ndarray:
    """sigma(u) = u / sqrt(1 + |u|^2), |u| the pointwise Euclidean norm."""
    norms_sq = np.sum(u * u, axis=-1, keepdims=True)
    return u / np.sqrt(1.0 + norms_sq)


@dataclass
class NoiseModel:
    """Modewise noise operator G(t, u) e_k = m(t) * g_k * r(u).

    mode_fields are callables mapping point arrays (..., 2) to vector
    values (..., 2); amplitude scales all of them.  The factor r(u),
    componentwise and shared by all modes, is 1 (additive), u (linear)
    or sigma(u) (bounded_lipschitz), so ||G(t, u)||_HS^2 integrates
    gamma |m(t) r(u)|^2 with gamma = sum_k g_k * g_k.  All three rules
    satisfy sublinear growth and Lipschitz continuity with constants
    computable from the g_k; the bounded rule has a uniformly bounded
    image.
    """

    mode_fields: Sequence[Callable[[np.ndarray], np.ndarray]]
    rule: str = "additive"
    amplitude: float = 1.0
    time_modulation: Callable[[np.ndarray], np.ndarray] | None = None

    # r(u) per rule; None stands for the factor 1, which reads no velocity
    _FACTORS = {"additive": None, "linear": lambda u: u, "bounded_lipschitz": sigma_bounded}

    def __post_init__(self) -> None:
        if self.rule not in self._FACTORS:
            raise ValueError(f"unknown noise rule {self.rule!r}; use one of {tuple(self._FACTORS)}")
        if not len(self.mode_fields):
            raise ValueError("a noise model needs at least one mode field")

    @property
    def n_modes(self) -> int:
        return len(self.mode_fields)

    @property
    def velocity_dependent(self) -> bool:
        """Whether r(u) reads the velocity: every rule but additive."""
        return self._FACTORS[self.rule] is not None

    def mode_values(self, points: np.ndarray) -> np.ndarray:
        """Stack of g_k at the given points, shape (M, n_points, 2)."""
        vals = np.stack([np.asarray(g(points), dtype=float) for g in self.mode_fields])
        return self.amplitude * vals

    def mode_square_sum(self, points: np.ndarray) -> np.ndarray:
        """gamma = sum_k g_k * g_k at the given points, without a mode stack."""
        return self.amplitude**2 * sum(np.asarray(g(points), float) ** 2 for g in self.mode_fields)

    def factor(self, u_vals: np.ndarray | None):
        """r(u) at velocity values (..., 2); 1.0 for the additive rule."""
        r = self._FACTORS[self.rule]
        if r is not None and u_vals is None:
            raise ValueError(f"rule {self.rule!r} needs velocity values")
        return 1.0 if r is None else r(u_vals)

    def apply(self, g_vals: np.ndarray, u_vals: np.ndarray | None) -> np.ndarray:
        """g * r(u) for a stack g_vals of (combined) mode fields at the points of u_vals."""
        return g_vals * self.factor(u_vals)

    def modulation(self, t) -> np.ndarray:
        if self.time_modulation is None:
            return np.ones_like(np.asarray(t, dtype=float))
        return np.asarray(self.time_modulation(np.asarray(t, dtype=float)), dtype=float)


def modulation_average(model: NoiseModel, lo: float, hi: float) -> float:
    """Average of the time modulation over [lo, hi] by 3-point Gauss."""
    if model.time_modulation is None:
        return 1.0
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return float(_GAUSS3_WEIGHTS @ model.modulation(mid + half * _GAUSS3_NODES)) / 2.0


def data_coefficient(n: int, model: NoiseModel, grid: TimeGrid) -> float:
    """The time coefficient c_n of G_n = c_n G(., v): zero for n in
    {1, 2}, else the average of the modulation over J_{n-2}.  Raises
    IndexError for n outside 1..N."""
    if not 1 <= n <= grid.N:
        raise IndexError(f"step index {n} outside 1..{grid.N}")
    return 0.0 if n <= 2 else modulation_average(model, *grid.interval(n - 2))


def data_G_n(
    n: int,
    u_vals: np.ndarray | None,
    model: NoiseModel,
    grid: TimeGrid,
    g_vals: np.ndarray,
) -> np.ndarray:
    """Discrete noise data G_n(v) = c_n g * r(v) (`data_coefficient`):
    exact zeros where c_n is zero, whatever r(v) holds.

    g_vals is a stack of fields at the evaluation points, the mode
    values or combinations of them: G_n is linear in the stack.
    """
    c = data_coefficient(n, model, grid)
    G = model.apply(g_vals, u_vals)
    return c * G if c else np.zeros(G.shape)


def _ito_coefficients(
    n: int, lo: float, hi: float, path: WienerPath, grid: TimeGrid
) -> np.ndarray:
    """Per-mode value of int_lo^hi a_n(s) dW(s) as a Riemann-Ito sum.

    lo and hi must sit on fine-cell boundaries inside the path; each
    full cell inside the range contributes its exact a_n average times
    the cell increment.
    """
    if hi <= lo:
        return np.zeros(path.n_modes)
    j0 = int(round(lo / path.delta))
    j1 = int(round(hi / path.delta))
    if max(abs(j0 * path.delta - lo), abs(j1 * path.delta - hi)) > 1e-9 * grid.tau:
        raise ValueError("integration bounds must align with fine cells")
    if j1 > path.n_cells:
        raise ValueError(f"the integration range ends at t={hi:g}, after the Wiener path")
    return weight_cell_averages(n, grid, path.delta, j0, j1) @ path.increments[j0:j1]


def compensator_Ebar(
    t: float,
    n: int,
    fields_n: np.ndarray,
    fields_np1: np.ndarray | None,
    path: WienerPath,
    grid: TimeGrid,
) -> np.ndarray:
    """Compensator Ebar(t) for t in J_n, contracted over modes.

    fields_n stacks the mode fields of G_n(u_{(n-2) v 0}) with shape
    (M, ...); fields_np1 those of G_{n+1}(u_{(n-1) v 0}) (ignored when
    n = N).  Returns

        - int_t^{t_n + tau/2} a_n dW . G_n + int_{t_n - tau/2}^t a_{n+1} dW . G_{n+1}

    evaluated on fine cells; t must be a fine-cell boundary inside J_n.
    """
    lo_n, hi_n = grid.interval(n)
    if not (lo_n - 1e-9 * grid.tau <= t <= hi_n + 1e-9 * grid.tau):
        raise ValueError(f"t={t} outside J_{n}")
    c1 = _ito_coefficients(n, t, hi_n, path, grid)
    out = -np.tensordot(c1, fields_n, axes=(0, 0))
    if n + 1 <= grid.N:
        if fields_np1 is None:
            raise ValueError("fields_np1 required for n < N")
        c2 = _ito_coefficients(n + 1, lo_n, t, path, grid)
        out = out + np.tensordot(c2, fields_np1, axes=(0, 0))
    return out
