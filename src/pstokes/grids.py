"""Equidistant time grid and the averaging weights a_n.

The grid splits [0, T] into N+1 steps of size tau = T/(N+1) with nodes
t_n = n tau and midpoint intervals J_n = [t_n - tau/2, t_n + tau/2],
except J_0 = [0, tau/2].  The weight a_n is the hat function that ramps
up over J_{n-1} and down over J_n (a_1 is flat 1 over J_0 instead of a
ramp).  Every weight integrates to tau, and the inner products
int a_n a_m dt form the tridiagonal covariance of the averaged Wiener
increments:

    diagonal 2 tau/3 (5 tau/6 for n = m = 1), first off-diagonal tau/6,
    zero beyond.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded

__all__ = [
    "TimeGrid",
    "weight_a",
    "weight_inner",
    "weight_antiderivative",
    "weight_cell_averages",
    "covariance_matrix",
    "covariance_banded",
    "cholesky_factor_banded",
]


@dataclass(frozen=True)
class TimeGrid:
    """Horizon T, step count N, and derived step size tau = T/(N+1)."""

    T: float
    N: int

    def __post_init__(self) -> None:
        if not self.T > 0.0:
            raise ValueError(f"horizon must be positive, got T={self.T}")
        if self.N < 1:
            raise ValueError(f"need at least one step, got N={self.N}")

    @property
    def tau(self) -> float:
        return self.T / (self.N + 1)

    def node(self, n: int) -> float:
        """t_n = n tau."""
        return n * self.tau

    def interval(self, n: int) -> tuple[float, float]:
        """J_n = [t_n - tau/2, t_n + tau/2], with J_0 clipped at 0."""
        if not 0 <= n <= self.N:
            raise IndexError(f"interval index {n} outside 0..{self.N}")
        lo = max(self.node(n) - 0.5 * self.tau, 0.0)
        return lo, self.node(n) + 0.5 * self.tau


def _check_weight_index(n: int, grid: TimeGrid) -> None:
    if not 1 <= n <= grid.N:
        raise IndexError(f"weight index {n} outside 1..{grid.N}")


def weight_a(n: int, t, grid: TimeGrid):
    """Weight a_n(t), vectorized over t.

    a_1 = 1 on J_0 then ramps down across J_1; a_n (n >= 2) ramps up
    across J_{n-1} and down across J_n.  Intervals are taken half-open
    on the right so overlapping indicators never double-count.
    """
    _check_weight_index(n, grid)
    t = np.asarray(t, dtype=float)
    tau = grid.tau
    hi = grid.node(n) + 0.5 * tau
    if n == 1:
        flat = (t >= 0.0) & (t < 0.5 * tau)
        down = (t >= 0.5 * tau) & (t < hi)
        out = np.where(flat, 1.0, 0.0) + np.where(down, (hi - t) / tau, 0.0)
    else:
        lo = grid.node(n - 1) - 0.5 * tau
        mid = grid.node(n - 1) + 0.5 * tau
        up = (t >= lo) & (t < mid)
        down = (t >= mid) & (t < hi)
        out = np.where(up, (t - lo) / tau, 0.0) + np.where(down, (hi - t) / tau, 0.0)
    return out if out.ndim else float(out)


def weight_antiderivative(n: int, t, grid: TimeGrid):
    """A_n(t) = int_0^t a_n(s) ds, exact piecewise-quadratic closed form."""
    _check_weight_index(n, grid)
    t = np.asarray(t, dtype=float)
    tau = grid.tau
    hi = grid.node(n) + 0.5 * tau
    if n == 1:
        mid = 0.5 * tau
        tc = np.clip(t, 0.0, mid)
        out = tc.copy()
        td = np.clip(t, mid, hi)
        out += (tau**2 - (hi - td) ** 2) / (2.0 * tau) - (tau**2 - (hi - mid) ** 2) / (
            2.0 * tau
        )
    else:
        lo = grid.node(n - 1) - 0.5 * tau
        mid = grid.node(n - 1) + 0.5 * tau
        tu = np.clip(t, lo, mid)
        out = (tu - lo) ** 2 / (2.0 * tau)
        td = np.clip(t, mid, hi)
        out += (tau**2 - (hi - td) ** 2) / (2.0 * tau)
    return out if out.ndim else float(out)


def weight_cell_averages(n: int, grid: TimeGrid, delta: float, j0: int, j1: int) -> np.ndarray:
    """Exact averages of a_n over the fine cells [j delta, (j+1) delta)
    for j = j0..j1-1; only the ~2 tau/delta cells under the hat are
    nonzero."""
    edges = np.arange(j0, j1 + 1) * delta
    return np.diff(weight_antiderivative(n, edges, grid)) / delta


def weight_inner(n: int, m: int, grid: TimeGrid) -> float:
    """Closed-form int a_n a_m dt.

    Derived by integrating the piecewise-linear hats; cross-checked in the
    test suite against adaptive and symbolic quadrature.
    """
    _check_weight_index(n, grid)
    _check_weight_index(m, grid)
    tau = grid.tau
    d = abs(n - m)
    if d >= 2:
        return 0.0
    if d == 1:
        return tau / 6.0
    return 5.0 * tau / 6.0 if n == 1 else 2.0 * tau / 3.0


def covariance_matrix(grid: TimeGrid) -> np.ndarray:
    """Dense N x N covariance of (Delta_1 W, ..., Delta_N W) per mode."""
    N = grid.N
    tau = grid.tau
    C = np.zeros((N, N))
    diag = np.full(N, 2.0 * tau / 3.0)
    diag[0] = 5.0 * tau / 6.0
    np.fill_diagonal(C, diag)
    off = np.full(N - 1, tau / 6.0)
    C[np.arange(N - 1), np.arange(1, N)] = off
    C[np.arange(1, N), np.arange(N - 1)] = off
    return C


def covariance_banded(grid: TimeGrid) -> np.ndarray:
    """Lower-banded (2, N) storage of the tridiagonal covariance."""
    N = grid.N
    tau = grid.tau
    ab = np.zeros((2, N))
    ab[0] = 2.0 * tau / 3.0
    ab[0, 0] = 5.0 * tau / 6.0
    ab[1, : N - 1] = tau / 6.0
    return ab


def cholesky_factor_banded(grid: TimeGrid) -> np.ndarray:
    """Lower-bidiagonal Cholesky factor in (2, N) banded storage.

    Row 0 holds the diagonal, row 1 the subdiagonal.  Lower triangularity
    is the adaptedness of the increments: Delta_n W is a function of the
    first n standard normals only.
    """
    return cholesky_banded(covariance_banded(grid), lower=True)
