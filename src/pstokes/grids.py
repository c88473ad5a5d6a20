"""Equidistant time grid and the averaging weights a_n.

The grid splits [0, T] into N+1 steps of size tau = T/(N+1) with nodes
t_n = n tau and midpoint intervals J_n = [t_n - tau/2, t_n + tau/2],
except J_0 = [0, tau/2].  The weight a_n is the hat function that ramps
up over J_{n-1} and down over J_n (a_1 is flat 1 over J_0 instead of a
ramp).  Every weight integrates to tau, and the inner products
int a_n a_m dt form the tridiagonal covariance of the averaged Wiener
increments.

Each integral of the weights has one owner.  The hat a_n is one table
of knots and values (`_hat_table`): `weight_a` interpolates it,
`weight_antiderivative` integrates its linear pieces exactly and
`weight_support` reads its end knots; the fine-cell averages
(`weight_cell_averages`) and the hat windows of a grid pair
(`hat_pieces`, and the time tables read from them, `hat_windows`, built
once per pair and shared read-only) are read from these.  The
covariance entries are those of `weight_inner`, which
`covariance_banded` and with it the exact sampler's Cholesky factor
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import cholesky_banded

__all__ = [
    "TimeGrid",
    "weight_a",
    "weight_support",
    "weight_inner",
    "weight_antiderivative",
    "weight_cell_averages",
    "HatPieces",
    "hat_pieces",
    "HatWindows",
    "hat_windows",
    "covariance_matrix",
    "covariance_banded",
    "cholesky_factor_banded",
]


@dataclass(frozen=True)
class TimeGrid:
    """Finite horizon T > 0, step count N, and step size tau = T/(N+1)."""

    T: float
    N: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon must be finite and positive, got T={self.T}")
        if isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError(f"need a positive integer step count, got N={self.N!r}")

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


def _hat_table(n: int, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Knots and values of a_n, linear between the knots and zero outside:
    the ends of J_{n-1} and the right end of J_n, with the values
    (1, 1, 0) for n = 1 (flat over J_0) and (0, 1, 0) after."""
    _check_weight_index(n, grid)
    (lo, mid), (_, hi) = grid.interval(n - 1), grid.interval(n)
    return np.array([lo, mid, hi]), np.array([float(n == 1), 1.0, 0.0])


def weight_support(n: int, grid: TimeGrid) -> tuple[float, float]:
    """The support [max(t_{n-1} - tau/2, 0), t_n + tau/2] of a_n."""
    knots, _ = _hat_table(n, grid)
    return float(knots[0]), float(knots[-1])


def weight_a(n: int, t, grid: TimeGrid):
    """Weight a_n(t), vectorized over t: the hat table interpolated
    linearly inside its knots, zero outside them."""
    knots, values = _hat_table(n, grid)
    out = np.interp(t, knots, values, left=0.0, right=0.0)
    return out if out.ndim else float(out)


def weight_antiderivative(n: int, t, grid: TimeGrid):
    """A_n(t) = int_0^t a_n(s) ds: each linear piece of the hat table,
    cut at t, integrated exactly by its trapezoid."""
    knots, values = _hat_table(n, grid)
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    for x0, x1, v0, v1 in zip(knots[:-1], knots[1:], values[:-1], values[1:]):
        s = np.clip(t, x0, x1)
        out += 0.5 * (s - x0) * (2.0 * v0 + (v1 - v0) * (s - x0) / (x1 - x0))
    return out if out.ndim else float(out)


def weight_cell_averages(n: int, grid: TimeGrid, delta: float, j0: int, j1: int) -> np.ndarray:
    """Exact averages of a_n over the fine cells [j delta, (j+1) delta)
    for j = j0..j1-1; only the ~2 tau/delta cells under the hat are
    nonzero."""
    edges = np.arange(j0, j1 + 1) * delta
    return np.diff(weight_antiderivative(n, edges, grid)) / delta


class HatPieces(NamedTuple):
    """The pieces [lo, hi] of supp a_n, in time order, each in one fine
    midpoint cell J_j (`cells`) and in J_{n-1} or J_n (`late` marks J_n):
    a field constant on the fine cells is constant, and a_n linear, on each."""

    cells: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    late: np.ndarray

    def per_cell(self, vals: np.ndarray, sel=slice(None)) -> tuple[slice, np.ndarray]:
        """The fine cells of the pieces `sel`, a contiguous run (the pieces
        are in time order), and the values of the pieces summed per cell."""
        js, starts = np.unique(self.cells[sel], return_index=True)
        return slice(js[0], js[-1] + 1), np.add.reduceat(vals[sel], starts)


def hat_pieces(grid_c: TimeGrid, grid_f: TimeGrid) -> list[HatPieces]:
    """The pieces of supp a_n of the coarse grid, for n = 1..N_c, cut at
    the midpoint cells of a fine grid that refines it: the horizons must
    agree and N_c + 1 must divide N_f + 1, or ValueError is raised."""
    if abs(grid_c.T - grid_f.T) > 1e-12 * grid_f.T:
        raise ValueError("coarse and reference grids have different horizons")
    ratio = (grid_f.N + 1) / (grid_c.N + 1)
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError(
            f"reference step count {grid_f.N}+1 is not a multiple of coarse {grid_c.N}+1"
        )
    tf = grid_f.tau
    js = np.arange(grid_f.N + 1)
    pieces = []
    for n in range(1, grid_c.N + 1):
        # row 0 meets J_{n-1}, row 1 J_n; row-major selection keeps time order
        lo, hi = np.transpose([grid_c.interval(n - 1), grid_c.interval(n)])
        a = np.maximum.outer(lo, np.maximum((js - 0.5) * tf, 0.0))
        b = np.minimum.outer(hi, (js + 0.5) * tf)
        keep = b - a > 1e-12 * tf
        late = np.repeat([False, True], keep.sum(axis=1))
        pieces.append(HatPieces(np.broadcast_to(js, keep.shape)[keep], a[keep], b[keep], late))
    return pieces


class HatWindows(NamedTuple):
    """The time tables of a coarse/fine grid pair, read from the `pieces`
    of each supp a_n.  A window (js, w) is a run of fine cells J_j (a
    slice) and a weight per cell: the `tiles` |J_j ∩ J_n| for n = 0..N_c,
    and for n = 1..N_c the integrals of a_n over J_j ∩ J_n (`hat_tile`)
    and over J_j (`hat_full`), exact as a_n is linear on each piece.
    The tables are tuples and every array in them is read-only."""

    pieces: tuple[HatPieces, ...]
    tiles: tuple[tuple[slice, np.ndarray], ...]
    hat_tile: tuple[tuple[slice, np.ndarray], ...]
    hat_full: tuple[tuple[slice, np.ndarray], ...]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=32)
def hat_windows(grid_c: TimeGrid, grid_f: TimeGrid) -> HatWindows:
    """The windows of a pair that `hat_pieces` accepts, built once per
    pair of (frozen, hashable) grids: a bounded cache keeps the tables
    of the last 32 pairs, and every caller shares them read-only."""
    pieces = tuple(HatPieces(*map(_read_only, h)) for h in hat_pieces(grid_c, grid_f))
    intervals = [(pieces[0], ~pieces[0].late)] + [(h, h.late) for h in pieces]
    hats = [
        (h, (h.hi - h.lo) * weight_a(n, 0.5 * (h.lo + h.hi), grid_c))
        for n, h in enumerate(pieces, 1)
    ]

    def windows(per_cell) -> tuple[tuple[slice, np.ndarray], ...]:
        return tuple((js, _read_only(w)) for js, w in per_cell)

    return HatWindows(
        pieces,
        tiles=windows(h.per_cell(h.hi - h.lo, sel) for h, sel in intervals),
        hat_tile=windows(h.per_cell(a, h.late) for h, a in hats),
        hat_full=windows(h.per_cell(a) for h, a in hats),
    )


def weight_inner(n: int, m: int, grid: TimeGrid) -> float:
    """Closed-form int a_n a_m dt: 2 tau/3 on the diagonal (5 tau/6 for
    n = m = 1), tau/6 on the first off-diagonal, zero beyond.

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
    """Dense N x N covariance of (Delta_1 W, ..., Delta_N W) per mode,
    expanded from `covariance_banded`."""
    diag, off = covariance_banded(grid)
    return np.diag(diag) + np.diag(off[:-1], -1) + np.diag(off[:-1], 1)


def covariance_banded(grid: TimeGrid) -> np.ndarray:
    """Lower-banded (2, N) storage of the tridiagonal covariance, read
    from `weight_inner`."""
    N = grid.N
    ab = np.zeros((2, N))
    ab[0] = [weight_inner(n, n, grid) for n in range(1, N + 1)]
    ab[1, : N - 1] = [weight_inner(n, n + 1, grid) for n in range(1, N)]
    return ab


def cholesky_factor_banded(grid: TimeGrid) -> np.ndarray:
    """Lower-bidiagonal Cholesky factor in (2, N) banded storage.

    Row 0 holds the diagonal, row 1 the subdiagonal.  Lower triangularity
    is the adaptedness of the increments: Delta_n W is a function of the
    first n standard normals only.
    """
    return cholesky_banded(covariance_banded(grid), lower=True)
