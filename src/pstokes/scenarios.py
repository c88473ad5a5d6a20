"""Initial data and noise mode fields on the unit square.

Each callable maps a point array of shape (..., 2) to velocity values of
shape (..., 2).  They are the fields the console script runs and the
tests step with.
"""

from __future__ import annotations

import numpy as np

__all__ = ["u0_smooth", "curl_modes"]


def u0_smooth(pts: np.ndarray) -> np.ndarray:
    """Curl of (x (1-x) y (1-y))^2: one smooth vortex, divergence free
    with zero trace."""
    x, y = pts[..., 0], pts[..., 1]
    ux = 2 * x**2 * (1 - x) ** 2 * y * (1 - y) * (1 - 2 * y)
    uy = -2 * x * (1 - x) * (1 - 2 * x) * y**2 * (1 - y) ** 2
    return np.stack([ux, uy], axis=-1)


def curl_modes(n_modes: int, amplitude: float = 0.1) -> list:
    """Fields amplitude/sqrt(2) (sin(a pi x) cos(a pi y), -cos(a pi x) sin(a pi y))
    for a = 1..n_modes: divergence free, tangential (not zero) on the
    boundary.  Raises ValueError for a negative n_modes."""
    if n_modes < 0:
        raise ValueError(f"the number of noise modes must be >= 0, got {n_modes}")

    def mode(a: int):
        def g(pts: np.ndarray) -> np.ndarray:
            x, y = pts[..., 0], pts[..., 1]
            s = amplitude / np.sqrt(2.0)
            return s * np.stack(
                [
                    np.sin(np.pi * a * x) * np.cos(np.pi * a * y),
                    -np.cos(np.pi * a * x) * np.sin(np.pi * a * y),
                ],
                axis=-1,
            )

        return g

    return [mode(k + 1) for k in range(n_modes)]
