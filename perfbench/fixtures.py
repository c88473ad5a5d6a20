"""Initial data and noise mode fields for the benchmark workloads.

Each callable maps a point array of shape (..., 2) to velocity values of
shape (..., 2).  All fields are curls of stream functions that vanish
with their gradient on the boundary of the unit square, so they are
divergence free and have zero trace.
"""

from __future__ import annotations

import numpy as np


def u0_smooth(pts: np.ndarray) -> np.ndarray:
    """Curl of (x (1-x) y (1-y))^2: one smooth vortex."""
    x, y = pts[..., 0], pts[..., 1]
    ux = 2 * x**2 * (1 - x) ** 2 * y * (1 - y) * (1 - 2 * y)
    uy = -2 * x * (1 - x) * (1 - 2 * x) * y**2 * (1 - y) ** 2
    return np.stack([ux, uy], axis=-1)


def curl_modes(n_modes: int, amplitude: float = 0.1) -> list:
    """Fields amplitude/sqrt(2) (sin(a pi x) cos(a pi y), -cos(a pi x) sin(a pi y))
    for a = 1..n_modes (tangential, not zero, on the boundary)."""

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


def bump_stream_mode(k: int):
    """Curl of b^2 c_k with b = x y (1-x) (1-y) and
    c_k = cos(k pi x) cos(k pi y) (c_0 = 1)."""

    def mode(pts: np.ndarray) -> np.ndarray:
        x, y = pts[..., 0], pts[..., 1]
        b = x * y * (1 - x) * (1 - y)
        bx = y * (1 - y) * (1 - 2 * x)
        by = x * (1 - x) * (1 - 2 * y)
        if k == 0:
            c, cx, cy = 1.0, 0.0, 0.0
        else:
            w = np.pi * k
            c = np.cos(w * x) * np.cos(w * y)
            cx = -w * np.sin(w * x) * np.cos(w * y)
            cy = -w * np.cos(w * x) * np.sin(w * y)
        ux = 2 * b * by * c + b * b * cy
        uy = -(2 * b * bx * c + b * b * cx)
        return np.stack([ux, uy], axis=-1)

    return mode


def bump_stream_modes(n_modes: int, decay: float = 2.0) -> list:
    """(1 + k)^-decay * bump_stream_mode(1 + k) for k = 0..n_modes-1."""

    def mode(k: int):
        g = bump_stream_mode(1 + k)
        return lambda pts: (1.0 + k) ** (-decay) * g(pts)

    return [mode(k) for k in range(n_modes)]


def u0_rough(pts: np.ndarray) -> np.ndarray:
    """sum_{k=1}^{16} k^-1.5 bump_stream_mode(k): slowly decaying spectrum."""
    out = np.zeros(pts.shape)
    for k in range(1, 17):
        out += k ** (-1.5) * bump_stream_mode(k)(pts)
    return out
