"""Power-law stress tensors and their inequality algebra.

The constitutive law of a power-law fluid relates the deviatoric stress to
the symmetric velocity gradient A = eps(u) through

    S(A) = (kappa + |A|)^(p-2) A,

with shear exponent p > 1 and degeneracy parameter kappa >= 0.  The
companion tensor

    V(A) = (kappa + |A|)^((p-2)/2) A

carries the natural distance of the problem: the monotonicity gap
(S(A) - S(B)) : (A - B) is comparable to |V(A) - V(B)|^2 with constants
depending only on p.  All matrix norms are Frobenius, |A|^2 = A:A, which
makes every identity below exact rather than equivalent up to norms.

Functions accept a single d x d matrix or an arbitrary batch with shape
(..., d, d); scalar radii broadcast over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerLawParams",
    "stress_S",
    "nonlinear_V",
    "stress_jacobian",
    "jacobian_coefficients",
    "young_gap",
    "generalized_young_constant",
    "monotonicity_ratio",
    "MONOTONICITY_BOUNDS",
    "ORDERING_CONSTANTS",
    "YOUNG_CONSTANTS",
]


@dataclass(frozen=True)
class PowerLawParams:
    """Exponent p, degeneracy kappa, and the Jacobian-only radius floor.

    newton_reg guards the Newton linearization against the singular or
    degenerate radius at A = 0; it never enters residual evaluation, so
    the computed stress of a field is bit-identical for any value of it.
    """

    p: float
    kappa: float = 0.0
    newton_reg: float = 1e-8

    def __post_init__(self) -> None:
        if not self.p > 1.0:
            raise ValueError(f"exponent must satisfy p > 1, got p={self.p}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.newton_reg < 0.0:
            raise ValueError(f"newton_reg must be >= 0, got {self.newton_reg}")

    @property
    def p_conj(self) -> float:
        """Conjugate exponent p' = p/(p-1)."""
        return self.p / (self.p - 1.0)


def frobenius(A: np.ndarray) -> np.ndarray:
    """Frobenius norm over the trailing two axes."""
    A = np.asarray(A, dtype=float)
    return np.sqrt(np.einsum("...ij,...ij->...", A, A))


def _check_finite(A: np.ndarray, name: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _radial_power(radius: np.ndarray, power: float) -> np.ndarray:
    """(radius)^power with the convention 0^power -> 0.

    Only reached with radius = 0 when the result multiplies the zero
    matrix, where the limit value of the product is 0 for every p > 1.
    """
    radius = np.asarray(radius, dtype=float)
    return np.power(radius, power, out=np.zeros_like(radius), where=radius > 0.0)


def stress_S(A: np.ndarray, params: PowerLawParams) -> np.ndarray:
    """Stress tensor S(A) = (kappa + |A|)^(p-2) A.

    For kappa = 0 and p < 2 the prefactor blows up at A = 0 while the
    product tends to 0; the limit value (the zero matrix) is returned.
    """
    A = _check_finite(A, "A")
    scale = _radial_power(params.kappa + frobenius(A), params.p - 2.0)
    return scale[..., None, None] * A


def nonlinear_V(A: np.ndarray, params: PowerLawParams) -> np.ndarray:
    """Natural-distance tensor V(A) = (kappa + |A|)^((p-2)/2) A."""
    A = _check_finite(A, "A")
    scale = _radial_power(params.kappa + frobenius(A), 0.5 * (params.p - 2.0))
    return scale[..., None, None] * A


def jacobian_coefficients(
    A: np.ndarray, params: PowerLawParams
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (alpha, beta) of DS(A)[B] = alpha B + beta (A:B) A.

    Differentiating S gives alpha = (kappa + r)^(p-2) and
    beta = (p-2) (kappa + r)^(p-3) / r evaluated at r = |A|.  The radius
    is floored at newton_reg wherever the unregularized expression is
    singular or indeterminate (alpha only for kappa = 0, p < 2; beta
    always, since the rank-one term vanishes quadratically at A = 0 and
    the floor is inert once |A| > newton_reg).
    """
    A = _check_finite(A, "A")
    r = frobenius(A)
    r_floor = np.maximum(r, params.newton_reg)
    if params.kappa == 0.0 and params.p < 2.0:
        alpha = _radial_power(params.kappa + r_floor, params.p - 2.0)
    else:
        alpha = _radial_power(params.kappa + r, params.p - 2.0)
        if params.p == 2.0:
            alpha = np.ones_like(np.asarray(r))
    beta = (params.p - 2.0) * _radial_power(
        params.kappa + r_floor, params.p - 3.0
    ) / np.where(r_floor > 0.0, r_floor, 1.0)
    # An exact zero matrix contributes no rank-one term regardless of p.
    beta = np.where(r > 0.0, beta, 0.0)
    return np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)


def stress_jacobian(A: np.ndarray, params: PowerLawParams):
    """Linearization DS(A) as a callable map B -> DS(A)[B].

    The map is a symmetric positive semidefinite bilinear form for every
    p > 1 (PSD follows from Cauchy-Schwarz on the rank-one part).
    """
    A = _check_finite(A, "A")
    alpha, beta = jacobian_coefficients(A, params)

    def apply(B: np.ndarray) -> np.ndarray:
        B = _check_finite(B, "B")
        inner = np.einsum("...ij,...ij->...", A, B)
        return alpha[..., None, None] * B + (beta * inner)[..., None, None] * A

    return apply


def monotonicity_ratio(
    A: np.ndarray, B: np.ndarray, params: PowerLawParams
) -> np.ndarray:
    """(S(A) - S(B)) : (A - B) divided by |V(A) - V(B)|^2, batched.

    Pairs with V(A) = V(B) yield NaN; callers filter them out.
    """
    dS = stress_S(A, params) - stress_S(B, params)
    dV = nonlinear_V(A, params) - nonlinear_V(B, params)
    num = np.einsum("...ij,...ij->...", dS, np.asarray(A, float) - np.asarray(B, float))
    den = np.einsum("...ij,...ij->...", dV, dV)
    with np.errstate(invalid="ignore", divide="ignore"):
        return num / den


def young_gap(
    A: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    params: PowerLawParams,
    delta: float,
    c_delta: float | None = None,
) -> np.ndarray:
    """Slack of the generalized Young inequality

        (S(A) - S(B)) : (C - B) <= delta |V(A)-V(B)|^2 + c_delta |V(C)-V(B)|^2.

    Returns RHS - LHS.  When c_delta is omitted it is looked up in the
    calibrated table YOUNG_CONSTANTS for (p, delta).
    """
    if delta <= 0.0:
        raise ValueError("delta must be > 0")
    if c_delta is None:
        c_delta = generalized_young_constant(params.p, delta)
    B = np.asarray(B, dtype=float)
    dS = stress_S(A, params) - stress_S(B, params)
    dV_AB = nonlinear_V(A, params) - nonlinear_V(B, params)
    dV_CB = nonlinear_V(C, params) - nonlinear_V(B, params)
    lhs = np.einsum("...ij,...ij->...", dS, np.asarray(C, float) - B)
    rhs = delta * np.einsum("...ij,...ij->...", dV_AB, dV_AB)
    rhs = rhs + c_delta * np.einsum("...ij,...ij->...", dV_CB, dV_CB)
    return rhs - lhs


# ----------------------------------------------------------------------
# Calibrated constants.
#
# The paper-level inequalities hold with unspecified p-dependent
# constants.  The tables below freeze empirical values obtained from the
# documented Monte Carlo pre-pass in scripts/calibrate_tensor_constants.py
# (seed 2024, 2 x 10^6 matrix pairs/triples per entry, entries drawn from
# isotropic Gaussians across 13 logarithmic scales 1e-3 .. 1e3, including
# near-coincident and near-zero pairs).  Observed extreme ratios are
# widened by the stated safety factors before freezing; property tests
# resample fresh pairs and must land inside these brackets.

# monotonicity_ratio range per p, kappa = 0: observed [min, max] widened
# by 10% outward.  p = 2 is exactly 1.
MONOTONICITY_BOUNDS: dict[float, tuple[float, float]] = {
    1.5: (0.8057, 1.1567),
    2.0: (0.9091, 1.1000),
    3.0: (0.8001, 1.1567),
    4.0: (0.6817, 1.2375),
}

# Ordering constants for kappa = 0 (eq. pair "relation >= 2" / "<= 2"):
#   p >= 2:  |A-B|^p <= c1 |V(A)-V(B)|^2  and  |V(A)-V(B)|^2 <= c2 |S(A)-S(B)|^p'
#   p <= 2:  mirrored with the roles of the outer exponents swapped:
#            |S(A)-S(B)|^p' <= c1 |V(A)-V(B)|^2  and  |V(A)-V(B)|^2 <= c2 |A-B|^p
# Frozen as max observed ratio x 1.1.
ORDERING_CONSTANTS: dict[float, tuple[float, float]] = {
    1.5: (2.1998, 1.5555),
    2.0: (1.1000, 1.1000),
    3.0: (2.1997, 1.5555),
    4.0: (4.3987, 1.7459),
}

# Generalized Young constant c_delta per (p, delta): max over sampled
# triples of (LHS - delta |V(A)-V(B)|^2) / |V(C)-V(B)|^2, widened x 1.25.
# Calibrated at kappa = 0, the empirically worst case; spot checks at
# kappa in {0.1, 1} observe strictly smaller constants.
YOUNG_CONSTANTS: dict[tuple[float, float], float] = {
    (1.5, 0.1): 5.7525,
    (1.5, 0.25): 2.1582,
    (1.5, 0.5): 0.9171,
    (1.5, 1.0): 0.5520,
    (2.0, 0.1): 3.1228,
    (2.0, 0.25): 1.2498,
    (2.0, 0.5): 0.6250,
    (2.0, 1.0): 0.3122,
    (3.0, 0.1): 33.3017,
    (3.0, 0.25): 4.5261,
    (3.0, 0.5): 0.8886,
    (3.0, 1.0): 0.4992,
    (4.0, 0.1): 447.2027,
    (4.0, 0.25): 27.1792,
    (4.0, 0.5): 2.2393,
    (4.0, 1.0): 0.6198,
}


def generalized_young_constant(p: float, delta: float) -> float:
    """Calibrated c_delta for the generalized Young inequality."""
    try:
        return YOUNG_CONSTANTS[(p, delta)]
    except KeyError:
        raise KeyError(
            f"no calibrated Young constant for (p={p}, delta={delta}); "
            "run scripts/calibrate_tensor_constants.py and extend YOUNG_CONSTANTS"
        ) from None


def _sample_matrix_batch(rng: np.random.Generator, n: int, dim: int = 2) -> np.ndarray:
    """Gaussian matrices across logarithmic scales, symmetrized.

    Symmetric arguments match the use site (symmetric gradients), and the
    scale sweep exercises both the degenerate (|A| -> 0) and the large-
    radius regimes of the radial prefactors.
    """
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    A = rng.standard_normal((n, dim, dim)) * scales[:, None, None]
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _sample_pair_batch(
    rng: np.random.Generator, n: int, dim: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    A = _sample_matrix_batch(rng, n, dim)
    B = _sample_matrix_batch(rng, n, dim)
    # Mix in nearly coincident pairs; the ratio limits live there.
    close = rng.random(n) < 0.25
    eps = 10.0 ** rng.uniform(-8.0, -1.0, size=n)
    B[close] = A[close] + eps[close, None, None] * _sample_matrix_batch(
        rng, int(close.sum()), dim
    )
    return A, B
