"""Numerical toolkit for a space-time discretization of the stochastic
p-Stokes system: averaged Wiener increments, an exactly divergence-free
Scott-Vogelius velocity stepper, three-part pressure reconstruction, and
Monte Carlo harnesses for stability and strong-rate studies."""

from pstokes.tensors import (
    PowerLawParams,
    stress_S,
    nonlinear_V,
    stress_jacobian,
    young_gap,
)

__all__ = ["PowerLawParams", "stress_S", "nonlinear_V", "stress_jacobian", "young_gap"]

__version__ = "0.1.0"
