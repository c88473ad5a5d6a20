"""Monte Carlo pre-pass for the frozen tensor-inequality constants.

Regenerates the empirical brackets stored in pstokes.tensors:
monotonicity ratio ranges, ordering constants, and the generalized Young
constants c_delta.  Run this after touching the sampling distributions
and paste the printed tables into tensors.py.

Sampling protocol (documented for reproducibility): seed 2024, 2 x 10^6
pairs/triples per table entry, symmetric 2x2 Gaussian matrices across
logarithmic scales 1e-3 .. 1e3, with a 25% fraction of near-coincident
pairs down to relative distance 1e-8.  Raw extremes are widened before
freezing: monotonicity brackets by 10% outward, ordering and Young
constants by 10% and 25% upward.
"""

import numpy as np

from pstokes.tensors import (
    PowerLawParams,
    monotonicity_ratio,
    nonlinear_V,
    stress_S,
    _sample_matrix_batch,
    _sample_pair_batch,
)

SEED = 2024
N_SAMPLES = 2_000_000
P_VALUES = (1.5, 2.0, 3.0, 4.0)
DELTAS = (0.1, 0.25, 0.5, 1.0)


def calibrate_monotonicity_bounds(
    p: float, n_pairs: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Observed range of monotonicity_ratio over random matrix pairs at
    kappa = 0."""
    params = PowerLawParams(p=p, kappa=0.0)
    lo, hi = np.inf, -np.inf
    done = 0
    while done < n_pairs:
        chunk = min(n_pairs - done, 500_000)
        A, B = _sample_pair_batch(rng, chunk)
        ratio = monotonicity_ratio(A, B, params)
        ratio = ratio[np.isfinite(ratio)]
        if ratio.size:
            lo = min(lo, float(ratio.min()))
            hi = max(hi, float(ratio.max()))
        done += chunk
    return lo, hi


def calibrate_young_constant(
    p: float, delta: float, n_triples: int, rng: np.random.Generator
) -> float:
    """Max over sampled triples of the constant needed to close Young,
    at kappa = 0."""
    params = PowerLawParams(p=p, kappa=0.0)
    worst = 0.0
    done = 0
    while done < n_triples:
        chunk = min(n_triples - done, 500_000)
        A, B = _sample_pair_batch(rng, chunk)
        C = _sample_matrix_batch(rng, chunk)
        near = rng.random(chunk) < 0.3
        C[near] = B[near] + 10.0 ** rng.uniform(-6.0, 0.0, size=chunk)[
            near, None, None
        ] * _sample_matrix_batch(rng, int(near.sum()))
        dS = stress_S(A, params) - stress_S(B, params)
        dV_AB = nonlinear_V(A, params) - nonlinear_V(B, params)
        dV_CB = nonlinear_V(C, params) - nonlinear_V(B, params)
        lhs = np.einsum("nij,nij->n", dS, C - B)
        lhs = lhs - delta * np.einsum("nij,nij->n", dV_AB, dV_AB)
        den = np.einsum("nij,nij->n", dV_CB, dV_CB)
        ok = den > 0.0
        if ok.any():
            worst = max(worst, float(np.max(lhs[ok] / den[ok])))
        done += chunk
    return worst


def calibrate_ordering(p: float, n_pairs: int, rng: np.random.Generator):
    """Max ratios of the two-sided ordering chain at kappa = 0.

    p >= 2:  |A-B|^p <= c1 |V(A)-V(B)|^2 <= c1*c2 ... with
             c1 = max |A-B|^p / |V(A)-V(B)|^2,
             c2 = max |V(A)-V(B)|^2 / |S(A)-S(B)|^p'.
    p <= 2:  c1 = max |S(A)-S(B)|^p' / |V(A)-V(B)|^2,
             c2 = max |V(A)-V(B)|^2 / |A-B|^p.
    """
    params = PowerLawParams(p=p, kappa=0.0)
    pc = params.p_conj
    c1, c2 = 0.0, 0.0
    done = 0
    while done < n_pairs:
        chunk = min(n_pairs - done, 500_000)
        A, B = _sample_pair_batch(rng, chunk)
        dAB = np.sqrt(np.einsum("nij,nij->n", A - B, A - B))
        dS = stress_S(A, params) - stress_S(B, params)
        dSn = np.sqrt(np.einsum("nij,nij->n", dS, dS))
        dV = nonlinear_V(A, params) - nonlinear_V(B, params)
        dV2 = np.einsum("nij,nij->n", dV, dV)
        ok = dV2 > 0.0
        if ok.any():
            if p >= 2.0:
                c1 = max(c1, float(np.max(dAB[ok] ** p / dV2[ok])))
                c2 = max(c2, float(np.max(dV2[ok] / dSn[ok] ** pc)))
            else:
                c1 = max(c1, float(np.max(dSn[ok] ** pc / dV2[ok])))
                c2 = max(c2, float(np.max(dV2[ok] / dAB[ok] ** p)))
        done += chunk
    return c1, c2


def main() -> None:
    print("MONOTONICITY_BOUNDS (observed, then widened 10% outward):")
    for p in P_VALUES:
        rng = np.random.default_rng(SEED)
        lo, hi = calibrate_monotonicity_bounds(p, N_SAMPLES, rng)
        print(
            f"  {p}: observed ({lo:.6g}, {hi:.6g}) ->"
            f" ({lo / 1.1:.4f}, {hi * 1.1:.4f})"
        )

    print("ORDERING_CONSTANTS (observed, then widened x 1.1):")
    for p in P_VALUES:
        rng = np.random.default_rng(SEED)
        c1, c2 = calibrate_ordering(p, N_SAMPLES, rng)
        print(f"  {p}: observed ({c1:.6g}, {c2:.6g}) -> ({c1 * 1.1:.4f}, {c2 * 1.1:.4f})")

    print("YOUNG_CONSTANTS (observed max, then widened x 1.25):")
    for p in P_VALUES:
        for delta in DELTAS:
            rng = np.random.default_rng(SEED)
            c = calibrate_young_constant(p, delta, N_SAMPLES, rng)
            print(f"  ({p}, {delta}): observed {c:.6g} -> {c * 1.25:.4f}")


if __name__ == "__main__":
    main()
