"""Console script `pstokes`.

`pstokes run` steps one trajectory of the smooth vortex on
alfeld_split(unit_square_mesh(m)) with additive curl-mode noise, in the
divergence-free basis the stepper always solves in, and prints a
JSON-lines trace: one line per step with the step index n, the
fields of its StepStats and the largest pointwise |div u| over the
quadrature points.  The exit code is 1 when the trajectory stops on a
step that did not converge, 2 when an option has a value the run cannot
take (as for any usage error), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from pstokes.grids import TimeGrid
from pstokes.meshing import alfeld_split, unit_square_mesh
from pstokes.noise import NoiseModel, sample_increments
from pstokes.scenarios import curl_modes, u0_smooth
from pstokes.spaces import assemble, divergence_pointwise_max
from pstokes.stepper import SchemeConfig, initial_velocity, run_trajectory
from pstokes.tensors import PowerLawParams

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pstokes", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="step one trajectory and print a per-step JSON trace")
    run.add_argument("--m", type=int, default=4, help="mesh order of the unit square (default 4)")
    run.add_argument("--N", type=int, default=8, help="number of time steps (default 8)")
    run.add_argument("--T", type=float, default=0.1, help="final time (default 0.1)")
    run.add_argument("--p", type=float, default=2.0, help="power-law exponent (default 2)")
    run.add_argument("--kappa", type=float, default=0.0, help="power-law shift (default 0)")
    run.add_argument("--seed", type=int, default=0, help="seed of the Wiener increments")
    run.add_argument("--modes", type=int, default=2, help="curl noise modes, 0 for none (default 2)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the console script on argv (default sys.argv[1:]); returns the
    exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        ops = assemble(alfeld_split(unit_square_mesh(args.m)))
        grid = TimeGrid(T=args.T, N=args.N)
        model = NoiseModel(curl_modes(args.modes)) if args.modes else None
        config = SchemeConfig(PowerLawParams(p=args.p, kappa=args.kappa), grid, model)
    except ValueError as err:
        parser.error(str(err))
    inc = sample_increments(np.random.default_rng(args.seed), grid, n_modes=args.modes)
    traj = run_trajectory(initial_velocity(u0_smooth, ops), inc, config, ops)
    for n, stats in enumerate(traj.stats, start=1):
        line = {"n": n, **asdict(stats)}
        line["max_div"] = divergence_pointwise_max(traj.fields[n], ops)
        print(json.dumps(line), flush=True)
    return 0 if traj.ok else 1


if __name__ == "__main__":
    sys.exit(main())
