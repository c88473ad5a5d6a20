"""The three Monte Carlo study workloads, run through the public `pstokes` API.

Each workload has a `setup()` that builds everything a study needs before
its first sample, and a `study(state, seed, j, ledger)` that runs study j:
one sample, its per-sample post-processing and the study statistics over
it, timing the program calls through the ledger and checking every
output.  `study` returns the number of samples completed (0 or 1).  Every
workload steps with the divergence-free `solver="stream"` backend.

Inputs come from the seed alone: study j draws from
`numpy.random.default_rng([seed, j])`.  For the default seed, study 0
must reproduce the headline statistics recorded below.

Program entry points are looked up on their modules at call time
(`stepper.run_trajectory`, not an imported name), so the traced run can
time them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import pstokes.diagnostics as diagnostics
import pstokes.meshing as meshing
import pstokes.noise as noise
import pstokes.pressure as pressure
import pstokes.spaces as spaces
import pstokes.stepper as stepper
from pstokes.grids import TimeGrid
from pstokes.stepper import SchemeConfig
from pstokes.tensors import PowerLawParams

from fixtures import bump_stream_modes, curl_modes, u0_rough, u0_smooth
from harness import (
    RECONSTRUCTION_TOL,
    finite_problems,
    golden_problems,
    trajectory_problems,
)

DEFAULT_SEED = 0

# Time horizon and noise of `ensemble_p2` and `newton_p3`.
T = 0.1
N_MODES = 4
AMPLITUDE = 0.1
# Time horizon and noise of `coupled_ladder`; delta = tau_ref / LADDER_DELTA_DIV.
LADDER_T = 0.01
LADDER_MODES = 8
LADDER_AMPLITUDE = 8.0
LADDER_DELTA_DIV = 8

_COUNT_KEYS = ("steps", "newton_its", "refactors", "picard_steps")


def _ops(m: int):
    return spaces.assemble(meshing.alfeld_split(meshing.unit_square_mesh(m)))


def _workspace(config: SchemeConfig, ops):
    """A stepper workspace with its lazy set-up done: the stream Gram
    matrix and, at p = 2, the one factorization every step reuses."""
    work = stepper.StepperWorkspace(config, ops)
    work.stream_gram()
    if work.is_linear:
        work.linear_stream()
    return work


def _stats_values(stats) -> dict:
    return {k: v for k, v in vars(stats).items() if isinstance(v, (int, float, type(None)))}


class _State(SimpleNamespace):
    """What set-up built: `ops` lists the operators of every mesh, the
    workload adds its own fields; `counts` totals the step stats of the
    trajectories checked so far."""

    def __init__(self, **fields) -> None:
        super().__init__(counts=dict.fromkeys(_COUNT_KEYS, 0), **fields)

    def tally(self, traj) -> None:
        s = traj.stats
        self.counts["steps"] += len(s)
        self.counts["newton_its"] += sum(x.iterations for x in s)
        self.counts["refactors"] += sum(x.refactorizations for x in s)
        self.counts["picard_steps"] += sum(1 for x in s if x.used_picard)


class Workload:
    name = ""

    def saddle_nnz(self, state) -> int:
        """L+U non-zeros of the projection saddle factors of every mesh."""
        total = 0
        for ops in state.ops:
            lu = ops.projection_saddle().lu
            total += lu.L.nnz + lu.U.nnz
        return total

    def _check_trajectory(self, state, traj, ops, config):
        problems = trajectory_problems(traj, ops, config)
        state.tally(traj)
        return problems


@dataclass
class _SingleMesh(Workload):
    """Smooth u0 and additive curl-mode noise on one m x m mesh, N steps
    to time T at power-law exponent `p`."""

    m: int = 16
    N: int = 32
    golden: dict | None = None
    p = 2.0

    def setup(self):
        ops = _ops(self.m)
        config = SchemeConfig(
            params=PowerLawParams(p=self.p, kappa=0.0),
            grid=TimeGrid(T=T, N=self.N),
            model=noise.NoiseModel(curl_modes(N_MODES, AMPLITUDE)),
            solver="stream",
        )
        work = _workspace(config, ops)
        ops.projection_saddle()
        u0 = stepper.initial_velocity(u0_smooth, ops)
        return _State(ops=[ops], config=config, work=work, u0=u0, verified=False)

    def _trajectory(self, state, seed, j):
        rng = np.random.default_rng([seed, j])
        inc = noise.sample_increments(rng, state.config.grid, n_modes=N_MODES)
        return stepper.run_trajectory(state.u0, inc, state.config, state.ops[0], state.work)


class EnsembleP2(_SingleMesh):
    """Stability study at p = 2: trajectory, pressure reconstruction,
    then stability statistics with pressures."""

    name = "ensemble_p2"

    def study(self, state, seed, j, ledger):
        ops, config = state.ops[0], state.config

        def sample():
            traj = self._trajectory(state, seed, j)
            return traj, pressure.reconstruct(traj, None, config, ops)

        def check(out):
            traj, ptraj = out
            problems = self._check_trajectory(state, traj, ops, config)
            problems += finite_problems("pressure", {"z_sto": ptraj.z_sto})
            if not state.verified:
                # the check reconstruct(verify=True) makes, on this run's first sample
                res = pressure.verify_reconstruction(traj, ptraj, config, ops)
                if not res <= RECONSTRUCTION_TOL:
                    problems.append(f"reconstruction residual {res:.3e}")
                state.verified = True
            return problems

        ledger.tracer.unit = f"study{j}/sample"
        out = ledger.op(f"{self.name} study {j} sample", 1, sample, check)
        if out is None:
            return 0
        traj, ptraj = out

        def check_stats(st):
            problems = finite_problems("stability_stats", _stats_values(st))
            if j == 0 and seed == DEFAULT_SEED and self.golden is not None:
                problems += golden_problems("e_max", st.e_max, self.golden["e_max"])
            return problems

        ledger.tracer.unit = f"study{j}/stats"
        ledger.op(
            f"{self.name} study {j} stability_stats",
            1,
            lambda: diagnostics.stability_stats([traj], [ptraj], config, ops),
            check_stats,
        )
        return 1


class NewtonP3(_SingleMesh):
    """Shear-thickening stepping at p = 3: one trajectory per study."""

    name = "newton_p3"
    p = 3.0

    def study(self, state, seed, j, ledger):
        ops, config = state.ops[0], state.config

        def check(traj):
            problems = self._check_trajectory(state, traj, ops, config)
            u = traj.fields[-1].coeffs
            energy = float(u @ (ops.M_full @ u))
            if j == 0 and seed == DEFAULT_SEED and self.golden is not None:
                problems += golden_problems("final energy", energy, self.golden["final_energy"])
            return problems

        ledger.tracer.unit = f"study{j}/sample"
        out = ledger.op(
            f"{self.name} study {j} sample", 1, lambda: self._trajectory(state, seed, j), check
        )
        return 0 if out is None else 1


@dataclass
class CoupledLadder(Workload):
    """Strong-rate study at p = 2: a reference trajectory and coupled
    coarse levels driven by one Wiener path, then error statistics per
    level and one temporal oscillation over the tau-levels."""

    m_ref: int = 8
    N_ref: int = 31
    levels: tuple = ((8, 3), (8, 7), (8, 15), (2, 31), (4, 31))
    golden: dict | None = None
    name = "coupled_ladder"

    def setup(self):
        meshes = sorted({self.m_ref} | {m for m, _ in self.levels})
        ops = {m: _ops(m) for m in meshes}
        for o in ops.values():
            o.projection_saddle()
        u0 = {m: stepper.initial_velocity(u0_rough, ops[m]) for m in meshes}
        model = noise.NoiseModel(
            bump_stream_modes(LADDER_MODES), rule="additive", amplitude=LADDER_AMPLITUDE
        )
        levels = []
        for m, N in ((self.m_ref, self.N_ref),) + tuple(self.levels):
            cfg = SchemeConfig(
                params=PowerLawParams(p=2.0, kappa=0.0),
                grid=TimeGrid(T=LADDER_T, N=N),
                model=model,
                solver="stream",
            )
            levels.append((ops[m], cfg, u0[m], _workspace(cfg, ops[m])))
        return _State(ops=[ops[m] for m in meshes], ref=levels[0], levels=levels[1:])

    def study(self, state, seed, j, ledger):
        ops_r, cfg_r, u0_r, work_r = state.ref
        delta = cfg_r.grid.tau / LADDER_DELTA_DIV

        def sample():
            rng = np.random.default_rng([seed, j])
            path = noise.sample_wiener_path(LADDER_T, delta, LADDER_MODES, rng)
            return [
                stepper.run_trajectory(u0, noise.sample_increments(path, cfg.grid), cfg, ops, w)
                for ops, cfg, u0, w in [state.ref] + state.levels
            ]

        def check(out):
            problems = []
            for traj, (ops, cfg, _, _) in zip(out, [state.ref] + state.levels):
                problems += self._check_trajectory(state, traj, ops, cfg)
            return problems

        ledger.tracer.unit = f"study{j}/sample"
        out = ledger.op(f"{self.name} study {j} sample", 1, sample, check)
        if out is None:
            return 0
        ref, coarse = out[0], out[1:]

        ledger.tracer.unit = f"study{j}/stats"
        golden = self.golden if (j == 0 and seed == DEFAULT_SEED) else None
        for k, ((ops, cfg, _, _), traj) in enumerate(zip(state.levels, coarse)):
            spec = self.levels[k]

            def check_err(es, k=k, spec=spec):
                problems = finite_problems(f"error_stats {spec}", _stats_values(es))
                if golden is not None:
                    problems += golden_problems(
                        f"natural_err {spec}", es.natural_err, golden["natural_err"][k]
                    )
                return problems

            ledger.op(
                f"{self.name} study {j} error_stats {spec}",
                1,
                lambda traj=traj, ops=ops, cfg=cfg: diagnostics.error_stats(
                    [traj], [ref], cfg, cfg_r, ops, ops_r, with_CV=False
                ),
                check_err,
            )
        tau_grids = [cfg.grid for ops, cfg, _, _ in state.levels if ops is ops_r]
        ledger.op(
            f"{self.name} study {j} temporal_oscillation",
            1,
            lambda: diagnostics.temporal_oscillation([ref], cfg_r, ops_r, tau_grids),
            lambda cv: finite_problems("temporal_oscillation", {"C_V": np.asarray(cv)}),
        )
        return 1


# Headline statistics of study 0 for the default seed, as this benchmark
# computed them when it was introduced (Python 3.11, numpy 2.4, scipy 1.17).
WORKLOADS = {
    w.name: w
    for w in (
        EnsembleP2(golden={"e_max": 6.907031078500457e-05}),
        NewtonP3(golden={"final_energy": 3.103076491843486e-05}),
        CoupledLadder(
            golden={
                "natural_err": [
                    1.3008163399329204e-06,
                    9.671835756261692e-07,
                    4.2096015093630937e-07,
                    4.2293979774736654e-05,
                    8.360451877942618e-06,
                ]
            }
        ),
    )
}
