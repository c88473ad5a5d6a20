"""Monte Carlo study benchmark for `pstokes`.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble_p2 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  The line before
it records the environment, the per-study figures and the exact counts.
`--workload all` runs every workload untraced, each in its own process,
and prints a table.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_traces"
WORKLOAD_NAMES = ("ensemble_p2", "newton_p3", "coupled_ladder")

# One BLAS/OpenMP thread: a plain single-threaded baseline, never more
# threads than cores, and no oversubscription from a busy neighbour.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Fix the thread counts and make `src/` importable; call before
    numpy or pstokes is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "pstokes" / "__init__.py").is_file():
        raise SystemExit(f"error: no pstokes package under {SRC}; run from a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    pin_environment()
    import pstokes

    if Path(pstokes.__file__).resolve().parent != SRC / "pstokes":
        raise SystemExit(f"error: pstokes imported from {pstokes.__file__}, not {SRC}")
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if trace:
        out = harness.measure_traced(
            workload, seed, seconds, TRACE_DIR / f"{name}-seed{seed}.jsonl"
        )
    else:
        out = harness.measure(workload, seed, seconds)
    print(json.dumps({"env": environment(seed), "workload": name, **out["detail"],
                      "problems": out["ledger"].problems[:20]}))
    print(json.dumps(result_line(out)))
    return 0


def result_line(out: dict) -> dict:
    """The JSON object the benchmark prints last."""
    ledger = out["ledger"]
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, each in a process of its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            status = 1
            continue
        res = json.loads(lines[-1])
        cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()]
        print(f"{name:18s} " + "  ".join(cells) + f"  failed {res['failed']}/{res['attempted']}")
        status |= 0 if res["correct"] else 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)  # workloads.DEFAULT_SEED
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload == "all":
        if args.trace:
            ap.error("--workload all runs untraced")
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
