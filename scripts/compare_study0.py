"""Every array of study 0 of the benchmark workloads, saved and compared.

Writes the outputs of study 0 at seed 0 of `ensemble_p2`, `newton_p3` and
`coupled_ladder` to one `.npz` file: the velocity fields, `StepStats`,
stored noise and stress loads, reconstructed pressures with `z_sto`, the
stability and error statistics and the temporal oscillation C_V.  Each
study is built from `perfbench/workloads.py` (`setup()`, then
`study(state, 0, 0, ledger)` with a ledger that keeps every output), so
the arrays are the ones the benchmark checks.  Comparing the files of
two checkouts shows whether a change moves any number of the scheme.

Run from the root of each checkout; one BLAS thread is used:

    python3 scripts/compare_study0.py study0.npz
    python3 scripts/compare_study0.py --compare before.npz after.npz

`--compare` lists every array that is missing from one file or differs,
with its largest absolute difference, the largest entry of the first
file's array and their ratio, and exits with status 1 if any does.  The
absolute values tell rounding apart from a change: an energy defect of
4e-18 or the pressure of a divergence-free field reads as a large
relative difference when both sides are rounding.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("ensemble_p2", "newton_p3", "coupled_ladder")


def pin_environment() -> None:
    """One BLAS thread, as the benchmark runs, set before numpy is
    imported; the package and the workloads are this checkout's."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


class _Recorder:
    """The ledger a study asks for, keeping the output of every operation
    under its label; a failed check stops the run."""

    def __init__(self) -> None:
        self.tracer = SimpleNamespace(unit="")
        self.outputs: dict[str, object] = {}

    def op(self, label: str, n: int, work, check):
        result = work()
        problems = check(result)
        if problems:
            raise SystemExit(f"{label}: {'; '.join(problems)}")
        self.outputs[label] = result
        return result


def _flatten(name: str, obj, out: dict) -> None:
    """Arrays of `obj` under keys that extend `name`: records and dicts
    recurse by attribute; a list of records of one dataclass (the fields
    of a run, its `StepStats`) recurses per attribute across the list;
    any other list is stacked when its entries are numbers or arrays of
    one shape, else recursed by index (the noise bases of runs on meshes
    of different sizes).  Strings and None are skipped."""
    import numpy as np

    if obj is None or isinstance(obj, str):
        return
    if isinstance(obj, dict):
        items = obj.items()
    elif hasattr(obj, "__dict__"):
        items = vars(obj).items()
    elif isinstance(obj, (list, tuple)):
        if obj and len({type(x) for x in obj}) == 1 and dataclasses.is_dataclass(obj[0]):
            items = ((k, [vars(x)[k] for x in obj]) for k in vars(obj[0]))
        elif all(isinstance(x, (int, float, tuple)) or hasattr(x, "dtype") for x in obj) and (
            len({np.shape(x) for x in obj}) == 1
        ):
            out[name] = np.asarray(obj)
            return
        else:
            items = ((str(i), x) for i, x in enumerate(obj))
    else:
        out[name] = np.asarray(obj)
        return
    for key, value in items:
        _flatten(f"{name}/{key}", value, out)


def collect() -> dict:
    """The arrays of study 0 at the default seed of every workload."""
    import workloads

    out: dict = {}
    for name in WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        ledger = _Recorder()
        if workload.study(workload.setup(), workloads.DEFAULT_SEED, 0, ledger) != 1:
            raise SystemExit(f"{name}: study 0 did not complete")
        for label, result in ledger.outputs.items():
            _flatten(label, result, out)
    return out


def compare(file_a: str, file_b: str) -> int:
    """Print the arrays that differ between two files; their count."""
    import numpy as np

    with np.load(file_a) as a, np.load(file_b) as b:
        differing = 0
        for key in sorted(set(a.files) | set(b.files)):
            if key not in a.files or key not in b.files:
                print(f"{key}: only in {file_a if key in a.files else file_b}")
                differing += 1
                continue
            x, y = a[key], b[key]
            if x.shape != y.shape:
                print(f"{key}: shape {x.shape} against {y.shape}")
                differing += 1
            elif not np.array_equal(x, y, equal_nan=x.dtype.kind in "fc"):
                x, y = x.astype(float), y.astype(float)
                diff, scale = np.abs(x - y).max(), np.abs(x).max()
                rel = diff / scale if scale > 0 else np.inf
                print(
                    f"{key}: largest difference {diff:.3e} against largest entry {scale:.3e}"
                    f" (relative {rel:.3e})"
                )
                differing += 1
        print(f"{differing} of {len(set(a.files) | set(b.files))} arrays differ")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="the .npz file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two files")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if args.out is None:
        parser.error("give an output file or --compare A B")
    import numpy as np

    arrays = collect()
    np.savez(args.out, **arrays)
    print(f"wrote {len(arrays)} arrays to {args.out}")
    return 0


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
