"""The bit-identity tool `scripts/compare_study0.py --compare`.

A refactor reports the count of arrays that differ between the study-0
files of two checkouts; these tests run the comparison on small files.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def flatten(monkeypatch):
    """`_flatten(name, obj, out)` into a fresh dict, returned."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import compare_study0

    def run(name: str, obj) -> dict:
        out: dict = {}
        compare_study0._flatten(name, obj, out)
        return out

    return run


@pytest.fixture
def compare(monkeypatch, tmp_path, capsys):
    """Write two .npz files, run `main(["--compare", a, b])` on them and
    return its exit status with the last line it printed."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import compare_study0

    def run(a: dict, b: dict) -> tuple[int, str]:
        paths = [str(tmp_path / "a.npz"), str(tmp_path / "b.npz")]
        np.savez(paths[0], **a)
        np.savez(paths[1], **b)
        status = compare_study0.main(["--compare", *paths])
        return status, capsys.readouterr().out.splitlines()[-1]

    return run


def _arrays() -> dict:
    return {
        "fields": np.linspace(0.0, 1.0, 12).reshape(3, 4),
        "converged": np.array([True, True, False]),
        "iterations": np.array([3, 4, 5]),
    }


def test_identical_files_differ_nowhere(compare):
    assert compare(_arrays(), _arrays()) == (0, "0 of 3 arrays differ")


def test_perturbed_float_shape_mismatch_and_one_sided_key_make_three(compare):
    b = _arrays()
    b["fields"] = b["fields"] * (1.0 + 1e-12)
    b["iterations"] = np.array([3, 4])
    a = _arrays()
    a["only_in_a"] = np.ones(1)
    assert compare(a, b) == (1, "3 of 4 arrays differ")


def test_equal_nans_are_no_difference(compare):
    a = {"defect": np.array([1.0, np.nan, 3.0])}
    b = {"defect": np.array([1.0, np.nan, 3.0])}
    assert compare(a, b) == (0, "0 of 1 arrays differ")
    b["defect"] = np.array([1.0, 2.0, 3.0])
    assert compare(a, b) == (1, "1 of 1 arrays differ")


@dataclasses.dataclass
class _Run:
    basis: np.ndarray
    stats: np.ndarray


def test_arrays_of_different_shapes_are_kept_by_index(flatten):
    # one run per mesh: each basis has as many rows as its mesh has dofs
    runs = [_Run(np.ones((3, 2)), np.array([1, 2])), _Run(np.zeros((5, 2)), np.array([3, 4]))]
    out = flatten("ladder", runs)
    assert sorted(out) == ["ladder/basis/0", "ladder/basis/1", "ladder/stats"]
    assert out["ladder/basis/1"].shape == (5, 2)
    assert np.array_equal(out["ladder/stats"], [[1, 2], [3, 4]])
