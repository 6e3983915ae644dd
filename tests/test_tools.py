"""Smoke test of the two-tree tools in ``tools/``: both run on two copies of
one source tree at tiny sizes."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402
import same  # noqa: E402
import trees  # noqa: E402


def test_ab_and_same_run_on_two_copies_of_one_tree(tmp_path):
    for side in ("a", "b"):
        shutil.copytree(ROOT / "src" / "structvi", tmp_path / side / "src" / "structvi")
    trees = (tmp_path / "a", tmp_path / "b")

    out = ab.compare(*trees, "dots-lds-em", "step", 2, 1, ab.TINY, 3)
    assert set(out) == {"workload", "op", "rounds", "reps", "a", "b", "ratio_b_over_a", "wins"}
    for side in "ab":
        assert set(out[side]) == {"tree", "median_ms", "iqr_ms"} and out[side]["median_ms"] > 0
    assert math.isfinite(out["ratio_b_over_a"]) and out["ratio_b_over_a"] > 0
    assert sum(out["wins"].values()) <= 2
    out = ab.compare(*trees, "dots-lds-em", "smooth", 2, 1, ab.TINY, 3)
    assert out["op"] == "smooth" and min(out[side]["median_ms"] for side in "ab") > 0
    with pytest.raises(SystemExit):
        ab.main([str(trees[0]), str(trees[1]), "--workload", "dots-lds", "--op", "smooth"])

    report = same.compare(*trees, tiny=True)
    assert len(report) > 50
    assert all(v == "equal" for v in report.values()), report


def test_same_verdicts():
    nan = np.nan
    assert same.compare_arrays([1.0, nan], [1.0, nan]) == "equal"
    assert same.compare_arrays([2.0, -4.0], [2.0, -4.0 + 2.0**-30]) == 2.0**-32
    assert same.compare_arrays([1.0, nan], [1.0, 2.0]) == "NaN positions differ"
    assert same.compare_arrays([1.0], [1.0, 1.0]).startswith("shapes differ")
    assert same.passes(1e-12, 1e-11) and not same.passes(1e-12, 0.0)


def test_a_git_revision_loads_as_a_tree():
    head = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True
    )
    if head.returncode:
        pytest.skip("not a git checkout")
    with trees.sides("HEAD", ROOT) as (pkg_a, pkg_b):
        src_a = Path(pkg_a.__file__).parent
        assert src_a != ROOT / "src" / "structvi"
        assert (src_a / "linalg.py").is_file()
        assert pkg_a.linalg.__name__ == "structvi_a.linalg"
        assert pkg_b.linalg.__name__ == "structvi_b.linalg"
        assert pkg_a.linalg.tril_size(3) == pkg_b.linalg.tril_size(3) == 6
    assert not src_a.exists()
