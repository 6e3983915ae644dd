"""Load two structvi source trees side by side in one process.

A tree is a directory holding ``src/structvi`` (a checkout, or a copy of
one), or a git revision of the repository this file sits in, which is
extracted by ``git archive`` into a temporary directory.  Each tree's
package is imported under its own top-level name, so the two never share a
module: the package's imports are relative, so ``name.harness`` reads
``name.models``, not the other tree's.

``ab.py`` and ``same.py`` build on ``load`` and ``sides``.
"""

import contextlib
import importlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MODULES = ("baselines", "data", "harness", "infnet", "linalg", "models", "nnet", "updates")


def _source_dir(tree, stack):
    """The ``src/structvi`` directory of ``tree``: a directory, or a git
    revision of this repository extracted into a directory that ``stack``
    removes on exit."""
    if os.path.isdir(tree):
        src = Path(tree) / "src" / "structvi"
        if not (src / "__init__.py").is_file():
            raise SystemExit(f"{tree}: no src/structvi package")
        return src
    out = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="structvi-tree-")))
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", tree, "src/structvi"],
        capture_output=True, check=False,
    )
    if archive.returncode:
        raise SystemExit(f"{tree}: neither a directory nor a git revision")
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive.stdout, check=True)
    return out / "src" / "structvi"


def load(src, name):
    """The package at ``src`` imported as ``name``, with MODULES imported; a
    module of that name loaded earlier is dropped first."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    for mod in MODULES:
        importlib.import_module(f"{name}.{mod}")
    return pkg


@contextlib.contextmanager
def sides(tree_a, tree_b):
    """(package A, package B), loaded as ``structvi_a`` and ``structvi_b``."""
    with contextlib.ExitStack() as stack:
        yield tuple(
            load(_source_dir(tree, stack), f"structvi_{label}")
            for tree, label in ((tree_a, "a"), (tree_b, "b"))
        )
