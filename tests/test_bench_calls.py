"""The benchmark script calls the package directly; keep every name it reads
alive, and keep its self-test passing."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def package_names_read(tree):
    """The structvi modules a script imports, and each (module, attr) it reads from them."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "structvi"
        for alias in node.names
    }
    return modules, {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_every_package_name_the_benchmark_reads_exists():
    modules, names = package_names_read(ast.parse(RUN.read_text(encoding="utf-8")))
    assert modules and names
    missing = [
        f"{mod}.{attr}"
        for mod, attr in sorted(names)
        if not hasattr(importlib.import_module(f"structvi.{mod}"), attr)
    ]
    assert missing == []


def test_benchmark_selftest_passes():
    """``perfbench/selftest.py`` at its tiny sizes: every metric BENCHMARK.json
    names is emitted, call counts repeat, and the listed workloads pass."""
    proc = subprocess.run(
        [sys.executable, str(RUN.parent / "selftest.py")],
        cwd=RUN.parents[1], capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
