"""The benchmark script calls the package directly; keep every name it reads alive."""

import ast
import importlib
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
