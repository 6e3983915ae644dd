"""The benchmark tracer wraps package functions by name; keep those names alive."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_package_callable():
    traced = load_spans().TRACED
    assert traced
    missing = [
        f"{mod}.{name}"
        for mod, name in traced
        if not callable(getattr(importlib.import_module(f"structvi.{mod}"), name, None))
    ]
    assert missing == []
