"""The traced benchmark run wraps each layer-boundary function listed in
``perfbench/spans.py``; a listed function that the program renamed or
removed would fail only that run, so the suite checks the list."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_boundary_is_a_program_function():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    missing = [
        f"{layer}.{name}"
        for layer, name, _ in spans.BOUNDARIES
        if not callable(getattr(importlib.import_module(f"concentrators.{layer}"), name, None))
    ]
    assert missing == []
