"""The benchmark's tracer wraps package functions by name (perfbench/spans.py
BOUNDARIES). A renamed or moved function would read 0 in the benchmark's
per-layer metrics; here it fails instead."""

import importlib.util
from pathlib import Path

from semifd import coaction

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(coaction.fell_intertwiner, "__wrapped__")
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert not hasattr(coaction.fell_intertwiner, "__wrapped__")
