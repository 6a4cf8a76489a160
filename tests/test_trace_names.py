"""The benchmark's tracer wraps package functions by name (perfbench/spans.py
BOUNDARIES). A renamed or moved function would read 0 in the benchmark's
per-layer metrics; here it fails instead."""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
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


def test_first_install_before_any_numeric_layer_wraps_each_name_once():
    # a benchmark's first traced job can come before any numeric command, so the tracer imports the numeric layers
    # itself, linrep first; every namespace must then hold linrep's own functions, and get them back on uninstall
    script = textwrap.dedent(
        """
        import importlib.util, json, sys
        import semifd.cli as cli
        spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        tracer.install()
        from semifd import coaction, funcalg, linrep
        names = lambda: [cli.operator_norm, funcalg.operator_norm, linrep.operator_norm, coaction.lambda_op,
                         linrep.lambda_op]
        norm, lam = names()[2].__wrapped__, names()[4].__wrapped__
        during = [f.__wrapped__ is g for f, g in zip(names(), [norm] * 3 + [lam] * 2)]
        tracer.uninstall()
        after = [f is g for f, g in zip(names(), [norm] * 3 + [lam] * 2)]
        print(json.dumps({"during": during, "after": after, "missing": tracer.missing}))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(Path(coaction.__file__).parents[1])}
    argv = [sys.executable, "-c", script, str(SPANS)]
    result = json.loads(subprocess.run(argv, capture_output=True, text=True, check=True, env=env, timeout=120).stdout)
    assert result == {"during": [True] * 5, "after": [True] * 5, "missing": []}
