"""Every span the benchmark tracer wraps must name a live seplab function."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("seplab_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_trace_target_resolves():
    """A rename or deletion fails here, not only under ``--trace 1``."""
    missing = []
    for span, module, attr in _tracer_targets():
        owner = importlib.import_module(f"seplab.{module}")
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # the tracer rebinds a method in its class's own namespace
        fn = vars(owner).get(name) if owner is not None else None
        if not callable(fn):
            missing.append(span)
    assert not missing
