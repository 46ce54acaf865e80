"""The benchmark's helpers keep working: every span the tracer wraps names a
live seplab function, and the rank-call identity check runs."""

import importlib
import importlib.util
import re
from pathlib import Path

from seplab import linalg

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


def test_rank_call_identity_check_runs():
    """``tests/rank_calls.py`` reads ``bench/workloads.op_list`` and wraps
    ``linalg.rank`` around ``cli.main``; a change to either must not break it,
    and it must put the real rank back."""
    import rank_calls

    real = linalg.rank
    n, calls, out = rank_calls.rank_calls("f2lab", 6)
    assert n > 0
    assert re.fullmatch("[0-9a-f]{64}", calls) and re.fullmatch("[0-9a-f]{64}", out)
    assert linalg.rank is real
