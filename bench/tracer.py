"""Outside-in per-layer trace of seplab, driven from the benchmark's files.

``Tracer.installed()`` rebinds the public functions named in ``TARGETS`` at
run time -- every module attribute that holds one (``measures`` imports
``derivative`` by name) and the class attribute of a method -- so each call
records a span: name, start, end, parent span and op id.  Spans stay in
memory; self time is a span's duration minus its children's.  Counters that
explain a layer's work (nonzero derivatives, matrix cells, ...) are taken
after the span ends, and the time they take is kept out of every layer's self
time.  ``field`` is not wrapped: its functions run once per scalar.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# (span name, seplab module, attribute or Class.method)
TARGETS = (
    ("poly.derivative", "poly", "derivative"),
    ("poly.multiply", "poly", "multiply"),
    ("poly.substitute_linear", "poly", "substitute_linear"),
    ("linalg.rank", "linalg", "rank"),  # split into .q / .fp per call
    ("linalg.rref", "linalg", "rref"),
    ("linalg.right_kernel", "linalg", "right_kernel"),
    ("measures.compute_measure", "measures", "compute_measure"),
    ("circuits.sample", "circuits", "EasySampler.sample"),
    ("circuits.expand", "circuits", "expand"),
    ("sepmod.run_separation", "sepmod", "run_separation"),
    ("sepmod.evaluate_module", "sepmod", "evaluate_module"),
    ("groups.random_invertible", "groups", "random_invertible"),
    ("groups.apply", "groups", "apply"),
    ("groups.enumerate_invertible", "groups", "enumerate_invertible"),
    ("functions.from_spec", "functions", "from_spec"),
    ("f2lab.distance_to_degree", "f2lab", "distance_to_degree"),
    ("f2lab.gk_intersection_test", "f2lab", "gk_intersection_test"),
    ("f2lab.intersect_all", "f2lab", "intersect_all"),
    ("f2lab.vanishing_ideal_basis", "f2lab", "vanishing_ideal_basis"),
    ("cli.main", "cli", "main"),
)

# Spans each workload is chosen to exercise: a rename or a new import
# binding that bypasses a wrapper must not silently zero a layer.
EXERCISED = {
    "separate": (
        "poly.derivative", "poly.multiply", "linalg.rank.q",
        "measures.compute_measure", "circuits.sample", "circuits.expand",
        "sepmod.run_separation", "sepmod.evaluate_module",
        "functions.from_spec", "cli.main",
    ),
    "shifted": (
        "poly.derivative", "linalg.rank.q", "linalg.rank.fp",
        "measures.compute_measure", "functions.from_spec", "cli.main",
    ),
    "invariance": (
        "poly.derivative", "poly.substitute_linear", "linalg.rank.q",
        "linalg.rank.fp", "measures.compute_measure",
        "groups.random_invertible", "groups.apply", "functions.from_spec",
        "cli.main",
    ),
    "f2lab": (
        "f2lab.distance_to_degree", "f2lab.gk_intersection_test",
        "f2lab.intersect_all", "f2lab.vanishing_ideal_basis", "linalg.rref",
        "linalg.right_kernel", "linalg.rank.fp", "groups.random_invertible",
        "groups.enumerate_invertible", "poly.derivative",
        "poly.substitute_linear", "functions.from_spec", "cli.main",
    ),
}

CLOSURE_LIMIT = 0.10


def _calls_self(span: str) -> list[tuple[str, str, str]]:
    return [
        (f"{span}.calls", "count/op", "lower"),
        (f"{span}.self_s", "s/op", "lower"),
    ]


# Every metric a traced run prints: (name, unit, better).  Counts and times
# are per traced op, so runs of different lengths compare directly.
PER_LAYER = (
    _calls_self("poly.derivative")
    + [("poly.derivative.nonzero_frac", "ratio", "higher")]
    + _calls_self("poly.multiply")
    + _calls_self("poly.substitute_linear")
    + _calls_self("linalg.rank.q")
    + _calls_self("linalg.rank.fp")
    + [
        ("linalg.rank.cells", "count/op", "lower"),
        ("linalg.rank.nnz_frac", "ratio", "higher"),
        ("linalg.rank.useful_row_frac", "ratio", "higher"),
        ("linalg.rank.max_entry_bits", "bits", "lower"),
    ]
    + _calls_self("linalg.rref")
    + _calls_self("linalg.right_kernel")
    + _calls_self("measures.compute_measure")
    + _calls_self("circuits.sample")
    + _calls_self("circuits.expand")
    + [("circuits.expand.terms_out", "count/op", "lower")]
    + [("sepmod.run_separation.self_s", "s/op", "lower")]
    + _calls_self("sepmod.evaluate_module")
    + _calls_self("groups.random_invertible")
    + [("groups.random_invertible.rank_calls_per_call", "ratio", "lower")]
    + _calls_self("groups.apply")
    + [("groups.enumerate_invertible.self_s", "s/op", "lower")]
    + _calls_self("functions.from_spec")
    + [
        ("f2lab.distance_to_degree.self_s", "s/op", "lower"),
        ("f2lab.distance_to_degree.candidates", "count/op", "lower"),
        ("f2lab.gk_intersection_test.self_s", "s/op", "lower"),
        ("f2lab.intersect_all.self_s", "s/op", "lower"),
        ("f2lab.vanishing_ideal_basis.self_s", "s/op", "lower"),
        ("cli.main.self_s", "s/op", "lower"),
        ("trace.wall_s", "s/op", "lower"),
        ("trace.unwrapped_s", "s/op", "lower"),
        ("trace.bookkeeping_s", "s/op", "lower"),
        ("trace.closure_err", "ratio", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.ops", "count", "higher"),
    ]
)


def _rank_span(args, kwargs) -> str:
    field = args[1] if len(args) > 1 else kwargs["field"]
    return "linalg.rank.q" if field.p is None else "linalg.rank.fp"


def _count_derivative(counts, args, kwargs, result) -> None:
    counts["poly.derivative.nonzero"] += not result.is_zero


def _count_expand(counts, args, kwargs, result) -> None:
    counts["circuits.expand.terms_out"] += len(result.terms)


def _count_candidates(counts, args, kwargs, result) -> None:
    counts["f2lab.distance_to_degree.candidates"] += result.candidates


def _count_rank(counts, args, kwargs, result) -> None:
    rows = args[0] if args else kwargs["rows"]
    if not isinstance(rows, (list, tuple)) or not rows or not rows[0]:
        return
    cells = len(rows) * len(rows[0])
    counts["linalg.rank.rows"] += len(rows)
    counts["linalg.rank.rank"] += result
    counts["linalg.rank.cells"] += cells
    counts["linalg.rank.nnz"] += sum(1 for row in rows for x in row if x)
    if _rank_span(args, kwargs) == "linalg.rank.q":
        bits = max(
            max(abs(x.numerator).bit_length(), x.denominator.bit_length())
            if isinstance(x, Fraction)
            else abs(x).bit_length()
            for row in rows
            for x in row
        )
        if bits > counts["linalg.rank.max_entry_bits"]:
            counts["linalg.rank.max_entry_bits"] = bits


_COUNTERS = {
    "poly.derivative": _count_derivative,
    "circuits.expand": _count_expand,
    "linalg.rank": _count_rank,
    "f2lab.distance_to_degree": _count_candidates,
}


class Tracer:
    """Span recorder; ``installed()`` wraps the targets for one ``with`` block."""

    def __init__(self):
        # span record: [name, start, end, parent index, op id, excluded s]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.bookkeeping_s = 0.0
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] | None = None

    def wrap(self, name: str, fn):
        """``fn`` with a span around each call; returns exactly what fn returns."""
        spans, stack = self.spans, self._stack
        namer = _rank_span if name == "linalg.rank" else None
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [namer(args, kwargs) if namer else name, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
                if parent >= 0:
                    spent = perf_counter() - record[2]
                    spans[parent][5] += spent
                    self.bookkeeping_s += spent
            return result

        return wrapper

    def _resolve(self) -> list[tuple[object, str, object, object]]:
        modules = [m for name, m in sys.modules.items() if name.startswith("seplab.")]
        bindings = []
        for name, module, attr in TARGETS:
            mod = sys.modules[f"seplab.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                bindings.append((owner, meth, original, self.wrap(name, original)))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        bindings.append((m, key, original, wrapper))
        return bindings

    @contextlib.contextmanager
    def installed(self, op: int):
        """Wrap every binding of every target while op ``op`` runs."""
        if self._bindings is None:
            self._bindings = self._resolve()
        self.op = op
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)
        try:
            yield
        finally:
            for owner, key, original, _ in self._bindings:
                setattr(owner, key, original)

    def self_times(self) -> tuple[Counter, defaultdict]:
        """Calls and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _, excluded) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i] - excluded
        return calls, self_s

    def rank_calls_under(self, ancestor: str) -> int:
        """linalg.rank spans with ``ancestor`` somewhere above them."""
        total = 0
        for name, _, _, parent, _, _ in self.spans:
            if not name.startswith("linalg.rank."):
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    total += 1
                    break
                parent = self.spans[parent][3]
        return total

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent < 0)

    def write(self, path) -> None:
        """All spans as tab-separated name, start, end, parent, op (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def layer_metrics(
    tracer: Tracer, calls: Counter, self_s: dict, ops: int, traced_s: float, plain_s: float
) -> dict[str, float]:
    """Per-layer metrics of a traced run of ``ops`` ops.

    ``calls`` and ``self_s`` come from ``tracer.self_times()``; ``traced_s``
    and ``plain_s`` are the wall times of the same ops with tracing on and off.
    """
    c = tracer.counts
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls[span] / ops
        elif kind == "self_s":
            values[name] = self_s[span] / ops
    derivs = calls["poly.derivative"]
    draws = calls["groups.random_invertible"]
    unwrapped = traced_s - tracer.root_seconds()
    # Closure over the *reported* self times: a span left out of PER_LAYER
    # leaves its time unaccounted for.
    reported = sum(v for name, v in values.items() if name.endswith(".self_s")) * ops
    accounted = reported + tracer.bookkeeping_s + unwrapped
    values.update({
        "poly.derivative.nonzero_frac": c["poly.derivative.nonzero"] / derivs if derivs else 0.0,
        "linalg.rank.cells": c["linalg.rank.cells"] / ops,
        "linalg.rank.nnz_frac": c["linalg.rank.nnz"] / c["linalg.rank.cells"] if c["linalg.rank.cells"] else 0.0,
        "linalg.rank.useful_row_frac": c["linalg.rank.rank"] / c["linalg.rank.rows"] if c["linalg.rank.rows"] else 0.0,
        "linalg.rank.max_entry_bits": float(c["linalg.rank.max_entry_bits"]),
        "circuits.expand.terms_out": c["circuits.expand.terms_out"] / ops,
        "groups.random_invertible.rank_calls_per_call": (
            tracer.rank_calls_under("groups.random_invertible") / draws if draws else 0.0
        ),
        "f2lab.distance_to_degree.candidates": c["f2lab.distance_to_degree.candidates"] / ops,
        "trace.wall_s": traced_s / ops,
        "trace.unwrapped_s": unwrapped / ops,
        "trace.bookkeeping_s": tracer.bookkeeping_s / ops,
        "trace.closure_err": abs(accounted - traced_s) / traced_s,
        "trace.overhead_frac": (traced_s - plain_s) / plain_s,
        "trace.ops": float(ops),
    })
    return values


def self_check(workload: str, calls: Counter, self_s: dict, values: dict[str, float]) -> list[str]:
    """Coverage and closure problems of a traced run (empty when it passes)."""
    problems = [f"{span} never called" for span in EXERCISED[workload] if not calls[span]]
    problems += [f"{span} self time {t:.3g} s < 0" for span, t in self_s.items() if t < -1e-6]
    if values["trace.unwrapped_s"] < -1e-9:
        problems.append("spans recorded outside the timed ops")
    if values["trace.closure_err"] > CLOSURE_LIMIT:
        problems.append(f"closure error {values['trace.closure_err']:.3f} > {CLOSURE_LIMIT}")
    return problems
