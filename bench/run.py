"""seplab benchmark: one workload, one fresh process, a closed loop of CLI ops.

    python3 bench/run.py --workload separate|shifted|invariance|f2lab
                         [--seed N] [--seconds S] [--trace 0|1]

The program is ``src/seplab`` of this checkout, called in-process through
its public entry point ``seplab.cli.main(argv)``, one op at a time with one
caller and no threads.  Ops come from ``workloads.py`` and are drawn from
``--seed`` alone; every op's exit code and stdout pass ``gate.py``.

``--trace 0`` times whole op cycles for ``--seconds`` and prints the
end-to-end metrics.  Op and set-up times are scaled to the reference speed
of ``probe.py``'s kernel, timed next to each of them, which takes out most
of a shared host's slowdowns; the report keeps the wall-clock figures too.
``--trace 1`` runs every cycle twice, once plain and
once with the spans of ``tracer.py`` installed (alternating which goes
first), and prints the per-layer metrics; it writes its spans to
``bench/out/``.  The last stdout line is the result object; the line before
it is the full report, with the run context and any failed ops.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import gate as gates
import probe
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "peak_rss_mb": "MB",
}


def set_up(workload: str, seed: int):
    """Import seplab afresh, load the reference data and draw the first cycle.

    Returns the cli module, the gate, the cycle stream, the first cycle and
    the seconds it all took.
    """
    start = time.perf_counter()
    for name in [m for m in sys.modules if m == "seplab" or m.startswith("seplab.")]:
        del sys.modules[name]
    cli = importlib.import_module("seplab.cli")
    reference = json.loads((HERE / "reference.json").read_text())
    digests = reference["digests"][workload] if seed == reference["default_seed"] else []
    gate = gates.Gate(workload, reference, digests)
    stream = workloads.cycles(workload, seed)
    first = next(stream)
    return cli, gate, stream, first, time.perf_counter() - start


def run_op(cli, argv: list[str]) -> tuple[object, str, float]:
    """Exit code (or what it raised), stdout text and wall seconds of one op."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = f"raised {exc!r}"
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


class Run:
    """Ops attempted so far and the problems the gate found."""

    def __init__(self, cli, gate: gates.Gate):
        self.cli, self.gate = cli, gate
        self.attempted = 0
        self.failures: list[dict] = []

    def op(self, index: int, argv: list[str], tracer: tracing.Tracer | None = None) -> float:
        if tracer is None:
            code, out, seconds = run_op(self.cli, argv)
        else:
            with tracer.installed(op=index):
                code, out, seconds = run_op(self.cli, argv)
        self.attempted += 1
        problem = self.gate.check(index, argv, code, out)
        if problem is not None:
            self.failures.append({"op": index, "argv": " ".join(argv), "problem": problem})
        return seconds


def op_metrics(times: list[float], ok: int) -> dict[str, float]:
    return {
        "ops_per_s": ok / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.p90": statistics.quantiles(times, n=10)[8],
    }


def measure(run: Run, stream, cycle, seconds: float) -> tuple[dict, dict]:
    """Whole cycles, untraced, until ``seconds`` have passed.

    Returns the op metrics at the probe's reference speed and as wall time.
    """
    times: list[float] = []
    probes: list[float] = []
    index = 0
    start = time.perf_counter()
    while True:
        for argv in cycle:
            probes.append(probe.timed())
            times.append(run.op(index, argv))
            index += 1
        if time.perf_counter() - start >= seconds:
            break
        cycle = next(stream)
    ok = len(times) - len({f["op"] for f in run.failures})
    wall = op_metrics(times, ok)
    wall["probe_slowdown"] = statistics.median(probes) / probe.REFERENCE_S
    return op_metrics(probe.at_reference_speed(times, probes), ok), wall


def trace(run: Run, stream, cycle, seconds: float, tracer: tracing.Tracer):
    """Each cycle plain and traced, order alternating, until ``seconds`` pass."""
    plain_s = traced_s = 0.0
    ops = 0
    start = time.perf_counter()
    for turn in itertools.count():
        for traced in ((False, True) if turn % 2 == 0 else (True, False)):
            for j, argv in enumerate(cycle):
                if traced:
                    traced_s += run.op(ops + j, argv, tracer)
                else:
                    plain_s += run.op(ops + j, argv)
        ops += len(cycle)
        if time.perf_counter() - start >= seconds:
            break
        cycle = next(stream)
    return ops, traced_s, plain_s


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def context() -> dict:
    return {
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seplab" / "cli.py").is_file():
        print(f"error: no seplab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    ctx_start = context()
    setups = []
    for _ in range(SETUPS):
        before = probe.timed()
        cli, gate, stream, first, seconds = set_up(args.workload, args.seed)
        setups.append((seconds, seconds * 2 * probe.REFERENCE_S / (before + probe.timed())))
    run = Run(cli, gate)
    problems: list[str] = []
    wall: dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        ops, traced_s, plain_s = trace(run, stream, first, args.seconds, tracer)
        calls, self_s = tracer.self_times()
        values = tracing.layer_metrics(tracer, calls, self_s, ops, traced_s, plain_s)
        problems = tracing.self_check(args.workload, calls, self_s, values)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    else:
        values, wall = measure(run, stream, first, args.seconds)
        ops = run.attempted
        values["setup_s"] = statistics.median(scaled for _, scaled in setups)
        wall["setup_s"] = statistics.median(seconds for seconds, _ in setups)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = len(run.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "context": {"start": ctx_start, "end": context()},
        "ops": ops,
        "wall": wall,
        "fail_frac": {"value": failed / run.attempted, "unit": "ratio"},
        "failures": run.failures[:10],
        "self_check": problems,
        "metrics": metrics,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
