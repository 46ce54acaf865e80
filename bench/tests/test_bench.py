"""The benchmark's own tests: op lists, the exact-output gate, the tracer."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate as gates  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _op(argv):
    from seplab import cli

    code, out, _ = run.run_op(cli, argv)
    assert code == 0
    return out


def _with_result(out: str, **changes) -> str:
    doc = json.loads(out)
    doc["result"].update(changes)
    return json.dumps(doc)


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_same_seed_same_ops_other_seed_other_ops(workload):
    first = json.dumps(workloads.op_list(workload, 7, 90))
    assert json.dumps(workloads.op_list(workload, 7, 90)) == first
    assert json.dumps(workloads.op_list(workload, 8, 90)) != first


def test_gate_flags_rank_off_by_one():
    argv = workloads.op_list("shifted", 0, 2)[1]  # esym:4,6 mod p
    out = _op(argv)
    gate = gates.Gate("shifted", REFERENCE)
    assert gate.check(10**6, argv, 0, out) is None
    rank = json.loads(out)["result"]["rank"]
    assert "reference" in gate.check(10**6, argv, 0, _with_result(out, rank=rank + 1))
    assert "reference" in gate.check(10**6, argv, 0, _with_result(out, rank=rank - 1))


def test_gate_flags_fp_rank_above_q_rank():
    q_argv, fp_argv = workloads.op_list("shifted", 3, 5)[3:5]  # rand over Q, F_p
    gate = gates.Gate("shifted", REFERENCE)
    q_out = _op(q_argv)
    assert gate.check(3, q_argv, 0, q_out) is None
    q_rank = json.loads(q_out)["result"]["rank"]
    fp_out = _with_result(_op(fp_argv), rank=q_rank + 1)
    assert "above Q rank" in gate.check(4, fp_argv, 0, fp_out)


def test_gate_flags_corrupted_witness_and_digest():
    argv = workloads.op_list("f2lab", 0, 6)[5]  # rs-distance on 5 variables
    assert argv[0] == "rs-distance"
    out = _op(argv)
    gate = gates.Gate("f2lab", REFERENCE, REFERENCE["digests"]["f2lab"])
    assert gate.check(5, argv, 0, out) is None
    doc = json.loads(out)
    terms = doc["result"]["witness"]["terms"]
    x4 = [0, 0, 0, 0, 1]  # toggling a linear term flips the witness at 16 points
    kept = [t for t in terms if t["e"] != x4]
    doc["result"]["witness"]["terms"] = kept if len(kept) < len(terms) else terms + [{"e": x4, "c": "1"}]
    assert "witness differs" in gate.check(5, argv, 0, json.dumps(doc))
    assert "digest" in gate.check(5, argv, 0, out.replace("\n", "\n ", 1))
    assert "exit code" in gate.check(5, argv, 1, out)


def test_gate_flags_wrong_separation_and_invariance():
    sep = gates.Gate("separate", REFERENCE)
    argv = workloads.op_list("separate", 0, 2)[1]
    out = _op(argv)
    assert sep.check(10**6, argv, 0, out) is None
    assert "hard_value" in sep.check(10**6, argv, 0, _with_result(out, hard_value=45))
    inv = gates.Gate("invariance", REFERENCE)
    argv = workloads.op_list("invariance", 0, 1)[0]
    out = _op(argv)
    assert inv.check(10**6, argv, 0, out) is None
    assert inv.check(10**6, argv, 0, _with_result(out, all_equal=False)) is not None


def test_wrappers_return_what_the_function_returns():
    from seplab import linalg, measures, poly
    from seplab.field import RATIONALS

    tracer = tracing.Tracer()
    sentinel = object()
    assert tracer.wrap("x", lambda *a, **k: sentinel)(1, k=2) is sentinel
    f = poly.Poly(2, RATIONALS, {(2, 1): 3, (0, 1): 1})
    original = measures.derivative
    expected = original(f, (1, 0))
    with tracer.installed(op=0):
        assert measures.derivative is not original
        got = measures.derivative(f, (1, 0))
        rank = linalg.rank([[1, 2], [2, 4]], RATIONALS)
    assert measures.derivative is original and poly.derivative is original
    assert got == expected and rank == 1
    calls, _ = tracer.self_times()
    assert calls["poly.derivative"] == 1 and calls["linalg.rank.q"] == 1
    assert tracer.counts["linalg.rank.cells"] == 4


def test_probe_scaling_uses_the_probes_around_each_op():
    ref = probe.REFERENCE_S
    times = [1.0] * 8
    slow = [2 * ref] * 8
    assert probe.at_reference_speed(times, slow) == [0.5] * 8
    spiked = [ref] * 8
    spiked[0] = 100 * ref  # one slow probe is outvoted by its neighbours
    assert probe.at_reference_speed(times, spiked) == [1.0] * 8
    with pytest.raises(ValueError):
        probe.at_reference_speed(times, slow[:-1])


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.CYCLES)
