"""Rank-call identity check: which ``linalg.rank`` calls the CLI makes.

    PYTHONPATH=src python tests/rank_calls.py

Runs the first seed-0 ops of each benchmark workload (``bench/workloads.py``)
through ``seplab.cli.main`` with ``linalg.rank`` wrapped from outside, and
prints per workload the number of rank calls, a sha256 of the sequence of
(field.p, ncols, rows) -> result and a sha256 of the exit codes and stdout.
Two checkouts that print the same lines asked for the same ranks of the same
matrices, in the same order, and printed the same bytes.  A helper like
``dense_matrices.py``, not a test module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from seplab import cli, linalg  # noqa: E402

OPS = {"separate": 30, "shifted": 10, "invariance": 60, "f2lab": 6}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def rank_calls(workload: str, count: int) -> tuple[int, str, str]:
    """(rank calls, digest of the calls, digest of exit codes and stdout)."""
    calls, out = hashlib.sha256(), hashlib.sha256()
    n = 0
    real = linalg.rank

    def wrapped(rows, field, ncols=None):
        nonlocal n
        seen = repr((field.p, ncols, rows))
        result = real(rows, field, ncols)
        calls.update(f"{seen} -> {result}\n".encode())
        n += 1
        return result

    linalg.rank = wrapped
    try:
        for argv in workloads.op_list(workload, 0, count):
            code, text = _run(argv)
            out.update(f"{code!r}\n{text}\n".encode())
    finally:
        linalg.rank = real
    return n, calls.hexdigest(), out.hexdigest()


def main() -> int:
    for workload, count in OPS.items():
        n, calls, out = rank_calls(workload, count)
        print(f"{workload:<10} ops={count:<3} rank_calls={n:<5} calls={calls[:16]} stdout={out[:16]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
