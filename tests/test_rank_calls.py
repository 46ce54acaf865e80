"""The rank calls and stdout of the first seed-0 ops of each benchmark
workload are pinned: a change that should leave every ``linalg.rank`` call
and printed byte as it was fails here if it does not.  A change that alters
these inputs on purpose updates ``PINNED`` and says so.  The check reads
``bench/workloads.op_list`` and wraps ``linalg.rank`` around ``cli.main``,
so this also fails if a change to either breaks it."""

import pytest

from rank_calls import OPS, rank_calls
from seplab import linalg

# what ``PYTHONPATH=src python tests/rank_calls.py`` prints:
# (rank calls, first 16 hex digits of the calls digest, of the stdout digest)
PINNED = {
    "separate": (100, "e0f3bafa730c24ac", "68d9e611278b7aec"),
    "shifted": (22, "d487b8700853d6e0", "07458d8df58fa734"),
    "invariance": (1327, "7e9f9bac71aa2979", "637bc583062cf3c0"),
    "f2lab": (11, "1455a6a89c8b8f93", "a6c280c0e2c3de31"),
}


@pytest.mark.parametrize("workload", sorted(OPS))
def test_rank_calls_and_stdout_are_pinned(workload):
    real = linalg.rank
    n, calls, out = rank_calls(workload, OPS[workload])
    assert (n, calls[:16], out[:16]) == PINNED[workload]
    assert linalg.rank is real
