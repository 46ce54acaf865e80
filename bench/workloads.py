"""Workload op lists: one op is one ``seplab`` CLI command line (an argv list).

Ops come in fixed cycles.  Op ``i`` of a workload draws its ``<s>`` from the
workload seed and ``i`` alone, so a seed always yields the same op list and
the program sees nothing but the generated argv.

Each cycle is weighted so that the median and the 90th percentile of op time
land inside one op type's block of the sorted times, not on the step between
two types, and so that a 30 s run times at least 100 ops on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterator

SeedOf = Callable[[int], int]


def op_seed(workload: str, seed: int, index: int) -> int:
    """The ``<s>`` of op ``index``: a 31-bit value fixed by workload and seed."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _separate(easy: str, s: int) -> list[str]:
    return [
        "separate", "--module", "minors:dim_partials:16", "--easy", easy,
        "--hard", "esym:4,8", "--trials", "1", "--seed", str(s),
    ]


def _shifted(fn: str, field: str, k: int, l: int) -> list[str]:
    return [
        "measure", "--fn", fn, "--measure", "shifted",
        "--k", str(k), "--l", str(l), "--field", field,
    ]


def _invariance(n: int, d: int, measure: list[str], field: str, s: int) -> list[str]:
    return [
        "invariance", "--fn", f"rand:{n},{d},{s}", "--measure", *measure,
        "--trials", "10", "--seed", str(s), "--field", field,
    ]


def _gk_sampled(fn: str, s: int) -> list[str]:
    return ["gk-check", "--fn", fn, "--field", "Fp:3", "--trials", "2", "--seed", str(s)]


def separate_cycle(s: SeedOf) -> list[list[str]]:
    # Criterion 04's module and hard candidate.  One trial of the depth-3,
    # degree-4 class (~0.4 s) sets the tail; two degree-3 trials (~0.1 s) set
    # the median.  Nearly all time is derivative rows.
    return [
        _separate("depth3:8,4,1", s(0)),
        _separate("depth3:8,3,1", s(1)),
        _separate("depth3:8,3,1", s(2)),
    ]


def shifted_cycle(s: SeedOf) -> list[list[str]]:
    # Few large matrices, so elimination dominates.  Bareiss over Q and the
    # mod-p kernel run on identical inputs; the dense random polynomial adds
    # coefficient growth.  Q esym(4,7) (~1.7 s per op) would cost 60% of the
    # run on its own, so e(4,7) runs mod p only and is checked against its
    # stored Q rank.  Five equal blocks put p50 and p90 mid-block.
    rand = f"rand:5,3,{s(3)}"
    return [
        _shifted("esym:4,6", "Q", 2, 2),
        _shifted("esym:4,6", "Fp:1000003", 2, 2),
        _shifted("esym:4,7", "Fp:1000003", 2, 2),
        _shifted(rand, "Q", 1, 2),
        _shifted(rand, "Fp:1000003", 1, 2),
    ]


# Criterion 05's ten (n, d) pairs.
INVARIANCE_PAIRS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 1), (3, 1))
_INVARIANCE_MEASURES = (["dim_partials"], ["shifted", "--k", "1", "--l", "1"])


def invariance_cycle(s: SeedOf) -> list[list[str]]:
    # Many tiny matrices: per-call overhead counts, asymptotics do not.
    ops = []
    for n, d in INVARIANCE_PAIRS:
        for measure in _INVARIANCE_MEASURES:
            for field in ("Q", "Fp:7"):
                ops.append(_invariance(n, d, measure, field, s(len(ops))))
    return ops


def f2lab_cycle(s: SeedOf) -> list[list[str]]:
    # One full 2^22-candidate Gray-code walk (~1.1 s) per six ops sets p90
    # and most of the time; four sampled-twist gk-checks (~0.07 s, rref and
    # right_kernel over the 48-point GL_2(F_3) ideal) set p50.  Over F_2 the
    # rand spec has all coefficients 1, so the rs-distance targets do not
    # depend on <s>; the walk costs the same for every target anyway.
    return [
        ["rs-distance", "--fn", f"rand:6,3,{s(0)}", "--bound", "2"],
        _gk_sampled(f"rand:4,3,{s(1)}", s(1)),
        _gk_sampled("det:2", s(2)),
        _gk_sampled(f"rand:4,3,{s(3)}", s(3)),
        _gk_sampled("det:2", s(4)),
        ["rs-distance", "--fn", f"rand:5,3,{s(5)}", "--bound", "2"],
    ]


CYCLES: dict[str, Callable[[SeedOf], list[list[str]]]] = {
    "separate": separate_cycle,
    "shifted": shifted_cycle,
    "invariance": invariance_cycle,
    "f2lab": f2lab_cycle,
}


def cycles(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """Endless stream of op cycles; op ``i`` overall uses ``op_seed(.., i)``."""
    make = CYCLES[workload]
    start = 0
    while True:
        ops = make(lambda j: op_seed(workload, seed, start + j))
        yield ops
        start += len(ops)


def op_list(workload: str, seed: int, count: int) -> list[list[str]]:
    """The first ``count`` ops of a workload, cut at op granularity."""
    out: list[list[str]] = []
    stream = cycles(workload, seed)
    while len(out) < count:
        out.extend(next(stream))
    return out[:count]
