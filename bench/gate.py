"""Exact-output gate: every op's exit code and stdout are checked.

A check returns ``None`` when the output is right and a one-line reason when
it is not, so a change that is fast but wrong shows up as failed ops.  The
checks use only the printed JSON, the op's argv and ``reference.json``; the
one exception is the rs-distance target, which is rebuilt from its spec and
evaluated here point by point, independently of ``f2lab``.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product


def digest(out: str) -> str:
    """The recorded form of an op's stdout: a 64-bit sha256 prefix."""
    return hashlib.sha256(out.encode()).hexdigest()[:16]


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_separate(gate: Gate, argv: list[str], res: dict) -> str | None:
    trials = int(_flag(argv, "--trials"))
    _, d, s = (int(v) for v in _flag(argv, "--easy").split(":")[1].split(","))
    budget = s << d
    if res["separating"] is not True:
        return "not separating"
    if res["easy_vanish_count"] != trials or len(res["rows"]) != trials:
        return f"easy_vanish_count {res['easy_vanish_count']} != trials {trials}"
    worst = max((row["rank"] for row in res["rows"]), default=0)
    if worst > budget:
        return f"easy rank {worst} above the s*2^d budget {budget}"
    if res["hard_value"] != gate.reference["separate_hard_value"]:
        return f"hard_value {res['hard_value']} != {gate.reference['separate_hard_value']}"
    return None


def shifted_key(fn: str, field: str, k: int, l: int) -> str:
    return f"{fn}|{field}|k={k}|l={l}"


def _check_shifted(gate: Gate, argv: list[str], res: dict) -> str | None:
    fn, field = _flag(argv, "--fn"), _flag(argv, "--field")
    k, l = int(_flag(argv, "--k")), int(_flag(argv, "--l"))
    rank = res["rank"]
    if not 0 <= rank <= min(res["rows"], res["cols"]):
        return f"rank {rank} outside 0..min({res['rows']}, {res['cols']})"
    ranks = gate.reference["shifted_ranks"]
    key = shifted_key(fn, field, k, l)
    if key in ranks and rank != ranks[key]:
        return f"rank {rank} != reference {ranks[key]} for {key}"
    q_key = shifted_key(fn, "Q", k, l)
    if field == "Q":
        gate.q_ranks[q_key] = rank
        return None
    q_rank = ranks.get(q_key, gate.q_ranks.get(q_key))
    if q_rank is None:
        return f"no Q rank of {fn} to compare the F_p rank with"
    if rank > q_rank:
        return f"F_p rank {rank} above Q rank {q_rank}"
    return None


def _check_invariance(gate: Gate, argv: list[str], res: dict) -> str | None:
    trials = int(_flag(argv, "--trials"))
    if res["all_equal"] is not True:
        return "all_equal is false"
    if len(res["values"]) != trials or any(v != res["base"] for v in res["values"]):
        return f"values {res['values']} do not all equal base {res['base']}"
    return None


def _f2_values(terms, n: int) -> list[int]:
    """Values at every point of {0,1}^n of a polynomial read mod 2."""
    values = []
    for x in product((0, 1), repeat=n):
        acc = 0
        for e, c in terms:
            if c % 2 and all(x[i] for i, v in enumerate(e) if v):
                acc ^= 1
        values.append(acc)
    return values


def target_values(spec: str) -> list[int]:
    """Values of an rs-distance ``--fn`` target at every point of {0,1}^n."""
    from seplab.field import prime_field
    from seplab.functions import from_spec

    f = from_spec(spec, prime_field(2))
    return _f2_values(f.terms.items(), f.n)


def _check_f2lab(gate: Gate, argv: list[str], res: dict) -> str | None:
    if argv[0] == "gk-check":
        return None if res["agree"] is True else "strategies disagree"
    bound = int(_flag(argv, "--bound"))
    witness = res["witness"]
    n = witness["n"]
    terms = [(tuple(t["e"]), int(t["c"])) for t in witness["terms"]]
    degree = max((sum(e) for e, _ in terms), default=-1)
    if degree > bound:
        return f"witness degree {degree} above bound {bound}"
    spec = _flag(argv, "--fn")
    if spec not in gate.targets:
        gate.targets[spec] = target_values(spec)
    target = gate.targets[spec]
    differ = sum(a != b for a, b in zip(_f2_values(terms, n), target))
    if differ != res["distance"] or len(target) != 1 << n:
        return f"witness differs in {differ} points, report says {res['distance']}"
    return None


_CHECKS = {
    "separate": _check_separate,
    "shifted": _check_shifted,
    "invariance": _check_invariance,
    "f2lab": _check_f2lab,
}


class Gate:
    """Checks one workload's ops; ``digests`` are the default seed's records."""

    def __init__(self, workload: str, reference: dict, digests: list[str] | None = None):
        self.workload = workload
        self.reference = reference
        self.digests = digests or []
        self.q_ranks: dict[str, int] = {}
        self.targets: dict[str, list[int]] = {}

    def check(self, index: int, argv: list[str], code, out: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            problem = _CHECKS[self.workload](self, argv, json.loads(out)["result"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"
        if problem is None and index < len(self.digests):
            if digest(out) != self.digests[index]:
                return f"output digest differs from the one recorded for op {index}"
        return problem
