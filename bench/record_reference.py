"""Rebuild ``bench/reference.json`` from the current sources.

    python3 bench/record_reference.py

Records what the gate compares against: the rank of e(4,8) under the
separate workload's module, the shifted-partials ranks of the esym inputs of
the shifted workload (each checked once against the sympy oracles in
``tests/oracles.py``), and the stdout digest of the first ops of every
workload at the default seed.  Every recorded op first passes the gate.
Run it only on a commit whose outputs are known to be right: the digests
pin every output byte from then on.
"""

from __future__ import annotations

import json
import sys

import gate as gates
import run
import workloads

DEFAULT_SEED = 0
# Enough ops to cover a 30 s run on a 2-vCPU Xeon VM with room to spare.
DIGEST_OPS = {"separate": 300, "shifted": 300, "invariance": 1400, "f2lab": 300}
ESYM_SHIFTED = (("esym:4,6", 2, 2), ("esym:4,7", 2, 2))
FIELDS = (("Q", None), ("Fp:1000003", 1000003))


def oracle_shifted_rank(oracles, f, k: int, l: int, p: int | None) -> int:
    """``oracles.sympy_shifted_rank``, with the final Q rank taken by sympy's
    DomainMatrix: ``Matrix.rank`` needs hours on e(4,7)'s 1008 x 330 rows."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    span_rank = oracles._span_rank_sympy

    def qq_span_rank(exprs, xs, p=None):
        if p is not None:
            return span_rank(exprs, xs, p)
        polys = [sympy.Poly(g, *xs) for g in exprs if g != 0]
        monos = sorted({m for g in polys for m in g.monoms()})
        idx = {m: i for i, m in enumerate(monos)}
        rows = []
        for g in polys:
            row = [sympy.QQ(0)] * len(monos)
            for m, c in zip(g.monoms(), g.coeffs()):
                row[idx[m]] = sympy.QQ.from_sympy(c)
            rows.append(row)
        return DomainMatrix(rows, (len(rows), len(monos)), sympy.QQ).rank()

    oracles._span_rank_sympy = qq_span_rank
    try:
        return oracles.sympy_shifted_rank(f, k, l, p)
    finally:
        oracles._span_rank_sympy = span_rank


def rank_of(cli, argv: list[str]) -> int:
    code, out, _ = run.run_op(cli, argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(out)["result"]["rank"]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    sys.path.insert(0, str(run.ROOT / "tests"))
    import oracles
    from seplab import cli
    from seplab.field import RATIONALS, prime_field
    from seplab.functions import from_spec

    hard = rank_of(cli, ["measure", "--fn", "esym:4,8", "--measure", "dim_partials"])
    oracle = oracles.sympy_dim_partials(from_spec("esym:4,8", RATIONALS))
    if hard != oracle:
        raise SystemExit(f"e(4,8) derivative dimension {hard} != oracle {oracle}")
    print(f"separate hard value {hard} (oracle agrees)", flush=True)

    ranks = {}
    for fn, k, l in ESYM_SHIFTED:
        for field, p in FIELDS:
            argv = ["measure", "--fn", fn, "--measure", "shifted",
                    "--k", str(k), "--l", str(l), "--field", field]
            rank = rank_of(cli, argv)
            f = from_spec(fn, RATIONALS if p is None else prime_field(p))
            oracle = oracle_shifted_rank(oracles, f, k, l, p)
            if rank != oracle:
                raise SystemExit(f"{fn} over {field}: rank {rank} != oracle {oracle}")
            ranks[gates.shifted_key(fn, field, k, l)] = rank
            print(f"{fn} over {field}, k={k} l={l}: rank {rank} (oracle agrees)", flush=True)

    reference = {
        "default_seed": DEFAULT_SEED,
        "separate_hard_value": hard,
        "shifted_ranks": ranks,
        "digests": {},
    }
    for workload, count in DIGEST_OPS.items():
        gate = gates.Gate(workload, reference)
        digests = []
        for index, argv in enumerate(workloads.op_list(workload, DEFAULT_SEED, count)):
            code, out, _ = run.run_op(cli, argv)
            problem = gate.check(index, argv, code, out)
            if problem is not None:
                raise SystemExit(f"{workload} op {index} ({' '.join(argv)}): {problem}")
            digests.append(gates.digest(out))
        reference["digests"][workload] = digests
        print(f"{workload}: {count} digests", flush=True)

    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
