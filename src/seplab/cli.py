"""Batch command line: measures, invariance suites, separation runs, tables.

Every command resolves its full configuration (defaults included), embeds it
in the output, and derives all randomness from the master seed, so re-running
a command with the same arguments reproduces the output byte for byte.

Exit codes: 0 success, 1 property violation (an invariance failure or a
strategy disagreement), 2 usage or parse error, 3 infeasible scale.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from functools import lru_cache
from math import comb, isqrt

from . import circuits, f2lab, functions, groups, measures, sepmod
from .errors import InfeasibleError
from .field import Field, field_from_name, prime_field
from .seeding import trial_rng


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _json_text(config: dict, result) -> str:
    return (
        json.dumps({"config": config, "result": result}, sort_keys=True, indent=2)
        + "\n"
    )


def _csv_text(config: dict, rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    compact = json.dumps(config, sort_keys=True, separators=(",", ":"))
    writer.writerow([f"config={compact}"])
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# arguments that never enter a config: --out and --format route or shape the
# output, and the measure's params carry --k, --l and --point
_NOT_CONFIG = frozenset({"out", "format", "k", "l", "point"})


def _config(args, **resolved) -> dict:
    """A command's config: its arguments with the values it resolved laid
    over them, less those that never enter a config and those left unset."""
    merged = {**vars(args), **resolved}
    return {key: v for key, v in merged.items() if key not in _NOT_CONFIG and v is not None}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# shared argument parsing
# ---------------------------------------------------------------------------


def _measure_params(args, fld: Field) -> dict:
    """The --k, --l and --point that were set, the point parsed over the
    field; ``measures.measure_params`` checks them and fills in defaults."""
    params = {key: v for key in ("k", "l", "point") if (v := vars(args).get(key)) is not None}
    if "point" in params:
        params["point"] = [_point_entry(t, fld) for t in params["point"].split(",") if t.strip()]
    return params


def _point_entry(token: str, fld: Field):
    """One --point entry as a scalar of the field; a bad one is named."""
    try:
        return fld.coerce(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad --point entry {token.strip()!r} over {fld}: {exc}") from exc


def _only(
    value: int | None, flag: str, reads: bool, default: int,
    runs: str = "sampled runs, not whole-group ones",
) -> int:
    """An option only some runs read: refused by the others."""
    if not reads and value is not None:
        raise ValueError(f"{flag} applies only to {runs}")
    return default if value is None else value


def _mod3_residue(args, spec: str | None) -> int:
    """--mod3-residue, which only a "mod3:n" spec reads."""
    reads = (spec or "").partition(":")[0] == "mod3"
    return _only(args.mod3_residue, "--mod3-residue", reads, 0, 'a "mod3:n" function spec')


def _module_from_spec(spec: str, ambient: sepmod.Ambient, params: dict) -> sepmod.TestModule:
    parts = spec.split(":")
    if len(parts) == 3 and parts[0] == "minors":
        try:
            r = int(parts[2])
        except ValueError as exc:
            raise ValueError(f"bad rank threshold in module spec {spec!r}") from exc
        return sepmod.MinorsOfMeasure(ambient, parts[1], r, params)
    raise ValueError(
        f"unrecognized module spec {spec!r} (format: \"minors:<measure>:<r>\")"
    )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and every parse fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="seplab",
        description="exact separating-module laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def field(p):
        p.add_argument("--field", default="Q", help='coefficient field: "Q" or "Fp:<p>"')

    def out(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def common(p, seeded=True):
        field(p)
        out(p)
        p.add_argument("--mod3-residue", type=int, default=None, dest="mod3_residue")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")

    def measured(p):
        p.add_argument("--fn", required=True)
        p.add_argument("--measure", required=True, choices=list(measures.MEASURES))
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--l", type=int, default=None)
        p.add_argument("--point", default=None)

    p = sub.add_parser("measure", help="compute one measure of one function")
    measured(p)
    common(p, seeded=False)

    p = sub.add_parser("invariance", help="measure before/after substitutions")
    measured(p)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true")
    common(p)

    p = sub.add_parser("separate", help="run a separation experiment")
    p.add_argument("--module", required=True)
    p.add_argument("--easy", required=True)
    p.add_argument("--hard", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    common(p)

    p = sub.add_parser("table", help="derivative-span dimensions on a grid")
    p.add_argument("--n-min", type=int, default=4, dest="n_min")
    p.add_argument("--n-max", type=int, default=10, dest="n_max")
    p.add_argument("--d-min", type=int, default=1, dest="d_min")
    p.add_argument("--d-max", type=int, default=3, dest="d_max")
    p.add_argument("--format", default="csv", choices=["json", "csv"])
    field(p)
    out(p)

    p = sub.add_parser("rs-distance", help="distance to the low-degree code")
    p.add_argument("--fn", default=None)
    p.add_argument("--table", default=None, help="path to a truth-table file")
    p.add_argument("--bound", type=int, required=True, help="degree bound d")
    p.add_argument("--mod3-residue", type=int, default=None, dest="mod3_residue")
    out(p)

    p = sub.add_parser("gk-check", help="twisted-derivative intersection test")
    p.add_argument("--fn", required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=None, dest="max_degree")
    p.add_argument("--trials", type=int, default=0, help="sampled twists (0 = whole group)")
    common(p)
    p.set_defaults(field="Fp:2")

    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _measured(args) -> tuple:
    """The function of a measure or invariance run, the parameters set for
    its measure, and the field and residue it resolved."""
    fld = field_from_name(args.field)
    residue = _mod3_residue(args, args.fn)
    f = functions.from_spec(args.fn, fld, residue)
    return f, _measure_params(args, f.field), {"field": f.field.name, "mod3_residue": residue}


def cmd_measure(args) -> int:
    f, params, resolved = _measured(args)
    report = measures.compute_measure(args.measure, f, params)
    config = _config(args, **resolved, params=report.params)
    _emit(_json_text(config, asdict(report)), args.out)
    return 0


def cmd_invariance(args) -> int:
    f, params, resolved = _measured(args)
    seed = _only(args.seed, "--seed", not args.exhaustive, 0, "runs that draw substitutions")
    trials = _only(args.trials, "--trials", not args.exhaustive, 20)
    rng = trial_rng(seed, 0)
    report = groups.invariance_check(
        args.measure,
        f,
        trials,
        rng,
        params=params,
        exhaustive=args.exhaustive,
    )
    config = _config(args, **resolved, params=report.params, trials=trials, seed=seed)
    _emit(_json_text(config, asdict(report)), args.out)
    return 0 if report.all_equal else 1


def cmd_separate(args) -> int:
    fld = field_from_name(args.field)
    sampler = circuits.sampler_from_spec(args.easy, fld)
    residue = _mod3_residue(args, args.hard)
    f_hard = functions.from_spec(args.hard, fld, residue)
    if sampler.n != f_hard.n:
        raise ValueError(
            f"easy class on {sampler.n} variables but hard candidate on {f_hard.n}"
        )
    ambient = sepmod.Ambient(
        sampler.n, max(sampler.d, f_hard.degree), fld, homogeneous=False
    )
    module = _module_from_spec(args.module, ambient, _measure_params(args, fld))
    seed = _only(args.seed, "--seed", args.trials != 0, 0, "runs that draw circuits")
    report = sepmod.run_separation(module, sampler, f_hard, args.trials, seed)
    # only a shifted module has params: its k and l
    config = _config(args, field=fld.name, seed=seed, mod3_residue=residue,
                     params=module.params or None)
    if args.format == "json":
        _emit(_json_text(config, asdict(report)), args.out)
    else:
        rows = [["trial", "seed", "rank", "bound", "vanished"]]
        rows += [[t.trial, t.seed, t.rank, t.bound, int(t.vanished)] for t in report.rows]
        rows += [
            ["separating", int(report.separating)],
            ["easy_vanish_count", report.easy_vanish_count],
            ["hard_nonvanish", int(report.hard_nonvanish)],
            ["hard_value", report.hard_value],
        ]
        _emit(_csv_text(config, rows), args.out)
    return 0


def cmd_table(args) -> int:
    fld = field_from_name(args.field)
    if not (1 <= args.d_min <= args.d_max and 1 <= args.n_min <= args.n_max):
        raise ValueError("empty or inverted grid ranges")
    header = [
        "n",
        "d",
        "two_d",
        "rank",
        "lower_bound",
        "ok",
        "matrix_rows",
        "matrix_cols",
        "threshold_s1",
    ]
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        for d in range(args.d_min, args.d_max + 1):
            if 2 * d > n:
                continue
            f = functions.elementary_symmetric(2 * d, n, fld)
            report = measures.compute_measure("dim_partials", f)
            bound = comb(n, d)
            rows.append(
                [
                    n,
                    d,
                    2 * d,
                    report.rank,
                    bound,
                    int(report.rank >= bound),
                    report.rows,
                    report.cols,
                    1 << (2 * d),
                ]
            )
    config = _config(args, field=fld.name, measure="dim_partials")
    if args.format == "csv":
        _emit(_csv_text(config, [header] + rows), args.out)
    else:
        result = [dict(zip(header, row)) for row in rows]
        _emit(_json_text(config, result), args.out)
    return 0


def cmd_rs_distance(args) -> int:
    if bool(args.fn) == bool(args.table):
        raise ValueError("pass exactly one of --fn and --table")
    residue = _mod3_residue(args, args.fn)
    if args.fn:
        f = functions.from_spec(args.fn, prime_field(2), residue)
        f2lab.low_degree_code_size(f.n, args.bound)  # refuse before the 2^n table
        t = f2lab.multilinear_to_truth_table(f2lab.reduce_pointwise(f))
    else:
        with open(args.table) as fh:
            t = f2lab.parse_table(fh.read())
    report = f2lab.distance_to_degree(t, args.bound)
    config = _config(args, mod3_residue=residue)  # the unset one of --fn and --table drops
    _emit(_json_text(config, report.to_json()), args.out)
    return 0


def cmd_gk_check(args) -> int:
    fld = field_from_name(args.field)
    if fld.p is None:
        raise ValueError("gk-check runs over a prime field (use --field Fp:<q>)")
    residue = _mod3_residue(args, args.fn)
    f = functions.from_spec(args.fn, fld, residue)
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative (0 = whole group)")
    seed = _only(args.seed, "--seed", args.trials > 0, 0)
    if args.trials > 0:
        rng = trial_rng(seed, 0)
        sigmas = [
            groups.random_invertible(isqrt(f.n), fld, rng) for _ in range(args.trials)
        ]
    else:
        sigmas = None  # the whole group
    reports = f2lab.gk_intersection_test(f, args.r, sigmas, args.max_degree)
    pairwise, stacked = reports["pairwise"], reports["stacked"]
    # property_holds is intersection_dim > 0 on both sides
    agree = (
        pairwise.lambda_dim == stacked.lambda_dim
        and pairwise.intersection_dim == stacked.intersection_dim
    )
    config = _config(args, field=fld.name, max_degree=pairwise.max_degree, seed=seed,
                     mod3_residue=residue)
    result = {
        "pairwise": asdict(pairwise),
        "stacked": asdict(stacked),
        "agree": agree,
    }
    _emit(_json_text(config, result), args.out)
    return 0 if agree else 1


_COMMANDS = {
    "measure": cmd_measure,
    "invariance": cmd_invariance,
    "separate": cmd_separate,
    "table": cmd_table,
    "rs-distance": cmd_rs_distance,
    "gk-check": cmd_gk_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
