"""End-to-end tests for the batch command line."""

import argparse
import csv
import hashlib
import io
import json
import shlex
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seplab import (
    circuits, f2lab, format_table, groups, mod3_multilinear, prime_field, truth_table,
)
from seplab.measures import MEASURES
from seplab.cli import build_parser, main
from seplab.seeding import trial_rng


def run_json(capsys, argv):
    code = main(argv)
    text = capsys.readouterr().out
    return code, json.loads(text) if text else None


def test_measure_dim_partials(capsys):
    code, data = run_json(
        capsys, ["measure", "--fn", "esym:2,4", "--measure", "dim_partials"]
    )
    assert code == 0
    assert data["config"]["command"] == "measure"
    assert data["config"]["field"] == "Q"
    assert data["result"]["rank"] == 6


def test_measure_hessian_needs_point(capsys):
    code, data = run_json(
        capsys,
        [
            "measure",
            "--fn",
            "det:2",
            "--measure",
            "hessian_rank",
            "--point",
            "1,0,0,0",
        ],
    )
    assert code == 0
    assert data["result"]["rank"] == 4
    capsys.readouterr()
    assert main(["measure", "--fn", "det:2", "--measure", "hessian_rank"]) == 2


def test_measure_shifted_defaults(capsys):
    code, data = run_json(
        capsys, ["measure", "--fn", "rand:2,2,5", "--measure", "shifted"]
    )
    assert code == 0
    assert data["config"]["params"] == {"k": 1, "l": 1}


def test_measure_rejects_csv(capsys):
    assert (
        main(
            [
                "measure",
                "--fn",
                "esym:2,4",
                "--measure",
                "dim_partials",
                "--format",
                "csv",
            ]
        )
        == 2
    )


def test_flags_a_command_does_not_read_are_refused(capsys):
    """Only table and separate print csv, rs-distance is always over F_2, and
    table reads no residue: these flags are parse errors, not ignored."""
    for argv in (
        ["measure", "--fn", "esym:2,4", "--measure", "dim_partials", "--format", "json"],
        ["invariance", "--fn", "esym:2,4", "--measure", "dim_partials", "--format", "json"],
        ["gk-check", "--fn", "det:2", "--format", "json"],
        ["rs-distance", "--fn", "mod3:3", "--bound", "1", "--format", "json"],
        ["rs-distance", "--fn", "mod3:3", "--bound", "1", "--field", "Q"],
        ["table", "--mod3-residue", "1"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "unrecognized arguments" in captured.err


def test_invariance_passes_for_rank_measure(capsys):
    code, data = run_json(
        capsys,
        ["invariance", "--fn", "esym:2,4", "--measure", "dim_partials", "--trials", "4"],
    )
    assert code == 0
    assert data["result"]["all_equal"] is True
    assert data["result"]["trials"] == 4


def test_invariance_flags_term_count(capsys):
    """Sparsity is not invariant, so the command must exit nonzero."""
    code, data = run_json(
        capsys,
        ["invariance", "--fn", "esym:2,4", "--measure", "term_count", "--trials", "5"],
    )
    assert code == 1
    assert data["result"]["all_equal"] is False


def test_invariance_exhaustive_small_group(capsys):
    code, data = run_json(
        capsys,
        [
            "invariance",
            "--fn",
            "esym:2,2",
            "--measure",
            "dim_partials",
            "--field",
            "Fp:2",
            "--exhaustive",
        ],
    )
    assert code == 0
    assert data["result"]["mode"] == "exhaustive"
    assert data["result"]["trials"] == 6


def test_separate_positive_json(capsys):
    code, data = run_json(
        capsys,
        [
            "separate",
            "--module",
            "minors:dim_partials:4",
            "--easy",
            "depth3:4,2,1",
            "--hard",
            "esym:2,4",
            "--trials",
            "3",
        ],
    )
    assert code == 0
    result = data["result"]
    assert result["separating"] is True
    assert result["easy_vanish_count"] == 3
    assert result["hard_value"] == 6
    assert len(result["rows"]) == 3


def test_separate_csv_layout(tmp_path):
    out = tmp_path / "sep.csv"
    code = main(
        [
            "separate",
            "--module",
            "minors:dim_partials:4",
            "--easy",
            "depth3:4,2,1",
            "--hard",
            "esym:2,4",
            "--trials",
            "2",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    raw = out.read_bytes()
    assert b"\r\n" in raw
    rows = list(csv.reader(raw.decode().splitlines()))
    assert rows[0][0].startswith("config=")
    json.loads(rows[0][0][len("config=") :])  # the embedded config is valid JSON
    assert rows[1] == ["trial", "seed", "rank", "bound", "vanished"]
    # config, header, one row per trial (bools printed as ints), four summary rows
    assert len(rows) == 2 + 2 + 4
    assert [row[0] for row in rows[2:4]] == ["0", "1"]
    assert all(row[4] == "1" for row in rows[2:4])
    assert ["separating", "1"] in rows


def test_separate_records_the_shift_of_a_shifted_module(capsys):
    """--k/--l change a shifted module's ranks, so the config carries them,
    defaults filled in; any other module refuses them in the library's
    wording."""
    base = [
        "separate", "--module", "minors:shifted:3", "--easy", "depth3:3,2,1",
        "--hard", "esym:2,3", "--trials", "1", "--l", "1",
    ]
    runs = [run_json(capsys, base + ["--k", k]) for k in ("1", "2")]
    assert [code for code, _ in runs] == [0, 0]
    assert [d["config"]["params"] for _, d in runs] == [{"k": 1, "l": 1}, {"k": 2, "l": 1}]
    assert [d["result"]["hard_value"] for _, d in runs] == [9, 4]
    code, data = run_json(capsys, base[:-2])
    assert data["config"]["params"] == {"k": 1, "l": 1}
    minors = ["separate", "--module", "minors:dim_partials:4", "--easy", "depth3:4,2,1",
              "--hard", "esym:2,4", "--trials", "1"]
    code, data = run_json(capsys, minors)
    assert code == 0 and "params" not in data["config"]
    for key in ("k", "l"):
        assert main(minors + [f"--{key}", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"measure dim_partials does not read parameter '{key}'" in captured.err


@pytest.mark.parametrize("easy", ["depth4:2,2,1,3", "depth3:2,0,1"])
def test_an_easy_class_with_no_circuits_is_refused_when_parsed(capsys, easy):
    """Bottom degree 3 above target degree 2, or products of zero forms: no
    circuit fits, so even a zero-trial run refuses the spec."""
    argv = ["separate", "--module", "minors:dim_partials:2", "--easy", easy,
            "--hard", "esym:1,2", "--trials", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(ValueError):
        circuits.sampler_from_spec(easy)


def test_a_shifted_module_ranks_a_cancelled_sample_0(capsys):
    """Over F_2 a sum of two linear forms can cancel to 0, which has no
    order-1 derivative: the shifted module ranks it 0, so it vanishes,
    instead of refusing the run."""
    argv = ("separate --module minors:shifted:3 --easy depth3:2,1,2 --hard esym:2,2 "
            "--trials 20 --field Fp:2 --k 1 --l 1").split()
    code, data = run_json(capsys, argv)
    assert code == 0
    rows = data["result"]["rows"]
    assert len(rows) == 20
    sampler = circuits.sampler_from_spec("depth3:2,1,2", prime_field(2))
    cancelled = [
        i for i in range(20) if circuits.expand(sampler.sample(trial_rng(0, i))).is_zero
    ]
    assert cancelled
    assert all(rows[i]["rank"] == 0 and rows[i]["vanished"] for i in cancelled)


def test_separate_refuses_a_hessian_module_before_sampling(capsys, monkeypatch):
    """separate has no --point, so a hessian_rank module is refused when it
    is built, before a single easy circuit is drawn."""
    calls = []
    sample = circuits.EasySampler.sample
    monkeypatch.setattr(
        circuits.EasySampler, "sample", lambda self, rng: calls.append(1) or sample(self, rng)
    )
    argv = ["separate", "--module", "minors:hessian_rank:1", "--easy", "depth3:2,2,1",
            "--hard", "esym:2,2", "--trials", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "hessian_rank needs a point" in captured.err
    assert calls == []
    assert main(["separate", "--module", "minors:dim_partials:2"] + argv[3:]) == 0
    assert calls == [1]


@pytest.mark.parametrize("command", ["measure", "invariance"])
def test_measure_options_the_measure_does_not_read_are_refused(capsys, command):
    """--k/--l belong to shifted and --point to hessian_rank; any other
    measure refuses them, in the library's wording, instead of printing the
    output it prints without."""
    base = [command, "--fn", "esym:2,4", "--measure", "dim_partials"]
    assert main(base) == 0
    capsys.readouterr()
    for extra, key in ((["--k", "5"], "k"), (["--l", "1"], "l"), (["--point", "1,2"], "point")):
        assert main(base + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"measure dim_partials does not read parameter '{key}'" in captured.err
    shifted = [command, "--fn", "esym:2,4", "--measure", "shifted"]
    assert main(shifted + ["--point", "1,2,3,4"]) == 2
    assert "measure shifted does not read parameter 'point'" in capsys.readouterr().err
    hessian = [command, "--fn", "esym:2,4", "--measure", "hessian_rank", "--point", "1,2,3,4"]
    assert main(hessian + ["--k", "1"]) == 2
    assert "measure hessian_rank does not read parameter 'k'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariance", "--fn", "rand:2,2,4", "--measure", "dim_partials", "--exhaustive",
         "--field", "Fp:2"],
        ["gk-check", "--fn", "det:1", "--field", "Fp:2", "--trials", "0"],
        ["separate", "--module", "minors:dim_partials:4", "--easy", "depth3:4,2,1",
         "--hard", "esym:2,4", "--trials", "0"],
    ],
    ids=["invariance-exhaustive", "gk-check-whole-group", "separate-no-trials"],
)
def test_seed_is_refused_where_nothing_is_drawn(capsys, argv):
    """A whole-group run, or one of no trials, draws nothing, so an explicit
    --seed would give two configs for one computation; without it the config
    shows seed 0."""
    code, data = run_json(capsys, argv)
    assert code == 0 and data["config"]["seed"] == 0
    for seed in ("0", "1"):
        assert main(argv + ["--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--seed" in captured.err


def test_a_sampled_invariance_run_of_no_trials_is_refused(capsys):
    """Zero sampled substitutions compare nothing, so the run is a usage
    error, with or without --seed, rather than a vacuous "all_equal"."""
    argv = ["invariance", "--fn", "esym:2,4", "--measure", "dim_partials", "--trials", "0"]
    for seed in ([], ["--seed", "0"], ["--seed", "1"]):
        assert main(argv + seed) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "trial" in captured.err


def test_trials_is_refused_where_the_whole_group_runs(capsys):
    """Exhaustive invariance runs every element of the group, so an explicit
    --trials would give two configs for one computation; without it the
    config shows the sampled default, 20."""
    argv = ["invariance", "--fn", "rand:2,2,4", "--measure", "dim_partials", "--exhaustive",
            "--field", "Fp:2"]
    code, data = run_json(capsys, argv)
    assert code == 0 and data["config"]["trials"] == 20 and data["result"]["trials"] == 6
    for trials in ("3", "20"):
        assert main(argv + ["--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--trials" in captured.err
    sampled = ["invariance", "--fn", "rand:2,2,4", "--measure", "dim_partials", "--field", "Fp:2"]
    assert run_json(capsys, sampled)[1]["config"]["trials"] == 20
    assert run_json(capsys, sampled + ["--trials", "3"])[1]["config"]["trials"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--fn", "esym:2,4", "--measure", "dim_partials"],
        ["invariance", "--fn", "esym:2,2", "--measure", "dim_partials", "--trials", "1"],
        ["separate", "--module", "minors:dim_partials:4", "--easy", "depth3:4,2,1",
         "--hard", "esym:2,4", "--trials", "1"],
        ["rs-distance", "--fn", "esym:2,4", "--bound", "1"],
        ["rs-distance", "--table", "{tmp}/a.tt", "--bound", "1"],
        ["gk-check", "--fn", "det:2", "--trials", "1"],
    ],
    ids=["measure", "invariance", "separate", "rs-distance-fn", "rs-distance-table",
         "gk-check"],
)
def test_mod3_residue_is_refused_where_no_mod3_spec_reads_it(capsys, tmp_path, argv):
    """Only a "mod3:n" spec reads --mod3-residue, so elsewhere it would give
    two configs for one computation; without it the config shows residue 0."""
    (tmp_path / "a.tt").write_text(format_table(truth_table(2, lambda pt: pt[0])))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, data = run_json(capsys, argv)
    assert code == 0 and data["config"]["mod3_residue"] == 0
    for residue in ("0", "1"):
        assert main(argv + ["--mod3-residue", residue]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--mod3-residue" in captured.err


def test_mod3_residue_reaches_a_mod3_spec(capsys):
    """--mod3-residue r on "mod3:3" computes the distance of the residue-r
    function, and shows r in the config; a spec "mod3:3,r" that names its
    own residue is refused, so one function has one config."""
    results = []
    for r in ("0", "1"):
        flag = run_json(capsys, ["rs-distance", "--fn", "mod3:3", "--bound", "0",
                                 "--mod3-residue", r])[1]
        table = f2lab.multilinear_to_truth_table(mod3_multilinear(3, int(r)))
        want = json.loads(json.dumps(f2lab.distance_to_degree(table, 0).to_json()))
        assert flag["config"]["mod3_residue"] == int(r) and flag["result"] == want
        results.append(flag["result"])
        assert main(["rs-distance", "--fn", f"mod3:3,{r}", "--bound", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--mod3-residue" in captured.err
    assert results[0] != results[1]


@pytest.mark.parametrize(
    "fn, flag",
    [("mod3:3", ["--mod3-residue", r]) for r in ("3", "4", "-2")]
    + [(f"mod3:3,{r}", []) for r in ("3", "4", "-2")],
)
def test_mod3_residue_outside_0_to_2_is_a_usage_error(capsys, fn, flag):
    """Residues 1, 4 and -2 once all named one function; now the flag takes
    only 0, 1 or 2, and a spec takes no residue at all."""
    assert main(["rs-distance", "--fn", fn, "--bound", "0"] + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "residue" in captured.err
    assert "Traceback" not in captured.err


def test_separate_refuses_mismatched_arity(capsys):
    assert (
        main(
            [
                "separate",
                "--module",
                "minors:dim_partials:4",
                "--easy",
                "depth3:4,2,1",
                "--hard",
                "esym:2,6",
            ]
        )
        == 2
    )


def test_separate_easy_candidate_does_not_separate(capsys):
    code, data = run_json(
        capsys,
        [
            "separate",
            "--module",
            "minors:dim_partials:4",
            "--easy",
            "depth3:4,2,1",
            "--hard",
            "rand:4,1,5",
            "--trials",
            "2",
        ],
    )
    assert code == 0
    assert data["result"]["hard_nonvanish"] is False
    assert data["result"]["separating"] is False


def test_separate_bad_module_spec(capsys):
    assert (
        main(
            [
                "separate",
                "--module",
                "span:whatever",
                "--easy",
                "depth3:4,2,1",
                "--hard",
                "esym:2,4",
            ]
        )
        == 2
    )


def test_table_skips_infeasible_cells(tmp_path):
    out = tmp_path / "grid.csv"
    code = main(
        [
            "table",
            "--n-min",
            "4",
            "--n-max",
            "5",
            "--d-min",
            "1",
            "--d-max",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0].startswith("config=")
    assert rows[1][:6] == ["n", "d", "two_d", "rank", "lower_bound", "ok"]
    body = rows[2:]
    cells = {(int(r[0]), int(r[1])) for r in body}
    assert cells == {(4, 1), (4, 2), (5, 1), (5, 2)}  # 2d > n cells dropped
    assert all(r[5] == "1" for r in body)


def test_table_json_format(capsys):
    code, data = run_json(
        capsys,
        [
            "table",
            "--n-min",
            "4",
            "--n-max",
            "4",
            "--d-min",
            "1",
            "--d-max",
            "1",
            "--format",
            "json",
        ],
    )
    assert code == 0
    assert data["result"] == [
        {
            "n": 4,
            "d": 1,
            "two_d": 2,
            "rank": 6,
            "lower_bound": 4,
            "ok": 1,
            "matrix_rows": 15,
            "matrix_cols": 15,
            "threshold_s1": 4,
        }
    ]


def test_table_rejects_inverted_ranges(capsys):
    assert main(["table", "--n-min", "5", "--n-max", "4"]) == 2


def test_rs_distance_from_function_spec(capsys):
    code, data = run_json(capsys, ["rs-distance", "--fn", "mod3:3", "--bound", "1"])
    assert code == 0
    assert data["result"]["distance"] == 2
    assert data["result"]["agreement"] == 6
    assert data["config"]["bound"] == 1


def test_rs_distance_from_table_file(tmp_path, capsys):
    t = truth_table(2, lambda pt: pt[0] and pt[1])
    path = tmp_path / "and.tt"
    path.write_text(format_table(t))
    code, data = run_json(
        capsys, ["rs-distance", "--table", str(path), "--bound", "2"]
    )
    assert code == 0
    assert data["result"]["distance"] == 0


def test_rs_distance_needs_exactly_one_source(tmp_path, capsys):
    assert main(["rs-distance", "--bound", "1"]) == 2
    path = tmp_path / "t.tt"
    path.write_text(format_table(truth_table(1, lambda pt: pt[0])))
    assert (
        main(["rs-distance", "--fn", "mod3:3", "--table", str(path), "--bound", "1"])
        == 2
    )
    assert main(["rs-distance", "--table", str(tmp_path / "no.tt"), "--bound", "1"]) == 2


def test_rs_distance_infeasible_scale(capsys):
    assert main(["rs-distance", "--fn", "mod3:16", "--bound", "2"]) == 3


def test_rs_distance_refuses_wide_functions_before_tabulating(capsys):
    """A 2^40-entry table is never built: the variable count is checked on
    the polynomial, so the refusal is immediate."""
    start = time.perf_counter()
    code = main(["rs-distance", "--fn", "esym:2,40", "--bound", "0"])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "40 > 16 variables" in captured.err


def test_largest_admitted_rs_distance_runs_are_fast(capsys):
    """n = 16 at d = 1 transforms 32-bit fields in one 2^21-bit lane, and
    n = 6 at d = 2 walks 2^15 words Q; each takes well under a second."""
    for argv, distance in (("esym:2,16 --bound 1", 32640), ("rand:6,3,1 --bound 2", 12)):
        start = time.perf_counter()
        code, data = run_json(capsys, ["rs-distance", "--fn", *argv.split()])
        assert time.perf_counter() - start < 2.0
        assert code == 0 and data["result"]["distance"] == distance


def test_gk_check_whole_group(capsys):
    code, data = run_json(capsys, ["gk-check", "--fn", "det:2", "--r", "1"])
    assert code == 0
    assert data["config"]["field"] == "Fp:2"
    assert data["result"]["agree"] is True
    assert data["result"]["pairwise"]["lambda_dim"] == 5
    assert data["result"]["pairwise"]["property_holds"] is False
    assert data["result"]["stacked"]["intersection_dim"] == 0


def test_whole_group_gk_check_enumerates_the_group_once(capsys, monkeypatch):
    """The twists and the vanishing ideal share one enumeration of GL_2(F_3)."""
    calls = []
    real_enumerate = groups.enumerate_invertible

    def counting(*args):
        calls.append(args)
        return real_enumerate(*args)

    monkeypatch.setattr(groups, "enumerate_invertible", counting)
    code, data = run_json(capsys, ["gk-check", "--fn", "det:2", "--field", "Fp:3"])
    assert code == 0
    assert data["result"]["pairwise"]["sigma_count"] == 48
    assert calls == [(2, prime_field(3))]


def test_gk_check_sampled_twists(capsys):
    code, data = run_json(
        capsys, ["gk-check", "--fn", "det:2", "--trials", "3", "--seed", "7"]
    )
    assert code == 0
    assert data["result"]["pairwise"]["sigma_count"] == 3


def test_gk_check_guard_counts_matrix_cells_and_refuses_fast(capsys):
    """The guard prices the |GL_n(F_q)| x q^(n^2) evaluation matrix, not its
    q^(n^2) columns: det:2 over F_7 has 2,016 x 2,401 cells, rand:1,2,1 over
    F_9973 has 9,972 x 9,973, and both are refused before that matrix is
    built."""
    for spec, q in (("det:2", 7), ("rand:1,2,1", 9973)):
        for trials in ("1", "0"):
            start = time.perf_counter()
            argv = ["gk-check", "--fn", spec, "--field", f"Fp:{q}", "--trials", trials]
            code = main(argv)
            assert time.perf_counter() - start < 1.0
            assert code == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "cells" in captured.err


def test_whole_group_runs_above_the_enumeration_limit_are_refused_fast(capsys):
    """|GL_3(F_3)| = 11,232 is over the limit, which is known before any
    matrix is built."""
    for argv in (
        "invariance --fn rand:3,2,1 --measure dim_partials --field Fp:3 --exhaustive",
        "gk-check --fn det:3 --field Fp:3",
    ):
        start = time.perf_counter()
        code = main(argv.split())
        assert time.perf_counter() - start < 0.5
        assert code == 3
        assert capsys.readouterr().out == ""


def test_gk_check_rejects_rationals(capsys):
    assert main(["gk-check", "--fn", "det:2", "--field", "Q"]) == 2


def test_one_parser_serves_every_op_of_a_process():
    """The parser is built once, and reusing it changes no exit code or
    stdout byte: gk-check (default Fp:2), measure (default Q), a parse
    error, then gk-check again give what fresh parsers give."""
    argvs = [
        ["gk-check", "--fn", "det:2", "--trials", "2", "--seed", "1"],
        ["measure", "--fn", "esym:3,4", "--measure", "dim_partials"],
        ["measure", "--fn", "esym:3,4", "--measure", "no-such-measure"],
        ["gk-check", "--fn", "det:2", "--trials", "2", "--seed", "1"],
    ]

    def run(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue()

    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run(argv))
    build_parser.cache_clear()
    reused = [run(argv) for argv in argvs]
    assert reused == fresh
    assert build_parser() is build_parser()
    assert [code for code, _ in reused] == [0, 0, 2, 0]
    fields = [json.loads(text)["config"]["field"] for _, text in reused if text]
    assert fields == ["Fp:2", "Q", "Fp:2"]


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["measure", "--fn", "esym:2,4"]) == 2  # missing --measure
    assert main(["measure", "--fn", "nope:1", "--measure", "dim_partials"]) == 2
    assert (
        main(["measure", "--fn", "esym:2,4", "--measure", "dim_partials", "--field", "Fp:6"])
        == 2
    )


def test_negative_trials_are_usage_errors(capsys):
    for argv in (
        ["invariance", "--fn", "esym:2,4", "--measure", "dim_partials", "--trials", "-3"],
        ["gk-check", "--fn", "det:2", "--trials", "-1"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_a_whole_group_run_over_the_rationals_is_a_usage_error(capsys):
    """GL_n(Q) is infinite, so enumerating it is invalid input (exit 2), not a
    size cap (exit 3), in both commands that run a whole group."""
    for argv in (
        ["invariance", "--fn", "esym:2,3", "--measure", "dim_partials", "--exhaustive"],
        ["gk-check", "--fn", "det:2", "--field", "Q"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_division_by_zero_in_a_point_is_a_usage_error(capsys):
    """The error names the flag and the entry it could not read."""
    hessian = ["measure", "--fn", "det:2", "--measure", "hessian_rank"]
    for argv, token in (
        (hessian + ["--point", "1,1/0,1,1"], "1/0"),
        (hessian + ["--point", "1, 1/7 ,1,1", "--field", "Fp:7"], "1/7"),
        (hessian + ["--point", "1,x,1,1"], "x"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: bad --point entry '{token}'")


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    """Same arguments, same bytes: every command embeds its resolved config.
    --out only routes the output, so its file holds the bytes that the same
    argv without it prints."""
    cases = [
        ["measure", "--fn", "rand:3,2,9", "--measure", "dim_partials"],
        [
            "invariance",
            "--fn",
            "rand:3,2,9",
            "--measure",
            "shifted",
            "--trials",
            "3",
            "--seed",
            "5",
        ],
        [
            "separate",
            "--module",
            "minors:dim_partials:4",
            "--easy",
            "depth3:4,2,1",
            "--hard",
            "esym:2,4",
            "--trials",
            "2",
            "--format",
            "csv",
        ],
        ["table", "--n-min", "4", "--n-max", "6", "--d-min", "1", "--d-max", "2"],
        ["rs-distance", "--fn", "mod3:3", "--bound", "1"],
        ["gk-check", "--fn", "det:2", "--trials", "2", "--seed", "3"],
    ]
    for i, argv in enumerate(cases):
        a = tmp_path / f"a{i}.out"
        b = tmp_path / f"b{i}.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes()  # never empty
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
        assert a.read_bytes() == out.getvalue().encode()


def _readme_command_lines() -> list[list[str]]:
    """The argv of every `seplab` line in the README's Command line block,
    continuation lines joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in argvs if argv and argv[0] == "seplab"]


def test_the_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    argvs = _readme_command_lines()
    assert len(argvs) >= 10 and any("--table" in argv for argv in argvs)
    monkeypatch.chdir(tmp_path)  # the --table example reads my_function.tt from here
    (tmp_path / "my_function.tt").write_text(
        format_table(truth_table(4, lambda pt: pt[0] & pt[1] & pt[2] ^ pt[3]))
    )
    for argv in argvs:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_field_argument_reaches_the_ring(capsys):
    code, data = run_json(
        capsys,
        ["measure", "--fn", "esym:2,4", "--measure", "dim_partials", "--field", "Fp:7"],
    )
    assert code == 0
    assert data["config"]["field"] == "Fp:7"
    assert data["result"]["rank"] == 6
    assert prime_field(7).name == "Fp:7"


def _declared_options() -> dict[str, tuple[str, ...]]:
    """Each command's options as the parser declares them, --out aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: tuple(
            a.option_strings[0]
            for a in p._actions
            if a.option_strings and a.dest not in ("help", "out")
        )
        for command, p in sub.choices.items()
    }


_DECLARED = _declared_options()


# A small argv grammar for the fuzz test below.  Functions have at most two
# variables (or one, for gk-check's square-matrix check to pass) and every
# size stays tiny: no cost guard refuses large work yet.  Each option draws
# from its own pool, which mixes valid and invalid values, or now and then
# from tokens that are wrong for (nearly) every option.
_BAD = ("x", "-1", "", "1/0")
_VALUES = {
    "--fn": (
        "esym:1,2", "esym:2,2", "det:1", "perm:1", "mod3:2", "rand:2,2,1",
        "rand:1,3,4", "esym:3,2", "det:9", "nope:1", "rand:2",
    ),
    "--field": ("Q", "Fp:2", "Fp:3", "Fp:6"),
    "--measure": MEASURES,
    "--point": ("1,2", "0,0", "1/2,3", "1,1/0"),
    "--module": (
        "minors:dim_partials:2", "minors:shifted:3", "minors:hessian_rank:1",
        "minors:term_count:0", "minors:dim_partials:x", "span:1",
    ),
    "--easy": (
        "depth3:2,2,1", "depth4:2,2,1,1", "depth3:1,1,1", "depth3:2",
        "depth4:2,2,1,3", "depth3:0,1,1",
    ),
    "--format": ("json", "csv"),
}
_VALUES["--hard"] = _VALUES["--fn"]
_SMALL = ("0", "1", "2", "3")
_REQUIRED = {
    "measure": ("--fn", "--measure"),
    "invariance": ("--fn", "--measure"),
    "separate": ("--module", "--easy", "--hard"),
    "table": (),
    "rs-distance": ("--fn", "--bound"),
    "gk-check": ("--fn",),
}
# every declared option the grammar does not (nearly) always pass
_OPTIONAL = {
    command: tuple(o for o in options if o not in _REQUIRED[command])
    for command, options in _DECLARED.items()
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(_REQUIRED)))
    # each required option is left out one time in eight
    opts = [o for o in _REQUIRED[command] if draw(st.integers(0, 7)) < 7]
    opts += draw(
        st.lists(st.sampled_from(_OPTIONAL[command]), unique=True, max_size=4)
    )
    # the default table grid runs to n = 10, so the grammar caps it first
    argv = [command] + (["--n-max", "3"] if command == "table" else [])
    for opt in draw(st.permutations(opts)):
        argv.append(opt)
        if opt != "--exhaustive":
            bad = draw(st.integers(0, 9)) == 9  # one value in ten is malformed
            argv.append(draw(st.sampled_from(_BAD if bad else _VALUES.get(opt, _SMALL))))
    return argv


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(cli_argvs())
def test_cli_fuzz_exits_with_a_documented_code_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


# For every declared option but --out: an argv that reads it and a second
# valid value.  An option missing from the argv starts at its default, and a
# value of None switches a flag on.
_CONTRACT = [
    ("measure --fn rand:2,2,5 --measure shifted",
     {"--fn": "rand:2,2,6", "--measure": "dim_partials", "--k": "2", "--l": "2",
      "--field": "Fp:7"}),
    # only a "mod3:n" spec reads --mod3-residue, so it starts from such a base
    ("measure --fn mod3:3 --measure dim_partials --field Fp:2", {"--mod3-residue": "1"}),
    ("measure --fn rand:2,2,5 --measure hessian_rank --point 1,2", {"--point": "3,4"}),
    ("invariance --fn esym:2,2 --measure shifted --trials 2 --field Fp:2",
     {"--fn": "esym:1,2", "--measure": "dim_partials", "--k": "2", "--l": "2",
      "--trials": "3", "--seed": "1", "--field": "Fp:3"}),
    ("invariance --fn mod3:2 --measure dim_partials --trials 1 --field Fp:2",
     {"--mod3-residue": "1"}),
    # a whole-group run refuses --trials, so --exhaustive starts from a base without it
    ("invariance --fn esym:2,2 --measure shifted --field Fp:2", {"--exhaustive": None}),
    ("invariance --fn det:2 --measure hessian_rank --point 1,0,0,0 --trials 1",
     {"--point": "1,0,0,1"}),
    ("separate --module minors:dim_partials:4 --easy depth3:4,2,1 --hard esym:2,4 --trials 1",
     {"--module": "minors:dim_partials:5", "--easy": "depth3:4,2,2", "--hard": "esym:1,4",
      "--trials": "2", "--seed": "1", "--field": "Fp:7", "--format": "csv"}),
    ("separate --module minors:dim_partials:4 --easy depth3:4,2,1 --hard mod3:4 --trials 1 "
     "--field Fp:2", {"--mod3-residue": "1"}),
    ("separate --module minors:shifted:3 --easy depth3:3,2,1 --hard esym:2,3 --trials 1",
     {"--k": "2", "--l": "2"}),
    ("table --n-min 4 --n-max 4 --d-min 1 --d-max 2",
     {"--n-min": "3", "--n-max": "5", "--d-min": "2", "--d-max": "1", "--field": "Fp:7",
      "--format": "json"}),
    ("rs-distance --fn mod3:3 --bound 1", {"--fn": "mod3:4", "--bound": "2", "--mod3-residue": "1"}),
    ("rs-distance --table {tmp}/a.tt --bound 1", {"--table": "{tmp}/b.tt"}),
    ("gk-check --fn det:2 --trials 1",
     {"--fn": "rand:4,2,1", "--r": "0", "--max-degree": "3", "--trials": "2", "--seed": "1",
      "--field": "Fp:3"}),
    ("gk-check --fn mod3:4 --trials 1", {"--mod3-residue": "1"}),
]


def _printed_config_and_format(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
    text = out.getvalue()
    first = next(csv.reader(io.StringIO(text)))[0]
    if first.startswith("config="):
        return json.loads(first[len("config="):]), "csv"
    return json.loads(text)["config"], "json"


@pytest.mark.parametrize("command", sorted(_DECLARED))
def test_every_option_changes_the_printed_config(command, tmp_path):
    """The printed config fixes the output, so every option a command takes
    must show in it: a second valid value changes the config (or, for
    --format, the format)."""
    for name in ("a.tt", "b.tt"):
        (tmp_path / name).write_text(format_table(truth_table(2, lambda pt: pt[0])))
    covered = []
    for base, alternatives in _CONTRACT:
        base = base.format(tmp=tmp_path).split()
        if base[0] != command:
            continue
        config, fmt = _printed_config_and_format(base)
        for opt, value in alternatives.items():
            covered.append(opt)
            argv = list(base)
            value = None if value is None else value.format(tmp=tmp_path)
            if opt in argv:
                argv[argv.index(opt) + 1] = value
            else:
                argv += [opt] if value is None else [opt, value]
            changed = _printed_config_and_format(argv)
            assert changed[1] != fmt if opt == "--format" else changed[0] != config, argv
    assert sorted(covered) == sorted(_DECLARED[command])


# stdout sha256 of each argv, recorded before ℚ scalars became ints and
# before the packed product kernel; both changes must leave every byte alone
GOLDEN_STDOUT = [
    ("measure --fn rand:3,3,5 --measure hessian_rank --point 1/2,3,-2/3",
     "e311c2941dfaeafcd7c6e2d456e45b695bbd43f74ae9bfff158ccf43ca126050"),
    ("measure --fn esym:3,5 --measure shifted --k 1 --l 1",
     "1fe45c3fba622cfce4cf8962322866d14425062c1ec17ab170d07604ae8af52c"),
    ("invariance --fn rand:3,3,2 --measure dim_partials --trials 6 --seed 1",
     "09d03e6112a8045411a495bc611b43471702161f878ffd6c10960dad087082d6"),
    ("invariance --fn rand:3,3,2 --measure shifted --k 1 --l 1 --trials 4 --seed 2 --field Fp:7",
     "a1fbc9fc292480d68fb68be599847e329c9e6c13b19a93720e0cbe6d21289bb7"),
    ("invariance --fn esym:2,3 --measure hessian_rank --point 1/2,-3,2/5 --trials 4 --seed 3",
     "054a052ac208a7efb90b34de3a6a8923d0be366d9f335081aa1f112134f3a883"),
    ("separate --module minors:dim_partials:16 --easy depth3:8,3,1 --hard esym:4,8 --trials 2 --seed 3",
     "f439017faa648631dc2a82ceda681d8e110f39b17c1da9d8c8362d47e0d2c33f"),
    ("separate --module minors:dim_partials:16 --easy depth3:8,3,1 --hard esym:4,8 --trials 2 --seed 3 --format csv",
     "669ffaaf0002be2ef601e5a7080d06ac2a00a1e8cdba2d8e8ccdcc9b07e806b5"),
    ("table",
     "473020013727787483166493fe9287883145a61db5a6b7fe27a72806db875b46"),
    ("gk-check --fn det:2 --field Fp:3",
     "5fa4ac6747ac54628106dfd153c6bb18aa6c39efcee9c8717c6dfd59296f7939"),
    ("rs-distance --fn esym:2,16 --bound 0",
     "a6359d3cd6e394d058cfe36a8656578f3d5efb306927ebeb1d33522d2a96196e"),
    ("rs-distance --fn mod3:6 --bound 2",
     "ef2f36d313e985f456d1d5221a7b9b6d957aa0f9067fd28bd59e03f1caa11f28"),
    ("invariance --fn rand:3,2,4 --measure dim_partials --exhaustive --field Fp:2",
     "f2d8e13e776dff82b056242da63306f503f1d2bc7bd1798b7f799d1de90ce782"),
    # recorded before a kernel took one RREF and before a mod3 residue
    # outside 0..2 was refused
    ("gk-check --fn det:2 --field Fp:5 --trials 2 --seed 3",
     "e70d8320025804ce3af08ae2beb3b179b55e8e75b06c7b5ad9727176960aee7e"),
    ("gk-check --fn det:2 --field Fp:3 --trials 0",
     "5fa4ac6747ac54628106dfd153c6bb18aa6c39efcee9c8717c6dfd59296f7939"),
    ("rs-distance --fn mod3:3 --bound 1",
     "1525e9d50ce927d50a1326fb0062bec4f9efa23b7e1891c015836f05004ae10c"),
    ("rs-distance --fn mod3:3 --bound 0 --mod3-residue 0",
     "62666072ebd4835594316e3a1ddf4e44edb44596c3c2b424fe4e9dcd9f9045a0"),
    ("rs-distance --fn mod3:3 --bound 0 --mod3-residue 1",
     "e7329e11319a7305a2a3d0b1b541446eaec53f5c0e138d17faaf140202cd448e"),
    ("rs-distance --fn mod3:3 --bound 0 --mod3-residue 2",
     "db38efc272ec949be7be45678b8219bb9f98273365649d4b1fc8795189e00857"),
    # recorded before the measure parameters were checked only in the library:
    # a shifted module's k and l show in the config
    ("separate --module minors:shifted:3 --easy depth3:3,2,1 --hard esym:2,3 --trials 2 --seed 1 --k 2",
     "5f151ebe733fde2f09bbba9695787c3bd6352de0ca58bfaa6df98b1b6b581422"),
    ("separate --module minors:shifted:3 --easy depth3:3,2,1 --hard esym:2,3 --trials 2 --seed 1 --k 2 --format csv",
     "aa4f42abb8eac1e4eb551b744745c866f6b23fd8d70b7bb958c73db63ac0f19d"),
    # recorded before GL_n(F_q) was built row by row; term_count is not
    # invariant, so they exit 1, and their values list the group in order
    ("invariance --fn rand:2,2,4 --measure term_count --exhaustive --field Fp:3",
     "4824c4392ef18883237d8f5a2c1c02a9cfa1c97ee75d63fe30e8091c98d54145", 1),
    ("invariance --fn rand:2,3,4 --measure term_count --exhaustive --field Fp:5",
     "598bc413f7d98b2643024d1c36dcef7e1e17563d6f6cb8fca4f8bef2e5b859a6", 1),
    # recorded before the distance walk read the affine words off a
    # Walsh-Hadamard transform: 8-, 16- and 32-bit fields, witness included
    ("rs-distance --fn rand:6,3,1 --bound 2",
     "7fe01bcf83faf618af52b9cc8fc1700df45cf9d896d81c649e3d780f7f76a71f"),
    ("rs-distance --fn mod3:7 --bound 1",
     "f2a64de87253aa90f596d59d051a79da2734883a94e16a26b3be10dcf6002be2"),
    ("rs-distance --fn esym:3,15 --bound 1",
     "04176ffe9dfa3f4465fd9eeff0521daa1225db5d4799dd5227747879a738c25e"),
    ("rs-distance --fn esym:2,16 --bound 1",
     "d851d902b4788229512e0ede867278923e86d8d6b9f0dbb4799aa95856e94cdb"),
    # recorded before each config was built from the resolved arguments:
    # configs with a residue, a field, a max degree or a shifted module's k and l
    ("table --n-min 3 --n-max 5 --d-min 1 --d-max 2 --field Fp:7 --format json",
     "06f130f0ff0c1943502eb33444925c15124ee38ed94f392348b5a95c2c14c0db"),
    ("gk-check --fn rand:4,2,1 --field Fp:3 --r 0 --max-degree 3 --trials 2 --seed 1",
     "5337cd2606f17ddcc58c24deca1bfd8b7c72b00b6c702f973fa62a13c5bde75a"),
    ("measure --fn mod3:3 --measure dim_partials --field Fp:2 --mod3-residue 1",
     "8b36271498288db637f96ca0d4273d90d9bdb776085eec561c773217faa3c3ff"),
    ("separate --module minors:dim_partials:4 --easy depth3:4,2,1 --hard mod3:4 --trials 1 --field Fp:2 --mod3-residue 1",
     "2f82b841752eb7e662846439c3572ca8fec22c49c73bf9afc8458baa9dcf614c"),
    ("invariance --fn mod3:2 --measure dim_partials --trials 1 --field Fp:2 --mod3-residue 1",
     "e5c78339d07ad0d388202e50d718ef9da622aac1b9fb26fc8a45c56922f26ea4"),
    ("separate --module minors:shifted:3 --easy depth3:3,2,1 --hard esym:2,3 --trials 2 --seed 1 --k 2 --l 2 --field Fp:7 --format csv",
     "23df70d5bafcc752bc76fc513c0b50e6d499c5fe06d52651188d087bdfec7c1e"),
    # recorded before dim_partials of homogeneous f ranked only the orders up
    # to d/2: mirrored over Q and F_5 (p > d), every order over F_3 (p <= d)
    ("separate --module minors:dim_partials:16 --easy depth3:8,4,1 --hard esym:4,8 --trials 3 --seed 7",
     "b093d8da83df6d9ce5fd22d708659b220aa9db9fb8d6e6878f32b5e4901295ad"),
    ("separate --module minors:dim_partials:16 --easy depth3:8,4,1 --hard esym:4,8 --trials 3 --seed 7 --format csv",
     "c81c741e057e554653971825bcfad469c536e3d7ff2965f3da48e3dfda5ce540"),
    ("measure --fn det:4 --measure dim_partials",
     "6c9d98144406882573ec30644be912b49df336097352d2da2ce5b6f4be417a44"),
    ("measure --fn perm:4 --measure dim_partials --field Fp:5",
     "c3842ed2103d4eeb91072717dfa97d02ad19068b82e3d1c1b0155fe0b04df651"),
    ("measure --fn esym:4,8 --measure dim_partials --field Fp:3",
     "0e772b828410f30c9b678694ab1e6c59a6b2e6f9325593d1e763aac0b211884d"),
    ("invariance --fn esym:2,4 --measure dim_partials --trials 5 --seed 1",
     "83e566ef71d757d643022734a37155f7e83e88604e72d95ed6f5a290a4b3b48f"),
    ("table --n-min 4 --n-max 9 --d-min 2 --d-max 4 --field Fp:5",
     "b4c881e9624075548ed424c0c4f76cac15b9865d9ef381f7c5eb96c1018e6bd3"),
]


@pytest.mark.parametrize(
    "argv, digest, exit_code",
    [(*entry, 0)[:3] for entry in GOLDEN_STDOUT],  # the exit code is 0 unless recorded
    ids=[f"{i}-{entry[0].split()[0]}" for i, entry in enumerate(GOLDEN_STDOUT)],
)
def test_stdout_bytes_match_the_recorded_digest(argv, digest, exit_code):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv.split())
    assert code == exit_code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
