"""Acceptance suite: twelve end-to-end checks with explicit budgets.

Every test finishes with one printed PASS line (visible under ``pytest -s``
or in the captured output); run with ``-v`` for the per-test verdict.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

from oracles import exponent_orbit_dim, laplace_det, naive_distance, rational_rank
from seplab import (
    RATIONALS,
    Ambient,
    ExplicitSpan,
    MinorsOfMeasure,
    Poly,
    ProductModule,
    determinant_poly,
    dim_partials,
    distance_to_degree,
    elementary_symmetric,
    enumerate_permutations,
    evaluate,
    evaluate_module,
    explicit_product,
    gk_intersection_test,
    gl_points,
    group_closure,
    hessian,
    hessian_rank_at,
    in_span,
    induced_coeff_map,
    invariance_check,
    mat_mul,
    multiply,
    permanent_poly,
    poly_matrix_minors,
    prime_field,
    random_dense_poly,
    random_invertible,
    rank,
    run_separation,
    sample_depth3,
    sampler_from_spec,
    scalar_multiply,
    subtract,
    substitute,
    substitute_linear,
    symbolic_partial_deriv_matrix,
    table_from_int,
    trial_rng,
    truth_table,
    vanishing_ideal_basis,
    variable,
    verify_nw_bound,
)
from seplab.cli import main

F7 = prime_field(7)


def test_criterion_01_quadratic_discriminant_covariance():
    """b'^2 - 4a'c' picks up exactly the squared determinant of the change
    of variables, as an identity between nine-variable polynomials."""
    start = time.perf_counter()
    # ring slots: 0=x, 1=y, 2=a, 3=b, 4=c, 5..8 = matrix entries
    def unit(i, k=1):
        return tuple(k if j == i else 0 for j in range(9))

    a, b, c = (variable(i, 9) for i in (2, 3, 4))
    m00, m01, m10, m11 = (variable(i, 9) for i in (5, 6, 7, 8))
    f = Poly(9, RATIONALS, {
        (2, 0, 1, 0, 0, 0, 0, 0, 0): 1,   # a x^2
        (1, 1, 0, 1, 0, 0, 0, 0, 0): 1,   # b xy
        (0, 2, 0, 0, 1, 0, 0, 0, 0): 1,   # c y^2
    })
    images = [
        Poly(9, RATIONALS, {(1, 0, 0, 0, 0, 1, 0, 0, 0): 1,
                            (0, 1, 0, 0, 0, 0, 1, 0, 0): 1}),
        Poly(9, RATIONALS, {(1, 0, 0, 0, 0, 0, 0, 1, 0): 1,
                            (0, 1, 0, 0, 0, 0, 0, 0, 1): 1}),
    ] + [variable(i, 9) for i in range(2, 9)]
    g = substitute(f, images)

    def coeff(ex, ey):
        from seplab import coefficient_of

        return coefficient_of(g, {0: ex, 1: ey})

    def disc(aa, bb, cc):
        return subtract(multiply(bb, bb), scalar_multiply(4, multiply(aa, cc)))

    lhs = disc(coeff(2, 0), coeff(1, 1), coeff(0, 2))
    det = subtract(multiply(m00, m11), multiply(m01, m10))
    rhs = multiply(multiply(det, det), disc(a, b, c))
    assert not lhs.is_zero
    assert lhs == rhs
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE criterion 01: PASS — covariance identity exact ({elapsed:.3f}s)")


def test_criterion_02_symmetric_polynomial_derivative_dimension():
    """dim of the derivative span of e_{2d,n} is at least binom(n, d)."""
    start = time.perf_counter()
    checked = 0
    for n in range(4, 11):
        for d in range(1, 4):
            if 2 * d > n:
                continue
            got = dim_partials(elementary_symmetric(2 * d, n, RATIONALS))
            assert got >= comb(n, d), (n, d, got)
            checked += 1
    assert checked == 19
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        "ACCEPTANCE criterion 02: PASS — lower bound holds on all "
        f"{checked} grid cells ({elapsed:.1f}s)"
    )


def test_criterion_03_depth3_derivative_budget_never_violated():
    """200 seeded random depth-3 circuits all satisfy dim <= s * 2^d."""
    start = time.perf_counter()
    combos = [
        (n, d, s) for n in (4, 6, 8) for d in (2, 3) for s in (1, 2, 3, 4)
    ]
    for i in range(200):
        n, d, s = combos[i % len(combos)]
        circuit = sample_depth3(n, d, s, RATIONALS, trial_rng(31400, i))
        report = verify_nw_bound(circuit)
        assert report.bound == s * (1 << d)
        assert report.ok, (i, n, d, s, report.dimension)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        "ACCEPTANCE criterion 03: PASS — 0 violations in 200 circuits "
        f"({elapsed:.1f}s)"
    )


def test_criterion_04_separation_on_degree4_eight_variables():
    """Rank-16 minors module: vanishes on 100/100 easy samples, not at e_{4,8}."""
    start = time.perf_counter()
    field = RATIONALS
    sampler = sampler_from_spec("depth3:8,4,1", field)
    hard = elementary_symmetric(4, 8, field)
    ambient = Ambient(8, 4, field, homogeneous=False)
    module = MinorsOfMeasure(ambient, "dim_partials", 16)
    report = run_separation(module, sampler, hard, trials=100, seed=271828)
    assert report.easy_vanish_count == 100
    assert report.hard_nonvanish is True
    assert report.hard_value == 46
    assert report.separating is True
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        "ACCEPTANCE criterion 04: PASS — 100/100 easy vanish, hard rank 46 > 16 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_05_rank_measures_survive_invertible_substitution():
    """dim_partials and shifted rank: 50 random substitutions, 10 polys, 2 fields."""
    specs = [
        (2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
        (3, 4), (4, 2), (4, 3), (4, 1), (3, 1),
    ]
    failures = 0
    reports = 0
    for field in (RATIONALS, F7):
        for idx, (n, d) in enumerate(specs):
            f = random_dense_poly(n, d, trial_rng(50500, idx), field)
            for m_idx, (measure, params) in enumerate(
                [("dim_partials", None), ("shifted", {"k": 1, "l": 1})]
            ):
                report = invariance_check(
                    measure, f, 50, trial_rng(50501, idx * 2 + m_idx), params
                )
                reports += 1
                assert report.trials == 50
                if not report.all_equal:
                    failures += 1
    assert reports == 40
    assert failures == 0
    print(
        "ACCEPTANCE criterion 05: PASS — 40 invariance reports, "
        "50 substitutions each, zero failures"
    )


def _all_minors_vanish(m, size, p):
    """Explicitly enumerate every size x size minor and test for zero."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    for rs in itertools.combinations(range(nrows), size):
        for cs in itertools.combinations(range(ncols), size):
            det = laplace_det([[m[i][j] for j in cs] for i in rs])
            if (int(det) % p if p else det) != 0:
                return False
    return True


def test_criterion_06_minor_enumeration_matches_rank_threshold():
    """rank <= r exactly when all (r+1) x (r+1) minors vanish, 100 matrices."""
    rng = random.Random(60606)
    scalar_checked = 0
    for t in range(92):
        field, p = (RATIONALS, None) if t % 2 == 0 else (F7, 7)
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)

        def entry():
            if p is None and t % 5 == 1:
                return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            v = rng.randint(-4, 4)
            return v % p if p else v

        if t % 3 == 0 and min(nr, nc) > 1:
            k = rng.randint(1, min(nr, nc))
            left = [[entry() for _ in range(k)] for _ in range(nr)]
            right = [[entry() for _ in range(nc)] for _ in range(k)]
            m = mat_mul(left, right, field)
        else:
            m = [[entry() for _ in range(nc)] for _ in range(nr)]
        rk = rank(m, field, nc)
        for r in range(min(nr, nc) + 1):
            assert (rk <= r) == _all_minors_vanish(m, r + 1, p), (t, r)
        scalar_checked += 1

    # instantiated symbolic derivative matrices round out the 100
    symbolic_checked = 0
    for t in range(8):
        field, p = (RATIONALS, None) if t % 2 == 0 else (F7, 7)
        ambient = Ambient(2, 2, field, homogeneous=True)
        sym = symbolic_partial_deriv_matrix(ambient)
        coeffs = [rng.randint(0, 4) for _ in range(ambient.N)]
        m = [[evaluate(e, coeffs) for e in row] for row in sym.entries]
        rk = rank(m, field, len(m[0]))
        for size in range(1, min(len(m), len(m[0])) + 1):
            minors = poly_matrix_minors(sym.entries, size)
            vanish = all(evaluate(q, coeffs) == 0 for q in minors)
            assert vanish == (rk <= size - 1), (t, size)
        symbolic_checked += 1
    assert scalar_checked + symbolic_checked == 100
    print(
        "ACCEPTANCE criterion 06: PASS — minor enumeration and rank threshold "
        "agree on 100 matrices, every r"
    )


def test_criterion_07_product_modules_vanish_disjunctively():
    """Products of spans vanish exactly where one factor does, 50 instances."""
    for t in range(50):
        rng = random.Random(70700 + t)
        field = RATIONALS if t % 2 == 0 else F7
        ambient = Ambient(2, 2, field)
        left = ExplicitSpan(
            ambient,
            tuple(random_dense_poly(ambient.N, 1, rng, field) for _ in range(rng.randint(1, 2))),
        )
        right = ExplicitSpan(ambient, (random_dense_poly(ambient.N, 1, rng, field),))
        product = ProductModule(left, right)
        f = random_dense_poly(2, 2, rng, field)
        got = evaluate_module(product, f)
        assert got.vanishes == (
            evaluate_module(left, f).vanishes or evaluate_module(right, f).vanishes
        )
        point = ambient.coeff_vector(f)
        direct = all(
            evaluate(multiply(u, v), point) == 0
            for u in left.basis
            for v in right.basis
        )
        assert got.vanishes == direct

    ambient = Ambient(2, 2, RATIONALS)
    exps = ambient.coeff_exponents()
    u = ambient.coeff_variable(exps[0])
    v = ambient.coeff_variable(exps[1])
    lit = explicit_product(
        ExplicitSpan(ambient, (u,)), ExplicitSpan(ambient, (v,))
    )
    assert lit.basis == ExplicitSpan(ambient, (multiply(u, v),)).basis
    print(
        "ACCEPTANCE criterion 07: PASS — OR-vanishing verified on 50 instances "
        "plus the one-generator product"
    )


def test_criterion_08_hessian_ranks_of_small_determinant_and_permanent():
    """Hess(perm_2) has constant rank 4; Hess(det_3) stays <= 6 on singular input."""
    for field in (RATIONALS, F7):
        perm2 = permanent_poly(2, field)
        entries = hessian(perm2)
        assert all(e.degree <= 0 for row in entries for e in row)
        assert hessian_rank_at(perm2, [0, 0, 0, 0]) == 4
        rng = random.Random(80808)
        for _ in range(5):
            pt = [rng.randint(-5, 5) for _ in range(4)]
            assert hessian_rank_at(perm2, pt) == 4

        det3 = determinant_poly(3, field)
        rng = random.Random(80809)
        for t in range(100):
            r1 = [rng.randint(-4, 4) for _ in range(3)]
            r2 = [rng.randint(-4, 4) for _ in range(3)]
            alpha, beta = rng.randint(-3, 3), rng.randint(-3, 3)
            r3 = [alpha * r1[j] + beta * r2[j] for j in range(3)]
            got = hessian_rank_at(det3, r1 + r2 + r3)
            assert got <= 6, (field, t, got)
    print(
        "ACCEPTANCE criterion 08: PASS — constant rank 4, and <= 6 at "
        "100 singular points over each field"
    )


def test_criterion_09_permutation_closure_of_coefficient_slots():
    """Closing one coefficient slot under S_3 gives exactly the orbit span."""
    ambient = Ambient(3, 2, RATIONALS, homogeneous=True)
    perms = enumerate_permutations(3)
    unit_exps = [
        tuple(1 if i == j else 0 for i in range(ambient.N))
        for j in range(ambient.N)
    ]
    for slot in ambient.coeff_exponents():
        t = ambient.coeff_variable(slot)
        closure = group_closure(ExplicitSpan(ambient, (t,)), "sym")
        assert closure.mode == "exhaustive"
        assert closure.samples == 6
        assert closure.dim == exponent_orbit_dim(slot, 3)
        images = []
        for g in perms:
            matrix = induced_coeff_map(g, ambient.coeff_exponents())
            for b in closure.module.basis:
                assert in_span(closure.module, substitute_linear(b, matrix))
            images.append(substitute_linear(t, matrix))
        rows = [[img.coefficient(e) for e in unit_exps] for img in images]
        assert rational_rank(rows) == closure.dim
    print(
        "ACCEPTANCE criterion 09: PASS — all 6 slot closures are fixed by "
        "all 6 permutations with exhaustive-orbit dimensions"
    )


def test_criterion_10_low_degree_distance_matches_naive_search():
    """distance_to_degree equals the brute-force oracle for n <= 4, d <= 2."""
    from seplab import mod3_multilinear, multilinear_to_truth_table, reduce_pointwise

    compared = 0
    for n in range(1, 5):
        rng = random.Random(1000 + n)
        tables = [
            table_from_int(n, 0),
            table_from_int(n, (1 << (1 << n)) - 1),
            truth_table(n, lambda pt: sum(pt) % 2),
        ] + [table_from_int(n, rng.getrandbits(1 << n)) for _ in range(4)]
        for d in range(0, 3):
            for t in tables:
                report = distance_to_degree(t, d)
                assert report.distance == naive_distance(t.bits, n, d), (n, d)
                compared += 1
    mod3 = multilinear_to_truth_table(reduce_pointwise(mod3_multilinear(3)))
    assert distance_to_degree(mod3, 1).distance == 2
    assert compared == 84
    print(
        "ACCEPTANCE criterion 10: PASS — 84 oracle comparisons exact; "
        "3-variable residue table has distance 2 at degree 1"
    )


def test_criterion_11_invertible_point_set_ideal_and_twisted_spans():
    """The 6-point ideal has dimension 10; both intersection strategies agree."""
    start = time.perf_counter()
    points = gl_points(2, 2)
    assert len(points) == 6
    ideal = vanishing_ideal_basis(points, 4, 2)
    assert ideal.dim == 10
    for terms in ideal.term_maps():
        assert all(evaluate(Poly(4, ideal.field, terms), pt) == 0 for pt in points)

    f2 = prime_field(2)
    rng = random.Random(111111)
    for t in range(20):
        word = rng.getrandbits(16)
        terms = {
            tuple((mask >> i) & 1 for i in range(4)): 1
            for mask in range(16)
            if (word >> mask) & 1
        }
        f = Poly(4, f2, terms)
        sigmas = [
            random_invertible(2, f2, rng) for _ in range(rng.randint(1, 2))
        ]
        r = rng.randint(0, 2)
        reports = gk_intersection_test(f, r, sigmas)
        a, b = reports["pairwise"], reports["stacked"]
        assert (a.lambda_dim, a.intersection_dim, a.property_holds) == (
            b.lambda_dim,
            b.intersection_dim,
            b.property_holds,
        ), t
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        "ACCEPTANCE criterion 11: PASS — ideal dimension 10, strategies agree "
        f"on 20 instances ({elapsed:.1f}s)"
    )


def test_criterion_12_every_command_reruns_byte_identically(tmp_path):
    """Each CLI command, rerun with the same config and seed, emits the same bytes."""
    cases = [
        ["measure", "--fn", "esym:2,4", "--measure", "dim_partials"],
        [
            "invariance", "--fn", "rand:3,2,9", "--measure", "shifted",
            "--trials", "4", "--seed", "11",
        ],
        [
            "separate", "--module", "minors:dim_partials:4",
            "--easy", "depth3:4,2,1", "--hard", "esym:2,4",
            "--trials", "3", "--seed", "7", "--format", "csv",
        ],
        ["table", "--n-min", "4", "--n-max", "6", "--d-min", "1", "--d-max", "2"],
        ["rs-distance", "--fn", "mod3:3", "--bound", "1"],
        ["gk-check", "--fn", "det:2", "--trials", "2", "--seed", "5"],
    ]
    for i, argv in enumerate(cases):
        first = tmp_path / f"run{i}a.out"
        second = tmp_path / f"run{i}b.out"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        payload = first.read_bytes()
        assert payload and payload == second.read_bytes(), argv[0]
    print(
        "ACCEPTANCE criterion 12: PASS — byte-identical reruns for all "
        "6 commands"
    )
