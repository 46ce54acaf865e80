"""Tests for test modules: spans, minors, products, closure, separation runs."""

import itertools
import math
import random
from dataclasses import asdict

import pytest

from dense_matrices import partials_matrix
from oracles import laplace_det
from seplab import (
    Ambient,
    ExplicitSpan,
    InfeasibleError,
    MinorsOfMeasure,
    Poly,
    ProductModule,
    RATIONALS,
    dim_partials,
    elementary_symmetric,
    evaluate_module,
    expand,
    explicit_product,
    group_closure,
    in_span,
    minors_explicit,
    monomials_upto,
    multiply,
    poly_det,
    poly_matrix_minors,
    prime_field,
    run_separation,
    sampler_from_spec,
    symbolic_partial_deriv_matrix,
    vanishes_on,
    variable,
    zero,
)
from seplab.poly import evaluate
from seplab.seeding import SEED_STRIDE


def rand_poly(n, d, rng, field=RATIONALS, sparsity=0.6):
    terms = {}
    for e in monomials_upto(n, d):
        if rng.random() < sparsity:
            c = rng.randint(-4, 4) if field.p is None else rng.randrange(field.p)
            terms[e] = c
    return Poly(n, field, terms)


# the three coefficient slots of a binary quadratic form a*x^2 + b*xy + c*y^2,
# grlex order: index 0 reads off y^2, index 1 reads off xy, index 2 reads x^2
QUADRATIC_FORMS = Ambient(2, 2, RATIONALS, homogeneous=True)
DISCRIMINANT = Poly(3, RATIONALS, {(0, 2, 0): 1, (1, 0, 1): -4})


def test_ambient_coefficient_indexing():
    amb = QUADRATIC_FORMS
    assert amb.coeff_exponents() == [(0, 2), (1, 1), (2, 0)]
    assert amb.N == 3
    f = Poly(2, RATIONALS, {(2, 0): 5, (1, 1): 7, (0, 2): -1})
    assert amb.coeff_vector(f) == [-1, 7, 5]
    assert amb.coeff_variable((1, 1)) == variable(1, 3)
    full = Ambient(2, 2, RATIONALS)
    assert full.N == 6
    assert full.coeff_vector(zero(2)) == [0] * 6


def test_ambient_dimension_counts_the_coefficient_slots():
    for n in range(1, 6):
        for d in range(6):
            for homogeneous in (False, True):
                amb = Ambient(n, d, RATIONALS, homogeneous=homogeneous)
                assert amb.N == len(amb.coeff_exponents())


def test_ambient_membership_checks():
    amb = QUADRATIC_FORMS
    assert amb.accepts(zero(2))
    assert not amb.accepts(Poly(2, RATIONALS, {(1, 0): 1}))  # inhomogeneous slice
    assert not amb.accepts(Poly(3, RATIONALS, {(1, 1, 1): 1}))
    with pytest.raises(ValueError):
        amb.require(Poly(2, RATIONALS, {(2, 1): 1}))
    assert Ambient(2, 2, RATIONALS).accepts(Poly(2, RATIONALS, {(1, 0): 1}))


def test_discriminant_span_vanishes_exactly_on_squares():
    """b^2 - 4ac is zero at (x+y)^2 but not at xy."""
    t = ExplicitSpan(QUADRATIC_FORMS, (DISCRIMINANT,))
    square = Poly(2, RATIONALS, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert vanishes_on(t, square)
    xy = Poly(2, RATIONALS, {(1, 1): 1})
    outcome = evaluate_module(t, xy)
    assert not outcome.vanishes
    assert outcome.value == 1


def test_explicit_span_reduces_to_a_basis():
    amb = Ambient(2, 1, RATIONALS)
    a0, a1, a2 = (variable(i, 3) for i in range(3))
    span = ExplicitSpan(amb, (a0, a0, Poly(3, RATIONALS, {(2, 0, 0): 0})))
    assert span.dim == 1
    bigger = ExplicitSpan(
        amb, (a0, multiply(a0, a0), Poly(3, RATIONALS, {(1, 0, 0): 2}))
    )
    assert bigger.dim == 2  # a0 and a0^2 are independent, 2*a0 is not new
    assert in_span(bigger, a0)
    assert not in_span(bigger, a1)
    assert in_span(bigger, zero(3))
    assert span.describe() == "span[dim=1]"


def test_explicit_span_rejects_wrong_ring():
    amb = Ambient(2, 1, RATIONALS)
    with pytest.raises(ValueError):
        ExplicitSpan(amb, (variable(0, 2),))
    with pytest.raises(ValueError):
        ExplicitSpan(amb, (variable(0, 3, prime_field(5)),))


def test_minors_module_thresholds_dim_partials():
    amb = Ambient(2, 2, RATIONALS)
    t = MinorsOfMeasure(amb, "dim_partials", 3)
    assert t.describe() == "minors:dim_partials:3"
    x_sq = Poly(2, RATIONALS, {(2, 0): 1})
    xy = Poly(2, RATIONALS, {(1, 1): 1})
    assert dim_partials(x_sq) == 3 and dim_partials(xy) == 4
    assert vanishes_on(t, x_sq)
    out = evaluate_module(t, xy)
    assert not out.vanishes and out.value == 4 and out.threshold == 3
    with pytest.raises(ValueError):
        evaluate_module(t, elementary_symmetric(2, 3, RATIONALS))  # wrong arity
    with pytest.raises(ValueError):
        MinorsOfMeasure(amb, "no_such_measure", 1)
    with pytest.raises(ValueError):
        MinorsOfMeasure(amb, "dim_partials", -1)


def test_product_module_vanishes_when_either_factor_does():
    rng = random.Random(71)
    amb = Ambient(2, 2, RATIONALS)
    for _ in range(50):
        left = MinorsOfMeasure(amb, "dim_partials", rng.choice((2, 3, 4)))
        right = ExplicitSpan(
            amb, tuple(rand_poly(amb.N, 1, rng) for _ in range(rng.choice((1, 2))))
        )
        prod = ProductModule(left, right)
        f = rand_poly(2, 2, rng)
        want = vanishes_on(left, f) or vanishes_on(right, f)
        out = evaluate_module(prod, f)
        assert out.vanishes == want
        assert out.value == (0 if want else 1)


def test_product_module_requires_matching_ambients():
    a = ExplicitSpan(Ambient(2, 1, RATIONALS), ())
    b = ExplicitSpan(Ambient(2, 2, RATIONALS), ())
    with pytest.raises(ValueError):
        ProductModule(a, b)


def test_explicit_product_multiplies_bases():
    """span{a0} * span{a1} is exactly span{a0*a1}."""
    amb = Ambient(2, 1, RATIONALS)
    left = ExplicitSpan(amb, (variable(0, 3),))
    right = ExplicitSpan(amb, (variable(1, 3),))
    prod = explicit_product(left, right)
    assert prod.dim == 1
    assert in_span(prod, Poly(3, RATIONALS, {(1, 1, 0): 1}))
    f_zero_left = Poly(2, RATIONALS, {(1, 0): 2})  # a0 slot empty
    assert evaluate(left.basis[0], amb.coeff_vector(f_zero_left)) == 0
    assert vanishes_on(prod, f_zero_left)


def test_poly_det_generic_two_by_two():
    """det [[a, b], [c, d]] = ad - bc; a 3x3 or 4x4 polynomial matrix's det,
    evaluated at a point, is the Laplace determinant of the evaluated entries
    (reduced mod p); a 7x7 one is refused."""
    a, b, c, d = (variable(i, 4) for i in range(4))
    det = poly_det([[a, b], [c, d]])
    assert det == Poly(4, RATIONALS, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    with pytest.raises(ValueError):
        poly_det([[a, b]])
    with pytest.raises(InfeasibleError):  # the symbolic determinant's cap, 6
        poly_det([[a] * 7] * 7)
    rng = random.Random(83)
    for fld in (RATIONALS, prime_field(5)):
        for k in (3, 4):
            entries = [[rand_poly(2, 2, rng, fld) for _ in range(k)] for _ in range(k)]
            det = poly_det(entries)
            for _ in range(3):
                pt = [rng.randint(-4, 4) for _ in range(2)]
                vals = [[evaluate(t, pt) for t in row] for row in entries]
                expected = laplace_det(vals)
                if fld.p is not None:
                    expected %= fld.p
                assert evaluate(det, pt) == expected


def test_poly_matrix_minors_enumeration():
    a, b, c, d = (variable(i, 4) for i in range(4))
    m = [[a, b], [c, d]]
    assert len(poly_matrix_minors(m, 1)) == 4
    dets = poly_matrix_minors(m, 2)
    assert len(dets) == 1 and dets[0] == poly_det(m)
    assert poly_matrix_minors(m, 3) == []
    assert poly_matrix_minors(m, 0) == []
    big = [[a] * 7 for _ in range(7)]
    with pytest.raises(InfeasibleError):
        poly_matrix_minors(big, 2)


def test_minors_explicit_of_generic_matrix():
    host = Ambient(3, 1, RATIONALS)  # a 4-slot coefficient space
    assert host.N == 4
    a, b, c, d = (variable(i, 4) for i in range(4))
    span = minors_explicit([[a, b], [c, d]], 1, host)
    assert span.dim == 1
    assert in_span(span, poly_det([[a, b], [c, d]]))
    empty = minors_explicit([[a, b], [c, d]], 2, host)
    assert empty.dim == 0
    assert vanishes_on(empty, rand_poly(3, 1, random.Random(1)))
    assert not vanishes_on(span, Poly(3, RATIONALS, {(1, 0, 0): 1, (0, 0, 0): 1}))


def test_symbolic_derivative_matrix_instantiates_to_the_numeric_one():
    """Plugging a polynomial's coefficients into the generic matrix recovers
    its derivative matrix entry by entry; every entry is the falling-factorial
    multiplier (reduced mod p, so it can vanish when d >= p) times a slot."""
    rng = random.Random(81)
    f2, f3 = prime_field(2), prime_field(3)
    ambients = (
        Ambient(1, 2, RATIONALS),
        Ambient(2, 2, RATIONALS),
        Ambient(2, 3, f2),
        Ambient(1, 4, f2),
        Ambient(2, 3, f3),
        Ambient(1, 5, f3),
        Ambient(2, 3, RATIONALS, homogeneous=True),
    )
    for amb in ambients:
        n, d, fld = amb.n, amb.d, amb.field
        sym = symbolic_partial_deriv_matrix(amb)
        index = {e: i for i, e in enumerate(amb.coeff_exponents())}
        for c, row in zip(sym.row_labels, sym.entries):
            for e, entry in zip(sym.col_labels, row):
                big = tuple(a + b for a, b in zip(e, c))
                if big not in index:
                    assert entry.is_zero
                    continue
                mu = math.prod(math.perm(b, k) for b, k in zip(big, c))
                slot = tuple(int(i == index[big]) for i in range(amb.N))
                assert entry == Poly(amb.N, fld, {slot: mu})
        for _ in range(6):
            f = zero(n, fld)
            while f.is_zero or f.degree != d:
                f = rand_poly(n, d, rng, fld)
                if amb.homogeneous:
                    f = Poly(n, fld, {e: v for e, v in f.terms.items() if sum(e) == d})
            vec = amb.coeff_vector(f)
            row_labels, col_labels, numeric = partials_matrix(f)
            assert sym.row_labels == tuple(row_labels)
            assert sym.col_labels == tuple(col_labels)
            for i in range(len(sym.row_labels)):
                for j in range(len(sym.col_labels)):
                    assert evaluate(sym.entries[i][j], vec) == numeric[i][j]


def test_explicit_minors_agree_with_rank_thresholding():
    """All (r+1)-minors vanish at f exactly when the measure rank is <= r."""
    rng = random.Random(82)
    amb = Ambient(1, 2, RATIONALS)
    sym = symbolic_partial_deriv_matrix(amb)
    for r in (0, 1, 2):
        by_minors = minors_explicit(sym, r, amb)
        by_rank = MinorsOfMeasure(amb, "dim_partials", r)
        for _ in range(12):
            f = rand_poly(1, 2, rng, sparsity=0.5)
            assert vanishes_on(by_minors, f) == vanishes_on(by_rank, f)


def test_group_closure_symmetric_orbit_of_one_slot():
    """Closing one coefficient slot of a linear form under S_2 yields both slots."""
    amb = Ambient(2, 1, RATIONALS, homogeneous=True)
    slot = ExplicitSpan(amb, (amb.coeff_variable((1, 0)),))
    report = group_closure(slot, "sym")
    assert (report.mode, report.samples) == ("exhaustive", 2)
    assert report.dim == 2
    assert in_span(report.module, amb.coeff_variable((0, 1)))


def test_group_closure_symmetric_orbit_span_over_prime_fields():
    """Over F_2 and F_5, closing one coefficient slot under S_3 spans exactly
    the slots of the exponents its permutations reach."""
    for field, homogeneous in ((prime_field(2), True), (prime_field(5), False)):
        amb = Ambient(3, 2, field, homogeneous=homogeneous)
        for slot in amb.coeff_exponents():
            report = group_closure(ExplicitSpan(amb, (amb.coeff_variable(slot),)), "sym")
            orbit = set(itertools.permutations(slot))
            assert report.samples == 6
            assert report.dim == len(orbit)
            assert all(in_span(report.module, amb.coeff_variable(e)) for e in orbit)


def test_group_closure_discriminant_line_is_stable():
    """The discriminant spans a line preserved (up to scale) by every substitution."""
    span = ExplicitSpan(QUADRATIC_FORMS, (DISCRIMINANT,))
    report = group_closure(span, "gl", rng=random.Random(5))
    assert report.dim == 1
    assert report.mode == "sampled"
    assert in_span(report.module, DISCRIMINANT)


def test_group_closure_full_dual_basis_is_already_closed():
    amb = Ambient(2, 1, RATIONALS)
    full = ExplicitSpan(amb, tuple(variable(i, amb.N) for i in range(amb.N)))
    report = group_closure(full, "sym")
    assert report.dim == amb.N
    with pytest.raises(ValueError):
        group_closure(full, "gl")  # sampled closure without a generator
    with pytest.raises(ValueError):
        group_closure(full, "so3")


def test_minors_module_refuses_parameters_its_measure_does_not_read():
    """The module keeps its measure's checked parameters, so a wrong one is
    refused when the module is built, not when it is first evaluated."""
    amb = Ambient(2, 2, RATIONALS)
    with pytest.raises(ValueError, match="does not read parameter 'k'"):
        MinorsOfMeasure(amb, "dim_partials", 3, {"k": 1})
    with pytest.raises(ValueError, match="needs a point"):
        MinorsOfMeasure(amb, "hessian_rank", 1)
    assert MinorsOfMeasure(amb, "shifted", 3).params == {"k": 1, "l": 1}


def test_run_separation_positive_case():
    """A rank threshold above the easy class but below e_2 separates them."""
    amb = Ambient(4, 2, RATIONALS)
    module = MinorsOfMeasure(amb, "dim_partials", 4)
    sampler = sampler_from_spec("depth3:4,2,1")
    hard = elementary_symmetric(2, 4, RATIONALS)
    report = run_separation(module, sampler, hard, trials=5, seed=3)
    assert report.trials == 5
    assert report.easy_vanish_count == 5
    assert report.hard_nonvanish and report.hard_value == 6
    assert report.separating
    assert report.note == ""
    assert [row.trial for row in report.rows] == list(range(5))
    again = run_separation(module, sampler, hard, trials=5, seed=3)
    assert again == report
    data = asdict(report)
    assert data["separating"] is True
    assert len(data["rows"]) == 5


def test_run_separation_rejects_hard_candidate_from_the_easy_class():
    """A candidate sampled from the easy class itself must never separate."""
    amb = Ambient(4, 2, RATIONALS)
    module = MinorsOfMeasure(amb, "dim_partials", 4)
    sampler = sampler_from_spec("depth3:4,2,1")
    fake_hard = expand(sampler.sample(random.Random(99)))
    report = run_separation(module, sampler, fake_hard, trials=5, seed=3)
    assert not report.hard_nonvanish
    assert not report.separating


def test_run_separation_zero_trials_is_inconclusive():
    amb = Ambient(4, 2, RATIONALS)
    module = MinorsOfMeasure(amb, "dim_partials", 4)
    sampler = sampler_from_spec("depth3:4,2,1")
    hard = elementary_symmetric(2, 4, RATIONALS)
    report = run_separation(module, sampler, hard, trials=0)
    assert report.hard_nonvanish  # the hard side still got evaluated
    assert not report.separating
    assert "insufficient evidence" in report.note
    with pytest.raises(ValueError):
        run_separation(module, sampler, hard, trials=-1)


def test_run_separation_refuses_batches_past_the_seed_stride():
    """Checked up front: nothing is sampled or evaluated first."""

    class NeverSampled:
        def sample(self, rng):
            raise AssertionError("sampled before the trial count was checked")

    amb = Ambient(4, 2, RATIONALS)
    module = MinorsOfMeasure(amb, "dim_partials", 4)
    hard = elementary_symmetric(2, 4, RATIONALS)
    with pytest.raises(ValueError, match="seed stride"):
        run_separation(module, NeverSampled(), hard, trials=SEED_STRIDE + 1)
