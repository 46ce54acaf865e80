"""Tests for sparse exact polynomial arithmetic."""

import itertools
import math
import random
from dataclasses import fields
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import poly_to_sympy
from seplab import (
    RATIONALS,
    Poly,
    add,
    coefficient_of,
    derivative,
    evaluate,
    grlex_key,
    monomial,
    monomials_exact,
    monomials_upto,
    multiply,
    negate,
    poly_to_json,
    prime_field,
    scalar_multiply,
    substitute,
    substitute_linear,
    subtract,
    variable,
    zero,
)
from seplab.linalg import mat_mul
from seplab.poly import _trusted, derivative_operators, monomial_count

F7 = prime_field(7)


def rand_poly(n, d, rng, field=RATIONALS, sparsity=0.6):
    """Random polynomial with integer coefficients, degree at most d."""
    terms = {}
    for e in monomials_upto(n, d):
        if rng.random() < sparsity:
            terms[e] = rng.randint(-4, 4)
    return Poly(n, field, terms)


def test_construction_drops_zero_terms_and_coerces():
    f = Poly(2, RATIONALS, {(1, 0): "2/3", (0, 1): 0, (0, 0): -1})
    assert set(f.terms) == {(1, 0), (0, 0)}
    assert f.coefficient((1, 0)) == Fraction(2, 3)
    assert f.degree == 1 and not f.is_zero


def test_zero_polynomial_degree_is_minus_one():
    assert zero(3).degree == -1
    assert zero(3).is_zero
    assert zero(3).is_homogeneous


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        Poly(2, RATIONALS, {(1,): 1})
    with pytest.raises(ValueError):
        Poly(2, RATIONALS, {(-1, 0): 1})


def test_monomial_count_is_the_length_of_the_enumeration():
    for n in range(7):
        for d in range(9):
            assert monomial_count(n, d) == len(monomials_exact(n, d))
            assert monomial_count(n + 1, d) == len(monomials_upto(n, d))
        assert monomial_count(n, -1) == 0 == len(monomials_exact(n, -1))


def test_monomial_enumeration_counts_and_order():
    """Exact-degree count is the stars-and-bars binomial; order is graded lex."""
    for n in range(1, 5):
        for d in range(0, 5):
            exact = monomials_exact(n, d)
            assert len(exact) == math.comb(n + d - 1, d)
            upto = monomials_upto(n, d)
            assert len(upto) == math.comb(n + d, d)
            assert upto == sorted(upto, key=grlex_key)
            assert len(set(upto)) == len(upto)


def test_homogeneity_flag():
    assert Poly(2, RATIONALS, {(2, 0): 1, (1, 1): 3}).is_homogeneous
    assert not Poly(2, RATIONALS, {(2, 0): 1, (1, 0): 3}).is_homogeneous


def test_cached_degree_and_homogeneity_match_a_fresh_recomputation():
    """Polynomials from every producer, read twice: the zero polynomial has
    degree -1 and is homogeneous, in any number of variables."""
    f = Poly(3, RATIONALS, {(2, 1, 0): Fraction(1, 2), (0, 0, 1): 4, (0, 0, 0): -1})
    g = Poly(3, RATIONALS, {(1, 1, 1): 2, (0, 0, 1): -4})
    h = Poly(2, F7, {(3, 0): 1, (1, 1): 3})
    made = [
        f, g, h, zero(3), zero(0), monomial((), 5),
        _trusted(2, F7, {(1, 1): 2, (2, 0): 5}), _trusted(0, F7, {}),
        derivative(f, (1, 0, 0)), derivative(f, (0, 0, 2)), derivative(h, (3, 0)),
        multiply(f, g), multiply(h, h, h), multiply(f, zero(3)), multiply(monomial((), 2)),
        add(f, g), add(g, negate(g)), add(h, h), add(zero(0), monomial((), 3)),
        substitute(f, [variable(0, 2), variable(1, 2), Poly(2, RATIONALS, {(1, 0): 1, (0, 0): 1})]),
        substitute(h, [zero(1, F7), variable(0, 1, F7)]),
    ]
    for p in made:
        degrees = {sum(e) for e in p.terms}
        for _ in range(2):
            assert p.degree == max(degrees, default=-1), p
            assert p.is_homogeneous == (len(degrees) <= 1), p
    assert [(p.degree, p.is_homogeneous) for p in (zero(3), zero(0), made[-1])] == [(-1, True)] * 3
    assert [(p.degree, p.is_homogeneous) for p in (f, made[11], made[12])] == [
        (3, False), (6, False), (9, False)
    ]


def test_ring_arithmetic_matches_sympy():
    """add/subtract/multiply agree with sympy expansion."""
    rng = random.Random(101)
    xs = sympy.symbols("x0:3")
    for _ in range(25):
        f = rand_poly(3, 3, rng)
        g = rand_poly(3, 2, rng)
        sf, sg = poly_to_sympy(f, xs), poly_to_sympy(g, xs)
        assert poly_to_sympy(add(f, g), xs) == sympy.expand(sf + sg)
        assert poly_to_sympy(subtract(f, g), xs) == sympy.expand(sf - sg)
        assert poly_to_sympy(multiply(f, g), xs) == sympy.expand(sf * sg)
        assert poly_to_sympy(negate(f), xs) == sympy.expand(-sf)
        assert poly_to_sympy(scalar_multiply(Fraction(3, 2), f), xs) == sympy.expand(
            sympy.Rational(3, 2) * sf
        )
    f = rand_poly(2, 2, rng)
    assert multiply(f, f, f) == multiply(f, multiply(f, f))


def test_prime_field_arithmetic_is_reduction_of_integer_arithmetic():
    """Multiplying over F_7 equals multiplying over Z then reducing mod 7."""
    rng = random.Random(77)
    for _ in range(20):
        fq = rand_poly(3, 2, rng)
        gq = rand_poly(3, 2, rng)
        fp = Poly(3, F7, dict(fq.terms))
        gp = Poly(3, F7, dict(gq.terms))
        want = Poly(3, F7, {e: int(c) % 7 for e, c in multiply(fq, gq).terms.items()})
        assert multiply(fp, gp) == want


def test_partial_derivative_matches_sympy():
    rng = random.Random(5)
    xs = sympy.symbols("x0:3")
    for _ in range(15):
        f = rand_poly(3, 4, rng)
        for i in range(3):
            unit = tuple(int(j == i) for j in range(3))
            assert poly_to_sympy(derivative(f, unit), xs) == sympy.expand(
                sympy.diff(poly_to_sympy(f, xs), xs[i])
            )


def test_iterated_derivative_picks_up_falling_factorials():
    f = monomial((3,), 1)
    assert derivative(f, (2,)) == monomial((1,), 6)
    assert derivative(f, (3,)) == monomial((0,), 6)
    assert derivative(f, (4,)).is_zero
    rng = random.Random(6)
    xs = sympy.symbols("x0:2")
    for _ in range(15):
        f = rand_poly(2, 4, rng)
        for orders in ((1, 1), (2, 0), (2, 1), (0, 3)):
            want = sympy.diff(poly_to_sympy(f, xs), xs[0], orders[0], xs[1], orders[1])
            assert poly_to_sympy(derivative(f, orders), xs) == sympy.expand(want)


def test_high_order_derivative_can_vanish_mod_p():
    """d^2/dx^2 of x^2 is 2, which is 0 over F_2."""
    f = monomial((2,), 1, prime_field(2))
    assert derivative(f, (2,)).is_zero


@st.composite
def polys_and_operators(draw):
    """A polynomial whose exponents reach past p, so that some falling
    factorials vanish mod p, and a shuffled list of derivative operators of
    mixed orders with repeats."""
    field = draw(st.sampled_from([RATIONALS, prime_field(2), prime_field(3), F7]))
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 9)] * n)
    if field.p is None:
        coeffs = st.fractions(max_denominator=5, min_value=-9, max_value=9)
    else:
        coeffs = st.integers(-9, 9)
    terms = draw(st.dictionaries(exps, coeffs, max_size=8))
    ops = draw(st.lists(st.tuples(*[st.integers(0, 8)] * n), min_size=1, max_size=8))
    ops = draw(st.permutations(ops + ops[: draw(st.integers(0, len(ops)))]))
    return Poly(n, field, terms), ops


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(polys_and_operators())
def test_derivative_matches_sympy_on_one_poly_queried_out_of_order(case):
    f, ops = case
    before = repr(f)
    p = f.field.p
    xs = sympy.symbols(f"x0:{f.n}")
    lifted = sum(
        (sympy.Rational(c.numerator, c.denominator) if p is None else c)
        * sympy.prod([x**k for x, k in zip(xs, e)])
        for e, c in f.terms.items()
    )
    for c in ops:
        want = sympy.diff(lifted, *[v for x, k in zip(xs, c) for v in (x, k)])
        want_terms = {}
        for e, v in sympy.Poly(want, *xs).terms() if want != 0 else ():
            v = Fraction(int(v.p), int(v.q))
            if p is not None:
                v = int(v) % p
            if v:
                want_terms[e] = v
        assert derivative(f, c).terms == want_terms
    assert f == Poly(f.n, f.field, dict(f.terms))
    assert repr(f) == before
    assert [fl.name for fl in fields(Poly)] == ["n", "field", "terms"]


@st.composite
def derivative_cases(draw):
    """A polynomial in 0-3 variables (zero allowed; ℚ coefficients may be
    fractions) and derivative operators of orders reaching past its degree."""
    field = draw(st.sampled_from([RATIONALS, prime_field(2), prime_field(3), F7]))
    n = draw(st.integers(0, 3))
    if field.p is None:
        coeffs = st.fractions(max_denominator=6, min_value=-9, max_value=9)
    else:
        coeffs = st.integers(-9, 9)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 7)] * n), coeffs, max_size=8))
    ops = draw(st.lists(st.tuples(*[st.integers(0, 9)] * n), min_size=1, max_size=8))
    return Poly(n, field, terms), ops


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(derivative_cases())
@example((zero(2, prime_field(2)), [(0, 0), (1, 0), (3, 4)]))
@example((zero(0), [()]))
@example((Poly(0, F7, {(): 3}), [(), ()]))
@example((Poly(2, prime_field(2), {(2, 3): 1, (0, 1): 1}), [(1, 0), (0, 2), (0, 1)]))
def test_derivative_returns_canonical_private_copies(case):
    """Each result equals the falling-factorial formula and is what the
    validating constructor would build, coefficient types included; editing
    it leaves the cache alone; orders past deg f give 0; and over F_2 an
    operator whose derivative vanishes has only vanishing ones above it."""
    f, ops = case
    p = f.field.p
    for c in ops:
        g = derivative(f, c)
        rebuilt = Poly(f.n, f.field, dict(g.terms))
        assert g == rebuilt
        assert list(g.terms) == list(rebuilt.terms)
        assert [type(v) for v in g.terms.values()] == [type(v) for v in rebuilt.terms.values()]
        formula = {
            tuple(a - b for a, b in zip(e, c)): v * math.prod(map(math.perm, e, c))
            for e, v in f.terms.items()
            if all(a >= b for a, b in zip(e, c))
        }
        assert g == Poly(f.n, f.field, formula)
        if sum(c) > f.degree:
            assert g.is_zero
        if p == 2 and g.is_zero:
            ups = [c[:i] + (c[i] + 1,) + c[i + 1 :] for i in range(f.n)]
            assert all(derivative(f, up).is_zero for up in ups)
        kept = dict(g.terms)
        g.terms.clear()
        g.terms[(9,) * f.n] = 1
        assert derivative(f, c).terms == kept
    before = dict(f.terms)
    derivative(f, (0,) * f.n).terms.clear()
    assert f.terms == before and derivative(f, (0,) * f.n) == f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(derivative_cases(), st.integers(0, 10))
@example((zero(2, prime_field(2)), [(0, 0)]), 0)
@example((zero(0), [()]), 0)
@example((Poly(0, F7, {(): 3}), [()]), 0)
@example((Poly(0, F7, {(): 3}), [()]), 1)
@example((Poly(2, RATIONALS, {(2, 1): Fraction(1, 3)}), [(0, 0)]), 4)
@example((Poly(2, prime_field(2), {(2, 1): 1, (1, 1): 1}), [(0, 0)]), 2)
def test_derivative_operators_are_the_nonzero_derivatives_in_grlex_order(case, k):
    """Brute force over all order-k operators, nonzero by the falling-factorial
    formula (so independent of the levels); orders past deg f give []."""
    f, _ = case

    def nonzero(c):
        formula = {
            tuple(a - b for a, b in zip(e, c)): v * math.prod(map(math.perm, e, c))
            for e, v in f.terms.items()
            if all(a >= b for a, b in zip(e, c))
        }
        return not Poly(f.n, f.field, formula).is_zero

    want = [c for c in monomials_exact(f.n, k) if nonzero(c)]
    assert derivative_operators(f, k) == want
    if k > f.degree:
        assert want == []


def test_evaluate_matches_sympy_substitution():
    rng = random.Random(9)
    xs = sympy.symbols("x0:3")
    for _ in range(15):
        f = rand_poly(3, 3, rng)
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
        want = poly_to_sympy(f, xs).subs(
            {x: sympy.Rational(v.numerator, v.denominator) for x, v in zip(xs, pt)}
        )
        assert evaluate(f, pt) == Fraction(int(want.p), int(want.q))


def test_evaluate_over_prime_field():
    f = Poly(2, F7, {(1, 1): 3, (0, 0): 6})
    assert evaluate(f, [2, 3]) == (3 * 6 + 6) % 7


def test_substitute_composes_with_evaluation():
    """f(g1, g2)(pt) equals f(g1(pt), g2(pt))."""
    rng = random.Random(12)
    for _ in range(15):
        f = rand_poly(2, 3, rng)
        g1 = rand_poly(3, 2, rng)
        g2 = rand_poly(3, 2, rng)
        h = substitute(f, [g1, g2])
        pt = [rng.randint(-3, 3) for _ in range(3)]
        assert evaluate(h, pt) == evaluate(f, [evaluate(g1, pt), evaluate(g2, pt)])


def test_substitute_ring_checks():
    f = rand_poly(2, 2, random.Random(1))
    with pytest.raises(ValueError):
        substitute(f, [variable(0, 3)])
    with pytest.raises(ValueError):
        substitute(f, [variable(0, 3), variable(0, 2)])
    with pytest.raises(ValueError):
        substitute(f, [variable(0, 2, F7), variable(1, 2, F7)])


def test_substitute_linear_composition_law():
    """Substituting A then B is the same as substituting the product A*B."""
    rng = random.Random(31)
    for _ in range(10):
        f = rand_poly(3, 3, rng)
        a = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        lhs = substitute_linear(substitute_linear(f, a), b)
        rhs = substitute_linear(f, mat_mul(a, b, RATIONALS))
        assert lhs == rhs


def test_coefficient_of_recomposes_the_polynomial():
    rng = random.Random(41)
    for _ in range(10):
        f = rand_poly(2, 3, rng)
        rebuilt = zero(2)
        for v in range(f.degree + 1 if not f.is_zero else 0):
            piece = multiply(coefficient_of(f, {0: v}), monomial((v, 0), 1))
            rebuilt = add(rebuilt, piece)
        assert rebuilt == f


def test_json_round_trip_both_fields():
    """poly_to_json's exact form over Q and F_p, terms in grlex order."""
    f = Poly(2, RATIONALS, {(2, 0): Fraction(-3, 4), (0, 1): 5})
    data = poly_to_json(f)
    assert data == {
        "n": 2,
        "field": "Q",
        "terms": [{"e": [0, 1], "c": "5"}, {"e": [2, 0], "c": "-3/4"}],
    }
    g = Poly(3, F7, {(1, 1, 1): 6, (0, 0, 0): 2})
    assert poly_to_json(g) == {
        "n": 3,
        "field": "Fp:7",
        "terms": [{"e": [0, 0, 0], "c": "2"}, {"e": [1, 1, 1], "c": "6"}],
    }
    assert data["terms"] == sorted(data["terms"], key=lambda t: grlex_key(tuple(t["e"])))
    # mixed degrees, where tuple order alone is not grlex
    mixed = Poly(3, F7, {e: 1 for e in itertools.product(range(3), repeat=3)})
    assert [e for e, _ in mixed.sorted_terms()] == sorted(mixed.terms, key=grlex_key)


def test_str_is_readable():
    f = Poly(2, RATIONALS, {(2, 0): 2, (0, 1): -1})
    s = str(f)
    assert "x0^2" in s and "x1" in s
    assert str(zero(2)) == "0"


# ---------------------------------------------------------------------------
# the packed product kernel behind substitute and multiply
# ---------------------------------------------------------------------------

KERNEL_FIELDS = [RATIONALS, prime_field(2), F7, prime_field(2**31 - 1)]


def _sym(c):
    """An int or Fraction as a sympy rational (F_p values lift to Z)."""
    return sympy.Rational(c.numerator, c.denominator)


def _lift(f, xs):
    return sympy.expand(
        sum(_sym(c) * sympy.prod([x**k for x, k in zip(xs, e)]) for e, c in f.terms.items())
    )


def _reduced_terms(expr, xs, field):
    """Term map of a sympy expression with its coefficients brought into field."""
    expr = sympy.expand(expr)
    items = sympy.Poly(expr, *xs).terms() if xs else [((), expr)]
    out = {}
    for e, v in items:
        v = field.coerce(Fraction(int(v.p), int(v.q)))
        if v:
            out[tuple(e)] = v
    return out


def _check_kernel(f, g, images, matrix, k):
    """substitute, substitute_linear, multiply and the k-th power (k >= 1) as
    a product of k copies equal sympy expand."""
    fld = f.field
    xs = sympy.symbols(f"x0:{f.n}")
    ys = sympy.symbols(f"y0:{images[0].n}")
    lf = _lift(f, xs)
    composed = lf.subs({x: _lift(img, ys) for x, img in zip(xs, images)}, simultaneous=True)
    assert substitute(f, images).terms == _reduced_terms(composed, ys, fld)
    moved = [sum(_sym(a) * x for a, x in zip(row, xs)) for row in matrix]
    linear = lf.subs(dict(zip(xs, moved)), simultaneous=True)
    assert substitute_linear(f, matrix).terms == _reduced_terms(linear, xs, fld)
    assert multiply(f, g).terms == _reduced_terms(lf * _lift(g, xs), xs, fld)
    assert multiply(*[f] * k).terms == _reduced_terms(lf**k, xs, fld)


def _scalars(field):
    if field.p is None:
        return st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.integers(-(2**40), 2**40)


@st.composite
def kernel_cases(draw):
    """A polynomial, a second factor, images into 0-3 variables (zero,
    constant and non-homogeneous ones included), a linear map and a power."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(1, 3))
    n_out = draw(st.integers(0, 3))
    scalars = _scalars(field)

    def poly_in(nv, top, size):
        exps = st.tuples(*[st.integers(0, top)] * nv)
        return Poly(nv, field, draw(st.dictionaries(exps, scalars, max_size=size)))

    f, g = poly_in(n, 3, 6), poly_in(n, 2, 4)
    images = [poly_in(n_out, 2, 4) for _ in range(n)]
    matrix = [[draw(scalars) for _ in range(n)] for _ in range(n)]
    return f, g, images, matrix, draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
def test_product_kernel_matches_sympy_expand(case):
    _check_kernel(*case)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=lambda fl: fl.name.replace(":", ""))
def test_product_kernel_edge_cases_match_sympy_expand(field):
    """The zero polynomial, zero images, constant images into a 0-variable
    ring, and non-homogeneous images with exponents past the field size."""
    half = Fraction(1, 2) if field.p is None else 3
    f = Poly(2, field, {(3, 0): 2, (1, 2): half, (0, 0): -1})
    nonhom = Poly(2, field, {(2, 1): 1, (1, 0): half, (0, 0): 5})
    cases = [
        (zero(2, field), f, [nonhom, nonhom], 2),
        (f, zero(2, field), [zero(2, field), nonhom], 1),
        (f, f, [monomial((), half, field), monomial((), 4, field)], 3),
        (f, nonhom, [nonhom, variable(0, 2, field)], 3),
    ]
    for f1, g, images, k in cases:
        _check_kernel(f1, g, images, [[half, 1], [0, -2]], k)


def _assert_canonical(f):
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_rational_coefficients_are_ints_exactly_when_integral():
    """Over Q a stored coefficient is an int iff it is integral: never a
    bool and never an integral Fraction, whichever operation produced it."""
    q = RATIONALS
    f = Poly(2, q, {(1, 0): True, (0, 1): Fraction(4, 2), (1, 1): "6/3", (2, 0): Fraction(1, 2)})
    assert [type(f.coefficient(e)) for e in ((1, 0), (0, 1), (1, 1), (2, 0))] == [
        int, int, int, Fraction
    ]
    assert f.coefficient((1, 0)) == 1 and f.coefficient((0, 0)) == 0
    assert type(q.coerce("8/4")) is int and type(q.coerce(" 0.5 ")) is Fraction
    assert type(f.coefficient((0, 0))) is int and type(evaluate(monomial((0, 0), 0), [1, 1])) is int
    derived = derivative(f, (2, 0))  # (1/2 x0^2)'' = 1
    halves = Poly(2, q, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)})
    doubled = multiply(halves, monomial((0, 0), 2))
    moved = substitute_linear(f, [[2, 0], [0, Fraction(1, 2)]])  # 1/2 * 2^2 = 2, ...
    for g in (f, derived, doubled, moved, multiply(halves, halves)):
        _assert_canonical(g)
    assert derived == monomial((0, 0), 1) and doubled == Poly(2, q, {(1, 0): 1, (0, 1): 3})
    assert moved == Poly(2, q, {(2, 0): 2, (1, 0): 2, (0, 1): 1, (1, 1): 2})
    for value in (evaluate(halves, [2, 2]), evaluate(halves, [1, 0])):
        assert type(value) is (int if value.denominator == 1 else Fraction)
    assert evaluate(halves, [2, 2]) == 4
