"""Tests for the rank-based complexity measures."""

import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_matrices import dense_rank, partials_matrix, shifted_matrix
from oracles import sympy_dim_partials, sympy_shifted_rank
from seplab import (
    Poly,
    RATIONALS,
    compute_measure,
    derivative,
    derivative_rows,
    dim_partials,
    elementary_symmetric,
    expand,
    from_spec,
    hessian,
    hessian_rank_at,
    monomial,
    monomials_exact,
    monomials_upto,
    multiply,
    permanent_poly,
    prime_field,
    determinant_poly,
    sampler_from_spec,
    shifted_partials_rank,
    zero,
)
from seplab import linalg, measures
from seplab.poly import linear_form

F7 = prime_field(7)


def rand_poly(n, d, rng, field=RATIONALS, sparsity=0.6):
    terms = {}
    for e in monomials_upto(n, d):
        if rng.random() < sparsity:
            c = rng.randint(-4, 4) if field.p is None else rng.randrange(field.p)
            terms[e] = c
    return Poly(n, field, terms)


def test_dim_partials_frozen_examples():
    """Hand-checkable derivative spans: x^2 -> 3, xy -> 4, e_2 on 4 vars -> 6."""
    assert dim_partials(monomial((2,), 1)) == 3
    assert dim_partials(Poly(2, RATIONALS, {(1, 1): 1})) == 4
    assert dim_partials(elementary_symmetric(2, 4, RATIONALS)) == 6


def test_dim_partials_equals_full_matrix_rank():
    """The pruned/block computation must match the dense labeled matrix."""
    rng = random.Random(17)
    for _ in range(12):
        f = rand_poly(3, 3, rng)
        if f.is_zero:
            continue
        assert dim_partials(f) == dense_rank(f, partials_matrix(f))


def test_dim_partials_matches_independent_oracle():
    rng = random.Random(18)
    for _ in range(8):
        f = rand_poly(3, 3, rng)
        assert dim_partials(f) == sympy_dim_partials(f)
    for _ in range(8):
        f = rand_poly(3, 3, rng, F7)
        assert dim_partials(f) == sympy_dim_partials(
            Poly(3, RATIONALS, dict(f.terms)), p=7
        )


@pytest.mark.parametrize("p", [2, 3])
def test_small_p_ranks_match_oracles_where_falling_factorials_vanish(p):
    """Degree >= p, so some derivative multipliers vanish mod p."""
    fp = prime_field(p)
    rng = random.Random(24 + p)
    cube = monomial((3,), 1, fp)
    homogeneous = Poly(3, fp, {e: rng.randrange(1, p) for e in monomials_exact(3, 3)})
    dense = Poly(3, fp, {e: rng.randrange(1, p) for e in monomials_upto(3, 3)})
    assert cube.is_homogeneous and homogeneous.is_homogeneous
    assert not dense.is_homogeneous
    for f in (cube, homogeneous, dense):
        lifted = Poly(f.n, RATIONALS, dict(f.terms))
        assert dim_partials(f) == sympy_dim_partials(lifted, p=p)
        for k in range(4):
            for l in (0, 1):
                assert shifted_partials_rank(f, k, l) == sympy_shifted_rank(
                    lifted, k, l, p=p
                )


def test_derivative_rows_are_shift_major_and_keep_zero_rows():
    f = Poly(2, RATIONALS, {(1, 1): 1})
    ops = [(1, 0), (0, 1), (2, 0)]
    plain = derivative_rows(f, ops)
    assert plain == [{(0, 1): 1}, {(1, 0): 1}, {}]
    shifted = derivative_rows(f, ops, shifts=[(0, 0), (1, 0)])
    assert shifted == plain + [{(1, 1): 1}, {(2, 0): 1}, {}]


def test_derivative_rows_calls_derivative_once_per_operator(monkeypatch):
    """One ``derivative`` call per operator, whatever the shifts; the
    benchmark's span tracer counts these calls."""
    calls = []
    real = measures.derivative
    monkeypatch.setattr(
        measures, "derivative", lambda f, c: calls.append(c) or real(f, c)
    )
    # d^2/dx^2 (x^2 y + x y) = 2y vanishes over F_2
    f = Poly(2, prime_field(2), {(2, 1): 1, (1, 1): 1})
    ops = [(2, 0), (1, 0), (2, 0), (0, 1)]
    plain = derivative_rows(f, ops)
    assert calls == ops
    assert plain == [{}, {(0, 1): 1}, {}, {(2, 0): 1, (1, 0): 1}]
    calls.clear()
    shifted = derivative_rows(f, ops, shifts=[(0, 0), (1, 0)])
    assert calls == ops
    assert shifted == plain + [{}, {(1, 1): 1}, {}, {(3, 0): 1, (2, 0): 1}]


def tuple_add_rows(f, ops, shifts):
    """Shifted rows built term by term with a tuple add, the construction
    ``derivative_rows`` replaced; kept as its oracle."""
    derivs = [derivative(f, c).terms for c in ops]
    return [
        {tuple(a + b for a, b in zip(e, m)): v for e, v in g.items()}
        for m in shifts
        for g in derivs
    ]


@pytest.mark.parametrize("spec", ["esym:3,5", "det:3", "rand:4,4,11"])
@pytest.mark.parametrize("p", [None, 2, 3, 7])
def test_shifted_derivative_rows_match_tuple_add_rows(spec, p):
    """Row by row, key order and empty rows included, for every operator of
    order k and one past deg f (so some derivatives are 0) and every shift of
    degree <= l."""
    f = from_spec(spec, RATIONALS if p is None else prime_field(p))
    for k, l in ((1, 0), (1, 2), (2, 1)):
        ops = monomials_exact(f.n, k) + [(f.degree + 1,) + (0,) * (f.n - 1)]
        shifts = monomials_upto(f.n, l)
        rows = derivative_rows(f, ops, shifts)
        expected = tuple_add_rows(f, ops, shifts)
        assert [list(r.items()) for r in rows] == [list(r.items()) for r in expected]
        assert any(not r for r in rows)


def test_shifted_derivative_rows_where_falling_factorials_vanish():
    """x^3 + x^2 y over F_3: d/dx gives 3x^2 + 2xy = 2xy, d^2/dx^2 gives 6x +
    2y = 2y, d^3/dx^3 gives 6 = 0."""
    f = Poly(2, prime_field(3), {(3, 0): 1, (2, 1): 1})
    ops = [(1, 0), (2, 0), (3, 0), (0, 1)]
    shifts = monomials_upto(2, 1)
    rows = derivative_rows(f, ops, shifts)
    assert rows == tuple_add_rows(f, ops, shifts)
    assert rows[:4] == [{(1, 1): 2}, {(0, 1): 2}, {}, {(2, 0): 1}]


def test_dim_partials_calls_derivative_once_per_nonzero_derivative(monkeypatch):
    """Over F_2 the operators whose derivative vanishes are never asked for,
    although they lie below a term of f."""
    calls = []
    real = measures.derivative
    monkeypatch.setattr(
        measures, "derivative", lambda f, c: calls.append(c) or real(f, c)
    )
    # d^2/dx^2 kills x^2 y + x y over F_2, and with it d^2/dx^2 d/dy
    f = Poly(2, prime_field(2), {(2, 1): 1, (1, 1): 1})
    assert dim_partials(f) == 4  # f, y, x^2 + x, 1
    assert calls == [(0, 0), (0, 1), (1, 0), (1, 1)]
    calls.clear()
    g = rand_poly(3, 4, random.Random(26), prime_field(2), sparsity=0.5)
    dim_partials(g)
    nonzero = [c for c in monomials_upto(3, g.degree) if not real(g, c).is_zero]
    assert calls == nonzero


def _orders_asked(f, monkeypatch):
    """The operators dim_partials(f) asks ``measures.derivative`` for."""
    calls = []
    real = measures.derivative
    monkeypatch.setattr(
        measures, "derivative", lambda g, c: calls.append(c) or real(g, c)
    )
    dim_partials(f)
    monkeypatch.undo()
    return calls


def test_dim_partials_of_homogeneous_f_asks_only_orders_up_to_half_the_degree(monkeypatch):
    """Over Q and F_p with p > d the orders past d/2 are mirrored, not built;
    over F_3, below the degree 4 of e(4,8), every nonzero operator is asked for."""
    big = prime_field(1000003)
    circuit = expand(sampler_from_spec("depth3:8,4,1", big).sample(random.Random(5)))
    for f in (from_spec("esym:4,8"), circuit):
        assert f.is_homogeneous and f.degree == 4
        nonzero = [c for c in monomials_upto(8, 2) if not derivative(f, c).is_zero]
        assert _orders_asked(f, monkeypatch) == nonzero
    f = from_spec("esym:4,8", prime_field(3))
    nonzero = [c for c in monomials_upto(8, 4) if not derivative(f, c).is_zero]
    assert any(sum(c) == 4 for c in nonzero)
    assert _orders_asked(f, monkeypatch) == nonzero


def test_dim_partials_does_not_mirror_where_p_is_at_most_the_degree():
    """x^2 over F_2 and x^3 over F_3: every derivative of order >= 1 is 0, so
    the span is f alone; mirroring order 0 onto order d would count 2."""
    assert dim_partials(monomial((2,), 1, prime_field(2))) == 1
    assert dim_partials(monomial((3,), 1, prime_field(3))) == 1


_MIRRORED = [RATIONALS, F7, prime_field(1000003)]
_SMALL_P = [prime_field(2), prime_field(3)]


def _homogeneous(kind, field, rng):
    """A homogeneous input of the given kind and degree d <= 5, with d >= p
    over F_2 and F_3, where every order is ranked."""
    d = rng.randint(field.p if field in _SMALL_P else 0, 5)
    n = rng.randint(1, 4)
    if kind in ("esym", "depth3"):
        d = max(d, 1)
    if kind == "rand":
        terms = {e: rng.randint(-4, 4) for e in monomials_exact(n, d) if rng.random() < 0.6}
        return Poly(n, field, terms)
    if kind == "esym":
        return elementary_symmetric(d, rng.randint(d, 6), field)
    if kind in ("det", "perm"):
        return from_spec(f"{kind}:3", field)
    if kind == "power":
        l = linear_form([rng.choice((-2, -1, 1, 2)) for _ in range(n)], field)
        return multiply(monomial((0,) * n, 1, field), *[l] * d)  # l^d, d = 0 included
    sampler = sampler_from_spec(f"depth3:{n},{d},{rng.randint(1, 3)}", field)
    return expand(sampler.sample(rng))


@pytest.mark.parametrize("field", _MIRRORED + _SMALL_P, ids=lambda f: f.name)
@pytest.mark.parametrize("kind", ["rand", "esym", "det", "perm", "power", "depth3"])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_dim_partials_of_homogeneous_f_matches_the_dense_rank(kind, field, seed):
    """Both derivative measures rank homogeneous f by output-degree block.
    dim_partials, mirrored (Q, F_7, F_1000003 with p > d) and fallback (F_2,
    F_3 with d >= p) alike, and shifted at (k, l) = (1, 1), (2, 1) equal the
    rank of the full dense matrix, and a power l^d of a nonzero linear form
    spans d + 1 where p > d."""
    f = _homogeneous(kind, field, random.Random(seed))
    assert f.is_homogeneous
    assert dim_partials(f) == dense_rank(f, partials_matrix(f))
    for k, l in ((1, 1), (2, 1)):
        if k <= f.degree:
            assert shifted_partials_rank(f, k, l) == dense_rank(f, shifted_matrix(f, k, l))
    if kind == "power" and field in _MIRRORED:
        assert dim_partials(f) == f.degree + 1


def test_order_zero_row_adds_one_for_homogeneous_inputs():
    """For homogeneous f the top-degree row is independent of all derivatives
    of order >= 1, which are ranked here without the order-0 row."""

    def proper_partials(f):
        ops = monomials_upto(f.n, f.degree)[1:]
        return linalg.span_rank(derivative_rows(f, ops), f.field)

    rng = random.Random(19)
    for d in (2, 3):
        f = elementary_symmetric(d, 4, RATIONALS)
        assert dim_partials(f) == proper_partials(f) + 1
    g = rand_poly(2, 3, rng)
    assert dim_partials(g) >= proper_partials(g)


def test_a_one_row_block_has_rank_one_without_a_rank_call(monkeypatch):
    """derivative_rows gives nonzero canonical rows, so a block of one row
    counts 1 over any field, F_2 and F_7 included, times its multiplicity."""
    monkeypatch.setattr(linalg, "rank", None)  # any rank call fails
    for field in (prime_field(2), F7):
        f = Poly(3, field, {(1, 1, 0): 1, (0, 0, 2): field.p - 1})
        rows = derivative_rows(f, [(0, 0, 0)])
        assert measures._block_rank([(2, 1, rows)], field) == 1
        assert measures._block_rank([(2, 2, rows), (1, 1, rows[:1])], field) == 3


def test_zero_polynomial_conventions():
    assert dim_partials(zero(3)) == 0
    rep = compute_measure("dim_partials", zero(3))
    assert rep.rank == 0 and rep.rows == 0 and rep.cols == 0


def test_partial_deriv_matrix_small_case_by_hand():
    row_labels, col_labels, entries = partials_matrix(monomial((2,), 1))
    assert row_labels == [(0,), (1,), (2,)]
    assert col_labels == [(0,), (1,), (2,)]
    assert entries == [[0, 0, 1], [0, 2, 0], [2, 0, 0]]


def test_shifted_partials_frozen_example():
    """xy with one derivative and one shift spans 5 dimensions."""
    f = Poly(2, RATIONALS, {(1, 1): 1})
    assert shifted_partials_rank(f, 1, 1) == 5


def test_shifted_partials_equals_full_matrix_rank():
    rng = random.Random(20)
    for _ in range(10):
        f = rand_poly(2, 3, rng)
        if f.is_zero:
            continue
        for k in range(0, f.degree + 1):
            for l in (0, 1, 2):
                assert shifted_partials_rank(f, k, l) == dense_rank(
                    f, shifted_matrix(f, k, l)
                )


def test_shifted_partials_at_benchmark_scale():
    """esym(4,7) with k=l=2 has the rank stored in bench/reference.json over
    both fields, and on esym(4,6) the pruned block ranks agree with the rank
    of the full matrix, where most rows skip several pivot steps."""
    for field in (RATIONALS, prime_field(1000003)):
        assert shifted_partials_rank(elementary_symmetric(4, 7, field), 2, 2) == 301
    f = elementary_symmetric(4, 6)
    assert shifted_partials_rank(f, 2, 2) == dense_rank(f, shifted_matrix(f, 2, 2))


def test_shifted_partials_matches_independent_oracle():
    rng = random.Random(21)
    for _ in range(6):
        f = rand_poly(2, 3, rng)
        if f.is_zero or f.degree < 1:
            continue
        assert shifted_partials_rank(f, 1, 1) == sympy_shifted_rank(f, 1, 1)
        assert shifted_partials_rank(f, 1, 2) == sympy_shifted_rank(f, 1, 2)


def test_shifted_partials_degenerate_and_errors():
    f = Poly(2, RATIONALS, {(1, 1): 1})
    assert shifted_partials_rank(f, 0, 0) == 1
    # no derivative of order k > deg f survives, nor any of the zero polynomial
    assert shifted_partials_rank(f, 3, 0) == 0
    assert shifted_partials_rank(zero(2), 0, 0) == 0
    with pytest.raises(ValueError):
        shifted_partials_rank(f, 1, -1)
    with pytest.raises(ValueError):
        shifted_partials_rank(f, -1, 0)


def test_hessian_is_symmetric():
    rng = random.Random(22)
    f = rand_poly(3, 4, rng)
    h = hessian(f)
    for i in range(3):
        for j in range(3):
            assert h[i][j] == h[j][i]


def test_hessian_rank_frozen_examples():
    """2x2 permanent and determinant have full Hessian rank everywhere."""
    rng = random.Random(23)
    perm2 = permanent_poly(2, RATIONALS)
    det2 = determinant_poly(2, RATIONALS)
    for _ in range(5):
        pt = [rng.randint(-4, 4) for _ in range(4)]
        assert hessian_rank_at(perm2, pt) == 4
        assert hessian_rank_at(det2, pt) == 4
    quad = Poly(2, RATIONALS, {(2, 0): 1, (0, 2): 1})
    assert hessian_rank_at(quad, [7, -2]) == 2


def test_hessian_can_collapse_mod_p():
    """The second derivative of x^2 is 2, which vanishes over F_2."""
    f = monomial((2, 0), 1, prime_field(2))
    assert hessian_rank_at(f, [1, 1]) == 0


def test_compute_measure_fills_defaults_and_shapes():
    f = Poly(2, RATIONALS, {(1, 1): 1})
    rep = compute_measure("shifted", f)
    assert rep.params == {"k": 1, "l": 1}
    assert rep.rank == 5
    assert rep.rows == 3 * 2 and rep.cols == len(monomials_upto(2, 2))
    rep2 = compute_measure("dim_partials", f)
    assert rep2.rank == 4 and rep2.rows == rep2.cols == 6
    data = asdict(rep2)
    assert set(data) == {"measure", "params", "rank", "rows", "cols"}


def test_compute_measure_shapes_are_the_full_dense_shapes():
    """rows and cols are counted, not built, and match the unpruned matrices,
    at k = 0, for the zero polynomial and with no variables at all."""
    rng = random.Random(27)
    polys = [zero(3), zero(0, F7), Poly(0, RATIONALS, {(): 5}), monomial((2,), 1)]
    for n, field in ((1, RATIONALS), (2, prime_field(2)), (3, F7), (4, RATIONALS)):
        polys += [rand_poly(n, d, rng, field) for d in (1, 2, 3)]
    for f in polys:
        rep = compute_measure("dim_partials", f)
        _, cols, rows = partials_matrix(f)
        assert (rep.rows, rep.cols) == (len(rows), len(cols))
        for k in range(f.degree + 1):
            for l in range(3):
                rep = compute_measure("shifted", f, {"k": k, "l": l})
                _, cols, rows = shifted_matrix(f, k, l)
                assert (rep.rows, rep.cols) == (len(rows), len(cols))


def test_compute_measure_hessian_and_term_count():
    f = permanent_poly(2, RATIONALS)
    rep = compute_measure("hessian_rank", f, {"point": [1, 2, 3, 4]})
    assert rep.rank == 4 and rep.rows == rep.cols == 4
    assert rep.params["point"] == ["1", "2", "3", "4"]
    assert compute_measure("term_count", f).rank == 2


def test_compute_measure_errors():
    f = Poly(2, RATIONALS, {(1, 1): 1})
    with pytest.raises(ValueError):
        compute_measure("hessian_rank", f)
    with pytest.raises(ValueError):
        compute_measure("does_not_exist", f)
    with pytest.raises(ValueError, match="rank exceeds"):
        measures.MeasureReport("dim_partials", {}, 1, 0, 0)


@pytest.mark.parametrize("name", measures.MEASURES)
def test_compute_measure_refuses_a_parameter_the_measure_does_not_read(name):
    """Each measure reads only its own parameters: any other is refused,
    naming the measure and the parameter, not carried into the report."""
    f = Poly(2, RATIONALS, {(1, 1): 1})
    given = {"point": [1, 2]} if name == "hessian_rank" else {}
    for key in ("include_order_zero", "k", "l", "point", "bogus"):
        if key in measures.PARAMS[name]:
            continue
        with pytest.raises(ValueError, match=f"measure {name} does not read parameter '{key}'"):
            compute_measure(name, f, {**given, key: 1})


def test_measure_params_fills_shifted_defaults_and_needs_a_point():
    assert measures.measure_params("shifted") == {"k": 1, "l": 1}
    assert measures.measure_params("shifted", {"l": 3}) == {"k": 1, "l": 3}
    assert measures.measure_params("dim_partials") == {}
    with pytest.raises(ValueError, match="hessian_rank needs a point"):
        measures.measure_params("hessian_rank", {})
    with pytest.raises(ValueError, match="unknown measure 'nope'"):
        measures.measure_params("nope")
