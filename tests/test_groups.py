"""Tests for group elements, coefficient-space transport, invariance checks."""

import itertools
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import laplace_det
from seplab import (
    InfeasibleError,
    Poly,
    RATIONALS,
    apply,
    compose,
    elementary_symmetric,
    enumerate_invertible,
    enumerate_permutations,
    gl_order,
    identity_element,
    induced_coeff_map,
    invariance_check,
    linear_element,
    monomials_exact,
    monomials_upto,
    permutation_element,
    prime_field,
    random_invertible,
    random_permutation,
    variable,
)
from seplab import linalg
from seplab.linalg import mat_mul

F5 = prime_field(5)


def rand_poly(n, d, rng, field=RATIONALS):
    terms = {}
    for e in monomials_upto(n, d):
        if rng.random() < 0.6:
            c = rng.randint(-4, 4) if field.p is None else rng.randrange(field.p)
            terms[e] = c
    return Poly(n, field, terms)


def rand_element(n, rng, field=RATIONALS):
    if rng.random() < 0.5:
        return random_permutation(n, rng, field)
    return random_invertible(n, field, rng)


def test_factories_validate():
    with pytest.raises(ValueError):
        linear_element([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        linear_element([[1, 2, 3], [0, 1, 0]])
    with pytest.raises(ValueError):
        permutation_element([0, 0, 1])


def test_permutation_moves_variables():
    """perm[i] names the variable that x_i becomes."""
    perm = [1, 2, 0]
    g = permutation_element(perm)
    for i in range(3):
        assert apply(g, variable(i, 3)) == variable(perm[i], 3)


def relabeled(f, perm):
    """Independent of the matrix: exponent e becomes e' with e'[perm[i]] = e[i]."""
    terms = {}
    for e, c in f.terms.items():
        moved = [0] * f.n
        for i, v in enumerate(e):
            moved[perm[i]] = v
        terms[tuple(moved)] = c
    return Poly(f.n, f.field, terms)


@st.composite
def permuted_polys(draw):
    field = draw(st.sampled_from((RATIONALS, prime_field(2), prime_field(7))))
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6))
    return Poly(n, field, terms), draw(st.permutations(range(n)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(permuted_polys())
def test_permutation_matrix_substitution_relabels_exponents(case):
    f, perm = case
    assert apply(permutation_element(perm, f.field), f) == relabeled(f, perm)


def test_symmetric_polynomial_is_fixed_by_every_permutation():
    f = elementary_symmetric(2, 4, RATIONALS)
    for g in enumerate_permutations(4):
        assert apply(g, f) == f


def test_identity_acts_trivially():
    rng = random.Random(0)
    f = rand_poly(3, 3, rng)
    assert apply(identity_element(3), f) == f


def test_composition_law_all_kind_pairs():
    """apply(compose(g, h), f), with h acting first, equals apply(g, apply(h, f))."""
    rng = random.Random(303)
    for field in (RATIONALS, F5):
        for _ in range(12):
            f = rand_poly(3, 2, rng, field)
            g = rand_element(3, rng, field)
            h = rand_element(3, rng, field)
            assert apply(compose(g, h), f) == apply(g, apply(h, f))


def test_compose_permutations_stays_a_permutation():
    rng = random.Random(4)
    for _ in range(10):
        p, q = list(range(4)), list(range(4))
        rng.shuffle(p)
        rng.shuffle(q)
        gh = compose(permutation_element(p), permutation_element(q))
        assert gh == permutation_element([p[q[i]] for i in range(4)])


def test_random_invertible_is_deterministic_and_invertible():
    a = random_invertible(3, RATIONALS, random.Random(11))
    b = random_invertible(3, RATIONALS, random.Random(11))
    assert a == b
    assert all(abs(v) <= 3 for row in a.matrix for v in row)
    c = random_invertible(3, F5, random.Random(11))
    assert c.field == F5


def test_no_variables_is_refused_not_redrawn_forever():
    """The empty matrix counts as singular, so sampling it would loop; both
    the sampler and a sampled invariance check refuse n = 0 at once, and a
    sampled check of no trials is refused before it compares nothing."""
    for field in (RATIONALS, F5):
        with pytest.raises(ValueError, match="n >= 1"):
            random_invertible(0, field, random.Random(0))
    constant = Poly(0, RATIONALS, {(): 3})
    with pytest.raises(ValueError, match="n >= 1"):
        invariance_check("term_count", constant, 2, random.Random(0))
    with pytest.raises(ValueError, match="at least one trial"):
        invariance_check("term_count", constant, 0, random.Random(0))


def test_enumerate_permutations_counts_and_guard():
    assert len(enumerate_permutations(3)) == 6
    assert len({g.matrix for g in enumerate_permutations(4)}) == 24
    with pytest.raises(InfeasibleError):
        enumerate_permutations(9)


def test_enumerate_invertible_group_orders():
    """|GL_2(F_2)| = 6 and |GL_2(F_3)| = 48."""
    assert len(enumerate_invertible(2, prime_field(2))) == 6
    assert len(enumerate_invertible(2, prime_field(3))) == 48


def test_enumerate_invertible_guards(monkeypatch):
    """n = 0, the rationals and every group above the limit are refused from
    |GL_n(F_q)| alone, without ranking a matrix."""
    ranks = []
    monkeypatch.setattr(linalg, "rank", lambda *args, **kwargs: ranks.append(args))
    with pytest.raises(ValueError, match="n >= 1"):
        enumerate_invertible(0, prime_field(2))
    with pytest.raises(ValueError, match="infinite"):
        enumerate_invertible(2, RATIONALS)
    for n, q in ((3, 7), (3, 3), (4, 2), (2, 11), (1, 10007)):
        assert gl_order(n, q) > 10_000
        with pytest.raises(InfeasibleError):
            enumerate_invertible(n, prime_field(q))
    assert ranks == []


@pytest.mark.parametrize("n, q", [(1, 2), (1, 13), (2, 2), (2, 3), (2, 5), (2, 7), (3, 2)])
def test_enumerate_invertible_is_the_lex_filter_of_all_matrices(n, q):
    """Row by row, the enumeration gives exactly the nonsingular matrices by
    cofactor expansion, in lex order of their row-major entries, with the
    same entry types, and |GL_n(F_q)| of them."""
    field = prime_field(q)
    expected = []
    for flat in itertools.product(range(q), repeat=n * n):
        rows = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if laplace_det([list(r) for r in rows]) % q != 0:
            expected.append(rows)
    got = enumerate_invertible(n, field)
    assert [g.matrix for g in got] == expected
    assert {type(v) for g in got for row in g.matrix for v in row} == {int}
    assert all(g.field == field for g in got)
    assert len(got) == gl_order(n, q)


def coeff_vector(f, basis):
    return [f.coefficient(e) for e in basis]


def test_induced_coeff_map_transports_coefficients():
    """M . coeffs(f) must equal coeffs(f after substitution), the defining law."""
    rng = random.Random(21)
    for field in (RATIONALS, F5):
        for _ in range(10):
            d = rng.choice((2, 3))
            g = rand_element(2, rng, field)
            basis = monomials_exact(2, d)
            matrix = induced_coeff_map(g, basis)
            terms = {
                e: (rng.randint(-3, 3) if field.p is None else rng.randrange(field.p))
                for e in basis
            }
            f = Poly(2, field, terms)
            moved = apply(g, f)
            column = [[v] for v in coeff_vector(f, basis)]
            assert mat_mul(matrix, column, field) == [[v] for v in coeff_vector(moved, basis)]


def test_induced_coeff_map_matrix_is_multiplicative():
    """Transport matrices compose the same way the elements do."""
    rng = random.Random(22)
    g = random_invertible(2, RATIONALS, rng)
    h = random_invertible(2, RATIONALS, rng)
    basis = monomials_exact(2, 2)
    mg = induced_coeff_map(g, basis)
    mh = induced_coeff_map(h, basis)
    mgh = induced_coeff_map(compose(g, h), basis)
    assert [list(r) for r in mgh] == mat_mul(mg, mh, RATIONALS)


def test_inhomogeneous_basis_holds_every_degree_up_to_d():
    g = linear_element([[1, 1], [0, 1]])
    basis = monomials_upto(2, 2)
    matrix = induced_coeff_map(g, basis)
    assert len(matrix) == 6  # all monomials of degree <= 2 in two variables
    f = Poly(2, RATIONALS, {(2, 0): 1, (0, 1): -3, (0, 0): 5})
    column = [[v] for v in coeff_vector(f, basis)]
    assert mat_mul(matrix, column, RATIONALS) == [[v] for v in coeff_vector(apply(g, f), basis)]
    # x0 -> x0 + x1 moves x0 off a basis that lacks x1, so the map is refused
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        induced_coeff_map(g, [(1, 0)])


def test_invariance_check_rank_measures_hold():
    rng = random.Random(31)
    for field in (RATIONALS, prime_field(7)):
        f = rand_poly(3, 3, rng, field)
        rep = invariance_check("dim_partials", f, 6, random.Random(1))
        assert rep.all_equal and rep.trials == 6 and rep.mode == "sampled"
        assert rep.values == (rep.base,) * 6


def test_invariance_check_exhaustive_mode():
    f = Poly(2, prime_field(2), {(1, 1): 1, (2, 0): 1})
    rep = invariance_check("dim_partials", f, 0, random.Random(0), exhaustive=True)
    assert rep.mode == "exhaustive"
    assert rep.trials == 6  # the whole group GL_2(F_2)
    assert rep.all_equal


def test_term_count_is_not_invariant():
    """Sparsity is basis-dependent, so the check must flag violations."""
    f = elementary_symmetric(2, 4, RATIONALS)
    rep = invariance_check("term_count", f, 5, random.Random(0))
    assert not rep.all_equal
    data = asdict(rep)
    assert data["measure"] == "term_count"
    assert data["all_equal"] is False
    assert len(data["values"]) == 5


def test_each_invertible_candidate_is_ranked_once(monkeypatch):
    ranks = []
    real_rank = linalg.rank

    def counting(*args, **kwargs):
        ranks.append(args)
        return real_rank(*args, **kwargs)

    monkeypatch.setattr(linalg, "rank", counting)
    f2 = prime_field(2)
    assert len(enumerate_invertible(2, f2)) == 6
    assert len(ranks) == 0  # built row by row, none is ranked

    draws = []

    class CountingRandom(random.Random):
        def randrange(self, *args):
            draws.append(args)
            return super().randrange(*args)

    ranks.clear()
    rng = CountingRandom(3)
    for _ in range(20):
        random_invertible(2, f2, rng)
    candidates = len(draws) // 4
    assert candidates > 20  # some draws were singular and redrawn
    assert len(ranks) == candidates
