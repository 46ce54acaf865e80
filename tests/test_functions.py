"""Tests for the named polynomial family constructors."""

import itertools
import math
import random

import pytest

from seplab import (
    InfeasibleError,
    Poly,
    RATIONALS,
    apply,
    determinant_poly,
    elementary_symmetric,
    enumerate_permutations,
    evaluate,
    from_spec,
    mod3_multilinear,
    permanent_poly,
    permutation_element,
    prime_field,
    random_dense_poly,
)

F2 = prime_field(2)


def test_elementary_symmetric_term_structure():
    """e_d on n variables has binom(n, d) squarefree terms, all coefficient 1."""
    for n in range(1, 6):
        for d in range(1, n + 1):
            f = elementary_symmetric(d, n, RATIONALS)
            assert len(f.terms) == math.comb(n, d)
            assert all(set(e) <= {0, 1} and sum(e) == d for e in f.terms)
            assert all(c == 1 for c in f.terms.values())
    with pytest.raises(ValueError):
        elementary_symmetric(0, 3)
    with pytest.raises(ValueError):
        elementary_symmetric(4, 3)


def test_elementary_symmetric_is_symmetric():
    f = elementary_symmetric(2, 4, RATIONALS)
    for g in enumerate_permutations(4):
        assert apply(g, f) == f


def test_det2_and_perm2_exact():
    """x00*x11 - x01*x10 and x00*x11 + x01*x10, variables row-major."""
    det = determinant_poly(2, RATIONALS)
    perm = permanent_poly(2, RATIONALS)
    assert det == Poly(4, RATIONALS, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    assert perm == Poly(4, RATIONALS, {(1, 0, 0, 1): 1, (0, 1, 1, 0): 1})
    assert evaluate(det, [1, 2, 3, 4]) == -2
    assert evaluate(perm, [1, 2, 3, 4]) == 10


def test_det3_perm3_share_support_and_differ_in_signs():
    det = determinant_poly(3, RATIONALS)
    perm = permanent_poly(3, RATIONALS)
    assert set(det.terms) == set(perm.terms)
    assert len(det.terms) == 6
    assert all(c == 1 for c in perm.terms.values())
    assert sorted(det.terms.values()) == [-1, -1, -1, 1, 1, 1]


def test_det_changes_sign_under_row_swap():
    """Permuting rows multiplies the determinant by the permutation sign."""
    n = 3
    det = determinant_poly(n, RATIONALS)
    for rows in itertools.permutations(range(n)):
        # variable x_{ij} sits at index i*n + j; row permutation moves it
        perm = [0] * (n * n)
        for i in range(n):
            for j in range(n):
                perm[i * n + j] = rows[i] * n + j
        g = permutation_element(perm)
        moved = apply(g, det)
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if rows[a] > rows[b]:
                    sign = -sign
        want = Poly(n * n, RATIONALS, {e: sign * c for e, c in det.terms.items()})
        assert moved == want


def test_det_perm_cap_guards():
    with pytest.raises(InfeasibleError):
        determinant_poly(7)
    with pytest.raises(InfeasibleError):
        permanent_poly(8)
    with pytest.raises(TypeError):  # the cap is DET_PERM_CAP, not a parameter
        determinant_poly(7, cap=7)
    assert len(determinant_poly(6).terms) == math.factorial(6)


def test_mod3_small_cases():
    """n = 3: the weight-divisible-by-3 indicator is 1 + sum x_i + sum x_i x_j."""
    f = mod3_multilinear(3)
    want = {(0, 0, 0): 1}
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        want[tuple(e)] = 1
    for i, j in itertools.combinations(range(3), 2):
        e = [0, 0, 0]
        e[i] = e[j] = 1
        want[tuple(e)] = 1
    assert f == Poly(3, F2, want)


def test_mod3_agrees_with_weight_predicate():
    for n in (1, 2, 4, 5):
        for residue in (0, 1, 2):
            f = mod3_multilinear(n, residue)
            assert f.field == F2
            for pt in itertools.product((0, 1), repeat=n):
                want = 1 if sum(pt) % 3 == residue else 0
                assert evaluate(f, list(pt)) == want


def test_mod3_residue_outside_0_to_2_is_refused():
    """A residue names one function only as 0, 1 or 2, and it is never part
    of the spec."""
    for residue in (3, 4, -1, -2):
        with pytest.raises(ValueError, match="residue"):
            mod3_multilinear(3, residue)
        with pytest.raises(ValueError, match="residue"):
            from_spec("mod3:3", mod3_residue=residue)
    for residue in (0, 1, 2, 3):
        with pytest.raises(ValueError, match="residue"):
            from_spec(f"mod3:3,{residue}")


def test_random_dense_poly_hits_every_monomial():
    rng = random.Random(5)
    f = random_dense_poly(3, 2, rng)
    assert len(f.terms) == math.comb(3 + 2, 2)
    assert f.field == RATIONALS
    g = random_dense_poly(3, 2, random.Random(5))
    assert g == f
    h = random_dense_poly(2, 3, random.Random(9), prime_field(7))
    assert all(1 <= c <= 6 for c in h.terms.values())


def test_from_spec_round_trips():
    assert from_spec("esym:2,4") == elementary_symmetric(2, 4, RATIONALS)
    assert from_spec("det:2") == determinant_poly(2, RATIONALS)
    assert from_spec("perm:3") == permanent_poly(3, RATIONALS)
    assert from_spec("mod3:3") == mod3_multilinear(3)
    assert from_spec("mod3:3", mod3_residue=2) == mod3_multilinear(3, 2)
    a = from_spec("rand:3,2,77")
    b = from_spec("rand:3,2,77")
    assert a == b and len(a.terms) == math.comb(5, 2)
    c = from_spec("rand:3,2,78")
    assert c != a


def test_from_spec_field_handling():
    f7 = prime_field(7)
    assert from_spec("esym:2,4", f7).field == f7
    with pytest.raises(ValueError):
        from_spec("mod3:3", f7)
    with pytest.raises(ValueError):
        from_spec("esym:2")
    with pytest.raises(ValueError):
        from_spec("unknown:1")
    with pytest.raises(ValueError):
        from_spec("esym:a,b")
