"""Tests for truth tables, low-degree distance, and F_q function subspaces."""

import itertools
import random
from dataclasses import asdict
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_monomial_pow, gray_walk, gray_walk_distance, naive_distance
from seplab import (
    InfeasibleError,
    Poly,
    RATIONALS,
    determinant_poly,
    distance_to_degree,
    format_table,
    function_monomials,
    gk_intersection_test,
    grlex_key,
    gl_points,
    identity_element,
    intersect_all,
    linear_element,
    mod3_multilinear,
    monomials_upto,
    multilinear_to_truth_table,
    parse_table,
    prime_field,
    reduce_pointwise,
    span,
    truth_table,
    truth_table_to_multilinear,
    vanishing_ideal_basis,
    zero,
)
from seplab import f2lab, linalg
from seplab.f2lab import TruthTable, index_point, point_index, table_from_int
from seplab.poly import evaluate

F2 = prime_field(2)
F3 = prime_field(3)


def rand_table(n, rng):
    return TruthTable(n, tuple(rng.randrange(2) for _ in range(1 << n)))


def rand_subspace(q, monomials, rng, nrows):
    rows = [{e: rng.randrange(q) for e in monomials} for _ in range(nrows)]
    return span(rows, prime_field(q), monomials)


def polynomials(sub, n):
    return [Poly(n, sub.field, t) for t in sub.term_maps()]


def test_point_indexing_round_trip():
    """The first variable is the most significant index bit."""
    assert point_index((1, 0), 2) == 2
    assert point_index((0, 1), 2) == 1
    for n in (1, 2, 4):
        for idx in range(1 << n):
            assert point_index(index_point(idx, n), n) == idx


def test_truth_table_validation_and_packing():
    with pytest.raises(ValueError):
        TruthTable(2, (0, 1, 0))
    with pytest.raises(ValueError):
        TruthTable(1, (0, 2))
    t = truth_table(2, lambda pt: pt[0] and pt[1])
    assert t.bits == (0, 0, 0, 1)
    assert sum(t.bits) == 1
    assert t.as_int() == 8
    assert table_from_int(2, 8) == t


def test_and_table_becomes_the_product_monomial():
    t = truth_table(2, lambda pt: pt[0] and pt[1])
    assert truth_table_to_multilinear(t) == Poly(2, F2, {(1, 1): 1})


def test_parity_table_becomes_the_sum_of_variables():
    t = truth_table(3, lambda pt: sum(pt) % 2)
    want = {tuple(1 if j == i else 0 for j in range(3)): 1 for i in range(3)}
    assert truth_table_to_multilinear(t) == Poly(3, F2, want)


def test_moebius_transform_round_trips():
    """table -> multilinear -> table is the identity, exhaustively for n <= 3."""
    for n in (1, 2, 3):
        for word in range(1 << (1 << n)):
            t = table_from_int(n, word)
            f = truth_table_to_multilinear(t)
            assert multilinear_to_truth_table(f) == t
    rng = random.Random(14)
    for _ in range(50):
        t = rand_table(6, rng)
        assert multilinear_to_truth_table(truth_table_to_multilinear(t)) == t


def _list_subset_transform(values, n):
    """Reference Moebius transform: out[m] = XOR of values[m'] over submasks m'."""
    arr = list(values)
    for j in range(n):
        step = 1 << j
        for m in range(len(arr)):
            if m & step:
                arr[m] ^= arr[m ^ step]
    return arr


def test_packed_moebius_transform_matches_list_version_and_is_an_involution():
    rng = random.Random(16)
    for n in range(13):
        size = 1 << n
        words = [0, (1 << size) - 1, 1, 1 << (size - 1)] + [rng.getrandbits(size) for _ in range(3)]
        for word in words:
            bits = table_from_int(n, word).bits
            assert table_from_int(n, word).as_int() == word
            moved = f2lab._xor_subset_transform(word, n)
            assert table_from_int(n, moved).bits == tuple(_list_subset_transform(bits, n))
            assert f2lab._xor_subset_transform(moved, n) == word


def test_multilinear_polynomial_computes_its_table():
    rng = random.Random(15)
    for _ in range(20):
        t = rand_table(3, rng)
        f = truth_table_to_multilinear(t)
        assert all(v <= 1 for e in f.terms for v in e)
        for idx in range(8):
            pt = index_point(idx, 3)
            assert evaluate(f, list(pt)) == t.bits[idx]


def test_table_conversion_rejects_bad_inputs():
    with pytest.raises(ValueError):
        multilinear_to_truth_table(Poly(2, RATIONALS, {(1, 1): 1}))
    with pytest.raises(ValueError):
        multilinear_to_truth_table(Poly(2, F2, {(2, 0): 1}))


def test_format_parse_round_trip():
    rng = random.Random(16)
    t = rand_table(4, rng)
    text = format_table(t)
    assert text.startswith("n=4\n")
    assert parse_table(text) == t
    with pytest.raises(ValueError):
        parse_table("4\n0101\n")
    with pytest.raises(ValueError):
        parse_table("n=2\n01x1\n")


def test_distance_zero_when_degree_allows_everything():
    rng = random.Random(17)
    t = rand_table(3, rng)
    rep = distance_to_degree(t, 3)
    assert rep.distance == 0
    assert multilinear_to_truth_table(rep.witness) == t
    assert rep.agreement() == 8


def test_parity_is_maximally_far_from_constants():
    t = truth_table(4, lambda pt: sum(pt) % 2)
    rep = distance_to_degree(t, 0)
    assert rep.distance == 8
    assert rep.candidates == 2


def test_mod3_distance_frozen_example():
    """The weight-mod-3 indicator on 3 bits sits at distance 2 from degree 1."""
    t = multilinear_to_truth_table(mod3_multilinear(3))
    rep = distance_to_degree(t, 1)
    assert rep.distance == 2
    assert rep.witness.is_zero  # the zero function already agrees on 6 points
    assert sum(t.bits) == 2


def test_distance_matches_naive_oracle():
    rng = random.Random(18)
    for n in (1, 2, 3):
        for d in range(0, 3):
            for _ in range(4):
                t = rand_table(n, rng)
                rep = distance_to_degree(t, d)
                assert rep.distance == naive_distance(list(t.bits), n, d)
                w = multilinear_to_truth_table(rep.witness)
                assert rep.witness.degree <= d
                hamming = sum(a != b for a, b in zip(w.bits, t.bits))
                assert hamming == rep.distance


def assert_matches_gray_walk(t, d):
    rep = distance_to_degree(t, d)
    dist, witness = gray_walk_distance(t.bits, t.n, d)
    assert (rep.distance, set(rep.witness.terms)) == (dist, witness), (t.n, d)
    assert rep.candidates == 1 << sum(comb(t.n, i) for i in range(min(d, t.n) + 1))


@st.composite
def tables_near_codes(draw):
    """(table, d) with n <= 10 and at most 2^16 codewords: a random table, or
    a random codeword with a few bits flipped (so small distances, ties
    between far-apart codewords and the early exit at 0 all occur)."""
    n = draw(st.integers(0, 10))
    sizes = [sum(comb(n, i) for i in range(d + 1)) for d in range(n + 1)]
    d = draw(st.sampled_from([d for d in range(n + 1) if sizes[d] <= 16]))
    size = 1 << n
    if draw(st.booleans()):
        return table_from_int(n, draw(st.integers(0, (1 << size) - 1))), d
    chosen = draw(st.sets(st.sampled_from(function_monomials(n, 2, d))))
    word = multilinear_to_truth_table(Poly(n, F2, {e: 1 for e in chosen})).as_int()
    for idx in draw(st.lists(st.integers(0, size - 1), max_size=3)):
        word ^= 1 << idx
    return table_from_int(n, word), d


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tables_near_codes())
def test_distance_and_witness_match_gray_walk(case):
    assert_matches_gray_walk(*case)


def test_distance_and_witness_match_gray_walk_at_every_size():
    """One table for every n <= 10 and d with at most 2^16 codewords; more at
    n=5, 6 and d=2 (many lanes and outer steps); n=16 at d <= 1 (one
    2^16-bit lane per pass)."""
    rng = random.Random(19)
    cases = [
        (n, d, 1)
        for n in range(11)
        for d in range(n + 1)
        if sum(comb(n, i) for i in range(d + 1)) <= 16
    ]
    cases += [(5, 2, 3), (6, 2, 2), (16, 0, 1), (16, 1, 1)]
    for n, d, count in cases:
        for _ in range(count):
            assert_matches_gray_walk(rand_table(n, rng), d)


@pytest.mark.parametrize(
    "n,d",
    [(0, 0), (1, 0), (3, 0), (3, 1), (4, 2), (6, 1), (8, 1), (16, 0),
     (7, 1), (14, 1), (15, 1)],
)
def test_distance_and_witness_on_edge_tables(n, d):
    """Zero, all-ones and parity; a balanced table, whose pair of constants
    ties at c = 2^n/2 when d = 0; and a codeword (early exit at 0).  At
    d >= 1 the transform counts in 8-bit fields up to n = 6, 16-bit fields
    from n = 7 to 14 and 32-bit fields above."""
    size = 1 << n
    codeword = multilinear_to_truth_table(
        Poly(n, F2, {e: 1 for e in function_monomials(n, 2, d)[1::2]})
    )
    for t in (
        table_from_int(n, 0),
        table_from_int(n, (1 << size) - 1),
        truth_table(n, lambda pt: sum(pt) % 2),
        table_from_int(n, (1 << (size // 2)) - 1),
        codeword,
    ):
        assert_matches_gray_walk(t, d)


def affine_distances(word, n):
    """Distance from a packed table to each affine word a.x + c, indexed by
    the Gray word bits a << 1 | c of the code's constant and x_n .. x_1."""
    size = 1 << n
    dists = {}
    for a in range(size):
        linear = sum(1 << x for x in range(size) if (a & x).bit_count() % 2)
        dists[a << 1] = (word ^ linear).bit_count()
        dists[a << 1 | 1] = size - dists[a << 1]
    return dists


def xor_selected(tables, bits):
    word = 0
    for i, t in enumerate(tables):
        if bits >> i & 1:
            word ^= t
    return word


def test_first_witness_among_tied_affine_words():
    """Tables with several affine words at the minimum, balanced ones among
    them, against the plain Gray walk.  At d = 1 the only walked word is 0.
    At d = 2 and n <= 5 two affine words tie within one walked word only at
    distance >= 2^(n-2), beyond the covering radius of the degree-2 code
    (1, 2 and 6 for n = 3, 4, 5), so those tables tie across walked words."""
    rng = random.Random(29)
    tied = balanced = 0
    for n in (3, 4, 5):
        size = 1 << n
        var = [truth_table(n, lambda pt, i=i: pt[i]).as_int() for i in range(n)]
        forms = [var[0] & var[1], var[0] & var[1] ^ var[2], var[0] & var[1] & var[2]]
        if n >= 4:
            forms += [var[0] & var[1] ^ var[2] & var[3], var[0] & var[1] & var[2] ^ var[3]]
        forms.append(sum(1 << x for x in rng.sample(range(size), size // 2)))
        for d in (1, 2):
            code = function_monomials(n, 2, d)
            for form in forms:
                for _ in range(3):
                    shift = Poly(n, F2, {e: 1 for e in code if rng.random() < 0.5})
                    word = form ^ multilinear_to_truth_table(shift).as_int()
                    t = table_from_int(n, word)
                    assert_matches_gray_walk(t, d)
                    balanced += word.bit_count() == size // 2
                    if d == 1:
                        dists = affine_distances(word, n).values()
                        tied += list(dists).count(min(dists)) >= 2
    assert tied >= 30 and balanced >= 20


@pytest.mark.parametrize("pack_bits", [f2lab._PACK_BITS, 512])
def test_first_witness_among_tied_affine_words_of_either_walked_parity(
    monkeypatch, pack_bits
):
    """Walked words that are random tables, not monomials, so that affine
    words tie within the first walked word at the minimum, for a Gray index
    P of either parity (its affine block runs backwards when P is odd).  A
    2^9-bit pass holds two 256-bit lanes, so outer steps and the reflected
    lane copy run as well."""
    monkeypatch.setattr(f2lab, "_PACK_BITS", pack_bits)
    n = 5
    rng = random.Random(31)
    affine = f2lab._monomial_tables(n, function_monomials(n, 2, 1))
    x1x2 = affine[n] & affine[n - 1]  # weight 8, and four affine words at 8
    parities = set()
    for _ in range(60):
        walked = [rng.getrandbits(1 << n) for _ in range(3)]
        tables = affine + walked
        p = rng.randrange(8)
        target = xor_selected(walked, p ^ p >> 1) ^ x1x2 ^ affine[rng.randrange(1, n + 1)]
        got = f2lab._nearest_codeword(n, tables, target)
        assert got == gray_walk(tables, target)
        dist, word = got
        q = xor_selected(walked, word >> (n + 1))
        if list(affine_distances(target ^ q, n).values()).count(dist) >= 2:
            parities.add(bin(word >> (n + 1)).count("1") % 2)
    assert parities == {0, 1}


def test_distance_guards():
    t = rand_table(3, random.Random(1))
    with pytest.raises(ValueError):
        distance_to_degree(t, -1)
    wide = TruthTable(17, (0,) * (1 << 17))
    with pytest.raises(InfeasibleError):
        distance_to_degree(wide, 0)
    big_code = TruthTable(16, (0,) * (1 << 16))
    with pytest.raises(InfeasibleError):
        distance_to_degree(big_code, 2)


def test_reduce_pointwise_identities():
    f = Poly(1, F2, {(3,): 1})
    assert reduce_pointwise(f) == Poly(1, F2, {(1,): 1})
    g = Poly(2, F3, {(4, 0): 2, (2, 0): 1})  # x^4 + ... reduces onto x^2
    red = reduce_pointwise(g)
    assert red.degree <= 2 * 2
    for pt in itertools.product(range(3), repeat=2):
        assert evaluate(g, list(pt)) == evaluate(red, list(pt))
    assert reduce_pointwise(red) == red
    with pytest.raises(ValueError):
        reduce_pointwise(Poly(1, RATIONALS, {(3,): 1}))


def test_reduce_pointwise_preserves_values_randomly():
    rng = random.Random(19)
    for _ in range(10):
        terms = {}
        for e in monomials_upto(2, 5):
            if rng.random() < 0.5:
                terms[e] = rng.randrange(3)
        f = Poly(2, F3, terms)
        red = reduce_pointwise(f)
        assert all(v <= 2 for e in red.terms for v in e)
        for pt in itertools.product(range(3), repeat=2):
            assert evaluate(f, list(pt)) == evaluate(red, list(pt))


def test_function_monomials_equal_the_filtered_product():
    """Generating only the wanted tuples gives exactly the old filter of all
    q^m tuples, for every (m, q, d) with q^m <= 4096."""
    for q in (2, 3, 5, 7, 11, 13, 17, 31, 61):
        m = 0
        while q**m <= 4096:
            every = sorted(itertools.product(range(q), repeat=m), key=grlex_key)
            for d in range(-1, m * (q - 1) + 2):
                assert function_monomials(m, q, d) == [e for e in every if sum(e) <= d]
            m += 1


def test_function_monomials_counts():
    assert function_monomials(2, 2, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(function_monomials(2, 3, 4)) == 9
    assert len(function_monomials(4, 2, 4)) == 16
    assert len(function_monomials(4, 2, 1)) == 5


def test_vanishing_ideal_of_the_full_cube_is_zero():
    points = list(itertools.product((0, 1), repeat=2))
    ideal = vanishing_ideal_basis(points, 2, 2)
    assert ideal.dim == 0


def test_vanishing_ideal_of_the_origin():
    ideal = vanishing_ideal_basis([(0, 0)], 1, 2)
    assert ideal.dim == 2
    for f in polynomials(ideal, 2):
        assert evaluate(f, [0, 0]) == 0


@pytest.mark.parametrize("q", [2, 3, 5])
def test_vanishing_ideal_rows_match_the_pow_oracle(q, monkeypatch):
    """The parent-table evaluation rows equal one pow per variable, at every
    degree cap, on points with zero (and out-of-range) coordinates."""
    rng = random.Random(q)
    m = 3
    points = [tuple(rng.randrange(q) for _ in range(m)) for _ in range(5)]
    points += [(0, 0, 0), (0, 1, 0), (q - 1, 0, q - 1), (-1, q + 1, 2 * q)]
    seen = []
    original = linalg.kernel

    def recording(rows, field, cols):
        seen.append(rows)
        return original(rows, field, cols)

    monkeypatch.setattr(linalg, "kernel", recording)
    for cap in range(m * (q - 1) + 1):
        seen.clear()
        vanishing_ideal_basis(points, cap, q)
        monomials = function_monomials(m, q, cap)
        assert seen == [[[eval_monomial_pow(pt, e, q) for e in monomials] for pt in points]]


def test_vanishing_ideal_of_invertible_matrices_frozen_dim():
    """6 invertible points inside F_2^4 leave a 10-dimensional ideal."""
    pts = gl_points(2, 2)
    assert len(pts) == 6
    ideal = vanishing_ideal_basis(pts, 4, 2)
    assert ideal.dim == 10
    for f in polynomials(ideal, 4):
        for pt in pts:
            assert evaluate(f, list(pt)) == 0


def test_subspace_intersection_elementary_cases():
    monos = function_monomials(2, 2, 2)
    rng = random.Random(20)
    full = rand_subspace(2, monos, rng, 10)
    while full.dim < 4:
        full = rand_subspace(2, monos, rng, 10)
    a = rand_subspace(2, monos, rng, 2)
    empty = span([], F2, monos)
    assert a.intersect(full).basis == a.basis
    assert a.intersect(empty).dim == 0
    assert a.intersect(a).basis == a.basis


def test_subspace_intersection_is_commutative_and_bounded():
    rng = random.Random(21)
    for q in (2, 3):
        monos = function_monomials(2, q, 2 * (q - 1))
        for _ in range(15):
            a = rand_subspace(q, monos, rng, rng.randint(1, 4))
            b = rand_subspace(q, monos, rng, rng.randint(1, 4))
            ab = a.intersect(b)
            ba = b.intersect(a)
            assert ab.basis == ba.basis
            assert ab.dim <= min(a.dim, b.dim)


def test_intersect_all_strategies_agree():
    rng = random.Random(22)
    for q in (2, 3):
        monos = function_monomials(2, q, 2 * (q - 1))
        for _ in range(10):
            subs = [
                rand_subspace(q, monos, rng, rng.randint(1, 5))
                for _ in range(rng.randint(1, 4))
            ]
            pair = intersect_all(subs, "pairwise")
            stack = intersect_all(subs, "stacked")
            assert pair.basis == stack.basis
    with pytest.raises(ValueError):
        intersect_all([], "pairwise")
    with pytest.raises(ValueError):
        intersect_all([rand_subspace(2, function_monomials(1, 2, 1), rng, 1)], "magic")


def test_subspace_from_polys_rejects_monomials_outside_the_basis():
    monos = function_monomials(2, 2, 1)
    with pytest.raises(ValueError):
        span([Poly(2, F2, {(1, 1): 1}).terms], F2, monos)


def test_subspace_ambient_mismatch_rejected():
    a = span([], F2, function_monomials(2, 2, 2))
    b = span([], F2, function_monomials(2, 2, 1))
    with pytest.raises(ValueError):
        a.intersect(b)


def test_gl_points_are_the_invertible_matrices():
    pts = gl_points(2, 2)
    assert len(pts) == 6
    assert all(len(p) == 4 for p in pts)
    assert (1, 0, 0, 1) in pts
    assert (1, 1, 1, 1) not in pts  # singular
    assert len(gl_points(2, 3)) == 48


def test_gk_determinant_frozen_outcome():
    """det_2 over F_2 with the whole group: a 5-dimensional common span that
    meets the vanishing ideal trivially."""
    det = determinant_poly(2, F2)
    sigmas = [linear_element(pt_rows, F2) for pt_rows in (
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[1, 1], [0, 1]],
        [[1, 0], [1, 1]],
        [[0, 1], [1, 1]],
        [[1, 1], [1, 0]],
    )]
    reports = gk_intersection_test(det, 1, sigmas)
    for strategy in ("pairwise", "stacked"):
        rep = reports[strategy]
        assert rep.lambda_dim == 5
        assert rep.intersection_dim == 0
        assert not rep.property_holds
        assert rep.sigma_count == 6 and rep.r == 1 and rep.q == 2
    data = asdict(rep)
    assert data["strategy"] == "stacked"
    assert data["max_degree"] == 4


def test_gk_positive_construction():
    """A function taken from the vanishing ideal itself passes the test."""
    ideal = vanishing_ideal_basis(gl_points(2, 2), 4, 2)
    f = polynomials(ideal, 4)[0]
    for rep in gk_intersection_test(f, 0, [identity_element(2, F2)]).values():
        assert rep.lambda_dim == 1
        assert rep.intersection_dim == 1
        assert rep.property_holds


def test_gk_builds_the_vanishing_ideal_once_for_both_strategies(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return vanishing_ideal_basis(*args)

    intersections = []

    def counting_intersect(*args):
        intersections.append(args)
        return intersect_all(*args)

    monkeypatch.setattr(f2lab, "vanishing_ideal_basis", counting)
    monkeypatch.setattr(f2lab, "intersect_all", counting_intersect)
    reports = gk_intersection_test(
        determinant_poly(2, F3), 1, [identity_element(2, F3)]
    )
    assert len(calls) == 1
    # the twisted spans, then the ideal, once per strategy
    assert len(intersections) == 2 * len(f2lab.STRATEGIES) == 4
    assert tuple(reports) == f2lab.STRATEGIES
    assert asdict(reports["pairwise"]) == {
        **asdict(reports["stacked"]),
        "strategy": "pairwise",
    }


def test_gk_zero_polynomial_fails_cleanly():
    """The zero polynomial spans nothing under any twist, the whole group
    GL_2(F_q) included: lambda and the intersection are 0."""
    for fld, sigmas, count in [
        (F2, [identity_element(2, F2)], 1), (F2, None, 6), (F3, None, 48),
    ]:
        q = fld.p
        reports = gk_intersection_test(zero(4, fld), 1, sigmas)
        assert tuple(reports) == f2lab.STRATEGIES
        for strategy, rep in reports.items():
            assert asdict(rep) == {
                "n": 2, "q": q, "r": 1, "max_degree": 4 * (q - 1), "sigma_count": count,
                "strategy": strategy, "lambda_dim": 0, "intersection_dim": 0,
                "property_holds": False,
            }


def test_gk_validation_and_guards():
    det = determinant_poly(2, F2)
    with pytest.raises(ValueError):
        gk_intersection_test(determinant_poly(2, RATIONALS), 1, [])
    with pytest.raises(ValueError):
        gk_intersection_test(det, 1, [])
    with pytest.raises(ValueError):
        gk_intersection_test(Poly(3, F2, {(1, 1, 1): 1}), 1, [identity_element(2, F2)])
    with pytest.raises(ValueError):
        gk_intersection_test(det, -1, [identity_element(2, F2)])
    for twist in (identity_element(3, F2), identity_element(2, F3)):
        with pytest.raises(ValueError, match="twists"):  # wrong size, wrong field
            gk_intersection_test(det, 1, [twist])
    f11 = prime_field(11)
    with pytest.raises(InfeasibleError):
        gk_intersection_test(
            Poly(4, f11, {(1, 0, 0, 0): 1}), 1, [identity_element(2, f11)]
        )
    with pytest.raises(ValueError):
        gk_intersection_test(det, 1, [identity_element(2, F2)], max_degree=1)
