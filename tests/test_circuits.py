"""Tests for the easy-class circuit samplers and bound checks."""

import hashlib
import json
import random
from fractions import Fraction
from operator import add as add_exponents

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seplab import (
    Depth4Circuit,
    Poly,
    RATIONALS,
    add,
    dim_partials,
    expand,
    monomial,
    multiply,
    negate,
    poly_to_json,
    prime_field,
    sample_depth3,
    sample_depth4,
    sampler_from_spec,
    trial_rng,
    verify_nw_bound,
)
from seplab.poly import linear_form

F5 = prime_field(5)


def sigma_pi_sigma(n, *products, field=RATIONALS):
    """The t = 1 circuit whose products multiply the linear forms with the
    given coefficient tuples."""
    return Depth4Circuit(
        n, field, 1, tuple(tuple(linear_form(f, field) for f in prod) for prod in products)
    )


def test_expand_difference_of_squares():
    """(x + y)(x - y) expands to x^2 - y^2."""
    c = sigma_pi_sigma(2, ((1, 1), (1, -1)))
    assert expand(c) == Poly(2, RATIONALS, {(2, 0): 1, (0, 2): -1})


def test_expand_sums_products():
    c = sigma_pi_sigma(2, ((1, 0), (0, 1)), ((1, 0), (1, 0)))
    assert expand(c) == Poly(2, RATIONALS, {(1, 1): 1, (2, 0): 1})


def test_expand_is_additive_over_gates():
    """Concatenating the product lists adds the expansions."""
    rng = random.Random(3)
    a = sample_depth3(3, 2, 2, RATIONALS, rng)
    b = sample_depth3(3, 2, 1, RATIONALS, rng)
    joint = Depth4Circuit(3, RATIONALS, 1, a.summands + b.summands)
    assert expand(joint) == add(expand(a), expand(b))


FIELDS = (RATIONALS, prime_field(2), prime_field(7), prime_field(2**31 - 1))
# halves and their negatives, so that products and sums cancel to 0 and reach
# integral values such as 1/2 * 2
Q_SCALARS = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(2, 3))


@st.composite
def circuits(draw):
    """A circuit over one of FIELDS with t = 1 or 2, n = 0..3 and one to
    three summands of one to three factors."""
    field, n, t = draw(st.sampled_from(FIELDS)), draw(st.integers(0, 3)), draw(st.integers(1, 2))
    exponents = st.tuples(*[st.integers(0, t)] * n).filter(lambda e: sum(e) <= t)
    scalars = (
        st.sampled_from(Q_SCALARS) if field.p is None else st.integers(-2 * field.p, 2 * field.p)
    )
    factor = st.builds(
        lambda terms: Poly(n, field, terms),
        st.dictionaries(exponents, scalars, min_size=1, max_size=4),
    ).filter(lambda f: not f.is_zero)
    summands = draw(st.lists(st.lists(factor, min_size=1, max_size=3), min_size=1, max_size=3))
    return Depth4Circuit(n, field, t, tuple(map(tuple, summands)))


def reference_product(n, field, factors):
    """The product factor by factor, each step through the validating constructor."""
    product = Poly(n, field, {(0,) * n: 1})
    for g in factors:
        terms = {}
        for e1, c1 in product.terms.items():
            for e2, c2 in g.terms.items():
                e = tuple(map(add_exponents, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        product = Poly(n, field, terms)
    return product


def reference_sum(f, g):
    terms = dict(f.terms)
    for e, c in g.terms.items():
        terms[e] = terms.get(e, 0) + c
    return Poly(f.n, f.field, terms)


def assert_same(f, g):
    """Equal rings, term maps and coefficient types."""
    assert (f.n, f.field, f.terms) == (g.n, g.field, g.terms)
    assert {e: type(c) for e, c in f.terms.items()} == {e: type(c) for e, c in g.terms.items()}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(circuits())
@example(  # 1/2 x * 2 x - x * x: an integral product, then a sum that cancels
    Depth4Circuit(1, RATIONALS, 1, (
        (monomial((1,), Fraction(1, 2)), monomial((1,), 2)),
        (monomial((1,), -1), monomial((1,), 1)),
    ))
)
@example(sigma_pi_sigma(2, ((1, 1), (1, 1)), field=prime_field(2)))  # 2xy is 0 in F_2
def test_products_sums_and_expansions_match_factor_by_factor_references(circuit):
    """multiply of a summand's factors (with a zero factor: 0), add of the
    running sum and the product, and expand of the circuit agree with the
    references, coefficient types included."""
    n, field = circuit.n, circuit.field
    nothing = Poly(n, field, {})
    total = nothing
    for factors in circuit.summands:
        product = multiply(*factors)
        assert_same(product, reference_product(n, field, factors))
        assert_same(multiply(*factors, nothing), nothing)
        assert_same(add(product, negate(product)), nothing)
        assert_same(add(total, product), reference_sum(total, product))
        total = reference_sum(total, product)
    assert_same(expand(circuit), total)


def test_circuit_validation():
    """Zero, empty and wrong-ring circuits are refused; a ragged fan-in is a
    valid ΣΠΣ circuit, whose formal degree d is its largest product's."""
    with pytest.raises(ValueError):
        sigma_pi_sigma(2)
    with pytest.raises(ValueError):
        sigma_pi_sigma(2, ())
    with pytest.raises(ValueError):
        sigma_pi_sigma(2, ((0, 0), (0, 1)))
    with pytest.raises(ValueError):
        sigma_pi_sigma(2, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        Depth4Circuit(2, RATIONALS, 1, ((linear_form((1, 2), F5),),))
    ragged = sigma_pi_sigma(2, ((1, 0), (0, 1)), ((1, 0),))
    assert (ragged.s, ragged.d) == (2, 2)
    assert expand(ragged) == Poly(2, RATIONALS, {(1, 1): 1, (1, 0): 1})


def test_sample_depth3_shape_and_determinism():
    for field in (RATIONALS, F5):
        c = sample_depth3(4, 3, 2, field, random.Random(7))
        assert (c.n, c.d, c.s, c.t) == (4, 3, 2, 1)
        for factors in c.summands:
            assert len(factors) == 3
            assert all(f.degree == 1 and f.is_homogeneous for f in factors)
        assert expand(c).degree == 3
        again = sample_depth3(4, 3, 2, field, random.Random(7))
        assert c == again
    with pytest.raises(ValueError):
        sample_depth3(0, 1, 1, RATIONALS, random.Random(0))


# sha256 of the sorted-key JSON of each expansion of trial_rng(seed, 0)'s
# sample, seeds 0-4, recorded while depth-3 circuits were a type of their own
# that held coefficient tuples: the one circuit type draws the same scalars
PINNED_EXPANSIONS = {
    ("depth3:8,4,1", "Q"): [
        "0a9329fd852011f6f447d15945396eef0ef7a577f14d59d9e20b25aea9b47e04",
        "be98aec1a3bfd187af1997b9cbe6b4f810f2c677312bb54e3d8a5df10603c999",
        "22dc6892d8259b4607be16e3286e62260a8d89a711e197349756432dd0739558",
        "51f9f37b4f48fdf77086882af03b3d48e629cc8a188e80c8f6b2b46bd9ac4491",
        "aecc189c0215ffa2b8c83d11a5ce31b7bc556fa2bf96aa9f6791ca48b9f95bad",
    ],
    ("depth3:8,3,1", "Q"): [
        "42142a84a52dc10ffc8a4922553bd756e50b5d4ae57516181da423b9bb19b572",
        "f6eced1b80a44daab0acf627f87234983526bd577fc7d1eda0a43dc8430c0e25",
        "72768a6a8e55952b05a48d6d2d139de1966152268d62c011f671122f6392cb01",
        "ba25cb174f932208edd30f96673c04921e6693a69246434f1d1b033416912635",
        "0a99397629af6ae4dde3313a42ebd79fe36c0e27a3ecbb9ec4a37c44159f8beb",
    ],
    ("depth3:4,3,2", "Q"): [
        "6f3383fca71a5a3d93680b1244820aaa76fe49c08f6da9e9081df13c955b7e7b",
        "2f29aef7b5c6d2bfa87ebba24bdf1509144dc0a79253f83c586fc6b95133b980",
        "6e77e045ba0eba4325d96fd5bed251304b408b7e6ca8b9a6bad04ec1245b8e50",
        "6b116c15bc08af4609258fab74423464e3ef9379f37fb6be868666c732f7ef07",
        "16e93105f06257ef56c362cbf9de4f1ac7cab62e3b9d99abd83f85e7529d7ada",
    ],
    ("depth3:4,3,2", "Fp:5"): [
        "0b10f42b53a970e2c6a669eca3bc32320c502270b8d587474b98280fbf2b72c0",
        "513ce4863f4f58d6ef2c62facc09705e46491a0ac094a923cbebac529d52a284",
        "1867f91f2d565887ae2164e3f93ba66bf3f7ae5b9c1caf8709d311d043f8157c",
        "6ce6630820f82d33ff3cf5d50d8824ec4ed0098371c016f2ad83f2da11c6f921",
        "e43bb0db0313b1b1383be77a99c9c4d49ceb9894ea1d240ae6e41e343dc39b27",
    ],
}


@pytest.mark.parametrize("spec, field", sorted(PINNED_EXPANSIONS), ids=lambda x: x)
def test_sampled_depth3_expansions_match_the_pinned_digests(spec, field):
    sampler = sampler_from_spec(spec, F5 if field == "Fp:5" else RATIONALS)
    digests = [
        hashlib.sha256(
            json.dumps(poly_to_json(expand(sampler.sample(trial_rng(seed, 0)))), sort_keys=True)
            .encode()
        ).hexdigest()
        for seed in range(5)
    ]
    assert digests == PINNED_EXPANSIONS[spec, field]


def test_sample_depth4_structure():
    rng = random.Random(11)
    c = sample_depth4(3, 7, 2, 3, RATIONALS, rng)
    assert (c.s, c.t, c.d) == (2, 3, 7)
    for factors in c.summands:
        assert all(f.degree <= 3 for f in factors)
        assert sum(f.degree for f in factors) == 7
    assert expand(c).degree == 7
    with pytest.raises(ValueError):
        sample_depth4(3, 2, 1, 5, RATIONALS, rng)


def test_depth4_validation():
    x2 = Poly(2, RATIONALS, {(2, 0): 1})
    with pytest.raises(ValueError):
        Depth4Circuit(2, RATIONALS, 1, ((x2,),))  # degree above the bound
    with pytest.raises(ValueError):
        Depth4Circuit(2, RATIONALS, 2, ((Poly(2, RATIONALS, {}),),))
    with pytest.raises(ValueError):
        Depth4Circuit(2, RATIONALS, 2, ())


def test_nw_bound_frozen_examples():
    """xy as one product of two forms: span 4 <= budget 1 * 2^2; a constant
    factor adds nothing to the formal degree."""
    xy = sigma_pi_sigma(2, ((1, 0), (0, 1)))
    rep = verify_nw_bound(xy)
    assert (rep.dimension, rep.bound, rep.ok) == (4, 4, True)
    single = sigma_pi_sigma(2, ((1, 2),))
    rep2 = verify_nw_bound(single)
    assert (rep2.dimension, rep2.bound, rep2.ok) == (2, 2, True)
    scaled = Depth4Circuit(2, RATIONALS, 1, ((monomial((0, 0), 3), linear_form((1, 2), RATIONALS)),))
    assert (verify_nw_bound(scaled).dimension, verify_nw_bound(scaled).bound) == (2, 2)


def test_nw_bound_holds_for_sampled_circuits():
    rng = random.Random(17)
    for field in (RATIONALS, F5):
        for _ in range(10):
            c = sample_depth3(4, 3, 2, field, rng)
            rep = verify_nw_bound(c)
            assert rep.ok
            assert rep.dimension == dim_partials(expand(c))


def test_nw_bound_holds_for_affine_factors_and_is_refused_above_t_1():
    """A t = 1 depth-4 sample multiplies dense affine forms, constant terms
    included; every derivative of such a product still lies in the span of
    its sub-products, so s * 2^d bounds the span.  For t = 2 the budget
    does not hold, and the check refuses."""
    checked = 0
    for field in (RATIONALS, F5, prime_field(2)):
        for seed in range(12):
            rng = trial_rng(2300, seed)
            n, deg, s = 2 + seed % 3, 1 + seed % 4, 1 + seed % 2
            c = sample_depth4(n, deg, s, 1, field, rng)
            assert c.d == deg and not all(f.is_homogeneous for fs in c.summands for f in fs)
            rep = verify_nw_bound(c)
            assert rep.ok and rep.bound == s << deg, (field.name, seed, rep)
            checked += 1
        with pytest.raises(ValueError, match="t = 1"):
            verify_nw_bound(sample_depth4(3, 4, 1, 2, field, trial_rng(2300, 99)))
    assert checked == 36


def test_sampler_specs():
    s3 = sampler_from_spec("depth3:4,2,3")
    assert s3.describe() == "depth3:4,2,3"
    c = s3.sample(random.Random(1))
    assert isinstance(c, Depth4Circuit) and (c.n, c.d, c.s, c.t) == (4, 2, 3, 1)
    s4 = sampler_from_spec("depth4:5,6,2,3", F5)
    c4 = s4.sample(random.Random(2))
    assert isinstance(c4, Depth4Circuit) and c4.n == 5 and c4.field == F5
    with pytest.raises(ValueError, match="unrecognized sampler spec"):
        sampler_from_spec("depth3:4,2")
    with pytest.raises(ValueError, match="unrecognized sampler spec"):
        sampler_from_spec("depth5:4,2,1")
    with pytest.raises(ValueError, match="malformed sampler spec"):
        sampler_from_spec("depth3:a,b,c")
