"""Tests for the easy-class circuit samplers and bound checks."""

import random

import pytest

from seplab import (
    Depth3Circuit,
    Depth4Circuit,
    Poly,
    RATIONALS,
    add,
    dim_partials,
    expand,
    prime_field,
    sample_depth3,
    sample_depth4,
    sampler_from_spec,
    verify_nw_bound,
)

F5 = prime_field(5)


def test_expand_difference_of_squares():
    """(x + y)(x - y) expands to x^2 - y^2."""
    c = Depth3Circuit(2, RATIONALS, (((1, 1), (1, -1)),))
    assert expand(c) == Poly(2, RATIONALS, {(2, 0): 1, (0, 2): -1})


def test_expand_sums_products():
    c = Depth3Circuit(2, RATIONALS, (((1, 0), (0, 1)), ((1, 0), (1, 0))))
    assert expand(c) == Poly(2, RATIONALS, {(1, 1): 1, (2, 0): 1})


def test_expand_is_additive_over_gates():
    """Concatenating the product lists adds the expansions."""
    rng = random.Random(3)
    a = sample_depth3(3, 2, 2, RATIONALS, rng)
    b = sample_depth3(3, 2, 1, RATIONALS, rng)
    joint = Depth3Circuit(3, RATIONALS, a.products + b.products)
    assert expand(joint) == add(expand(a), expand(b))


def test_circuit_validation():
    with pytest.raises(ValueError):
        Depth3Circuit(2, RATIONALS, ())
    with pytest.raises(ValueError):
        Depth3Circuit(2, RATIONALS, (((1, 0), (0, 1)), ((1, 0),)))
    with pytest.raises(ValueError):
        Depth3Circuit(2, RATIONALS, (((0, 0), (0, 1)),))
    with pytest.raises(ValueError):
        Depth3Circuit(2, RATIONALS, (((1, 0, 0), (0, 1, 0)),))


def test_sample_depth3_shape_and_determinism():
    for field in (RATIONALS, F5):
        c = sample_depth3(4, 3, 2, field, random.Random(7))
        assert (c.n, c.d, c.s) == (4, 3, 2)
        assert expand(c).degree == 3
        again = sample_depth3(4, 3, 2, field, random.Random(7))
        assert c == again
    with pytest.raises(ValueError):
        sample_depth3(0, 1, 1, RATIONALS, random.Random(0))


def test_sample_depth4_structure():
    rng = random.Random(11)
    c = sample_depth4(3, 7, 2, 3, RATIONALS, rng)
    assert c.s == 2 and c.t == 3
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
    """xy as one product of two forms: span 4 <= budget 1 * 2^2."""
    xy = Depth3Circuit(2, RATIONALS, (((1, 0), (0, 1)),))
    rep = verify_nw_bound(xy)
    assert (rep.dimension, rep.bound, rep.ok) == (4, 4, True)
    single = Depth3Circuit(2, RATIONALS, (((1, 2),),))
    rep2 = verify_nw_bound(single)
    assert (rep2.dimension, rep2.bound, rep2.ok) == (2, 2, True)
    assert (rep2.s, rep2.d) == (1, 1)


def test_nw_bound_holds_for_sampled_circuits():
    rng = random.Random(17)
    for field in (RATIONALS, F5):
        for _ in range(10):
            c = sample_depth3(4, 3, 2, field, rng)
            rep = verify_nw_bound(c)
            assert rep.ok
            assert rep.dimension == dim_partials(expand(c))


def test_sampler_specs():
    s3 = sampler_from_spec("depth3:4,2,3")
    assert s3.describe() == "depth3:4,2,3"
    c = s3.sample(random.Random(1))
    assert isinstance(c, Depth3Circuit) and (c.n, c.d, c.s) == (4, 2, 3)
    s4 = sampler_from_spec("depth4:5,6,2,3", F5)
    c4 = s4.sample(random.Random(2))
    assert isinstance(c4, Depth4Circuit) and c4.n == 5 and c4.field == F5
    with pytest.raises(ValueError):
        sampler_from_spec("depth3:4,2")
    with pytest.raises(ValueError):
        sampler_from_spec("depth5:4,2,1")
    with pytest.raises(ValueError):
        sampler_from_spec("depth3:a,b,c")
