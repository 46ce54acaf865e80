"""Tests for the coefficient-field layer."""

from fractions import Fraction
from math import isqrt

import pytest

from seplab import RATIONALS, field_from_name, prime_field


def test_rationals_coerce_accepts_ints_strings_fractions():
    q = RATIONALS
    assert q.coerce(3) == Fraction(3)
    assert q.coerce("2/7") == Fraction(2, 7)
    assert q.coerce(Fraction(-5, 3)) == Fraction(-5, 3)


def test_rationals_reject_floats():
    """Floats would smuggle rounding into exact arithmetic."""
    with pytest.raises(TypeError):
        RATIONALS.coerce(0.5)


def test_prime_field_coerce_reduces_mod_p():
    f7 = prime_field(7)
    assert f7.coerce(10) == 3
    assert f7.coerce(-1) == 6
    assert f7.coerce("12") == 5


def test_prime_field_rejects_fractions_with_bad_denominator():
    f5 = prime_field(5)
    assert f5.coerce(Fraction(1, 2)) == f5.inv(2)
    with pytest.raises(ZeroDivisionError):
        f5.coerce(Fraction(1, 5))


def test_prime_field_inverse():
    f11 = prime_field(11)
    for a in range(1, 11):
        assert (a * f11.inv(a)) % 11 == 1
    with pytest.raises(ZeroDivisionError):
        f11.inv(0)


def test_nonprime_modulus_rejected():
    # past the sieve below: 2**31, a prime square at the isqrt edge of the
    # admitted range, and strong pseudoprimes to base 2 and to bases 2, 3, 5
    for bad in (0, 1, 4, 6, 9, 561, 2**31, 46_337**2, 2_047, 25_326_001):
        with pytest.raises(ValueError):
            prime_field(bad)


def test_large_prime_accepted_small_rejected():
    p = 2**31 - 1
    f = prime_field(p)
    assert f.coerce(p + 5) == 5
    with pytest.raises(ValueError):
        prime_field(2**61 - 1)


def _accepts(n: int) -> bool:
    try:
        prime_field(n)
    except ValueError:
        return False
    return True


def test_prime_field_accepts_exactly_the_sieved_primes():
    limit = 10**5
    sieve = [False, False] + [True] * (limit - 2)
    for q in range(2, isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = [False] * len(range(q * q, limit, q))
    assert [n for n in range(limit) if _accepts(n)] == [n for n in range(limit) if sieve[n]]


def test_field_from_name_round_trip():
    assert field_from_name("Q") is RATIONALS
    assert field_from_name("Fp:13").p == 13
    assert field_from_name(prime_field(3).name).p == 3
    with pytest.raises(ValueError):
        field_from_name("GF(4)")
    with pytest.raises(ValueError):
        field_from_name("Fp:8")


def test_fmt_and_parse_are_inverse():
    q = RATIONALS
    for s in ("0", "-3", "5/9"):
        assert str(q.coerce(s)) == s
    f7 = prime_field(7)
    assert str(f7.coerce(13)) == "6"
