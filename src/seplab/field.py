"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain values, not wrapper objects.  Over the rationals an
integral value is an ``int`` (never a ``bool``) and only a value whose
denominator exceeds 1 is a ``fractions.Fraction``: most inputs are integral,
and int arithmetic is several times cheaper.  ``coerce`` turns an integral
Fraction back into an int.  The two types compare, hash and print alike, and
the only scalar division, in ``inv``, divides a Fraction, so no value becomes
a float.  Over F_p scalars are ints in ``[0, p)``.

A :class:`Field` value tags a polynomial or matrix with the arithmetic to use
and provides the scalar helpers, coercion (strings included) and inversion.
Hot loops branch on ``field.p`` directly and inline the modular reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

Scalar = Union[Fraction, int]

_MAX_PRIME = 2**31


def _is_prime(n: int) -> bool:
    """Trial division: exact, and at most 46,340 steps for an admitted modulus."""
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


@dataclass(frozen=True)
class Field:
    """Field tag: ``p is None`` means the rationals, otherwise F_p (p prime)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not (2 <= self.p <= _MAX_PRIME):
                raise ValueError(f"prime modulus out of range: {self.p}")
            if not _is_prime(self.p):
                raise ValueError(f"modulus is not prime: {self.p}")

    @property
    def name(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    def __str__(self) -> str:
        return self.name

    def coerce(self, value) -> Scalar:
        """Bring an int, Fraction, or string such as "-2/5" or "0.25"
        (surrounding whitespace allowed) into canonical scalar form.

        Over the rationals that is an ``int`` when the value is integral and
        a ``Fraction`` otherwise.  Over F_p a Fraction is accepted when its
        denominator is a unit mod p.
        """
        if isinstance(value, str):
            value = Fraction(value)
        if self.p is None:
            if isinstance(value, int):
                return int(value)
            if isinstance(value, Fraction):
                return value if value.denominator != 1 else value.numerator
        else:
            if isinstance(value, int):
                return value % self.p
            if isinstance(value, Fraction):
                den = value.denominator % self.p
                if den == 0:
                    raise ZeroDivisionError(
                        f"denominator {value.denominator} is 0 mod {self.p}"
                    )
                return value.numerator * pow(den, self.p - 2, self.p) % self.p
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def inv(self, a: Scalar) -> Scalar:
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return Fraction(1) / a
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)


RATIONALS = Field()


def prime_field(p: int) -> Field:
    return Field(p)


def field_from_name(name: str) -> Field:
    """Inverse of ``Field.name``: "Q" or "Fp:<p>"."""
    if name == "Q":
        return RATIONALS
    if name.startswith("Fp:"):
        return Field(int(name[3:]))
    raise ValueError(f"unknown field name: {name!r}")
