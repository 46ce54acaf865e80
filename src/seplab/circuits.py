"""Easy-class circuits: sums of products of low-degree polynomials.

A circuit is a sum of s products of nonzero polynomials of degree at most t
(ΣΠΣΠ with bottom degree t); a depth-3 circuit ΣΠΣ is the case t = 1, whose
factors are linear forms.  ``expand`` multiplies everything out into a
canonical sparse polynomial, and ``verify_nw_bound`` checks the
derivative-span dimension of a t = 1 expansion against the structural budget
s * 2^d.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import functions, measures
from . import poly as polyops
from .field import Field, RATIONALS
from .poly import Poly


@dataclass(frozen=True)
class Depth4Circuit:
    """Sum of products of nonzero polynomials, each of degree at most t."""

    n: int
    field: Field
    t: int
    summands: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        if not self.summands:
            raise ValueError("need at least one summand")
        if self.t < 1:
            raise ValueError("bottom degree bound must be positive")
        for factors in self.summands:
            if not factors:
                raise ValueError("each summand needs at least one factor")
            for f in factors:
                if f.n != self.n or f.field != self.field:
                    raise ValueError("factor ring does not match the circuit")
                if f.is_zero:
                    raise ValueError("factors must be nonzero")
                if f.degree > self.t:
                    raise ValueError(
                        f"factor degree {f.degree} exceeds the bound t={self.t}"
                    )

    @property
    def s(self) -> int:
        return len(self.summands)

    @property
    def d(self) -> int:
        """The formal degree: the largest degree of a product."""
        return max(sum(f.degree for f in factors) for factors in self.summands)


def expand(circuit: Depth4Circuit) -> Poly:
    """Multiply out a circuit into its canonical sparse polynomial."""
    total = polyops.zero(circuit.n, circuit.field)
    for factors in circuit.summands:
        total = polyops.add(total, polyops.multiply(*factors))
    return total


def _check_class(n: int, d: int, s: int, t: int = 1) -> None:
    if min(n, d, s, t) < 1:
        raise ValueError("n, degree, s (and t) must all be positive")
    if t > d:
        raise ValueError(f"bottom bound t={t} exceeds the target degree {d}")


def sample_depth3(
    n: int, d: int, s: int, field: Field, rng: random.Random
) -> Depth4Circuit:
    """Random ΣΠΣ circuit (t = 1): s products of d dense homogeneous
    linear forms, drawn product by product, form by form."""
    _check_class(n, d, s)
    summands = tuple(
        tuple(
            polyops.linear_form(
                [functions.nonzero_scalar(field, rng) for _ in range(n)], field
            )
            for _ in range(d)
        )
        for _ in range(s)
    )
    return Depth4Circuit(n, field, 1, summands)


def sample_depth4(
    n: int, deg: int, s: int, t: int, field: Field, rng: random.Random
) -> Depth4Circuit:
    """Random bounded-bottom-degree circuit: s products of dense factors.

    Each summand multiplies floor(deg/t) dense degree-t polynomials plus one
    dense remainder factor when t does not divide deg, so every summand has
    total degree exactly deg.
    """
    _check_class(n, deg, s, t)
    summands = []
    for _ in range(s):
        factors = [
            functions.random_dense_poly(n, t, rng, field)
            for _ in range(deg // t)
        ]
        if deg % t:
            factors.append(functions.random_dense_poly(n, deg % t, rng, field))
        summands.append(tuple(factors))
    return Depth4Circuit(n, field, t, tuple(summands))


@dataclass(frozen=True)
class NWBoundReport:
    """Derivative-span dimension of an expansion vs the structural budget."""

    dimension: int
    bound: int
    ok: bool


def verify_nw_bound(circuit: Depth4Circuit) -> NWBoundReport:
    """Check dim of the derivative span of a t = 1 expansion against s * 2^d:
    every derivative of a product of affine forms lies in the span of its
    sub-products.  Refused for t >= 2, where no such budget holds."""
    if circuit.t != 1:
        raise ValueError(f"the s * 2^d budget needs linear factors (t = 1), not t={circuit.t}")
    dim = measures.dim_partials(expand(circuit))
    bound = circuit.s * (1 << circuit.d)
    return NWBoundReport(dim, bound, dim <= bound)


# ---------------------------------------------------------------------------
# named samplers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EasySampler:
    """Parsed easy-class sampler: "depth3:n,d,s" or "depth4:n,deg,s,t"."""

    kind: str
    n: int
    d: int
    s: int
    t: int
    field: Field

    def __post_init__(self):
        _check_class(self.n, self.d, self.s, self.t)

    def sample(self, rng: random.Random) -> Depth4Circuit:
        if self.kind == "depth3":
            return sample_depth3(self.n, self.d, self.s, self.field, rng)
        return sample_depth4(self.n, self.d, self.s, self.t, self.field, rng)

    def describe(self) -> str:
        if self.kind == "depth3":
            return f"depth3:{self.n},{self.d},{self.s}"
        return f"depth4:{self.n},{self.d},{self.s},{self.t}"


def sampler_from_spec(spec: str, field: Field = RATIONALS) -> EasySampler:
    kind, args = functions.parse_spec(spec, "sampler")
    if kind == "depth3" and len(args) == 3:
        return EasySampler("depth3", args[0], args[1], args[2], 1, field)
    if kind == "depth4" and len(args) == 4:
        return EasySampler("depth4", args[0], args[1], args[2], args[3], field)
    raise ValueError(
        f"unrecognized sampler spec {spec!r} "
        '(formats: "depth3:n,d,s", "depth4:n,deg,s,t")'
    )
