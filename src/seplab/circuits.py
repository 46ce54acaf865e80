"""Easy-class circuits: shallow sum-of-products forms and their samplers.

A depth-3 circuit here is a sum of s products, each product of exactly d
homogeneous linear forms; a depth-4 circuit is a sum of products of dense
low-degree polynomials with bottom degree at most t.  ``expand`` multiplies
everything out into a canonical sparse polynomial, and ``verify_nw_bound``
checks the derivative-span dimension of the expansion against the structural
budget s * 2^d.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import functions, measures
from . import poly as polyops
from .field import Field, RATIONALS, Scalar
from .poly import Poly

LinearForm = tuple[Scalar, ...]


@dataclass(frozen=True)
class Depth3Circuit:
    """Sum of s products of exactly d nonzero homogeneous linear forms."""

    n: int
    field: Field
    products: tuple[tuple[LinearForm, ...], ...]

    def __post_init__(self):
        if not self.products:
            raise ValueError("need at least one product gate")
        d = len(self.products[0])
        coerced = []
        for prod in self.products:
            if len(prod) != d:
                raise ValueError("all products must have the same length")
            forms = []
            for form in prod:
                if len(form) != self.n:
                    raise ValueError(
                        f"form length {len(form)} does not match n={self.n}"
                    )
                vec = tuple(self.field.coerce(v) for v in form)
                if all(v == 0 for v in vec):
                    raise ValueError("linear forms must be nonzero")
                forms.append(vec)
            coerced.append(tuple(forms))
        object.__setattr__(self, "products", tuple(coerced))

    @property
    def s(self) -> int:
        return len(self.products)

    @property
    def d(self) -> int:
        return len(self.products[0])


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


def expand(circuit: Depth3Circuit | Depth4Circuit) -> Poly:
    """Multiply out a circuit into its canonical sparse polynomial."""
    if isinstance(circuit, Depth3Circuit):
        summands = [
            [polyops.linear_form(form, circuit.field) for form in prod]
            for prod in circuit.products
        ]
    elif isinstance(circuit, Depth4Circuit):
        summands = [list(factors) for factors in circuit.summands]
    else:
        raise TypeError(f"not a circuit: {type(circuit).__name__}")
    total = polyops.zero(circuit.n, circuit.field)
    for factors in summands:
        prod = polyops.constant(circuit.n, 1, circuit.field)
        for f in factors:
            prod = polyops.multiply(prod, f)
        total = polyops.add(total, prod)
    return total


def _nonzero_scalar(field: Field, rng: random.Random) -> Scalar:
    if field.p is None:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return rng.randrange(1, field.p)


def _check_class(n: int, d: int, s: int, t: int = 1) -> None:
    if min(n, d, s, t) < 1:
        raise ValueError("n, degree, s (and t) must all be positive")
    if t > d:
        raise ValueError(f"bottom bound t={t} exceeds the target degree {d}")


def sample_depth3(
    n: int, d: int, s: int, field: Field, rng: random.Random
) -> Depth3Circuit:
    """Random circuit with s products of d dense nonzero linear forms."""
    _check_class(n, d, s)
    products = tuple(
        tuple(
            tuple(_nonzero_scalar(field, rng) for _ in range(n))
            for _ in range(d)
        )
        for _ in range(s)
    )
    return Depth3Circuit(n, field, products)


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
    s: int
    d: int


def verify_nw_bound(circuit: Depth3Circuit) -> NWBoundReport:
    """Check dim of the derivative span of the expansion against s * 2^d."""
    dim = measures.dim_partials(expand(circuit))
    bound = circuit.s * (1 << circuit.d)
    return NWBoundReport(dim, bound, dim <= bound, circuit.s, circuit.d)


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
    t: int | None
    field: Field

    def __post_init__(self):
        _check_class(self.n, self.d, self.s, 1 if self.t is None else self.t)

    def sample(self, rng: random.Random):
        if self.kind == "depth3":
            return sample_depth3(self.n, self.d, self.s, self.field, rng)
        return sample_depth4(self.n, self.d, self.s, self.t, self.field, rng)

    def describe(self) -> str:
        if self.kind == "depth3":
            return f"depth3:{self.n},{self.d},{self.s}"
        return f"depth4:{self.n},{self.d},{self.s},{self.t}"


def sampler_from_spec(spec: str, field: Field = RATIONALS) -> EasySampler:
    kind, _, arg_text = spec.partition(":")
    try:
        args = [int(a) for a in arg_text.split(",")] if arg_text else []
    except ValueError as exc:
        raise ValueError(f"malformed sampler spec {spec!r}") from exc
    if kind == "depth3" and len(args) == 3:
        return EasySampler("depth3", args[0], args[1], args[2], None, field)
    if kind == "depth4" and len(args) == 4:
        return EasySampler("depth4", args[0], args[1], args[2], args[3], field)
    raise ValueError(
        f"unrecognized sampler spec {spec!r} "
        '(formats: "depth3:n,d,s", "depth4:n,deg,s,t")'
    )
