"""Sparse exact multivariate polynomial arithmetic.

A polynomial is a map from exponent tuples to nonzero coefficients, tagged
with its variable count and coefficient field.  Everything here is pure and
exact: rational coefficients are ints when integral and reduced fractions
otherwise (see ``field``), prime-field coefficients stay ints in ``[0, p)``.
The canonical monomial order used for iteration and matrix column indexing
everywhere in this package is graded lexicographic: lower total degree first,
ties broken by tuple comparison of the exponents.

``multiply`` and ``substitute`` share one product kernel on packed
exponents: each exponent tuple (e_1, .., e_n) becomes the single integer
sum e_i * B^(n-i), so a monomial product is one integer addition.  The base B
must exceed every per-variable exponent of the result, so that no digit
carries: the factors' degrees summed plus 1 for a product, and
sum_i need_i * deg(image_i) + 1 for a substitution, where need_i is the
highest power of variable i in f.  Results are unpacked once, at the end, so
a product of any number of factors, a k-th power included, is one pass.

``derivative`` keeps the nonzero derivatives of f on f as levels by order:
level k+1 comes from level k alone, since d^(c+u_i) f = d_i d^c f, and each
operator is made once, from c minus its last unit vector.  Level entries are
canonical when built (reduced mod p, zeros dropped, integral rationals as
ints), so ``derivative`` returns them through a trusted constructor that
skips ``Poly``'s validation, over a copy of the entry.  The keys of level
k, listed by ``derivative_operators``, are the one source of the operators
that rank code differentiates by.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Mapping, Sequence

from .field import Field, RATIONALS, Scalar

Exponent = tuple[int, ...]


def grlex_key(e: Exponent):
    """Sort key realizing the graded-lexicographic order."""
    return (sum(e), e)


def _grlex_sorted(keys) -> list[Exponent]:
    """``sorted(keys, key=grlex_key)`` by two C-level sorts: tuple order,
    then a stable sort by total degree."""
    return sorted(sorted(keys), key=sum)


def monomials_exact(n: int, degree: int, max_exponent: int | None = None) -> list[Exponent]:
    """All exponent tuples of total degree exactly ``degree``, grlex-sorted.

    With ``max_exponent`` set, only tuples whose every entry is at most that.
    """
    cap = degree if max_exponent is None else max_exponent
    if degree < 0 or degree > n * cap:
        return []
    if n == 0:
        return [()]
    out: list[Exponent] = []

    def rec(prefix: Exponent, remaining: int, slots: int):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        # leave no more than the other slots can hold
        for i in range(max(0, remaining - (slots - 1) * cap), min(remaining, cap) + 1):
            rec(prefix + (i,), remaining - i, slots - 1)

    rec((), degree, n)
    return out


def monomial_count(n: int, degree: int) -> int:
    """``len(monomials_exact(n, degree))``; the count of monomials of degree
    at most d is ``monomial_count(n + 1, d)``."""
    if n == 0 or degree < 0:
        return int(degree == 0)
    return comb(n + degree - 1, degree)


def monomials_upto(n: int, degree: int) -> list[Exponent]:
    """All exponent tuples of total degree at most ``degree``, grlex-sorted."""
    return [e for k in range(degree + 1) for e in monomials_exact(n, k)]


@dataclass(frozen=True)
class Poly:
    """Sparse polynomial: ``terms`` maps exponent tuples to nonzero scalars.

    Construction canonicalizes: coefficients are coerced into ``field``, zero
    terms are dropped, exponents are validated against ``n`` (only
    ``derivative``, ``multiply`` and ``add``, whose term maps are canonical
    already, skip this).  Instances are treated as immutable; all operations
    return new values.  The zero polynomial is the empty term map and has
    degree -1.
    """

    n: int
    field: Field
    terms: dict[Exponent, Scalar]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative variable count")
        clean: dict[Exponent, Scalar] = {}
        for e, c in self.terms.items():
            e = tuple(map(int, e))
            if len(e) != self.n or min(e, default=0) < 0:
                raise ValueError(f"bad exponent {e} for {self.n} variable(s)")
            c = self.field.coerce(c)
            if c != 0:
                clean[e] = c
        object.__setattr__(self, "terms", clean)

    # construction never leaves zero coefficients, so truthiness is simple
    @property
    def is_zero(self) -> bool:
        return not self.terms

    # computed on first use and kept, like the derivative levels, outside the fields
    @cached_property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    @cached_property
    def is_homogeneous(self) -> bool:
        return len(set(map(sum, self.terms))) <= 1

    def sorted_terms(self) -> list[tuple[Exponent, Scalar]]:
        return [(e, self.terms[e]) for e in _grlex_sorted(self.terms)]

    def coefficient(self, e: Exponent) -> Scalar:
        return self.terms.get(tuple(e), 0)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{i}" if v == 1 else f"x{i}^{v}" for i, v in enumerate(e) if v
            )
            parts.append(str(c) + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def zero(n: int, field: Field = RATIONALS) -> Poly:
    return Poly(n, field, {})


def variable(i: int, n: int, field: Field = RATIONALS) -> Poly:
    if not 0 <= i < n:
        raise IndexError(f"variable index {i} out of range for n={n}")
    e = tuple(1 if j == i else 0 for j in range(n))
    return Poly(n, field, {e: 1})


def monomial(e: Exponent, c, field: Field = RATIONALS) -> Poly:
    return Poly(len(e), field, {tuple(e): c})


def _check_ring(f: Poly, g: Poly):
    if f.n != g.n:
        raise ValueError(f"variable count mismatch: {f.n} vs {g.n}")
    if f.field != g.field:
        raise ValueError(f"field mismatch: {f.field} vs {g.field}")


def add(f: Poly, g: Poly) -> Poly:
    _check_ring(f, g)
    coerce = f.field.coerce  # over Q 1/2 + 1/2 is the int 1
    terms = dict(f.terms)
    for e, c in g.terms.items():
        terms[e] = coerce(terms[e] + c) if e in terms else c
    return _trusted(f.n, f.field, {e: c for e, c in terms.items() if c})


def negate(f: Poly) -> Poly:
    return Poly(f.n, f.field, {e: -c for e, c in f.terms.items()})


def subtract(f: Poly, g: Poly) -> Poly:
    return add(f, negate(g))


def scalar_multiply(c, f: Poly) -> Poly:
    c = f.field.coerce(c)
    return Poly(f.n, f.field, {e: c * v for e, v in f.terms.items()})


def _pack(terms: Mapping[Exponent, Scalar], base: int) -> dict[int, Scalar]:
    """Term map keyed by exponent tuples read as base-``base`` digits."""
    out = {}
    for e, c in terms.items():
        k = 0
        for x in e:
            k = k * base + x
        out[k] = c
    return out


def _unpack(packed: Mapping[int, Scalar], n: int, base: int) -> dict[Exponent, Scalar]:
    """Inverse of ``_pack`` for n variables."""
    out = {}
    for k, c in packed.items():
        e = [0] * n
        for i in range(n - 1, -1, -1):
            k, e[i] = divmod(k, base)
        out[tuple(e)] = c
    return out


def _packed_mul(a: Mapping[int, Scalar], b: Mapping[int, Scalar], p: int | None) -> dict:
    """Product of packed term maps; reduces mod p and drops zeros.

    Exponents add digit by digit with no carry as long as the base exceeds
    every per-variable exponent of the product, which callers guarantee.
    """
    out: dict = {}
    get = out.get
    b_items = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in b_items:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    if p is None:
        return {k: v for k, v in out.items() if v}
    return {k: vp for k, v in out.items() if (vp := v % p)}


def multiply(f: Poly, *factors: Poly) -> Poly:
    """The product of f and any further factors, packed and unpacked once."""
    for g in factors:
        _check_ring(f, g)
    # no exponent of the product exceeds its total degree
    base = sum(max(g.degree, 0) for g in (f, *factors)) + 1
    product = _pack(f.terms, base)
    for g in factors:
        product = _packed_mul(product, _pack(g.terms, base), f.field.p)
    coerce = f.field.coerce  # over Q 1/2 * 2 is the int 1; mod p all are ints
    product = {k: v if type(v) is int else coerce(v) for k, v in product.items()}
    return _trusted(f.n, f.field, _unpack(product, f.n, base))


def _trusted(n: int, field: Field, terms: dict[Exponent, Scalar]) -> Poly:
    """A ``Poly`` over a term map that is already canonical, built without
    ``__post_init__``'s validation and coercion pass."""
    f = object.__new__(Poly)
    f.__dict__.update(n=n, field=field, terms=terms)
    return f


def _next_level(level: dict[Exponent, dict], n: int, field: Field) -> dict[Exponent, dict]:
    """Every nonzero derivative of order k+1 from those of order k.

    d_i applies to d^c f only for i at or after the last nonzero entry of c.
    Exponents stay distinct under d_i, so each output entry is one multiply
    and one insert, in the term order of the map it came from.
    """
    p = field.p
    coerce = field.coerce
    out: dict[Exponent, dict] = {}
    for c, g in level.items():
        last = max((i for i, v in enumerate(c) if v), default=0)
        for i in range(last, n):
            terms = {}
            for e, v in g.items():
                ei = e[i]
                if ei:
                    w = v * ei
                    if p is not None:
                        w %= p
                        if not w:
                            continue
                    elif type(w) is not int:
                        w = coerce(w)  # 1/2 * 2 is the int 1
                    terms[e[:i] + (ei - 1,) + e[i + 1 :]] = w
            if terms:
                out[c[:i] + (c[i] + 1,) + c[i + 1 :]] = terms
    return out


def _level(f: Poly, k: int) -> dict[Exponent, dict]:
    """Level k of f's nonzero derivatives, {} past deg f.

    The levels are kept on f, outside its fields so that equality and repr
    are unaffected, and freed with it.  Level k+1 is built from level k the
    first time an order past the last level is asked for.
    """
    levels = f.__dict__.get("_derivative_levels")
    if levels is None:
        level0 = {(0,) * f.n: f.terms} if f.terms else {}
        levels = f.__dict__["_derivative_levels"] = [level0]
    # a level with no nonzero derivative ends the list: all above it are 0
    while len(levels) <= k and levels[-1]:
        levels.append(_next_level(levels[-1], f.n, f.field))
    return levels[k] if 0 <= k < len(levels) else {}


def derivative_operators(f: Poly, k: int) -> list[Exponent]:
    """The order-k operators c with d^c f nonzero, in grlex order."""
    # all keys share total degree k, so tuple order is grlex order
    return sorted(_level(f, k))


def derivative(f: Poly, orders: Exponent) -> Poly:
    """Iterated formal derivative: differentiate ``orders[i]`` times in x_i.

    Coefficients pick up the falling-factorial multipliers, reduced mod p over
    a prime field (so high-order derivatives can vanish there).  The entry is
    read from the levels of nonzero derivatives (module docstring) and
    returned as a trusted ``Poly`` over a copy, so callers cannot change the
    cache.
    """
    orders = tuple(map(int, orders))
    if len(orders) != f.n or min(orders, default=0) < 0:
        raise ValueError(f"bad derivative orders {orders} for n={f.n}")
    terms = _level(f, sum(orders)).get(orders)
    return _trusted(f.n, f.field, dict(terms) if terms else {})


def evaluate(f: Poly, point: Sequence) -> Scalar:
    """Exact value of f at a point (length-n sequence of scalars)."""
    if len(point) != f.n:
        raise ValueError(f"point has {len(point)} entries, expected {f.n}")
    fld = f.field
    vals = [fld.coerce(v) for v in point]
    p = fld.p
    total = 0
    for e, c in f.terms.items():
        term = c
        for v, ei in zip(vals, e):
            if ei:
                term = term * (pow(v, ei, p) if p is not None else v**ei)
        total = total + term
    return fld.coerce(total)


def substitute(f: Poly, images: Sequence[Poly]) -> Poly:
    """Substitute ``images[i]`` for variable i; images fix the output ring.

    All images must share one variable count and the field of f.  Powers of
    each image are computed once and reused across terms.
    """
    if f.n == 0:
        raise ValueError("cannot substitute into a 0-variable polynomial")
    if len(images) != f.n:
        raise ValueError(f"expected {f.n} images, got {len(images)}")
    n_out = images[0].n
    fld = images[0].field
    if fld != f.field:
        raise ValueError(f"field mismatch: {f.field} vs {fld}")
    for img in images:
        if img.n != n_out or img.field != fld:
            raise ValueError("images must share one ring")
    p = fld.p

    need = [0] * f.n
    for e in f.terms:
        for i, v in enumerate(e):
            if v > need[i]:
                need[i] = v
    # an output exponent is at most sum_i e_i * deg(images[i]) for some term e
    base = sum(k * max(img.degree, 0) for k, img in zip(need, images)) + 1
    one = {0: 1}
    powers: list[list[dict]] = []
    for i, img in enumerate(images):
        packed = _pack(img.terms, base)
        cache = [one]
        for _ in range(need[i]):
            cache.append(_packed_mul(cache[-1], packed, p))
        powers.append(cache)

    acc: dict = {}
    for e, c in f.terms.items():
        cur = {0: c}
        for i, ei in enumerate(e):
            if ei:
                cur = _packed_mul(cur, powers[i][ei], p)
        for k, v in cur.items():
            acc[k] = acc.get(k, 0) + v
    return Poly(n_out, fld, _unpack(acc, n_out, base))


def linear_form(coeffs: Sequence, field: Field) -> Poly:
    """The linear form sum coeffs[i] * x_i in len(coeffs) variables."""
    n = len(coeffs)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return Poly(n, field, dict(zip(units, coeffs)))


def substitute_linear(f: Poly, matrix: Sequence[Sequence]) -> Poly:
    """Return f(A·x): variable i is replaced by the linear form of row i."""
    if len(matrix) != f.n or any(len(row) != f.n for row in matrix):
        raise ValueError(f"matrix must be {f.n}x{f.n}")
    return substitute(f, [linear_form(row, f.field) for row in matrix])


def coefficient_of(f: Poly, fixed: Mapping[int, int]) -> Poly:
    """Coefficient of the monomial with the given exact exponents.

    Collects the terms of f whose exponent agrees with ``fixed`` on every
    listed variable, zeroing those positions.  The result lives in the same
    ring (the extracted variables simply no longer occur).
    """
    for i in fixed:
        if not (0 <= int(i) < f.n):
            raise ValueError(f"variable index {i} out of range")
    terms = {}
    for e, c in f.terms.items():
        if all(e[i] == v for i, v in fixed.items()):
            e2 = tuple(0 if i in fixed else v for i, v in enumerate(e))
            prev = terms.get(e2)
            terms[e2] = c if prev is None else prev + c
    return Poly(f.n, f.field, terms)


# ---------------------------------------------------------------------------
# JSON form: {"n": int, "field": "Q"|"Fp:<p>", "terms": [{"e": [...], "c": "<str>"}]}
# ---------------------------------------------------------------------------


def poly_to_json(f: Poly) -> dict:
    return {
        "n": f.n,
        "field": f.field.name,
        "terms": [
            {"e": list(e), "c": str(c)} for e, c in f.sorted_terms()
        ],
    }
