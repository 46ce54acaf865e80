"""Group elements acting on polynomials and on coefficient space.

Every element is an invertible matrix A over a field, with an optional shift
b: it substitutes x by A·x, or by A·x + b when the shift is present.  A
variable permutation is the 0/1 matrix that sends x_i to x_perm[i].
``induced_coeff_map`` turns an element into the matrix of its action on the
coefficient vectors of fixed-degree polynomials, which is how test
polynomials are transported.  ``invariance_check`` measures a polynomial
before and after random (or exhaustively enumerated) substitutions.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from dataclasses import asdict, dataclass
from typing import Sequence

from . import linalg, measures
from .errors import InfeasibleError
from .field import Field, RATIONALS, Scalar
from .poly import Poly, monomial, monomials_exact, monomials_upto
from . import poly as polyops

_ENUMERATION_LIMIT = 10_000
_COEFF_BOUND = 3  # entries of sampled matrices over Q lie in [-3, 3]


@dataclass(frozen=True)
class GroupElement:
    """An invertible linear (``shift`` None) or affine map of the variables.

    ``matrix`` rows are tuples of field scalars and ``shift`` is the affine
    translation.  Use the factory functions: the linear and affine ones
    validate invertibility by exact rank, and a permutation matrix is
    invertible by construction.
    """

    field: Field
    matrix: tuple[tuple[Scalar, ...], ...]
    shift: tuple[Scalar, ...] | None = None

    @property
    def n(self) -> int:
        return len(self.matrix)


def _invertible_rows(matrix: Sequence[Sequence], field: Field) -> tuple:
    rows = tuple(tuple(field.coerce(v) for v in row) for row in matrix)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    if not linalg.is_invertible(rows, field):
        raise ValueError("matrix is singular")
    return rows


def linear_element(matrix: Sequence[Sequence], field: Field = RATIONALS) -> GroupElement:
    return GroupElement(field, _invertible_rows(matrix, field))


def affine_element(
    matrix: Sequence[Sequence], shift: Sequence, field: Field = RATIONALS
) -> GroupElement:
    if len(shift) != len(matrix):
        raise ValueError("the shift length must match the matrix")
    rows = _invertible_rows(matrix, field)
    return GroupElement(field, rows, tuple(field.coerce(v) for v in shift))


def permutation_element(perm: Sequence[int], field: Field = RATIONALS) -> GroupElement:
    """The 0/1 matrix with A[i][perm[i]] = 1: x_i becomes x_perm[i]."""
    p = tuple(int(v) for v in perm)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation: {p}")
    return GroupElement(field, tuple(tuple(int(j == t) for j in range(len(p))) for t in p))


def identity_element(n: int, field: Field = RATIONALS) -> GroupElement:
    return linear_element(linalg.identity_matrix(n), field)


def apply(g: GroupElement, f: Poly) -> Poly:
    """Substitute the element into f (f composed with the variable map)."""
    if g.n != f.n:
        raise ValueError(f"arity mismatch: element on {g.n}, polynomial on {f.n}")
    if g.field != f.field:
        raise ValueError(f"field mismatch: {g.field} vs {f.field}")
    if g.shift is None:
        return polyops.substitute_linear(f, g.matrix)
    return polyops.substitute_affine(f, g.matrix, g.shift)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Element whose action is "h first, then g" on polynomials.

    Substitutions compose right-to-left: apply(compose(g, h), f) equals
    apply(g, apply(h, f)).  That is x -> A_h·(A_g·x + b_g) + b_h, so the
    matrix is A_h · A_g, which is invertible as both factors are.
    """
    if g.n != h.n:
        raise ValueError("arity mismatch")
    if g.field != h.field:
        raise ValueError("field mismatch")
    field = g.field
    m = tuple(map(tuple, linalg.mat_mul(h.matrix, g.matrix, field)))
    if g.shift is None and h.shift is None:
        return GroupElement(field, m)
    moved = linalg.mat_vec(h.matrix, g.shift or (0,) * g.n, field)
    b_h = h.shift or (0,) * h.n
    return GroupElement(field, m, tuple(field.coerce(x + y) for x, y in zip(moved, b_h)))


# ---------------------------------------------------------------------------
# sampling and enumeration
# ---------------------------------------------------------------------------


def random_invertible(n: int, field: Field, rng: random.Random) -> GroupElement:
    """Uniform small-entry matrix, resampled until the determinant is nonzero."""
    if n < 1:
        raise ValueError("an invertible matrix needs n >= 1")
    while True:
        if field.p is None:
            rows = [
                [rng.randint(-_COEFF_BOUND, _COEFF_BOUND) for _ in range(n)]
                for _ in range(n)
            ]
        else:
            rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        with contextlib.suppress(ValueError):  # singular: draw again
            return linear_element(rows, field)


def random_permutation(
    n: int, rng: random.Random, field: Field = RATIONALS
) -> GroupElement:
    order = list(range(n))
    rng.shuffle(order)
    return permutation_element(order, field)


def enumerate_permutations(n: int, field: Field = RATIONALS) -> list[GroupElement]:
    if n > 8:
        raise InfeasibleError(f"refusing to enumerate {n}! permutations (n > 8)")
    return [permutation_element(p, field) for p in itertools.permutations(range(n))]


def enumerate_invertible(n: int, field: Field) -> list[GroupElement]:
    """All invertible n x n matrices over a tiny prime field, in a fixed order."""
    if field.p is None:
        raise InfeasibleError("cannot enumerate an infinite matrix group")
    candidates = field.p ** (n * n)
    if candidates > 20 * _ENUMERATION_LIMIT:
        raise InfeasibleError(
            f"{candidates} candidate matrices exceeds the enumeration budget"
        )
    out = []
    for flat in itertools.product(range(field.p), repeat=n * n):
        rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        with contextlib.suppress(ValueError):  # singular matrices are skipped
            out.append(linear_element(rows, field))
            if len(out) > _ENUMERATION_LIMIT:
                raise InfeasibleError(f"group larger than {_ENUMERATION_LIMIT} elements")
    return out


# ---------------------------------------------------------------------------
# induced action on coefficient vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoeffMap:
    """Matrix of the coefficient-space action of a group element.

    ``basis`` lists the monomial exponents indexing coordinates (grlex
    order); ``matrix`` satisfies  M · coeffs(f) = coeffs(apply(g, f))  for
    every f supported on the basis.
    """

    n: int
    d: int
    field: Field
    homogeneous: bool
    basis: tuple
    matrix: tuple[tuple[Scalar, ...], ...]


def induced_coeff_map(
    g: GroupElement, d: int, homogeneous: bool | None = None
) -> CoeffMap:
    """Coefficient-space matrix of g on degree-d polynomials.

    The basis is the grlex list of degree-exactly-d monomials (dimension
    binom(n+d-1, d)); pass ``homogeneous=False`` for the degree-<=d basis,
    which is required for affine elements with a nonzero shift (they do not
    preserve the homogeneous slice).
    """
    if homogeneous is None:
        homogeneous = not any(g.shift or ())
    basis = (
        monomials_exact(g.n, d) if homogeneous else monomials_upto(g.n, d)
    )
    images = [apply(g, monomial(e, 1, g.field)).terms for e in basis]
    try:
        _, cols = linalg.densify(images, basis)
    except ValueError as exc:
        raise ValueError(
            "element does not preserve the chosen coefficient space; "
            "use homogeneous=False"
        ) from exc
    matrix = tuple(zip(*cols))
    return CoeffMap(g.n, d, g.field, homogeneous, tuple(basis), matrix)


# ---------------------------------------------------------------------------
# invariance testing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    measure: str
    params: dict
    base: int
    values: tuple[int, ...]
    all_equal: bool
    mode: str
    trials: int

    def to_json(self) -> dict:
        return asdict(self)


def invariance_check(
    measure: str,
    f: Poly,
    trials: int,
    rng: random.Random,
    params: dict | None = None,
    exhaustive: bool = False,
) -> InvarianceReport:
    """Compare measure(f) with measure(f after substitution).

    Sampled mode draws ``trials`` random invertible linear substitutions.
    Exhaustive mode runs every element of GL_n over a tiny prime field
    (refused over the rationals or when the group has more than 10^4
    elements).
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    base_report = measures.compute_measure(measure, f, params)
    base = base_report.rank
    if exhaustive:
        elements = enumerate_invertible(f.n, f.field)
    else:
        elements = [random_invertible(f.n, f.field, rng) for _ in range(trials)]
    values = tuple(
        measures.compute_measure(measure, apply(g, f), base_report.params).rank
        for g in elements
    )
    return InvarianceReport(
        measure=measure,
        params=base_report.params,
        base=base,
        values=values,
        all_equal=all(v == base for v in values),
        mode="exhaustive" if exhaustive else "sampled",
        trials=len(elements),
    )
