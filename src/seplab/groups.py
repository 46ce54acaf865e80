"""Group elements acting on polynomials and on coefficient space.

Every element is an invertible matrix A over a field acting linearly: it
substitutes x by A·x.  A variable permutation is the 0/1 matrix that sends
x_i to x_perm[i].  GL_n(F_q) is built row by row, each row running over the
vectors outside the span of the rows above it, so no candidate is ranked.
``induced_coeff_map`` turns an element into the matrix of its action on the
coefficient vectors over a given monomial basis, which is how test
polynomials are transported.  ``invariance_check`` measures a polynomial
before and after random (or exhaustively enumerated) substitutions.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import prod
from typing import Sequence

from . import linalg, measures
from .errors import InfeasibleError
from .field import Field, RATIONALS, Scalar
from .poly import Poly, monomial
from . import poly as polyops

_ENUMERATION_LIMIT = 10_000
_COEFF_BOUND = 3  # entries of sampled matrices over Q lie in [-3, 3]


@dataclass(frozen=True)
class GroupElement:
    """An invertible linear map of the variables.

    ``matrix`` rows are tuples of field scalars.  Use the factory functions:
    ``linear_element`` and ``random_invertible`` check invertibility by exact
    rank, and permutation matrices and the enumerated group are invertible by
    construction.
    """

    field: Field
    matrix: tuple[tuple[Scalar, ...], ...]

    @property
    def n(self) -> int:
        return len(self.matrix)


def linear_element(matrix: Sequence[Sequence], field: Field = RATIONALS) -> GroupElement:
    rows = tuple(tuple(field.coerce(v) for v in row) for row in matrix)
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    if not linalg.is_invertible(rows, field):
        raise ValueError("matrix is singular")
    return GroupElement(field, rows)


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
    return polyops.substitute_linear(f, g.matrix)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Element whose action is "h first, then g" on polynomials.

    Substitutions compose right-to-left: apply(compose(g, h), f) equals
    apply(g, apply(h, f)).  That is x -> A_h·(A_g·x), so the matrix is
    A_h · A_g, which is invertible as both factors are.
    """
    if g.n != h.n:
        raise ValueError("arity mismatch")
    if g.field != h.field:
        raise ValueError("field mismatch")
    return GroupElement(g.field, tuple(map(tuple, linalg.mat_mul(h.matrix, g.matrix, g.field))))


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
        if linalg.is_invertible(rows, field):
            return GroupElement(field, tuple(map(tuple, rows)))


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


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)|, the product of q^n - q^i over i < n."""
    return prod(q**n - q**i for i in range(n))


def enumerate_invertible(n: int, field: Field) -> list[GroupElement]:
    """All invertible n x n matrices over a tiny prime field, in lex order of
    their row-major entries.

    Each row runs, in lex order, over the vectors outside the span of the
    rows above it, so every matrix built is invertible and none is ranked.
    The span is kept as a set of vectors, and only for rows with a row below.
    """
    if n < 1:
        raise ValueError("an invertible matrix needs n >= 1")
    q = field.p
    if q is None:
        raise ValueError("cannot enumerate an infinite matrix group")
    size = gl_order(n, q)
    if size > _ENUMERATION_LIMIT:
        raise InfeasibleError(f"|GL_{n}(F_{q})| = {size} exceeds {_ENUMERATION_LIMIT} elements")
    vectors = list(itertools.product(range(q), repeat=n))
    out = []

    def extend(rows: tuple, span: set) -> None:
        for v in vectors:
            if v in span:
                continue
            if len(rows) == n - 1:
                out.append(GroupElement(field, (*rows, v)))
            else:
                wider = {
                    tuple((a + c * b) % q for a, b in zip(s, v)) for s in span for c in range(q)
                }
                extend((*rows, v), wider)

    extend((), {(0,) * n})
    return out


# ---------------------------------------------------------------------------
# induced action on coefficient vectors
# ---------------------------------------------------------------------------


def induced_coeff_map(g: GroupElement, basis: Sequence) -> tuple[tuple[Scalar, ...], ...]:
    """Matrix M of g on the coefficient vectors over the monomial ``basis``:
    M · coeffs(f) = coeffs(apply(g, f)) for every f supported on the basis.

    A basis that g does not map into its own span (not closed under g) is
    refused by ``densify``'s strict columns.
    """
    images = [apply(g, monomial(e, 1, g.field)).terms for e in basis]
    return tuple(zip(*linalg.densify(images, basis)[1]))


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


def invariance_check(
    measure: str,
    f: Poly,
    trials: int,
    rng: random.Random,
    params: dict | None = None,
    exhaustive: bool = False,
) -> InvarianceReport:
    """Compare measure(f) with measure(f after substitution).

    Sampled mode draws ``trials`` random invertible linear substitutions and
    refuses fewer than one, which would compare nothing.  Exhaustive mode
    runs every element of GL_n over a tiny prime field (refused over the
    rationals or when the group has more than 10^4 elements).
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if trials == 0 and not exhaustive:
        raise ValueError("a sampled invariance check needs at least one trial")
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
