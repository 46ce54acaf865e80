"""Group elements acting on polynomials and on coefficient space.

Three kinds of element act on a polynomial ring: invertible linear maps
(substitute x by A·x), invertible affine maps (x by A·x + b), and variable
permutations.  ``induced_coeff_map`` turns an element into the matrix of its
action on the coefficient vectors of fixed-degree polynomials, which is how
test polynomials are transported.  ``invariance_check`` measures a polynomial
before and after random (or exhaustively enumerated) substitutions.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from dataclasses import dataclass
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
    """A linear / affine / permutation symmetry of the ambient variables.

    ``matrix`` rows are tuples of field scalars (linear & affine kinds),
    ``shift`` is the affine translation, ``perm`` is a one-line permutation
    array (perm[i] is where variable i goes).  Use the factory functions;
    they validate invertibility by exact rank.
    """

    kind: str
    n: int
    field: Field | None = None
    matrix: tuple[tuple[Scalar, ...], ...] | None = None
    shift: tuple[Scalar, ...] | None = None
    perm: tuple[int, ...] | None = None

    def describe(self) -> str:
        if self.kind == "perm":
            return f"perm{list(self.perm)}"
        tag = "linear" if self.kind == "linear" else "affine"
        return f"{tag}({self.n}x{self.n} over {self.field})"


def linear_element(matrix: Sequence[Sequence], field: Field = RATIONALS) -> GroupElement:
    rows = tuple(tuple(field.coerce(v) for v in row) for row in matrix)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if not linalg.is_invertible(rows, field):
        raise ValueError("matrix is singular")
    return GroupElement("linear", n, field, rows)


def affine_element(
    matrix: Sequence[Sequence], shift: Sequence, field: Field = RATIONALS
) -> GroupElement:
    rows = tuple(tuple(field.coerce(v) for v in row) for row in matrix)
    n = len(rows)
    if any(len(r) != n for r in rows) or len(shift) != n:
        raise ValueError("matrix must be square and match the shift length")
    if not linalg.is_invertible(rows, field):
        raise ValueError("matrix is singular")
    b = tuple(field.coerce(v) for v in shift)
    return GroupElement("affine", n, field, rows, b)


def permutation_element(perm: Sequence[int]) -> GroupElement:
    p = tuple(int(v) for v in perm)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation: {p}")
    return GroupElement("perm", len(p), perm=p)


def identity_element(n: int, field: Field = RATIONALS) -> GroupElement:
    return linear_element(linalg.identity_matrix(n), field)


def apply(g: GroupElement, f: Poly) -> Poly:
    """Substitute the element into f (f composed with the variable map)."""
    if g.n != f.n:
        raise ValueError(f"arity mismatch: element on {g.n}, polynomial on {f.n}")
    if g.kind == "perm":
        terms = {}
        for e, c in f.terms.items():
            e2 = [0] * f.n
            for i, v in enumerate(e):
                e2[g.perm[i]] = v
            terms[tuple(e2)] = c
        return Poly(f.n, f.field, terms)
    if g.field != f.field:
        raise ValueError(f"field mismatch: {g.field} vs {f.field}")
    if g.kind == "linear":
        return polyops.substitute_linear(f, g.matrix)
    return polyops.substitute_affine(f, g.matrix, g.shift)


def _as_matrix(g: GroupElement) -> tuple:
    if g.kind == "perm":
        return tuple(
            tuple(int(j == g.perm[i]) for j in range(g.n))
            for i in range(g.n)
        )
    return g.matrix


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Element whose action is "h first, then g" on polynomials.

    Substitutions compose right-to-left: apply(compose(g, h), f) equals
    apply(g, apply(h, f)).  On matrices that is A_h · A_g; on permutations
    i -> g(h(i)).
    """
    if g.n != h.n:
        raise ValueError("arity mismatch")
    if g.kind == "perm" and h.kind == "perm":
        return permutation_element(tuple(g.perm[h.perm[i]] for i in range(g.n)))
    field = g.field or h.field
    if g.field is not None and h.field is not None and g.field != h.field:
        raise ValueError("field mismatch")
    a_g = _as_matrix(g)
    a_h = _as_matrix(h)
    m = linalg.mat_mul(a_h, a_g, field)
    if g.kind != "affine" and h.kind != "affine":
        return linear_element(m, field)
    b_g = g.shift if g.kind == "affine" else (0,) * g.n
    b_h = h.shift if h.kind == "affine" else (0,) * h.n
    b = [x + y for x, y in zip(linalg.mat_vec(a_h, b_g, field), b_h)]
    return affine_element(m, b, field)


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


def random_permutation(n: int, rng: random.Random) -> GroupElement:
    order = list(range(n))
    rng.shuffle(order)
    return permutation_element(order)


def enumerate_permutations(n: int) -> list[GroupElement]:
    if n > 8:
        raise InfeasibleError(f"refusing to enumerate {n}! permutations (n > 8)")
    return [permutation_element(p) for p in itertools.permutations(range(n))]


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
    g: GroupElement,
    d: int,
    field: Field | None = None,
    homogeneous: bool | None = None,
) -> CoeffMap:
    """Coefficient-space matrix of g on degree-d polynomials.

    The basis is the grlex list of degree-exactly-d monomials (dimension
    binom(n+d-1, d)); pass ``homogeneous=False`` for the degree-<=d basis,
    which is required for affine elements with a nonzero shift (they do not
    preserve the homogeneous slice).
    """
    fld = field or g.field
    if fld is None:
        raise ValueError("a field is required for a permutation element")
    if homogeneous is None:
        homogeneous = not (
            g.kind == "affine" and any(v != 0 for v in g.shift)
        )
    basis = (
        monomials_exact(g.n, d) if homogeneous else monomials_upto(g.n, d)
    )
    images = [apply(g, monomial(e, 1, fld)).terms for e in basis]
    try:
        _, cols = linalg.densify(images, basis)
    except ValueError as exc:
        raise ValueError(
            "element does not preserve the chosen coefficient space; "
            "use homogeneous=False"
        ) from exc
    matrix = tuple(zip(*cols))
    return CoeffMap(g.n, d, fld, homogeneous, tuple(basis), matrix)


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
        return {
            "measure": self.measure,
            "params": dict(self.params),
            "base": self.base,
            "values": list(self.values),
            "all_equal": self.all_equal,
            "mode": self.mode,
            "trials": self.trials,
        }


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
