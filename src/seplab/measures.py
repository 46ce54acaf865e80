"""Rank-based complexity measures as exact labeled matrices.

Three measures are computed from a polynomial f:

* ``dim_partials`` — dimension of the span of all iterated partial
  derivatives of f (order 0, i.e. f itself, included by default);
* ``shifted`` — rank of the span of order-k derivatives multiplied by all
  monomials of degree <= l;
* ``hessian_rank`` — rank of the matrix of second partials evaluated at a
  point.

Every derivative measure is the rank of rows m * d^c f (a shift monomial
times a derivative of f), and ``derivative_rows`` is the one generator of
those rows; ``linalg.span_rank`` ranks them.  It asks ``poly.derivative``
once per operator, which serves each from the levels of derivatives it
keeps on f: order by order, each operator made once from the order below,
and returned without a second validation pass.  ``partial_deriv_matrix`` /
``shifted_partials_matrix`` densify the same rows into full matrices with
graded-lex row/column labels.  The rank entry points use rank-preserving
reductions (only operators below some term of f, zero rows skipped, only
columns that are hit, and per-degree block ranks for homogeneous f).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Sequence

from . import linalg
from .field import Field, Scalar
from .poly import (
    Exponent,
    Poly,
    derivative,
    evaluate,
    grlex_key,
    monomials_exact,
    monomials_upto,
)

MEASURES = ("dim_partials", "shifted", "hessian_rank", "term_count")


@dataclass(frozen=True)
class ExactMatrix:
    """Dense exact matrix with row and column labels."""

    field: Field
    entries: tuple[tuple[Scalar, ...], ...]
    row_labels: tuple
    col_labels: tuple

    def __post_init__(self):
        if len(self.entries) != len(self.row_labels):
            raise ValueError("row labels inconsistent with entries")
        if self.entries and any(
            len(r) != len(self.col_labels) for r in self.entries
        ):
            raise ValueError("column labels inconsistent with entries")

    @property
    def rows(self) -> int:
        return len(self.row_labels)

    @property
    def cols(self) -> int:
        return len(self.col_labels)


def rank_exact(m: ExactMatrix) -> int:
    """Exact rank (``linalg.rank``: Bareiss with deferred scaling over the
    rationals, elimination against monic pivot rows mod p)."""
    return linalg.rank(m.entries, m.field, ncols=m.cols)


@dataclass(frozen=True)
class MeasureReport:
    measure: str
    params: dict
    rank: int
    rows: int
    cols: int

    def __post_init__(self):
        if not (0 <= self.rank <= min(self.rows, self.cols) or self.rows == 0):
            raise ValueError("rank exceeds matrix dimensions")

    def to_json(self) -> dict:
        return {
            "measure": self.measure,
            "params": dict(self.params),
            "rank": self.rank,
            "rows": self.rows,
            "cols": self.cols,
        }


# ---------------------------------------------------------------------------
# derivative spans
# ---------------------------------------------------------------------------


def _derivative_operators(f: Poly) -> list[Exponent]:
    """Operator exponents c that can act nontrivially: c <= some term of f."""
    cands: set[Exponent] = set()
    for e in f.terms:
        cands.update(iter_product(*(range(v + 1) for v in e)))
    return sorted(cands, key=grlex_key)


def derivative_rows(
    f: Poly, ops: Sequence[Exponent], shifts: Sequence[Exponent] | None = None
) -> list[dict[Exponent, Scalar]]:
    """Sparse rows m * d^c f as term maps, shift-major (for m, for c).

    Without ``shifts`` the rows are the derivatives themselves (m = 1).  Each
    operator is applied once, by one ``derivative`` call; zero derivatives
    give empty rows, so row i always belongs to the i-th (shift, operator)
    pair.
    """
    derivs = [derivative(f, c).terms for c in ops]
    if shifts is None:
        return derivs
    return [
        {tuple(a + b for a, b in zip(e, m)): v for e, v in g.items()}
        for m in shifts
        for g in derivs
    ]


def _rows_rank(f: Poly, rows: list[dict]) -> int:
    """Span rank of rows built from f, summed over output-degree blocks.

    Blocks are used only for homogeneous f: its rows are then homogeneous,
    so the matrix is block diagonal once columns are grouped by degree.
    """
    if not f.is_homogeneous:
        return linalg.span_rank(rows, f.field)
    blocks: dict[int, list[dict]] = {}
    for r in rows:
        if r:
            blocks.setdefault(sum(next(iter(r))), []).append(r)
    return sum(linalg.span_rank(b, f.field) for b in blocks.values())


def _labeled_matrix(f: Poly, rows: list[dict], row_labels, cols) -> ExactMatrix:
    _, entries = linalg.densify(rows, f.field, cols)
    return ExactMatrix(
        f.field, tuple(map(tuple, entries)), tuple(row_labels), tuple(cols)
    )


def partial_deriv_matrix(f: Poly, include_order_zero: bool = True) -> ExactMatrix:
    """Full dense derivative matrix of f.

    Rows are indexed by every derivative operator of order 0..deg f (grlex
    order; the order-0 row is f itself and can be excluded), columns by every
    monomial of degree <= deg f; the entry is the coefficient of the column
    monomial in the row derivative.  Raises on the zero polynomial, whose
    derivative span is degenerate (rank 0 by convention).
    """
    if f.is_zero:
        raise ValueError("zero polynomial: derivative matrix is degenerate (rank 0)")
    cols = monomials_upto(f.n, f.degree)
    ops = cols if include_order_zero else cols[1:]
    return _labeled_matrix(f, derivative_rows(f, ops), ops, cols)


def dim_partials(f: Poly, include_order_zero: bool = True) -> int:
    """Dimension of the span of all iterated partial derivatives of f.

    Equals the rank of ``partial_deriv_matrix(f)``; computed here without
    materializing zero rows or untouched columns, and block-by-block for
    homogeneous f.
    """
    if f.is_zero:
        return 0
    ops = _derivative_operators(f)  # ops[0] is the order-0 operator
    return _rows_rank(f, derivative_rows(f, ops if include_order_zero else ops[1:]))


def _check_shifted(f: Poly, k: int, l: int) -> None:
    if f.is_zero or not 0 <= k <= f.degree:
        raise ValueError(f"derivative order k={k} outside 0..deg f")
    if l < 0:
        raise ValueError("negative shift degree")


def shifted_partials_matrix(f: Poly, k: int, l: int) -> ExactMatrix:
    """Full dense matrix of order-k derivatives shifted by degree-<=l monomials.

    Rows are labeled by (shift monomial, derivative operator) pairs, columns
    by monomials of degree <= deg f - k + l; the row content is the shift
    monomial times the order-k derivative.
    """
    _check_shifted(f, k, l)
    shifts = monomials_upto(f.n, l)
    ops = monomials_exact(f.n, k)
    labels = [(m, c) for m in shifts for c in ops]
    cols = monomials_upto(f.n, f.degree - k + l)
    return _labeled_matrix(f, derivative_rows(f, ops, shifts), labels, cols)


def shifted_partials_rank(f: Poly, k: int, l: int) -> int:
    """Rank of ``shifted_partials_matrix(f, k, l)`` via pruned block ranks."""
    _check_shifted(f, k, l)
    ops = [c for c in _derivative_operators(f) if sum(c) == k]
    return _rows_rank(f, derivative_rows(f, ops, monomials_upto(f.n, l)))


# ---------------------------------------------------------------------------
# Hessian
# ---------------------------------------------------------------------------


def hessian(f: Poly) -> tuple[tuple[Poly, ...], ...]:
    """n x n matrix of second partial derivatives (entries are polynomials)."""
    if f.n < 1:
        raise ValueError("hessian needs at least one variable")
    rows = []
    for i in range(f.n):
        row = []
        for j in range(f.n):
            orders = [0] * f.n
            orders[i] += 1
            orders[j] += 1
            row.append(derivative(f, tuple(orders)))
        rows.append(tuple(row))
    return tuple(rows)


def hessian_rank_at(f: Poly, point) -> int:
    """Exact rank of the scalar Hessian of f at the given point."""
    if len(point) != f.n:
        raise ValueError(f"point has {len(point)} entries, expected {f.n}")
    h = hessian(f)
    scalar_rows = [[evaluate(entry, point) for entry in row] for row in h]
    return linalg.rank(scalar_rows, f.field, ncols=f.n)


# ---------------------------------------------------------------------------
# named-measure registry
# ---------------------------------------------------------------------------


def compute_measure(name: str, f: Poly, params: dict | None = None) -> MeasureReport:
    """Evaluate a registered measure on f, returning rank plus matrix shape.

    Registered names: dim_partials (flag include_order_zero), shifted
    (k, l, both defaulting to 1), hessian_rank (point, required), and
    term_count (stored-monomial count -- a sparsity statistic that is *not*
    substitution-invariant, kept registered as a self-test probe).
    """
    params = dict(params or {})
    if name == "dim_partials":
        include = bool(params.get("include_order_zero", True))
        rank_val = dim_partials(f, include_order_zero=include)
        m = 0 if f.is_zero else len(monomials_upto(f.n, f.degree))
        rows = m if include or m == 0 else m - 1
        return MeasureReport(name, params, rank_val, rows, m)
    if name == "shifted":
        k = int(params.setdefault("k", 1))
        l = int(params.setdefault("l", 1))
        rank_val = shifted_partials_rank(f, k, l)
        rows = len(monomials_upto(f.n, l)) * len(monomials_exact(f.n, k))
        cols = len(monomials_upto(f.n, f.degree - k + l))
        return MeasureReport(name, params, rank_val, rows, cols)
    if name == "hessian_rank":
        if "point" not in params:
            raise ValueError("hessian_rank needs a point parameter")
        point = tuple(f.field.coerce(v) for v in params["point"])
        params["point"] = [f.field.fmt(v) for v in point]
        return MeasureReport(name, params, hessian_rank_at(f, point), f.n, f.n)
    if name == "term_count":
        count = len(f.terms)
        return MeasureReport(name, params, count, count, count)
    raise ValueError(f"unknown measure {name!r} (registered: {', '.join(MEASURES)})")
