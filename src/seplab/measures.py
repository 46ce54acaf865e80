"""Rank-based complexity measures of polynomials, computed exactly.

Three measures are computed from a polynomial f:

* ``dim_partials`` — dimension of the span of all iterated partial
  derivatives of f, order 0 (f itself) included;
* ``shifted`` — rank of the span of order-k derivatives multiplied by all
  monomials of degree <= l;
* ``hessian_rank`` — rank of the matrix of second partials evaluated at a
  point.

``PARAMS`` names the parameters each measure reads, and ``measure_params``
is the one place that checks them: it refuses an unknown measure, a
parameter the measure does not read and a Hessian without a point, and fills
in shifted's defaults k = l = 1.

Every derivative measure is the rank of rows m * d^c f (a shift monomial
times a derivative of f), and ``derivative_rows`` is the one generator of
those rows; ``linalg.span_rank`` ranks them.  The operators c come from
``poly.derivative_operators``, which lists, order by order, exactly those
with a nonzero derivative, and ``derivative`` then serves each row from the
same levels.  Zero rows are never built, only columns that are hit are
ranked, and homogeneous f is ranked block by block; the row and column
counts reported are those of the full matrix over all operators, shifts and
monomials, counted with ``poly.monomial_count``.

For homogeneous f of degree d, order k of ``dim_partials`` is M_k[c][m] =
f_{c+m} (c+m)!/m! (|c| = k, |m| = d-k).  With G[c][m] = f_{c+m} (c+m)!,
M_k = G diag(1/m!) and M_{d-k} = (diag(1/c!) G)^T have the rank of G when
every e! with |e| = d is a unit: over Q and over F_p with p > d.  There only
orders k <= d/2 are ranked; over F_p with p <= d all are (x^2 over F_2: 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

from . import linalg
from .field import Scalar
from .poly import (
    Exponent,
    Poly,
    derivative,
    derivative_operators,
    evaluate,
    monomial_count,
    monomials_upto,
)

# the parameters each measure reads
PARAMS = {
    "dim_partials": (),
    "shifted": ("k", "l"),
    "hessian_rank": ("point",),
    "term_count": (),
}
MEASURES = tuple(PARAMS)


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


# ---------------------------------------------------------------------------
# derivative spans
# ---------------------------------------------------------------------------


def derivative_rows(
    f: Poly, ops: Sequence[Exponent], shifts: Sequence[Exponent] | None = None
) -> list[dict[Exponent, Scalar]]:
    """Sparse rows m * d^c f as term maps, shift-major (for m, for c).

    Without ``shifts`` the rows are the derivatives themselves (m = 1).  Each
    operator is applied once, by one ``derivative`` call; zero derivatives
    give empty rows, so row i always belongs to the i-th (shift, operator)
    pair.  Each shift maps the union of the derivatives' supports once, so
    a row costs one lookup per term.
    """
    derivs = [derivative(f, c).terms for c in ops]
    if shifts is None:
        return derivs
    support = {e for g in derivs for e in g}
    shifted = ({e: tuple(map(add, e, m)) for e in support} for m in shifts)
    return [{at[e]: v for e, v in g.items()} for at in shifted for g in derivs]


def _rows_rank(f: Poly, rows: list[dict]) -> int:
    """Span rank of rows built from f, by output-degree block when f is
    homogeneous (its rows are then too, so the matrix is block diagonal)."""
    if not f.is_homogeneous:
        return linalg.span_rank(rows, f.field)
    blocks: dict[int, list[dict]] = {}
    for r in rows:
        if r:
            blocks.setdefault(sum(next(iter(r))), []).append(r)
    return sum(linalg.span_rank(b, f.field) for b in blocks.values())


def dim_partials(f: Poly) -> int:
    """Dimension of the span of all partial derivatives of f, order 0 included.
    For homogeneous f of degree d over Q or F_p with p > d, order d-k has the
    rank of order k (module docstring), so the orders past d/2 are mirrored."""
    d, p = f.degree, f.field.p
    if not f.is_homogeneous:
        ops = [c for k in range(d + 1) for c in derivative_operators(f, k)]
        return linalg.span_rank(derivative_rows(f, ops), f.field)
    mirror = p is None or p > d
    ranks = [linalg.span_rank(derivative_rows(f, derivative_operators(f, k)), f.field)
             for k in range(d // 2 + 1 if mirror else d + 1)]
    return sum(r if 2 * k == d or not mirror else 2 * r for k, r in enumerate(ranks))


def shifted_partials_rank(f: Poly, k: int, l: int) -> int:
    """Rank of the order-k derivatives of f times all monomials of degree
    <= l; 0 when k > deg f (the zero polynomial included), as no order-k
    derivative survives."""
    if k < 0:
        raise ValueError(f"negative derivative order k={k}")
    if l < 0:
        raise ValueError("negative shift degree")
    shifts = monomials_upto(f.n, l) if k <= f.degree else []
    return _rows_rank(f, derivative_rows(f, derivative_operators(f, k), shifts))


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


def measure_params(name: str, params: dict | None = None) -> dict:
    """The parameters of a registered measure, checked against ``PARAMS``,
    with shifted's k and l defaulting to 1."""
    if name not in PARAMS:
        raise ValueError(f"unknown measure {name!r} (registered: {', '.join(MEASURES)})")
    params = dict(params or {})
    for key in params:
        if key not in PARAMS[name]:
            reads = ", ".join(PARAMS[name]) or "none"
            raise ValueError(f"measure {name} does not read parameter {key!r} (it reads: {reads})")
    if name == "hessian_rank" and "point" not in params:
        raise ValueError("hessian_rank needs a point parameter")
    return {"k": 1, "l": 1, **params} if name == "shifted" else params


def compute_measure(name: str, f: Poly, params: dict | None = None) -> MeasureReport:
    """Evaluate a registered measure on f, returning rank plus matrix shape.

    ``measure_params`` checks the parameters first.  term_count (the
    stored-monomial count) is a sparsity statistic that is *not*
    substitution-invariant, kept registered as a self-test probe.
    """
    params = measure_params(name, params)
    if name == "dim_partials":
        m = monomial_count(f.n + 1, f.degree)
        return MeasureReport(name, params, dim_partials(f), m, m)
    if name == "shifted":
        k, l = int(params["k"]), int(params["l"])
        rank_val = shifted_partials_rank(f, k, l)
        rows = monomial_count(f.n + 1, l) * monomial_count(f.n, k)
        cols = monomial_count(f.n + 1, f.degree - k + l)
        return MeasureReport(name, params, rank_val, rows, cols)
    if name == "hessian_rank":
        point = tuple(f.field.coerce(v) for v in params["point"])
        params["point"] = [str(v) for v in point]
        return MeasureReport(name, params, hessian_rank_at(f, point), f.n, f.n)
    count = len(f.terms)
    return MeasureReport(name, params, count, count, count)
