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
those rows.  The operators c come from ``poly.derivative_operators``, which
lists, order by order, exactly those with a nonzero derivative, and
``derivative`` then serves each row from the same levels.  Zero rows are
never built and only columns that are hit are ranked; the row and column
counts reported are those of the full matrix over all operators, shifts and
monomials, counted with ``poly.monomial_count``.

These rows reach ``linalg`` only through ``_block_rank``, as blocks (key,
multiplicity, rows) ranked as the sum of multiplicity * span rank.  A
non-homogeneous f is one block; for homogeneous f each row is homogeneous of
degree D = deg f - |c| + |m| and rows of distinct D share no column, so
there is one block per D, in first-seen order.  In ``dim_partials`` of
homogeneous f of degree d the order-k block (D = d-k) is M_k[c][m] =
f_{c+m} (c+m)!/m!.  With G[c][m] = f_{c+m} (c+m)!, M_k = G diag(1/m!) and
M_{d-k} = (diag(1/c!) G)^T have the rank of G when every e! with |e| = d is
a unit: over Q and over F_p with p > d.  There only orders k <= d/2 are
built and the blocks with 2D > d count twice; over F_p with p <= d all
orders are ranked (x^2 over F_2: 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

from . import linalg
from .field import Field, Scalar
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
        if not 0 <= self.rank <= min(self.rows, self.cols):
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


def _blocks(f: Poly, rows: list[dict], mirror: bool = False) -> list[tuple]:
    """Rows built from f as (key, multiplicity, rows) blocks, graded by output
    degree D when f is homogeneous and counted twice where mirror and 2D > d."""
    if not f.is_homogeneous:
        return [(None, 1, rows)]
    by_degree: dict[int, list[dict]] = {}
    for r in rows:
        if r:
            by_degree.setdefault(sum(next(iter(r))), []).append(r)
    return [(D, 2 if mirror and 2 * D > f.degree else 1, b) for D, b in by_degree.items()]


def _block_rank(blocks: list[tuple], field: Field) -> int:
    """Sum of multiplicity * span rank over (key, multiplicity, rows) blocks;
    rows are nonzero canonical term maps, so one row is rank 1, not laid out."""
    return sum(
        mult * (1 if len(rows) == 1 else linalg.span_rank(rows, field))
        for _, mult, rows in blocks
    )


def dim_partials(f: Poly) -> int:
    """Dimension of the span of all partial derivatives of f, order 0 included."""
    d, p = f.degree, f.field.p
    mirror = f.is_homogeneous and (p is None or p > d)
    ops = [c for k in range(d // 2 + 1 if mirror else d + 1) for c in derivative_operators(f, k)]
    return _block_rank(_blocks(f, derivative_rows(f, ops), mirror), f.field)


def shifted_partials_rank(f: Poly, k: int, l: int) -> int:
    """Rank of the order-k derivatives of f times all monomials of degree
    <= l; 0 when k > deg f (the zero polynomial included), as no order-k
    derivative survives."""
    if k < 0:
        raise ValueError(f"negative derivative order k={k}")
    if l < 0:
        raise ValueError("negative shift degree")
    shifts = monomials_upto(f.n, l) if k <= f.degree else []
    rows = derivative_rows(f, derivative_operators(f, k), shifts)
    return _block_rank(_blocks(f, rows), f.field)


# ---------------------------------------------------------------------------
# Hessian
# ---------------------------------------------------------------------------


def hessian(f: Poly) -> tuple[tuple[Poly, ...], ...]:
    """n x n matrix of second partial derivatives (entries are polynomials)."""
    if f.n < 1:
        raise ValueError("hessian needs at least one variable")
    unit = [tuple(int(i == j) for j in range(f.n)) for i in range(f.n)]
    return tuple(tuple(derivative(f, tuple(map(add, a, b))) for b in unit) for a in unit)


def hessian_rank_at(f: Poly, point) -> int:
    """Exact rank of the scalar Hessian of f at the given point."""
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
