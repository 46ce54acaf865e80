"""Dense exact linear algebra over the rationals and prime fields.

Matrices are lists of row lists of scalars.  Rank over the rationals uses
fraction-free Bareiss elimination on integer rows (each row is scaled by the
lcm of its denominators first, which preserves rank); rank over F_p uses
Gaussian elimination without inverses.  RREF and kernels are available over
both fields and are canonical, so subspace equality is basis equality.

Sparse rows are maps from column keys (exponent tuples) to scalars, such as
polynomial term maps.  ``densify`` lays them out over the grlex-sorted union
of their supports, and ``span_rank`` ranks the span they generate.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .field import Field, Scalar
from .poly import grlex_key


def _as_rows(rows, ncols: int | None) -> tuple[list[list], int]:
    m = [list(r) for r in rows]
    if m:
        width = len(m[0])
        if any(len(r) != width for r in m):
            raise ValueError("ragged matrix")
        if ncols is not None and ncols != width:
            raise ValueError(f"ncols={ncols} disagrees with row width {width}")
        return m, width
    if ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    return m, ncols


def _integer_rows(rows: list[list]) -> list[list[int]]:
    out = []
    for r in rows:
        fr = [x if isinstance(x, Fraction) else Fraction(x) for x in r]
        den = lcm(*(x.denominator for x in fr)) if fr else 1
        out.append([int(x * den) for x in fr])
    return out


def _rank_bareiss(m: list[list[int]]) -> int:
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            mrc = m[r][c]
            if mic:
                row_i, row_r = m[i], m[r]
                for j in range(c + 1, ncols):
                    row_i[j] = (mrc * row_i[j] - mic * row_r[j]) // prev
                row_i[c] = 0
            else:
                # The zero-pivot-column case still needs the full one-step
                # update (scale by mrc, divide by the previous pivot), or the
                # later exact divisions stop being exact.
                row_i = m[i]
                for j in range(c + 1, ncols):
                    row_i[j] = mrc * row_i[j] // prev
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def _rank_mod_p(m: list[list], p: int) -> int:
    m = [[x % p for x in row] for row in m]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        mrc = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            if mic:
                row_i, row_r = m[i], m[r]
                for j in range(c + 1, ncols):
                    row_i[j] = (mrc * row_i[j] - mic * row_r[j]) % p
                row_i[c] = 0
        r += 1
        if r == nrows:
            break
    return r


def rank(rows, field: Field, ncols: int | None = None) -> int:
    """Exact rank of a matrix over the given field."""
    m, width = _as_rows(rows, ncols)
    if not m or width == 0:
        return 0
    if field.p is None:
        return _rank_bareiss(_integer_rows(m))
    return _rank_mod_p(m, field.p)


def densify(
    rows: Sequence[Mapping], field: Field, cols: Sequence | None = None
) -> tuple[list, list[list[Scalar]]]:
    """Dense form of sparse rows: (column keys, one list per row).

    Columns default to the grlex-sorted union of the row supports; keys of a
    row outside an explicit ``cols`` are dropped.
    """
    if cols is None:
        cols = sorted({e for r in rows for e in r}, key=grlex_key)
    zero = field.zero()
    return cols, [[r.get(e, zero) for e in cols] for r in rows]


def span_rank(rows: Sequence[Mapping], field: Field) -> int:
    """Rank of the span of sparse rows (zero rows are skipped)."""
    cols, dense = densify([r for r in rows if r], field)
    return rank(dense, field, ncols=len(cols)) if cols else 0


def rref(rows, field: Field, ncols: int | None = None) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row-echelon form.

    Returns (nonzero rows with leading 1s, pivot column indices).  The result
    is the canonical RREF, so two row spaces are equal iff their RREFs are
    equal as lists.
    """
    m, width = _as_rows(rows, ncols)
    p = field.p
    if p is None:
        m = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in m]
    else:
        m = [[x % p for x in row] for row in m]
    pivots: list[int] = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        m[r] = [x * inv if p is None else x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                if p is None:
                    m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
                else:
                    m[i] = [(a - factor * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def right_kernel(rows, field: Field, ncols: int) -> list[list[Scalar]]:
    """Canonical (RREF) basis of {v : M·v = 0}."""
    reduced, pivots = rref(rows, field, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r_idx, pc in enumerate(pivots):
            v[pc] = field.neg(reduced[r_idx][fc])
        basis.append(v)
    reduced_basis, _ = rref(basis, field, ncols)
    return reduced_basis


def mat_mul(a, b, field: Field) -> list[list[Scalar]]:
    if not a or not b:
        raise ValueError("empty matrix product")
    if len(a[0]) != len(b):
        raise ValueError("inner dimension mismatch")
    p = field.p
    bt = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            s = sum(x * y for x, y in zip(row, col))
            out_row.append(field.coerce(s if p is None else s % p))
        out.append(out_row)
    return out


def mat_vec(a, v, field: Field) -> list[Scalar]:
    return [col[0] for col in mat_mul(a, [[x] for x in v], field)]


def identity_matrix(n: int, field: Field) -> list[list[Scalar]]:
    return [
        [field.one() if i == j else field.zero() for j in range(n)]
        for i in range(n)
    ]


def is_invertible(matrix: Sequence[Sequence], field: Field) -> bool:
    m = [list(r) for r in matrix]
    return bool(m) and len(m) == len(m[0]) == rank(m, field)
