"""Dense exact linear algebra over the rationals and prime fields.

Matrices are lists of row lists of scalars.  One forward-elimination routine
serves both fields, and each of its steps touches only the rows with a
nonzero pivot-column entry and, in them, only nonzero columns.  Rows over the
rationals are scaled to integers by the lcm of their denominators (which
preserves the row space) and eliminated fraction-free (Bareiss), with the
rescaling of skipped rows deferred until they are next touched; rows over F_p
are reduced mod p and eliminated against a monic pivot row.  Rank is the
number of pivots it finds, RREF back-substitutes over the echelon rows it
leaves, and a kernel is one RREF of the matrix with its columns reversed.

A ℚ rank of a matrix with at least ``_CERT_MIN_DIM`` rows and columns is
certified from one elimination mod a prime p below 2**30 instead.  A minor
that is nonzero mod p is nonzero over ℤ, so the rank r mod p is a lower bound,
and it is the rank when it fills the smaller side.  Otherwise the smaller
kernel mod p is lifted to ℚ by rational reconstruction (Wang's, else a large
quotient's) and checked exactly over ℤ; its vectors are independent, so if
all pass the rank is at most r.  Vectors that fail are redone modulo a
product of two primes by CRT, and if that fails too, or an unlucky prime
(rank mod p below the ℚ rank) makes the pivots disagree, Bareiss decides.
Smaller matrices, RREF and kernels always use Bareiss.  A rank of that size,
over either field, takes dense rows but reads only their nonzeros, once: mod
p each sparse row is packed into one int from its nonzeros and kept as read
if it becomes a pivot unreduced; over F_p a tall matrix is read by columns.
RREF, kernels and smaller ranks stay on list rows.

Sparse rows are maps from column keys (exponent tuples) to scalars, such as
polynomial term maps; ``densify`` is the one place they are laid out as dense
rows.  Its columns are the grlex-sorted union of the row supports, or a given
column list that must hold every key (a key outside it raises ValueError).
``span_rank`` ranks the span of sparse rows.

``Subspace`` is the one exact subspace type: columns plus the canonical RREF
basis, so subspace equality is basis equality.  ``span`` builds one from
sparse rows and ``kernel`` from the null space of a dense matrix; it
intersects with another subspace and gives its annihilator, over either field.
"""

from __future__ import annotations

import struct
from bisect import bisect
from dataclasses import dataclass
from itertools import compress
from math import isqrt, lcm
from operator import mul, or_
from typing import Callable, Mapping, Sequence

from .field import Field, Scalar
from .poly import _grlex_sorted


def _eliminate(m: list[list[int]], p: int | None) -> list[int]:
    """Forward-eliminate integer rows in place; return the pivot columns.

    Afterwards the first len(pivots) rows are an echelon basis of the row
    space and the rest are 0.  A step skips every row whose pivot-column
    entry is 0 and, in the rows it updates, every column where both that row
    and the pivot row are 0.

    Mod p (rows already reduced) the pivot row is made monic with one
    inverse and its nonzero columns past the pivot are listed once, negated,
    so the rows below add (faster % p) in those columns only.

    With ``p`` None this is fraction-free Bareiss with deferred scaling.  A
    Bareiss step only rescales a row whose pivot-column entry is 0, so that
    scaling waits: ``d`` holds 1 and the pivots so far, and ``stamp[i]`` the
    step at which row i was last brought up to date.  When a row is next
    touched at step k, as the pivot or as a row being eliminated, each nonzero
    x first becomes x * d[k] // d[s] for its stamp s, before its pivot-column
    entry is read; that is its Bareiss value, so the division is exact.
    """
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    d = [1]
    stamp = [0] * nrows

    def catch_up(row: list[int], s: int, k: int, c: int) -> None:
        num, den = d[k], d[s]
        for j in range(c, ncols):
            if row[j]:
                row[j] = row[j] * num // den

    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        stamp[r], stamp[piv] = stamp[piv], stamp[r]
        row_r = m[r]
        if p is not None:
            inv = pow(row_r[c], -1, p)
            nz = [(j, -x * inv % p) for j in range(c + 1, ncols) if (x := row_r[j])]
            if inv != 1:
                for j, x in nz:
                    row_r[j] = p - x
                row_r[c] = 1
            for row_i in m[r + 1 :]:
                f = row_i[c]
                if f:
                    for j, x in nz:
                        row_i[j] = (row_i[j] + f * x) % p
                    row_i[c] = 0
        else:
            if stamp[r] != r:
                catch_up(row_r, stamp[r], r, c)
            mrc, prev = row_r[c], d[r]
            for i in range(r + 1, nrows):
                row_i = m[i]
                if row_i[c]:
                    if stamp[i] != r:
                        catch_up(row_i, stamp[i], r, c)
                    mic = row_i[c]
                    for j in range(c + 1, ncols):
                        a, b = row_i[j], row_r[j]
                        if b:
                            row_i[j] = (mrc * a - mic * b) // prev
                        elif a:
                            row_i[j] = mrc * a // prev
                    row_i[c] = 0
                    stamp[i] = r + 1
            d.append(mrc)
        pivots.append(c)
    return pivots


def _width(rows, ncols: int | None) -> int:
    """Check the matrix shape; return its column count."""
    width = len(rows[0]) if rows else ncols
    if width is None:
        raise ValueError("empty matrix needs an explicit column count")
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix")
    if ncols is not None and ncols != width:
        raise ValueError(f"ncols={ncols} disagrees with row width {width}")
    return width


def _field_rows(rows, field: Field) -> list[list[int]]:
    """New rows of ints ready to eliminate, so the caller's rows are never
    touched: residues mod p, or over ℚ each row times the lcm of its
    denominators (which keeps the row space)."""
    p = field.p
    if p is not None:
        # a Fraction stays a Fraction under % p, so it goes through coerce
        coerce = field.coerce
        return [[x % p if type(x) is int else coerce(x) for x in row] for row in rows]
    out = []
    for r in rows:
        # ints and Fractions both carry numerator and denominator; a row of
        # ints is copied as it is
        if set(map(type, r)) <= {int}:
            out.append(list(r))
            continue
        den = lcm(*(x.denominator for x in r))
        out.append([x.numerator * (den // x.denominator) for x in r])
    return out


# Over ℚ a matrix with at least this many rows and columns is ranked mod a
# prime and certified (see ``rank``).  Below it a kernel that fails to lift
# costs more than the Bareiss run it was meant to save.
_CERT_MIN_DIM = 48
# A residue below 2**30 is one CPython digit.  The second prime serves only
# kernels that do not lift from the first.
_CERT_PRIMES = (1073741789, 1073741783)


def _packed_echelon(rows, p: int, ncols: int) -> tuple[dict[int, tuple[int, int]], Callable]:
    """An echelon basis of sparse rows of residues mod p, one int per row:
    ({leading column: (the packed entries past it, the inverse of the leading
    entry)}, unpack to a packed row's nonzero columns and their values).

    Column j is slot ncols-1-j, so a row leads at its highest nonzero slot.  A
    slot is the smallest of 8 to 128 bits (128: low word, 8 zero bytes) that
    holds (ncols+1)·p²: a row meets each pivot once at most, gaining at most
    (p-1)² per slot, so no slot carries.  A row is packed by writing its
    nonzeros into zeroed bytes.  A pivot row is kept as read, not made monic;
    only one that was reduced has its slots taken mod p.  Rows are read until
    the rank is full.
    """
    w = next(b for b in (8, 16, 32, 64, 128) if (ncols + 1) * p * p < 1 << b)
    code, wide = {8: "B", 16: "H", 32: "I"}.get(w, "Q"), w > 64  # "<": standard sizes
    words, put = struct.Struct(f"<{ncols * (1 + wide)}{code}"), struct.Struct("<" + code).pack_into
    cols, at = list(range(ncols)), [(ncols - 1 - j) * w // 8 for j in range(ncols)]

    def pack(js, xs) -> int:
        buf = bytearray(words.size)
        for j, x in zip(js, xs):
            put(buf, at[j], x)
        return int.from_bytes(buf, "little")

    def unpack(big: int) -> tuple[list[int], list[int]]:
        a = words.unpack(big.to_bytes(words.size, "little"))[::-1]  # by column
        if not wide:
            return list(compress(cols, a)), list(compress(a, a))
        lo, hi = a[1::2], a[::2]
        js = list(compress(cols, map(or_, lo, hi)))
        return js, [lo[j] | hi[j] << 64 for j in js]

    full, table = min(len(rows), ncols), {}
    for js, xs in rows:
        big, reduced = pack(js, xs), False
        while big:
            s = (big.bit_length() - 1) // w
            top = big >> s * w
            big ^= top << s * w  # clears slot s
            if top := top % p:
                t = table.get(s)
                if t is None:
                    if reduced and wide:  # each slot mod p; a 128-bit slot is two words
                        js, xs = unpack(big)
                        big = pack(js, [x % p for x in xs])
                    elif reduced:  # one word per slot: every word at once
                        a = words.unpack(big.to_bytes(words.size, "little"))
                        big = int.from_bytes(words.pack(*[x % p for x in a]), "little")
                    table[s] = big, pow(top, -1, p)
                    break
                big += (p - top * t[1] % p) * t[0]
                reduced = True
        if len(table) == full:
            break
    return {ncols - 1 - s: t for s, t in table.items()}, unpack


def _sparse(rows, field: Field, width: int) -> list[tuple[list[int], list[int]]]:
    """Each row's nonzeros, read once: (columns, values ready to eliminate)."""
    values, cols = _field_rows([list(compress(r, r)) for r in rows], field), list(range(width))
    return list(zip([list(compress(cols, r)) for r in rows], values))


def _transpose(rows, width: int) -> list[tuple[list[int], list]]:
    """The columns of a matrix of sparse rows, as sparse rows."""
    cols = [([], []) for _ in range(width)]
    for i, (js, xs) in enumerate(rows):
        for j, x in zip(js, xs):
            cols[j][0].append(i)
            cols[j][1].append(x)
    return cols


def _mod_kernel(m, p: int, width: int) -> tuple[list[int], Callable[[int], dict[int, int]] | None]:
    """Eliminate sparse integer rows mod p: (pivot columns, kernel vector maker).

    The maker takes a free column f and returns, as {column: residue}, the
    kernel vector that is 1 at f and 0 at every other free column, found by
    back-substitution over the echelon rows that meet its nonzeros (None at
    full rank, where no column is free).
    """
    table, unpack = _packed_echelon([(js, [x % p for x in xs]) for js, xs in m], p, width)
    pivots = sorted(table)
    if len(pivots) == width:
        return pivots, None
    nz, rows_at = [], [[] for _ in range(width)]
    for k, c in enumerate(pivots):
        tail, inv = table[c]
        js, xs = unpack(tail)
        nz.append((js, [x * inv % p for x in xs]))
        for j in js:
            rows_at[j].append(k)

    def vector(f: int) -> dict[int, int]:
        v = [0] * width
        v[f] = 1
        todo = set(rows_at[f])
        for k in range(bisect(pivots, f) - 1, -1, -1):
            if k in todo:
                js, xs = nz[k]
                if x := -sum(map(mul, xs, map(v.__getitem__, js))) % p:
                    v[pivots[k]] = x
                    todo.update(rows_at[pivots[k]])
        return {j: x for j, x in enumerate(v) if x}

    return pivots, vector


def _lift(v: dict[int, int], m: int) -> dict[int, int] | None:
    """An integer multiple of the rational vector that is v mod m, or None.

    Each entry times the common denominator so far is reconstructed (Wang)
    with numerator and denominator at most sqrt(m/2).  If that fails, each
    is instead the remainder over cofactor just before the first quotient of
    its Euclidean run above sqrt(m/2)/16 (Monagan's large-quotient test),
    which needs |numerator·denominator| below about 16·sqrt(2m): integer
    entries 4 bits past Wang's bound still lift.
    """
    bound = isqrt(m >> 1)
    for wang in (True, False):
        den, parts = 1, []
        for j, a in v.items():
            r0, r1, t0, t1 = m, a * den % m, 0, 1
            while r1 > bound if wang else r1 and r0 // r1 <= bound >> 4:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if t1 < 0:
                r1, t1 = -r1, -t1
            den *= t1
            if den > bound if wang else not r1:
                break
            parts.append((j, r1, den))
        else:
            return {j: n * (den // d) for j, n, d in parts}
    return None


def _certified_rank(a: list, width: int) -> int | None:
    """The ℚ rank of sparse integer rows certified mod _CERT_PRIMES, or None.

    M is a, or its transpose if that has fewer columns, so that the kernel
    lifted is the smaller one.  Each kernel vector mod p1 is 1 at its own
    free column and 0 at the others, so the lifted vectors are independent.
    """
    tall = width <= len(a)
    mrows, mwidth = (a, width) if tall else (_transpose(a, width), len(a))
    p1, p2 = _CERT_PRIMES
    pivots, vector1 = _mod_kernel(mrows, p1, mwidth)
    if len(pivots) == mwidth:
        return mwidth
    cols = _transpose(a, width) if tall else a

    def verified(v: dict[int, int], m: int) -> bool:
        w = _lift(v, m)
        if w is None:
            return False
        acc = [0] * len(mrows)
        for j, x in w.items():
            for i, y in zip(*cols[j]):
                acc[i] += x * y
        return not any(acc)

    pivot_set = set(pivots)
    kernel1 = {f: vector1(f) for f in range(mwidth) if f not in pivot_set}
    failed = [f for f, v in kernel1.items() if not verified(v, p1)]
    if failed:
        pivots2, vector2 = _mod_kernel(mrows, p2, mwidth)
        if pivots2 != pivots:
            return None
        # x mod p1 and y mod p2 are x·e1 + y·e2 mod p1·p2
        e1, e2 = p2 * pow(p2, -1, p1), p1 * pow(p1, -1, p2)
        for f in failed:
            v1, v2 = kernel1[f], vector2(f)
            v = {
                j: (v1.get(j, 0) * e1 + v2.get(j, 0) * e2) % (p1 * p2)
                for j in v1.keys() | v2.keys()
            }
            if not verified(v, p1 * p2):
                return None
    return len(pivots)


def rank(rows, field: Field, ncols: int | None = None) -> int:
    """Exact rank of a matrix over the given field.

    Over ℚ a matrix with at least _CERT_MIN_DIM rows and columns is ranked
    mod a prime below 2**30 first.  That rank r is a lower bound, and it is
    returned when it fills the smaller side, or when the smaller kernel mod p
    lifts to ℚ and passes an exact check over ℤ, which bounds the rank by r
    from above.  Otherwise, and for every smaller matrix, fraction-free
    Bareiss gives the rank.  Over F_p a matrix that size has packed rows, of
    its shorter side: rank(M) = rank(Mᵀ), so a tall one is read by columns.
    Either way a matrix that size is read once, nonzeros only.
    """
    width = _width(rows, ncols)
    if min(len(rows), width) >= _CERT_MIN_DIM:
        sparse = _sparse(rows, field, width)
        if field.p is not None:
            if len(rows) > width:
                sparse, width = _transpose(sparse, width), len(rows)
            return len(_packed_echelon(sparse, field.p, width)[0])
        r = _certified_rank(sparse, width)
        if r is not None:
            return r
    return len(_eliminate(_field_rows(rows, field), field.p))


def densify(
    rows: Sequence[Mapping], cols: Sequence | None = None
) -> tuple[list, list[list[Scalar]]]:
    """Dense form of sparse rows: (column keys, one list per row).

    Columns default to the grlex-sorted union of the row supports.  With an
    explicit ``cols`` every key of every row must be one of them; a key
    outside raises ValueError instead of being dropped.
    """
    if cols is None:
        cols = _grlex_sorted({e for r in rows for e in r})
    index = {e: i for i, e in enumerate(cols)}
    dense = []
    for r in rows:
        row = [0] * len(cols)
        for e, c in r.items():
            if e not in index:
                raise ValueError(f"key {e} outside the given columns")
            row[index[e]] = c
        dense.append(row)
    return cols, dense


def span_rank(rows: Sequence[Mapping], field: Field) -> int:
    """Rank of the span of sparse rows (zero rows are skipped)."""
    cols, dense = densify([r for r in rows if r])
    return rank(dense, field, ncols=len(cols)) if cols else 0


def rref(rows, field: Field, ncols: int | None = None) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row-echelon form.

    Returns (nonzero rows with leading 1s, pivot column indices).  The result
    is the canonical RREF, so two row spaces are equal iff their RREFs are
    equal as lists.
    """
    ncols = _width(rows, ncols)
    m = _field_rows(rows, field)
    p = field.p
    pivots = _eliminate(m, p)
    # Back-substitute over the echelon rows, bottom row first: scale each
    # pivot row to a leading 1 (mod p it already has one), list its nonzeros
    # past the pivot once, and clear its pivot column in the rows above,
    # updating only those columns.
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        row = m[k]
        if p is None:
            inv = field.inv(row[c])
            row[c] = 1
            for j in range(c + 1, ncols):
                if row[j]:
                    row[j] *= inv
        nz = [(j, x) for j in range(c + 1, ncols) if (x := row[j])]
        for row_i in m[:k]:
            f = row_i[c]
            if f:
                if p is None:
                    for j, x in nz:
                        row_i[j] -= f * x
                else:
                    for j, x in nz:
                        row_i[j] = (row_i[j] - f * x) % p
                row_i[c] = 0
    m = m[: len(pivots)]
    if p is None:
        # pivot inverses are Fractions; integral values become ints again
        m = [[x.numerator if x.denominator == 1 else x for x in row] for row in m]
    return m, pivots


def right_kernel(rows, field: Field, ncols: int) -> list[list[Scalar]]:
    """Canonical (RREF) basis of {v : M·v = 0}, from one RREF of M with its
    columns reversed.

    There each free column f gives the kernel vector that is 1 at f, 0 at the
    other free columns and otherwise nonzero only at pivot columns left of f.
    Read back in the original column order it leads with its 1, where the
    other vectors are 0, so taken by decreasing f the vectors are the RREF.
    """
    reduced, pivots = rref([r[::-1] for r in rows], field, ncols)
    p, pivot_set = field.p, set(pivots)
    basis = []
    for f in range(ncols - 1, -1, -1):
        if f in pivot_set:
            continue
        v = [0] * ncols
        v[ncols - 1 - f] = 1
        for row, c in zip(reduced, pivots):
            if c > f:
                break
            if x := row[f]:
                v[ncols - 1 - c] = -x if p is None else p - x
        basis.append(v)
    return basis


@dataclass(frozen=True)
class Subspace:
    """Subspace of the space of rows over ``cols``, kept as its canonical RREF
    basis; build it with ``span`` or ``kernel``."""

    field: Field
    cols: tuple
    basis: tuple[tuple[Scalar, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def term_maps(self) -> list[dict]:
        """The basis as sparse rows keyed by column."""
        return [{e: c for e, c in zip(self.cols, row) if c} for row in self.basis]

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection with a subspace of the same ambient space.

        Solves U^T x = W^T y: the right kernel of the block matrix
        [U^T | -W^T] gives coefficient pairs, and each x part maps to one
        intersection vector x·U.  The pairs come in RREF, every one leading
        in its x part (W's rows are independent), and U is the identity at
        its pivot columns; so the vectors x·U are already in RREF.
        """
        if self.field != other.field or self.cols != other.cols:
            raise ValueError("subspaces live in different ambient spaces")
        if not self.basis or not other.basis:
            return Subspace(self.field, self.cols, ())
        p = self.field.p
        block = [
            list(u) + [-w if p is None else p - w if w else 0 for w in ws]
            for u, ws in zip(zip(*self.basis), zip(*other.basis))
        ]
        pairs = right_kernel(block, self.field, ncols=self.dim + other.dim)
        xs = [v[: self.dim] for v in pairs]
        rows = mat_mul(xs, self.basis, self.field) if xs else []
        return Subspace(self.field, self.cols, tuple(map(tuple, rows)))

    def annihilator(self) -> "Subspace":
        """All v with u·v = 0 for every u in the subspace."""
        return kernel(self.basis, self.field, self.cols)


def span(rows: Sequence[Mapping], field: Field, cols: Sequence | None = None) -> Subspace:
    """Span of sparse rows, laid out over ``cols`` as ``densify`` does."""
    cols, dense = densify(rows, cols)
    reduced, _ = rref(dense, field, ncols=len(cols))
    return Subspace(field, tuple(cols), tuple(map(tuple, reduced)))


def kernel(rows, field: Field, cols: Sequence) -> Subspace:
    """{v : M·v = 0} for the dense matrix M whose columns are ``cols``."""
    basis = right_kernel(rows, field, ncols=len(cols))
    return Subspace(field, tuple(cols), tuple(map(tuple, basis)))


def mat_mul(a, b, field: Field) -> list[list[Scalar]]:
    if not a or not b:
        raise ValueError("empty matrix product")
    if len(a[0]) != len(b):
        raise ValueError("inner dimension mismatch")
    bt = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            out_row.append(field.coerce(sum(x * y for x, y in zip(row, col))))
        out.append(out_row)
    return out


def identity_matrix(n: int) -> list[list[Scalar]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def is_invertible(matrix: Sequence[Sequence], field: Field) -> bool:
    m = [list(r) for r in matrix]
    return bool(m) and len(m) == len(m[0]) == rank(m, field)
