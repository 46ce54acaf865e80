"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's own elimination and
derivative code: ranks go through sympy, determinants through recursive
Laplace expansion, distances through a literal double loop or a plain
Gray walk.  Tests compare package results against these.
"""

from fractions import Fraction
import itertools

import sympy
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix


def _to_rational(x):
    if isinstance(x, Fraction):
        return sympy.Rational(x.numerator, x.denominator)
    return sympy.Rational(x)


def rational_rank(rows):
    """Exact rank over the rationals via sympy."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    return sympy.Matrix([[_to_rational(x) for x in r] for r in rows]).rank()


def qq_rank(rows):
    """Exact rank over the rationals via sympy's domain matrices over QQ.

    Unlike ``rational_rank`` it handles dense matrices of a few dozen rows and
    columns: a 50 x 60 integer matrix of rank 30 takes well under a second.
    """
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    return DomainMatrix(
        [[QQ(Fraction(x).numerator, Fraction(x).denominator) for x in r] for r in rows],
        (len(rows), len(rows[0])),
        QQ,
    ).rank()


def modular_rank(rows, p):
    """Exact rank over F_p via sympy's domain matrices."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    dom = GF(p)
    m = DomainMatrix(
        [[dom(int(x) % p) for x in r] for r in rows],
        (len(rows), len(rows[0])),
        dom,
    )
    return m.rank()


def oracle_rank(rows, p=None):
    if p is None:
        return rational_rank(rows)
    return modular_rank(rows, p)


def oracle_rref(rows, p=None):
    """Nonzero RREF rows and pivot columns via sympy.

    Over the rationals entries come back as Fractions; over F_p as integers
    in [0, p).
    """
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return [], []
    if p is None:
        reduced, pivots = sympy.Matrix(
            [[_to_rational(x) for x in r] for r in rows]
        ).rref()
        out = [
            [Fraction(int(x.p), int(x.q)) for x in reduced.row(i)]
            for i in range(len(pivots))
        ]
    else:
        dom = GF(p)
        reduced, pivots = DomainMatrix(
            [[dom(int(x) % p) for x in r] for r in rows],
            (len(rows), len(rows[0])),
            dom,
        ).rref()
        out = [[int(x) % p for x in r] for r in reduced.to_list()[: len(pivots)]]
    return out, list(pivots)


def two_rref_kernel(rows, ncols, p=None):
    """Canonical kernel basis built the long way, with sympy's RREF.

    RREF the matrix, make one vector per free column (1 there, minus the
    column's reduced entries at the pivots), then RREF those vectors.
    """
    reduced, pivots = oracle_rref(rows, p)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(reduced, pivots):
            v[c] = -row[f] if p is None else -row[f] % p
        basis.append(v)
    return oracle_rref(basis, p)[0] if basis else []


def nullspace_kernel(rows, ncols, p=None):
    """Canonical kernel basis from sympy's nullspace, brought to RREF."""
    rows = [list(r) for r in rows]
    if p is None:
        m = sympy.Matrix(len(rows), ncols, [_to_rational(x) for r in rows for x in r])
        basis = [list(v) for v in m.nullspace()]
    else:
        dom = GF(p)
        m = DomainMatrix([[dom(int(x) % p) for x in r] for r in rows], (len(rows), ncols), dom)
        basis = [[int(x) % p for x in r] for r in m.nullspace().to_list()]
    return oracle_rref(basis, p)[0] if basis else []


def eval_monomial_pow(point, e, q):
    """Value mod q of the monomial x^e at a point, one ``pow`` per variable."""
    v = 1
    for x, k in zip(point, e):
        if k:
            v = (v * pow(x, k, q)) % q
        if v == 0:
            return 0
    return v


def laplace_det(rows):
    """Determinant by recursive first-row Laplace expansion (Fractions)."""
    k = len(rows)
    if k == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(k):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * laplace_det(minor)
    return total


def minor_rank(rows, p=None):
    """Rank as the largest size of a nonvanishing minor (explicit search)."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    nr, nc = len(rows), len(rows[0])
    for size in range(min(nr, nc), 0, -1):
        for rsel in itertools.combinations(range(nr), size):
            for csel in itertools.combinations(range(nc), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                det = laplace_det(sub)
                if p is not None:
                    det = int(det) % p
                if det != 0:
                    return size
    return 0


def poly_to_sympy(f, xs):
    """Convert a package polynomial over Q to a sympy expression."""
    expr = sympy.Integer(0)
    for e, c in f.terms.items():
        term = _to_rational(c)
        for x, k in zip(xs, e):
            if k:
                term *= x**k
        expr += term
    return sympy.expand(expr)


def _span_rank_sympy(exprs, xs, p=None):
    polys = [sympy.Poly(g, *xs) for g in exprs if sympy.expand(g) != 0]
    if not polys:
        return 0
    monos = sorted({m for g in polys for m in g.monoms()})
    idx = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in polys:
        row = [sympy.Integer(0)] * len(monos)
        for m, c in zip(g.monoms(), g.coeffs()):
            row[idx[m]] = c
        rows.append(row)
    if p is None:
        return sympy.Matrix(rows).rank()
    return modular_rank([[int(x) for x in r] for r in rows], p)


def sympy_dim_partials(f, p=None):
    """Derivative-span dimension computed entirely through sympy.

    Over F_p the polynomial is lifted to the integers, differentiated there,
    and the coefficient matrix is reduced mod p afterwards (formal
    differentiation commutes with the reduction).
    """
    xs = sympy.symbols(f"x0:{f.n}")
    if f.n == 1:
        xs = (xs[0],) if not isinstance(xs, tuple) else xs
    expr = poly_to_sympy(f, xs)
    if expr == 0:
        return 0
    deg = sympy.Poly(expr, *xs).total_degree()
    derivs = []
    for total in range(deg + 1):
        for orders in itertools.product(range(total + 1), repeat=f.n):
            if sum(orders) != total:
                continue
            g = expr
            for x, k in zip(xs, orders):
                if k:
                    g = sympy.diff(g, x, k)
            g = sympy.expand(g)
            if g != 0:
                derivs.append(g)
    return _span_rank_sympy(derivs, xs, p)


def sympy_shifted_rank(f, k, l, p=None):
    """Shifted-partials rank via sympy: monomial shifts times order-k derivatives."""
    xs = sympy.symbols(f"x0:{f.n}")
    expr = poly_to_sympy(f, xs)
    if expr == 0:
        return 0
    derivs = []
    for orders in itertools.product(range(k + 1), repeat=f.n):
        if sum(orders) != k:
            continue
        g = expr
        for x, kk in zip(xs, orders):
            if kk:
                g = sympy.diff(g, x, kk)
        g = sympy.expand(g)
        if g != 0:
            derivs.append(g)
    shifted = []
    for shift_orders in itertools.product(range(l + 1), repeat=f.n):
        if sum(shift_orders) > l:
            continue
        mono = sympy.Integer(1)
        for x, kk in zip(xs, shift_orders):
            if kk:
                mono *= x**kk
        for g in derivs:
            shifted.append(sympy.expand(mono * g))
    return _span_rank_sympy(shifted, xs, p)


def naive_distance(bits, n, d):
    """Minimum disagreement with any degree-<=d multilinear F_2 polynomial.

    Literal double loop: every codeword (subset of low-degree monomials)
    against every point, no packing tricks.
    """
    monomials = []
    for size in range(min(d, n) + 1):
        monomials.extend(itertools.combinations(range(n), size))
    points = list(itertools.product((0, 1), repeat=n))
    assert len(bits) == len(points)
    best = len(points) + 1
    for take in itertools.product((0, 1), repeat=len(monomials)):
        chosen = [m for m, t in zip(monomials, take) if t]
        dist = 0
        for pt, want in zip(points, bits):
            val = 0
            for mono in chosen:
                val ^= all(pt[i] for i in mono)
            if val != want:
                dist += 1
        best = min(best, dist)
    return best


def gray_walk_distance(bits, n, d):
    """(distance, witness) against the degree-<=d code by a plain Gray walk.

    One XOR and one popcount per codeword, in the Gray order of the
    grlex-sorted monomials (constant first); the witness is the set of
    exponent tuples of the first codeword that reaches the minimum.
    """
    monomials = sorted(
        (e for e in itertools.product((0, 1), repeat=n) if sum(e) <= d),
        key=lambda e: (sum(e), e),
    )
    masks = [sum(1 << (n - 1 - i) for i, v in enumerate(e) if v) for e in monomials]
    tables = [sum(1 << idx for idx in range(1 << n) if idx & m == m) for m in masks]
    target = sum(1 << idx for idx, b in enumerate(bits) if b)
    best_dist, best_mask = gray_walk(tables, target)
    witness = {e for i, e in enumerate(monomials) if (best_mask >> i) & 1}
    return best_dist, witness


def gray_walk(tables, target):
    """(distance, Gray word) of the first word in Gray order nearest target,
    where bit i of a word selects the packed table ``tables[i]``."""
    best_dist = target.bit_count()
    best_mask = 0
    word = 0
    for k in range(1, 1 << len(tables)):
        flip = (k & -k).bit_length() - 1
        word ^= tables[flip]
        dist = (word ^ target).bit_count()
        if dist < best_dist:
            best_dist = dist
            best_mask = k ^ (k >> 1)
            if best_dist == 0:
                break
    return best_dist, best_mask


def exponent_orbit_dim(exponent, n):
    """Dimension of the span of one coefficient variable's symmetric orbit.

    Permuting the input variables sends the coefficient variable of x^e to
    the coefficient variable of the permuted exponent, so the orbit span has
    dimension equal to the number of distinct permuted exponents.
    """
    orbit = set()
    for p in itertools.permutations(range(n)):
        e2 = [0] * n
        for i, v in enumerate(exponent):
            e2[p[i]] = v
        orbit.add(tuple(e2))
    return len(orbit)
