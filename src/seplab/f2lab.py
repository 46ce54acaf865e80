"""Finite-field function-space constructions at desk scale.

Truth tables over F_2 convert to and from multilinear polynomials by the
XOR subset-sum (binary Moebius) transform.  ``distance_to_degree`` finds the
exact Hamming distance from a table to the nearest low-degree function by
walking the code's words of degree >= 2 in Gray-code order and reading the
affine words off a Walsh-Hadamard transform.  Over a general prime
field F_q the module works with *functions*, i.e. polynomials reduced by
x^q = x, and subspaces of the reduced monomial space are ``linalg.Subspace``
values: vanishing ideals of point sets, subspace intersections by two
independent strategies, and a twisted-derivative intersection check against
the invertible-matrix locus.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt
from typing import Callable, Sequence

from . import groups, linalg
from . import poly as polyops
from .errors import InfeasibleError
from .field import prime_field
from .poly import Poly, derivative, derivative_operators, monomials_exact

# bytes of 0/1 values <-> the ASCII digits that int(..., 2) and format() use
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")

_DISTANCE_CODE_BITS = 24
_DISTANCE_MAX_VARS = 16
_PACK_BITS = 1 << 16
_GK_MAX_CELLS = 500_000

# The independent ways ``intersect_all`` can intersect subspaces.
STRATEGIES = ("pairwise", "stacked")

F2 = prime_field(2)


# ---------------------------------------------------------------------------
# truth tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruthTable:
    """Boolean function on n bits, stored as 2^n values in point-lex order.

    The point (x_1, .., x_n) sits at index sum x_i * 2^(n-1-i), so x_1 is the
    most significant index bit and the all-zeros point comes first.
    """

    n: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("need a nonnegative variable count")
        if len(self.bits) != 1 << self.n:
            raise ValueError(
                f"table for {self.n} variables needs {1 << self.n} entries, "
                f"got {len(self.bits)}"
            )
        if not set(self.bits) <= {0, 1}:
            raise ValueError("table entries must be 0 or 1")

    def as_int(self) -> int:
        """The table packed into an integer, bit i = value at point index i."""
        return int(bytes(self.bits[::-1]).translate(_TO_DIGITS), 2)


def point_index(point: Sequence[int], n: int) -> int:
    return sum((1 << (n - 1 - i)) for i, v in enumerate(point) if v)


def index_point(idx: int, n: int) -> tuple[int, ...]:
    return tuple((idx >> (n - 1 - i)) & 1 for i in range(n))


def truth_table(n: int, predicate: Callable[[tuple[int, ...]], object]) -> TruthTable:
    """Tabulate a predicate over all 2^n points."""
    bits = tuple(
        1 if predicate(index_point(idx, n)) else 0 for idx in range(1 << n)
    )
    return TruthTable(n, bits)


def _bits(word: int, n: int) -> tuple[int, ...]:
    """Bits 0 .. 2^n - 1 of word, lowest first (inverse of ``as_int``)."""
    size = 1 << n
    digits = format(word & ((1 << size) - 1), f"0{size}b")
    return tuple(digits[::-1].encode().translate(_FROM_DIGITS))


def table_from_int(n: int, word: int) -> TruthTable:
    return TruthTable(n, _bits(word, n))


def format_table(t: TruthTable) -> str:
    return f"n={t.n}\n" + "".join(str(b) for b in t.bits) + "\n"


def parse_table(text: str) -> TruthTable:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("n="):
        raise ValueError('expected a "n=<int>" header line and one bit line')
    n = int(lines[0][2:])
    if any(ch not in "01" for ch in lines[1]):
        raise ValueError("bit line may only contain 0 and 1")
    return TruthTable(n, tuple(int(ch) for ch in lines[1]))


# ---------------------------------------------------------------------------
# Moebius transform
# ---------------------------------------------------------------------------


def _xor_subset_transform(word: int, n: int) -> int:
    """Binary Moebius transform of a packed 2^n-entry table (bit m = entry m).

    Self-inverse over F_2: bit m of the result is the XOR of the bits at the
    submasks of m.  Step j XORs, in one masked shift, every bit whose index
    has bit j clear into the bit 2^j above it.
    """
    size = 1 << n
    for j in range(n):
        step = 1 << j
        word ^= (word & _repeat((1 << step) - 1, 2 * step, size)) << step
    return word


def truth_table_to_multilinear(t: TruthTable) -> Poly:
    """The unique multilinear polynomial over F_2 computing the table."""
    coeffs = _bits(_xor_subset_transform(t.as_int(), t.n), t.n)
    terms = {
        index_point(mask, t.n): 1
        for mask, c in enumerate(coeffs)
        if c
    }
    return Poly(t.n, F2, terms)


def multilinear_to_truth_table(f: Poly) -> TruthTable:
    """Tabulate a multilinear polynomial over F_2 (inverse of the above)."""
    if f.field != F2:
        raise ValueError("expected a polynomial over F2")
    coeffs = 0
    for e, c in f.terms.items():
        if any(v > 1 for v in e):
            raise ValueError(f"not multilinear: exponent {e}")
        if c:
            coeffs ^= 1 << point_index(e, f.n)
    return table_from_int(f.n, _xor_subset_transform(coeffs, f.n))


# ---------------------------------------------------------------------------
# distance to the low-degree code
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgreementReport:
    """Exact nearest-codeword data for one table against the degree-<=d code."""

    n: int
    degree_bound: int
    distance: int
    witness: Poly
    candidates: int

    def agreement(self) -> int:
        return (1 << self.n) - self.distance

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degree_bound": self.degree_bound,
            "distance": self.distance,
            "agreement": self.agreement(),
            "witness": polyops.poly_to_json(self.witness),
            "candidates": self.candidates,
        }


def low_degree_code_size(n: int, d: int) -> int:
    """Number M of multilinear monomials of degree <= d on n variables.

    This is the guard of ``distance_to_degree``, priced at all 2^M words of
    the code: a negative d raises ``ValueError``, and more than 16 variables
    or more than 2^24 words raise ``InfeasibleError``.  It needs only n and
    d, so callers run it before they build a 2^n-entry table.
    """
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    if n > _DISTANCE_MAX_VARS:
        raise InfeasibleError(
            f"table on {n} > {_DISTANCE_MAX_VARS} variables is out of desk range"
        )
    d = min(d, n)
    m_count = sum(comb(n, i) for i in range(d + 1))
    if m_count > _DISTANCE_CODE_BITS:
        raise InfeasibleError(
            f"degree-{d} code over {n} variables has 2^{m_count} words; "
            f"the enumeration budget is 2^{_DISTANCE_CODE_BITS}"
        )
    return m_count


def distance_to_degree(t: TruthTable, d: int) -> AgreementReport:
    """Minimum Hamming distance from the table to any degree-<=d function.

    The code's M monomials in grlex order are the constant, x_n .. x_1 and
    those of degree >= 2 (for d = 0 the constant alone: the distance is read
    off the table's weight).  The affine words are the characters of
    (F_2^n, +), so the distances from one word plus each affine word to the
    target are one Walsh-Hadamard transform (the fast Hadamard decoder of the
    first-order Reed-Muller code), and only the 2^(M-n-1) words Q of degree
    >= 2 are walked, in Gray-code order, many per big-integer pass.

    - Layout.  Point x gets a field of w = 8, 16 or 32 bits (2^n plus a guard
      bit must fit); a lane is target XOR Q, one bit per field.  The low b
      bits of the Gray index P of Q form an inner block of 2^b lanes in one
      integer of at most 2^16 bits (or one longer lane); the high bits take
      one Gray step per pass, XORing one monomial table into every lane, and
      after an odd step a reversed copy of the lanes serves the reflected
      inner block.
    - Butterfly.  Level j maps the fields (p, q) at x and x + 2^j to
      (p + q, p - q + 2^j), both in [0, 2^(j+1)], so no field borrows.  Then
      field a holds the distance c from target to Q + a.x (word bits 1..n
      are a), and 2^n - c with the constant added; two masked subtractions
      test every field for min(c, 2^n - c) below the best so far.

    Only a strict improvement reads a lane out, so the witness is the first
    codeword at the minimum in the Gray order of all 2^M words: the first
    lane in walk order gives Q, then the first affine word at that distance
    in Q's block of 2^(n+1) Gray steps, which runs backwards when P is odd.
    The walk stops early at distance 0.  ``candidates`` is 2^M always, the
    count the ``low_degree_code_size`` guard prices.
    """
    m_count = low_degree_code_size(t.n, d)
    d = min(d, t.n)
    monomials = function_monomials(t.n, 2, d)
    tables = _monomial_tables(t.n, monomials)
    dist, word = _nearest_codeword(t.n, tables, t.as_int())
    witness_terms = {monomials[i]: 1 for i in range(m_count) if (word >> i) & 1}
    witness = Poly(t.n, F2, witness_terms)
    return AgreementReport(t.n, d, dist, witness, 1 << m_count)


def _repeat(pattern: int, period: int, width: int) -> int:
    # pattern copied every `period` bits across `width` bits (powers of two)
    while period < min(8, width):
        pattern |= pattern << period
        period *= 2
    if period == width:
        return pattern
    data = pattern.to_bytes(period // 8, "little") * (width // period)
    return int.from_bytes(data, "little")


def _monomial_tables(n: int, monomials: Sequence[tuple[int, ...]]) -> list[int]:
    """Packed truth table (bit i = value at point index i) of each monomial:
    the AND of its variables' tables, all ones for the constant."""
    size = 1 << n
    full = (1 << size) - 1
    var_tables = []
    for i in range(n):
        half = 1 << (n - 1 - i)
        var_tables.append(_repeat(((1 << half) - 1) << half, 2 * half, size))
    tables = []
    for e in monomials:
        table = full
        for i, v in enumerate(e):
            if v:
                table &= var_tables[i]
        tables.append(table)
    return tables


def _nearest_codeword(n: int, tables: Sequence[int], target: int) -> tuple[int, int]:
    """(distance, Gray word) of the first codeword in Gray order nearest target.

    Bit i of the word selects ``tables[i]``: the constant, then the linear
    and walked monomials of ``distance_to_degree``, which describes the walk.
    """
    size = 1 << n
    if len(tables) == 1:  # d = 0: the code is the two constants
        c = target.bit_count()
        return min(c, size - c), int(size - c < c)
    width = 8 if n <= 6 else 16 if n <= 14 else 32
    unit, lane = width // 8, size * width
    walked = tables[n + 1 :]
    inner = min(len(walked), max(0, (_PACK_BITS // lane).bit_length() - 1))
    total = lane << inner

    def spread(words: list[int]) -> int:
        # lane i, point x of words[i] to the low bit of field x of lane i
        data = bytearray(len(words) * lane // 8)
        data[::unit] = b"".join(bytes(_bits(word, n)) for word in words)
        return int.from_bytes(data, "little")

    words = [target]
    for j in range(1, 1 << inner):
        words.append(words[-1] ^ walked[(j & -j).bit_length() - 1])
    forward, backward = spread(words), spread(words[::-1])
    outer_tables = [spread([table] * (1 << inner)) for table in walked[inner:]]
    rep = _repeat(1, width, total)
    levels = []
    for j in range(n):
        shift = width << j
        mask = _repeat((1 << shift) - 1, 2 * shift, total)
        levels.append((shift, mask, (rep & mask) << j))
    # a count is at most 2^n < 2^(width-1), so a field's top bit is free to
    # absorb the borrows of the two threshold subtractions
    high = rep << (width - 1)

    best, best_word = size // 2 + 1, 0  # above every affine minimum
    under, over = best * rep, (size - best) * rep | high
    outer = 0
    for k in range(1 << (len(walked) - inner)):
        if k:
            outer ^= outer_tables[(k & -k).bit_length() - 1]
        v = (backward if k & 1 else forward) ^ outer
        for shift, mask, bias in levels:
            low, up = v & mask, (v >> shift) & mask
            v = (low + up) | ((low + bias - up) << shift)
        # a field keeps its top bit iff c >= best and 2^n - c >= best; each
        # round reads out the first lane that does not and lowers best to it
        while miss := high ^ (((v | high) - under) & (over - v) & high):
            j = ((miss & -miss).bit_length() - 1) // lane
            data = v.to_bytes(total // 8, "little")
            counts = [
                int.from_bytes(data[i : i + unit], "little")
                for i in range(j * lane // 8, (j + 1) * lane // 8, unit)
            ]
            best = min(min(counts), size - max(counts))
            # Gray step r of this Q's affine block is the word r ^ r >> 1, its
            # top bit flipped when P is odd (the block runs backwards)
            p = k << inner | j
            steps = (r ^ r >> 1 ^ (p & 1) << n for r in range(2 << n))
            pair = (best, size - best)  # without and with the constant
            g = next(g for g in steps if counts[g >> 1] == pair[g & 1])
            best_word = (p ^ p >> 1) << (n + 1) | g
            if best == 0:
                return best, best_word
            under, over = best * rep, (size - best) * rep | high
    return best, best_word


# ---------------------------------------------------------------------------
# reduced function spaces over F_q
# ---------------------------------------------------------------------------


def reduce_pointwise(f: Poly) -> Poly:
    """Reduce a polynomial by x^q = x, giving the canonical function form."""
    q = f.field.p
    if q is None:
        raise ValueError("pointwise reduction needs a prime field")
    terms: dict = {}
    for e, c in f.terms.items():
        e2 = tuple(0 if v == 0 else 1 + (v - 1) % (q - 1) for v in e)
        terms[e2] = (terms.get(e2, 0) + c) % q
    return Poly(f.n, f.field, terms)


def function_monomials(m: int, q: int, max_degree: int) -> list[tuple[int, ...]]:
    """Grlex-ordered reduced monomials: each exponent < q, total degree capped.

    Only those tuples are generated, never all q^m of them.
    """
    top = min(max_degree, m * (q - 1))
    return [e for k in range(top + 1) for e in monomials_exact(m, k, q - 1)]


def vanishing_ideal_basis(
    points: Sequence[Sequence[int]], max_degree: int, q: int
) -> linalg.Subspace:
    """All reduced functions of degree <= max_degree vanishing on the points.

    Computed as the right kernel of the evaluation matrix whose rows are the
    points and whose columns are the reduced monomials.  Each row is filled
    from a parent table, one product mod q per cell.
    """
    if not points:
        raise ValueError("need at least one point")
    m = len(points[0])
    if any(len(p) != m for p in points):
        raise ValueError("points must share one dimension")
    monomials = function_monomials(m, q, max_degree)
    # a monomial's value is its parent's times x_i, where i is its first
    # nonzero variable; the parent (e - u_i) comes earlier in grlex order
    index = {e: k for k, e in enumerate(monomials)}
    steps = []
    for e in monomials[1:]:
        i = next(i for i, v in enumerate(e) if v)
        steps.append((index[e[:i] + (e[i] - 1,) + e[i + 1 :]], i))
    eval_rows = []
    for pt in points:
        row = [1] if monomials else []
        for k, i in steps:
            row.append(row[k] * pt[i] % q)
        eval_rows.append(row)
    return linalg.kernel(eval_rows, prime_field(q), monomials)


def intersect_all(
    subs: Sequence[linalg.Subspace], strategy: str = "pairwise"
) -> linalg.Subspace:
    """Intersection of many subspaces.

    "pairwise" folds ``Subspace.intersect`` left to right; "stacked" collects
    each subspace's annihilator into one constraint system and takes a single
    kernel.  Both return the canonical RREF basis, so results are comparable
    entry by entry.
    """
    if not subs:
        raise ValueError("need at least one subspace")
    first = subs[0]
    if any(s.field != first.field or s.cols != first.cols for s in subs):
        raise ValueError("subspaces live in different ambient spaces")
    if strategy == "pairwise":
        acc = first
        for s in subs[1:]:
            acc = acc.intersect(s)
        return acc
    if strategy == "stacked":
        constraints = [row for s in subs for row in s.annihilator().basis]
        return linalg.kernel(constraints, first.field, first.cols)
    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# twisted-derivative intersection check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GKReport:
    """Outcome of the twisted-derivative / vanishing-ideal intersection test."""

    n: int
    q: int
    r: int
    max_degree: int
    sigma_count: int
    strategy: str
    lambda_dim: int
    intersection_dim: int
    property_holds: bool


def gl_points(n: int, q: int) -> list[tuple[int, ...]]:
    """All invertible n x n matrices over F_q, flattened row-major."""
    return [sum(g.matrix, ()) for g in groups.enumerate_invertible(n, prime_field(q))]


def _twist_matrix(sigma, n: int) -> list[list[int]]:
    # Substitution X -> sigma X on the n^2 flattened matrix variables:
    # the image of x_{ij} is sum_k sigma[i][k] x_{kj}.
    m = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                m[i * n + j][k * n + j] = sigma[i][k]
    return m


def gk_intersection_test(
    f: Poly,
    r: int,
    sigmas: Sequence[groups.GroupElement] | None,
    max_degree: int | None = None,
) -> dict[str, GKReport]:
    """Check whether twisted derivative spans share a function vanishing on
    every invertible matrix, once per intersection strategy.

    f is a polynomial over F_q in n^2 matrix variables.  For each sigma the
    span of all derivatives of order <= r of f, twisted by X -> sigma X and
    reduced by x^q = x, is intersected across sigmas; the result is then
    intersected with the vanishing ideal of the invertible-matrix point set.
    The property holds when that final intersection contains a nonzero
    function.  The spans and the vanishing ideal are built once; the result
    maps each name in ``STRATEGIES`` to the report of intersecting them that
    way.  ``sigmas=None`` twists by the whole group GL_n(F_q), enumerated
    once for the twists and the vanishing ideal alike.
    """
    q = f.field.p
    if q is None:
        raise ValueError("the intersection test runs over a prime field")
    m = f.n
    n = isqrt(m)
    if n * n != m:
        raise ValueError(f"{m} variables do not form a square matrix")
    whole = sigmas is None
    if whole:
        sigmas = groups.enumerate_invertible(n, f.field)
    if not sigmas:
        raise ValueError("need at least one matrix to twist by")
    if r < 0:
        raise ValueError("derivative order bound must be nonnegative")
    # the vanishing ideal is the kernel of a |GL_n(F_q)| x q^(n^2) matrix
    cells = groups.gl_order(n, q) * q**m
    if cells > _GK_MAX_CELLS:
        raise InfeasibleError(
            f"|GL_n(F_q)| * q^(n^2) = {cells} cells exceed the desk-scale budget "
            f"{_GK_MAX_CELLS}"
        )
    reduced_f = reduce_pointwise(f)
    cap = m * (q - 1)
    if max_degree is None:
        max_degree = cap
    if not reduced_f.is_zero and reduced_f.degree > max_degree:
        raise ValueError(
            f"degree cap {max_degree} is below the reduced degree {reduced_f.degree}"
        )
    monomials = function_monomials(m, q, max_degree)

    for s in sigmas:
        if s.n != n or s.field != f.field:
            raise ValueError(
                "twists must be invertible linear elements on the matrix side"
            )

    # the derivatives do not depend on the twist, so they are taken once
    top = min(r, reduced_f.degree)
    ops = [c for k in range(top + 1) for c in derivative_operators(reduced_f, k)]
    derivs = [derivative(reduced_f, c) for c in ops]
    spans = []
    for s in sigmas:
        twist = _twist_matrix(s.matrix, n)
        twisted = [
            reduce_pointwise(polyops.substitute_linear(g, twist)).terms for g in derivs
        ]
        spans.append(linalg.span(twisted, f.field, monomials))
    points = [sum(g.matrix, ()) for g in sigmas] if whole else gl_points(n, q)
    ideal = vanishing_ideal_basis(points, max_degree, q)
    reports = {}
    for strategy in STRATEGIES:
        lam = intersect_all(spans, strategy)
        final = intersect_all([lam, ideal], strategy)
        reports[strategy] = GKReport(
            n, q, r, max_degree, len(sigmas), strategy,
            lam.dim, final.dim, final.dim > 0,
        )
    return reports
