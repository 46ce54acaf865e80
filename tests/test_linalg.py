"""Tests for exact linear algebra (rank, rref, kernels, subspaces)."""

import copy
import random
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt, prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    modular_rank,
    nullspace_kernel,
    oracle_rank,
    oracle_rref,
    qq_rank,
    rational_rank,
    two_rref_kernel,
)
from seplab import RATIONALS, grlex_key, intersect_all, linalg, prime_field
from seplab.field import _is_prime
from seplab.linalg import (
    _CERT_MIN_DIM,
    _CERT_PRIMES,
    _eliminate,
    _field_rows,
    _mod_kernel,
    _packed_echelon,
    _sparse,
    _transpose,
    densify,
    identity_matrix,
    kernel,
    is_invertible,
    mat_mul,
    rank,
    rref,
    right_kernel,
    span,
    span_rank,
)

F5 = prime_field(5)

# Zero pivot columns mixed with later dependencies (the corrupting shape).
SPARSE_PIVOT_PATTERN = [
    [0, 1, 1, 0],
    [2, 0, 0, 1],
    [0, 3, 3, 0],
    [4, 0, 0, 2],
    [2, 1, 1, 1],
]


def rand_matrix(rows, cols, rng, fractions=False):
    if fractions:
        return [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
    return [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]


def test_rank_small_examples():
    assert rank([], RATIONALS, 3) == 0
    assert rank([[0, 0], [0, 0]], RATIONALS) == 0
    assert rank([[1, 2], [2, 4]], RATIONALS) == 1
    assert rank([[1, 0], [0, 1]], RATIONALS) == 2
    assert rank([[1, 2], [2, 4]], F5) == 1
    assert rank([[5, 0], [0, 5]], F5) == 0


def test_rank_fuzz_against_sympy_rationals():
    """Fraction-free elimination must agree with sympy on random matrices.

    Regression guard: an earlier elimination variant skipped the rescale of
    rows with a zero pivot-column entry and silently corrupted later exact
    divisions, inflating ranks.  Low-rank products make that path likely.
    """
    rng = random.Random(2024)
    for trial in range(120):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        if trial % 3 == 0:
            m = rand_matrix(nr, nc, rng, fractions=True)
        else:
            k = rng.randint(0, min(nr, nc))
            a = rand_matrix(nr, max(k, 1), rng)
            b = rand_matrix(max(k, 1), nc, rng)
            if k == 0:
                m = [[0] * nc for _ in range(nr)]
            else:
                m = mat_mul(a, b, RATIONALS)
        assert rank(m, RATIONALS) == rational_rank(m) == qq_rank(m)


def test_rank_fuzz_against_sympy_mod_p():
    rng = random.Random(55)
    for _ in range(80):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = [[rng.randrange(5) for _ in range(nc)] for _ in range(nr)]
        assert rank(m, F5) == modular_rank(m, 5)


def test_rank_sparse_pivot_pattern():
    m = SPARSE_PIVOT_PATTERN
    assert rank(m, RATIONALS) == rational_rank(m) == 2


def bareiss_rank(m):
    return len(_eliminate(_field_rows([list(r) for r in m], RATIONALS), None))


def is_sparse_mod(rows, p, ncols):
    """Each row is a pair (columns, values): ascending columns below ncols,
    and one int residue mod p per column."""
    return all(
        len(js) == len(xs)
        and all(map(int.__lt__, js, js[1:]))
        and all(0 <= j < ncols for j in js)
        and all(type(x) is int and 0 <= x < p for x in xs)
        for js, xs in rows
    )


@contextmanager
def recorded_eliminations():
    """The moduli of the eliminations run, in order: ``_eliminate``'s (None
    for Bareiss) and the packed kernel's, whose rows must be sparse rows of
    residues."""
    seen = []
    eliminate, packed = linalg._eliminate, linalg._packed_echelon

    def recording_eliminate(m, p):
        seen.append(p)
        return eliminate(m, p)

    def recording_packed(rows, p, ncols, until_dependent=False):
        assert is_sparse_mod(rows, p, ncols)
        seen.append(p)
        return packed(rows, p, ncols, until_dependent)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_eliminate", recording_eliminate)
        mp.setattr(linalg, "_packed_echelon", recording_packed)
        yield seen


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(st.integers(1, 8), st.integers(40, 64)),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_certified_rank_of_planted_products_matches_bareiss(k, wide, fractions, seed):
    """U·V of rank at most k, short side on both sides of the gate, either
    orientation.  A small k gives a kernel of small height, which lifts; a k
    just below the short side gives one too tall to lift, so Bareiss decides;
    k at or past the short side gives full rank.  Bareiss and sympy's QQ
    domain matrices both confirm the rank."""
    rng = random.Random(seed)
    short, long = rng.randint(_CERT_MIN_DIM - 2, 56), rng.randint(_CERT_MIN_DIM, 64)
    nr, nc = (short, long) if wide else (long, short)
    u = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
    v = rand_matrix(k, nc, rng, fractions)
    m = mat_mul(u, v, RATIONALS)
    with recorded_eliminations() as seen:
        r = rank(m, RATIONALS)
    assert r == bareiss_rank(m) == qq_rank(m)
    if short < _CERT_MIN_DIM:
        assert seen == [None]
    elif r == short:
        assert seen == [_CERT_PRIMES[0]]
    else:
        assert seen[0] == _CERT_PRIMES[0]


@pytest.mark.parametrize("bits", [10, 20, 28, 36, 40])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_a_tall_kernel_takes_the_primes_wangs_bound_asks_for(bits, seed):
    """[I48 | w] plus one row Σ(2^20 + i)·row_i, |w| in [2^bits, 2^(bits+1)]:
    the kernel vector (-w, 1) lifts modulo the product of the first k
    certificate primes once Wang's bound sqrt(m/2) reaches max |w|, each
    prime after the first serving only that vector, and if no k does,
    Bareiss decides."""
    rng = random.Random(seed)
    w = [rng.choice((-1, 1)) * rng.randint(2**bits, 2 ** (bits + 1)) for _ in range(48)]
    top = [[int(i == j) for j in range(48)] + [w[i]] for i in range(48)]
    m = top + [[sum((2**20 + i) * row[j] for i, row in enumerate(top)) for j in range(49)]]
    with recorded_eliminations() as seen:
        assert rank(m, RATIONALS) == 48
    k = next((k for k in range(1, len(_CERT_PRIMES) + 1)
              if isqrt(prod(_CERT_PRIMES[:k]) >> 1) >= max(map(abs, w))), None)
    assert seen == (list(_CERT_PRIMES[:k]) if k else list(_CERT_PRIMES) + [None])
    assert rational_rank(m) == 48


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 46))
def test_an_unlucky_prime_falls_back_to_bareiss(i):
    """With primes 7 and 11, I48 with a 7 on the diagonal has rank 47 mod 7;
    its kernel vector fails the check over Z and 11 finds the full rank.  If
    row 47 is also a copy of row 0 (rank 47), 11 finds other pivots than 7,
    so Bareiss decides."""
    m = identity_matrix(48)
    m[i][i] = 7
    deficient = [list(r) for r in m[:47]] + [list(m[0])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_CERT_PRIMES", (7, 11))
        with recorded_eliminations() as seen:
            assert rank(m, RATIONALS) == 48
        assert seen == [7, 11]
        with recorded_eliminations() as seen:
            assert rank(deficient, RATIONALS) == 47
        assert seen == [7, 11, None]
    assert rational_rank(m) == 48 and rational_rank(deficient) == 47


@pytest.mark.parametrize("kind", ["full", "deficient", "planted"])
@pytest.mark.parametrize("aspect", [-1, 0, 7])
@pytest.mark.parametrize("wide", [False, True])
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(st.integers(_CERT_MIN_DIM, 56), st.booleans(), st.integers(0, 2**32 - 1))
def test_rational_rank_reads_the_short_side_first(kind, aspect, wide, short, fractions, seed):
    """A ℚ rank whose long side is 2·short + aspect: just below the gate, at
    it or past it.  At or past the gate it eliminates its short side mod the
    first certificate prime p1 first: at full rank that pass alone answers;
    otherwise it stops at the first short-side vector that reduces to 0 (the
    second, if planted as a multiple of the first) and the rank goes on mod
    p1.  Below the gate the route starts mod p1.  Bareiss and sympy's QQ
    domain matrices both confirm the rank, and the short side's residues mod
    p1 show where the pass stopped."""
    rng = random.Random(seed)
    long = 2 * short + aspect
    k = rng.randint(1, short - 1) if kind == "deficient" else short
    u = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(long)]
    v = rand_matrix(k, short, rng)
    m = [[sum(map(mul, row, col)) for col in zip(*v)] for row in u]  # the short side is columns
    if kind == "planted":
        c = rng.choice((-2, 1, 3))
        for row in m:
            row[1] = c * row[0]
    if fractions:  # each row over its own denominator: the same rank
        m = [[Fraction(x, d) for x in row] for row, d in zip(m, rng.choices(range(1, 7), k=long))]
    if wide:
        m = [list(col) for col in zip(*m)]
    with recorded_eliminations() as seen:
        r = rank(m, RATIONALS)
    assert r == bareiss_rank(m) == qq_rank(m)
    assert (r == short) == (kind == "full")
    p1 = _CERT_PRIMES[0]
    if aspect < 0:
        assert seen == [p1] if kind == "full" else seen[0] == p1
    else:
        assert seen == [p1] if kind == "full" else seen[:2] == [p1, p1]
    # the pass stops at the first short-side vector dependent mod q on
    # those before it: the second, if planted
    q = p1
    sparse = _sparse(m, prime_field(q), len(m[0]))
    vectors = _transpose(sparse, len(m[0])) if len(m) > len(m[0]) else sparse
    t = len(_packed_echelon(vectors, q, long, until_dependent=True)[0])
    dense = [[0] * long for _ in vectors]
    for row, (js, xs) in zip(dense, vectors):
        for j, x in zip(js, xs):
            row[j] = x
    assert modular_rank(dense[:t], q) == t
    assert t == short or modular_rank(dense[: t + 1], q) == t
    assert t == 1 or kind != "planted"


@pytest.mark.parametrize("wide", [False, True])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 47), st.integers(0, 2**32 - 1))
def test_an_unlucky_short_side_prime_falls_through_to_the_first(wide, r, seed):
    """96 x 48 of full column rank over ℚ whose last column is column 0 plus
    p1·e_r, p1 the first certificate prime: mod p1 it has rank 47, so the
    short-side pass falls through, the kernel vector mod p1 fails the check
    over ℤ, and the second prime finds rank 48."""
    q, p2 = _CERT_PRIMES[:2]
    rng = random.Random(seed)
    m = [[rng.randint(-9, 9) for _ in range(47)] for _ in range(96)]
    for i, row in enumerate(m):
        row.append(row[0] + q * (i == r))
    if wide:
        m = [list(col) for col in zip(*m)]
    assert qq_rank(m) == 48
    with recorded_eliminations() as seen:
        assert rank(m, RATIONALS) == 48
    assert seen == [q, q, p2]


def test_the_certificate_primes():
    """Distinct primes, each with 64-bit slots up to 16,383 columns, whose
    product passes 2**60."""
    assert len(set(_CERT_PRIMES)) == len(_CERT_PRIMES)
    assert all(_is_prime(p) and 16_384 * p * p < 2**64 for p in _CERT_PRIMES)
    assert prod(_CERT_PRIMES) > 2**60


def last_64_bit(p):
    """The largest ncols whose slots mod p are 64-bit: (ncols+1)·p² < 2**64."""
    return ((1 << 64) - 1) // p**2 - 1


P_MAX = 2**31 - 1  # the largest prime a field admits
# (p, ncols) on both sides of each slot width the packed kernel can pick:
# (ncols+1)·p² crosses 2**8 for p = 2, 3, 7, 2**16 for p = 7, and 2**64 for
# the first certificate prime and for P_MAX
SLOT_EDGES = [(2, 62), (2, 63), (3, 27), (3, 28), (7, 4), (7, 5), (7, 1336), (7, 1337),
              (_CERT_PRIMES[0], last_64_bit(_CERT_PRIMES[0])),
              (_CERT_PRIMES[0], last_64_bit(_CERT_PRIMES[0]) + 1),
              (P_MAX, last_64_bit(P_MAX)), (P_MAX, last_64_bit(P_MAX) + 1)]


@st.composite
def packed_cases(draw):
    """(matrix, p): dense, sparse or low-rank products, with zero and
    duplicate rows, wide and tall around the size gate, or on a slot edge."""
    if draw(st.integers(0, 3)) == 0:
        p, nc = draw(st.sampled_from(SLOT_EDGES))
        nr = draw(st.integers(1, 6 if nc > 100 else 70))
    else:
        p = draw(st.sampled_from([2, 3, 7, 1000003, _CERT_PRIMES[0], P_MAX]))
        nr = draw(st.integers(1, 60))
        nc = draw(st.integers(_CERT_MIN_DIM - 2, 60))
        if draw(st.booleans()):
            nr, nc = nc, nr
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([1, 0.3, 0.05]))
    cell = lambda: rng.randrange(p) if rng.random() < density else 0
    kind = draw(st.sampled_from(["plain", "product"]))
    if kind == "plain":
        m = [[cell() for _ in range(nc)] for _ in range(nr)]
    else:
        k = draw(st.integers(1, max(1, min(nr, nc) - 1)))
        u = [[cell() for _ in range(k)] for _ in range(nr)]
        v = [[cell() for _ in range(nc)] for _ in range(k)]
        m = [[sum(map(mul, row, col)) for col in zip(*v)] for row in u]
    for _ in range(draw(st.integers(0, 2))):
        i = rng.randrange(nr)
        m[i] = list(m[rng.randrange(nr)]) if draw(st.booleans()) else [0] * nc
    return m, p


def _dense_wide_slots():
    """100 x 110 of rank 95 mod P_MAX: its late independent rows meet enough
    pivots that their 128-bit slots pass 2**64 before they become pivots, and
    the last five must then reduce to 0."""
    p, rng = P_MAX, random.Random(0)
    m = [[rng.randrange(p) for _ in range(110)] for _ in range(95)]
    for _ in range(5):
        coeffs = [rng.randrange(p) for _ in m]
        m.append([sum(map(mul, coeffs, col)) % p for col in zip(*m[:95])])
    return m, p


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(packed_cases())
@example(_dense_wide_slots())
def test_packed_kernel_pivots_and_kernels_match(case):
    """The packed kernel's pivots are _eliminate's (it stops only at full rank,
    when all rows were read or every column is a pivot), its rank is sympy's,
    and each kernel vector _mod_kernel builds from it is 1 at its free column,
    0 at the others, and killed by every row.  Each pivot is (tail, inverse of
    its leading entry): the tail's residues lie past the pivot column, and the
    pivot rows are in the row space."""
    m, p = case
    nc = len(m[0])
    reduced = [[x % p for x in r] for r in m]
    table, unpack = _packed_echelon(_sparse(m, prime_field(p), nc), p, nc)
    pivots = _eliminate([list(r) for r in reduced], p)
    assert sorted(table) == pivots
    assert len(pivots) == modular_rank(m, p)
    pivot_rows = []
    for c, (tail, inv) in table.items():
        js, xs = unpack(tail)
        assert 0 < inv < p and all(j > c for j in js) and all(0 < x < p for x in xs)
        row = [0] * nc
        row[c] = pow(inv, -1, p)
        for j, x in zip(js, xs):
            row[j] = x
        pivot_rows.append(row)
    assert len(_eliminate(pivot_rows + reduced, p)) == len(pivots)
    with recorded_eliminations() as seen:
        assert rank(m, prime_field(p)) == len(pivots)
    assert seen == [p]
    kernel_pivots, vector = _mod_kernel(_sparse(m, RATIONALS, nc), p, nc)
    assert kernel_pivots == pivots
    free = [f for f in range(nc) if f not in set(pivots)]
    for f in free[:8]:
        v = vector(f)
        assert all(v.get(g, 0) == (g == f) for g in free)
        assert all(sum(row[j] * x for j, x in v.items()) % p == 0 for row in m)


@pytest.mark.parametrize("p, nc", SLOT_EDGES)
def test_a_row_packed_from_its_nonzeros_unpacks_to_them(p, nc):
    """A row read into the packed kernel alone becomes its one pivot, kept as
    read: unpacking its tail gives the row's other nonzeros back, at every
    slot width, 128-bit slots included, with residues up to p - 1."""
    rng = random.Random(p * nc)
    for density in (1, 0.3, 0.05):
        row = [rng.choice((1, p - 1, rng.randrange(p))) if rng.random() < density else 0
               for _ in range(nc)]
        js, xs = [j for j, x in enumerate(row) if x], [x for x in row if x]
        table, unpack = _packed_echelon([(js, xs)], p, nc)
        if not js:
            assert table == {}
            continue
        (c, (tail, inv)), = table.items()
        assert c == js[0] and inv * xs[0] % p == 1
        assert unpack(tail) == (js[1:], xs[1:])


# (p, smallest and largest long side) for each slot width a rank at the gate
# can take: the packed kernel reads the short side as rows, so its slots
# hold (long side + 1)·p²
GATED_SLOT_WIDTHS = {
    8: (2, _CERT_MIN_DIM, 62),
    16: (2, 63, 72),
    32: (251, _CERT_MIN_DIM, 72),
    64: (1000003, _CERT_MIN_DIM, 72),
    128: (P_MAX, _CERT_MIN_DIM, 72),
}


@pytest.mark.parametrize("width", sorted(GATED_SLOT_WIDTHS))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_packed_rank_of_a_matrix_and_its_transpose(width, data):
    """Over F_p a rank at the gate, of M and of Mᵀ, is _eliminate's and
    sympy's: tall and wide, full or planted low rank, with zero and duplicate
    rows, unreduced and negative ints, and Fractions."""
    p, lo, hi = GATED_SLOT_WIDTHS[width]
    long = data.draw(st.integers(lo, hi))
    short = data.draw(st.integers(_CERT_MIN_DIM, long))
    assert next(b for b in (8, 16, 32, 64, 128) if (long + 1) * p * p < 1 << b) == width
    nr, nc = (long, short) if data.draw(st.booleans()) else (short, long)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    density = data.draw(st.sampled_from([1, 0.3, 0.05]))
    fractions = data.draw(st.booleans())

    def cell():
        if rng.random() >= density:
            return 0
        x = rng.randint(-3 * p, 3 * p)
        if fractions and rng.random() < 0.3:
            return Fraction(x, rng.choice([d for d in (2, 3, 5) if d % p]))
        return x

    k = data.draw(st.sampled_from([1, 5, short - 1, short]))
    u = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(nr)]
    v = [[cell() for _ in range(nc)] for _ in range(k)]
    m = [[sum(map(mul, row, col)) for col in zip(*v)] for row in u]
    for _ in range(data.draw(st.integers(0, 3))):
        m[rng.randrange(nr)] = list(m[rng.randrange(nr)]) if rng.random() < 0.5 else [0] * nc
    field = prime_field(p)
    residues = [[field.coerce(x) for x in row] for row in m]
    r = len(_eliminate([list(row) for row in residues], p))
    assert r == modular_rank(residues, p)
    for a in (m, [list(col) for col in zip(*m)]):
        with recorded_eliminations() as seen:
            assert rank(a, field) == r
        assert seen == [p]


def test_shape_errors_above_the_gate():
    for field in (RATIONALS, prime_field(2), prime_field(1000003)):
        for size in (_CERT_MIN_DIM, _CERT_MIN_DIM + 12):
            m = identity_matrix(size)
            with pytest.raises(ValueError, match="ragged matrix"):
                rank(m[:-1] + [m[-1][:-1]], field)
            with pytest.raises(ValueError, match=f"ncols={size + 1} disagrees with row width {size}"):
                rank(m, field, ncols=size + 1)


@st.composite
def gated_matrices(draw, p):
    """Matrices with at least _CERT_MIN_DIM rows and columns over Q or F_p:
    full or planted low rank, negative and unreduced ints, Fractions whose
    denominators p does not divide, zero rows and columns, list or tuple
    rows."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nr, nc = draw(st.integers(_CERT_MIN_DIM, 60)), draw(st.integers(_CERT_MIN_DIM, 60))
    big = 3 * (p or 50)
    dens = [d for d in (1, 2, 3, 4, 5) if p is None or d % p]
    fractions = draw(st.booleans())
    density = draw(st.sampled_from([1, 0.2]))

    def cell():
        if rng.random() >= density:
            return 0
        x = rng.randint(-big, big)
        return Fraction(x, rng.choice(dens)) if fractions and rng.random() < 0.3 else x

    k = draw(st.sampled_from([2, 10, min(nr, nc)]))
    u = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(nr)]
    v = [[cell() for _ in range(nc)] for _ in range(k)]
    m = [[sum(map(mul, row, col)) for col in zip(*v)] for row in u]
    zeros = draw(st.integers(0, 3))
    for _ in range(zeros):
        m[rng.randrange(nr)] = [0] * nc
    for _ in range(zeros):
        j = rng.randrange(nc)
        for row in m:
            row[j] = 0
    return tuple(map(tuple, m)) if draw(st.booleans()) else m


@pytest.mark.parametrize("p", [None, 2, 7, 1000003])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_rank_above_the_gate_matches_elimination_and_sympy(p, data):
    """Ranks at or above the size gate, which read only nonzeros, agree with
    list-row elimination and with sympy's domain matrices."""
    m = data.draw(gated_matrices(p))
    if p is None:
        r = rank(m, RATIONALS)
        assert r == bareiss_rank(m) == qq_rank(m)
    else:
        field = prime_field(p)
        residues = [[field.coerce(x) for x in row] for row in m]
        with recorded_eliminations() as seen:
            r = rank(m, field)
        assert seen == [p]
        assert r == len(_eliminate(residues, p)) == modular_rank(residues, p)


@st.composite
def field_matrices(draw):
    """(matrix, p): dense, sparse or low-rank-product matrices over Q or F_p."""
    p = draw(st.sampled_from([None, 2, 3, 7]))
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    entry = st.integers(-6, 6)
    if p is None:
        entry = st.one_of(
            entry, st.fractions(min_value=-6, max_value=6, max_denominator=4)
        )
    entry = st.one_of(st.just(0), entry)

    def matrix(nrows, ncols, cell):
        row = st.lists(cell, min_size=ncols, max_size=ncols)
        return draw(st.lists(row, min_size=nrows, max_size=nrows))

    if draw(st.booleans()):
        return matrix(nr, nc, entry), p
    k = draw(st.integers(1, 3))
    a, b = matrix(nr, k, st.integers(-3, 3)), matrix(k, nc, entry)
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a], p


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(field_matrices())
# rows with a zero pivot-column entry under a non-unit pivot: Bareiss must
# still rescale them, or its later exact divisions go wrong
@example(([[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, Fraction(1, 2)], [0, 1, 0, 0, 0, 1]], None))
@example((SPARSE_PIVOT_PATTERN, None))
@example((SPARSE_PIVOT_PATTERN, 2))
@example((SPARSE_PIVOT_PATTERN, 3))
@example((SPARSE_PIVOT_PATTERN, 7))
def test_rref_fuzz_against_sympy(case):
    m, p = case
    field = RATIONALS if p is None else prime_field(p)
    ncols = len(m[0]) if m else 1
    assert rref(m, field, ncols) == oracle_rref(m, p)


@st.composite
def banded_matrices(draw):
    """(matrix, column count, p): sparse banded rows, as in shifted partials.

    Each row is nonzero only in a short band at a random offset, so a row
    whose band starts further right is skipped by several pivot steps before
    one hits it.  Entries avoid 1 so pivots are rarely units, and some rows
    are combinations of others so the rank drops.
    """
    p = draw(st.sampled_from([None, 2, 3, 7, 1000003, 2**31 - 1]))
    nr, nc = draw(st.integers(1, 12)), draw(st.integers(1, 14))
    band = draw(st.integers(1, 4))
    cell = st.sampled_from([2, -2, 3, -3, 5, 6, -7, 9])
    if p is None:
        cell = st.one_of(cell, st.sampled_from([Fraction(3, 2), Fraction(-5, 4)]))
    cell = st.one_of(st.just(0), cell, cell)
    m = []
    for _ in range(nr):
        start = draw(st.integers(0, nc - 1))
        m.append([draw(cell) if start <= j < start + band else 0 for j in range(nc)])
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, nr - 1)), draw(st.integers(0, nr - 1))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m.insert(draw(st.integers(0, len(m))), [s * x + t * y for x, y in zip(m[i], m[j])])
    return m, nc, p


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(banded_matrices())
# Over Q row 3 is skipped by the first pivot step and row 1 becomes the zero
# row that swaps places with row 2.  Elimination goes wrong here if a stale
# row is not caught up with d[k] // d[s], if a row's pivot-column entry is
# read before its catch-up, or if row stamps do not move with the rows.
@example(([[0, 3, 5, 2, 0], [0, 3, 5, 2, 0], [0, -1, -1, 3, 0], [0, 0, -1, -2, 2]], 5, None))
def test_sparse_elimination_against_sympy(case):
    m, nc, p = case
    field = RATIONALS if p is None else prime_field(p)
    assert rank(m, field, nc) == oracle_rank(m, p)
    reduced, pivots = rref(m, field, nc)
    assert (reduced, pivots) == oracle_rref(m, p)
    basis = right_kernel(m, field, nc)
    assert len(basis) == nc - len(pivots)
    for v in basis:
        for row in m:
            dot = sum(Fraction(x) * y for x, y in zip(row, v))
            assert (dot if p is None else dot % p) == 0
    assert oracle_rref(basis, p)[0] == basis


def test_rref_is_canonical_and_idempotent():
    rng = random.Random(7)
    for _ in range(30):
        m = rand_matrix(rng.randint(1, 5), rng.randint(1, 5), rng, fractions=True)
        r, pivots = rref(m, RATIONALS)
        assert len(pivots) == rank(m, RATIONALS)
        # pivot columns carry a leading 1 and zeros elsewhere
        for i, c in enumerate(pivots):
            assert r[i][c] == 1
            assert all(r[j][c] == 0 for j in range(len(r)) if j != i)
        r2, pivots2 = rref(r, RATIONALS, len(m[0]))
        assert r2 == r and pivots2 == pivots


def test_rref_identifies_row_space():
    """Row-equivalent matrices get the same reduced form."""
    rng = random.Random(8)
    for _ in range(20):
        m = rand_matrix(3, 4, rng)
        shuffled = [list(r) for r in m]
        rng.shuffle(shuffled)
        shuffled[0] = [3 * x + y for x, y in zip(shuffled[0], shuffled[1])]
        assert rref(m, RATIONALS) == rref(shuffled, RATIONALS)


def test_right_kernel_annihilates_and_has_complementary_dimension():
    rng = random.Random(9)
    for fld in (RATIONALS, F5):
        for _ in range(20):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            if fld.p is None:
                m = rand_matrix(nr, nc, rng)
            else:
                m = [[rng.randrange(5) for _ in range(nc)] for _ in range(nr)]
            basis = right_kernel(m, fld, nc)
            assert len(basis) == nc - rank(m, fld)
            for v in basis:
                out = mat_mul(m, [[x] for x in v], fld)
                assert all(x == 0 for (x,) in out)
            # kernel vectors are independent
            assert rank(basis, fld, nc) == len(basis)


def test_right_kernel_of_empty_matrix_is_full_space():
    basis = right_kernel([], RATIONALS, 3)
    assert len(basis) == 3
    assert rank(basis, RATIONALS) == 3


@st.composite
def kernel_cases(draw):
    """(rows, column count, p): any shape from no rows up, wide or tall, with
    zero and duplicate rows mixed in now and then."""
    p = draw(st.sampled_from([None, 2, 3, 7]))
    nr, nc = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    entry = st.integers(-4, 4)
    if p is None:
        entry = st.one_of(entry, st.sampled_from([Fraction(1, 2), Fraction(-5, 3)]))
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * nc)
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return rows, nc, p


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
@example(([], 4, None))
@example(([], 3, 2))
@example(([[0, 0, 0], [0, 0, 0]], 3, 3))
@example(([[1, 2, 3], [1, 2, 3]], 3, None))
@example(([[2, 1], [1, 1]], 2, 7))
@example(([[1, 2, 3, 4, 5]], 5, 7))
@example(([[1, 0], [0, 1], [1, 1], [2, 3]], 2, None))
@example(([[0, 1, 1, 0], [0, 0, 0, 1]], 4, 2))
def test_right_kernel_matches_two_rrefs_and_sympy_nullspace(case):
    """One RREF of the column-reversed matrix gives the same canonical basis
    as RREF-ing the free-column vectors of an RREF, and as sympy."""
    rows, nc, p = case
    field = RATIONALS if p is None else prime_field(p)
    basis = right_kernel(rows, field, nc)
    assert basis == two_rref_kernel(rows, nc, p) == nullspace_kernel(rows, nc, p)
    if p is None:
        _canonical_q(basis)
    else:
        assert all(0 <= x < p for v in basis for x in v)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kernel_cases(), st.booleans())
def test_linear_algebra_leaves_its_arguments_alone(case, as_tuples):
    """Back-substitution updates rows in place, so it must work on copies:
    list and tuple rows, and all-int rows over Q, come back untouched, also
    by rank on both sides of the _CERT_MIN_DIM gate (the rows bordered by an
    identity block of that size)."""
    rows, nc, p = case
    field = RATIONALS if p is None else prime_field(p)
    pad = [0] * _CERT_MIN_DIM
    big = [list(r) + pad for r in rows]
    big += [[0] * nc + [int(i == j) for j in range(_CERT_MIN_DIM)] for i in range(_CERT_MIN_DIM)]
    if as_tuples:
        rows, big = [tuple(r) for r in rows], [tuple(r) for r in big]
    before, big_before = copy.deepcopy(rows), copy.deepcopy(big)
    if rows:
        rref(rows, field, nc)
    right_kernel(rows, field, nc)
    r = rank(rows, field, nc)
    assert rank(big, field, nc + _CERT_MIN_DIM) == r + _CERT_MIN_DIM
    assert rows == before and big == big_before
    cols = [(j,) for j in range(nc)]
    # the kernel of fewer rows holds a; the row space meets it mod p
    a, b = kernel(rows, field, cols), kernel(rows[1:], field, cols)
    c = span([{col: x for col, x in zip(cols, r) if x} for r in rows], field, cols)
    saved = copy.deepcopy((a, b, c))
    a.intersect(b)
    c.intersect(b)
    a.annihilator()
    assert (a, b, c) == saved and rows == before


def test_fraction_entries_over_prime_fields_are_coerced():
    """1/2 is 4 in F_7, so this matrix has determinant 4 - 4 = 0 there."""
    F7 = prime_field(7)
    m = [[Fraction(1, 2), 2], [2, 1]]
    assert rank(m, F7) == 1
    assert not is_invertible(m, F7)
    assert rref(m, F7) == ([[1, 4]], [0])
    assert right_kernel(m, F7, 2) == [[1, 5]]
    # a denominator that vanishes mod p has no value in F_p
    bad = [[Fraction(1, 7), 1], [0, 1]]
    for call in (
        lambda: rank(bad, F7),
        lambda: is_invertible(bad, F7),
        lambda: rref(bad, F7),
        lambda: right_kernel(bad, F7, 2),
    ):
        with pytest.raises(ZeroDivisionError):
            call()


def test_identity_and_invertibility():
    assert is_invertible(identity_matrix(4), RATIONALS)
    assert not is_invertible([[1, 2], [2, 4]], RATIONALS)
    assert not is_invertible([[1, 2], [2, 4]], F5)
    assert is_invertible([[1, 2], [3, 4]], RATIONALS)
    # det = -2, which vanishes mod 2
    assert not is_invertible([[1, 2], [3, 4]], prime_field(2))


def test_mat_mul_and_mat_vec_agree_with_direct_sums():
    rng = random.Random(10)
    a = rand_matrix(3, 4, rng)
    b = rand_matrix(4, 2, rng)
    c = mat_mul(a, b, RATIONALS)
    for i in range(3):
        for j in range(2):
            assert c[i][j] == sum(a[i][k] * b[k][j] for k in range(4))
    v = [1, -2, 3, 0]
    assert mat_mul(a, [[x] for x in v], RATIONALS) == [
        [sum(a[i][k] * v[k] for k in range(4))] for i in range(3)
    ]


def test_densify_lays_sparse_rows_over_the_grlex_support():
    rows = [{(1, 0): 2}, {}, {(0, 0): 1, (0, 1): 3}]
    cols, dense = densify(rows)
    assert cols == [(0, 0), (0, 1), (1, 0)]
    assert dense == [[0, 0, 2], [0, 0, 0], [1, 3, 0]]
    cols, dense = densify(rows, cols=[(1, 0), (0, 1), (0, 0)])
    assert cols == [(1, 0), (0, 1), (0, 0)]
    assert dense == [[2, 0, 0], [0, 0, 0], [0, 3, 1]]
    # a key outside explicit columns is refused, not dropped
    with pytest.raises(ValueError):
        densify(rows, cols=[(1, 0), (0, 0)])
    assert densify([]) == ([], [])
    # supports of mixed degree, where tuple order alone is not grlex
    rng = random.Random(41)
    keys = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(60)]
    mixed = [{e: 1 for e in rng.sample(keys, 20)} for _ in range(4)]
    assert densify(mixed)[0] == sorted({e for r in mixed for e in r}, key=grlex_key)


def test_span_rank_of_sparse_rows_against_sympy():
    rng = random.Random(40)
    keys = [(i, j) for i in range(3) for j in range(3)]
    for p in (None, 2, 5):
        field = RATIONALS if p is None else prime_field(p)
        for _ in range(15):
            rows = [
                {e: rng.randint(1, 4) for e in rng.sample(keys, rng.randint(0, 4))}
                for _ in range(rng.randint(0, 6))
            ]
            dense = [[r.get(e, 0) for e in keys] for r in rows]
            expected = rational_rank(dense) if p is None else modular_rank(dense, p)
            assert span_rank(rows, field) == expected
    assert span_rank([{}, {}], RATIONALS) == 0
    # one row whose values all vanish mod p spans nothing
    assert span_rank([{(1, 0): 7, (0, 1): -14}], prime_field(7)) == 0
    assert span_rank([{(0,): 2}], prime_field(2)) == 0


@st.composite
def subspace_pairs(draw):
    """(A rows, B rows, width, p): two dense matrices of one width."""
    p = draw(st.sampled_from([None, 2, 3, 7]))
    nc = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    if p is None:
        entry = st.one_of(entry, st.fractions(-4, 4, max_denominator=3))

    def matrix():
        row = st.lists(entry, min_size=nc, max_size=nc)
        return draw(st.lists(row, max_size=4))

    a, b = matrix(), matrix()
    # B may also hold combinations of A's rows, so the spans often meet
    for _ in range(draw(st.integers(0, 2)) if a else 0):
        i, j = draw(st.integers(0, len(a) - 1)), draw(st.integers(0, len(a) - 1))
        s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        b.append([s * x + t * y for x, y in zip(a[i], a[j])])
    return a, b, nc, p


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(subspace_pairs())
def test_subspace_span_and_intersection_against_sympy(case):
    a_rows, b_rows, nc, p = case
    field = RATIONALS if p is None else prime_field(p)
    cols = [(j,) for j in range(nc)]
    a, b = (
        span([{c: x for c, x in zip(cols, r) if x} for r in m], field, cols)
        for m in (a_rows, b_rows)
    )
    for sub, m in ((a, a_rows), (b, b_rows)):
        assert [list(r) for r in sub.basis] == oracle_rref(m, p)[0]
        assert sub.cols == tuple(cols)

    both = a.intersect(b)
    assert [list(r) for r in both.basis] == oracle_rref(both.basis, p)[0]
    assert both.dim == a.dim + b.dim - oracle_rank(a.basis + b.basis, p)
    for row in both.basis:
        for sub in (a, b):
            assert oracle_rank(sub.basis + (row,), p) == sub.dim
    assert intersect_all([a, b], "pairwise") == both
    assert intersect_all([a, b], "stacked") == both
    assert a.annihilator().dim == nc - a.dim


def _canonical_q(rows):
    """Every entry is an int exactly when it is integral, as in ``Poly``."""
    for row in rows:
        for x in row:
            assert type(x) is (int if x.denominator == 1 else Fraction), repr(x)


def test_rational_rref_kernel_and_basis_hold_ints_when_integral():
    basis = span([{(1, 0): 2, (0, 1): 4}, {(1, 0): 1, (0, 1): 3}], RATIONALS).basis
    kernel = right_kernel([[1, 2, 3]], RATIONALS, 3)
    assert basis == ((1, 0), (0, 1))
    assert kernel == [[1, 0, Fraction(-1, 3)], [0, 1, Fraction(-2, 3)]]
    _canonical_q(basis)
    _canonical_q(kernel)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(subspace_pairs().filter(lambda case: case[3] is None))
def test_rational_linear_algebra_keeps_scalars_canonical(case):
    a_rows, b_rows, nc, _ = case
    cols = [(j,) for j in range(nc)]
    a, b = (
        span([{c: x for c, x in zip(cols, r) if x} for r in m], RATIONALS, cols)
        for m in (a_rows, b_rows)
    )
    for m in (a_rows, b_rows, a_rows + b_rows):
        _canonical_q(rref(m, RATIONALS, nc)[0] if m else [])
        _canonical_q(right_kernel(m, RATIONALS, nc))
    for sub in (a, b, a.intersect(b), a.annihilator()):
        _canonical_q(sub.basis)


def test_subspace_term_maps_round_trip_through_span():
    cols = [(0, 0), (0, 1), (1, 0)]
    sub = span([{(1, 0): 2, (0, 1): 4}, {(0, 0): 1}], F5, cols)
    assert sub.term_maps() == [{(0, 0): 1}, {(0, 1): 1, (1, 0): 3}]
    assert span(sub.term_maps(), F5, cols) == sub


def test_subspace_ambient_mismatch_is_refused():
    cols = [(0,), (1,)]
    a = span([{(0,): 1}], F5, cols)
    with pytest.raises(ValueError):
        a.intersect(span([{(0,): 1}], RATIONALS, cols))
    with pytest.raises(ValueError):
        a.intersect(span([{(0,): 1}], F5, cols[:1]))
    with pytest.raises(ValueError):
        intersect_all([a, span([], F5, cols[:1])], "stacked")
