"""Generators for the benchmark input polynomials.

Elementary symmetric polynomials, symbolic determinant and permanent on an
n x n matrix of variables, the multilinear polynomial over F_2 deciding
Hamming weight modulo 3, and seeded dense random polynomials.  Each has a
compact text spec ("esym:2,4", "det:3", ...) used by the command line.
"""

from __future__ import annotations

import itertools
import random

from . import f2lab
from .errors import InfeasibleError
from .field import Field, RATIONALS
from .poly import Poly, monomials_upto
from .seeding import trial_rng

DET_PERM_CAP = 6


def elementary_symmetric(d: int, n: int, field: Field = RATIONALS) -> Poly:
    """Sum of all multilinear monomials of degree d in n variables."""
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    terms = {}
    for subset in itertools.combinations(range(n), d):
        e = [0] * n
        for i in subset:
            e[i] = 1
        terms[tuple(e)] = 1
    return Poly(n, field, terms)


def _permutation_sign(p: tuple[int, ...]) -> int:
    inversions = sum(
        1
        for i in range(len(p))
        for j in range(i + 1, len(p))
        if p[i] > p[j]
    )
    return -1 if inversions % 2 else 1


def _matrix_poly(n: int, field: Field, signed: bool) -> Poly:
    if n < 1:
        raise ValueError("matrix side must be positive")
    if n > DET_PERM_CAP:
        raise InfeasibleError(
            f"{n}x{n} expansion has {n}! terms; the cap is {DET_PERM_CAP}"
        )
    terms = {}
    for p in itertools.permutations(range(n)):
        e = [0] * (n * n)
        for i in range(n):
            e[i * n + p[i]] = 1
        c = _permutation_sign(p) if signed else 1
        terms[tuple(e)] = c
    return Poly(n * n, field, terms)


def determinant_poly(n: int, field: Field = RATIONALS) -> Poly:
    """Symbolic n x n determinant; variable x_{ij} sits at index i*n + j."""
    return _matrix_poly(n, field, signed=True)


def permanent_poly(n: int, field: Field = RATIONALS) -> Poly:
    """Symbolic n x n permanent over the same row-major variables."""
    return _matrix_poly(n, field, signed=False)


def mod3_multilinear(n: int, residue: int = 0) -> Poly:
    """Multilinear polynomial over F_2 testing Hamming weight mod 3.

    Output is 1 exactly on points whose weight is congruent to ``residue``
    modulo 3, one of 0, 1, 2 (any other value raises ValueError, so each
    function has one name); the polynomial is produced from the truth table
    by the subset transform, so it is the unique multilinear representative.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if residue not in (0, 1, 2):
        raise ValueError(f"mod3 residue must be 0, 1 or 2, got {residue}")
    table = f2lab.truth_table(n, lambda pt: sum(pt) % 3 == residue)
    return f2lab.truth_table_to_multilinear(table)


def nonzero_scalar(field: Field, rng: random.Random) -> int:
    """One seeded nonzero scalar: uniform over {-3..3} without 0 (rationals)
    or uniform nonzero (prime fields)."""
    if field.p is None:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return rng.randrange(1, field.p)


def random_dense_poly(n: int, d: int, rng: random.Random, field: Field = RATIONALS) -> Poly:
    """Random polynomial with every monomial of degree <= d present.

    Each coefficient is a ``nonzero_scalar``, drawn in grlex order, so the
    support is the full truncated monomial set and results are reproducible
    from the generator state.
    """
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    terms = {e: nonzero_scalar(field, rng) for e in monomials_upto(n, d)}
    return Poly(n, field, terms)


def parse_spec(spec: str, what: str) -> tuple[str, list[int]]:
    """The kind and integer arguments of a "kind:i,j,..." spec; a malformed
    one is refused as a malformed ``what`` spec."""
    kind, _, arg_text = spec.partition(":")
    try:
        return kind, [int(a) for a in arg_text.split(",")] if arg_text else []
    except ValueError as exc:
        raise ValueError(f"malformed {what} spec {spec!r}") from exc


def from_spec(
    spec: str, field: Field | None = None, mod3_residue: int = 0
) -> Poly:
    """Build a benchmark polynomial from its text spec.

    Formats: "esym:d,n", "det:n", "perm:n", "mod3:n" (its residue is
    ``mod3_residue``), "rand:n,d,seed".  ``field`` defaults to the rationals
    (ignored for mod3, which is always over F_2).
    """
    kind, args = parse_spec(spec, "function")
    fld = field or RATIONALS
    if kind == "esym" and len(args) == 2:
        return elementary_symmetric(args[0], args[1], fld)
    if kind == "det" and len(args) == 1:
        return determinant_poly(args[0], fld)
    if kind == "perm" and len(args) == 1:
        return permanent_poly(args[0], fld)
    if kind == "mod3" and len(args) == 1:
        if field is not None and field.p != 2:
            raise ValueError("mod3 is defined over F2 only")
        return mod3_multilinear(args[0], mod3_residue)
    if kind == "mod3" and len(args) == 2:
        raise ValueError(f"function spec {spec!r}: a mod3 residue is set by --mod3-residue")
    if kind == "rand" and len(args) == 3:
        return random_dense_poly(args[0], args[1], trial_rng(args[2], 0), fld)
    raise ValueError(
        f"unrecognized function spec {spec!r} "
        '(formats: "esym:d,n", "det:n", "perm:n", "mod3:n", "rand:n,d,seed")'
    )
