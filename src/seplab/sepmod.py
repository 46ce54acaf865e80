"""Test modules over coefficient space and separation experiments.

An input polynomial of degree at most d in n variables is a point of
coefficient space; a *test polynomial* is a polynomial in one coefficient
variable per monomial slot.  Test modules come in three shapes: rank
thresholds of a measure (semantically the span of all minors above the
threshold), explicit spans of test polynomials (canonical bases from
``linalg.span``), and products implementing property disjunction.
``run_separation`` drives the whole pipeline: sample easy circuits, evaluate
the module on each expansion, and test the hard candidate exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Sequence, Union

from . import circuits, groups, linalg, measures
from . import poly as polyops
from .errors import InfeasibleError
from .field import Field, Scalar
from .functions import determinant_poly
from .poly import Poly, monomial_count, monomials_exact, monomials_upto
from .seeding import SEED_STRIDE, derive_seed, trial_rng

MINOR_CAP = 6
# the sampled GL closure stops after this many samples in a row that do not
# grow the span, or after this many samples in all
_STABLE_ROUNDS = 10
_MAX_SAMPLES = 500


# ---------------------------------------------------------------------------
# ambient coefficient space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ambient:
    """Coefficient space of input polynomials: n variables, degree cap d.

    ``homogeneous`` selects the exact-degree slice; otherwise every monomial
    of degree at most d gets one coefficient variable.  Coefficient variable
    i corresponds to ``coeff_exponents()[i]`` (grlex order).
    """

    n: int
    d: int
    field: Field
    homogeneous: bool = False

    def __post_init__(self):
        if self.n < 1 or self.d < 0:
            raise ValueError("need n >= 1 and d >= 0")

    def coeff_exponents(self) -> list[tuple[int, ...]]:
        if self.homogeneous:
            return monomials_exact(self.n, self.d)
        return monomials_upto(self.n, self.d)

    @property
    def N(self) -> int:
        if self.homogeneous:
            return monomial_count(self.n, self.d)
        return monomial_count(self.n + 1, self.d)

    def accepts(self, f: Poly) -> bool:
        if f.n != self.n or f.field != self.field or f.degree > self.d:
            return False
        if self.homogeneous and not f.is_zero:
            return f.is_homogeneous and f.degree == self.d
        return True

    def require(self, f: Poly) -> None:
        if not self.accepts(f):
            raise ValueError(
                f"polynomial (n={f.n}, deg={f.degree}, {f.field}) does not fit "
                f"the ambient space (n={self.n}, d<={self.d}, {self.field}"
                f"{', homogeneous' if self.homogeneous else ''})"
            )

    def coeff_vector(self, f: Poly) -> list[Scalar]:
        self.require(f)
        return [f.coefficient(e) for e in self.coeff_exponents()]

    def coeff_variable(self, e: Sequence[int]) -> Poly:
        """The test polynomial reading off one coefficient slot."""
        exponents = self.coeff_exponents()
        idx = exponents.index(tuple(e))
        return polyops.variable(idx, len(exponents), self.field)


# ---------------------------------------------------------------------------
# test-module variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitSpan:
    """Span of test polynomials, reduced to a canonical echelon basis."""

    ambient: Ambient
    basis: tuple[Poly, ...]

    def __post_init__(self):
        for t in self.basis:
            if t.n != self.ambient.N or t.field != self.ambient.field:
                raise ValueError(
                    f"test polynomial on {t.n} variables over {t.field} does "
                    f"not fit coefficient space of dimension {self.ambient.N} "
                    f"over {self.ambient.field}"
                )
        fld = self.ambient.field
        sub = linalg.span([t.terms for t in self.basis], fld)
        reduced = tuple(Poly(self.ambient.N, fld, t) for t in sub.term_maps())
        object.__setattr__(self, "basis", reduced)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def describe(self) -> str:
        return f"span[dim={self.dim}]"


@dataclass(frozen=True)
class MinorsOfMeasure:
    """All (r+1) x (r+1) minors of a measure matrix, decided by exact rank.

    Vanishing of every minor at f is equivalent to rank <= r, so evaluation
    computes the measure rank and compares — no minor is ever enumerated
    here (``minors_explicit`` materializes them at tiny sizes as a
    cross-check).  ``params`` are kept as ``measures.measure_params``
    returns them, so a wrong one is refused when the module is built.
    """

    ambient: Ambient
    measure: str
    r: int
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        params = measures.measure_params(self.measure, self.params)
        object.__setattr__(self, "params", params)
        if self.r < 0:
            raise ValueError("rank threshold must be nonnegative")

    def describe(self) -> str:
        return f"minors:{self.measure}:{self.r}"


@dataclass(frozen=True)
class ProductModule:
    """Product of two modules; vanishes where either factor vanishes."""

    left: "TestModule"
    right: "TestModule"

    def __post_init__(self):
        if self.left.ambient != self.right.ambient:
            raise ValueError("product factors live in different ambient spaces")

    @property
    def ambient(self) -> Ambient:
        return self.left.ambient

    def describe(self) -> str:
        return f"product({self.left.describe()},{self.right.describe()})"


TestModule = Union[ExplicitSpan, MinorsOfMeasure, ProductModule]


def explicit_product(left: ExplicitSpan, right: ExplicitSpan) -> ExplicitSpan:
    """Materialized product span: pairwise products of basis elements."""
    if left.ambient != right.ambient:
        raise ValueError("product factors live in different ambient spaces")
    prods = [
        polyops.multiply(t1, t2)
        for t1 in left.basis
        for t2 in right.basis
    ]
    return ExplicitSpan(left.ambient, tuple(prods))


def in_span(span: ExplicitSpan, t: Poly) -> bool:
    if t.n != span.ambient.N or t.field != span.ambient.field:
        raise ValueError("polynomial does not fit the span's coefficient space")
    # the basis is already reduced and independent, so its rank is its size
    rows = [b.terms for b in span.basis] + [t.terms]
    return linalg.span_rank(rows, t.field) == span.dim


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleEvaluation:
    """Outcome of evaluating one module at one input polynomial."""

    vanishes: bool
    value: int
    threshold: int


def evaluate_module(module: TestModule, f: Poly) -> ModuleEvaluation:
    """Decide vanishing of the module at f.

    Rank modules report the measure rank against the threshold r; explicit
    spans report how many basis test polynomials are nonzero at f (module
    vanishes iff none are); products report the disjunction of the factors.
    """
    if isinstance(module, MinorsOfMeasure):
        module.ambient.require(f)
        rank = measures.compute_measure(module.measure, f, module.params).rank
        return ModuleEvaluation(rank <= module.r, rank, module.r)
    if isinstance(module, ExplicitSpan):
        point = module.ambient.coeff_vector(f)
        nonzero = sum(polyops.evaluate(t, point) != 0 for t in module.basis)
        return ModuleEvaluation(not nonzero, nonzero, 0)
    if isinstance(module, ProductModule):
        vanishes = vanishes_on(module.left, f) | vanishes_on(module.right, f)
        return ModuleEvaluation(vanishes, int(not vanishes), 0)
    raise TypeError(f"not a test module: {type(module).__name__}")


def vanishes_on(module: TestModule, f: Poly) -> bool:
    return evaluate_module(module, f).vanishes


# ---------------------------------------------------------------------------
# symbolic measure matrix and explicit minors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicMatrix:
    """Matrix whose entries are test polynomials (linear in the a-variables)."""

    row_labels: tuple
    col_labels: tuple
    entries: tuple[tuple[Poly, ...], ...]


def symbolic_partial_deriv_matrix(ambient: Ambient) -> SymbolicMatrix:
    """Derivative matrix of a generic input polynomial of the ambient space.

    Row c (a derivative operator of order |c| <= d, order 0 included),
    column e (a monomial): the entry is mu * a_{e+c} where mu is the
    falling-factorial multiplier, or zero when e+c leaves the space.
    The multipliers are read off the derivative rows of the generic
    polynomial with every coefficient 1, since d^c x^(e+c) = mu * x^e.
    """
    exponents = ambient.coeff_exponents()
    index = {e: i for i, e in enumerate(exponents)}
    nvars = len(exponents)
    fld = ambient.field
    row_labels = col_labels = tuple(monomials_upto(ambient.n, ambient.d))
    generic = Poly(ambient.n, fld, dict.fromkeys(exponents, 1))
    zero = polyops.zero(nvars, fld)

    def entry(c, e, mu) -> Poly:
        slot = index[tuple(a + b for a, b in zip(e, c))]
        return polyops.scalar_multiply(mu, polyops.variable(slot, nvars, fld))

    rows = tuple(
        tuple(entry(c, e, row[e]) if e in row else zero for e in col_labels)
        for c, row in zip(row_labels, measures.derivative_rows(generic, row_labels))
    )
    return SymbolicMatrix(row_labels, col_labels, rows)


def poly_det(entries: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials.

    The entries, row-major, are substituted into the symbolic determinant.
    """
    k = len(entries)
    if any(len(row) != k for row in entries):
        raise ValueError("determinant needs a square matrix")
    if k == 0:
        raise ValueError("empty determinant")
    det = determinant_poly(k, entries[0][0].field)
    return polyops.substitute(det, [t for row in entries for t in row])


def poly_matrix_minors(entries: Sequence[Sequence[Poly]], size: int) -> list[Poly]:
    """All size x size minor determinants of a polynomial matrix."""
    nrows = len(entries)
    ncols = len(entries[0]) if nrows else 0
    if any(len(row) != ncols for row in entries):
        raise ValueError("ragged matrix")
    if nrows > MINOR_CAP or ncols > MINOR_CAP:
        raise InfeasibleError(
            f"{nrows}x{ncols} matrix exceeds the explicit-minor cap "
            f"{MINOR_CAP}x{MINOR_CAP}"
        )
    if size < 1 or size > min(nrows, ncols):
        return []
    out = []
    for rs in itertools.combinations(range(nrows), size):
        for cs in itertools.combinations(range(ncols), size):
            out.append(poly_det([[entries[i][j] for j in cs] for i in rs]))
    return out


def minors_explicit(
    matrix: SymbolicMatrix | Sequence[Sequence[Poly]],
    r: int,
    ambient: Ambient,
) -> ExplicitSpan:
    """Explicit span of all (r+1) x (r+1) minors, reduced to a basis.

    Only for tiny matrices (at most ``MINOR_CAP`` rows and columns); ranks
    above min(rows, cols) leave no minors, giving the empty span that vanishes everywhere.
    """
    entries = matrix.entries if isinstance(matrix, SymbolicMatrix) else matrix
    return ExplicitSpan(ambient, tuple(poly_matrix_minors(entries, r + 1)))


# ---------------------------------------------------------------------------
# group closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureReport:
    """Span generated by transporting a module around a group."""

    module: ExplicitSpan
    mode: str
    samples: int
    dim: int


def group_closure(
    span: ExplicitSpan,
    group: str,
    rng: random.Random | None = None,
) -> ClosureReport:
    """Close an explicit span under a variable group acting on coefficients.

    group="sym": exhaustive over all n! permutations (n <= 8); the result is
    genuinely invariant.  group="gl": random invertible substitutions are
    added until the span dimension survives ``_STABLE_ROUNDS`` consecutive
    samples, or ``_MAX_SAMPLES`` are drawn — reported as mode "sampled",
    which is evidence, not proof.
    """
    amb = span.ambient
    basis = amb.coeff_exponents()

    def transported(g: groups.GroupElement) -> tuple:
        matrix = groups.induced_coeff_map(g, basis)
        return tuple(polyops.substitute_linear(t, matrix) for t in span.basis)

    if group == "sym":
        elements = groups.enumerate_permutations(amb.n, amb.field)
        images = span.basis + tuple(t for g in elements for t in transported(g))
        closed = ExplicitSpan(amb, images)
        return ClosureReport(closed, "exhaustive", len(elements), closed.dim)
    if group == "gl":
        if rng is None:
            raise ValueError("sampled closure needs a random generator")
        current = span
        streak = 0
        samples = 0
        while streak < _STABLE_ROUNDS and samples < _MAX_SAMPLES:
            g = groups.random_invertible(amb.n, amb.field, rng)
            grown = ExplicitSpan(amb, current.basis + transported(g))
            samples += 1
            if grown.dim == current.dim:
                streak += 1
            else:
                streak = 0
            current = grown
        return ClosureReport(current, "sampled", samples, current.dim)
    raise ValueError(f'unknown group {group!r} (expected "sym" or "gl")')


# ---------------------------------------------------------------------------
# separation experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    rank: int
    bound: int
    vanished: bool


@dataclass(frozen=True)
class SeparationReport:
    """Full record of one separation experiment.

    The separating claim needs every sampled easy function to vanish AND the
    hard candidate not to; with zero trials the claim is refused outright.
    """

    module: str
    sampler: str
    trials: int
    rows: tuple[TrialResult, ...]
    easy_vanish_count: int
    hard_nonvanish: bool
    hard_value: int
    hard_threshold: int
    separating: bool
    note: str


def run_separation(
    module: TestModule,
    sampler: circuits.EasySampler,
    f_hard: Poly,
    trials: int,
    seed: int = 0,
) -> SeparationReport:
    """Evaluate the module on sampled easy functions and the hard candidate.

    Trial i uses its own generator derived from the master seed, so runs
    reproduce bit for bit and trials could be distributed.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if trials > SEED_STRIDE:
        raise ValueError(
            f"{trials} trials exceed the seed stride {SEED_STRIDE}; "
            "split the batch over several master seeds"
        )
    rows = []
    for i in range(trials):
        rng = trial_rng(seed, i)
        f_easy = circuits.expand(sampler.sample(rng))
        outcome = evaluate_module(module, f_easy)
        rows.append(
            TrialResult(
                trial=i,
                seed=derive_seed(seed, i),
                rank=outcome.value,
                bound=outcome.threshold,
                vanished=outcome.vanishes,
            )
        )
    vanish_count = sum(row.vanished for row in rows)
    hard_outcome = evaluate_module(module, f_hard)
    hard_nonvanish = not hard_outcome.vanishes
    if trials == 0:
        separating = False
        note = "insufficient evidence: zero easy-side trials"
    else:
        separating = (vanish_count == trials) and hard_nonvanish
        note = ""
    return SeparationReport(
        module=module.describe(),
        sampler=sampler.describe(),
        trials=trials,
        rows=tuple(rows),
        easy_vanish_count=vanish_count,
        hard_nonvanish=hard_nonvanish,
        hard_value=hard_outcome.value,
        hard_threshold=hard_outcome.threshold,
        separating=separating,
        note=note,
    )
