"""Full dense derivative matrices, the unpruned reference for the measures.

Each builder returns (row labels, column labels, dense rows).  Rows run over
every operator (and shift) of the stated orders, zero rows included, and
columns over every monomial of the stated degrees, so nothing is skipped
that the pruned block ranks in ``seplab.measures`` skip.
"""

from seplab import derivative_rows, linalg, monomials_exact, monomials_upto


def _dense(f, ops, cols, shifts=None):
    return linalg.densify(derivative_rows(f, ops, shifts), cols)[1]


def partials_matrix(f):
    """Operators of order 0..deg f against monomials of degree <= deg f."""
    cols = monomials_upto(f.n, f.degree)
    return cols, cols, _dense(f, cols, cols)


def shifted_matrix(f, k, l):
    """Order-k operators times shifts of degree <= l, shift-major, against
    monomials of degree <= deg f - k + l."""
    shifts, ops = monomials_upto(f.n, l), monomials_exact(f.n, k)
    cols = monomials_upto(f.n, f.degree - k + l)
    labels = [(m, c) for m in shifts for c in ops]
    return labels, cols, _dense(f, ops, cols, shifts)


def dense_rank(f, matrix):
    _, cols, rows = matrix
    return linalg.rank(rows, f.field, ncols=len(cols))
