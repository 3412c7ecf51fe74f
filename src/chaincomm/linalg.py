"""Exact dense linear algebra: row reduction, kernels, images, Sylvester solves.

Everything returns exact results over Q or F_p; all choices (pivot order,
free-variable values, complement selection) are deterministic so that every
downstream construction is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .matrices import Matrix, _canonical, hstack, kron


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form together with the invertible left transform."""

    reduced: Matrix
    transform: Matrix
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _eliminate(m: Matrix, transform: bool) -> tuple[list[list], list[list] | None, tuple[int, ...]]:
    """Gauss-Jordan elimination of ``m`` as row lists, in the field's own
    arithmetic: raw residues over F_p, ``Fraction`` over Q.

    Returns the reduced rows, the transform rows (None unless ``transform``)
    and the pivot columns.  Reduced form and pivots are unique; every row
    operation only touches columns from the pivot onward, where the pivot row
    can be nonzero.
    """
    field = m.field
    n, c, e = m.rows, m.cols, m.entries
    rows = [list(e[i * c : (i + 1) * c]) for i in range(n)]
    trans = None
    if transform:
        zero, one = field.zero, field.one
        trans = [[one if i == j else zero for j in range(n)] for i in range(n)]
    if field.finite:
        p = field.size

        def invert(x):
            return pow(x, -1, p)

        def scaled(vec, s):
            return [x * s % p for x in vec]

        def reduced_by(vec, f, piv):
            return [(a - f * b) % p for a, b in zip(vec, piv)]

    else:

        def invert(x):
            return 1 / x

        def scaled(vec, s):
            return [x * s if x else x for x in vec]

        def reduced_by(vec, f, piv):
            return [a - f * b if b else a for a, b in zip(vec, piv)]

    pivots: list[int] = []
    for col in range(c):
        top = len(pivots)
        if top == n:
            break
        pivot = next((r for r in range(top, n) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            if trans is not None:
                trans[top], trans[pivot] = trans[pivot], trans[top]
        lead = rows[top][col]
        if lead != 1:
            inv = invert(lead)
            rows[top][col:] = scaled(rows[top][col:], inv)
            if trans is not None:
                trans[top] = scaled(trans[top], inv)
        tail = rows[top][col:]
        for r in range(n):
            factor = rows[r][col]
            if r == top or not factor:
                continue
            rows[r][col:] = reduced_by(rows[r][col:], factor, tail)
            if trans is not None:
                trans[r] = reduced_by(trans[r], factor, trans[top])
        pivots.append(col)
    return rows, trans, tuple(pivots)


def rref(m: Matrix) -> RrefResult:
    """Gauss-Jordan elimination.  transform * m == reduced, transform invertible."""
    rows, trans, pivots = _eliminate(m, transform=True)
    reduced = _canonical(m.field, m.rows, m.cols, tuple(chain.from_iterable(rows)))
    transform = _canonical(m.field, m.rows, m.rows, tuple(chain.from_iterable(trans)))
    return RrefResult(reduced, transform, pivots)


def rank(m: Matrix) -> int:
    return len(_eliminate(m, transform=False)[2])


def is_invertible(m: Matrix) -> bool:
    """Square with full rank; the 0x0 matrix is invertible by convention."""
    return m.is_square and rank(m) == m.rows


def inverse(m: Matrix) -> Matrix:
    if not m.is_square:
        raise ValueError("inverse of a non-square matrix")
    result = rref(m)
    if result.rank != m.rows:
        raise ValueError("matrix is singular")
    return result.transform


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a deterministic basis of ker(m); count = cols - rank."""
    field = m.field
    rows, _, pivots = _eliminate(m, transform=False)
    pivot_cols = set(pivots)
    free_cols = [col for col in range(m.cols) if col not in pivot_cols]
    basis = [[field.zero] * len(free_cols) for _ in range(m.cols)]
    for j, f in enumerate(free_cols):
        basis[f][j] = field.one
        for r, col in enumerate(pivots):
            basis[col][j] = field.neg(rows[r][f])
    return _canonical(field, m.cols, len(free_cols), tuple(chain.from_iterable(basis)))


def image_basis(m: Matrix) -> Matrix:
    """The pivot columns of m: a deterministic basis of the column space."""
    return m.take_columns(_eliminate(m, transform=False)[2])


def complement_basis(inside: Matrix, ambient_basis: Matrix) -> Matrix:
    """Greedily extend the independent columns of ``inside`` to a basis of
    span(ambient_basis), choosing ambient columns by ascending index.

    One elimination of ``[inside | ambient_basis]`` decides it: a column is a
    pivot exactly when it is independent of the columns before it, so
    ``inside`` is independent exactly when its columns are the first pivots,
    and the ambient pivots are the greedy choice."""
    if inside.rows != ambient_basis.rows:
        raise ValueError("row count mismatch")
    k = inside.cols
    pivots = _eliminate(hstack([inside, ambient_basis]), transform=False)[2]
    if pivots[:k] != tuple(range(k)):
        raise ValueError("inside columns are linearly dependent")
    return ambient_basis.take_columns([col - k for col in pivots[k:]])


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a*x = b (free variables set to zero), or None.

    b may have several columns; all are solved by one elimination of
    ``[a | b]``, which is solvable exactly when no pivot falls in b.
    """
    if a.rows != b.rows:
        raise ValueError("row count mismatch between system and right-hand side")
    field = a.field
    n = a.cols
    rows, _, pivots = _eliminate(hstack([a, b]), transform=False)
    if pivots and pivots[-1] >= n:
        return None
    x = [[field.zero] * b.cols for _ in range(n)]
    for r, col in enumerate(pivots):
        x[col] = rows[r][n:]
    return _canonical(field, n, b.cols, tuple(chain.from_iterable(x)))


def sylvester_operator(a: Matrix, b: Matrix) -> Matrix:
    """kron(a, I) - kron(I, b^T): the coefficient matrix of X -> a X - X b
    acting on the row-major vectorization of X."""
    if not a.is_square or not b.is_square:
        raise ValueError("sylvester_operator needs square matrices")
    if a.field != b.field:
        raise ValueError("field mismatch")
    field = a.field
    return kron(a, Matrix.identity(field, b.rows)) - kron(Matrix.identity(field, a.rows), b.transpose())


def sylvester_solve(a: Matrix, b: Matrix, c: Matrix) -> Matrix | None:
    """Solve a*X - X*b = c exactly via the Kronecker linear system, or None."""
    if not a.is_square or not b.is_square:
        raise ValueError("sylvester_solve needs square a and b")
    if c.shape != (a.rows, b.rows):
        raise ValueError(f"right-hand side must be {a.rows}x{b.rows}, got {c.shape}")
    operator = sylvester_operator(a, b)
    rhs = _canonical(c.field, c.rows * c.cols, 1, c.entries)  # row-major vectorization
    vec = solve_linear(operator, rhs)
    if vec is None:
        return None
    return _canonical(c.field, c.rows, c.cols, vec.entries)
