"""Exact dense linear algebra: row reduction, kernels, images, Sylvester solves.

Everything returns exact results over Q or F_p; all choices (pivot order,
free-variable values, complement selection) are deterministic so that every
downstream construction is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .matrices import Matrix, hstack, kron


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form together with the invertible left transform."""

    reduced: Matrix
    transform: Matrix
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _eliminate(m: Matrix, width: int | None = None) -> tuple[list[list], tuple[int, ...]]:
    """Gauss-Jordan elimination of ``m`` as row lists, in the field's own
    arithmetic: raw residues over F_p, ``Fraction`` over Q.

    Pivots are sought only among the first ``width`` columns (all of them by
    default); the columns after those are carried along by the same row
    operations.  Returns the reduced rows and the pivot columns.  Reduced
    form and pivots are unique; every row operation only touches columns from
    the pivot onward, where the pivot row can be nonzero.
    """
    field = m.field
    n, c, e = m.rows, m.cols, m.entries
    rows = [list(e[i * c : (i + 1) * c]) for i in range(n)]
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
    for col in range(c if width is None else width):
        top = len(pivots)
        if top == n:
            break
        pivot = next((r for r in range(top, n) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
        lead = rows[top][col]
        if lead != 1:
            rows[top][col:] = scaled(rows[top][col:], invert(lead))
        tail = rows[top][col:]
        for r in range(n):
            factor = rows[r][col]
            if r == top or not factor:
                continue
            rows[r][col:] = reduced_by(rows[r][col:], factor, tail)
        pivots.append(col)
    return rows, tuple(pivots)


def rref(m: Matrix) -> RrefResult:
    """Gauss-Jordan elimination of ``[m | I]`` with pivots in m's columns
    only, so the I block ends as the transform: transform * m == reduced,
    transform invertible."""
    field, n, c = m.field, m.rows, m.cols
    rows, pivots = _eliminate(hstack([m, Matrix.identity(field, n)]), c)
    reduced = Matrix.from_canonical(field, n, c, chain.from_iterable(row[:c] for row in rows))
    transform = Matrix.from_canonical(field, n, n, chain.from_iterable(row[c:] for row in rows))
    return RrefResult(reduced, transform, pivots)


def rank(m: Matrix) -> int:
    return len(_eliminate(m)[1])


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


def kernel_and_pivots(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """A deterministic basis of ker(m) (count = cols - rank) and the pivot
    columns of m, from one elimination."""
    field = m.field
    rows, pivots = _eliminate(m)
    pivot_cols = set(pivots)
    free_cols = [col for col in range(m.cols) if col not in pivot_cols]
    basis = [[field.zero] * len(free_cols) for _ in range(m.cols)]
    for j, f in enumerate(free_cols):
        basis[f][j] = field.one
        for r, col in enumerate(pivots):
            basis[col][j] = field.neg(rows[r][f])
    return Matrix.from_canonical(field, m.cols, len(free_cols), chain.from_iterable(basis)), pivots


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a deterministic basis of ker(m); count = cols - rank."""
    return kernel_and_pivots(m)[0]


def image_basis(m: Matrix) -> Matrix:
    """The pivot columns of m: a deterministic basis of the column space."""
    return m.take_columns(_eliminate(m)[1])


def _greedy_complement(inside: Matrix, ambient_basis: Matrix) -> tuple[list[list], list[int]]:
    """One elimination of ``[inside | ambient_basis]``: its reduced rows and
    the ambient columns that greedily extend ``inside``.

    A column is a pivot exactly when it is independent of the columns before
    it, so ``inside`` is independent exactly when its columns are the first
    pivots, and the ambient pivots are the greedy choice."""
    if inside.rows != ambient_basis.rows:
        raise ValueError("row count mismatch")
    k = inside.cols
    rows, pivots = _eliminate(hstack([inside, ambient_basis]))
    if pivots[:k] != tuple(range(k)):
        raise ValueError("inside columns are linearly dependent")
    return rows, [col - k for col in pivots[k:]]


def complement_basis(inside: Matrix, ambient_basis: Matrix) -> Matrix:
    """Greedily extend the independent columns of ``inside`` to a basis of
    span(ambient_basis), choosing ambient columns by ascending index."""
    return ambient_basis.take_columns(_greedy_complement(inside, ambient_basis)[1])


def extend_to_basis(inside: Matrix, within: Matrix | None = None) -> tuple[Matrix, Matrix]:
    """(t, t^-1) for t = [inside | greedy columns of ``within`` | greedy unit
    vectors], from one elimination of ``[inside | within | I]`` whose pivot
    columns are t's: its row operations E satisfy E t = I, and I ends as E."""
    field, n = inside.field, inside.rows
    identity = Matrix.identity(field, n)
    ambient = identity if within is None else hstack([within, identity])
    rows, chosen = _greedy_complement(inside, ambient)
    t_inv = Matrix.from_canonical(field, n, n, chain.from_iterable(row[-n:] for row in rows))
    return hstack([inside, ambient.take_columns(chosen)]), t_inv


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a*x = b (free variables set to zero), or None.

    b may have several columns; all are solved by one elimination of
    ``[a | b]``, which is solvable exactly when no pivot falls in b.
    """
    if a.rows != b.rows:
        raise ValueError("row count mismatch between system and right-hand side")
    field = a.field
    n = a.cols
    rows, pivots = _eliminate(hstack([a, b]))
    if pivots and pivots[-1] >= n:
        return None
    x = [[field.zero] * b.cols for _ in range(n)]
    for r, col in enumerate(pivots):
        x[col] = rows[r][n:]
    return Matrix.from_canonical(field, n, b.cols, chain.from_iterable(x))


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
    vec = solve_linear(operator, c.reshaped(c.rows * c.cols, 1))  # row-major vectorization
    if vec is None:
        return None
    return vec.reshaped(c.rows, c.cols)
