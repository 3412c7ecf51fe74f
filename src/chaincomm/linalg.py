"""Exact dense linear algebra: row reduction, kernels, images, Sylvester solves.

Each routine is one ``matrices.row_reduce`` (or, where only the pivots
count, ``matrices.pivot_columns``) followed by slicing, stacking and row
gathers, so this module does no scalar arithmetic.  All choices
(pivot order, free-variable values, complement selection) are deterministic
so that every downstream construction is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import Matrix, hstack, kron, pivot_columns, row_reduce, vstack


@dataclass(frozen=True)
class RrefResult:
    """Reduced row-echelon form together with the invertible left transform."""

    reduced: Matrix
    transform: Matrix
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(m: Matrix) -> RrefResult:
    """Gauss-Jordan elimination of ``[m | I]`` with pivots in m's columns
    only, so the I block ends as the transform: transform * m == reduced,
    transform invertible."""
    n, c = m.rows, m.cols
    both, pivots = row_reduce(hstack([m, Matrix.identity(m.field, n)]), c)
    return RrefResult(both.submatrix(0, n, 0, c), both.submatrix(0, n, c, c + n), pivots)


def rank(m: Matrix) -> int:
    return len(pivot_columns(m))


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


def _at_pivots(pivots: tuple[int, ...], top: Matrix, n: int) -> Matrix:
    """n rows: row r of ``top`` at position ``pivots[r]``, zero rows at the
    other positions, placed by one row gather."""
    source = dict(zip(pivots, range(len(pivots))))
    padded = vstack([top, Matrix.zeros(top.field, 1, top.cols)])
    return padded.take_rows([source.get(i, len(pivots)) for i in range(n)])


def kernel_and_pivots(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """A deterministic basis of ker(m) (count = cols - rank) and the pivot
    columns of m, from one elimination: the free columns of I - E, where E
    holds the reduced rows at their pivot positions."""
    c = m.cols
    reduced, pivots = row_reduce(m)
    placed = _at_pivots(pivots, reduced.submatrix(0, len(pivots), 0, c), c)
    free = [col for col in range(c) if col not in pivots]
    return (Matrix.identity(m.field, c) - placed).take_columns(free), pivots


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a deterministic basis of ker(m); count = cols - rank."""
    return kernel_and_pivots(m)[0]


def image_basis(m: Matrix) -> Matrix:
    """The pivot columns of m: a deterministic basis of the column space."""
    return m.take_columns(pivot_columns(m))


def _greedy_complement(inside: Matrix, ambient_basis: Matrix) -> tuple[Matrix, list[int]]:
    """One elimination of ``[inside | ambient_basis]``: its reduced form and
    the ambient columns that greedily extend ``inside``.

    A column is a pivot exactly when it is independent of the columns before
    it, so ``inside`` is independent exactly when its columns are the first
    pivots, and the ambient pivots are the greedy choice."""
    if inside.rows != ambient_basis.rows:
        raise ValueError("row count mismatch")
    k = inside.cols
    reduced, pivots = row_reduce(hstack([inside, ambient_basis]))
    if pivots[:k] != tuple(range(k)):
        raise ValueError("inside columns are linearly dependent")
    return reduced, [col - k for col in pivots[k:]]


def complement_basis(inside: Matrix, ambient_basis: Matrix) -> Matrix:
    """Greedily extend the independent columns of ``inside`` to a basis of
    span(ambient_basis), choosing ambient columns by ascending index."""
    return ambient_basis.take_columns(_greedy_complement(inside, ambient_basis)[1])


def extend_to_basis(inside: Matrix, within: Matrix | None = None) -> tuple[Matrix, Matrix]:
    """(t, t^-1) for t = [inside | greedy columns of ``within`` | greedy unit
    vectors], from one elimination of ``[inside | within | I]`` whose pivot
    columns are t's: its row operations E satisfy E t = I, and I ends as E."""
    n = inside.rows
    identity = Matrix.identity(inside.field, n)
    ambient = identity if within is None else hstack([within, identity])
    reduced, chosen = _greedy_complement(inside, ambient)
    t_inv = reduced.submatrix(0, n, reduced.cols - n, reduced.cols)
    return hstack([inside, ambient.take_columns(chosen)]), t_inv


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution of a*x = b (free variables set to zero), or None.

    b may have several columns; all are solved by one elimination of
    ``[a | b]``, which is solvable exactly when no pivot falls in b.
    """
    if a.rows != b.rows:
        raise ValueError("row count mismatch between system and right-hand side")
    n = a.cols
    reduced, pivots = row_reduce(hstack([a, b]))
    if pivots and pivots[-1] >= n:
        return None
    return _at_pivots(pivots, reduced.submatrix(0, len(pivots), n, n + b.cols), n)


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
