"""Exact dense linear algebra: row reduction, kernels, images, Sylvester solves.

Each routine is one ``matrices.row_reduce`` (or, where only the pivots
count, ``matrices.pivot_columns``, which eliminates forward only) followed by
slicing, stacking and row gathers, so this module does no scalar arithmetic.
``split_basis``, a splitting's basis at one degree, is two: the reduction of
the outgoing differential and one elimination of the boundaries' free rows,
which together also give the basis inverse.  All choices
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


def _cocycles(pivots: tuple[int, ...], top: Matrix, free: list[int]) -> Matrix:
    """The kernel vectors of a matrix whose reduced rows are ``top``, one per
    free column in ``free``: 1 there, zero at the other free columns, minus
    that column of ``top`` at the pivot positions."""
    n = top.cols
    return Matrix.identity(top.field, n).take_columns(free) - _at_pivots(pivots, top.take_columns(free), n)


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a deterministic basis of ker(m); count = cols - rank: the
    cocycles of one elimination at every free column."""
    c = m.cols
    reduced, pivots = row_reduce(m)
    return _cocycles(pivots, reduced.submatrix(0, len(pivots), 0, c), [col for col in range(c) if col not in pivots])


def image_basis(m: Matrix) -> Matrix:
    """The pivot columns of m: a deterministic basis of the column space."""
    return m.take_columns(pivot_columns(m))


def complement_basis(inside: Matrix, ambient_basis: Matrix) -> Matrix:
    """Greedily extend the independent columns of ``inside`` to a basis of
    span(ambient_basis), choosing ambient columns by ascending index.

    One elimination of ``[inside | ambient_basis]``: a column is a pivot
    exactly when it is independent of the columns before it, so ``inside``
    is independent exactly when its columns are the first pivots, and the
    ambient pivots are the greedy choice."""
    if inside.rows != ambient_basis.rows:
        raise ValueError("row count mismatch")
    k = inside.cols
    pivots = pivot_columns(hstack([inside, ambient_basis]))
    if pivots[:k] != tuple(range(k)):
        raise ValueError("inside columns are linearly dependent")
    return ambient_basis.take_columns([col - k for col in pivots[k:]])


def split_basis(boundaries: Matrix, d: Matrix) -> tuple[Matrix, Matrix, tuple[int, ...]]:
    """(P, P^-1, pivots of d) for P = [boundaries | lifts | E], from the
    reduction of the outgoing differential d and one elimination z x (b + z).

    ``boundaries`` must be b independent cocycles of d (else P is not
    square, or P^-1 not its inverse); d has rank r and z = n - r free
    columns F.  E is the unit vectors at d's pivot columns, and the lifts
    extend the boundaries greedily by d's kernel basis, the cocycles at the
    free columns.  A cocycle is fixed by its F-entries, so that choice is
    the greedy extension of B_F (the boundaries' F-rows) by the columns of
    I_z, read off the pivots of ``[B_F | I_z]``; its row operations invert
    M = [B_F | chosen columns of I_z], so I_z ends as M^-1.  With R the
    reduced rows of d, a vector v has coordinates R v along E, and
    v - E R v is the cocycle with v's F-entries, whose coordinates along the
    boundaries and lifts are M^-1 v_F.  So P^-1 is M^-1 spread over the F
    columns, above R."""
    field, n = d.field, d.cols
    reduced, pivots = row_reduce(d)
    top = reduced.submatrix(0, len(pivots), 0, n)
    free = [col for col in range(n) if col not in pivots]
    b, z = boundaries.cols, len(free)
    both, chosen = row_reduce(hstack([boundaries.take_rows(free), Matrix.identity(field, z)]))
    lifts = _cocycles(pivots, top, [free[col - b] for col in chosen[b:]])
    basis = hstack([boundaries, lifts, Matrix.identity(field, n).take_columns(pivots)])
    slot = dict(zip(free, range(z)))
    spread = hstack([both.submatrix(0, z, b, b + z), Matrix.zeros(field, z, 1)])
    return basis, vstack([spread.take_columns([slot.get(j, z) for j in range(n)]), top]), pivots


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
