"""Immutable exact dense matrices.

A matrix stores one row-major tuple of integers and one positive
denominator.  Over F_p the integers are residues in ``range(p)`` and the
denominator is 1.  Over Q they are the numerators over d, the least common
multiple of the entries' denominators, so gcd(d, every numerator) == 1; an
all-zero matrix has d == 1.  The form is canonical, so equality is structural
and matrices are hashable (they appear in sets during exhaustive finite-field
searches).  Zero-row and zero-column matrices are first-class: they occur at
the ends of every bounded complex, and the 0x0 matrix counts as invertible.

Products, sums, differences, negation, scaling, slicing, stacking,
Kronecker products, row reduction (``row_reduce``, the library's only
elimination, and ``pivot_columns``, its pivots alone), the zero-diagonal
similarity behind commutator factorization (``zero_diagonal_form``, which
gives the basis, its inverse and the reduced matrix from one pass) and the
diagonal commutator solve that follows it (``index_quotients``) run on the
integers alone, one kernel for both fields; the fields differ only in
reducing ``% p`` or by gcds over Q.  A product takes one dense integer dot
product per entry: at the sizes the library meets, skipping zero entries
costs more than it saves.  Stacking is one kernel, ``block_matrix``, of
which ``hstack`` and ``vstack`` are the one-row and one-column cases.
``entry``, ``entries``, ``row`` and ``to_rows`` build field scalars on
demand: ``int`` over F_p, ``Fraction`` over Q.

The public constructor normalises and validates every entry;
``Matrix.from_canonical`` (F_p residues) and ``Matrix.from_ratios`` (Q
pairs) take entries that are already canonical and check nothing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, product
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .fields import Field, Scalar, render


class Matrix:
    """A rows x cols matrix with exact entries, stored row-major as integers
    over one denominator."""

    __slots__ = ("field", "rows", "cols", "_ints", "_den")

    def __init__(self, field: Field, rows: int, cols: int, entries: Iterable[Scalar]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(field.normalize(e) for e in entries)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        if field.finite:
            _store(self, field, rows, cols, data, 1)
        else:
            ratios = [x.as_integer_ratio() for x in data]
            den = lcm(*(q for _, q in ratios))
            _store(self, field, rows, cols, _over(ratios, den), den)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "Matrix":
        nrows = len(rows)
        if nrows == 0:
            return cls(field, 0, 0 if cols is None else cols, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("rows have unequal lengths")
        return cls(field, nrows, ncols, (e for r in rows for e in r))

    @classmethod
    def from_canonical(cls, field: Field, rows: int, cols: int, entries: Iterable[int]) -> "Matrix":
        """A matrix over F_p from ``rows * cols`` residues in ``range(p)``;
        unlike ``Matrix(...)`` it neither normalises nor checks them.  Over Q
        use ``from_ratios``."""
        if not field.finite:
            raise TypeError("from_canonical takes F_p residues; use from_ratios over Q")
        return _wrap(field, rows, cols, tuple(entries), 1)

    @classmethod
    def from_ratios(cls, field: Field, rows: int, cols: int, ratios: Sequence[tuple[int, int]], den: int) -> "Matrix":
        """A matrix over Q from ``rows * cols`` (numerator, denominator) pairs
        in lowest terms with positive denominators and ``den``, the lcm of
        those denominators, building no ``Fraction``; nothing is checked."""
        return _wrap(field, rows, cols, _over(ratios, den), den)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return _wrap(field, rows, cols, (0,) * (rows * cols), 1)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return _wrap(field, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)), 1)

    @classmethod
    def column(cls, field: Field, values: Sequence[Scalar]) -> "Matrix":
        return cls(field, len(values), 1, values)

    @classmethod
    def diagonal(cls, field: Field, values: Sequence[Scalar]) -> "Matrix":
        n = len(values)
        return cls(field, n, n, (values[i] if i == j else 0 for i in range(n) for j in range(n)))

    # -- access ------------------------------------------------------------

    def _scalars(self, ints: Sequence[int]) -> tuple[Scalar, ...]:
        """The field scalars of some of this matrix's integers."""
        if self.field.finite:
            return tuple(ints)
        den = self._den
        if den == 1:
            return tuple(map(Fraction, ints))
        return tuple(Fraction(x, den) for x in ints)

    @property
    def entries(self) -> tuple[Scalar, ...]:
        """All entries row-major, as field scalars."""
        return self._scalars(self._ints)

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        x = self._ints[i * self.cols + j]
        return x if self.field.finite else Fraction(x, self._den)

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self._scalars(self._ints[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def denominator(self) -> int:
        """The lcm of the entries' denominators: 1 over F_p and for zero."""
        return self._den

    def ratios(self) -> Iterator[tuple[int, int]]:
        """Every entry row-major as a (numerator, denominator) pair in lowest
        terms, building no ``Fraction``; the denominator is 1 over F_p."""
        den = self._den
        for x in self._ints:
            g = gcd(x, den)
            yield (x // g, den // g)

    def _row_tuples(self) -> list[tuple[int, ...]]:
        c, e = self.cols, self._ints
        return [e[i * c : (i + 1) * c] for i in range(self.rows)]

    def _column_tuples(self) -> list[tuple[int, ...]]:
        if self.rows == 0:
            return [()] * self.cols
        return list(zip(*self._row_tuples()))

    def column_at(self, j: int) -> "Matrix":
        return self.take_columns([j])

    def take_columns(self, indices: Sequence[int]) -> "Matrix":
        c, e = self.cols, self._ints
        for j in indices:
            if not 0 <= j < c:
                raise IndexError(j)
        return _lowest(
            self.field, self.rows, len(indices), tuple(e[i * c + j] for i in range(self.rows) for j in indices), self._den
        )

    def take_rows(self, indices: Sequence[int]) -> "Matrix":
        """The rows at ``indices``, in that order; an index may repeat."""
        if not all(0 <= i < self.rows for i in indices):
            raise IndexError(indices)
        rows = self._row_tuples()
        gathered = tuple(chain.from_iterable(rows[i] for i in indices))
        return _lowest(self.field, len(indices), self.cols, gathered, self._den)

    def submatrix(self, row0: int, row1: int, col0: int, col1: int) -> "Matrix":
        if not (0 <= row0 <= row1 <= self.rows and 0 <= col0 <= col1 <= self.cols):
            raise IndexError((row0, row1, col0, col1))
        c, e = self.cols, self._ints
        return _lowest(
            self.field,
            row1 - row0,
            col1 - col0,
            tuple(chain.from_iterable(e[i * c + col0 : i * c + col1] for i in range(row0, row1))),
            self._den,
        )

    def reshaped(self, rows: int, cols: int) -> "Matrix":
        """The same row-major entries read as a rows x cols matrix."""
        if rows < 0 or cols < 0 or rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.shape} to {(rows, cols)}")
        return _wrap(self.field, rows, cols, self._ints, self._den)

    # -- algebra -----------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self._ints)

    def is_scalar(self) -> bool:
        """True when the matrix is c * identity (vacuously for 0x0)."""
        if not self.is_square:
            return False
        if self.rows == 0:
            return True
        step, ints = self.rows + 1, self._ints
        c = ints[0]
        # the diagonal positions are the multiples of n + 1 below n * n
        return all(x == (c if k % step == 0 else 0) for k, x in enumerate(ints))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(sub, other)

    def _entrywise(self, op, other: "Matrix") -> "Matrix":
        """op on the integers of both matrices over their common denominator."""
        self._check_same_shape(other)
        den = lcm(self._den, other._den)
        a, b = _rescaled(self, den), _rescaled(other, den)
        return _reduced(self.field, self.rows, self.cols, map(op, a, b), den)

    def __neg__(self) -> "Matrix":
        negated = map(neg, self._ints)
        if self.field.finite:
            return _reduced(self.field, self.rows, self.cols, negated, 1)
        return _wrap(self.field, self.rows, self.cols, tuple(negated), self._den)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        cols = other._column_tuples()
        dots = [sum(map(mul, row, col)) for row in self._row_tuples() for col in cols]
        return _reduced(self.field, self.rows, other.cols, dots, self._den * other._den)

    def scale(self, scalar: Scalar) -> "Matrix":
        c = self.field.normalize(scalar)
        num, den = (c, 1) if self.field.finite else c.as_integer_ratio()
        return _reduced(self.field, self.rows, self.cols, (num * x for x in self._ints), den * self._den)

    def scale_columns(self, factors: Sequence[int]) -> "Matrix":
        """Column j times the integer ``factors[j]``: the product by
        diag(factors) without the product."""
        if len(factors) != self.cols:
            raise ValueError(f"expected {self.cols} column factors, got {len(factors)}")
        weights = tuple(factors) * self.rows
        return _reduced(self.field, self.rows, self.cols, map(mul, self._ints, weights), self._den)

    def transpose(self) -> "Matrix":
        return _wrap(self.field, self.cols, self.rows, tuple(chain.from_iterable(self._column_tuples())), self._den)

    def trace(self) -> Scalar:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        total = sum(self._ints[:: self.cols + 1])
        return total % self.field.size if self.field.finite else Fraction(total, self._den)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _check_same_shape(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"not a matrix: {other!r}")
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and self._den == other._den
            and self._ints == other._ints
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self._den, self._ints))

    def sort_key(self) -> tuple:
        """Total order on same-field matrices, for deterministic output."""
        return (self.rows, self.cols, self.entries)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(map(render, self.row(i))) for i in range(self.rows))
        return f"Matrix({self.field.kind} {self.rows}x{self.cols} [{body}])"


def _store(m: Matrix, field: Field, rows: int, cols: int, ints: tuple[int, ...], den: int) -> Matrix:
    setattr_ = object.__setattr__
    setattr_(m, "field", field)
    setattr_(m, "rows", rows)
    setattr_(m, "cols", cols)
    setattr_(m, "_ints", ints)
    setattr_(m, "_den", den)
    return m


def _wrap(field: Field, rows: int, cols: int, ints: tuple[int, ...], den: int) -> Matrix:
    """A matrix from integers and a denominator already in the stored form."""
    return _store(object.__new__(Matrix), field, rows, cols, ints, den)


def _over(ratios: Sequence[tuple[int, int]], den: int) -> tuple[int, ...]:
    """Lowest-terms (numerator, denominator) pairs as numerators over den, the
    lcm of the denominators.  Already in lowest terms: for each prime q of
    den, the entry whose denominator carries q's full power in den has a
    numerator prime to q and a factor den // denominator prime to q."""
    if den == 1:
        return tuple(n for n, _ in ratios)
    return tuple(n if q == den else n * (den // q) for n, q in ratios)


def _lowest(field: Field, rows: int, cols: int, ints: tuple[int, ...], den: int) -> Matrix:
    """ints / den in the stored form, from canonical residues over F_p (where
    den is 1) or any integers over Q."""
    if den != 1:
        ints, den = _lowest_terms(ints, den)
    return _wrap(field, rows, cols, tuple(ints), den)


def _lowest_terms(ints: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """ints and den divided by their gcd, negated with it when den < 0, so
    that the denominator comes out positive."""
    g = gcd(den, *ints) if den > 0 else -gcd(den, *ints)
    return (ints, den) if g == 1 else ([x // g for x in ints], den // g)


def _reduced(field: Field, rows: int, cols: int, raw: Iterable[int], den: int) -> Matrix:
    """The matrix raw / den from the integer results of ring operations on
    stored forms: ``% p`` over F_p, lowest terms over Q."""
    if field.finite:
        p = field.size
        return _wrap(field, rows, cols, tuple(x % p for x in raw), 1)
    return _lowest(field, rows, cols, tuple(raw), den)


def _rescaled(m: Matrix, den: int) -> tuple[int, ...]:
    """m's integers over ``den``, a multiple of its denominator."""
    factor = den // m._den
    return m._ints if factor == 1 else tuple(x * factor for x in m._ints)


def row_reduce(m: Matrix, width: int | None = None) -> tuple[Matrix, tuple[int, ...]]:
    """Gauss-Jordan elimination: the reduced row echelon form of ``m`` and its
    pivot columns, sought among the first ``width`` columns (all by default);
    the later columns are carried along by the same row operations."""
    rows, dens, pivots = _eliminate(m, m.cols if width is None else width)
    return _packed(m.field, rows, dens, m.cols), pivots


def pivot_columns(m: Matrix) -> tuple[int, ...]:
    """The pivot columns of ``m``'s reduced row echelon form, which is never
    packed into a matrix."""
    return _eliminate(m, m.cols)[2]


def _eliminate(m: Matrix, width: int) -> tuple[list[list[int]], list[int], tuple[int, ...]]:
    """The elimination behind ``row_reduce``: the reduced rows, each integers
    over its own denominator, so every row stays exact, those below the rank
    included; and the pivot columns, sought among the first ``width``."""
    n = m.rows
    rows = [list(r) for r in m._row_tuples()]
    dens = [m._den] * n
    pivots: list[int] = []
    for col in range(width):
        top = len(pivots)
        if top == n:
            break
        pivot = next((r for r in range(top, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        dens[top], dens[pivot] = dens[pivot], dens[top]
        if m.field.finite:
            _clear_residues(rows, top, col, m.field.size)
        else:
            _clear_rationals(rows, dens, top, col)
        pivots.append(col)
    return rows, dens, tuple(pivots)


def _packed(field: Field, rows: list[list[int]], dens: list[int], cols: int) -> Matrix:
    """The matrix whose row i is ``rows[i]`` over ``dens[i]``: every row over
    the lcm of the denominators, then lowest terms."""
    den = lcm(*dens)
    ints = chain.from_iterable(row if d == den else [x * (den // d) for x in row] for row, d in zip(rows, dens))
    return _lowest(field, len(rows), cols, tuple(ints), den)


def _clear_residues(rows: list[list[int]], top: int, col: int, p: int) -> None:
    """Scale row ``top`` to pivot 1, then clear column ``col`` from the other
    rows ``% p``, from ``col`` on: the pivot row is zero before it."""
    lead = rows[top][col]
    if lead != 1:
        s = pow(lead, -1, p)
        rows[top][col:] = [x * s % p for x in rows[top][col:]]
    tail = rows[top][col:]
    for r, row in enumerate(rows):
        f = row[col]
        if f and r != top:
            row[col:] = [(a - f * b) % p for a, b in zip(row[col:], tail)]


def _clear_rationals(rows: list[list[int]], dens: list[int], top: int, col: int) -> None:
    """Put row ``top`` over its pivot in lowest terms, so the pivot b equals
    the denominator, then turn each other row with factor f in column ``col``
    into b*row - f*pivot_row over den*b, in lowest terms."""
    pivot_row, b = rows[top], dens[top] = _lowest_terms(rows[top], rows[top][col])
    for r, row in enumerate(rows):
        f = row[col]
        if f and r != top:
            rows[r], dens[r] = _lowest_terms([b * x - f * y for x, y in zip(row, pivot_row)], dens[r] * b)


def zero_diagonal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(B, B^-1, B^-1 m B) for an invertible B that conjugates ``m`` to zero
    diagonal; m must be square, traceless, and zero or non-scalar.

    The classical recursion (Fillmore 1969) as a loop of similarity steps on
    the three matrices' rows, each integers over its own denominator as in
    ``row_reduce``.  Step j works on the trailing block T = R[j:, j:] of the
    reduced matrix R.  It picks v with T v outside span(v): e_a for the first
    column a with an off-diagonal nonzero, else e_j + e_b for the first b with
    T_bb != T_jj.  It conjugates by t = [v, T v, the other unit vectors in
    order], leaving out e_a and e_s, s the last index other than a at which
    T v is nonzero (else e_j and e_b): t is the greedy extension of [v, T v]
    to a basis, and makes R[j, j] zero.  t multiplies columns j.. of R and B;
    t^-1, a 2x2 solve on the two left-out rows and a rank-two update of the
    others, multiplies rows j.. of R and B^-1.  When the next trailing block
    is a nonzero scalar (possible only in positive characteristic), adding v
    to t's third column, two elementary steps, makes it non-scalar.
    """
    field, n = m.field, m.rows
    if not m.is_square:
        raise ValueError("square matrix required")
    if not field.is_zero(m.trace()):
        raise ValueError("nonzero trace")
    p = field.size if field.finite else 0
    reduced, r_dens = [list(r) for r in m._row_tuples()], [m._den] * n
    basis, b_dens = [[int(i == k) for k in range(n)] for i in range(n)], [1] * n
    basis_inv, i_dens = [list(r) for r in basis], [1] * n
    for j in range(n - 1):
        choice = _noncentral(reduced, r_dens, j)
        if choice is None and reduced[j][j]:
            if j == 0:
                raise ValueError("nonzero scalar matrices have no zero-diagonal form")
            # the tweak of step j - 1: column j + 1 += column j - 1, row j - 1 -= row j + 1
            for rows, dens in ((reduced, r_dens), (basis, b_dens)):
                for i, row in enumerate(rows):
                    row[j + 1] += row[j - 1]
                    if p:
                        row[j + 1] %= p
                    else:
                        rows[i], dens[i] = _lowest_terms(row, dens[i])
            for rows, dens in ((reduced, r_dens), (basis_inv, i_dens)):
                first, third = (rows[j - 1], dens[j - 1]), (rows[j + 1], dens[j + 1])
                rows[j - 1], dens[j - 1] = _combination(1, first, -1, third, 1, p)
            choice = _noncentral(reduced, r_dens, j)
            if choice is None:
                raise AssertionError("trailing block still scalar after basis tweak")
        if choice is None:
            break
        support, left_out = choice
        # w = T v as numerators over one denominator
        raw = [sum(reduced[i][l] for l in support) for i in range(j, n)]
        if p:
            wd, wn = 1, [x % p for x in raw]
        else:
            wd = lcm(*(d for x, d in zip(raw, r_dens[j:]) if x))
            wn = [x * (wd // d) for x, d in zip(raw, r_dens[j:])]
        rest = [c for c in range(j, n) if c not in left_out]
        for rows, dens in ((reduced, r_dens), (basis, b_dens)):
            _multiply_columns(rows, dens, j, support, wn, wd, rest, p)
        for rows, dens in ((reduced, r_dens), (basis_inv, i_dens)):
            _divide_rows(rows, dens, j, support, left_out, wn, wd, rest, p)
    return _packed(field, basis, b_dens, n), _packed(field, basis_inv, i_dens, n), _packed(field, reduced, r_dens, n)


def _noncentral(rows: list[list[int]], dens: list[int], j: int) -> tuple[tuple[int, ...], tuple[int, int]] | None:
    """For the trailing block from (j, j): the support of v and the two unit
    vectors t leaves out, or None when the block is scalar."""
    n = len(rows)
    for a in range(j, n):
        off = [i for i in range(j, n) if i != a and rows[i][a]]
        if off:
            return (a,), (a, off[-1])
    for b in range(j + 1, n):
        # the block is diagonal, so the first unequal pair starts at j
        if rows[b][b] * dens[j] != rows[j][j] * dens[b]:
            return (j, b), (j, b)
    return None


def _multiply_columns(
    rows: list[list[int]],
    dens: list[int],
    j: int,
    support: tuple[int, ...],
    wn: list[int],
    wd: int,
    rest: list[int],
    p: int,
) -> None:
    """Columns j.. of every row times t = [v, w, e_c for c in rest], where
    v has ones on ``support`` and w = wn / wd."""
    for i, row in enumerate(rows):
        head = row[support[0]] + row[support[1]] if len(support) == 2 else row[support[0]]
        tail = sum(map(mul, row[j:], wn))
        if p:
            rows[i] = row[:j] + [head % p, tail % p] + [row[c] for c in rest]
        else:
            scaled = [x * wd for x in row[:j]] + [head * wd, tail] + [row[c] * wd for c in rest]
            rows[i], dens[i] = _lowest_terms(scaled, dens[i] * wd)


def _divide_rows(
    rows: list[list[int]],
    dens: list[int],
    j: int,
    support: tuple[int, ...],
    left_out: tuple[int, int],
    wn: list[int],
    wd: int,
    rest: list[int],
    p: int,
) -> None:
    """Rows j.. times t^-1.  With x, y the left-out rows, the coordinates
    (alpha, beta) of a vector on v and w solve the 2x2 system of rows x and
    y, whose matrix [[1, w_x], [v_y, w_y]] has determinant
    dn / wd = (wn_y - v_y wn_x) / wd; every other coordinate c is
    Y_c - w_c beta, since v_c = 0."""
    x, y = left_out
    v_y = int(y in support)
    w_x, w_y = wn[x - j], wn[y - j]
    dn = w_y - v_y * w_x
    row_x, row_y = (rows[x], dens[x]), (rows[y], dens[y])
    beta = _combination(wd, row_y, -v_y * wd, row_x, dn, p)
    updated = [_combination(w_y, row_x, -w_x, row_y, dn, p), beta]
    for c in rest:
        w_c = wn[c - j]
        updated.append(_combination(wd, (rows[c], dens[c]), -w_c, beta, wd, p) if w_c else (rows[c], dens[c]))
    rows[j:] = [row for row, _ in updated]
    dens[j:] = [d for _, d in updated]


def _combination(
    a: int, x: tuple[list[int], int], b: int, y: tuple[list[int], int], divisor: int, p: int
) -> tuple[list[int], int]:
    """(a x + b y) / divisor for rows x and y, each integers over a
    denominator, as a row and its denominator: residues over F_p (p > 0),
    lowest terms over Q."""
    (xs, dx), (ys, dy) = x, y
    if p:
        if divisor != 1:
            inverse = pow(divisor, -1, p)
            a, b = a * inverse, b * inverse
        return [(a * u + b * v) % p for u, v in zip(xs, ys)], 1
    den = lcm(dx, dy)
    a, b = a * (den // dx), b * (den // dy)
    return _lowest_terms([a * u + b * v for u, v in zip(xs, ys)], den * divisor)


def index_quotients(m: Matrix) -> Matrix:
    """The square matrix with entry (j, k) equal to m[j, k] / (j - k) off the
    diagonal and zero on it: for m of zero diagonal, the solution q of
    D q - q D = m with D = diag(0, 1, ..., n-1).  Over F_p each entry is
    multiplied by one of the n - 1 inverses of 1..n-1, so p must be at least
    n; over Q the entries are put over den * lcm(1..n-1) and brought to
    lowest terms once."""
    n = m.rows
    if not m.is_square:
        raise ValueError("square matrix required")
    p = m.field.size if m.field.finite else 0
    if p and p < n:
        raise ValueError(f"index differences up to {n - 1} are not invertible mod {p}")
    scale = 1 if p else lcm(*range(1, n))
    units = [pow(d, -1, p) for d in range(1, n)] if p else [scale // d for d in range(1, n)]
    # weights[j - k] is 1 / (j - k) times scale; a negative index counts from the end
    weights = [0, *units, *(-u for u in reversed(units))]
    factors = [weights[j - k] for j in range(n) for k in range(n)]
    return _reduced(m.field, n, n, map(mul, m._ints, factors), m._den * scale)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; dimensions multiply, empty factors give empty results."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    b_rows = b._row_tuples()
    return _reduced(
        a.field,
        a.rows * b.rows,
        a.cols * b.cols,
        (x * y for ra in a._row_tuples() for rb in b_rows for x in ra for y in rb),
        a._den * b._den,
    )


def hstack(mats: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices with equal row counts side by side."""
    if not mats:
        raise ValueError("hstack of nothing")
    rows, field = mats[0].rows, mats[0].field
    if any(m.rows != rows or m.field != field for m in mats):
        raise ValueError("row count or field mismatch in hstack")
    return block_matrix(field, [rows], [m.cols for m in mats], {(0, c): m for c, m in enumerate(mats)})


def vstack(mats: Sequence[Matrix]) -> Matrix:
    """Stack matrices with equal column counts one above the other."""
    if not mats:
        raise ValueError("vstack of nothing")
    cols, field = mats[0].cols, mats[0].field
    if any(m.cols != cols or m.field != field for m in mats):
        raise ValueError("column count or field mismatch in vstack")
    return block_matrix(field, [m.rows for m in mats], [cols], {(r, 0): m for r, m in enumerate(mats)})


# a sparse block grid: (block row, block column) -> block
Grid = Mapping[tuple[int, int], Matrix]


def check_blocks(field: Field, row_sizes: Sequence[int], col_sizes: Sequence[int], blocks: Grid) -> None:
    """Raise ValueError unless every block sits inside the grid, has the
    shape its row and column sizes give and lies over ``field``."""
    if min((*row_sizes, *col_sizes), default=0) < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    for (r, c), blk in blocks.items():
        if not (0 <= r < len(row_sizes) and 0 <= c < len(col_sizes)):
            raise ValueError(f"block position {(r, c)} out of range")
        if blk.shape != (row_sizes[r], col_sizes[c]):
            raise ValueError(f"block {(r, c)} has shape {blk.shape}, expected {(row_sizes[r], col_sizes[c])}")
        if blk.field != field:
            raise ValueError("field mismatch in block")


def block_matrix(field: Field, row_sizes: Sequence[int], col_sizes: Sequence[int], blocks: Grid) -> Matrix:
    """Assemble a matrix from blocks; missing positions are zero blocks.
    Each output row is written once, over the lcm of the blocks'
    denominators, which needs no reduction (as in ``_over``)."""
    check_blocks(field, row_sizes, col_sizes, blocks)
    den = lcm(*[m._den for m in blocks.values()])
    data: list[int] = []
    for r, height in enumerate(row_sizes):
        # per block column (integers, stride, width): a missing block is one zero row read with stride 0
        strips = []
        for c, width in enumerate(col_sizes):
            blk = blocks.get((r, c))
            strips.append((_rescaled(blk, den), width, width) if blk is not None else ((0,) * width, 0, width))
        for i in range(height):
            for ints, stride, width in strips:
                data.extend(ints[i * stride : i * stride + width])
    return _wrap(field, sum(row_sizes), sum(col_sizes), tuple(data), den)


def split_blocks(m: Matrix, row_sizes: Sequence[int], col_sizes: Sequence[int]) -> dict[tuple[int, int], Matrix]:
    """Cut a matrix into the block grid given by the size partitions."""
    if sum(row_sizes) != m.rows or sum(col_sizes) != m.cols:
        raise ValueError("block sizes do not partition the matrix")
    row_offsets = list(accumulate(row_sizes, initial=0))
    col_offsets = list(accumulate(col_sizes, initial=0))
    return {
        (r, c): m.submatrix(row_offsets[r], row_offsets[r + 1], col_offsets[c], col_offsets[c + 1])
        for r in range(len(row_sizes))
        for c in range(len(col_sizes))
    }


def enumerate_matrices(field: Field, rows: int, cols: int) -> Iterator[Matrix]:
    """All rows x cols matrices over a finite field, lexicographic by row-major entries."""
    if not field.finite:
        raise TypeError("cannot enumerate matrices over an infinite field")
    for entries in product(tuple(field.elements()), repeat=rows * cols):
        yield Matrix(field, rows, cols, entries)
