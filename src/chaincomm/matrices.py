"""Immutable exact dense matrices.

A matrix stores one row-major tuple of integers and one positive
denominator.  Over F_p the integers are residues in ``range(p)`` and the
denominator is 1.  Over Q they are the numerators over d, the least common
multiple of the entries' denominators, so gcd(d, every numerator) == 1; an
all-zero matrix has d == 1.  The form is canonical, so equality is structural
and matrices are hashable (they appear in sets during exhaustive finite-field
searches).  Zero-row and zero-column matrices are first-class: they occur at
the ends of every bounded complex, and the 0x0 matrix counts as invertible.

Products, sums, differences, negation, scaling, slicing, stacking and
Kronecker products run on the integers alone, one kernel for both fields;
the fields differ only in the final reduction, ``% p`` over F_p and division
by one content gcd over Q.  ``entry``, ``entries``, ``row`` and ``to_rows``
build field scalars on demand: ``int`` over F_p, ``Fraction`` over Q.

The public constructor normalises and validates every entry;
``Matrix.from_canonical`` and ``Matrix.from_ratios`` take entries that are
already canonical and check nothing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, product
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
        _store(self, field, rows, cols, *_integers(field, data))

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
    def from_canonical(cls, field: Field, rows: int, cols: int, entries: Iterable[Scalar]) -> "Matrix":
        """A matrix from ``rows * cols`` entries already in the field's
        canonical form (residues in ``range(p)``, or ``Fraction``s); unlike
        ``Matrix(...)`` it neither normalises nor checks them."""
        return _wrap(field, rows, cols, *_integers(field, tuple(entries)))

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
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return _lowest(self.field, self.rows, 1, self._ints[j :: self.cols], self._den)

    def take_columns(self, indices: Sequence[int]) -> "Matrix":
        c, e = self.cols, self._ints
        for j in indices:
            if not 0 <= j < c:
                raise IndexError(j)
        return _lowest(
            self.field, self.rows, len(indices), tuple(e[i * c + j] for i in range(self.rows) for j in indices), self._den
        )

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
        dots = _integer_dots(self._row_tuples(), other._column_tuples())
        return _reduced(self.field, self.rows, other.cols, chain.from_iterable(dots), self._den * other._den)

    def scale(self, scalar: Scalar) -> "Matrix":
        c = self.field.normalize(scalar)
        num, den = (c, 1) if self.field.finite else c.as_integer_ratio()
        return _reduced(self.field, self.rows, self.cols, (num * x for x in self._ints), den * self._den)

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


def _integers(field: Field, scalars: tuple[Scalar, ...]) -> tuple[tuple[int, ...], int]:
    """The stored form of canonical field scalars."""
    if field.finite:
        return scalars, 1
    ratios = [x.as_integer_ratio() for x in scalars]
    den = lcm(*(q for _, q in ratios))
    return _over(ratios, den), den


def _lowest(field: Field, rows: int, cols: int, ints: tuple[int, ...], den: int) -> Matrix:
    """ints / den in the stored form, from canonical residues over F_p (where
    den is 1) or any integers over Q: both divided by their gcd."""
    if den != 1:
        g = gcd(den, *ints)
        if g != 1:
            ints = tuple(x // g for x in ints)
            den //= g
    return _wrap(field, rows, cols, ints, den)


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


def _integer_dots(left_rows: Sequence[Sequence[int]], right_cols: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """For each left row, its integer dot products with every right column,
    summed over the row's nonzero positions only."""
    for row in left_rows:
        values = [x for x in row if x]
        yield [sum(map(mul, values, compress(col, row))) for col in right_cols]


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
    rows = mats[0].rows
    field = mats[0].field
    if any(m.rows != rows or m.field != field for m in mats):
        raise ValueError("row count or field mismatch in hstack")
    # over the lcm of the denominators, as in _over, no reduction is needed
    den = lcm(*[m._den for m in mats])
    pieces = [(_rescaled(m, den), m.cols) for m in mats]
    data = tuple(chain.from_iterable(ints[i * c : (i + 1) * c] for i in range(rows) for ints, c in pieces))
    return _wrap(field, rows, sum(m.cols for m in mats), data, den)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    field = mats[0].field
    if any(m.cols != cols or m.field != field for m in mats):
        raise ValueError("column count or field mismatch in vstack")
    den = lcm(*[m._den for m in mats])
    data = tuple(chain.from_iterable(_rescaled(m, den) for m in mats))
    return _wrap(field, sum(m.rows for m in mats), cols, data, den)


def block_matrix(
    field: Field,
    row_sizes: Sequence[int],
    col_sizes: Sequence[int],
    blocks: Mapping[tuple[int, int], Matrix],
) -> Matrix:
    """Assemble a matrix from blocks; missing positions are zero blocks."""
    for (r, c), blk in blocks.items():
        if not (0 <= r < len(row_sizes) and 0 <= c < len(col_sizes)):
            raise ValueError(f"block position {(r, c)} out of range")
        if blk.shape != (row_sizes[r], col_sizes[c]):
            raise ValueError(f"block {(r, c)} has shape {blk.shape}, expected {(row_sizes[r], col_sizes[c])}")
        if blk.field != field:
            raise ValueError("field mismatch in block")
    grid = [
        [blocks.get((r, c), Matrix.zeros(field, row_sizes[r], col_sizes[c])) for c in range(len(col_sizes))]
        for r in range(len(row_sizes))
    ]
    return vstack([hstack(row) for row in grid]) if row_sizes and col_sizes else Matrix.zeros(
        field, sum(row_sizes), sum(col_sizes)
    )


def split_blocks(m: Matrix, row_sizes: Sequence[int], col_sizes: Sequence[int]) -> dict[tuple[int, int], Matrix]:
    """Cut a matrix into the block grid given by the size partitions."""
    if sum(row_sizes) != m.rows or sum(col_sizes) != m.cols:
        raise ValueError("block sizes do not partition the matrix")
    row_offsets = [0]
    for s in row_sizes:
        row_offsets.append(row_offsets[-1] + s)
    col_offsets = [0]
    for s in col_sizes:
        col_offsets.append(col_offsets[-1] + s)
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
