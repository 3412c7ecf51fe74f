"""Immutable exact dense matrices.

Entries live in a :class:`~chaincomm.fields.Field` and are kept in canonical
form, so equality is structural and matrices are hashable (they appear in
sets during exhaustive finite-field searches).  Zero-row and zero-column
matrices are first-class: they occur at the ends of every bounded complex,
and the 0x0 matrix counts as invertible.

The public constructor normalises and validates every entry.  Results of
matrix operations are computed canonical (F_p: ``int`` in ``range(p)``; Q:
``Fraction``) and wrapped by :func:`_canonical` without a second pass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, product
from math import lcm
from operator import add, mul, neg, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .fields import Field, Scalar


class Matrix:
    """A rows x cols matrix with exact entries, stored row-major."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries: Iterable[Scalar]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(field.normalize(e) for e in entries)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", data)

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
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return _canonical(field, rows, cols, (field.zero,) * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        zero, one = field.zero, field.one
        return _canonical(field, n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @classmethod
    def column(cls, field: Field, values: Sequence[Scalar]) -> "Matrix":
        return cls(field, len(values), 1, values)

    @classmethod
    def diagonal(cls, field: Field, values: Sequence[Scalar]) -> "Matrix":
        n = len(values)
        return cls(field, n, n, (values[i] if i == j else 0 for i in range(n) for j in range(n)))

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Scalar]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def _row_tuples(self) -> list[tuple[Scalar, ...]]:
        c, e = self.cols, self.entries
        return [e[i * c : (i + 1) * c] for i in range(self.rows)]

    def _column_tuples(self) -> list[tuple[Scalar, ...]]:
        if self.rows == 0:
            return [()] * self.cols
        return list(zip(*self._row_tuples()))

    def column_at(self, j: int) -> "Matrix":
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return _canonical(self.field, self.rows, 1, self.entries[j :: self.cols])

    def take_columns(self, indices: Sequence[int]) -> "Matrix":
        c, e = self.cols, self.entries
        for j in indices:
            if not 0 <= j < c:
                raise IndexError(j)
        return _canonical(
            self.field, self.rows, len(indices), tuple(e[i * c + j] for i in range(self.rows) for j in indices)
        )

    def submatrix(self, row0: int, row1: int, col0: int, col1: int) -> "Matrix":
        if not (0 <= row0 <= row1 <= self.rows and 0 <= col0 <= col1 <= self.cols):
            raise IndexError((row0, row1, col0, col1))
        c, e = self.cols, self.entries
        return _canonical(
            self.field,
            row1 - row0,
            col1 - col0,
            tuple(chain.from_iterable(e[i * c + col0 : i * c + col1] for i in range(row0, row1))),
        )

    # -- algebra -----------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def is_scalar(self) -> bool:
        """True when the matrix is c * identity (vacuously for 0x0)."""
        if not self.is_square:
            return False
        n = self.rows
        if n == 0:
            return True
        c = self.entry(0, 0)
        return all(self.entry(i, j) == (c if i == j else self.field.zero) for i in range(n) for j in range(n))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return _reduced(self.field, self.rows, self.cols, map(add, self.entries, other.entries))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return _reduced(self.field, self.rows, self.cols, map(sub, self.entries, other.entries))

    def __neg__(self) -> "Matrix":
        return _reduced(self.field, self.rows, self.cols, map(neg, self.entries))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        return _product(self, other)

    def scale(self, scalar: Scalar) -> "Matrix":
        c = self.field.normalize(scalar)
        return _reduced(self.field, self.rows, self.cols, (c * a for a in self.entries))

    def transpose(self) -> "Matrix":
        return _canonical(self.field, self.cols, self.rows, tuple(chain.from_iterable(self._column_tuples())))

    def trace(self) -> Scalar:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return self.field.normalize(sum((self.entry(i, i) for i in range(self.rows)), start=0))

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
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows, self.cols, self.entries))

    def sort_key(self) -> tuple:
        """Total order on same-field matrices, for deterministic output."""
        return (self.rows, self.cols, self.entries)

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.field.kind} {self.rows}x{self.cols} [{body}])"


def _canonical(field: Field, rows: int, cols: int, entries: tuple) -> Matrix:
    """A matrix over ``field`` from a tuple of ``rows * cols`` entries that are
    already canonical; unlike ``Matrix(...)`` it neither normalises nor checks."""
    m = object.__new__(Matrix)
    object.__setattr__(m, "field", field)
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "entries", entries)
    return m


def _reduced(field: Field, rows: int, cols: int, raw: Iterable[Scalar]) -> Matrix:
    """A matrix over ``field`` from the raw results of ring operations on
    canonical entries: reduced ``% p`` over F_p; over Q sums, differences and
    products of ``Fraction``s are already canonical."""
    if field.finite:
        p = field.size
        return _canonical(field, rows, cols, tuple(x % p for x in raw))
    return _canonical(field, rows, cols, tuple(raw))


def _integer_dots(left_rows: Sequence[Sequence[int]], right_cols: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """For each left row, its integer dot products with every right column,
    summed over the row's nonzero positions only."""
    for row in left_rows:
        values = [x for x in row if x]
        yield [sum(map(mul, values, compress(col, row))) for col in right_cols]


def _scaled_to_integers(vectors: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Each rational vector v as integers w and a denominator d, v == w / d,
    with d the least common multiple of the denominators of v."""
    integer_vectors, denominators = [], []
    for v in vectors:
        ratios = [x.as_integer_ratio() for x in v]
        d = lcm(*(q for _, q in ratios))
        integer_vectors.append([n * (d // q) for n, q in ratios])
        denominators.append(d)
    return integer_vectors, denominators


def _product(a: Matrix, b: Matrix) -> Matrix:
    """a * b for matrices of one field with matching inner dimension."""
    field = a.field
    if field.finite:
        dots = _integer_dots(a._row_tuples(), b._column_tuples())
        return _reduced(field, a.rows, b.cols, chain.from_iterable(dots))
    left, left_dens = _scaled_to_integers(a._row_tuples())
    right, right_dens = _scaled_to_integers(b._column_tuples())
    zero = Fraction(0)
    data = tuple(
        Fraction(acc, dl * dr) if acc else zero
        for accs, dl in zip(_integer_dots(left, right), left_dens)
        for acc, dr in zip(accs, right_dens)
    )
    return _canonical(field, a.rows, b.cols, data)


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
    )


def hstack(mats: Sequence[Matrix]) -> Matrix:
    """Concatenate matrices with equal row counts side by side."""
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    field = mats[0].field
    if any(m.rows != rows or m.field != field for m in mats):
        raise ValueError("row count or field mismatch in hstack")
    pieces = [m._row_tuples() for m in mats]
    data = tuple(chain.from_iterable(piece[i] for i in range(rows) for piece in pieces))
    return _canonical(field, rows, sum(m.cols for m in mats), data)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    field = mats[0].field
    if any(m.cols != cols or m.field != field for m in mats):
        raise ValueError("column count or field mismatch in vstack")
    return _canonical(field, sum(m.rows for m in mats), cols, tuple(chain.from_iterable(m.entries for m in mats)))


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
