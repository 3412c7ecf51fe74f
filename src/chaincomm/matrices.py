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
elimination, and ``pivot_columns``, its pivots alone), the diagonal
Sylvester solve that solves any equation between two diagonalised factors
(``index_quotients``) and the characteristic polynomial
(``characteristic_polynomial``, Berkowitz's division-free algorithm) run on
the integers alone, one kernel for both fields; the fields differ only in
reducing ``% p`` or by gcds over Q.  Sums of products are evaluated here
alone, by three loops.  Packed rows (Kronecker substitution,
``_packed_rows``) pack each row of a right-hand factor into one integer,
sum_j y_kj 2^(w j), and make one big-integer multiply-add per left entry, so
slot j of a packed row of the result holds its entry j; each field has one
rule for w, stated in ``first_nonzero_entry``, that keeps every slot from
carrying into or cancelling the next.  F_p products and every identity check
(``first_nonzero_entry``, which forms no product) take packed rows: a
residue below 2^31 takes two 30-bit CPython digits, so a dense kernel's
multiplies are multi-digit ones, and a 10x10 product over F_(2^31-1) takes
about 50 us against 110 us.  The dense Q product takes one integer dot
product per entry: at the library's sizes skipping zero entries costs more
than it saves, and packed signed products, whose slots must be read back,
ran at 0.4-1.2 times its speed.  Dot rows (``_dot_rows``) give entries of
the integer sum as dot products: ``sum_entry`` reads one entry of a sum (a
failing identity's two values), and over Q, once the stored integers pass
about 400 bits, the identity check takes them instead of packed rows.  The
verifier, the complex and chain-map validators and the splitting's
standard-form check all compare through ``first_nonzero_entry``, so parsing
and verifying a valid certificate form no product.
``Matrix.__mul__`` decides trivial products before either kernel, so
callers need no guards: a zero operand (every empty shape is one) gives
zero, an identity the other operand.  Stacking is one kernel,
``block_matrix``, of which ``hstack`` and ``vstack`` are the one-row and
one-column cases; with one block column it concatenates whole blocks.
``entry``, ``entries``, ``row`` and ``to_rows`` build field scalars on
demand: ``int`` over F_p, ``Fraction`` over Q.

The zero-diagonal similarity behind commutator factorization
(``zero_diagonal_form``, which gives the basis, its inverse and the reduced
matrix from one loop of transvections) works on those field scalars
instead, a numerator and denominator per entry over Q: each step changes
O(n) entries, which per-row or common denominators would turn into
rescaling whole rows.

The public constructor normalises and validates every entry;
``Matrix.from_canonical`` (F_p residues) and ``Matrix.from_ratios`` (Q
numerators and denominators) take entries that are already canonical and
check nothing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, product
from math import gcd, lcm
from operator import add, lshift, mul, neg, sub
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
            dens = [x.denominator for x in data]
            den = lcm(*dens)
            _store(self, field, rows, cols, _over([x.numerator for x in data], dens, den), den)

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
        if cols is not None and cols != ncols:
            raise ValueError(f"rows have {ncols} entries, not the {cols} columns asked for")
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
    def from_ratios(
        cls, field: Field, rows: int, cols: int, nums: Sequence[int], dens: Sequence[int], den: int
    ) -> "Matrix":
        """A matrix over Q from the ``rows * cols`` numerators and positive
        denominators of entries in lowest terms and ``den``, the lcm of those
        denominators, building no ``Fraction``; nothing is checked."""
        return _wrap(field, rows, cols, _over(nums, dens, den), den)

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

    @property
    def numerators(self) -> tuple[int, ...]:
        """The stored integers, row-major: every entry times ``denominator``
        (the residues themselves over F_p)."""
        return self._ints

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

    def region_is_zero(self, row0: int, row1: int, col0: int, col1: int) -> bool:
        """Whether rows row0..row1-1 vanish in columns col0..col1-1, read in
        place: the submatrix is never built."""
        if not (0 <= row0 <= row1 <= self.rows and 0 <= col0 <= col1 <= self.cols):
            raise IndexError((row0, row1, col0, col1))
        c, e = self.cols, self._ints
        return not any(any(e[i * c + col0 : i * c + col1]) for i in range(row0, row1))

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
        if self.is_zero() or other.is_zero():  # every empty shape is zero
            return Matrix.zeros(self.field, self.rows, other.cols)
        for m, rest in ((self, other), (other, self)):
            if m._den == 1 and m._ints[0] == 1 and m.is_scalar():  # m is the identity
                return rest
        if self.field.finite:
            p = self.field.size
            w = (self.cols * (p - 1) ** 2).bit_length()  # first_nonzero_entry's rule for one product
            shifts, mask = range(0, w * other.cols, w), (1 << w) - 1
            residues = [(row >> s & mask) % p for row in _packed_rows(self, other, shifts) for s in shifts]
            return _wrap(self.field, self.rows, other.cols, tuple(residues), 1)
        cols = other._column_tuples()
        dots = [sum(map(mul, row, col)) for row in self._row_tuples() for col in cols]
        return _lowest(self.field, self.rows, other.cols, tuple(dots), self._den * other._den)

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


def _over(nums: Sequence[int], dens: Sequence[int], den: int) -> tuple[int, ...]:
    """Entries in lowest terms, given by their numerators and denominators,
    as numerators over den, the lcm of the denominators, in one ``map``.
    Already in lowest terms: for each prime q of den, the entry whose
    denominator carries q's full power in den has a numerator prime to q and
    a factor den // denominator prime to q."""
    if den == 1:
        return tuple(nums)
    return tuple(map(mul, nums, map(den.__floordiv__, dens)))


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
        return _wrap(field, rows, cols, tuple([x % p for x in raw]), 1)
    return _lowest(field, rows, cols, tuple(raw), den)


Term = tuple[int, Matrix, "Matrix | None"]
"""One term of a signed sum of products: (sign, x, y), sign 1 or -1, stands
for sign * x * y, or for sign * x when y is None."""


def _scaled_terms(terms: Iterable[Term]) -> tuple[Field | None, tuple[int, int], int, list[Term]]:
    """The field, shape and common denominator D of a signed sum of
    products, and its terms without a zero operand (every empty shape is
    one) as (scale, x, y): the sum is sum_t scale_t x_t y_t / D over the
    stored integers, where D is the lcm over those terms of d_x d_y and
    scale = sign * D / (d_x d_y), so over F_p D is 1 and scale the sign.
    Fields and shapes are checked as ``Matrix.__mul__`` and ``+`` check
    them; no terms give field None and shape (0, 0)."""
    live, shape, field = [], (0, 0), None
    for sign, x, y in terms:
        if sign != 1 and sign != -1:
            raise ValueError(f"sign must be 1 or -1, got {sign!r}")
        if y is not None:
            if y.field is not x.field and y.field != x.field:
                raise ValueError("field mismatch")
            if x.cols != y.rows:
                raise ValueError(f"cannot multiply {x.shape} by {y.shape}")
        term_shape = (x.rows, x.cols if y is None else y.cols)
        if field is None:
            shape, field = term_shape, x.field
        elif x.field is not field and x.field != field:
            raise ValueError("field mismatch")
        elif term_shape != shape:
            raise ValueError(f"shape mismatch: {shape} vs {term_shape}")
        if any(x._ints) and (y is None or any(y._ints)):
            live.append((sign, x, y))
    if not live or field.finite:
        return field, shape, 1, live
    dens = [x._den if y is None else x._den * y._den for _, x, y in live]
    den = lcm(*dens)
    return field, shape, den, [(sign * (den // d), x, y) for (sign, x, y), d in zip(live, dens)]


def _packed_rows(x: Matrix, y: Matrix | None, shifts: range, scale: int = 1) -> list[int]:
    """Each row of scale * x * y (of scale * x when y is None) packed into one
    integer, sum_j v_ij 2^(shifts[j]), by Kronecker substitution: each row of
    y is packed, and row i of the product is sum_k x_ik packed_k, one
    big-integer multiply-add per entry of x.  Exact when every slot of the
    result is narrower than the step of ``shifts``."""
    m = x if y is None else y
    c, e = m.cols, m._ints
    packed = [sum(map(lshift, e[k : k + c], shifts)) for k in range(0, len(e), c)]
    if scale != 1:
        packed = [scale * v for v in packed]
    if y is None:
        return packed
    c, e = x.cols, x._ints
    return [sum(map(mul, e[k : k + c], packed)) for k in range(0, len(e), c)]


def _dot_rows(live: list[Term], rows: Iterable[int], cols: Sequence[int]) -> Iterator[list[int]]:
    """The rows ``rows`` of the integer sum of scaled terms, in the columns
    ``cols``, each entry a dot product of the stored integers; y's columns
    are taken once."""
    parts = [(scale, x, None if y is None else [y._ints[j :: y.cols] for j in cols]) for scale, x, y in live]
    for i in rows:
        row = [0] * len(cols)
        for scale, x, y_columns in parts:
            x_row = x._ints[i * x.cols : (i + 1) * x.cols]
            values = [x_row[j] for j in cols] if y_columns is None else [sum(map(mul, x_row, c)) for c in y_columns]
            row = [r + scale * v for r, v in zip(row, values)]
        yield row


def first_nonzero_entry(terms: Iterable[Term]) -> tuple[int, int] | None:
    """The first entry, in row-major order, at which the sum of ``terms``
    is nonzero, or None when the sum vanishes; no product is formed.

    Terms are checked and put over one denominator by ``_scaled_terms``,
    and each row of the integer sum is packed into one integer by
    ``_packed_rows``, whose slot j holds the entry (i, j).  Each entry is at
    most M in absolute value, the sum over the terms of |scale| * max|x|,
    times k * max|y| for a product of inner dimension k; over F_p, with
    entries in range(p), a term adds (p - 1) or k (p - 1)^2.  Over F_p, when
    a term is negative, each slot is offset by the least multiple of p at
    least M, which keeps it nonnegative and keeps its residue, and
    w = bitlen(offset + M), so no slot carries into the next and a mask and
    ``% p`` read each one back; a lone positive product has no offset and
    w = bitlen(k (p - 1)^2), as in ``Matrix.__mul__``.  Over Q, w =
    bitlen(M), so no slot can be cancelled by the slots below it (their
    total stays under one unit of its place value): the row is zero exactly
    when all its entries are, and the lowest set bit of a nonzero row lies
    in its first nonzero slot.  With slots wider than ``_PACKED_SLOT_BITS``
    the entries are dot products (``_dot_rows``) instead, which then cost
    less."""
    field, (rows, cols), _, live = _scaled_terms(terms)
    if not live:
        return None
    if field.finite:
        p = field.size
        bound = sum((p - 1) * (1 if y is None else x.cols * (p - 1)) for _, x, y in live)
        offset = -(-bound // p) * p if any(scale < 0 for scale, _, _ in live) else 0
        w = (offset + bound).bit_length()
    else:
        bound = 0
        for scale, x, y in live:
            term_bound = abs(scale) * max(max(x._ints), -min(x._ints))
            if y is not None:
                term_bound *= x.cols * max(max(y._ints), -min(y._ints))
            bound += term_bound
        w = bound.bit_length()
        if w > _PACKED_SLOT_BITS:
            dot_rows = enumerate(_dot_rows(live, range(rows), range(cols)))
            return next(((i, j) for i, row in dot_rows for j, v in enumerate(row) if v), None)
    shifts = range(0, w * cols, w)
    totals = None
    for scale, x, y in live:
        packed = _packed_rows(x, y, shifts, scale)
        totals = packed if totals is None else list(map(add, totals, packed))
    if not field.finite:
        for i, total in enumerate(totals):
            if total:
                return i, ((total & -total).bit_length() - 1) // w
        return None
    base, mask = sum(offset << s for s in shifts), (1 << w) - 1
    for i, total in enumerate(totals):
        total += base
        for j in range(cols):
            if (total & mask) % p:
                return i, j
            total >>= w
    return None


def sum_entry(terms: Iterable[Term], i: int, j: int) -> Scalar:
    """Entry (i, j) of the sum of ``terms`` as a field scalar, the terms
    checked and scaled as in ``first_nonzero_entry``; each term's entry is
    one dot product of the stored integers (``_dot_rows``), so no product is
    formed, and terms with a zero operand add nothing."""
    field, (rows, cols), den, live = _scaled_terms(terms)
    if not (0 <= i < rows and 0 <= j < cols):  # no terms have shape (0, 0)
        raise IndexError((i, j))
    (value,) = next(_dot_rows(live, [i], [j]))
    return value % field.size if field.finite else Fraction(value, den)


# Above this slot width a packed multiply-add costs more than the dot products
# it replaces: the slot holds an entry of x and one of y side by side, so each
# multiply is about twice as long as a dot product's (measured crossover:
# stored integers of about 400 bits, at sizes 4 to 20).
_PACKED_SLOT_BITS = 800


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
    """The pivot columns of ``m``'s reduced row echelon form, read off a
    forward elimination that clears only the rows below each pivot: an echelon
    form has the same pivots, and nothing is packed into a matrix."""
    return _eliminate(m, m.cols, forward=True)[2]


def _eliminate(m: Matrix, width: int, forward: bool = False) -> tuple[list[list[int]], list[int], tuple[int, ...]]:
    """The elimination behind ``row_reduce`` and ``pivot_columns``: the rows,
    each integers over its own denominator, so every row stays exact, those
    below the rank included; and the pivot columns, sought among the first
    ``width``.  Each pivot clears its column from every other row (reduced
    form) or, when ``forward``, from the rows below it only (echelon form).
    The rows below the pivots see the same operations either way, so the
    pivots agree."""
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
        first = top + 1 if forward else 0
        if m.field.finite:
            _clear_residues(rows, top, col, m.field.size, first)
        else:
            _clear_rationals(rows, dens, top, col, first)
        pivots.append(col)
    return rows, dens, tuple(pivots)


def _packed(field: Field, rows: list[list[int]], dens: list[int], cols: int) -> Matrix:
    """The matrix whose row i is ``rows[i]`` over ``dens[i]``: every row over
    the lcm of the denominators, then lowest terms."""
    den = lcm(*dens)
    ints = chain.from_iterable(row if d == den else [x * (den // d) for x in row] for row, d in zip(rows, dens))
    return _lowest(field, len(rows), cols, tuple(ints), den)


def _clear_residues(rows: list[list[int]], top: int, col: int, p: int, first: int) -> None:
    """Scale row ``top`` to pivot 1, then clear column ``col`` from the other
    rows from row ``first`` on, ``% p`` and from ``col`` on: the pivot row is
    zero before it."""
    lead = rows[top][col]
    if lead != 1:
        s = pow(lead, -1, p)
        rows[top][col:] = [x * s % p for x in rows[top][col:]]
    tail = rows[top][col:]
    for r in range(first, len(rows)):
        row = rows[r]
        f = row[col]
        if f and r != top:
            row[col:] = [(a - f * b) % p for a, b in zip(row[col:], tail)]


def _clear_rationals(rows: list[list[int]], dens: list[int], top: int, col: int, first: int) -> None:
    """Put row ``top`` over its pivot in lowest terms, so the pivot b equals
    the denominator, then turn each other row from row ``first`` on with
    factor f in column ``col`` into b*row - f*pivot_row over den*b, in lowest
    terms."""
    pivot_row, b = rows[top], dens[top] = _lowest_terms(rows[top], rows[top][col])
    for r in range(first, len(rows)):
        f = rows[r][col]
        if f and r != top:
            rows[r], dens[r] = _lowest_terms([b * x - f * y for x, y in zip(rows[r], pivot_row)], dens[r] * b)


def zero_diagonal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(B, B^-1, B^-1 m B) for an invertible B that conjugates ``m`` to zero
    diagonal; m must be square, traceless, and zero or non-scalar.

    A loop of elementary similarities on field scalars: residues over F_p,
    and over Q a numerator and denominator per entry (``Fraction``), packed
    into matrices once at the end.  Each is the conjugation by a transvection
    E = I + c e_x e_y^T: column y += c column x of R = B^-1 m B and of B,
    then row x -= c row y of R and of B^-1.  It changes O(n) entries, and of
    the diagonal only (y, y), which gains c R_yx, and (x, x), which loses
    it.  Position j with R_jj != 0 takes one transvection, chosen by
    ``_transvection``, that zeroes R_jj and leaves the diagonal before j
    alone, after at most one that makes a pivot (or, for a nonzero scalar
    trailing block, the escape's); the last diagonal entry is then zero by
    the trace.  Choosing the pivot of least height keeps the entries short.
    A zero m gives (I, I, m).
    """
    field, n = m.field, m.rows
    if not m.is_square:
        raise ValueError("square matrix required")
    if not field.is_zero(m.trace()):
        raise ValueError("nonzero trace")
    p = field.size if field.finite else 0
    reduced = m.to_rows()
    basis = [[int(i == k) for k in range(n)] for i in range(n)]
    basis_inv = [list(row) for row in basis]
    for j in range(n - 1):
        while reduced[j][j]:
            x, y, c = _transvection(reduced, j, p)
            for rows in (reduced, basis):
                for row in rows:
                    s = row[x]
                    if s:
                        row[y] = (row[y] + c * s) % p if p else row[y] + c * s
            for rows in (reduced, basis_inv):
                source, target = rows[y], rows[x]
                if p:
                    rows[x] = [(t - c * s) % p for t, s in zip(target, source)]
                else:
                    rows[x] = [t - c * s if s else t for t, s in zip(target, source)]
    return tuple(_from_scalars(field, rows) for rows in (basis, basis_inv, reduced))


def _height(x: Scalar) -> int:
    """The bit lengths of a scalar's numerator and denominator, summed."""
    return x.numerator.bit_length() + x.denominator.bit_length()


def _quotient(a: Scalar, b: Scalar, p: int) -> Scalar:
    """a / b for field scalars: a residue over F_p (p > 0), exact over Q."""
    return a * pow(b, -1, p) % p if p else a / b


def _transvection(rows: list[list[Scalar]], j: int, p: int) -> tuple[int, int, Scalar]:
    """(x, y, c) of the next transvection at position j, where R_jj != 0.

    The pivot is the nonzero R_ja or R_aj, a > j, of least height, ties
    going to the row, then to the lower index; c then zeroes R_jj.  Without
    one, a transvection with c = 1 and no effect on the diagonal makes one:
    (a, j) makes R_aj = R_aa - R_jj for the first a > j where that is
    nonzero, else (j, a) makes R_jb = -R_ab for the first a > j whose row has
    a nonzero R_ab, b >= j off the diagonal.  Else R[j:, j:] is a nonzero
    scalar, which ``_escape`` undoes."""
    n, d = len(rows), rows[j][j]
    row, column = rows[j], [r[j] for r in rows]
    pivots = [
        (_height(line[a]), side, a) for side, line in enumerate((row, column)) for a in range(j + 1, n) if line[a]
    ]
    if pivots:
        _, side, a = min(pivots)
        # a row pivot adds c R_ja to (j, j), a column pivot takes c R_aj from it
        return (a, j, _quotient(-d, row[a], p)) if side == 0 else (j, a, _quotient(d, column[a], p))
    for a in range(j + 1, n):
        if rows[a][a] != d:
            return a, j, 1
    for a in range(j + 1, n):
        if any(rows[a][b] for b in range(j, n) if b != a):
            return j, a, 1
    return _escape(rows, j, p)


def _escape(rows: list[list[Scalar]], j: int, p: int) -> tuple[int, int, Scalar]:
    """A transvection through index i = j - 1 towards making the trailing
    block R[j:, j:] = s I, s != 0, non-scalar (which needs p | n - j, so
    never over Q); none moves the diagonal, and at most two are needed.

    With w = R[j:, i] nonzero and w_a = 0, (i, a, 1) adds w to column a of
    the block; when w has no zero, (j, j + 1, w_j / w_(j+1)), inside the
    block, which stays s I, first makes w_j zero.  Else the same holds for
    u = R[i, j:] and the mirrored transvections: conjugating the transpose
    by (x, y, c) is conjugating R by (y, x, -c).  When w and u are zero,
    (j, i, 1) makes w = s e_j."""
    if j == 0:
        raise ValueError("nonzero scalar matrices have no zero-diagonal form")
    n, i = len(rows), j - 1
    for mirrored in (False, True):
        line = [rows[i][a] if mirrored else rows[a][i] for a in range(j, n)]
        if any(line):
            zero = next((a for a, v in enumerate(line, j) if not v), None)
            x, y, c = (i, zero, 1) if zero is not None else (j, j + 1, _quotient(line[0], line[1], p))
            return (y, x, -c % p if p else -c) if mirrored else (x, y, c)
    return j, i, 1


def _from_scalars(field: Field, rows: list[list[Scalar]]) -> Matrix:
    """The matrix of square ``rows`` of field scalars (or ints) that are
    already canonical: residues in range(p), or rationals in lowest terms."""
    n = len(rows)
    entries = list(chain.from_iterable(rows))
    if field.finite:
        return Matrix.from_canonical(field, n, n, entries)
    dens = [x.denominator for x in entries]
    return Matrix.from_ratios(field, n, n, [x.numerator for x in entries], dens, lcm(*dens))


def index_quotients(
    m: Matrix, row_values: Sequence[int] | None = None, col_values: Sequence[int] | None = None
) -> Matrix:
    """The matrix with entry (j, k) equal to m[j, k] / (r_j - c_k) for the
    integer values r (one per row) and c (one per column), and zero where
    r_j == c_k: for D = diag(r) and E = diag(c) with r and c disjoint, the
    solution y of D y - y E = m.  Both default to 0, 1, ..., n-1 for a square
    m, which gives, for m of zero diagonal, the solution q of
    D q - q D = m.  Over F_p every nonzero difference must be invertible
    (ValueError otherwise) and is replaced by its inverse; over Q the entries
    are put over den * (the lcm of the differences) and brought to lowest
    terms once.  A zero m gives zero at once, after the check."""
    rows, cols = m.rows, m.cols
    if row_values is None and col_values is None:
        if not m.is_square:
            raise ValueError("square matrix required")
        row_values = col_values = range(rows)
    if len(row_values) != rows or len(col_values) != cols:
        raise ValueError(f"expected {rows} row values and {cols} column values")
    p = m.field.size if m.field.finite else 0
    differences = [r - c for r in row_values for c in col_values]
    distinct = set(differences) - {0}
    if p:
        singular = [d for d in distinct if d % p == 0]
        if singular:
            raise ValueError(f"value difference {min(singular, key=abs)} is not invertible mod {p}")
    if m.is_zero():
        return Matrix.zeros(m.field, rows, cols)
    if p:
        scale = 1
        weight = {d: pow(d, -1, p) for d in distinct}
    else:
        scale = lcm(*distinct)
        weight = {d: scale // d for d in distinct}
    weight[0] = 0
    return _reduced(m.field, rows, cols, map(mul, m._ints, map(weight.__getitem__, differences)), m._den * scale)


def characteristic_polynomial(m: Matrix) -> tuple[Scalar, ...]:
    """The coefficients c_0, ..., c_n of det(x I - m), lowest degree first
    (so c_n = 1), as field scalars.

    Berkowitz's division-free algorithm (1984) on the stored integers N: the
    polynomial of each leading (r+1)x(r+1) block is a Toeplitz matrix with
    first column 1, -N_rr, -R S, -R A S, ..., -R A^(r-1) S times that of the
    leading r x r block A, where R and S are the new row and column outside
    A.  Over F_p every step is reduced ``% p``; over Q, m = N / d and
    det(x I - m) = d^-n det(d x I - N), so c_k is N's coefficient over
    d^(n-k)."""
    if not m.is_square:
        raise ValueError("square matrix required")
    n, p = m.rows, m.field.size if m.field.finite else 0
    rows = m._row_tuples()
    poly = [1]  # highest degree first, for the leading r x r block
    for r in range(n):
        block = [row[:r] for row in rows[:r]]
        new_row, column = rows[r][:r], [row[r] for row in rows[:r]]
        toeplitz = [1, -rows[r][r]]
        for k in range(r):
            if k:
                column = [sum(map(mul, row, column)) for row in block]
                if p:
                    column = [x % p for x in column]
            toeplitz.append(-sum(map(mul, new_row, column)))
        poly = [sum(toeplitz[k - j] * poly[j] for j in range(max(0, k - r - 1), min(k, r) + 1)) for k in range(r + 2)]
        if p:
            poly = [x % p for x in poly]
    if p:
        return tuple(reversed(poly))
    d = m._den
    return tuple(Fraction(poly[n - k], d ** (n - k)) for k in range(n + 1))


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
    return _assemble(field, [rows], [m.cols for m in mats], {(0, c): m for c, m in enumerate(mats)})


def vstack(mats: Sequence[Matrix]) -> Matrix:
    """Stack matrices with equal column counts one above the other."""
    if not mats:
        raise ValueError("vstack of nothing")
    cols, field = mats[0].cols, mats[0].field
    if any(m.cols != cols or m.field != field for m in mats):
        raise ValueError("column count or field mismatch in vstack")
    return _assemble(field, [m.rows for m in mats], [cols], {(r, 0): m for r, m in enumerate(mats)})


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
    """Assemble a matrix from blocks; missing positions are zero blocks."""
    check_blocks(field, row_sizes, col_sizes, blocks)
    return _assemble(field, row_sizes, col_sizes, blocks)


def _assemble(field: Field, row_sizes: Sequence[int], col_sizes: Sequence[int], blocks: Grid) -> Matrix:
    """``block_matrix`` on a grid already checked.  Each output row is
    written once, over the lcm of the blocks' denominators, which needs no
    reduction (as in ``_over``); with one block column the rescaled blocks
    are concatenated whole."""
    den = lcm(*[m._den for m in blocks.values()])
    if len(col_sizes) == 1:
        width = col_sizes[0]
        parts = (
            _rescaled(blocks[(r, 0)], den) if (r, 0) in blocks else (0,) * (height * width)
            for r, height in enumerate(row_sizes)
        )
        return _wrap(field, sum(row_sizes), width, tuple(chain.from_iterable(parts)), den)
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


def split_blocks(
    m: Matrix, row_sizes: Sequence[int], col_sizes: Sequence[int], positions: Iterable[tuple[int, int]] | None = None
) -> dict[tuple[int, int], Matrix]:
    """Cut a matrix into the block grid given by the size partitions: every
    block, or only those at ``positions``."""
    if sum(row_sizes) != m.rows or sum(col_sizes) != m.cols:
        raise ValueError("block sizes do not partition the matrix")
    row_offsets = list(accumulate(row_sizes, initial=0))
    col_offsets = list(accumulate(col_sizes, initial=0))
    if positions is None:
        positions = product(range(len(row_sizes)), range(len(col_sizes)))
    return {
        (r, c): m.submatrix(row_offsets[r], row_offsets[r + 1], col_offsets[c], col_offsets[c + 1])
        for r, c in positions
    }


def enumerate_matrices(field: Field, rows: int, cols: int) -> Iterator[Matrix]:
    """All rows x cols matrices over a finite field, lexicographic by row-major entries."""
    if not field.finite:
        raise TypeError("cannot enumerate matrices over an infinite field")
    for entries in product(tuple(field.elements()), repeat=rows * cols):
        yield Matrix(field, rows, cols, entries)
