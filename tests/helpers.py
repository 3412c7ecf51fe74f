"""Shared builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, permutations
from math import gcd, lcm

from hypothesis import strategies as st

from chaincomm.complexes import (
    ChainComplex,
    ChainEndomorphism,
    CommutatorWitness,
    HomotopyWitness,
    PointwiseWitness,
    cohomology,
)
from chaincomm.fields import GF2, RATIONALS, Field, PrimeField, Scalar, render
from chaincomm.linalg import complement_basis, image_basis, kernel_basis, solve_linear
from chaincomm.matrices import Matrix, hstack, zero_diagonal_form
from chaincomm.verify import VerificationResult, Violation

Q = RATIONALS
F2 = GF2
F3 = PrimeField(3)
F5 = PrimeField(5)
F101 = PrimeField(101)
F_M31 = PrimeField(2**31 - 1)

# the fields the arithmetic kernel is checked over
KERNEL_FIELDS = (Q, F2, F3, F101, F_M31)


def mat(field: Field, rows) -> Matrix:
    return Matrix.from_rows(field, rows)


def exact_two_term(field: Field = Q, scalar=1) -> ChainComplex:
    """0 -> k -> k -> 0 with an isomorphism differential."""
    return ChainComplex(field, 0, [1, 1], [mat(field, [[scalar]])])


def zero_differential_complex(field: Field, dims) -> ChainComplex:
    return ChainComplex(
        field, 0, list(dims), [Matrix.zeros(field, dims[j + 1], dims[j]) for j in range(len(dims) - 1)]
    )


def corner_window(field: Field, width: int = 4) -> ChainComplex:
    """dims 2 everywhere, every differential the rank-one corner map."""
    d = mat(field, [[0, 1], [0, 0]])
    return ChainComplex(field, 0, [2] * width, [d] * (width - 1))


def alternating_reflection(c: ChainComplex) -> ChainEndomorphism:
    """phi_i = (-1)^i diag(1, -1) on a dims-2 window; a valid chain map for
    the rank-one corner differential."""
    field = c.field
    maps = []
    for i in c.degrees:
        sign = field.alternating_sign(i)
        maps.append(Matrix.diagonal(field, [sign, field.neg(sign)]))
    return ChainEndomorphism(c, maps)


def seeds(n: int, start: int = 0):
    for s in range(start, start + n):
        yield s, random.Random(s)


# -- reference implementations ------------------------------------------------
# The field-generic elimination and greedy complement the library used before
# its field-specialised kernel, the solve-based induced cohomology map it used
# before reading cohomology off the splitting, the solve-based splitting bases
# and the hand-indexed chain-map constraints it used before reading them off
# pivots and Kronecker blocks, kept as the semantics the fast paths must
# match.


def reference_rref(m: Matrix):
    """(reduced, transform, pivots) by Gauss-Jordan elimination through the
    field's own operations."""
    field = m.field
    rows = [list(m.row(i)) for i in range(m.rows)]
    trans = [list(Matrix.identity(field, m.rows).row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    pivot_row = 0
    for col in range(m.cols):
        pivot = None
        for r in range(pivot_row, m.rows):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != pivot_row:
            rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
            trans[pivot_row], trans[pivot] = trans[pivot], trans[pivot_row]
        inv = field.invert(rows[pivot_row][col])
        if inv != field.one:
            rows[pivot_row] = [field.mul(inv, e) for e in rows[pivot_row]]
            trans[pivot_row] = [field.mul(inv, e) for e in trans[pivot_row]]
        for r in range(m.rows):
            if r == pivot_row:
                continue
            factor = rows[r][col]
            if factor == 0:
                continue
            rows[r] = [field.sub(a, field.mul(factor, b)) for a, b in zip(rows[r], rows[pivot_row])]
            trans[r] = [field.sub(a, field.mul(factor, b)) for a, b in zip(trans[r], trans[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == m.rows:
            break
    reduced = Matrix(field, m.rows, m.cols, (e for row in rows for e in row))
    transform = Matrix(field, m.rows, m.rows, (e for row in trans for e in row))
    return reduced, transform, tuple(pivots)


def reference_rank(m: Matrix) -> int:
    return len(reference_rref(m)[2])


def reference_complement_basis(inside: Matrix, ambient_basis: Matrix) -> Matrix:
    """Add ambient columns one at a time, keeping each that raises the rank."""
    if inside.rows != ambient_basis.rows:
        raise ValueError("row count mismatch")
    if reference_rank(inside) != inside.cols:
        raise ValueError("inside columns are linearly dependent")
    current = inside
    current_rank = inside.cols
    chosen: list[int] = []
    for j in range(ambient_basis.cols):
        candidate = hstack([current, ambient_basis.take_columns([j])])
        r = reference_rank(candidate)
        if r > current_rank:
            chosen.append(j)
            current = candidate
            current_rank = r
    return ambient_basis.take_columns(chosen)


def reference_kernel(m: Matrix) -> Matrix:
    """One basis vector per free column of reference_rref: 1 there, zero at
    the other free columns, minus that column of the reduced form at the
    pivots."""
    reduced, _, pivots = reference_rref(m)
    free = [col for col in range(m.cols) if col not in pivots]
    basis = [[0] * len(free) for _ in range(m.cols)]
    for j, f in enumerate(free):
        basis[f][j] = 1
        for r, col in enumerate(pivots):
            basis[col][j] = -reduced.entry(r, f)
    return Matrix(m.field, m.cols, len(free), chain.from_iterable(basis))


def reference_solution(a: Matrix, b: Matrix) -> Matrix | None:
    """The solution of a*x = b with free variables zero, read off
    reference_rref's transform, or None when b leaves the column space."""
    _, transform, pivots = reference_rref(a)
    c = transform * b
    if any(c.entry(r, j) != 0 for r in range(len(pivots), a.rows) for j in range(b.cols)):
        return None
    x = [[0] * b.cols for _ in range(a.cols)]
    for r, col in enumerate(pivots):
        x[col] = list(c.row(r))
    return Matrix(a.field, a.cols, b.cols, chain.from_iterable(x))


def reference_extension(inside: Matrix, within: Matrix | None) -> tuple[Matrix, Matrix]:
    """(t, t^-1) for t = inside, then greedy columns of ``within``, then
    greedy unit vectors."""
    field, n = inside.field, inside.rows
    candidates = Matrix.zeros(field, n, 0) if within is None else within
    extended = hstack([inside, reference_complement_basis(inside, candidates)])
    t = hstack([extended, reference_complement_basis(extended, Matrix.identity(field, n))])
    return t, reference_rref(t)[1]


def reference_commutator_factors(m: Matrix) -> tuple[Matrix, Matrix]:
    """(p, q) = (B diag(0, ..., n-1) B^-1, B q' B^-1) with q'_jk =
    m'_jk / (j - k) through ``field.div`` and the normalising constructor,
    for (B, B^-1, m') = zero_diagonal_form(m): the formulas
    commutator_decomposition used before it scaled B's columns and read q'
    off m''s stored integers."""
    field, n = m.field, m.rows
    basis, basis_inv, reduced = zero_diagonal_form(m)
    diag = [field.normalize(i) for i in range(n)]
    q0 = Matrix(
        field,
        n,
        n,
        (
            field.zero if i == j else field.div(reduced.entry(i, j), field.sub(diag[i], diag[j]))
            for i in range(n)
            for j in range(n)
        ),
    )
    return basis * Matrix.diagonal(field, diag) * basis_inv, basis * q0 * basis_inv


def reference_induced_cohomology_map(phi: ChainEndomorphism, degree: int) -> Matrix:
    """The induced map on cohomology computed without a splitting: lift
    cohomology by the greedy complement of the boundaries in the cocycles,
    apply phi, and solve for coordinates in boundaries + lifts."""
    c = phi.complex
    spaces = cohomology(c, degree)
    boundaries = spaces.boundary_basis
    lifts = complement_basis(boundaries, spaces.cocycle_basis)
    h = lifts.cols
    if h == 0:
        return Matrix.zeros(c.field, 0, 0)
    images = phi.map(degree) * lifts
    coords = solve_linear(hstack([boundaries, lifts]), images)
    if coords is None:
        raise ValueError("endomorphism does not preserve cocycles; not a chain map?")
    return coords.submatrix(boundaries.cols, boundaries.cols + h, 0, h)


def reference_split_bases(c: ChainComplex) -> dict[int, Matrix]:
    """Per degree, [boundaries | lifts | preimages]: boundaries the image
    basis of the incoming differential, lifts their greedy complement in the
    cocycles, preimages of the next boundaries by a solve with free variables
    set to zero."""
    boundary_bases = {i: image_basis(c.differential(i - 1)) for i in range(c.lo, c.hi + 2)}
    bases = {}
    for i in c.degrees:
        lifts = complement_basis(boundary_bases[i], kernel_basis(c.differential(i)))
        preimages = solve_linear(c.differential(i), boundary_bases[i + 1])
        assert preimages is not None
        bases[i] = hstack([boundary_bases[i], lifts, preimages])
    return bases


def reference_chain_map_basis(c: ChainComplex) -> tuple[ChainEndomorphism, ...]:
    """The kernel of the commutation constraints d . phi = phi . d, written
    entry by entry (stacked row-major, degrees ascending)."""
    field = c.field
    sizes = list(c.dims)
    offsets = [0]
    for n in sizes:
        offsets.append(offsets[-1] + n * n)
    total = offsets[-1]

    rows: list[list[Scalar]] = []
    zero = field.zero
    for i in range(c.lo, c.hi):
        d = c.differential(i)
        n_i = c.dim(i)
        n_next = c.dim(i + 1)
        base_i = offsets[i - c.lo]
        base_next = offsets[i + 1 - c.lo]
        for r in range(n_next):
            for col in range(n_i):
                row = [zero] * total
                # (d . phi_i)[r, col] contributes +d[r, k] * phi_i[k, col]
                for k in range(n_i):
                    coeff = d.entry(r, k)
                    if coeff != 0:
                        row[base_i + k * n_i + col] = field.add(row[base_i + k * n_i + col], coeff)
                # (phi_{i+1} . d)[r, col] contributes -phi_{i+1}[r, k] * d[k, col]
                for k in range(n_next):
                    coeff = d.entry(k, col)
                    if coeff != 0:
                        idx = base_next + r * n_next + k
                        row[idx] = field.sub(row[idx], coeff)
                rows.append(row)

    constraint = Matrix(field, len(rows), total, (e for row in rows for e in row))
    basis_vectors = kernel_basis(constraint)
    basis = []
    for j in range(basis_vectors.cols):
        maps = []
        for idx, n in enumerate(sizes):
            start = offsets[idx]
            maps.append(Matrix(field, n, n, (basis_vectors.entry(start + t, j) for t in range(n * n))))
        basis.append(ChainEndomorphism(c, maps))
    return tuple(basis)


# -- kernel property-test support ---------------------------------------------


def scalars(field: Field):
    """Field elements with 0 and +-1 drawn often, so that rank drops happen."""
    if field.finite:
        p = field.size
        return st.one_of(st.sampled_from(sorted({0, 1, p - 1})), st.integers(min_value=0, max_value=p - 1))
    return st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )


@st.composite
def matrices(
    draw, field: Field, rows: int | None = None, cols: int | None = None, max_dim: int = 5, elements=None
) -> Matrix:
    """A matrix over ``field`` with entries from ``elements`` (default
    ``scalars(field)``); with two or more rows, the last row may repeat the
    first, which makes the rows dependent."""
    r = draw(st.integers(min_value=0, max_value=max_dim)) if rows is None else rows
    c = draw(st.integers(min_value=0, max_value=max_dim)) if cols is None else cols
    elements = scalars(field) if elements is None else elements
    data = [draw(st.lists(elements, min_size=c, max_size=c)) for _ in range(r)]
    if r >= 2 and draw(st.booleans()):
        data[-1] = list(data[0])
    return Matrix(field, r, c, (e for row in data for e in row))


def assert_canonical(m: Matrix) -> None:
    """The stored form is canonical: integers over a denominator d >= 1 with
    gcd(d, integers) == 1, d == 1 for the zero matrix and over F_p, residues
    in range(p) over F_p.  Entries are in the field's canonical form, and m
    equals and hashes like the same matrix built through the normalising
    public constructor."""
    ints, den = m._ints, m._den
    assert type(den) is int and den >= 1
    assert len(ints) == m.rows * m.cols and all(type(x) is int for x in ints)
    assert gcd(den, *ints) == 1
    if not any(ints):
        assert den == 1
    if m.field.finite:
        assert den == 1
        assert all(0 <= x < m.field.size for x in ints)
        assert all(type(e) is int and 0 <= e < m.field.size for e in m.entries)
    else:
        assert all(type(e) is Fraction for e in m.entries)
        assert m.denominator == lcm(*(e.denominator for e in m.entries))
    assert len(m.entries) == m.rows * m.cols
    public = Matrix(m.field, m.rows, m.cols, m.entries)
    assert m == public and hash(m) == hash(public)


# -- entrywise Fraction reference for the matrix kernel --------------------------
# A reference matrix is a list of rows of Fractions, so every operation below
# runs one Fraction operation per entry, with no shared denominator.


def wide_rationals():
    """Rationals with numerators up to about 100 digits, mixed signs, and
    denominators up to about 10**30 (random ones are mostly coprime, so a
    matrix's common denominator gets wide)."""
    numerators = st.one_of(st.sampled_from([0, 1, -1]), st.integers(min_value=-(10**100), max_value=10**100))
    denominators = st.one_of(st.sampled_from([1, 2, 3, 6]), st.integers(min_value=1, max_value=10**30))
    return st.builds(Fraction, numerators, denominators)


def reference_block_matrix(field: Field, row_sizes, col_sizes, blocks) -> Matrix:
    """``block_matrix`` from ``to_rows()`` lists: the blocks' rows (zeros for
    a missing block) joined side by side, block row after block row."""
    rows = []
    for r, height in enumerate(row_sizes):
        pieces = [
            blocks[(r, c)].to_rows() if (r, c) in blocks else [[field.zero] * width] * height
            for c, width in enumerate(col_sizes)
        ]
        rows += [list(chain.from_iterable(piece[i] for piece in pieces)) for i in range(height)]
    return Matrix(field, sum(row_sizes), sum(col_sizes), chain.from_iterable(rows))


def reference_matrix(rows: list[list[Fraction]], cols: int) -> Matrix:
    return Matrix(RATIONALS, len(rows), cols, (x for row in rows for x in row))


def reference_product(a: list[list[Fraction]], b: list[list[Fraction]], inner: int, cols: int) -> list[list[Fraction]]:
    return [[sum((row[t] * b[t][j] for t in range(inner)), Fraction(0)) for j in range(cols)] for row in a]


def reference_entrywise(op, *mats: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[op(*xs) for xs in zip(*rows)] for rows in zip(*mats)]


def reference_kron(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def reference_submatrix(a: list[list[Fraction]], rows, cols) -> list[list[Fraction]]:
    return [[a[i][j] for j in cols] for i in rows]


def reference_transpose(a: list[list[Fraction]], cols: int) -> list[list[Fraction]]:
    return [[row[j] for row in a] for j in range(cols)]


def reference_trace(a: list[list[Fraction]]) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def reference_is_scalar(a: list[list[Fraction]]) -> bool:
    n = len(a)
    return all(a[i][j] == (a[0][0] if i == j else 0) for i in range(n) for j in range(n))


def reference_characteristic_polynomial(m: Matrix) -> list:
    """det(x I - m) by the Leibniz sum over permutations, each entry a
    polynomial (coefficient list, lowest degree first) in field scalars."""
    field, n = m.field, m.rows

    def times(a: list, b: list) -> list:
        out = [field.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = field.add(out[i + j], field.mul(x, y))
        return out

    total = [field.zero] * (n + 1)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = [field.one if inversions % 2 == 0 else field.neg(field.one)]
        for i, j in enumerate(perm):
            entry = [field.neg(m.entry(i, j))] + ([field.one] if i == j else [])
            term = times(term, entry)
        term += [field.zero] * (n + 1 - len(term))
        total = [field.add(x, y) for x, y in zip(total, term)]
    return total


def reference_value_quotients(m: Matrix, row_values, col_values) -> Matrix:
    """``index_quotients`` by field division entry by entry."""
    field = m.field
    return Matrix(
        field,
        m.rows,
        m.cols,
        (
            field.zero if r == c else field.div(m.entry(j, k), field.normalize(r - c))
            for j, r in enumerate(row_values)
            for k, c in enumerate(col_values)
        ),
    )


# -- product-based reference verifiers -----------------------------------------
# The verifiers as they were before identities were compared by packed rows:
# each side is formed with Matrix products, the homotopy's residual
# phi - (d s + s d) as a chain endomorphism, and the first differing entry is
# found on the sides' field scalars.


def _reference_record(out: list, location: str, identity: str, left: Matrix, right: Matrix) -> None:
    if left == right:
        return
    if left.shape != right.shape or left.field != right.field:
        out.append(Violation(location, identity, repr(left), repr(right)))
        return
    xs, ys = left.entries, right.entries
    k = next(k for k, (x, y) in enumerate(zip(xs, ys)) if x != y)
    out.append(Violation(location, identity, render(xs[k]), render(ys[k]), divmod(k, left.cols)))


def _reference_chain_map(name: str, endo: ChainEndomorphism, out: list) -> None:
    c = endo.complex
    for i in range(c.lo, c.hi):
        _reference_record(
            out,
            f"degree {i}",
            f"{name} commutes with the differential",
            c.differential(i) * endo.map(i),
            endo.map(i + 1) * c.differential(i),
        )


def reference_verify_commutator(phi: ChainEndomorphism, witness) -> VerificationResult:
    out: list = []
    if witness.alpha.complex != phi.complex or witness.beta.complex != phi.complex:
        out.append(Violation("complex", "witness lives on the same complex", "witness complex", "target complex"))
        return VerificationResult(tuple(out))
    _reference_chain_map("alpha", witness.alpha, out)
    _reference_chain_map("beta", witness.beta, out)
    for i in phi.complex.degrees:
        a, b = witness.alpha.map(i), witness.beta.map(i)
        _reference_record(out, f"degree {i}", "[alpha, beta] = phi", a * b - b * a, phi.map(i))
    return VerificationResult(tuple(out))


def reference_verify_pointwise(phi: ChainEndomorphism, witness) -> VerificationResult:
    out: list = []
    if witness.complex != phi.complex:
        out.append(Violation("complex", "witness lives on the same complex", "witness complex", "target complex"))
        return VerificationResult(tuple(out))
    for i in phi.complex.degrees:
        pair = witness.pairs.get(i)
        if pair is None:
            n = phi.complex.dim(i)
            pair = (Matrix.zeros(phi.complex.field, n, n), Matrix.zeros(phi.complex.field, n, n))
        a, b = pair
        if a.shape != (phi.complex.dim(i),) * 2 or b.shape != (phi.complex.dim(i),) * 2:
            out.append(Violation(f"degree {i}", "pair shapes match the space", str(a.shape), str(b.shape)))
            continue
        _reference_record(out, f"degree {i}", "[a_i, b_i] = phi_i", a * b - b * a, phi.map(i))
    return VerificationResult(tuple(out))


def reference_verify_homotopy_witness(phi: ChainEndomorphism, witness) -> VerificationResult:
    c = phi.complex
    s = witness.homotopy
    if s.complex != c:
        return VerificationResult(
            (Violation("complex", "homotopy lives on the same complex", "homotopy complex", "target complex"),)
        )
    residual = ChainEndomorphism(
        c, [phi.map(i) - (c.differential(i - 1) * s.map(i) + s.map(i + 1) * c.differential(i)) for i in c.degrees]
    )
    return reference_verify_witness(residual, witness.residual)


def reference_verify_witness(phi: ChainEndomorphism, witness) -> VerificationResult:
    if isinstance(witness, CommutatorWitness):
        return reference_verify_commutator(phi, witness)
    if isinstance(witness, PointwiseWitness):
        return reference_verify_pointwise(phi, witness)
    if isinstance(witness, HomotopyWitness):
        return reference_verify_homotopy_witness(phi, witness)
    known = "CommutatorWitness|PointwiseWitness|HomotopyWitness"
    return VerificationResult((Violation("witness", "known witness kind", type(witness).__name__, known),))
