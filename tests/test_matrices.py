from fractions import Fraction
from itertools import chain
from operator import add, neg, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chaincomm.fields import GF2, MAX_RATIONAL_DIGITS, RATIONALS as Q, PrimeField
from chaincomm.matrices import (
    Matrix,
    block_matrix,
    characteristic_polynomial,
    enumerate_matrices,
    first_nonzero_entry,
    hstack,
    index_quotients,
    kron,
    pivot_columns,
    row_reduce,
    split_blocks,
    sum_entry,
    vstack,
    zero_diagonal_form,
)

from helpers import (
    F_M31,
    KERNEL_FIELDS,
    assert_canonical,
    mat,
    matrices,
    reference_block_matrix,
    reference_characteristic_polynomial,
    reference_entrywise,
    reference_is_scalar,
    reference_kron,
    reference_matrix,
    reference_product,
    reference_rref,
    reference_submatrix,
    reference_trace,
    reference_transpose,
    reference_value_quotients,
    scalars,
    wide_rationals,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
ZERO_DIAGONAL_FIELDS = (Q, GF2, F3, F5, PrimeField(7), PrimeField(101), F_M31)


def small_matrix(field, rows, cols):
    if field.finite:
        elems = st.integers(min_value=0, max_value=field.size - 1)
    else:
        elems = st.fractions(min_value=-20, max_value=20, max_denominator=5)
    return st.lists(elems, min_size=rows * cols, max_size=rows * cols).map(
        lambda entries: Matrix(field, rows, cols, entries)
    )


def test_construction_validation():
    with pytest.raises(ValueError):
        Matrix(Q, 2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        Matrix(Q, -1, 2, [])
    with pytest.raises(ValueError):
        Matrix.from_rows(Q, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix.from_rows(Q, [[1, 2]], cols=5)
    assert Matrix.from_rows(Q, [[1, 2]], cols=2).shape == (1, 2)
    assert Matrix.from_rows(Q, [], cols=5).shape == (0, 5)


def test_empty_matrices_are_first_class():
    e = Matrix.zeros(Q, 0, 3)
    f = Matrix.zeros(Q, 3, 0)
    assert (f * e).shape == (3, 3)
    assert (f * e).is_zero()
    assert Matrix.zeros(Q, 0, 0).is_square
    assert Matrix.zeros(Q, 0, 0).trace() == 0
    assert Matrix.zeros(Q, 0, 0).is_scalar()


def test_basic_algebra():
    a = mat(Q, [[1, 2], [3, 4]])
    b = mat(Q, [[0, 1], [1, 0]])
    assert a + b == mat(Q, [[1, 3], [4, 4]])
    assert a - a == Matrix.zeros(Q, 2, 2)
    assert a * b == mat(Q, [[2, 1], [4, 3]])
    assert a.scale(Fraction(1, 2)) == mat(Q, [[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
    assert a.transpose() == mat(Q, [[1, 3], [2, 4]])
    assert a.trace() == 5
    assert -a == a.scale(-1)


def test_equality_is_structural_and_hashable():
    a = mat(GF2, [[1, 0], [0, 1]])
    assert a == Matrix.identity(GF2, 2)
    assert hash(a) == hash(Matrix.identity(GF2, 2))
    assert a != Matrix.identity(Q, 2)  # different field
    assert len({a, Matrix.identity(GF2, 2)}) == 1


def test_entries_are_normalized():
    m = Matrix(F3, 1, 2, [5, -1])
    assert m.entries == (2, 2)
    q = Matrix(Q, 1, 1, [2])
    assert isinstance(q.entries[0], Fraction)


def test_kron_identities():
    assert kron(Matrix.identity(Q, 2), Matrix.identity(Q, 2)) == Matrix.identity(Q, 4)
    m = mat(Q, [[1, 2], [3, 4]])
    assert kron(mat(Q, [[2]]), m) == m.scale(2)
    k = kron(mat(Q, [[0, 1], [0, 0]]), Matrix.identity(Q, 2))
    nonzero = {(i, j) for i in range(4) for j in range(4) if k.entry(i, j) != 0}
    assert nonzero == {(0, 2), (1, 3)}
    assert all(k.entry(i, j) == 1 for i, j in nonzero)


def test_kron_with_empty_factor():
    empty = Matrix.zeros(Q, 0, 0)
    assert kron(empty, Matrix.identity(Q, 3)).shape == (0, 0)
    assert kron(Matrix.identity(Q, 3), empty).shape == (0, 0)


@given(small_matrix(Q, 2, 3), small_matrix(Q, 3, 2), small_matrix(Q, 2, 2))
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_matrix(GF2, 3, 3), small_matrix(GF2, 3, 3))
def test_trace_of_products_commutes(a, b):
    assert (a * b).trace() == (b * a).trace()


@given(small_matrix(F3, 2, 2), small_matrix(F3, 2, 2), small_matrix(F3, 2, 2))
def test_kron_is_multiplicative(a, b, c):
    assert kron(a * b, c * c) == kron(a, c) * kron(b, c)


def test_stack_and_blocks_roundtrip():
    a = mat(Q, [[1, 2], [3, 4]])
    b = mat(Q, [[5], [6]])
    stacked = hstack([a, b])
    assert stacked == mat(Q, [[1, 2, 5], [3, 4, 6]])
    assert vstack([a, a]).shape == (4, 2)
    grid = split_blocks(stacked, [1, 1], [2, 1])
    assert grid[(0, 0)] == mat(Q, [[1, 2]])
    assert grid[(1, 1)] == mat(Q, [[6]])
    rebuilt = block_matrix(Q, [1, 1], [2, 1], grid)
    assert rebuilt == stacked


def test_block_matrix_fills_zeros_and_checks_shapes():
    m = block_matrix(Q, [1, 2], [2], {(0, 0): mat(Q, [[1, 1]])})
    assert m == mat(Q, [[1, 1], [0, 0], [0, 0]])
    with pytest.raises(ValueError):
        block_matrix(Q, [1], [1], {(0, 0): mat(Q, [[1, 2]])})


@st.composite
def block_grids(draw):
    """A field, block row and column sizes (zero sizes included) and a
    sparse grid of blocks; over Q the entries' denominators run to 12, so
    blocks seldom share one."""
    field = draw(st.sampled_from([Q, GF2, F_M31]))
    elements = st.fractions(min_value=-5, max_value=5, max_denominator=12) if field is Q else None
    row_sizes = draw(st.lists(st.integers(min_value=0, max_value=3), max_size=3))
    col_sizes = draw(st.lists(st.integers(min_value=0, max_value=3), max_size=3))
    blocks = {
        (r, c): draw(matrices(field, height, width, elements=elements))
        for r, height in enumerate(row_sizes)
        for c, width in enumerate(col_sizes)
        if draw(st.booleans())
    }
    return field, row_sizes, col_sizes, blocks


@settings(max_examples=200, deadline=None)
@given(block_grids())
def test_stacking_matches_a_row_list_reference(case):
    field, row_sizes, col_sizes, blocks = case
    result = block_matrix(field, row_sizes, col_sizes, blocks)
    assert_canonical(result)
    assert result == reference_block_matrix(field, row_sizes, col_sizes, blocks)
    full = {
        (r, c): blocks.get((r, c), Matrix.zeros(field, height, width))
        for r, height in enumerate(row_sizes)
        for c, width in enumerate(col_sizes)
    }
    for r, height in enumerate(row_sizes if col_sizes else ()):
        row = {(0, c): full[(r, c)] for c in range(len(col_sizes))}
        stacked = hstack(list(row.values()))
        assert_canonical(stacked)
        assert stacked == reference_block_matrix(field, [height], col_sizes, row)
    for c, width in enumerate(col_sizes if row_sizes else ()):
        column = {(r, 0): full[(r, c)] for r in range(len(row_sizes))}
        stacked = vstack(list(column.values()))
        assert_canonical(stacked)
        assert stacked == reference_block_matrix(field, row_sizes, [width], column)


@st.composite
def block_columns(draw):
    """A field, block row sizes (zero sizes included), a width and a sparse
    column of blocks: the one-block-column grids that ``block_matrix`` and
    ``vstack`` concatenate whole."""
    field = draw(st.sampled_from([Q, GF2, F_M31]))
    elements = st.fractions(min_value=-5, max_value=5, max_denominator=12) if field is Q else None
    row_sizes = draw(st.lists(st.integers(min_value=0, max_value=4), max_size=4))
    width = draw(st.integers(min_value=0, max_value=4))
    blocks = {
        (r, 0): draw(matrices(field, height, width, elements=elements))
        for r, height in enumerate(row_sizes)
        if draw(st.booleans())
    }
    return field, row_sizes, width, blocks


@settings(max_examples=200, deadline=None)
@given(block_columns())
def test_one_block_column_matches_the_row_by_row_assembly(case):
    field, row_sizes, width, blocks = case
    expected = reference_block_matrix(field, row_sizes, [width], blocks)
    # the row-by-row assembly, through a second, empty block column
    wider = block_matrix(field, row_sizes, [width, 0], blocks)
    result = block_matrix(field, row_sizes, [width], blocks)
    assert_canonical(result)
    assert result == expected == wider
    if row_sizes:
        full = [blocks.get((r, 0), Matrix.zeros(field, height, width)) for r, height in enumerate(row_sizes)]
        stacked = vstack(full)
        assert_canonical(stacked)
        assert stacked == expected


def test_stacking_keeps_its_error_messages():
    a, b = mat(Q, [[1, 2]]), mat(Q, [[1], [2]])
    with pytest.raises(ValueError, match="row count or field mismatch in hstack"):
        hstack([a, b])
    with pytest.raises(ValueError, match="column count or field mismatch in vstack"):
        vstack([a, b])
    with pytest.raises(ValueError, match="field mismatch"):
        hstack([a, mat(GF2, [[1]])])
    for stack in (hstack, vstack):
        with pytest.raises(ValueError, match="of nothing"):
            stack([])
    with pytest.raises(ValueError, match="out of range"):
        block_matrix(Q, [1], [2], {(1, 0): a})
    with pytest.raises(ValueError, match="field mismatch in block"):
        block_matrix(Q, [1], [2], {(0, 0): mat(GF2, [[1, 0]])})
    with pytest.raises(ValueError, match="nonnegative"):
        block_matrix(Q, [-1], [2], {})


def test_enumerate_matrices_order_and_count():
    mats = list(enumerate_matrices(GF2, 1, 2))
    assert [m.entries for m in mats] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(list(enumerate_matrices(F3, 2, 1))) == 9
    with pytest.raises(TypeError):
        list(enumerate_matrices(Q, 1, 1))


# -- the field-specialised kernel against naive field operations ---------------


def naive_product(a, b):
    f = a.field
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = f.zero
            for t in range(a.cols):
                acc = f.add(acc, f.mul(a.entry(i, t), b.entry(t, j)))
            out.append(acc)
    return Matrix(f, a.rows, b.cols, out)


def mostly_zero(elements, zero):
    """``elements`` in one draw in four, ``zero`` in the others."""
    return st.integers(min_value=0, max_value=3).flatmap(lambda k: elements if k == 0 else st.just(zero))


@st.composite
def operand_triples(draw):
    """(a, b, c) over one field with a, b of one shape and c multipliable on
    the right; in half the draws their entries are mostly zero."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n, k, m = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    elements = mostly_zero(scalars(field), field.zero) if draw(st.booleans()) else None
    a, b, c = (draw(matrices(field, r, s, elements=elements)) for r, s in ((n, k), (n, k), (k, m)))
    return a, b, c


@settings(max_examples=300, deadline=None)
@given(operand_triples())
def test_products_sums_and_differences_match_field_ops(case):
    a, b, c = case
    f = a.field
    assert a * c == naive_product(a, c)
    assert a + b == Matrix(f, a.rows, a.cols, (f.add(x, y) for x, y in zip(a.entries, b.entries)))
    assert a - b == Matrix(f, a.rows, a.cols, (f.sub(x, y) for x, y in zip(a.entries, b.entries)))
    for result in (a * c, a + b, a - b, -a, a.transpose(), kron(a, c), hstack([a, b]), vstack([a, b])):
        assert_canonical(result)


# -- the packed F_p product: slots of w = 2 bitlen(p - 1) + bitlen(k) bits ------

# 2^61 - 1 packs the widest slots below PRIMALITY_BOUND
PACKED_FIELDS = (GF2, F3, PrimeField(101), F_M31, PrimeField(2**61 - 1))


def near_top(field):
    """Residues drawn toward p - 1, where the slot sums are largest."""
    p = field.size
    return st.one_of(
        st.just(p - 1),
        st.integers(min_value=max(0, p - 3), max_value=p - 1),
        st.integers(min_value=0, max_value=p - 1),
    )


@st.composite
def packed_operands(draw):
    """a (n x k) and b (k x m) with n, k, m in 0..12 and entries near p - 1."""
    field = draw(st.sampled_from(PACKED_FIELDS))
    n, k, m = (draw(st.integers(min_value=0, max_value=12)) for _ in range(3))
    return draw(matrices(field, n, k, elements=near_top(field))), draw(matrices(field, k, m, elements=near_top(field)))


@settings(max_examples=150, deadline=None)
@given(packed_operands())
def test_packed_product_matches_the_naive_product(case):
    a, b = case
    product = a * b
    assert product == naive_product(a, b)
    assert_canonical(product)


@pytest.mark.parametrize("field", PACKED_FIELDS, ids=lambda f: f"F{f.size}")
def test_packed_product_on_edge_shapes_and_full_slots(field):
    p = field.size
    for n, k, m in ((3, 0, 4), (0, 5, 2), (4, 2, 0), (12, 1, 12), (1, 12, 1), (12, 12, 1), (1, 12, 12)):
        a = Matrix(field, n, k, ((3 * t + 1) * (p - 1) // 7 for t in range(n * k)))
        b = Matrix(field, k, m, ((5 * t + 2) * (p - 1) // 11 for t in range(k * m)))
        product = a * b
        assert product == naive_product(a, b)
        assert_canonical(product)
    # every dot product is 12 (p - 1)^2, the largest slot sum at inner
    # dimension 12: a carry between slots would change the next entry
    full = Matrix(field, 12, 12, [p - 1] * 144)
    assert full * full == Matrix(field, 12, 12, [12 % p] * 144) == naive_product(full, full)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(PACKED_FIELDS).flatmap(
        lambda f: st.integers(min_value=1, max_value=8).flatmap(lambda n: matrices(f, n, n, elements=near_top(f)))
    )
)
def test_packed_product_of_kernel_outputs(m):
    # the packed product relies on canonical residues: multiply what the
    # other kernels produce, each side of a drawn matrix
    field, n = m.field, m.rows
    reduced, _ = row_reduce(m)
    outputs = [reduced, block_matrix(field, [n, n], [n, n], {(0, 0): m, (0, 1): reduced, (1, 1): m})]
    t = traceless(field, m.to_rows())
    if t.is_zero() or not t.is_scalar():
        outputs += zero_diagonal_form(t)
    if field.size >= n:
        outputs.append(index_quotients(m))
    for x in outputs:
        y = m if x.rows == n else block_matrix(field, [n, n], [n], {(0, 0): m, (1, 0): m})
        for left, right in ((x, y), (y.transpose(), x.transpose())):
            product = left * right
            assert product == naive_product(left, right)
            assert_canonical(product)


# -- the identity kernel: signed sums of products compared by packed rows ------

IDENTITY_FIELDS = (Q, GF2, PrimeField(7), F_M31)


def identity_entries(field, wide=False):
    """Residues toward p - 1 over F_p; over Q mixed denominators and
    numerators up to the digit cap, powers of two among them, or, when
    ``wide``, numerators of 400 to 1500 bits, past which the kernel takes dot
    products instead of packed rows."""
    if field.finite:
        return near_top(field)
    cap = 10**MAX_RATIONAL_DIGITS - 1
    denominators = st.one_of(st.sampled_from([1, 2, 3, 6]), st.integers(min_value=1, max_value=10**12))
    if wide:
        magnitudes = st.integers(min_value=400, max_value=1500).flatmap(
            lambda b: st.integers(min_value=2**b, max_value=2 ** (b + 1))
        )
        numerators = st.builds(lambda m, negative: -m if negative else m, magnitudes, st.booleans())
        return st.builds(Fraction, numerators, denominators)
    numerators = st.one_of(
        st.sampled_from([0, 1, -1]),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=0, max_value=cap.bit_length() - 1).flatmap(
            lambda b: st.sampled_from([2**b, -(2**b), 2**b - 1])
        ),
        st.integers(min_value=-cap, max_value=cap),
    )
    return st.builds(Fraction, numerators, denominators)


@st.composite
def signed_sums(draw):
    """1-5 terms over one field with a result shape in 0..6 x 0..6, each a
    lone matrix or a product with an inner dimension in 0..6; over Q the
    entries are wide in half the draws, and in half the draws they are
    mostly zero, so that zero operands drop out."""
    field = draw(st.sampled_from(IDENTITY_FIELDS))
    dims = st.integers(min_value=0, max_value=6)
    rows, cols = draw(dims), draw(dims)
    elements = identity_entries(field, wide=draw(st.booleans()))
    if draw(st.booleans()):
        elements = mostly_zero(elements, field.zero)
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        sign = draw(st.sampled_from((1, -1)))
        if draw(st.booleans()):
            terms.append((sign, draw(matrices(field, rows, cols, elements=elements)), None))
        else:
            inner = draw(dims)
            x = draw(matrices(field, rows, inner, elements=elements))
            terms.append((sign, x, draw(matrices(field, inner, cols, elements=elements))))
    return terms


def matrix_sum(terms):
    """The sum of the terms by Matrix arithmetic."""
    _, x, y = terms[0]
    total = Matrix.zeros(x.field, x.rows, (x if y is None else y).cols)
    for sign, x, y in terms:
        value = x if y is None else x * y
        total = total + value if sign == 1 else total - value
    return total


def first_nonzero(m):
    k = next((k for k, v in enumerate(m.numerators) if v), None)
    return None if k is None else divmod(k, m.cols)


@settings(max_examples=300, deadline=None)
@given(signed_sums(), st.data())
def test_identity_kernel_matches_the_sum_of_products(terms, data):
    total = matrix_sum(terms)
    assert first_nonzero_entry(terms) == first_nonzero(total)
    assert (first_nonzero_entry(terms) is None) == total.is_zero()
    if total.rows and total.cols:
        i, j = data.draw(st.integers(0, total.rows - 1)), data.draw(st.integers(0, total.cols - 1))
        assert sum_entry(terms, i, j) == total.entry(i, j)
    else:
        with pytest.raises(IndexError):
            sum_entry(terms, 0, 0)
    # the sum made to vanish, then one entry of one term changed by +-1
    balanced = [*terms, (-1, total, None)]
    assert first_nonzero_entry(balanced) is None
    spots = [(t, k) for t, (_, x, _) in enumerate(balanced) for k in range(x.rows * x.cols)]
    if spots:
        t, k = data.draw(st.sampled_from(spots))
        sign, x, y = balanced[t]
        entries = list(x.entries)
        entries[k] += data.draw(st.sampled_from((1, -1)))
        changed = [*balanced[:t], (sign, Matrix(x.field, x.rows, x.cols, entries), y), *balanced[t + 1 :]]
        expected = first_nonzero(matrix_sum(changed))
        assert first_nonzero_entry(changed) == expected
        if y is None:  # a lone matrix's change is the sum's change
            assert expected == divmod(k, x.cols)


@pytest.mark.parametrize("b", (1, 30, 64, 1000))
def test_identity_kernel_slots_are_wide_enough(b):
    # each sum has an entry 2^k and, one slot up, -1: with slots one bit
    # narrower than the kernel's, or a bound without the inner dimension, the
    # upper slot would cancel the lower one
    lone = [(1, Matrix(Q, 1, 3, [0, 2**b, -1]), None)]
    products = [(1, Matrix(Q, 1, 1, [2**b]), Matrix(Q, 1, 2, [2**b, 0])), (1, mat(Q, [[1]]), mat(Q, [[0, -1]]))]
    inner = [(1, Matrix(Q, 1, 2, [2**b] * 2), Matrix(Q, 2, 2, [2**b, 0] * 2)), (1, mat(Q, [[1]]), mat(Q, [[0, -1]]))]
    over = [(-1, Matrix(Q, 1, 2, [Fraction(2**b, 3), Fraction(-1, 3)]), None)]
    assert [first_nonzero_entry(t) for t in (lone, products, inner, over)] == [(0, 1), (0, 0), (0, 0), (0, 0)]


@pytest.mark.parametrize("field", IDENTITY_FIELDS[1:], ids=lambda f: f"F{f.size}")
def test_identity_kernel_reads_negative_and_full_slots(field):
    p = field.size
    # -(1 + (p - 1)) = -p: zero in F_p, a negative slot before the offset
    assert first_nonzero_entry([(-1, mat(field, [[1, 1]]), mat(field, [[1], [p - 1]]))]) is None
    assert first_nonzero_entry([(-1, mat(field, [[1, 1]]), mat(field, [[1], [p - 2 if p > 2 else 0]]))]) == (0, 0)
    # every slot of f . f is 6 (p - 1)^2, the largest at inner dimension 6
    full = Matrix(field, 6, 6, [p - 1] * 36)
    sixes = Matrix(field, 6, 6, [6] * 36)
    assert first_nonzero_entry([(1, full, full), (-1, sixes, None)]) is None
    assert first_nonzero_entry([(1, full, full), (-1, full, full), (1, full, full), (-1, sixes, None)]) is None
    assert first_nonzero_entry([(-1, full, full), (-1, sixes, None)]) == (None if 12 % p == 0 else (0, 0))


def test_identity_kernel_checks_its_terms():
    a = Matrix.identity(Q, 2)
    zero = Matrix.zeros(Q, 2, 2)
    for terms, message in (
        ([(1, a, Matrix.zeros(Q, 3, 2))], "cannot multiply"),
        ([(1, zero, Matrix.zeros(Q, 3, 2))], "cannot multiply"),
        ([(1, a, None), (1, Matrix.zeros(Q, 2, 3), None)], "shape mismatch"),
        ([(1, a, a), (-1, Matrix.zeros(Q, 0, 2), a)], "shape mismatch"),
        ([(1, a, Matrix.identity(GF2, 2))], "field mismatch"),
        ([(1, a, None), (1, Matrix.identity(GF2, 2), None)], "field mismatch"),
        ([(2, a, None)], "sign must be 1 or -1"),
    ):
        for kernel in (first_nonzero_entry, lambda t: sum_entry(t, 0, 0)):
            with pytest.raises(ValueError, match=message):
                kernel(terms)
    assert first_nonzero_entry([]) is None
    for terms, i, j in (([], 0, 0), ([(1, a, a)], 2, 0), ([(1, a, None)], 0, -1)):
        with pytest.raises(IndexError):
            sum_entry(terms, i, j)
    assert first_nonzero_entry([(1, Matrix.zeros(Q, 0, 3), Matrix.zeros(Q, 3, 4))]) is None
    empty_inner = [(1, Matrix.zeros(Q, 3, 0), Matrix.zeros(Q, 0, 4)), (-1, Matrix.zeros(Q, 3, 4), None)]
    assert first_nonzero_entry(empty_inner) is None
    assert sum_entry(empty_inner, 2, 3) == Q.zero and sum_entry([(1, zero, zero)], 1, 1) == Q.zero


# -- trivial products: a zero or identity operand skips both kernels -----------

TRIVIAL_FIELDS = (Q, GF2, PrimeField(101), F_M31)
NEAR_IDENTITIES = ("twice", "half", "off_diagonal", "permutation", "fractional")


@st.composite
def special_square(draw, field, n):
    """The n x n identity, or a near-identity that the identity test must
    refuse: 2I, I/2 (stored as I over 2), I plus one off-diagonal entry, a
    permutation matrix, or a matrix with entry (0, 0) equal to 1 but a
    denominator above 1.  Over F_p, I/2 is I and the last matrix has p - 1
    for its last diagonal entry."""
    identity = Matrix.identity(field, n)
    kind = draw(st.sampled_from(("identity",) + NEAR_IDENTITIES))
    if kind == "twice":
        return identity.scale(2)
    if kind == "half" and not field.finite:
        return identity.scale(Fraction(1, 2))
    if kind == "permutation":
        order = draw(st.permutations(range(n)))
        return Matrix(field, n, n, (int(order[i] == j) for i in range(n) for j in range(n)))
    if kind == "off_diagonal" and n >= 2:
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
        x = draw(scalars(field).filter(lambda x: x != 0))
        return identity + Matrix(field, n, n, (x if (r, c) == (i, j) else 0 for r in range(n) for c in range(n)))
    if kind == "fractional" and n >= 2:
        return Matrix.diagonal(field, [1] * (n - 1) + [field.size - 1 if field.finite else Fraction(1, 2)])
    return identity


@st.composite
def trivial_products(draw):
    """(a, b, special): one factor is a zero matrix of any shape (k x 0, 0 x k
    and 0 x 0 included), an identity or a near-identity, drawn on either
    side of an ordinary factor."""
    field = draw(st.sampled_from(TRIVIAL_FIELDS))
    n, m = (draw(st.integers(min_value=0, max_value=5)) for _ in range(2))
    if draw(st.booleans()):
        special = Matrix.zeros(field, n, draw(st.integers(min_value=0, max_value=5)))
    else:
        special = draw(special_square(field, n))
    if draw(st.booleans()):
        return special, draw(matrices(field, special.cols, m)), special
    return draw(matrices(field, m, special.rows)), special, special


@settings(max_examples=400, deadline=None)
@given(trivial_products())
def test_trivial_products_equal_the_reference_product(case):
    a, b, special = case
    field = a.field
    product = a * b
    entries = chain.from_iterable(reference_product(a.to_rows(), b.to_rows(), a.cols, b.cols))
    # over F_p the reference sums are Fractions over 1 of unreduced residue products
    dense = Matrix(field, a.rows, b.cols, (int(x) for x in entries) if field.finite else entries)
    assert product == dense and hash(product) == hash(dense)
    assert_canonical(product)
    if special == Matrix.identity(field, special.rows) and not (a.is_zero() or b.is_zero()):
        # past the zero test, an identity gives back an operand itself: no kernel ran
        assert product is a or product is b


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS).flatmap(lambda f: st.tuples(matrices(f, max_dim=4), scalars(f))), st.data())
def test_structural_results_are_canonical(case, data):
    m, s = case
    f = m.field
    assert_canonical(m.scale(s))
    assert m.scale(s) == Matrix(f, m.rows, m.cols, (f.mul(s, x) for x in m.entries))
    assert_canonical(Matrix.identity(f, m.rows))
    assert_canonical(Matrix.zeros(f, m.rows, m.cols))
    if m.cols:
        cols = data.draw(st.lists(st.integers(min_value=0, max_value=m.cols - 1), max_size=4))
        taken = m.take_columns(cols)
        assert taken == Matrix(f, m.rows, len(cols), (m.entry(i, j) for i in range(m.rows) for j in cols))
        assert_canonical(taken)
        assert_canonical(m.column_at(cols[0] if cols else 0))
    r0, r1 = sorted(data.draw(st.tuples(*[st.integers(min_value=0, max_value=m.rows)] * 2)))
    c0, c1 = sorted(data.draw(st.tuples(*[st.integers(min_value=0, max_value=m.cols)] * 2)))
    sub = m.submatrix(r0, r1, c0, c1)
    assert sub == Matrix(f, r1 - r0, c1 - c0, (m.entry(i, j) for i in range(r0, r1) for j in range(c0, c1)))
    assert_canonical(sub)


# -- integers over one denominator, against entrywise Fraction arithmetic ------


@st.composite
def wide_operands(draw):
    """Reference rows of wide rationals: a and b of one shape, c multipliable
    on the right of a, a square s, and a scalar; in half the draws the
    entries are mostly zero."""
    n, k, m = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    elements = mostly_zero(wide_rationals(), Fraction(0)) if draw(st.booleans()) else wide_rationals()

    def rows(r, c):
        return [draw(st.lists(elements, min_size=c, max_size=c)) for _ in range(r)]

    square = rows(*(draw(st.integers(min_value=0, max_value=3)),) * 2)
    if square and draw(st.booleans()):  # a scalar matrix
        x = square[0][0]
        square = [[x if i == j else Fraction(0) for j in range(len(square))] for i in range(len(square))]
    return (n, k, m), rows(n, k), rows(n, k), rows(k, m), square, draw(wide_rationals())


@settings(max_examples=150, deadline=None)
@given(wide_operands(), st.data())
def test_wide_rational_operations_match_fractions(case, data):
    (n, k, m), ra, rb, rc, rs, scalar = case
    a, b, c, s = reference_matrix(ra, k), reference_matrix(rb, k), reference_matrix(rc, m), reference_matrix(rs, len(rs))
    assert a.to_rows() == ra and list(a.entries) == [x for row in ra for x in row]
    expected = {
        "product": (a * c, reference_product(ra, rc, k, m), m),
        "sum": (a + b, reference_entrywise(add, ra, rb), k),
        "difference": (a - b, reference_entrywise(sub, ra, rb), k),
        "negation": (-a, reference_entrywise(neg, ra), k),
        "scale": (a.scale(scalar), reference_entrywise(lambda x: scalar * x, ra), k),
        "transpose": (a.transpose(), reference_transpose(ra, k), n),
        "kron": (kron(a, c), reference_kron(ra, rc), k * m),
        "hstack": (hstack([a, b]), [x + y for x, y in zip(ra, rb)], 2 * k),
        "vstack": (vstack([a, b, a]), ra + rb + ra, k),
    }
    r0, r1 = sorted(data.draw(st.tuples(*[st.integers(min_value=0, max_value=n)] * 2)))
    c0, c1 = sorted(data.draw(st.tuples(*[st.integers(min_value=0, max_value=k)] * 2)))
    expected["submatrix"] = (a.submatrix(r0, r1, c0, c1), reference_submatrix(ra, range(r0, r1), range(c0, c1)), c1 - c0)
    if k:
        cols = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=4))
        expected["take_columns"] = (a.take_columns(cols), reference_submatrix(ra, range(n), cols), len(cols))
        j = data.draw(st.integers(min_value=0, max_value=k - 1))
        expected["column_at"] = (a.column_at(j), reference_submatrix(ra, range(n), [j]), 1)
        row_sizes = [r0, n - r0]
        col_sizes = [c0, k - c0]
        blocks = split_blocks(a, row_sizes, col_sizes)
        expected["block_matrix"] = (block_matrix(Q, row_sizes, col_sizes, blocks), ra, k)
        expected["split_blocks"] = (blocks[(1, 1)], reference_submatrix(ra, range(r0, n), range(c0, k)), k - c0)
    for name, (result, reference, cols) in expected.items():
        assert_canonical(result)
        assert result == reference_matrix(reference, cols), name
        assert result.to_rows() == reference, name
    assert s.trace() == reference_trace(rs)
    assert s.is_scalar() == reference_is_scalar(rs)
    assert a.is_zero() == all(x == 0 for row in ra for x in row)
    assert (a - a).is_zero() and (a - a) == Matrix.zeros(Q, n, k)


def test_slicing_drops_a_denominator_factor():
    m = Matrix(Q, 1, 2, [Fraction(1, 2), 1])
    taken = m.take_columns([1])
    assert taken == Matrix(Q, 1, 1, [1]) and hash(taken) == hash(Matrix(Q, 1, 1, [1]))
    assert m.column_at(1) == taken and m.submatrix(0, 1, 1, 2) == taken
    assert_canonical(taken)


def test_a_sum_cancels_a_denominator():
    half = Matrix(Q, 1, 1, [Fraction(1, 2)])
    assert half + half == Matrix(Q, 1, 1, [1])
    assert_canonical(half + half)
    assert half.scale(2) == Matrix(Q, 1, 1, [1])


def test_zero_matrices_have_denominator_one():
    m = Matrix(Q, 2, 2, [Fraction(1, 3), Fraction(2, 5), 0, Fraction(-7, 15)])
    for zero in (m - m, m.scale(0), m * Matrix.zeros(Q, 2, 3), Matrix(Q, 1, 2, [0, 0]), Matrix.zeros(Q, 0, 4)):
        assert zero.is_zero()
        assert zero._den == 1
        assert_canonical(zero)


def test_stored_form_keeps_the_wire_text():
    m = Matrix(Q, 1, 3, [Fraction(-3, 2), 7, Fraction(5, 6)])
    assert list(m.ratios()) == [(-3, 2), (7, 1), (5, 6)]
    assert list(Matrix(F3, 1, 2, [5, -1]).ratios()) == [(2, 1), (2, 1)]
    assert Matrix.from_ratios(Q, 1, 3, [-3, 7, 5], [2, 1, 6], 6) == m
    assert Matrix.from_canonical(F3, 1, 2, [2, 2]) == Matrix(F3, 1, 2, [5, -1])
    with pytest.raises(TypeError):
        Matrix.from_canonical(Q, 1, 3, m.entries)
    assert m.reshaped(3, 1) == m.transpose()


# -- zero-diagonal form -----------------------------------------------------------


def traceless(field, rows):
    """The square matrix ``rows`` with its last diagonal entry replaced so
    that the trace is zero."""
    n = len(rows)
    m = Matrix.from_rows(field, rows, n)
    return m - Matrix.diagonal(field, [0] * (n - 1) + [m.trace()]) if n else m


def assert_zero_diagonal_similarity(m):
    """zero_diagonal_form(m) = (B, B^-1, R): B B^-1 = I, B^-1 m B = R, R has
    a zero diagonal, and all three are in the canonical stored form."""
    basis, basis_inv, reduced = got = zero_diagonal_form(m)
    for x in got:
        assert_canonical(x)
    assert basis * basis_inv == Matrix.identity(m.field, m.rows)
    assert basis_inv * m * basis == reduced
    assert all(reduced.entry(i, i) == 0 for i in range(m.rows))


@st.composite
def traceless_matrices(draw):
    """Traceless n x n matrices, n <= 10, dense, sparse (about a quarter of
    the entries nonzero) or diagonal, with entries 0, 1, -1 or any residue
    over F_p and small fractions over Q; the last diagonal entry is set by
    the trace, and nonzero scalars, which have no zero-diagonal form, are
    left out."""
    field = draw(st.sampled_from(ZERO_DIAGONAL_FIELDS))
    n = draw(st.integers(min_value=1, max_value=10))
    style = draw(st.sampled_from(("dense", "sparse", "diagonal")))
    if field.finite:
        element = st.sampled_from([0, 1, field.size - 1]) | st.integers(min_value=0, max_value=field.size - 1)
    else:
        element = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    off = {"dense": element, "sparse": st.sampled_from([0, 0, 0]) | element, "diagonal": st.just(0)}[style]
    rows = [[draw(element if i == j and style != "sparse" else off) for j in range(n)] for i in range(n)]
    m = traceless(field, rows)
    assume(m.is_zero() or not m.is_scalar())
    return m


@settings(max_examples=300, deadline=None)
@given(traceless_matrices())
def test_zero_diagonal_form_is_a_zero_diagonal_similarity(m):
    assert_zero_diagonal_similarity(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=10).flatmap(lambda n: matrices(Q, n, n, elements=wide_rationals())))
def test_zero_diagonal_form_on_wide_rationals(m):
    m = traceless(Q, m.to_rows())
    if not (m.is_scalar() and not m.is_zero()):
        assert_zero_diagonal_similarity(m)


@pytest.mark.parametrize(
    "field, rows",
    [
        # u = w = 0, then w = s e_j
        (GF2, [[0, 0, 0], [0, 1, 0], [0, 0, 1]]),
        (F3, [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        # w = 0 and u has no zero, then w has no zero and u = 0
        (GF2, [[0, 1, 1], [0, 1, 0], [0, 0, 1]]),
        (GF2, [[0, 0, 0], [1, 1, 0], [1, 0, 1]]),
        (F3, [[0, 1, 2, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        (F3, [[0, 0, 0, 0], [1, 1, 0, 0], [2, 0, 1, 0], [1, 0, 0, 1]]),
        # w_j / w_(j+1) != w_(j+1) / w_j, and the mirror
        (F5, [[0] * 6] + [[w] + [int(i == j) for j in range(5)] for i, w in enumerate([1, 2, 3, 4, 1])]),
        (F5, [[0, 1, 2, 3, 4, 1]] + [[0] + [int(i == j) for j in range(5)] for i in range(5)]),
        # reached at j = 2, after position 1
        (F3, [[0, 1, 0, 0, 0], [2, 0, 0, 1, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]),
        (GF2, [[1, 1, 0, 0], [1, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]),
    ],
)
def test_zero_diagonal_form_escapes_a_scalar_trailing_block(field, rows):
    # once position j - 1 is zero, the trailing block from j is a nonzero
    # scalar s I (p | n - j), which only transvections through index j - 1
    # undo; w and u are column and row j - 1 of that block's rows and columns
    m = Matrix.from_rows(field, rows)
    assert_zero_diagonal_similarity(m)


@pytest.mark.parametrize(
    "field, rows",
    [
        # row and column 0 are zero off the diagonal: R_11 != R_00 makes (1, 0) nonzero
        (Q, [[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
        (F5, [[2, 0, 0], [0, 3, 0], [0, 0, 0]]),
        # every diagonal entry equals R_00, and row 1 has R_12 != 0, which makes (0, 2) nonzero
        (GF2, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        (F3, [[2, 0, 0], [0, 2, 0], [0, 1, 2]]),
    ],
)
def test_zero_diagonal_form_makes_a_pivot_where_it_has_none(field, rows):
    assert_zero_diagonal_similarity(Matrix.from_rows(field, rows))


def test_zero_diagonal_form_refuses_what_has_no_zero_diagonal_form():
    with pytest.raises(ValueError, match="square"):
        zero_diagonal_form(Matrix.zeros(Q, 2, 3))
    with pytest.raises(ValueError, match="trace"):
        zero_diagonal_form(mat(Q, [[1, 0], [0, 0]]))
    with pytest.raises(ValueError, match="scalar"):
        zero_diagonal_form(Matrix.identity(GF2, 2))
    for n in range(3):
        zero = Matrix.zeros(F3, n, n)
        assert zero_diagonal_form(zero) == (Matrix.identity(F3, n), Matrix.identity(F3, n), zero)


def _low_rank(field):
    """Up to 10 x 20, the product of two factors through at most 5 dimensions."""
    shape = st.tuples(*(st.integers(min_value=0, max_value=k) for k in (10, 5, 20)))
    return shape.flatmap(lambda s: st.tuples(matrices(field, s[0], s[1]), matrices(field, s[1], s[2]))).map(
        lambda pair: pair[0] * pair[1]
    )


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from(KERNEL_FIELDS).flatmap(matrices),
        matrices(Q, max_dim=5, elements=wide_rationals()),
        # the sizes of the fp set-up's rank tests and inverses
        st.tuples(st.sampled_from(KERNEL_FIELDS), st.integers(0, 10), st.integers(0, 20)).flatmap(
            lambda case: matrices(*case)
        ),
        st.sampled_from(KERNEL_FIELDS).flatmap(_low_rank),
    )
)
def test_pivot_columns_are_row_reduces_pivots(m):
    # pivot_columns eliminates forward only: an echelon form has the reduced form's pivots
    assert pivot_columns(m) == row_reduce(m)[1] == reference_rref(m)[2]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS).flatmap(lambda f: matrices(f, max_dim=4).filter(lambda m: m.is_square)))
def test_characteristic_polynomial_matches_the_leibniz_sum(m):
    assert list(characteristic_polynomial(m)) == reference_characteristic_polynomial(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=4).flatmap(lambda n: matrices(Q, n, n, elements=wide_rationals())))
def test_characteristic_polynomial_on_wide_rationals(m):
    assert list(characteristic_polynomial(m)) == reference_characteristic_polynomial(m)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(KERNEL_FIELDS).flatmap(
        lambda f: st.tuples(
            matrices(f, max_dim=4),
            st.lists(st.integers(min_value=-6, max_value=6), max_size=4),
            st.lists(st.integers(min_value=-6, max_value=6), max_size=4),
        )
    )
)
def test_index_quotients_match_field_division(case):
    m, rows, cols = case
    rows, cols = (rows * 4)[: m.rows] or [0] * m.rows, (cols * 4)[: m.cols] or [0] * m.cols
    field = m.field
    singular = field.finite and any(r != c and (r - c) % field.size == 0 for r in rows for c in cols)
    if singular:
        with pytest.raises(ValueError, match=f"not invertible mod {field.size}"):
            index_quotients(m, rows, cols)
        return
    got = index_quotients(m, rows, cols)
    assert got == reference_value_quotients(m, rows, cols)
    assert_canonical(got)
    if m.is_square and (not field.finite or field.size >= m.rows):
        square = index_quotients(m)
        assert square == reference_value_quotients(m, range(m.rows), range(m.rows))


def test_index_quotients_of_zero_still_check_the_differences():
    for field, shape in ((Q, (3, 2)), (F3, (2, 2)), (F_M31, (0, 4))):
        zero = Matrix.zeros(field, *shape)
        assert index_quotients(zero, [5, -1, 2][: shape[0]], [0, 4, 7, 9][: shape[1]]) == zero
    assert index_quotients(Matrix.zeros(Q, 4, 4)) == Matrix.zeros(Q, 4, 4)
    # a zero m is refused exactly where a nonzero one is
    for m in (Matrix.zeros(F3, 4, 4), Matrix.identity(F3, 4)):
        with pytest.raises(ValueError, match="value difference 3 is not invertible mod 3"):
            index_quotients(m)
    with pytest.raises(ValueError, match="value difference -6 is not invertible mod 3"):
        index_quotients(Matrix.zeros(F3, 1, 2), [1], [2, 7])


def test_region_is_zero_reads_in_place():
    m = mat(Q, [[1, 0, 0], [0, 0, Fraction(1, 2)], [0, 0, 0]])
    assert m.region_is_zero(1, 3, 0, 2) and m.region_is_zero(2, 3, 0, 3) and m.region_is_zero(0, 0, 0, 3)
    assert not m.region_is_zero(0, 1, 0, 1) and not m.region_is_zero(1, 2, 1, 3)
    with pytest.raises(IndexError):
        m.region_is_zero(0, 4, 0, 1)


def test_split_blocks_cuts_only_the_positions_asked_for():
    m = mat(Q, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    every = split_blocks(m, [1, 2], [2, 1])
    some = split_blocks(m, [1, 2], [2, 1], [(0, 1), (1, 0)])
    assert some == {pos: every[pos] for pos in ((0, 1), (1, 0))}
