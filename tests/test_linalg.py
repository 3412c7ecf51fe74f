from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincomm.fields import GF2, RATIONALS as Q, PrimeField
from chaincomm.linalg import (
    complement_basis,
    image_basis,
    inverse,
    is_invertible,
    kernel_basis,
    rank,
    rref,
    solve_linear,
    split_basis,
    sylvester_operator,
    sylvester_solve,
)
from chaincomm.matrices import Matrix, hstack, kron

from helpers import (
    KERNEL_FIELDS,
    assert_canonical,
    mat,
    matrices,
    reference_complement_basis,
    reference_rank,
    reference_kernel,
    reference_rref,
    reference_solution,
    seeds,
    wide_rationals,
)

F3 = PrimeField(3)
FIELDS = (Q, GF2, F3)


def random_matrix(rng, field, rows, cols):
    if field.finite:
        return Matrix(field, rows, cols, (rng.randrange(field.size) for _ in range(rows * cols)))
    return Matrix(field, rows, cols, (Fraction(rng.randint(-4, 4)) for _ in range(rows * cols)))


# -- rref --------------------------------------------------------------------


def test_rref_identity_and_zero():
    ident = Matrix.identity(Q, 2)
    r = rref(ident)
    assert r.reduced == ident and r.transform == ident and r.pivots == (0, 1)
    z = Matrix.zeros(Q, 2, 2)
    r = rref(z)
    assert r.reduced == z and r.transform == ident and r.pivots == ()


def test_rref_already_reduced_over_f2():
    m = mat(GF2, [[0, 1], [0, 0]])
    r = rref(m)
    assert r.reduced == m
    assert r.transform == Matrix.identity(GF2, 2)
    assert r.pivots == (1,)
    assert r.transform * m == r.reduced


def test_rref_transform_reproduces_reduction():
    for seed, rng in seeds(40):
        field = FIELDS[seed % 3]
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = random_matrix(rng, field, rows, cols)
        r = rref(m)
        assert r.transform * m == r.reduced
        assert is_invertible(r.transform)
        assert list(r.pivots) == sorted(r.pivots)
        # pivots have a 1 in their row and zeros elsewhere in their column
        for row_idx, col in enumerate(r.pivots):
            assert r.reduced.entry(row_idx, col) == field.one
            for other in range(rows):
                if other != row_idx:
                    assert r.reduced.entry(other, col) == field.zero


# -- kernel / image ----------------------------------------------------------


def test_kernel_and_image_examples():
    assert kernel_basis(Matrix.identity(Q, 3)).cols == 0
    assert kernel_basis(Matrix.zeros(Q, 2, 2)) == Matrix.identity(Q, 2)
    k = kernel_basis(mat(Q, [[0, 1], [0, 0]]))
    assert k.cols == 1 and k.column_at(0) == Matrix.column(Q, [1, 0])

    assert image_basis(Matrix.zeros(Q, 2, 2)).cols == 0
    img = image_basis(mat(Q, [[0, 1], [0, 0]]))
    assert img.cols == 1 and img.column_at(0) == Matrix.column(Q, [1, 0])
    assert image_basis(Matrix.identity(Q, 3)) == Matrix.identity(Q, 3)


def test_rank_nullity_on_random_matrices():
    for seed, rng in seeds(60):
        field = FIELDS[seed % 3]
        m = random_matrix(rng, field, rng.randint(0, 5), rng.randint(0, 5))
        k = kernel_basis(m)
        img = image_basis(m)
        assert k.cols + img.cols == m.cols
        if k.cols:
            assert (m * k).is_zero()
        assert rank(k) == k.cols
        assert rank(img) == img.cols


# -- complements -------------------------------------------------------------


def test_complement_examples():
    inside = Matrix.column(Q, [1, 0])
    result = complement_basis(inside, Matrix.identity(Q, 2))
    assert result == Matrix.column(Q, [0, 1])

    empty_inside = Matrix.zeros(Q, 2, 0)
    assert complement_basis(empty_inside, Matrix.identity(Q, 2)) == Matrix.identity(Q, 2)

    diag = Matrix.column(GF2, [1, 1])
    picked = complement_basis(diag, Matrix.identity(GF2, 2))
    assert picked == Matrix.column(GF2, [1, 0])  # greedy takes the first standard vector


def test_complement_rejects_dependent_inside():
    dependent = mat(Q, [[1, 2], [1, 2]]).transpose()  # two proportional columns
    dependent = mat(Q, [[1, 1], [2, 2]])
    with pytest.raises(ValueError):
        complement_basis(dependent, Matrix.identity(Q, 2))


def test_complement_spans_ambient():
    for seed, rng in seeds(30):
        field = FIELDS[seed % 3]
        n = rng.randint(1, 4)
        ambient = random_matrix(rng, field, n, rng.randint(1, 4))
        img = image_basis(ambient)
        take = rng.randint(0, img.cols)
        inside = img.take_columns(list(range(take)))
        extension = complement_basis(inside, ambient)
        combined = hstack([inside, extension])
        assert rank(combined) == rank(ambient)
        assert combined.cols == rank(ambient)


# -- solving -----------------------------------------------------------------


def test_solve_examples():
    ident = Matrix.identity(Q, 2)
    b = mat(Q, [[1], [7]])
    assert solve_linear(ident, b) == b
    assert solve_linear(Matrix.zeros(Q, 2, 2), b) is None
    assert solve_linear(mat(Q, [[2]]), mat(Q, [[3]])) == mat(Q, [[Fraction(3, 2)]])


def test_solve_matches_rank_criterion():
    for seed, rng in seeds(60):
        field = FIELDS[seed % 3]
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        a = random_matrix(rng, field, rows, cols)
        b = random_matrix(rng, field, rows, rng.randint(1, 2))
        x = solve_linear(a, b)
        solvable = rank(hstack([a, b])) == rank(a)
        assert (x is not None) == solvable
        if x is not None:
            assert a * x == b


def test_inverse_and_is_invertible():
    assert is_invertible(Matrix.zeros(Q, 0, 0))
    assert not is_invertible(Matrix.zeros(Q, 1, 1))
    assert not is_invertible(Matrix.zeros(Q, 2, 3))
    m = mat(GF2, [[1, 1], [0, 1]])
    assert is_invertible(m)
    assert inverse(m) * m == Matrix.identity(GF2, 2)
    with pytest.raises(ValueError):
        inverse(Matrix.zeros(Q, 1, 1))


# -- Sylvester ---------------------------------------------------------------


def test_sylvester_examples():
    x = sylvester_solve(mat(Q, [[2]]), mat(Q, [[1]]), mat(Q, [[3]]))
    assert x == mat(Q, [[3]])

    zero1 = Matrix.zeros(Q, 1, 1)
    assert sylvester_solve(zero1, zero1, mat(Q, [[1]])) is None

    a = mat(Q, [[1, 0], [0, 2]])
    b = mat(Q, [[3]])
    c = mat(Q, [[1], [1]])
    x = sylvester_solve(a, b, c)
    assert x == mat(Q, [[Fraction(-1, 2)], [-1]])


def test_sylvester_dimension_validation():
    with pytest.raises(ValueError):
        sylvester_solve(mat(Q, [[1, 0]]), mat(Q, [[1]]), mat(Q, [[1]]))
    with pytest.raises(ValueError):
        sylvester_solve(mat(Q, [[1]]), mat(Q, [[1]]), mat(Q, [[1], [2]]))


def test_sylvester_operator_kronecker_form():
    a = mat(Q, [[1, 2], [3, 4]])
    b = mat(Q, [[5]])
    op = sylvester_operator(a, b)
    assert op == kron(a, Matrix.identity(Q, 1)) - kron(Matrix.identity(Q, 2), b.transpose())


def test_sylvester_solution_and_uniqueness():
    for seed, rng in seeds(60):
        field = FIELDS[seed % 3]
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        a = random_matrix(rng, field, m, m)
        b = random_matrix(rng, field, n, n)
        c = random_matrix(rng, field, m, n)
        op = sylvester_operator(a, b)
        x = sylvester_solve(a, b, c)
        if x is not None:
            assert a * x - x * b == c
        rhs = Matrix(field, m * n, 1, c.entries)
        solvable = is_invertible(op) or rank(hstack([op, rhs])) == rank(op)
        assert (x is not None) == solvable
        if is_invertible(op):
            # full-rank square system: the solution space is trivial
            assert x is not None
            assert kernel_basis(op).cols == 0


def test_sylvester_empty_edge_cases():
    empty = Matrix.zeros(Q, 0, 0)
    b = mat(Q, [[2]])
    x = sylvester_solve(empty, b, Matrix.zeros(Q, 0, 1))
    assert x is not None and x.shape == (0, 1)
    assert sylvester_operator(empty, b).shape == (0, 0)
    assert is_invertible(sylvester_operator(empty, b))


# -- the field-specialised kernel against the field-generic reference ---------

field_matrices = st.sampled_from(KERNEL_FIELDS).flatmap(matrices)


@settings(max_examples=300, deadline=None)
@given(field_matrices)
def test_rref_matches_reference(m):
    r = rref(m)
    reduced, transform, pivots = reference_rref(m)
    assert (r.reduced, r.transform, r.pivots) == (reduced, transform, pivots)
    assert r.transform * m == r.reduced
    assert rank(m) == len(r.pivots) == reference_rank(m)
    assert is_invertible(m) == (m.is_square and reference_rank(m) == m.rows)
    assert_canonical(r.reduced)
    assert_canonical(r.transform)
    assert_canonical(kernel_basis(m))
    assert_canonical(image_basis(m))


@st.composite
def complement_cases(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(min_value=0, max_value=5))
    ambient = draw(matrices(field, rows=n))
    if ambient.cols and draw(st.booleans()):
        # ambient columns, possibly repeated: both dependent and independent
        indices = draw(st.lists(st.integers(min_value=0, max_value=ambient.cols - 1), max_size=3))
        inside = ambient.take_columns(indices)
    else:
        inside = draw(matrices(field, rows=n, max_dim=3))
    return inside, ambient


@settings(max_examples=300, deadline=None)
@given(complement_cases())
def test_complement_basis_matches_greedy_reference(case):
    inside, ambient = case
    try:
        expected = reference_complement_basis(inside, ambient)
    except ValueError:
        with pytest.raises(ValueError):
            complement_basis(inside, ambient)
        return
    result = complement_basis(inside, ambient)
    assert result == expected
    assert_canonical(result)


def test_split_basis_examples():
    # d has pivot 1 and free columns 0, 2; the cocycle e_2 - 2 e_1 lifts
    # cohomology beside the boundary e_0, and e_1 maps onto the image
    d = mat(Q, [[0, 1, 2]])
    basis, basis_inv, pivots = split_basis(mat(Q, [[1], [0], [0]]), d)
    assert pivots == (1,)
    assert basis == mat(Q, [[1, 0, 0], [0, -2, 1], [0, 1, 0]])
    assert basis_inv == inverse(basis)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS).flatmap(matrices))
def test_greedy_unit_complement_of_a_kernel_is_the_pivot_columns(d):
    identity = Matrix.identity(d.field, d.cols)
    assert complement_basis(kernel_basis(d), identity) == identity.take_columns(rref(d).pivots)


@st.composite
def linear_systems(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(min_value=0, max_value=5))
    return draw(matrices(field, rows=n)), draw(matrices(field, rows=n, max_dim=2))


@settings(max_examples=200, deadline=None)
@given(linear_systems())
def test_solve_linear_matches_transform_reference(case):
    a, b = case
    _, transform, pivots = reference_rref(a)
    c = transform * b
    field = a.field
    if any(c.entry(r, j) != 0 for r in range(len(pivots), a.rows) for j in range(b.cols)):
        expected = None
    else:
        x = [[field.zero] * b.cols for _ in range(a.cols)]
        for r, col in enumerate(pivots):
            x[col] = list(c.row(r))
        expected = Matrix(field, a.cols, b.cols, (e for row in x for e in row))
    result = solve_linear(a, b)
    assert result == expected
    if result is not None:
        assert_canonical(result)


# -- the Q kernel on wide rationals --------------------------------------------


def test_rref_keeps_the_scale_of_rows_below_the_rank():
    r = rref(Matrix(Q, 2, 1, [0, Fraction(1, 2)]))
    assert r.reduced == mat(Q, [[1], [0]]) and r.pivots == (0,)
    assert r.transform == mat(Q, [[0, 2], [1, 0]])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_q_kernel_on_wide_rationals_matches_references(data):
    m = data.draw(matrices(Q, max_dim=4, elements=wide_rationals()))
    r = rref(m)
    assert (r.reduced, r.transform, r.pivots) == reference_rref(m)
    kernel = kernel_basis(m)
    assert kernel == reference_kernel(m)
    results = [r.reduced, r.transform, kernel]

    b = data.draw(matrices(Q, rows=m.rows, max_dim=2, elements=wide_rationals()))
    solution = solve_linear(m, b)
    assert solution == reference_solution(m, b)
    if solution is not None:
        results.append(solution)

    for result in results:
        assert_canonical(result)
