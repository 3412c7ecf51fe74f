import dataclasses
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chaincomm import complexes, witnesses
from chaincomm.complexes import (
    ChainComplex,
    ChainEndomorphism,
    commutator,
    homotopy_boundary,
    subtract,
    trace_report,
    validate_chain_map,
)
from chaincomm.errors import (
    FieldTooSmall,
    SelectionExhausted,
    StretchObstruction,
    TraceObstruction,
)
from chaincomm.fields import GF2, RATIONALS as Q, PrimeField
from chaincomm.generate import random_chain_map, random_complex, random_endomorphism, random_homotopy
from chaincomm.linalg import inverse, is_invertible, sylvester_operator, sylvester_solve
from chaincomm.matrices import Matrix, characteristic_polynomial, enumerate_matrices, index_quotients
from chaincomm.splitting import extract_blocks, split_complex
from chaincomm.jsonio import parse_document, serialize_document
from chaincomm.verify import commutant_set, verify_witness
from chaincomm.witnesses import (
    analyze,
    commutator_decomposition,
    commutator_witness,
    commutator_witness_detailed,
    homotopy_commutator_witness,
    homotopy_pointwise_witness,
    pointwise_commutator_witness,
    prescribed_trace_nullhomotopy,
    select_separated_pairs,
    zero_diagonal_basis,
)

from helpers import (
    F101,
    F_M31,
    alternating_reflection,
    assert_canonical,
    corner_window,
    exact_two_term,
    mat,
    matrices,
    reference_commutator_factors,
    scalars,
    seeds,
    zero_differential_complex,
)

F3 = PrimeField(3)

# Over F_2, C([[0,0],[1,0]]) consists of these six matrices (used as the
# expected containment set for decomposition factors).
LOWER_CORNER_COMMUTANT_F2 = {
    mat(GF2, rows)
    for rows in (
        [[0, 0], [0, 1]],
        [[0, 0], [1, 0]],
        [[0, 0], [1, 1]],
        [[1, 0], [0, 0]],
        [[1, 0], [1, 0]],
        [[1, 0], [1, 1]],
    )
}
UPPER_CORNER_COMMUTANT_F2 = {
    mat(GF2, rows)
    for rows in (
        [[0, 0], [0, 1]],
        [[0, 1], [0, 0]],
        [[0, 1], [0, 1]],
        [[1, 0], [0, 0]],
        [[1, 1], [0, 0]],
        [[1, 1], [0, 1]],
    )
}


# -- single-matrix decomposition ------------------------------------------------


def test_decomposition_of_zero_matrices():
    for n in range(4):
        p, q = commutator_decomposition(Matrix.zeros(Q, n, n))
        assert p.is_zero() and q.is_zero()


def test_decomposition_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        commutator_decomposition(Matrix.identity(Q, 2))


def test_decomposition_lower_corner_over_f2():
    m = mat(GF2, [[0, 0], [1, 0]])
    p, q = commutator_decomposition(m)
    assert p * q - q * p == m
    assert p in LOWER_CORNER_COMMUTANT_F2


def test_decomposition_every_traceless_2x2_over_f3():
    # oracle: the set of all commutators over F_3 2x2, by full enumeration
    commutators = set()
    mats = list(enumerate_matrices(F3, 2, 2))
    for a in mats:
        for b in mats:
            commutators.add(a * b - b * a)
    traceless = [m for m in mats if m.trace() == 0]
    assert len(traceless) == 27
    assert set(traceless) == commutators
    for m in traceless:
        p, q = commutator_decomposition(m)
        assert p * q - q * p == m


def test_decomposition_1000_random_rational_matrices():
    import random

    rng = random.Random(12345)
    for _ in range(1000):
        n = rng.randint(1, 5)
        entries = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
        # force trace zero on the last diagonal entry
        entries[n - 1][n - 1] = -sum(entries[i][i] for i in range(n - 1))
        m = mat(Q, entries)
        p, q = commutator_decomposition(m)
        assert p * q - q * p == m


def test_scalar_traceless_matrices_in_positive_characteristic():
    i2 = Matrix.identity(GF2, 2)
    p, q = commutator_decomposition(i2)
    assert p * q - q * p == i2
    one_f3 = Matrix.identity(F3, 3)
    p, q = commutator_decomposition(one_f3)
    assert p * q - q * p == one_f3
    doubled = Matrix.identity(F3, 3).scale(2)
    p, q = commutator_decomposition(doubled)
    assert p * q - q * p == doubled


def test_field_too_small_cases():
    with pytest.raises(FieldTooSmall):
        commutator_decomposition(Matrix.identity(GF2, 4))  # scalar, fallback out of bounds
    with pytest.raises(FieldTooSmall):
        # non-scalar traceless 4x4 over F_2: no 4 distinct elements, size > 3
        m = Matrix.zeros(GF2, 4, 4)
        m = mat(GF2, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        commutator_decomposition(m)


SMALLEST_PRIME_AT_LEAST = {1: 2, 2: 2, 3: 3, 4: 5, 5: 5, 6: 7, 7: 7, 8: 11}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.sampled_from([Q, F_M31, PrimeField(SMALLEST_PRIME_AT_LEAST[n])]).flatmap(
            lambda field: matrices(field, n, n)
        )
    )
)
def test_decomposition_equals_the_diagonal_formulas(m):
    # p = n is the edge of the F_p inverse table: every difference 1..n-1 is used
    n = m.rows
    m = m - Matrix.diagonal(m.field, [0] * (n - 1) + [m.trace()])
    if m.is_zero() or m.is_scalar():
        return
    got = commutator_decomposition(m)
    assert got == reference_commutator_factors(m)
    for x in got:
        assert_canonical(x)


def test_index_quotients_need_every_difference_invertible():
    with pytest.raises(ValueError, match="not invertible mod 3"):
        index_quotients(Matrix.zeros(F3, 4, 4))
    assert index_quotients(mat(F3, [[0, 1, 2], [1, 0, 1], [2, 2, 0]])) == mat(F3, [[0, 2, 2], [1, 0, 2], [1, 2, 0]])
    assert index_quotients(mat(Q, [[0, 1, 2], [1, 0, 1], [Fraction(1, 3), 2, 0]])) == mat(
        Q, [[0, -1, -1], [1, 0, -1], [Fraction(1, 6), 2, 0]]
    )


def test_zero_diagonal_basis_on_awkward_diagonals():
    # trailing-scalar escape in characteristic 2 and 3
    for m in (Matrix.diagonal(GF2, [0, 1, 1]), Matrix.diagonal(F3, [0, 1, 1, 1])):
        p = zero_diagonal_basis(m)
        conj = inverse(p) * m * p
        assert all(conj.entry(i, i) == 0 for i in range(m.rows))


def test_zero_diagonal_basis_random_rational():
    import random

    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 5)
        entries = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        entries[n - 1][n - 1] = -sum(entries[i][i] for i in range(n - 1))
        m = mat(Q, entries)
        if m.is_scalar():
            continue
        p = zero_diagonal_basis(m)
        conj = inverse(p) * m * p
        assert all(conj.entry(i, i) == 0 for i in range(n))


# -- commutant enumeration -------------------------------------------------------


def test_commutant_sets_of_the_corner_matrices():
    assert commutant_set(mat(GF2, [[0, 0], [1, 0]])) == frozenset(LOWER_CORNER_COMMUTANT_F2)
    assert commutant_set(mat(GF2, [[0, 1], [0, 0]])) == frozenset(UPPER_CORNER_COMMUTANT_F2)


def test_commutant_of_zero_is_everything():
    assert commutant_set(Matrix.zeros(GF2, 1, 1)) == frozenset(
        {Matrix.zeros(GF2, 1, 1), Matrix.identity(GF2, 1)}
    )


def test_commutant_rejects_rationals():
    with pytest.raises(ValueError):
        commutant_set(Matrix.zeros(Q, 1, 1))


# -- separated pair selection -----------------------------------------------------


def assert_separated(sel):
    """The three separation families of a PairSelection hold at every index:
    mixed (p_i against s_i), right-factor (q_{i+1} against q_i) and cross
    (s_i against p_{i+1}); vacuous where a side is missing or empty."""

    def separated(a, b):
        return a is None or b is None or a.rows == 0 or b.rows == 0 or is_invertible(sylvester_operator(a, b))

    for i in range(max(len(sel.first_pairs), len(sel.second_pairs)) + 1):
        assert separated(sel.first_left(i), sel.second_left(i)), f"mixed separation fails at index {i}"
        assert separated(sel.first_right(i + 1), sel.first_right(i)), f"right-factor separation fails at index {i}"
        assert separated(sel.second_left(i), sel.first_left(i + 1)), f"cross separation fails at index {i}"


def test_selection_on_scalar_zero_families():
    sel = select_separated_pairs([Matrix.zeros(Q, 1, 1)] * 2, [Matrix.zeros(Q, 1, 1)] * 2, Q)
    # 1x1 conditions reduce to nonzero scalar differences
    assert_separated(sel)


def test_selection_empty_input_is_vacuous():
    sel = select_separated_pairs([], [], Q)
    assert sel.first_pairs == () and sel.second_pairs == ()


def test_selection_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        select_separated_pairs([Matrix.identity(Q, 1)], [], Q)


def test_selection_exhausts_on_the_f2_counterexample():
    m = mat(GF2, [[0, 0], [1, 0]])
    n = mat(GF2, [[0, 1], [0, 0]])
    with pytest.raises(SelectionExhausted):
        select_separated_pairs([m, m], [n, Matrix.zeros(GF2, 0, 0)], GF2)


def test_selection_random_rational_families():
    import random

    rng = random.Random(3)
    for _ in range(10):
        count = rng.randint(1, 3)

        def traceless(nmax):
            n = rng.randint(0, nmax)
            entries = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if n:
                entries[n - 1][n - 1] = -sum(entries[i][i] for i in range(n - 1))
            return mat(Q, entries) if n else Matrix.zeros(Q, 0, 0)

        first = [traceless(3) for _ in range(count + 1)]
        second = [traceless(3) for _ in range(count)]
        sel = select_separated_pairs(first, second, Q)
        for m, (p, q) in zip(first, sel.first_pairs):
            assert p * q - q * p == m
        for m, (s, t) in zip(second, sel.second_pairs):
            assert s * t - t * s == m
        assert_separated(sel)


def test_commutator_witness_selection_is_separated_at_every_index():
    for seed, rng in seeds(12, start=100):
        c = random_complex(rng, Q, max_dim=4, length=1 + seed % 4)
        phi = random_endomorphism(rng, c, ensure="t2")
        _, detail = commutator_witness_detailed(phi)
        assert_separated(detail.selection)


# -- separation and Sylvester solves without Kronecker systems ---------------------
# The selection reads separation off spectra (left factors with a known
# eigenbasis) or off characteristic polynomials (chi_b(a) invertible), and
# theorem 2 solves its Sylvester equations in closed form; each is held equal
# to the Kronecker system it replaced.

SEPARATION_FIELDS = (Q, GF2, F3, F101)


def shift_candidates(field):
    return field.elements() if field.finite else range(8)


@st.composite
def traceless(draw, field, max_dim=3):
    """A traceless square matrix of size 0..max_dim: zero, scalar (nonzero
    only where the characteristic divides the size, which the factorization
    answers by exhaustive search), or random."""
    n = draw(st.integers(min_value=0, max_value=max_dim))
    kind = draw(st.sampled_from(("zero", "scalar", "random")))
    if kind == "scalar":
        m = Matrix.identity(field, n).scale(draw(scalars(field)))
        return m if field.is_zero(m.trace()) else Matrix.zeros(field, n, n)
    m = draw(matrices(field, n, n)) if kind == "random" else Matrix.zeros(field, n, n)
    return m - Matrix.diagonal(field, [0] * (n - 1) + [m.trace()]) if n else m


def factored(m):
    try:
        return witnesses._factored(m)
    except FieldTooSmall:
        assume(False)


def square_pair(field, max_dim=3):
    side = st.integers(min_value=0, max_value=max_dim)
    return st.tuples(side, side).flatmap(lambda ns: st.tuples(matrices(field, ns[0], ns[0]), matrices(field, ns[1], ns[1])))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SEPARATION_FIELDS).flatmap(
        lambda f: st.tuples(traceless(f), traceless(f), traceless(f), st.sampled_from(list(shift_candidates(f))[:8]))
    )
)
def test_shift_test_equals_the_kronecker_verdict(case):
    a, b, c, scalar = case
    x, y, z = factored(a), factored(b), factored(c)
    assume(all(f.eigenvalues is not None for f in (x, y, z)))
    assert all(f.p * f.q - f.q * f.p == m for f, m in ((x, a), (y, b), (z, c)))
    shifted = y.shifted(scalar).p
    assert shifted == witnesses._shift(y.p, scalar)

    def kronecker(f):
        return is_invertible(sylvester_operator(f.p, shifted))

    assert witnesses._shift_test([x], y)(scalar) == kronecker(x)
    assert witnesses._shift_test([x, z], y)(scalar) == (kronecker(x) and kronecker(z))


def test_selection_refuses_factors_without_an_eigenbasis():
    # over F_2 the traceless 2x2 identity is scalar, so only exhaustive
    # search factors it, and its factors carry no spectrum for the shift test
    # or the eigenbasis solves
    identity = Matrix.identity(GF2, 2)
    assert witnesses._factored(identity).eigenvalues is None
    for first, second in (([identity], []), ([Matrix.zeros(GF2, 1, 1)] * 2, [identity])):
        with pytest.raises(FieldTooSmall):
            select_separated_pairs(first, second, GF2)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SEPARATION_FIELDS).flatmap(square_pair))
def test_characteristic_polynomial_test_equals_the_kronecker_verdict(pair):
    a, b = pair
    chi = characteristic_polynomial(b)
    assert len(chi) == b.rows + 1 and chi[-1] == 1
    test = witnesses._coprime(chi, a)
    assert (test is not None) == is_invertible(sylvester_operator(a, b))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SEPARATION_FIELDS).flatmap(
        lambda f: st.tuples(traceless(f), traceless(f), st.randoms(use_true_random=False))
    )
)
def test_eigenbasis_solves_equal_sylvester_solve(case):
    # mixed (p_i against s_i) and cross (s_i against p_{i+1}) equations
    a, b, rng = case
    x, y = factored(a), factored(b)
    assume(x.eigenvalues is not None and y.eigenvalues is not None)
    field = a.field
    separates = witnesses._shift_test([x], y)
    scalar = next((c for c in shift_candidates(field) if separates(c)), None)
    assume(scalar is not None)
    y = y.shifted(scalar)
    values = list(field.elements())[:5] if field.finite else [Fraction(k, 3) for k in range(-4, 5)]
    for left, right in ((x, y), (y, x)):
        g = Matrix(field, left.p.rows, right.p.rows, [rng.choice(values) for _ in range(left.p.rows * right.p.rows)])
        assert witnesses._eigen_solve(left, right, g) == sylvester_solve(left.p, right.p, g)


def test_eigenbasis_solves_against_zero_blocks():
    # a zero block factors with B = I, an ordinary eigenbasis: a solve
    # against it takes the same closed form, and the products by I are the
    # product kernel's to skip
    identity = Matrix.identity(Q, 2)
    zero = witnesses._factored(Matrix.zeros(Q, 2, 2))
    assert (zero.basis, zero.basis_inv, zero.eigenvalues) == (identity, identity, (0, 0))
    other = witnesses._factored(mat(Q, [[1, 2], [3, -1]])).shifted(2)
    assert set(other.eigenvalues) == {2, 3}
    g = mat(Q, [[1, Fraction(1, 2)], [-3, 0]])
    assert witnesses._eigen_solve(zero, other, g) == sylvester_solve(zero.p, other.p, g)
    assert witnesses._eigen_solve(other, zero, g) == sylvester_solve(other.p, zero.p, g)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SEPARATION_FIELDS).flatmap(
        lambda f: st.tuples(square_pair(f), st.randoms(use_true_random=False))
    )
)
def test_corner_solve_equals_sylvester_solve(case):
    (a, b), rng = case
    field = a.field
    chi = characteristic_polynomial(b)
    test = witnesses._coprime(chi, a)
    assume(test is not None)
    values = list(field.elements())[:5] if field.finite else [Fraction(k, 2) for k in range(-4, 5)]
    c = Matrix(field, a.rows, b.rows, [rng.choice(values) for _ in range(a.rows * b.rows)])
    assert witnesses._corner_solve(witnesses._Corner(chi, a, b, test), c) == sylvester_solve(a, b, c)


# -- pointwise witnesses (theorem 1) ----------------------------------------------


def test_pointwise_witness_zero():
    c = corner_window(Q, 3)
    w = pointwise_commutator_witness(ChainEndomorphism.zero(c))
    for i in c.degrees:
        a, b = w.pairs[i]
        assert a.is_zero() and b.is_zero()


def test_pointwise_witness_on_random_commutators():
    for seed, rng in seeds(15):
        c = random_complex(rng, Q, max_dim=4, length=4)
        phi = random_endomorphism(rng, c, ensure="t1")
        w = pointwise_commutator_witness(phi)
        for i in c.degrees:
            a, b = w.pairs[i]
            assert a * b - b * a == phi.map(i)


def test_pointwise_witness_trace_obstruction():
    c = exact_two_term()
    with pytest.raises(TraceObstruction) as err:
        pointwise_commutator_witness(ChainEndomorphism.identity(c))
    assert err.value.degree == 0 and err.value.kind == "degree"


# -- chain commutator witnesses (theorem 2) ----------------------------------------


def test_commutator_witness_zero():
    c = corner_window(Q, 3)
    w = commutator_witness(ChainEndomorphism.zero(c))
    assert commutator(w.alpha, w.beta) == ChainEndomorphism.zero(c)


def test_commutator_witness_roundtrip_and_block_equations():
    for seed, rng in seeds(15):
        c = random_complex(rng, Q, max_dim=4, length=4)
        s = split_complex(c)
        phi = random_endomorphism(rng, c, ensure="t2", splitting=s)
        w, detail = commutator_witness_detailed(phi)
        assert validate_chain_map(w.alpha) == []
        assert validate_chain_map(w.beta) == []
        assert commutator(w.alpha, w.beta) == phi
        blocks = extract_blocks(phi, detail.splitting)
        sel = detail.selection
        for i in c.degrees:
            idx = i - c.lo
            p_i, q_i = sel.first_pairs[idx]
            p_next, q_next = sel.first_pairs[idx + 1]
            s_i, t_i = sel.second_pairs[idx]
            x = detail.mixed_solutions[i]
            t_corner = detail.corner_solutions[i]
            z = detail.cross_solutions[i]
            assert p_i * x - x * s_i == blocks.block(i, 0, 1)
            assert t_corner * q_next - q_i * t_corner == blocks.block(i, 0, 2)
            assert s_i * z - z * p_next == blocks.block(i, 1, 2)


def test_commutator_witness_obstructions():
    c = exact_two_term()
    with pytest.raises(TraceObstruction):
        commutator_witness(ChainEndomorphism.identity(c))

    window = corner_window(Q, 4)
    phi = alternating_reflection(window)
    with pytest.raises(TraceObstruction) as err:
        commutator_witness(phi)
    assert err.value.kind == "cohomology"

    # the construction runs over F_2 too
    zero = ChainEndomorphism.zero(corner_window(GF2, 3))
    assert verify_witness(zero, commutator_witness(zero)).ok


CENSUS_SHAPES = ((3, 3), (6, 3), (6, 5))  # (max_dim, length)


def test_commutator_witness_census_over_finite_fields():
    # theorem 2 runs the same construction on every field: over F_13 and
    # F_{2^31-1} every document builds, and over F_2, F_3 and F_5 each one
    # builds or ends in one of the two limitations of the construction.
    # F_2 seed 0 at (3, 3) has a block that only exhaustive search factors.
    outcomes = {}
    for field in (GF2, F3, PrimeField(5), PrimeField(13), F_M31):
        for shape in CENSUS_SHAPES:
            for seed, rng in seeds(6):
                c = random_complex(rng, field, max_dim=shape[0], length=shape[1])
                phi = random_endomorphism(rng, c, ensure="t2")
                try:
                    assert verify_witness(phi, commutator_witness(phi)).ok
                    outcome = "verified"
                except (FieldTooSmall, SelectionExhausted) as err:
                    outcome = type(err).__name__
                outcomes[field.size, shape, seed] = outcome
    assert all(o == "verified" for (p, _, _), o in outcomes.items() if p >= 13)
    assert outcomes[2, (3, 3), 0] == "FieldTooSmall"
    small = {o for (p, _, _), o in outcomes.items() if p < 13}
    assert small == {"verified", "FieldTooSmall", "SelectionExhausted"}


def test_commutator_witness_need_not_equal_generator():
    rng_seed = 8
    import random

    rng = random.Random(rng_seed)
    c = random_complex(rng, Q, max_dim=3, length=3)
    a0 = random_chain_map(rng, c)
    b0 = random_chain_map(rng, c)
    phi = commutator(a0, b0)
    w = commutator_witness(phi)
    assert commutator(w.alpha, w.beta) == phi  # same commutator, any factorization


# -- homotopy-to-commutator witnesses (theorem 3) -----------------------------------


def test_homotopy_commutator_null_homotopic_input():
    for seed, rng in seeds(10):
        c = random_complex(rng, Q, max_dim=4, length=4)
        phi = homotopy_boundary(random_homotopy(rng, c))
        w = homotopy_commutator_witness(phi)
        assert w.residual.alpha == ChainEndomorphism.zero(c)
        assert w.residual.beta == ChainEndomorphism.zero(c)
        assert subtract(phi, homotopy_boundary(w.homotopy)) == ChainEndomorphism.zero(c)


def test_homotopy_commutator_identity_on_exact_complex():
    c = exact_two_term()
    ident = ChainEndomorphism.identity(c)
    w = homotopy_commutator_witness(ident)
    # H = 0 everywhere: the homotopy carries all of phi
    assert subtract(ident, homotopy_boundary(w.homotopy)) == ChainEndomorphism.zero(c)


def test_homotopy_commutator_roundtrip_with_block_form():
    for seed, rng in seeds(15):
        field = Q if seed % 3 else GF2
        c = random_complex(rng, field, max_dim=3, length=4)
        s = split_complex(c)
        try:
            phi = random_endomorphism(rng, c, ensure="t3", splitting=s)
            w = homotopy_commutator_witness(phi)
        except FieldTooSmall:
            assert field.finite
            continue
        residual = subtract(phi, homotopy_boundary(w.homotopy))
        residual_blocks = extract_blocks(residual, s)
        phi_blocks = extract_blocks(phi, s)
        for i in c.degrees:
            for pos in ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2)):
                assert residual_blocks.block(i, *pos).is_zero()
            assert residual_blocks.block(i, 1, 1) == phi_blocks.block(i, 1, 1)
        assert commutator(w.residual.alpha, w.residual.beta) == residual


def test_homotopy_commutator_obstruction():
    window = corner_window(Q, 4)
    with pytest.raises(TraceObstruction) as err:
        homotopy_commutator_witness(alternating_reflection(window))
    assert err.value.kind == "cohomology"


# -- prescribed-trace null-homotopies and theorem 4 ----------------------------------


def test_prescribed_traces_zero_gives_zero():
    c = corner_window(Q, 3)
    tau, sigma = prescribed_trace_nullhomotopy(c, {})
    assert tau == ChainEndomorphism.zero(c)
    assert homotopy_boundary(sigma) == tau


def test_prescribed_traces_rank_one_window():
    c = ChainComplex(Q, 0, [2, 2], [mat(Q, [[0, 1], [0, 0]])])
    value = Fraction(7, 2)
    tau, sigma = prescribed_trace_nullhomotopy(c, {0: value, 1: value})
    assert tau.map(0).trace() == value
    assert tau.map(1).trace() == value
    assert homotopy_boundary(sigma) == tau
    assert validate_chain_map(tau) == []


def test_prescribed_traces_stretch_obstruction():
    c = ChainComplex(Q, 0, [2, 2], [mat(Q, [[0, 1], [0, 0]])])
    with pytest.raises(StretchObstruction) as err:
        prescribed_trace_nullhomotopy(c, {0: Fraction(1), 1: Fraction(2)})
    assert (err.value.start, err.value.end) == (0, 1)


def test_prescribed_traces_decide_each_stretch_by_its_alternating_sum():
    # one propagation pass decides every stretch; checked against the
    # definition: the first stretch whose alternating trace sum is nonzero
    # is the obstruction, with that sum as its value, and otherwise tau has
    # the prescribed traces and is the boundary of sigma
    outcomes = set()
    for seed, rng in seeds(60, start=700):
        field = Q if seed % 2 == 0 else PrimeField(7)
        c = random_complex(rng, field, max_dim=4, length=rng.randint(1, 6), lo=rng.randint(-3, 3))
        traces = {i: field.normalize(rng.randint(-3, 3)) for i in c.degrees if rng.random() < 0.8}
        for run in complexes.stretches(c):
            if rng.random() < 0.7:  # close this stretch through its last degree
                closing = field.mul(field.alternating_sign(run.end), complexes.alternating_sum(field, run, traces))
                traces[run.end] = field.sub(traces.get(run.end, field.zero), closing)
        open_runs = [r for r in complexes.stretches(c) if complexes.alternating_sum(field, r, traces) != 0]
        if open_runs:
            with pytest.raises(StretchObstruction) as err:
                prescribed_trace_nullhomotopy(c, traces)
            first = open_runs[0]
            assert (err.value.start, err.value.end) == (first.start, first.end)
            assert err.value.value == complexes.alternating_sum(field, first, traces)
            outcomes.add("obstruction")
        else:
            tau, sigma = prescribed_trace_nullhomotopy(c, traces)
            for i in c.degrees:
                assert tau.map(i).trace() == traces.get(i, field.zero)
            assert homotopy_boundary(sigma) == tau
            outcomes.add("tau")
    assert outcomes == {"obstruction", "tau"}


def test_prescribed_traces_reject_values_off_window():
    c = exact_two_term()
    with pytest.raises(ValueError):
        prescribed_trace_nullhomotopy(c, {5: Fraction(1)})


def test_homotopy_pointwise_reduces_to_pointwise_when_traceless():
    for seed, rng in seeds(10):
        c = random_complex(rng, Q, max_dim=4, length=3)
        phi = random_endomorphism(rng, c, ensure="t1")
        w = homotopy_pointwise_witness(phi)
        assert homotopy_boundary(w.homotopy) == ChainEndomorphism.zero(c)
        for i in c.degrees:
            a, b = w.residual.pairs[i]
            assert a * b - b * a == phi.map(i)


def test_homotopy_pointwise_identity_on_exact_complex():
    c = exact_two_term()
    ident = ChainEndomorphism.identity(c)
    w = homotopy_pointwise_witness(ident)
    boundary = homotopy_boundary(w.homotopy)
    assert boundary.map(0).trace() == 1
    assert boundary.map(1).trace() == 1
    residual = subtract(ident, boundary)
    for i in c.degrees:
        a, b = w.residual.pairs[i]
        assert a * b - b * a == residual.map(i)


def test_homotopy_pointwise_stretch_obstruction():
    z = zero_differential_complex(Q, [2, 1])
    with pytest.raises(StretchObstruction):
        homotopy_pointwise_witness(ChainEndomorphism.identity(z))


def test_homotopy_pointwise_roundtrip():
    for seed, rng in seeds(15):
        c = random_complex(rng, Q, max_dim=4, length=4)
        phi = random_endomorphism(rng, c, ensure="t4")
        w = homotopy_pointwise_witness(phi)
        residual = subtract(phi, homotopy_boundary(w.homotopy))
        for i in c.degrees:
            a, b = w.residual.pairs[i]
            assert a * b - b * a == residual.map(i)


# -- entry height beyond the benchmark's sizes ----------------------------------------


def seed_one_document(max_dim):
    """The complex and endomorphism of ``chaincomm random --seed 1 --field Q
    --max-dim MAX_DIM --length 3 --ensure t2``."""
    rng = random.Random(1)
    c = random_complex(rng, Q, max_dim=max_dim, length=3)
    return c, random_endomorphism(rng, c, ensure="t2")


def certificate_round_trip(c, phi, witness):
    """The certificate's JSON text (``serialize_document`` refuses an entry
    over the digit cap) and whether its parsed witness verifies."""
    text = json.dumps(serialize_document(c, phi, [witness]), indent=2, sort_keys=True)
    doc = parse_document(json.loads(text))
    return text, verify_witness(doc.endomorphism, doc.witnesses[0]).ok


def test_theorem4_certificate_entries_stay_short_at_max_dim_20():
    # dims (6, 13, 15) with entries of at most 17 digits; the recursive
    # zero-diagonal form wrote entries of up to 928 digits here
    c, phi = seed_one_document(20)
    assert c.dims == (6, 13, 15)
    text, ok = certificate_round_trip(c, phi, homotopy_pointwise_witness(phi))
    assert ok
    assert max(map(len, re.findall(r"[0-9]+", text))) <= 200


def test_theorem2_certificate_builds_and_verifies_at_max_dim_40():
    # dims (12, 27, 31); with the recursive zero-diagonal form the lcm of a
    # matrix's denominators passed the 8000-digit cap here
    c, phi = seed_one_document(40)
    assert c.dims == (12, 27, 31)
    assert certificate_round_trip(c, phi, commutator_witness(phi))[1]


# -- the chain-map guard ----------------------------------------------------------------


def test_builders_and_algebra_refuse_a_family_that_is_not_a_chain_map():
    # V_0 = k^2 -> V_1 = k, d = [0 1]: phi_0 sends the cocycle e1 to e2
    c = ChainComplex(Q, 0, [2, 1], [mat(Q, [[0, 1]])])
    phi = ChainEndomorphism(c, [mat(Q, [[0, 0], [1, 0]]), mat(Q, [[0]])])
    zero, one = ChainEndomorphism.zero(c), ChainEndomorphism.identity(c)
    projector = ChainEndomorphism(c, [mat(Q, [[1, 0], [0, 0]]), mat(Q, [[0]])])  # [phi, projector] = phi
    assert validate_chain_map(projector) == []
    calls = (
        lambda: pointwise_commutator_witness(phi),
        lambda: commutator_witness(phi),
        lambda: homotopy_commutator_witness(phi),
        lambda: homotopy_pointwise_witness(phi),
        lambda: complexes.add(phi, zero),
        lambda: complexes.subtract(phi, zero),
        lambda: complexes.compose(phi, one),
        lambda: complexes.commutator(phi, projector),
        lambda: complexes.scale(phi, 2),
    )
    for call in calls:
        with pytest.raises(ValueError, match="not a chain map"):
            call()


def test_builders_raise_when_their_witness_fails_verification(monkeypatch):
    # with every factorization (p, q) of m replaced by (p, 2q), whose
    # commutator is 2m, each builder's one self-check must reject its result;
    # every builder factors through witnesses._factored (theorem 2 for the
    # left factors' eigenbases, the others via commutator_decomposition)
    rng = random.Random(5)
    c = random_complex(rng, Q, max_dim=4, length=3)
    phi = random_endomorphism(rng, c, ensure="t2")
    factored = witnesses._factored

    def doubled(m):
        f = factored(m)
        return dataclasses.replace(f, q=f.q.scale(2))

    monkeypatch.setattr(witnesses, "_factored", doubled)
    for builder, identity in (
        (pointwise_commutator_witness, "[a_i, b_i] = phi_i"),
        (commutator_witness, "[alpha, beta] = phi"),
        (homotopy_commutator_witness, "[alpha, beta] = phi"),
        (homotopy_pointwise_witness, "[a_i, b_i] = phi_i"),
    ):
        with pytest.raises(AssertionError, match=r"at degree -?\d+: " + re.escape(identity) + r" \(entry \(\d+, \d+\): "):
            builder(phi)


# -- analyze --------------------------------------------------------------------------


def test_analyze_zero_endomorphism():
    c = corner_window(Q, 3)
    result = analyze(ChainEndomorphism.zero(c))
    assert all(v.condition_holds for v in result.verdicts.values())
    assert all(v.construction_available for v in result.verdicts.values())


def test_analyze_alternating_reflection():
    window = corner_window(Q, 5)
    result = analyze(alternating_reflection(window))
    assert result.verdicts["theorem1"].condition_holds  # all degree traces vanish
    assert not result.verdicts["theorem2"].condition_holds  # boundary cohomology sticks out
    assert not result.verdicts["theorem3"].condition_holds
    assert result.verdicts["theorem4"].condition_holds


def test_analyze_random_commutator_all_positive():
    for seed, rng in seeds(10):
        c = random_complex(rng, Q, max_dim=3, length=3)
        phi = random_endomorphism(rng, c, ensure="t2")
        result = analyze(phi)
        assert all(v.condition_holds for v in result.verdicts.values())


def test_analyze_finite_field_reports_every_construction_available():
    # over a small field a construction may still end in a limitation, but
    # no theorem is refused up front
    c = corner_window(GF2, 3)
    result = analyze(ChainEndomorphism.zero(c))
    assert all(v.condition_holds for v in result.verdicts.values())
    assert all(v.construction_available for v in result.verdicts.values())
    assert result.verdicts["theorem2"].note == "commutator of chain maps"
