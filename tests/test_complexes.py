import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincomm import complexes, jsonio
from chaincomm.complexes import (
    ChainComplex,
    ChainEndomorphism,
    CommutatorWitness,
    Homotopy,
    Stretch,
    chain_map_basis,
    cohomology,
    cohomology_lifts,
    commutator,
    homotopy_boundary,
    induced_cohomology_map,
    stretches,
    trace_report,
    validate_chain_map,
    validate_complex,
)
from chaincomm.fields import GF2, RATIONALS as Q, PrimeField
from chaincomm.generate import random_chain_map, random_complex, random_homotopy, random_matrix
from chaincomm.linalg import complement_basis, image_basis
from chaincomm.matrices import Matrix
from chaincomm.verify import verify_witness

from helpers import (
    KERNEL_FIELDS,
    alternating_reflection,
    corner_window,
    exact_two_term,
    mat,
    reference_chain_map_basis,
    reference_induced_cohomology_map,
    seeds,
    zero_differential_complex,
)


# -- construction and validation ---------------------------------------------


def test_construction_shape_checks():
    with pytest.raises(ValueError):
        ChainComplex(Q, 0, [])
    with pytest.raises(ValueError):
        ChainComplex(Q, 0, [1, 1], [])  # missing differential
    with pytest.raises(ValueError):
        ChainComplex(Q, 0, [1, 2], [mat(Q, [[1]])])  # wrong shape
    with pytest.raises(ValueError):
        ChainComplex(Q, 0, [1, 1], [mat(GF2, [[1]])])  # wrong field


def test_construction_refuses_bool_window_and_dims():
    # True is an int to Python but not to the document format: a complex built
    # from it would serialize to "lo": true, "dims": [true, 2], which the
    # parser refuses
    d = mat(GF2, [[1], [0]])
    for lo, dims in ((True, [True, 2]), (True, [1, 2]), (0, [True, 2]), (0, [1, False])):
        with pytest.raises(ValueError):
            ChainComplex(GF2, lo, dims, [d] if dims[1] else [Matrix.zeros(GF2, 0, 1)])
    with pytest.raises(ValueError):
        ChainComplex(GF2, 0.0, [1, 2], [d])
    c = ChainComplex(GF2, 1, [1, 2], [d])
    assert jsonio.parse_document(json.loads(json.dumps(jsonio.serialize_document(c)))).complex == c


def test_validate_complex_examples():
    assert validate_complex(exact_two_term()) == []

    bad = ChainComplex(Q, 0, [1, 1, 1], [mat(Q, [[1]]), mat(Q, [[1]])])
    problems = validate_complex(bad)
    assert len(problems) == 1 and "degree 0" in problems[0]

    assert validate_complex(corner_window(GF2)) == []


def test_differential_outside_window_is_empty():
    c = exact_two_term()
    assert c.differential(-1).shape == (1, 0)
    assert c.differential(1).shape == (0, 1)
    assert c.differential(5).shape == (0, 0)
    assert c.dim(-3) == 0 and c.dim(0) == 1


def test_validate_chain_map_examples():
    c = exact_two_term()
    assert validate_chain_map(ChainEndomorphism.identity(c)) == []

    doubled = ChainEndomorphism(c, [mat(Q, [[2]]), mat(Q, [[1]])])
    problems = validate_chain_map(doubled)
    assert problems and "degree 0" in problems[0]

    window = corner_window(Q, 4)
    assert validate_chain_map(alternating_reflection(window)) == []


# -- validation caches -------------------------------------------------------------


def _copy(c: ChainComplex, change=None) -> ChainComplex:
    """A new object with c's content; ``change`` = (j, row, col, value)
    replaces one entry of differential j."""
    differentials = [Matrix.from_rows(c.field, d.to_rows(), d.cols) for d in c.stored_differentials]
    if change is not None:
        j, r, k, value = change
        rows = differentials[j].to_rows()
        rows[r][k] = value
        differentials[j] = Matrix.from_rows(c.field, rows, differentials[j].cols)
    return ChainComplex(c.field, c.lo, list(c.dims), differentials)


def test_equal_content_hits_the_validation_caches():
    rng = random.Random(3)
    c = random_complex(rng, Q, max_dim=4, length=4)
    phi = random_chain_map(rng, c)
    validate_complex.cache_clear()
    validate_chain_map.cache_clear()
    assert validate_complex(c) == [] and validate_chain_map(phi) == []
    twin = _copy(c)
    twin_phi = ChainEndomorphism(twin, [Matrix.from_rows(Q, m.to_rows(), m.cols) for m in phi.maps])
    assert twin is not c and twin_phi.maps[0] is not phi.maps[0]
    assert validate_complex(twin) == [] and validate_chain_map(twin_phi) == []
    assert (validate_complex.cache_info().hits, validate_complex.cache_info().misses) == (1, 1)
    assert (validate_chain_map.cache_info().hits, validate_chain_map.cache_info().misses) == (1, 1)
    assert validate_complex.cache_info().maxsize == validate_chain_map.cache_info().maxsize == 16


def test_one_changed_entry_misses_and_is_rejected_as_before():
    bad = ChainComplex(Q, 0, [1, 1, 1], [mat(Q, [[1]]), mat(Q, [[1]])])
    good = _copy(bad, (1, 0, 0, 0))
    assert validate_complex(good) == []
    expected = ["degree 0: d(1) . d(0) != 0"]
    assert validate_complex(bad) == expected
    # a result is a fresh list: changing it does not change the cached answer
    validate_complex(bad).append("scribble")
    assert validate_complex(_copy(bad)) == expected

    c = corner_window(Q, 3)
    phi = alternating_reflection(c)
    assert validate_chain_map(phi) == []
    maps = list(phi.maps)
    maps[1] = maps[1] + Matrix.identity(Q, 2)
    broken = ChainEndomorphism(c, maps)
    problems = ["degree 0: d(0) . phi(0) != phi(1) . d(0)", "degree 1: d(1) . phi(1) != phi(2) . d(1)"]
    validate_chain_map.cache_clear()
    assert validate_chain_map(broken) == problems
    assert validate_chain_map(ChainEndomorphism(c, maps)) == problems
    assert validate_chain_map.cache_info().hits == 1


def test_the_chain_map_cache_key_includes_the_complex():
    # the same maps are a chain map of the zero-differential complex, not of
    # the corner complex
    maps = [Matrix.diagonal(Q, [0, 1]), Matrix.zeros(Q, 2, 2)]
    assert validate_chain_map(ChainEndomorphism(zero_differential_complex(Q, [2, 2]), maps)) == []
    assert validate_chain_map(ChainEndomorphism(corner_window(Q, 2), maps)) == [
        "degree 0: d(0) . phi(0) != phi(1) . d(0)"
    ]


def test_a_tampered_document_parsed_after_the_clean_one_is_refused():
    rng = random.Random(8)
    c = random_complex(rng, Q, max_dim=4, length=4)
    while not any(d.rows and d.cols and not d.is_zero() for d in c.stored_differentials):
        c = random_complex(rng, Q, max_dim=4, length=4)
    document = jsonio.serialize_document(c, random_chain_map(rng, c))
    assert jsonio.parse_document(json.loads(json.dumps(document))).endomorphism is not None
    # raise phi's entry at a pivot row of d's first nonzero column: d phi and
    # phi d then differ in that column
    j = next(j for j, d in enumerate(c.stored_differentials) if not d.is_zero())
    d = c.stored_differentials[j]
    col = next(k for k in range(d.cols) if any(d.entry(r, k) for r in range(d.rows)))
    tampered = json.loads(json.dumps(document))
    entry = tampered["endomorphism"][j][col][col]
    tampered["endomorphism"][j][col][col] = str(Fraction(entry) + 1)
    with pytest.raises(jsonio.SchemaError) as err:
        jsonio.parse_document(tampered)
    assert {v.code for v in err.value.violations} == {"endomorphism_not_chain_map"}


def test_the_verifier_reads_no_cached_answer(monkeypatch):
    # alpha's maps form a chain map of another complex, which validation has
    # just accepted; even with a cache that accepts everything, the verifier
    # finds that alpha does not commute with the corner differential
    maps = [Matrix.diagonal(Q, [0, 1]), Matrix.zeros(Q, 2, 2)]
    assert validate_chain_map(ChainEndomorphism(zero_differential_complex(Q, [2, 2]), maps)) == []
    c = corner_window(Q, 2)
    alpha, zero = ChainEndomorphism(c, maps), ChainEndomorphism.zero(c)
    monkeypatch.setattr(complexes, "_chain_map_answers", lambda complex, maps: ())
    assert validate_chain_map(alpha) == []
    result = verify_witness(zero, CommutatorWitness(alpha, zero))
    assert ("degree 0", "alpha commutes with the differential") in [(v.location, v.identity) for v in result.violations]


def test_homotopy_boundary_checks_its_result_on_an_invalid_complex():
    bad = ChainComplex(Q, 0, [1, 1, 1], [mat(Q, [[1]]), mat(Q, [[1]])])
    s = Homotopy(bad, [Matrix.zeros(Q, 0, 1), mat(Q, [[1]]), Matrix.zeros(Q, 1, 1)])
    with pytest.raises(ValueError, match="not a chain map: degree 1"):
        homotopy_boundary(s)
    # on a valid complex the boundary is a chain map by proof
    c = corner_window(Q, 3)
    s = Homotopy(c, [Matrix.zeros(Q, 0, 2), mat(Q, [[1, 2], [3, 4]]), mat(Q, [[5, 6], [7, 8]])])
    assert validate_chain_map(homotopy_boundary(s)) == []


# -- cohomology ----------------------------------------------------------------


def test_cohomology_examples():
    c = exact_two_term()
    assert cohomology(c, 0).dim == 0
    assert cohomology(c, 1).dim == 0

    z = zero_differential_complex(Q, [2, 3])
    assert cohomology(z, 0).dim == 2
    assert cohomology(z, 1).dim == 3

    window = corner_window(Q, 4)
    assert [cohomology(window, i).dim for i in window.degrees] == [1, 0, 0, 1]


def test_induced_map_identity_and_zero():
    z = zero_differential_complex(Q, [2, 2])
    ident = ChainEndomorphism.identity(z)
    assert induced_cohomology_map(ident, 0) == Matrix.identity(Q, 2)

    window = corner_window(Q, 4)
    assert induced_cohomology_map(ChainEndomorphism.identity(window), 1).shape == (0, 0)


def test_induced_map_of_null_homotopic_is_zero():
    for seed, rng in seeds(20):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=4, length=4)
        s = random_homotopy(rng, c)
        boundary = homotopy_boundary(s)
        for i in c.degrees:
            assert induced_cohomology_map(boundary, i).is_zero()


def test_induced_map_is_independent_of_lift_choice():
    for seed, rng in seeds(10):
        c = random_complex(rng, Q, max_dim=4, length=3)
        phi = random_chain_map(rng, c)
        for i in c.degrees:
            standard = induced_cohomology_map(phi, i)
            # shift every lift by a boundary vector: same induced matrix
            from chaincomm.complexes import cohomology_lifts
            from chaincomm.linalg import solve_linear
            from chaincomm.matrices import hstack

            boundaries, lifts = cohomology_lifts(c, i)
            if lifts.cols == 0 or boundaries.cols == 0:
                continue
            shifted = hstack(
                [lifts.column_at(j) + boundaries.column_at(j % boundaries.cols) for j in range(lifts.cols)]
            )
            images = phi.map(i) * shifted
            basis = hstack([boundaries, lifts])
            coords = solve_linear(basis, images)
            alt = coords.submatrix(boundaries.cols, boundaries.cols + lifts.cols, 0, lifts.cols)
            assert alt == standard


def _or_error(compute, phi, degree):
    try:
        return compute(phi, degree)
    except ValueError:
        return ValueError


@given(
    field=st.sampled_from(KERNEL_FIELDS),
    seed=st.integers(min_value=0, max_value=10**6),
    length=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_splitting_view_matches_solve_reference(field, seed, length):
    """The view over the cached splitting equals the solve-based induced map
    on chain maps, and on arbitrary degreewise families it raises exactly
    when the solve finds a lift mapped outside the cocycles."""
    rng = random.Random(seed)
    c = random_complex(rng, field, max_dim=4, length=length, lo=rng.randint(-2, 2))
    phi = random_chain_map(rng, c)
    family = ChainEndomorphism(c, [random_matrix(rng, field, n, n) for n in c.dims])
    for i in range(c.lo - 1, c.hi + 2):
        spaces = cohomology(c, i)
        lifts = complement_basis(spaces.boundary_basis, spaces.cocycle_basis)
        assert cohomology_lifts(c, i) == (spaces.boundary_basis, lifts)
        assert induced_cohomology_map(phi, i) == reference_induced_cohomology_map(phi, i)
        assert _or_error(induced_cohomology_map, family, i) == _or_error(reference_induced_cohomology_map, family, i)


def test_induced_map_rejects_map_moving_a_cocycle():
    # V_0 = k^2 -> V_1 = k, d = [0 1]: e1 spans H^0 and phi_0 sends it to e2,
    # which is not a cocycle
    c = ChainComplex(Q, 0, [2, 1], [mat(Q, [[0, 1]])])
    phi = ChainEndomorphism(c, [mat(Q, [[0, 0], [1, 0]]), mat(Q, [[0]])])
    assert validate_chain_map(phi) != []  # phi is not a chain map
    for compute in (induced_cohomology_map, reference_induced_cohomology_map):
        with pytest.raises(ValueError):
            compute(phi, 0)
    with pytest.raises(ValueError):
        trace_report(phi)


# -- stretches ------------------------------------------------------------------


def test_stretch_examples():
    assert stretches(exact_two_term()) == (Stretch(0, 1),)

    z = zero_differential_complex(Q, [1, 1, 1])
    assert stretches(z) == (Stretch(0, 0), Stretch(1, 1), Stretch(2, 2))

    d = mat(Q, [[1]])
    zero = Matrix.zeros(Q, 1, 1)
    c = ChainComplex(Q, 0, [1, 1, 1, 1], [d, zero, d])
    assert stretches(c) == (Stretch(0, 1), Stretch(2, 3))


def test_zero_dimensional_degree_splits_stretches():
    c = ChainComplex(Q, 0, [1, 0, 1], [Matrix.zeros(Q, 0, 1), Matrix.zeros(Q, 1, 0)])
    assert stretches(c) == (Stretch(0, 0), Stretch(1, 1), Stretch(2, 2))


# -- traces ---------------------------------------------------------------------


def test_trace_report_identity_on_exact_complex():
    c = exact_two_term()
    rep = trace_report(ChainEndomorphism.identity(c))
    assert rep.degree_traces == {0: Fraction(1), 1: Fraction(1)}
    assert rep.stretch_traces[Stretch(0, 1)] == 0
    assert rep.quasi_bounded
    assert not rep.degree_traces_vanish
    assert rep.cohomology_traces_vanish  # no cohomology at all
    assert rep.stretch_traces_vanish
    assert not rep.degree_and_cohomology_traces_vanish


def test_trace_report_zero_endomorphism():
    c = corner_window(Q, 3)
    rep = trace_report(ChainEndomorphism.zero(c))
    assert all(v == 0 for v in rep.degree_traces.values())
    assert all(v == 0 for v in rep.cohomology_traces.values())
    assert rep.degree_traces_vanish and rep.cohomology_traces_vanish
    assert rep.degree_and_cohomology_traces_vanish and rep.stretch_traces_vanish


def test_trace_report_alternating_reflection_interior():
    window = corner_window(Q, 5)
    rep = trace_report(alternating_reflection(window))
    for i in window.degrees:
        assert rep.degree_traces[i] == 0
    for i in range(window.lo + 1, window.hi):
        assert rep.cohomology_traces[i] == 0
    # the truncation exposes cohomology at the window ends
    assert rep.cohomology_traces[window.lo] != 0


def test_flag_implications_on_random_endomorphisms():
    for seed, rng in seeds(30):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=3, length=4)
        phi = random_chain_map(rng, c)
        rep = trace_report(phi)
        if rep.degree_and_cohomology_traces_vanish:
            assert rep.degree_traces_vanish and rep.cohomology_traces_vanish
        if rep.degree_traces_vanish:
            assert rep.stretch_traces_vanish
        if rep.cohomology_traces_vanish:
            assert rep.stretch_traces_vanish


def test_telescoping_identity_small():
    for seed, rng in seeds(40):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=4, length=4)
        phi = random_chain_map(rng, c)
        rep = trace_report(phi)
        for s in rep.stretches:
            assert rep.stretch_traces[s] == rep.stretch_cohomology_traces[s]


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    over_rationals=st.booleans(),
    length=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=50, deadline=None)
def test_telescoping_identity_hypothesis(seed, over_rationals, length):
    import random as random_module

    rng = random_module.Random(seed)
    field = Q if over_rationals else GF2
    c = random_complex(rng, field, max_dim=4, length=length)
    phi = random_chain_map(rng, c)
    rep = trace_report(phi)
    for s in rep.stretches:
        assert rep.stretch_traces[s] == rep.stretch_cohomology_traces[s]


# -- homotopy boundary ------------------------------------------------------------


def test_homotopy_boundary_zero_cases():
    c = exact_two_term()
    assert homotopy_boundary(Homotopy.zero(c)) == ChainEndomorphism.zero(c)

    z = zero_differential_complex(Q, [2, 2, 2])
    for seed, rng in seeds(5):
        s = random_homotopy(rng, z)
        assert homotopy_boundary(s) == ChainEndomorphism.zero(z)


def test_homotopy_boundary_is_chain_map():
    for seed, rng in seeds(20):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=4, length=4)
        s = random_homotopy(rng, c)
        assert validate_chain_map(homotopy_boundary(s)) == []


def test_boundary_of_corner_block_homotopy():
    # A homotopy supported in the boundary-to-boundary corner has block
    # diagonal boundary: the regression pattern behind prescribed traces.
    c = ChainComplex(Q, 0, [2, 2], [mat(Q, [[0, 1], [0, 0]])])
    # splitting bases here: B_1 = span(e1) in degree 1; preimage of e1 is e2 in degree 0
    s = Homotopy.from_map(c, {1: mat(Q, [[0, 0], [5, 0]])})
    tau = homotopy_boundary(s)
    # d0 * s1 has trace 5 in degree 1; s1 * d0 contributes in degree 0
    assert tau.map(0).trace() == 5
    assert tau.map(1).trace() == 5
    assert validate_chain_map(tau) == []


# -- algebra ------------------------------------------------------------------------


def test_commutator_basics():
    c = corner_window(Q, 3)
    phi = alternating_reflection(c)
    ident = ChainEndomorphism.identity(c)
    assert commutator(phi, phi) == ChainEndomorphism.zero(c)
    assert commutator(ident, phi) == ChainEndomorphism.zero(c)


def test_commutator_traces_vanish():
    for seed, rng in seeds(20):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=4, length=3)
        a = random_chain_map(rng, c)
        b = random_chain_map(rng, c)
        com = commutator(a, b)
        assert validate_chain_map(com) == []
        rep = trace_report(com)
        assert rep.degree_traces_vanish
        assert rep.cohomology_traces_vanish


def test_algebra_rejects_mismatched_complexes():
    a = ChainEndomorphism.identity(exact_two_term())
    b = ChainEndomorphism.identity(zero_differential_complex(Q, [1, 1]))
    with pytest.raises(ValueError):
        commutator(a, b)


# -- chain map space -----------------------------------------------------------------


def test_chain_map_basis_spans_chain_maps():
    z = zero_differential_complex(GF2, [2, 1])
    basis = chain_map_basis(z)
    assert len(basis) == 5  # no constraints: all of End(V_0) + End(V_1)
    for vec in basis:
        assert validate_chain_map(vec) == []

    c = corner_window(GF2, 3)
    for vec in chain_map_basis(c):
        assert validate_chain_map(vec) == []


def test_chain_map_basis_matches_split_parameterization():
    from chaincomm.splitting import split_complex
    for seed, rng in seeds(10):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=3, length=3)
        s = split_complex(c)
        expected = sum(
            s.boundary_dim(i) ** 2 for i in range(c.lo, c.hi + 2)
        ) + sum(
            s.cohomology_dim(i) ** 2
            + s.block_dims(i)[0] * s.block_dims(i)[1]
            + s.block_dims(i)[0] * s.block_dims(i)[2]
            + s.block_dims(i)[1] * s.block_dims(i)[2]
            for i in c.degrees
        )
        assert len(chain_map_basis(c)) == expected


@pytest.mark.parametrize("field", [Q, GF2, PrimeField(3), PrimeField(101)], ids=["Q", "F2", "F3", "F101"])
def test_chain_map_basis_matches_the_entrywise_reference(field):
    for seed, rng in seeds(40):
        c = random_complex(rng, field, max_dim=3, length=rng.randint(1, 4))
        assert chain_map_basis(c) == reference_chain_map_basis(c), seed
