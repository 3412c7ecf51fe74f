import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaincomm.complexes import ChainEndomorphism
from chaincomm.errors import ValueTooLong
from chaincomm.fields import GF2, PRIMALITY_BOUND, RATIONALS as Q, PrimeField, exceeds_digit_cap
from chaincomm.generate import random_complex, random_endomorphism
from chaincomm.jsonio import (
    MAX_RATIONAL_DIGITS,
    MAX_TOTAL_DIMENSION,
    SchemaError,
    encode_field,
    encode_matrix,
    encode_scalar,
    parse_document,
    serialize_document,
)
from chaincomm.matrices import Matrix
from chaincomm.splitting import split_complex
from chaincomm.witnesses import (
    commutator_witness,
    homotopy_commutator_witness,
    homotopy_pointwise_witness,
    pointwise_commutator_witness,
)

from helpers import seeds

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_fixture(name):
    with open(FIXTURES / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def codes_of(err: SchemaError) -> set[str]:
    return {v.code for v in err.violations}


# -- round-trips ------------------------------------------------------------------


@pytest.mark.parametrize("name", ["f2_window.json", "q_exact.json"])
def test_fixture_roundtrip(name):
    raw = load_fixture(name)
    doc = parse_document(raw)
    again = serialize_document(doc.complex, doc.endomorphism, doc.witnesses)
    assert again == raw


def test_domain_roundtrip_with_witnesses():
    for seed, rng in seeds(6):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=3, length=3)
        s = split_complex(c)
        phi = random_endomorphism(rng, c, ensure="t1", splitting=s)
        witnesses = [pointwise_commutator_witness(phi)]
        if not field.finite:
            witnesses.append(commutator_witness(phi))
            witnesses.append(homotopy_commutator_witness(phi))
            witnesses.append(homotopy_pointwise_witness(phi))
        raw = serialize_document(c, phi, witnesses)
        raw = json.loads(json.dumps(raw))  # through the wire
        doc = parse_document(raw)
        assert doc.complex == c
        assert doc.endomorphism == phi
        assert serialize_document(doc.complex, doc.endomorphism, doc.witnesses) == raw


@given(st.fractions(min_value=-100, max_value=100, max_denominator=50))
def test_scalar_encoding_roundtrip_rationals(value):
    encoded = encode_scalar(Q, Fraction(value))
    raw = load_fixture("q_exact.json")
    raw["differentials"][0][0][0] = encoded  # parse errors would raise
    decoded = parse_document(raw).complex.differential(0).entry(0, 0)
    assert decoded == value


@given(st.integers(min_value=0, max_value=4))
def test_scalar_encoding_roundtrip_f5(value):
    from chaincomm.jsonio import _decode_scalar, _Collector

    field = PrimeField(5)
    encoded = encode_scalar(field, value)
    errors = _Collector()
    assert _decode_scalar(field, encoded, "x", errors) == value
    assert not errors.violations


# -- rejections --------------------------------------------------------------------


def test_rejects_unreduced_rational_with_hint():
    raw = load_fixture("q_exact.json")
    raw["differentials"][0][0][0] = "2/4"
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert codes_of(err.value) == {"rational_not_reduced"}
    assert "1/2" in err.value.violations[0].message


def test_rejects_rational_denominator_one_written_as_fraction():
    raw = load_fixture("q_exact.json")
    raw["differentials"][0][0][0] = "3/1"
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert codes_of(err.value) == {"rational_not_reduced"}


@pytest.mark.parametrize("entry", ["\u0663/\u0664", "\u0667", "5\n", "-1/2\n", " 5", "+5", "5/"])
def test_rejects_rationals_that_are_not_ascii_digits_alone(entry):
    # int() would read Arabic-Indic digits and a trailing newline, so
    # distinct texts would decode to one certificate
    raw = load_fixture("q_exact.json")
    raw["differentials"][0][0][0] = entry
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert codes_of(err.value) == {"rational_invalid"}


def test_rejects_json_numbers_over_q():
    raw = load_fixture("q_exact.json")
    raw["differentials"][0][0][0] = 1.5
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert codes_of(err.value) == {"rational_not_string"}


def test_rejects_noncanonical_prime_field_entries():
    raw = load_fixture("f2_window.json")
    raw["differentials"][0][0][1] = 2
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert codes_of(err.value) == {"scalar_out_of_range"}
    raw["differentials"][0][0][1] = "1"
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert codes_of(err.value) == {"scalar_not_integer"}


def test_rejects_bad_field_and_modulus():
    raw = load_fixture("f2_window.json")
    raw["field"] = {"kind": "Fp", "p": 6}
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert "modulus_not_prime" in codes_of(err.value)
    raw["field"] = {"kind": "R"}
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert "field_invalid" in codes_of(err.value)


def test_modulus_bound():
    raw = load_fixture("f2_window.json")
    raw["field"] = {"kind": "Fp", "p": PRIMALITY_BOUND}
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert codes_of(err.value) == {"modulus_too_large"}
    raw["field"] = {"kind": "Fp", "p": 2**61 - 1}
    assert parse_document(raw).complex.field == PrimeField(2**61 - 1)
    # a strong pseudoprime to the bases 2..37, below the bound
    raw["field"] = {"kind": "Fp", "p": 318665857834031151167461}
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert codes_of(err.value) == {"modulus_not_prime"}


def test_rejects_oversized_rationals():
    raw = load_fixture("q_exact.json")
    for too_long in ("7" * (MAX_RATIONAL_DIGITS + 1), "-1/" + "3" * (MAX_RATIONAL_DIGITS + 1), "0" * MAX_RATIONAL_DIGITS + "1"):
        raw["differentials"][0][0][0] = too_long
        with pytest.raises(SchemaError) as err:
            parse_document(raw)
        assert codes_of(err.value) == {"rational_too_large"}
    raw["differentials"][0][0][0] = "7" * MAX_RATIONAL_DIGITS
    assert parse_document(raw).complex.differential(0).entry(0, 0) == int("7" * MAX_RATIONAL_DIGITS)


def test_rejects_a_common_denominator_over_its_cap():
    # a Q matrix stores every entry over the lcm of its denominators, so that
    # lcm is capped: two coprime denominators at the digit cap pass, three do not
    big = 10 ** (MAX_RATIONAL_DIGITS - 1)
    raw = {"format_version": "1", "field": {"kind": "Q"}, "lo": 0, "hi": 1, "dims": [3, 1]}
    raw["differentials"] = [[["1/3", f"1/{big}", f"1/{big + 1}"]]]
    assert parse_document(raw).complex.differential(0).entry(0, 0) == Fraction(1, 3)
    raw["differentials"] = [[[f"1/{big - 1}", f"1/{big}", f"1/{big + 1}"]]]
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert [(v.code, v.path) for v in err.value.violations] == [("denominator_too_large", "differentials[0]")]
    # and nothing is written that parsing would refuse
    with pytest.raises(ValueTooLong):
        encode_matrix(Matrix(Q, 1, 3, [Fraction(1, big - 1), Fraction(1, big), Fraction(1, big + 1)]))


@settings(max_examples=200, deadline=None)
# over the common denominator 6 the first entry's stored integer passes the cap
@example(((1, 2), [Fraction(10**MAX_RATIONAL_DIGITS + 2, 2), Fraction(1, 3)]))
@given(
    st.integers(min_value=0, max_value=3).flatmap(
        lambda rows: st.integers(min_value=0, max_value=3).flatmap(
            lambda cols: st.tuples(
                st.just((rows, cols)),
                st.lists(
                    st.one_of(
                        st.fractions(min_value=-5, max_value=5, max_denominator=12),
                        st.builds(
                            lambda sign, delta, den: Fraction(sign * (10**MAX_RATIONAL_DIGITS + delta), den),
                            st.sampled_from([1, -1]),
                            st.integers(min_value=-3, max_value=3),
                            st.sampled_from([1, 2, 3, 5, 7]),
                        ),
                    ),
                    min_size=rows * cols,
                    max_size=rows * cols,
                ),
            )
        )
    )
)
def test_one_pass_encoding_equals_the_per_cell_one(case):
    # the cap is judged once per matrix from its largest stored integer and
    # its denominator; near the cap the stored integers may exceed it while
    # every entry in lowest terms fits, and then each cell is judged alone
    (rows, cols), values = case
    m = Matrix(Q, rows, cols, values)
    if any(exceeds_digit_cap(v) for v in values):
        with pytest.raises(ValueTooLong):
            encode_matrix(m)
    else:
        assert encode_matrix(m) == [[str(v) for v in values[i * cols : (i + 1) * cols]] for i in range(rows)]


def test_rejects_oversized_dimension_total_before_allocating():
    raw = {"format_version": "1", "field": {"kind": "Q"}, "lo": 0, "hi": 0, "differentials": []}
    for dims in ([MAX_TOTAL_DIMENSION + 1], [10**18]):
        with pytest.raises(SchemaError) as err:
            parse_document({**raw, "dims": dims})
        assert codes_of(err.value) == {"dims_too_large"}
    assert parse_document({**raw, "dims": [MAX_TOTAL_DIMENSION]}).complex.total_dim() == MAX_TOTAL_DIMENSION


def test_decodes_each_rational_in_lowest_terms():
    raw = load_fixture("q_exact.json")
    for entry, value in (("-3/2", Fraction(-3, 2)), ("7", Fraction(7)), ("10/3", Fraction(10, 3)), ("0", Fraction(0))):
        raw["differentials"][0][0][0] = entry
        m = parse_document(raw).complex.differential(0)
        assert m.entry(0, 0) == value and type(m.entry(0, 0)) is Fraction
        assert m == Matrix(Q, m.rows, m.cols, m.entries) and hash(m) == hash(Matrix(Q, m.rows, m.cols, m.entries))
    for entry, lowest in (("2/4", "1/2"), ("3/1", "3"), ("0/5", "0"), ("-6/3", "-2")):
        raw["differentials"][0][0][0] = entry
        with pytest.raises(SchemaError) as err:
            parse_document(raw)
        assert codes_of(err.value) == {"rational_not_reduced"}
        assert f"write {lowest!r}" in str(err.value)
    for entry, canonical in (("007", "7"), ("00", "0"), ("1/02", "1/2"), ("-007/3", "-7/3"), ("-0", "0"), ("-00/5", "0/5")):
        raw["differentials"][0][0][0] = entry
        with pytest.raises(SchemaError) as err:
            parse_document(raw)
        assert codes_of(err.value) == {"rational_invalid"}
        assert f"write {canonical!r}" in str(err.value)


_NEAR_MISSES = {
    "Q": ["01", "-0", "1/01", "0/5", "2/4", "3/1", "\u0663", "5\n", 1.5, True, -1]
    + ["9" * (MAX_RATIONAL_DIGITS + 1), "1/" + "9" * (MAX_RATIONAL_DIGITS + 1)],
    "Fp": ["3", 1.0, True, False, -1, None],
}


@st.composite
def wire_matrices(draw):
    """(field, rows, cols, cells): a matrix as JSON arrays of canonical
    spellings, with up to two cells replaced by near misses and, in one
    draw in ten, a row one cell short."""
    field = draw(st.sampled_from([Q, PrimeField(5), PrimeField(2**31 - 1)]))
    rows, cols = draw(st.integers(min_value=0, max_value=4)), draw(st.integers(min_value=0, max_value=4))
    if field.finite:
        valid = st.integers(min_value=0, max_value=field.size - 1)
        near = st.sampled_from(_NEAR_MISSES["Fp"] + [field.size])
    else:
        numerators = st.one_of(st.sampled_from([0, 1, -1]), st.integers(min_value=-(10**40), max_value=10**40))
        denominators = st.one_of(st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=10**40))
        valid = st.one_of(
            st.builds(Fraction, numerators, denominators).map(lambda x: encode_scalar(Q, x)),
            st.just("-" + "9" * MAX_RATIONAL_DIGITS),
        )
        near = st.sampled_from(_NEAR_MISSES["Q"])
    cells = [draw(st.lists(valid, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows and cols:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            i, j = draw(st.integers(min_value=0, max_value=rows - 1)), draw(st.integers(min_value=0, max_value=cols - 1))
            cells[i][j] = draw(near)
        if draw(st.integers(min_value=0, max_value=9)) == 0:
            cells[draw(st.integers(min_value=0, max_value=rows - 1))].pop()
    return field, rows, cols, cells


@settings(max_examples=300, deadline=None)
@given(wire_matrices())
def test_one_pass_decoding_equals_the_per_cell_walk(case):
    # a complex of two degrees, so the one differential is checked against nothing
    from chaincomm.jsonio import _Collector, _decode_scalar

    field, rows, cols, cells = case
    raw = {"format_version": "1", "field": encode_field(field), "lo": 0, "hi": 1, "dims": [cols, rows]}
    raw["differentials"] = [cells]
    expected, walk = [], _Collector()
    for i, row in enumerate(cells):
        if len(row) != cols:
            walk.add("shape_mismatch", f"differentials[0][{i}]", f"expected a row of {cols} entries")
            continue
        expected += [_decode_scalar(field, c, f"differentials[0][{i}][{j}]", walk) for j, c in enumerate(row)]
    try:
        decoded = parse_document(raw).complex.differential(0)
    except SchemaError as err:
        assert walk.violations and list(err.violations) == walk.violations
    else:
        assert not walk.violations
        scalars = expected if field.finite else [Fraction(*pair) for pair in expected]
        assert decoded == Matrix(field, rows, cols, scalars)


def test_rejects_bad_window_and_dims():
    raw = load_fixture("q_exact.json")
    raw["lo"], raw["hi"] = 2, 0
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert "window_invalid" in codes_of(err.value)

    raw = load_fixture("q_exact.json")
    raw["dims"] = [1]
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert "dims_invalid" in codes_of(err.value)

    raw = load_fixture("q_exact.json")
    raw["dims"] = [1, -1]
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert "dims_invalid" in codes_of(err.value)


def test_rejects_shape_mismatch_with_path():
    raw = load_fixture("f2_window.json")
    raw["differentials"][1] = [[0, 1, 0], [0, 0, 0]]
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert "shape_mismatch" in codes_of(err.value)
    assert any("differentials[1]" in v.path for v in err.value.violations)


def test_rejects_non_complex():
    raw = load_fixture("q_exact.json")
    raw["lo"], raw["hi"] = 0, 2
    raw["dims"] = [1, 1, 1]
    raw["differentials"] = [[["1"]], [["1"]]]
    raw["endomorphism"] = [[["1"]], [["1"]], [["1"]]]
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert codes_of(err.value) == {"differential_composite_nonzero"}


def test_rejects_non_chain_map():
    raw = load_fixture("q_exact.json")
    raw["endomorphism"] = [[["2"]], [["1"]]]
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert codes_of(err.value) == {"endomorphism_not_chain_map"}


def test_rejects_unknown_witness_type():
    raw = load_fixture("q_exact.json")
    raw["witnesses"] = [{"type": "mystery"}]
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert codes_of(err.value) == {"witness_invalid"}


ZERO_PAIR = [[["0"]], [["0"]]]


@pytest.mark.parametrize(
    "changes, code, path",
    [
        ({"differentials": [[["1/0"]]]}, "rational_invalid", "differentials[0][0][0]"),
        ({"field": {"kind": "Q", "p": 5}}, "field_invalid", "field"),
        ({"differentials": "none"}, "bad_type", "differentials"),
        ({"witnesses": {}}, "bad_type", "witnesses"),
        ({"witnesses": ["pointwise"]}, "witness_invalid", "witnesses[0]"),
        ({"witnesses": [{"type": "pointwise", "pairs": [ZERO_PAIR]}]}, "witness_invalid", "witnesses[0].pairs"),
        (
            {"witnesses": [{"type": "pointwise", "pairs": [ZERO_PAIR[:1], ZERO_PAIR]}]},
            "witness_invalid",
            "witnesses[0].pairs[0]",
        ),
        (None, "bad_document", "$"),
    ],
)
def test_schema_violation_names_its_code_and_path(changes, code, path):
    raw = [] if changes is None else {**load_fixture("q_exact.json"), **changes}
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert [(v.code, v.path) for v in err.value.violations] == [(code, path)]


def test_rejects_unknown_format_version():
    raw = load_fixture("q_exact.json")
    raw["format_version"] = "2"
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert "unsupported_format_version" in codes_of(err.value)


def test_example_fixture_parses_and_validates():
    doc = parse_document(load_fixture("f2_window.json"))
    assert doc.complex.field == GF2
    assert doc.complex.dims == (2, 2, 2, 2)
    assert doc.endomorphism == ChainEndomorphism.identity(doc.complex)
