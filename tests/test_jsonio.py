import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaincomm.complexes import ChainEndomorphism
from chaincomm.fields import GF2, PRIMALITY_BOUND, RATIONALS as Q, PrimeField
from chaincomm.generate import random_complex, random_endomorphism
from chaincomm.jsonio import (
    MAX_RATIONAL_DIGITS,
    MAX_TOTAL_DIMENSION,
    SchemaError,
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
    from chaincomm.jsonio import _decode_scalar, _Collector

    encoded = encode_scalar(Q, Fraction(value))
    errors = _Collector()
    decoded = _decode_scalar(Q, encoded, "x", errors)
    assert not errors.violations
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
