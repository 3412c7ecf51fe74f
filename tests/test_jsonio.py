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
    + ["9" * (MAX_RATIONAL_DIGITS + 1), "1/" + "9" * (MAX_RATIONAL_DIGITS + 1)]
    # what a check over the comma-joined cells could misread
    + ["1,2", "1/2,3", "", "-", "/", "2/1", "1/1,2"],
    "Fp": ["3", 1.0, True, False, -1, None],
}


@st.composite
def wire_documents(draw):
    """(field, document, clean): a whole document as JSON, built from
    canonical spellings: its differentials alternately random and zero, so
    they form a complex; its endomorphism a scalar, a random map (rarely a
    chain map) or absent; and one witness of each kind with random maps.
    Unless clean, up to three cells of any matrices are near misses and, in
    one draw in four, a row is one cell short."""
    field = draw(st.sampled_from([Q, PrimeField(5), PrimeField(2**31 - 1)]))
    dims = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4))
    if field.finite:
        zero, valid = 0, st.integers(min_value=0, max_value=field.size - 1)
        near = st.sampled_from(_NEAR_MISSES["Fp"] + [field.size])
    else:
        numerators = st.one_of(st.sampled_from([0, 1, -1]), st.integers(min_value=-(10**40), max_value=10**40))
        denominators = st.one_of(st.sampled_from([1, 2, 3, 10]), st.integers(min_value=1, max_value=10**40))
        zero = "0"
        valid = st.one_of(
            st.builds(Fraction, numerators, denominators).map(lambda x: encode_scalar(Q, x)),
            # a denominator written with a leading 1, beside "2/1" among the misses
            st.sampled_from(["-" + "9" * MAX_RATIONAL_DIGITS, "3/10", "-1/100", "10/11"]),
        )
        near = st.sampled_from(_NEAR_MISSES["Q"])

    def matrix(rows, cols, random=True):
        return [draw(st.lists(valid, min_size=cols, max_size=cols)) if random else [zero] * cols for _ in range(rows)]

    def square():
        return [matrix(n, n) for n in dims]

    def homotopy():
        return [matrix(m, n) for m, n in zip([0, *dims], dims)]

    def pairs():
        return [[matrix(n, n), matrix(n, n)] for n in dims]

    raw = {"format_version": "1", "field": encode_field(field), "lo": 0, "hi": len(dims) - 1, "dims": dims}
    raw["differentials"] = [matrix(dims[j + 1], dims[j], j % 2 == 0) for j in range(len(dims) - 1)]
    endomorphism = draw(st.sampled_from(["scalar", "random", "absent"]))
    if endomorphism == "scalar":
        c = draw(valid)
        raw["endomorphism"] = [[[c if i == j else zero for j in range(n)] for i in range(n)] for n in dims]
    elif endomorphism == "random":
        raw["endomorphism"] = square()
    raw["witnesses"] = [
        {"type": "pointwise", "pairs": pairs()},
        {"type": "commutator", "alpha": square(), "beta": square()},
        {"type": "homotopy_pointwise", "homotopy": homotopy(), "pairs": pairs()},
        {"type": "homotopy_commutator", "homotopy": homotopy(), "alpha": square(), "beta": square()},
    ]
    clean = draw(st.booleans())
    rows = [row for row in _rows_of(raw) if row]
    if not clean and rows:
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(min_value=0, max_value=len(row) - 1))] = draw(near)
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            draw(st.sampled_from(rows)).pop()
    return field, raw, clean


def _rows_of(raw):
    """Every row of every matrix in a document as ``wire_documents`` lays it out."""
    maps = list(raw["differentials"]) + list(raw.get("endomorphism") or [])
    for witness in raw["witnesses"]:
        maps += [m for key in ("homotopy", "alpha", "beta") for m in witness.get(key, [])]
        maps += [m for pair in witness.get("pairs", []) for m in pair]
    return [row for m in maps for row in m]


def _parsed(raw):
    try:
        return parse_document(raw)
    except SchemaError as err:
        return list(err.violations)


def _q_example(cell, clean=False):
    """A Q document with ``cell`` ahead of the endomorphism's two cells."""
    raw = {"format_version": "1", "field": {"kind": "Q"}, "lo": 0, "hi": 1, "dims": [1, 1], "witnesses": []}
    return Q, {**raw, "differentials": [[[cell]]], "endomorphism": [[["1"]], [["1"]]]}, clean


@settings(max_examples=200, deadline=None)
# each miss alone among canonical cells, where only a joined check could
# misread it; "3/10" ahead of another cell is canonical
@example(_q_example("2/1"))
@example(_q_example("1,2"))
@example(_q_example("1/2,3"))
@example(_q_example(""))
@example(_q_example("-"))
@example(_q_example("/"))
@example(_q_example("3/10", clean=True))
@given(wire_documents())
def test_one_pass_decoding_equals_the_per_cell_walk(case):
    # the walk the batch falls back to is the reference: run with the batch
    # decoding nothing, it reads every matrix cell by cell
    from unittest import mock

    from chaincomm import jsonio

    field, raw, clean = case
    with mock.patch.object(jsonio, "_decode_batch", lambda field, matrices: None):
        walked = _parsed(raw)
    with mock.patch.object(jsonio, "_decode_cells", wraps=jsonio._decode_cells) as per_cell:
        batched = _parsed(raw)
    assert batched == walked
    if clean:
        # every matrix of a canonical document comes from the batch
        assert per_cell.call_count == 0
    if isinstance(batched, list):
        # a canonical document can fail only on its algebra
        assert not clean or {v.code for v in batched} == {"endomorphism_not_chain_map"}
        return
    dims, scalar = raw["dims"], int if field.finite else Fraction
    assert batched.complex.stored_differentials == tuple(
        Matrix(field, dims[j + 1], dims[j], [scalar(c) for row in d for c in row])
        for j, d in enumerate(raw["differentials"])
    )


def test_the_denominator_cap_is_per_matrix():
    # each differential's lcm is under the cap, their union's is not; the
    # complex is one because the second differential's first column is zero
    big = 10 ** (MAX_RATIONAL_DIGITS - 1)
    raw = {"format_version": "1", "field": {"kind": "Q"}, "lo": 0, "hi": 2, "dims": [2, 2, 3]}
    first = [[f"1/{big}", f"1/{big + 1}"], ["0", "0"]]
    raw["differentials"] = [first, [["0", f"1/{big - 1}"], ["0", f"1/{big + 3}"], ["0", "0"]]]
    assert parse_document(raw).complex.differential(1).entry(1, 1) == Fraction(1, big + 3)
    raw["differentials"] = [first, [["0", f"1/{big - 1}"], ["0", f"1/{big + 1}"], ["0", f"1/{big + 3}"]]]
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert [(v.code, v.path) for v in err.value.violations] == [("denominator_too_large", "differentials[1]")]


def test_the_batch_holds_little_beside_the_cells():
    # the joined pattern keeps backtracking state for every cell it has
    # matched, about 600 bytes each for a cell like "-12/35", so it is run a
    # block of cells at a time; the whole parse then peaks under 300 bytes a cell
    import tracemalloc

    n = 5000
    raw = {"format_version": "1", "field": {"kind": "Q"}, "lo": 0, "hi": 1, "dims": [2, n]}
    raw["differentials"] = [[["-12/35", "7/9"] for _ in range(n)]]
    tracemalloc.start()
    try:
        parse_document(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2 * n


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


def test_violations_in_a_pairs_list_keep_their_order():
    # a malformed pair is reported between the cells of the pairs around it
    raw = {"format_version": "1", "field": {"kind": "Q"}, "lo": 0, "hi": 2, "dims": [1, 1, 1]}
    raw["differentials"] = [[["0"]], [["0"]]]
    raw["witnesses"] = [{"type": "pointwise", "pairs": [[[["2/4"]], [["0"]]], [[["0"]]], [[["0"]], [["1/0"]]]]}]
    with pytest.raises(SchemaError) as err:
        parse_document(raw)
    assert [(v.code, v.path) for v in err.value.violations] == [
        ("rational_not_reduced", "witnesses[0].pairs[0][0][0][0]"),
        ("witness_invalid", "witnesses[0].pairs[1]"),
        ("rational_invalid", "witnesses[0].pairs[2][1][0][0]"),
    ]


ZERO_PAIR = [[["0"]], [["0"]]]
ONES = [[["1"]], [["1"]]]


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
        ({"field": {"kind": "Fp", "p": 2, "q": 3}}, "field_invalid", "field"),
        (None, "bad_document", "$"),
        # an unread key would let two texts stand for one certificate
        ({"extra": 1}, "bad_document", "$"),
        (
            {"witnesses": [{"type": "commutator", "alpha": ONES, "beta": ONES, "pairs": "junk", "homotopy": 7}]},
            "witness_invalid",
            "witnesses[0]",
        ),
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
