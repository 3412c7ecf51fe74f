"""JSON interchange: parsing, validation and serialization of instances.

Format version "1".  A document carries a coefficient field, a support
window, dimensions, differentials, optionally a chain endomorphism and
optionally witness payloads.  Rational entries travel as strings in lowest
terms ("-3/2", "7"); JSON numbers are rejected over Q so exactness survives
the wire.  F_p entries are integers in range(p).  Matrices are row-major
arrays of row arrays; every expected shape is determined by the window and
dimensions, so empty matrices are unambiguous.

Parsing returns domain objects or raises :class:`SchemaError` carrying all
violations, each with a machine-readable code and a JSON-path location.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from .complexes import (
    ChainComplex,
    ChainEndomorphism,
    CommutatorWitness,
    Homotopy,
    HomotopyWitness,
    PointwiseWitness,
    validate_chain_map,
    validate_complex,
)
from .errors import ValueTooLong
from .fields import MAX_RATIONAL_DIGITS, PRIMALITY_BOUND, Field, PrimeField, Rationals, Scalar, exceeds_digit_cap, render
from .matrices import Matrix, _canonical

FORMAT_VERSION = "1"

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

MAX_TOTAL_DIMENSION = 10_000
"""Largest sum of ``dims`` a document may declare.  Zero matrices off and at
the ends of the window are allocated from ``dims`` alone, before any entry is
read, so without a cap a few bytes of JSON could ask for gigabytes."""


@dataclass(frozen=True)
class SchemaViolation:
    code: str
    path: str
    message: str

    def to_json(self) -> dict[str, str]:
        return {"code": self.code, "path": self.path, "message": self.message}


class SchemaError(Exception):
    def __init__(self, violations: Sequence[SchemaViolation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(f"{v.path}: {v.message}" for v in self.violations) or "schema error")


@dataclass(frozen=True)
class Document:
    """A parsed instance: the complex, and optionally an endomorphism and
    witness payloads attached to it."""

    complex: ChainComplex
    endomorphism: ChainEndomorphism | None = None
    witnesses: tuple[object, ...] = ()


class _Collector:
    def __init__(self) -> None:
        self.violations: list[SchemaViolation] = []

    def add(self, code: str, path: str, message: str) -> None:
        self.violations.append(SchemaViolation(code, path, message))

    def raise_if_any(self) -> None:
        if self.violations:
            raise SchemaError(self.violations)


# ---------------------------------------------------------------------------
# scalars


def encode_scalar(field: Field, value: Scalar) -> str | int:
    """The JSON form of a scalar; raises ValueTooLong for a rational that no
    document may carry, so nothing is written that parsing would reject."""
    if field.finite:
        return int(field.normalize(value))
    value = field.normalize(value)
    if exceeds_digit_cap(value):
        raise ValueTooLong(f"value {render(value)} has more than the {MAX_RATIONAL_DIGITS} digits a document may carry")
    return str(value)


def _decode_scalar(field: Field, raw: Any, path: str, errors: _Collector) -> Scalar | None:
    if field.finite:
        if isinstance(raw, bool) or not isinstance(raw, int):
            errors.add("scalar_not_integer", path, f"F_{field.size} entries must be integers, got {raw!r}")
            return None
        if not (0 <= raw < field.size):
            errors.add(
                "scalar_out_of_range",
                path,
                f"entry {raw} is not a canonical representative in 0..{field.size - 1}",
            )
            return None
        return raw
    if not isinstance(raw, str):
        errors.add(
            "rational_not_string",
            path,
            f"rational entries must be strings like \"-3/2\", got {raw!r}",
        )
        return None
    match = _RATIONAL_RE.fullmatch(raw)
    if not match:
        errors.add("rational_invalid", path, f"cannot parse rational {raw!r}")
        return None
    num_text, den_text = match.groups()
    digits = max(len(num_text.lstrip("-")), len(den_text or ""))
    if digits > MAX_RATIONAL_DIGITS:
        errors.add(
            "rational_too_large",
            path,
            f"numerator and denominator may have at most {MAX_RATIONAL_DIGITS} digits, got {digits}",
        )
        return None
    if den_text is not None and not den_text.strip("0"):
        errors.add("rational_invalid", path, "zero denominator")
        return None
    # one spelling per rational: no leading zeros and no "-0"
    magnitude = num_text.lstrip("-").lstrip("0") or "0"
    canonical = ("-" if num_text.startswith("-") and magnitude != "0" else "") + magnitude
    if den_text is not None:
        canonical += "/" + den_text.lstrip("0")
    if raw != canonical:
        errors.add("rational_invalid", path, f"{raw!r} has leading zeros or a signed zero; write {canonical!r}")
        return None
    if den_text is None:
        return Fraction(int(num_text))
    den = int(den_text)
    value = Fraction(int(num_text), den)
    # in lowest terms exactly when Fraction did not reduce it; "n/1" is not
    if den == 1 or value.denominator != den:
        errors.add(
            "rational_not_reduced",
            path,
            f"{raw!r} is not in lowest terms; write {str(value)!r}",
        )
        return None
    return value


# ---------------------------------------------------------------------------
# matrices


def encode_matrix(m: Matrix) -> list[list[str | int]]:
    return [[encode_scalar(m.field, e) for e in m.row(i)] for i in range(m.rows)]


def _decode_matrix(
    field: Field, raw: Any, rows: int, cols: int, path: str, errors: _Collector
) -> Matrix | None:
    if not isinstance(raw, list):
        errors.add("bad_type", path, f"matrix must be an array of rows, got {type(raw).__name__}")
        return None
    if len(raw) != rows:
        errors.add("shape_mismatch", path, f"expected {rows} rows, got {len(raw)}")
        return None
    entries: list[Scalar] = []
    ok = True
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            errors.add("shape_mismatch", f"{path}[{i}]", f"expected a row of {cols} entries")
            ok = False
            continue
        for j, cell in enumerate(row):
            value = _decode_scalar(field, cell, f"{path}[{i}][{j}]", errors)
            if value is None:
                ok = False
            else:
                entries.append(value)
    if not ok:
        return None
    return _canonical(field, rows, cols, tuple(entries))


def _decode_matrix_list(
    field: Field,
    raw: Any,
    shapes: Sequence[tuple[int, int]],
    path: str,
    errors: _Collector,
) -> list[Matrix] | None:
    if not isinstance(raw, list):
        errors.add("bad_type", path, "expected an array of matrices")
        return None
    if len(raw) != len(shapes):
        errors.add("shape_mismatch", path, f"expected {len(shapes)} matrices, got {len(raw)}")
        return None
    out = []
    ok = True
    for j, (item, (r, c)) in enumerate(zip(raw, shapes)):
        m = _decode_matrix(field, item, r, c, f"{path}[{j}]", errors)
        if m is None:
            ok = False
        else:
            out.append(m)
    return out if ok else None


# ---------------------------------------------------------------------------
# documents


def _decode_field(raw: Any, errors: _Collector) -> Field | None:
    if not isinstance(raw, dict):
        errors.add("field_invalid", "field", "field must be an object")
        return None
    kind = raw.get("kind")
    if kind == "Q":
        extra = set(raw) - {"kind"}
        if extra:
            errors.add("field_invalid", "field", f"unexpected keys {sorted(extra)}")
            return None
        return Rationals()
    if kind == "Fp":
        p = raw.get("p")
        if isinstance(p, int) and p >= PRIMALITY_BOUND:
            errors.add(
                "modulus_too_large", "field.p", f"modulus must be below {PRIMALITY_BOUND}, got {p.bit_length()} bits"
            )
            return None
        try:
            return PrimeField(p)
        except ValueError:
            errors.add("modulus_not_prime", "field.p", f"modulus must be a prime integer, got {p!r}")
            return None
    errors.add("field_invalid", "field.kind", f"unknown field kind {kind!r}")
    return None


def parse_document(data: Any) -> Document:
    errors = _Collector()
    if not isinstance(data, dict):
        errors.add("bad_document", "$", "document must be a JSON object")
        errors.raise_if_any()

    version = data.get("format_version")
    if version != FORMAT_VERSION:
        errors.add("unsupported_format_version", "format_version", f"expected {FORMAT_VERSION!r}, got {version!r}")

    field = _decode_field(data.get("field"), errors)

    lo = data.get("lo")
    hi = data.get("hi")
    for name, value in (("lo", lo), ("hi", hi)):
        if isinstance(value, bool) or not isinstance(value, int):
            errors.add("bad_type", name, f"{name} must be an integer")
    if isinstance(lo, int) and isinstance(hi, int) and not isinstance(lo, bool) and lo > hi:
        errors.add("window_invalid", "lo", f"lo={lo} exceeds hi={hi}")

    dims = data.get("dims")
    if (
        not isinstance(dims, list)
        or any(isinstance(n, bool) or not isinstance(n, int) or n < 0 for n in dims)
    ):
        errors.add("dims_invalid", "dims", "dims must be an array of nonnegative integers")
        dims = None
    elif sum(dims) > MAX_TOTAL_DIMENSION:
        errors.add("dims_too_large", "dims", f"dimensions may total at most {MAX_TOTAL_DIMENSION}, got {sum(dims)}")
        dims = None
    elif isinstance(lo, int) and isinstance(hi, int) and lo <= hi and len(dims) != hi - lo + 1:
        errors.add("dims_invalid", "dims", f"expected {hi - lo + 1} entries for degrees {lo}..{hi}")
        dims = None

    errors.raise_if_any()
    assert field is not None and dims is not None

    differential_shapes = [(dims[j + 1], dims[j]) for j in range(len(dims) - 1)]
    differentials = _decode_matrix_list(
        field, data.get("differentials", []), differential_shapes, "differentials", errors
    )
    errors.raise_if_any()
    assert differentials is not None

    complex = ChainComplex(field, lo, dims, differentials)
    for problem in validate_complex(complex):
        errors.add("differential_composite_nonzero", "differentials", problem)
    errors.raise_if_any()

    endomorphism = None
    if "endomorphism" in data and data["endomorphism"] is not None:
        endomorphism = _decode_graded(ChainEndomorphism, complex, data["endomorphism"], "endomorphism", errors)
        errors.raise_if_any()
        # analyze and the builders rely on the subject being a chain map; the
        # witnesses' own algebra is left to the verifier
        for problem in validate_chain_map(endomorphism):
            errors.add("endomorphism_not_chain_map", "endomorphism", problem)
        errors.raise_if_any()

    witnesses: list[object] = []
    raw_witnesses = data.get("witnesses")
    if raw_witnesses is not None:
        if not isinstance(raw_witnesses, list):
            errors.add("bad_type", "witnesses", "witnesses must be an array")
            errors.raise_if_any()
        for idx, raw in enumerate(raw_witnesses):
            parsed = _parse_witness(complex, raw, f"witnesses[{idx}]", errors)
            if parsed is not None:
                witnesses.append(parsed)
        errors.raise_if_any()

    return Document(complex, endomorphism, tuple(witnesses))


def _parse_pairs(
    complex: ChainComplex, raw: Any, path: str, errors: _Collector
) -> dict[int, tuple[Matrix, Matrix]] | None:
    dims = complex.dims
    if not isinstance(raw, list) or len(raw) != len(dims):
        errors.add("witness_invalid", path, f"expected {len(dims)} pairs")
        return None
    pairs = {}
    ok = True
    for j, item in enumerate(raw):
        if not isinstance(item, list) or len(item) != 2:
            errors.add("witness_invalid", f"{path}[{j}]", "expected a pair of matrices")
            ok = False
            continue
        n = dims[j]
        a = _decode_matrix(complex.field, item[0], n, n, f"{path}[{j}][0]", errors)
        b = _decode_matrix(complex.field, item[1], n, n, f"{path}[{j}][1]", errors)
        if a is None or b is None:
            ok = False
        else:
            pairs[complex.lo + j] = (a, b)
    return pairs if ok else None


def _decode_graded(cls: type, complex: ChainComplex, raw: Any, path: str, errors: _Collector):
    """A ChainEndomorphism or Homotopy of the right shapes, or None; no
    algebraic condition is checked here."""
    shapes = [cls.shape(complex, i) for i in complex.degrees]
    maps = _decode_matrix_list(complex.field, raw, shapes, path, errors)
    return cls(complex, maps) if maps is not None else None


_WITNESS_TYPES = ("pointwise", "commutator", "homotopy_pointwise", "homotopy_commutator")


def _parse_witness(complex: ChainComplex, raw: Any, path: str, errors: _Collector) -> object | None:
    """Shapes and scalars only: whether the maps satisfy the witness's
    identities is for :mod:`chaincomm.verify` to decide."""
    if not isinstance(raw, dict):
        errors.add("witness_invalid", path, "witness must be an object")
        return None
    kind = raw.get("type")
    if kind not in _WITNESS_TYPES:
        errors.add("witness_invalid", f"{path}.type", f"unknown witness type {kind!r}")
        return None
    homotopic = kind.startswith("homotopy_")
    if homotopic:
        homotopy = _decode_graded(Homotopy, complex, raw.get("homotopy"), f"{path}.homotopy", errors)
    if kind.endswith("pointwise"):
        pairs = _parse_pairs(complex, raw.get("pairs"), f"{path}.pairs", errors)
        residual = PointwiseWitness(complex, pairs) if pairs is not None else None
    else:
        alpha = _decode_graded(ChainEndomorphism, complex, raw.get("alpha"), f"{path}.alpha", errors)
        beta = _decode_graded(ChainEndomorphism, complex, raw.get("beta"), f"{path}.beta", errors)
        residual = CommutatorWitness(alpha, beta) if alpha is not None and beta is not None else None
    if not homotopic:
        return residual
    if homotopy is None or residual is None:
        return None
    return HomotopyWitness(homotopy, residual)


# ---------------------------------------------------------------------------
# serialization


def encode_field(field: Field) -> dict[str, Any]:
    if field.finite:
        return {"kind": "Fp", "p": field.size}
    return {"kind": "Q"}


def _encode_graded(g: ChainEndomorphism | Homotopy) -> list:
    return [encode_matrix(m) for m in g.maps]


def encode_witness(witness: object) -> dict[str, Any]:
    if isinstance(witness, HomotopyWitness):
        out = _encode_residual(witness.residual)
        return {**out, "type": "homotopy_" + out["type"], "homotopy": _encode_graded(witness.homotopy)}
    return _encode_residual(witness)


def _encode_residual(witness: object) -> dict[str, Any]:
    if isinstance(witness, PointwiseWitness):
        pairs = (witness.pairs[i] for i in witness.complex.degrees)
        return {"type": "pointwise", "pairs": [[encode_matrix(a), encode_matrix(b)] for a, b in pairs]}
    if isinstance(witness, CommutatorWitness):
        return {"type": "commutator", "alpha": _encode_graded(witness.alpha), "beta": _encode_graded(witness.beta)}
    raise TypeError(f"not a witness: {witness!r}")


def serialize_document(
    complex: ChainComplex,
    endomorphism: ChainEndomorphism | None = None,
    witnesses: Sequence[object] = (),
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "field": encode_field(complex.field),
        "lo": complex.lo,
        "hi": complex.hi,
        "dims": list(complex.dims),
        "differentials": [encode_matrix(d) for d in complex.stored_differentials],
    }
    if endomorphism is not None:
        doc["endomorphism"] = _encode_graded(endomorphism)
    if witnesses:
        doc["witnesses"] = [encode_witness(w) for w in witnesses]
    return doc


# ---------------------------------------------------------------------------
# report/verdict encoding (used by the CLI)


def encode_analysis(analysis) -> dict[str, Any]:
    report = analysis.report
    return {
        "quasi_bounded": report.quasi_bounded,
        "degree_traces": {str(i): _encode_trace(v) for i, v in sorted(report.degree_traces.items())},
        "cohomology_traces": {str(i): _encode_trace(v) for i, v in sorted(report.cohomology_traces.items())},
        "stretches": [
            {
                "start": s.start,
                "end": s.end,
                "trace": _encode_trace(report.stretch_traces[s]),
                "cohomology_trace": _encode_trace(report.stretch_cohomology_traces[s]),
            }
            for s in report.stretches
        ],
        "conditions": {
            "theorem1": report.degree_traces_vanish,
            "theorem2": report.degree_and_cohomology_traces_vanish,
            "theorem3": report.cohomology_traces_vanish,
            "theorem4": report.stretch_traces_vanish,
        },
        "verdicts": {
            name: {
                "condition_holds": v.condition_holds,
                "construction_available": v.construction_available,
                "note": v.note,
            }
            for name, v in analysis.verdicts.items()
        },
    }


def _encode_trace(value: Scalar) -> str | int:
    if isinstance(value, Fraction):
        return render(value)
    return int(value)


def encode_example2_report(report) -> dict[str, Any]:
    def mat_list(mats) -> list:
        return [encode_matrix(m) for m in sorted(mats, key=Matrix.sort_key)]

    return {
        "boundary_commutant": mat_list(report.boundary_commutant),
        "cohomology_commutant": mat_list(report.cohomology_commutant),
        "admissible_pairs": [[encode_matrix(p), encode_matrix(s)] for p, s in report.admissible_pairs],
        "q_candidates": [
            {"p": encode_matrix(p), "candidates": [encode_matrix(q) for q in qs]}
            for p, qs in sorted(report.q_candidates.items(), key=lambda kv: kv[0].sort_key())
        ],
        "q_pair_trials": report.q_pair_trials,
        "q_pair_successes": report.q_pair_successes,
        "matches_expected": report.matches_expected,
    }


def encode_verification(result) -> dict[str, Any]:
    return {
        "ok": result.ok,
        "violations": [
            {
                "location": v.location,
                "identity": v.identity,
                "entry": None if v.entry is None else list(v.entry),
                "left": v.left,
                "right": v.right,
            }
            for v in result.violations
        ],
    }
