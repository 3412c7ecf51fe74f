"""JSON interchange: parsing, validation and serialization of instances.

Format version "1".  A document carries a coefficient field, a support
window, dimensions, differentials, optionally a chain endomorphism and
optionally witness payloads.  Rational entries travel as strings in lowest
terms ("-3/2", "7"); JSON numbers are rejected over Q so exactness survives
the wire.  F_p entries are integers in range(p).  Matrices are row-major
arrays of row arrays; every expected shape is determined by the window and
dimensions, so empty matrices are unambiguous.

Parsing returns domain objects or raises :class:`SchemaError` carrying all
violations, each with a machine-readable code and a JSON-path location.  A
key the format does not name, at the top level or in a witness, is refused.
One walk over the document reads it, and is the only reader of its layout.
Each array of matrices the walk reaches (the differentials, the
endomorphism, a witness's homotopy, alpha, beta or pairs) has its cells
checked and converted in one batch at the shapes the window and dimensions
fix, building no ``Fraction``: over Q one pattern over the comma-joined
cells and one ``gcd`` per cell, over F_p one ``min`` and one ``max``.  An
array that fails anywhere in its batch is walked matrix by matrix and cell
by cell instead, which names every violation in order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
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
from .matrices import Matrix

FORMAT_VERSION = "1"

_RATIONAL_RE = re.compile(r"(-?([0-9]+))(?:/([0-9]+))?")

_NONZERO_MAGNITUDE = f"[1-9][0-9]{{0,{MAX_RATIONAL_DIGITS - 1}}}"
_CANONICAL_CELL = rf"(?:0|-?{_NONZERO_MAGNITUDE}(?:/(?!1(?:,|\Z)){_NONZERO_MAGNITUDE})?)"
_CANONICAL_CELLS_RE = re.compile(rf"{_CANONICAL_CELL}(?:,{_CANONICAL_CELL})*")
"""Comma-joined cells, each in the one spelling ``_decode_scalar`` accepts,
lowest terms aside: ASCII digits within the digit cap, no leading zeros, no
"-0", and a denominator, when written, neither 0 nor 1 (a "1" that ends its
cell).  It reads a cell holding a comma as two cells, so the caller counts
the commas too."""

MAX_TOTAL_DIMENSION = 10_000
"""Largest sum of ``dims`` a document may declare.  Zero matrices off and at
the ends of the window are allocated from ``dims`` alone, before any entry is
read, so without a cap a few bytes of JSON could ask for gigabytes."""

MAX_DENOMINATOR_DIGITS = 2 * MAX_RATIONAL_DIGITS
"""Longest lcm, in decimal digits, of the denominators of one Q matrix: room
for two entries whose denominators are at the digit cap and coprime.  A
matrix stores every entry over that lcm, so without a cap a matrix of many
unrelated denominators would hold integers as long as all of them together
in each of its entries."""

_DENOMINATOR_LIMIT = 10**MAX_DENOMINATOR_DIGITS

_BLOCK = 256
"""Cells taken at a time by one ``lcm`` (see ``_matrix``) or by one
match of the joined pattern, which keeps a few hundred bytes of backtracking
state for each cell it has matched until the match ends."""


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
    """The violations one parse has found."""

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
    return _encode_ratio(*field.normalize(value).as_integer_ratio())


def _encode_ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a pair in lowest terms, the digit cap
    judged on bit lengths before ``str`` is called."""
    if exceeds_digit_cap(num) or exceeds_digit_cap(den):
        value = render(Fraction(num, den))
        raise ValueTooLong(f"value {value} has more than the {MAX_RATIONAL_DIGITS} digits a document may carry")
    return str(num) if den == 1 else f"{num}/{den}"


def _decode_scalar(field: Field, raw: Any, path: str, errors: _Collector) -> int | tuple[int, int] | None:
    """A residue over F_p; over Q a (numerator, denominator) pair in lowest
    terms with a positive denominator.  None after recording a violation."""
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
    num_text, magnitude, den_text = match.groups()
    if len(magnitude) > MAX_RATIONAL_DIGITS or len(den_text or "") > MAX_RATIONAL_DIGITS:
        digits = max(len(magnitude), len(den_text or ""))
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
    if (magnitude[0] == "0" and num_text != "0") or (den_text is not None and den_text[0] == "0"):
        canonical = magnitude.lstrip("0") or "0"
        if num_text[0] == "-" and canonical != "0":
            canonical = "-" + canonical
        if den_text is not None:
            canonical += "/" + den_text.lstrip("0")
        errors.add("rational_invalid", path, f"{raw!r} has leading zeros or a signed zero; write {canonical!r}")
        return None
    num = int(num_text)
    if not den_text:
        return (num, 1)
    den = int(den_text)
    g = gcd(num, den)
    # "n/1" is not in lowest terms either: it is written "n"
    if den == 1 or g != 1:
        lowest = _encode_ratio(num // g, den // g)
        errors.add("rational_not_reduced", path, f"{raw!r} is not in lowest terms; write {lowest!r}")
        return None
    return (num, den)


# ---------------------------------------------------------------------------
# matrices


def encode_matrix(m: Matrix) -> list[list[str | int]]:
    if m.field.finite:
        return m.to_rows()
    if m.denominator >= _DENOMINATOR_LIMIT:
        raise ValueTooLong(
            f"the lcm of a matrix's denominators has more than the {MAX_DENOMINATOR_DIGITS} digits a document may carry"
        )
    ints, den = m.numerators, m.denominator
    if exceeds_digit_cap(max(ints, key=abs, default=0)) or exceeds_digit_cap(den):
        # some entry may be over the cap: judged, and refused, cell by cell
        cells = [_encode_ratio(num, den) for num, den in m.ratios()]
    elif den == 1:
        cells = list(map(str, ints))
    else:
        # under the cap before reduction, so under it after
        cells = [str(x // den) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}" for x in ints]
    return [cells[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)]


def _decode_matrices(
    field: Field, matrices: list[tuple[Any, int, int, str]], errors: _Collector
) -> list[Matrix | None]:
    """The matrices of one array, each given as (raw, rows, cols, path), or
    None for each after recording its violations.  Their cells are checked
    and converted in one batch; if any row or cell fails, each matrix is
    walked cell by cell instead, which names every violation in order."""
    batch = _decode_batch(field, matrices)
    if batch is None:
        return [_decode_matrix(field, raw, rows, cols, path, errors) for raw, rows, cols, path in matrices]
    return [_matrix(field, r, c, entries, path, errors) for (_, r, c, path), entries in zip(matrices, batch)]


def _decode_matrix(
    field: Field, raw: Any, rows: int, cols: int, path: str, errors: _Collector
) -> Matrix | None:
    if not isinstance(raw, list):
        errors.add("bad_type", path, f"matrix must be an array of rows, got {type(raw).__name__}")
        return None
    if len(raw) != rows:
        errors.add("shape_mismatch", path, f"expected {rows} rows, got {len(raw)}")
        return None
    entries = _decode_cells(field, raw, cols, path, errors)
    if entries is None:
        return None
    return _matrix(field, rows, cols, entries, path, errors)


def _matrix(field: Field, rows: int, cols: int, entries: Any, path: str, errors: _Collector) -> Matrix | None:
    """The matrix of entries in the form ``_decode_cells`` gives them."""
    if field.finite:
        return Matrix.from_canonical(field, rows, cols, entries)
    # the matrix stores every entry over the lcm of the denominators, so the
    # lcm is bounded before the matrix is built, taken a block at a time so
    # that refusing a matrix costs time linear in its size
    nums, dens = entries
    den = 1
    for k in range(0, len(dens), _BLOCK):
        den = lcm(den, *dens[k : k + _BLOCK])
        if den >= _DENOMINATOR_LIMIT:
            errors.add(
                "denominator_too_large",
                path,
                f"the lcm of the entries' denominators has more than {MAX_DENOMINATOR_DIGITS} digits",
            )
            return None
    return Matrix.from_ratios(field, rows, cols, nums, dens, den)


def _decode_batch(field: Field, matrices: list[tuple[Any, int, int, str]]) -> list | None:
    """The entries of each of ``matrices``, in the form ``_decode_cells``
    gives them, checked and converted as one batch of cells: over Q one
    pattern over the comma-joined cells (a block at a time; the join refuses
    a cell that is not a string), one ``int`` pass and one ``gcd`` per cell
    for lowest terms, over F_p one type test, one ``min`` and one ``max``.
    None when any matrix, row or cell fails, leaving every matrix to the
    walk, which reports it."""
    rows, widths = [], []
    for raw, r, c, _ in matrices:
        if type(raw) is not list or len(raw) != r:
            return None
        rows += raw
        widths += [c] * r
    if not set(map(type, rows)) <= {list} or list(map(len, rows)) != widths:
        return None
    cells = list(chain.from_iterable(rows))
    if field.finite:
        if not set(map(type, cells)) <= {int} or (cells and (min(cells) < 0 or max(cells) >= field.size)):
            return None
    else:
        for k in range(0, len(cells), _BLOCK):
            block = cells[k : k + _BLOCK]
            try:
                text = ",".join(block)
            except TypeError:  # a cell that is not a string
                return None
            # a cell holding a comma would read as two canonical cells
            if text.count(",") != len(block) - 1 or not _CANONICAL_CELLS_RE.fullmatch(text):
                return None
        halves = [cell.partition("/") for cell in cells]
        nums = [int(n) for n, _, _ in halves]
        dens = [int(d) if d else 1 for _, _, d in halves]
        # the gcd of an integer with its denominator 1 is 1
        if max(map(gcd, nums, dens), default=1) != 1:
            return None
    batch = []
    start = 0
    for _, r, c, _ in matrices:
        end = start + r * c
        batch.append(cells[start:end] if field.finite else (nums[start:end], dens[start:end]))
        start = end
    return batch


def _decode_cells(
    field: Field, raw: list, cols: int, path: str, errors: _Collector
) -> list | tuple[list[int], list[int]] | None:
    """The entries, row-major, cell by cell: the residues over F_p, the
    numerators and the denominators over Q; None after recording every
    malformed row and cell in order."""
    entries: list = []
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
    return entries if field.finite else ([n for n, _ in entries], [q for _, q in entries])


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
    items = [(item, r, c, f"{path}[{j}]") for j, (item, (r, c)) in enumerate(zip(raw, shapes))]
    out = _decode_matrices(field, items, errors)
    return None if any(m is None for m in out) else out


# ---------------------------------------------------------------------------
# documents


def _decode_field(raw: Any, errors: _Collector) -> Field | None:
    if not isinstance(raw, dict):
        errors.add("field_invalid", "field", "field must be an object")
        return None
    kind = raw.get("kind")
    if kind in ("Q", "Fp"):
        extra = set(raw) - ({"kind"} if kind == "Q" else {"kind", "p"})
        if extra:
            errors.add("field_invalid", "field", f"unexpected keys {sorted(extra)}")
            return None
    if kind == "Q":
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


_DOCUMENT_KEYS = {"format_version", "field", "lo", "hi", "dims", "differentials", "endomorphism", "witnesses"}


def parse_document(data: Any) -> Document:
    errors = _Collector()
    if not isinstance(data, dict):
        errors.add("bad_document", "$", "document must be a JSON object")
        errors.raise_if_any()
    extra = set(data) - _DOCUMENT_KEYS
    if extra:
        errors.add("bad_document", "$", f"unexpected keys {sorted(extra)}")

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
    well_formed = [isinstance(item, list) and len(item) == 2 for item in raw]
    # the pairs are one batch, or with a malformed pair one batch each, so
    # that a malformed pair is reported in its place among the others' cells
    groups = [range(len(raw))] if all(well_formed) else [[j] for j in range(len(raw))]
    matrices: list = []
    for group in groups:
        if not well_formed[group[0]]:
            errors.add("witness_invalid", f"{path}[{group[0]}]", "expected a pair of matrices")
            matrices += [None, None]
            continue
        items = [(m, dims[j], dims[j], f"{path}[{j}][{k}]") for j in group for k, m in enumerate(raw[j])]
        matrices += _decode_matrices(complex.field, items, errors)
    if any(m is None for m in matrices):
        return None
    return {complex.lo + j: (matrices[2 * j], matrices[2 * j + 1]) for j in range(len(dims))}


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
    pointwise = kind.endswith("pointwise")
    maps = ({"homotopy"} if homotopic else set()) | ({"pairs"} if pointwise else {"alpha", "beta"})
    extra = set(raw) - maps - {"type"}
    if extra:
        errors.add("witness_invalid", path, f"unexpected keys {sorted(extra)}")
        return None
    if homotopic:
        homotopy = _decode_graded(Homotopy, complex, raw.get("homotopy"), f"{path}.homotopy", errors)
    if pointwise:
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
        "conditions": {name: v.condition_holds for name, v in analysis.verdicts.items()},
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
