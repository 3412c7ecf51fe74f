"""Command-line interface.

Subcommands
-----------
analyze <file>            trace report and per-theorem verdicts
witness <file> --theorem N
                          construct a witness (1 pointwise, 2 chain
                          commutator, 3 homotopy-to-commutator, 4 homotopy-
                          to-pointwise)
verify <file>             re-check the witnesses embedded in a document
counterexample example2   reproduce the exhaustive F_2 search
random ...                emit a seeded random instance

Standard output carries JSON only; diagnostics go to standard error.
Exit codes: 0 success, 1 failed verification, 2 mathematical obstruction,
3 construction limitation, 64 usage error, 65 schema violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Sequence

from . import jsonio, verify as verify_mod, witnesses as engine
from .errors import ConstructionLimitation, MathematicalObstruction
from .fields import PRIMALITY_BOUND, Field, PrimeField, Rationals
from .generate import ENSURE_CHOICES, random_complex, random_endomorphism
from .jsonio import SchemaError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_OBSTRUCTION = 2
EXIT_LIMITATION = 3
EXIT_USAGE = 64
EXIT_SCHEMA = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _parse_field(text: str) -> Field:
    if text == "Q":
        return Rationals()
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise UsageError(f"bad field spec {text!r}")
        if p >= PRIMALITY_BOUND:
            raise UsageError(f"modulus {p} is not below the supported bound {PRIMALITY_BOUND}")
        try:
            return PrimeField(p)
        except ValueError:
            raise UsageError(f"modulus {p} is not prime")
    raise UsageError(f"bad field spec {text!r}; expected Q or Fp:<prime>")


def build_parser() -> _Parser:
    parser = _Parser(prog="chaincomm", description="Commutator-type witnesses for chain endomorphisms")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="trace report and verdicts")
    p_analyze.add_argument("file")

    p_witness = sub.add_parser("witness", help="construct a witness")
    p_witness.add_argument("file")
    p_witness.add_argument("--theorem", type=int, choices=(1, 2, 3, 4), required=True)

    p_verify = sub.add_parser("verify", help="re-check embedded witnesses")
    p_verify.add_argument("file")

    p_counter = sub.add_parser("counterexample", help="reproduce a counterexample search")
    p_counter.add_argument("what", choices=("example2",))

    p_random = sub.add_parser("random", help="emit a seeded random instance")
    p_random.add_argument("--seed", type=int, required=True)
    p_random.add_argument("--field", default="Q")
    p_random.add_argument("--max-dim", type=int, default=4)
    p_random.add_argument("--length", type=int, default=4)
    p_random.add_argument("--ensure", choices=ENSURE_CHOICES, default=None)

    return parser


def _emit(payload: Any) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_document(path: str, command: str) -> jsonio.Document:
    """The document at ``path``, which must carry an endomorphism for ``command``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too long an integer, too deep nesting
        raise SchemaError([jsonio.SchemaViolation("invalid_json", "$", str(exc))])
    doc = jsonio.parse_document(raw)
    if doc.endomorphism is None:
        raise SchemaError([jsonio.SchemaViolation("missing_endomorphism", "endomorphism", f"{command} needs an endomorphism")])
    return doc


_WITNESS_BUILDERS = {
    1: engine.pointwise_commutator_witness,
    2: engine.commutator_witness,
    3: engine.homotopy_commutator_witness,
    4: engine.homotopy_pointwise_witness,
}


def _cmd_analyze(args) -> int:
    doc = _load_document(args.file, "analyze")
    analysis = engine.analyze(doc.endomorphism)
    _emit(jsonio.encode_analysis(analysis))
    return EXIT_OK


def _cmd_witness(args) -> int:
    doc = _load_document(args.file, "witness")
    try:
        witness = _WITNESS_BUILDERS[args.theorem](doc.endomorphism)
        certificate = jsonio.serialize_document(doc.complex, doc.endomorphism, [witness])
    except MathematicalObstruction as exc:
        _emit({"obstruction": exc.describe()})
        return EXIT_OBSTRUCTION
    except ConstructionLimitation as exc:  # including a value too long for any document
        _emit({"limitation": exc.describe()})
        return EXIT_LIMITATION
    _emit(certificate)
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc = _load_document(args.file, "verify")
    if not doc.witnesses:
        _emit({"ok": False, "violations": [], "reason": "document carries no witnesses"})
        return EXIT_VERIFY_FAILED
    results = [verify_mod.verify_witness(doc.endomorphism, w) for w in doc.witnesses]
    payload = {
        "ok": all(r.ok for r in results),
        "witnesses": [jsonio.encode_verification(r) for r in results],
    }
    _emit(payload)
    return EXIT_OK if payload["ok"] else EXIT_VERIFY_FAILED


def _cmd_counterexample(args) -> int:
    report = verify_mod.example2_search()
    _emit(jsonio.encode_example2_report(report))
    return EXIT_OK if report.matches_expected else EXIT_VERIFY_FAILED


def _cmd_random(args) -> int:
    field = _parse_field(args.field)
    if args.length < 1 or args.max_dim < 0:
        raise UsageError("need --length >= 1 and --max-dim >= 0")
    # a larger instance could not be parsed back (dims_too_large); --length
    # is capped on its own because --max-dim may be 0
    cap = jsonio.MAX_TOTAL_DIMENSION
    if args.length > cap or args.max_dim * args.length > cap:
        raise UsageError(f"need --length and --max-dim x --length at most {cap}")
    rng = random.Random(args.seed)
    complex = random_complex(rng, field, max_dim=args.max_dim, length=args.length)
    endo = random_endomorphism(rng, complex, ensure=args.ensure)
    _emit(jsonio.serialize_document(complex, endo))
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
    "counterexample": _cmd_counterexample,
    "random": _cmd_random,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as exc:
        _emit({"schema_violations": [v.to_json() for v in exc.violations]})
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
