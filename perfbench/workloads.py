"""Workloads of the chaincomm benchmark.

Each workload turns a seed into an endless, deterministic stream of requests,
produced a round at a time, and serves one request with the in-process chain
that ``chaincomm analyze`` / ``witness --theorem N`` / ``verify`` run.  Every
library call goes through the module attribute (``witnesses.analyze``, not a
name bound here), so a tracer that patches the package sees it.

Complexes are drawn by total-dimension band in a fixed cycle (stratified
sampling of ``random_complex``): request cost grows steeply with dimension,
and without the bands two seeds would differ mostly in how many large
complexes they happened to draw.
"""

from __future__ import annotations

import bisect
import json
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from chaincomm import generate, jsonio, verify, witnesses
from chaincomm.fields import RATIONALS, PrimeField

FP_MODULUS = 2**31 - 1  # large enough that FieldTooSmall never fires

BUILDERS = {
    1: "pointwise_commutator_witness",
    2: "commutator_witness",
    3: "homotopy_commutator_witness",
    4: "homotopy_pointwise_witness",
}
WITNESS_TYPES = {1: "pointwise", 2: "commutator", 3: "homotopy_commutator", 4: "homotopy_pointwise"}
VERIFIERS = {
    "PointwiseWitness": "verify_pointwise",
    "CommutatorWitness": "verify_commutator",
    "HomotopyWitness": "verify_homotopy_witness",
}

# Upper ends of the total-dimension bands, chosen so each band holds about a
# third of random_complex's draws: (6, 5) gives 33%/35%/32%, (10, 6) gives
# 32%/33%/35%.
Q_BAND_TOPS = (22, 25)
FP_BAND_TOPS = (45, 50)


def to_text(document: dict) -> str:
    """A document as ``chaincomm`` prints it on standard output."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class Request:
    text: str
    theorem: int
    tampered: bool = False
    complex_id: int | None = None  # equal ids: the same complex (certify workloads)
    endomorphism_id: int | None = None


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str
    certificate: str  # the certificate a third party downloads
    violations: int
    bytes_parsed: int


def witness_type(witness) -> str:
    """The wire ``type`` of a parsed witness."""
    if isinstance(witness, witnesses.HomotopyWitness):
        return "homotopy_" + ("commutator" if isinstance(witness.residual, witnesses.CommutatorWitness) else "pointwise")
    return "pointwise" if isinstance(witness, witnesses.PointwiseWitness) else "commutator"


def verify_witness(doc: jsonio.Document):
    witness = doc.witnesses[0]
    return getattr(verify, VERIFIERS[type(witness).__name__])(doc.endomorphism, witness)


class ComplexSource:
    """``random_complex`` draws handed out by total-dimension band; a draw
    that lands in a band nobody asked for waits for a later request."""

    def __init__(self, rng: random.Random, field, max_dim: int, length: int, band_tops: tuple[int, ...]):
        self._rng = rng
        self._field = field
        self._max_dim = max_dim
        self._length = length
        self._band_tops = band_tops
        self._queues = [deque() for _ in range(len(band_tops) + 1)]

    @property
    def bands(self) -> int:
        return len(self._queues)

    def draw(self, band: int):
        queue = self._queues[band]
        while not queue:
            c = generate.random_complex(self._rng, self._field, max_dim=self._max_dim, length=self._length)
            self._queues[bisect.bisect_left(self._band_tops, sum(c.dims))].append(c)
        return queue.popleft()


class Workload:
    name = ""
    traced_rounds = 1

    def next_round(self) -> list[Request]:
        raise NotImplementedError

    def serve(self, request: Request):
        raise NotImplementedError

    def judge(self, request: Request, raw) -> Outcome:
        raise NotImplementedError


class _Certify(Workload):
    """Producer requests: parse, analyze, build, serialize, re-parse, verify."""

    def serve(self, request: Request):
        doc = jsonio.parse_document(json.loads(request.text))
        analysis = witnesses.analyze(doc.endomorphism)
        witness = getattr(witnesses, BUILDERS[request.theorem])(doc.endomorphism)
        certificate = to_text(jsonio.serialize_document(doc.complex, doc.endomorphism, [witness]))
        back = jsonio.parse_document(json.loads(certificate))
        return doc, analysis, certificate, back, verify_witness(back)

    def judge(self, request: Request, raw) -> Outcome:
        doc, analysis, certificate, back, result = raw
        parsed = len(request.text.encode()) + len(certificate.encode())
        verdict = analysis.verdicts[f"theorem{request.theorem}"]
        if not (verdict.condition_holds and verdict.construction_available):
            reason = f"analyze denies theorem {request.theorem}"
        elif back.complex != doc.complex or back.endomorphism != doc.endomorphism:
            reason = "certificate is about another complex or endomorphism"
        elif [witness_type(w) for w in back.witnesses] != [WITNESS_TYPES[request.theorem]]:
            reason = "certificate carries the wrong witnesses"
        elif not result.ok:
            reason = f"certificate fails verification ({len(result.violations)} violations)"
        else:
            reason = ""
        return Outcome(not reason, reason, certificate, len(result.violations), parsed)


class QChainCertify(_Certify):
    """Theorem 2 over Q on a fresh complex per request."""

    name = "q_chain_certify"
    traced_rounds = 3
    per_round = 6

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.complexes = ComplexSource(self.rng, RATIONALS, 6, 5, Q_BAND_TOPS)
        self.drawn = 0

    def next_round(self) -> list[Request]:
        out = []
        for _ in range(self.per_round):
            c = self.complexes.draw(self.drawn % self.complexes.bands)
            phi = generate.random_endomorphism(self.rng, c, ensure="t2")
            out.append(Request(to_text(jsonio.serialize_document(c, phi)), 2, False, self.drawn, self.drawn))
            self.drawn += 1
        return out


class FpHomotopyCertify(_Certify):
    """Theorems 3 and 4 over F_p, p = 2^31 - 1: each complex carries two
    endomorphisms and each endomorphism gets both theorems, so three in four
    requests reuse a complex and one in two reuses an endomorphism."""

    name = "fp_homotopy_certify"
    traced_rounds = 2
    endomorphisms_per_complex = 2

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.field = PrimeField(FP_MODULUS)
        self.complexes = ComplexSource(self.rng, self.field, 10, 6, FP_BAND_TOPS)
        self.drawn = 0
        self.endomorphisms = 0

    def next_round(self) -> list[Request]:
        out = []
        for band in range(self.complexes.bands):
            c = self.complexes.draw(band)
            for _ in range(self.endomorphisms_per_complex):
                phi = generate.random_endomorphism(self.rng, c, ensure="t4")
                text = to_text(jsonio.serialize_document(c, phi))
                out.extend(Request(text, theorem, False, self.drawn, self.endomorphisms) for theorem in (3, 4))
                self.endomorphisms += 1
            self.drawn += 1
        self.rng.shuffle(out)
        return out


# -- third-party re-checking --------------------------------------------------


def _negate(entry: str) -> str:
    if entry == "0":
        return entry
    return entry[1:] if entry.startswith("-") else "-" + entry


def _conjugate(matrix: list, row_basis: tuple, col_basis: tuple) -> list:
    """P_row M P_col^-1 for signed permutations P given as (perm, signs):
    entry (a, b) moves to (perm_row[a], perm_col[b]) with sign s_row[a] s_col[b]."""
    row_perm, row_signs = row_basis
    col_perm, col_signs = col_basis
    out = [[None] * len(col_perm) for _ in row_perm]
    for a, row in enumerate(matrix):
        target = out[row_perm[a]]
        for b, entry in enumerate(row):
            target[col_perm[b]] = entry if row_signs[a] == col_signs[b] else _negate(entry)
    return out


def change_basis(doc: dict, rng: random.Random) -> dict:
    """The same certificate in a random signed-permutation basis, applied
    alike to the differentials, phi, the witness maps and the homotopy."""
    dims = doc["dims"]
    bases = []
    for n in dims:
        perm = list(range(n))
        rng.shuffle(perm)
        bases.append((perm, [rng.choice((1, -1)) for _ in range(n)]))
    empty = ([], [])

    def basis(j: int):
        return bases[j] if 0 <= j < len(bases) else empty

    def endo(maps: list) -> list:
        return [_conjugate(m, basis(j), basis(j)) for j, m in enumerate(maps)]

    out = dict(doc)
    out["differentials"] = [_conjugate(m, basis(j + 1), basis(j)) for j, m in enumerate(doc["differentials"])]
    out["endomorphism"] = endo(doc["endomorphism"])
    witnesses_out = []
    for w in doc["witnesses"]:
        w = dict(w)
        if "pairs" in w:
            w["pairs"] = [[_conjugate(m, basis(j), basis(j)) for m in pair] for j, pair in enumerate(w["pairs"])]
        for key in ("alpha", "beta"):
            if key in w:
                w[key] = endo(w[key])
        if "homotopy" in w:
            w["homotopy"] = [_conjugate(m, basis(j - 1), basis(j)) for j, m in enumerate(w["homotopy"])]
        witnesses_out.append(w)
    out["witnesses"] = witnesses_out
    return out


def tamper(doc: dict) -> dict:
    """Replace phi by phi + identity: still a chain map, so the document
    parses, but no witness for phi fits it."""
    out = dict(doc)
    maps = []
    for m in doc["endomorphism"]:
        m = [list(row) for row in m]
        for a in range(len(m)):
            m[a][a] = str(Fraction(m[a][a]) + 1)
        maps.append(m)
    out["endomorphism"] = maps
    return out


class QVerifyRecheck(Workload):
    """Verification only, over Q: certificates of all four witness kinds,
    each expanded into distinct documents by signed-permutation changes of
    basis; one document in eight is tampered and must be rejected.

    The base instances come from one fixed stream, the same for every seed.
    A run verifies only about thirty of them, too few for their mix of sizes
    to average out: drawn from the seed, five seeds gave a throughput spread
    of 0.18.  The seed chooses every document's change of basis, the order
    and which documents are tampered.
    """

    name = "q_verify_recheck"
    traced_rounds = 1
    copies_per_base = 40
    tamper_group = 8
    base_seed = 0

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.base_rng = random.Random(self.base_seed)
        self.complexes = ComplexSource(self.base_rng, RATIONALS, 6, 5, Q_BAND_TOPS)
        self.drawn = 0

    def next_round(self) -> list[Request]:
        docs = []
        for theorem in BUILDERS:
            c = self.complexes.draw(self.drawn % self.complexes.bands)
            self.drawn += 1
            phi = generate.random_endomorphism(self.base_rng, c, ensure="t2")
            witness = getattr(witnesses, BUILDERS[theorem])(phi)
            base = jsonio.serialize_document(c, phi, [witness])
            seen: set[str] = set()
            while len(seen) < self.copies_per_base:
                doc = change_basis(base, self.rng)
                text = to_text(doc)
                if text not in seen:
                    seen.add(text)
                    docs.append((theorem, doc, text))
        self.rng.shuffle(docs)
        out = []
        for start in range(0, len(docs), self.tamper_group):
            bad = start + self.rng.randrange(min(self.tamper_group, len(docs) - start))
            for k in range(start, min(start + self.tamper_group, len(docs))):
                theorem, doc, text = docs[k]
                out.append(Request(to_text(tamper(doc)) if k == bad else text, theorem, k == bad))
        return out

    def serve(self, request: Request):
        doc = jsonio.parse_document(json.loads(request.text))
        return doc, verify_witness(doc)

    def judge(self, request: Request, raw) -> Outcome:
        doc, result = raw
        found = len(result.violations)
        if len(doc.witnesses) != 1:
            reason = "document does not carry exactly one witness"
        elif request.tampered and found == 0:
            reason = "tampered certificate accepted"
        elif not request.tampered and found:
            reason = f"valid certificate rejected ({found} violations)"
        else:
            reason = ""
        return Outcome(not reason, reason, request.text, found, len(request.text.encode()))


WORKLOADS = {w.name: w for w in (QChainCertify, FpHomotopyCertify, QVerifyRecheck)}
