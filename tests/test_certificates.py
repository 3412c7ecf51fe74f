"""Certificate bytes are part of the contract: identical inputs must give
byte-identical certificates across versions of the library, so a third party
can compare what two versions served; a change to a digest below means
some certificate byte changed.  EXPECTED_SHA256 was re-recorded when the
zero-diagonal form of Lemma A's factorizations changed from Fillmore's
recursion (a rank-two update per step) to transvections with pivots chosen
by height: the factors p and q are different, equally valid witnesses with
shorter entries.  On these 30 certificates the total size fell from 595,120 to
419,983 bytes and the longest numerator or denominator from 168 to 57
digits; every certificate still verifies.  GENERATED_SHA256 pins the
seeded generators' documents the same way, since the benchmark's request
pools and ``chaincomm random`` are drawn by them."""

import hashlib
import json
import random

from chaincomm.fields import RATIONALS as Q, PrimeField
from chaincomm.generate import random_complex, random_endomorphism
from chaincomm.jsonio import serialize_document
from chaincomm.splitting import split_complex
from chaincomm.witnesses import (
    commutator_witness,
    homotopy_commutator_witness,
    homotopy_pointwise_witness,
    pointwise_commutator_witness,
)

BUILDERS = {
    1: pointwise_commutator_witness,
    2: commutator_witness,
    3: homotopy_commutator_witness,
    4: homotopy_pointwise_witness,
}

# (field, theorems) pinned by EXPECTED_SHA256; theorem 2 over the finite
# fields, which it was first built on later, is pinned by its own digest
CASES = (
    (Q, (1, 2, 3, 4)),
    (PrimeField(101), (1, 3, 4)),
    (PrimeField(2**31 - 1), (1, 3, 4)),
)
FINITE_THEOREM2_CASES = (
    (PrimeField(101), (2,)),
    (PrimeField(2**31 - 1), (2,)),
)
SEEDS = (1, 2, 3)
# the generators' own draws, pinned with no splitting= argument and two
# endomorphisms per complex, so that the second reuses the generator's own
# splitting of the complex
GENERATED_FIELDS = (Q, PrimeField(101), PrimeField(2**31 - 1))
ENSURES = (None, "t1", "t2", "t3", "t4")

EXPECTED_SHA256 = "62b869e96387d4fa77cc81f0504212efdaae3c1defa636227f0e1c402ce9cab3"
FINITE_THEOREM2_SHA256 = "94ad38ebe18afd355f8f0d4240ccc050e2c1e7438b75441e12504c28b40da58c"
GENERATED_SHA256 = "347467a9b338ef7795805e6c4ac2583904c38f150b54d1839f6ff6c4fdcf5702"


def certificate_texts(cases):
    for field, theorems in cases:
        for theorem in theorems:
            for seed in SEEDS:
                rng = random.Random(1000 * theorem + seed)
                c = random_complex(rng, field, max_dim=6, length=5)
                phi = random_endomorphism(rng, c, ensure=f"t{theorem}", splitting=split_complex(c))
                witness = BUILDERS[theorem](phi)
                yield json.dumps(serialize_document(c, phi, [witness]), indent=2, sort_keys=True)


def digest(texts):
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode())
        sha.update(b"\n")
    return sha.hexdigest()


def test_certificates_are_byte_stable():
    assert digest(certificate_texts(CASES)) == EXPECTED_SHA256


def test_finite_field_theorem2_certificates_are_byte_stable():
    assert digest(certificate_texts(FINITE_THEOREM2_CASES)) == FINITE_THEOREM2_SHA256


def generated_texts():
    for field in GENERATED_FIELDS:
        for k, ensure in enumerate(ENSURES):
            for seed in SEEDS:
                rng = random.Random(100 * k + seed)
                c = random_complex(rng, field, max_dim=6, length=5)
                for _ in range(2):
                    phi = random_endomorphism(rng, c, ensure=ensure)
                    yield json.dumps(serialize_document(c, phi), sort_keys=True)


def test_generated_documents_are_byte_stable():
    assert digest(generated_texts()) == GENERATED_SHA256
