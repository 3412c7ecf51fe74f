"""Certificate bytes are part of the contract: identical inputs must give
byte-identical certificates across versions of the library, so a third party
can compare what two versions served; a change to the digest below means
some certificate byte changed.  It was re-recorded when the zero-diagonal
form of Lemma A's factorizations changed from Fillmore's recursion (a
rank-two update per step) to transvections with pivots chosen by height:
the factors p and q are different, equally valid witnesses with shorter
entries.  On these 30 certificates the total size fell from 595,120 to
419,983 bytes and the longest numerator or denominator from 168 to 57
digits; every certificate still verifies."""

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

# (field, theorems): theorem 2 is refused over finite fields
CASES = (
    (Q, (1, 2, 3, 4)),
    (PrimeField(101), (1, 3, 4)),
    (PrimeField(2**31 - 1), (1, 3, 4)),
)
SEEDS = (1, 2, 3)

EXPECTED_SHA256 = "62b869e96387d4fa77cc81f0504212efdaae3c1defa636227f0e1c402ce9cab3"


def certificate_texts():
    for field, theorems in CASES:
        for theorem in theorems:
            for seed in SEEDS:
                rng = random.Random(1000 * theorem + seed)
                c = random_complex(rng, field, max_dim=6, length=5)
                phi = random_endomorphism(rng, c, ensure=f"t{theorem}", splitting=split_complex(c))
                witness = BUILDERS[theorem](phi)
                yield json.dumps(serialize_document(c, phi, [witness]), indent=2, sort_keys=True)


def test_certificates_are_byte_stable():
    digest = hashlib.sha256()
    for text in certificate_texts():
        digest.update(text.encode())
        digest.update(b"\n")
    assert digest.hexdigest() == EXPECTED_SHA256
