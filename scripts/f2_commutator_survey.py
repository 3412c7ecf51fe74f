#!/usr/bin/env python3
"""Desk-scale survey over F_2: trace zero coincides with being a commutator.

For sizes 1..3 this enumerates every (p, q) pair, collects the set of
commutators pq - qp, and compares it with the set of traceless matrices.
It then cross-checks the constructive decomposition on every traceless
matrix.  Takes well under a minute.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chaincomm.fields import GF2  # noqa: E402
from chaincomm.matrices import enumerate_matrices  # noqa: E402
from chaincomm.verify import commutator_image  # noqa: E402
from chaincomm.witnesses import commutator_decomposition  # noqa: E402


def main() -> int:
    for n in (1, 2, 3):
        start = time.monotonic()
        image = commutator_image(GF2, n)
        traceless = {m for m in enumerate_matrices(GF2, n, n) if m.trace() == 0}
        agree = image == traceless
        built = failed = 0
        for m in traceless:
            p, q = commutator_decomposition(m)
            if p * q - q * p == m:
                built += 1
            else:
                failed += 1
        elapsed = time.monotonic() - start
        print(
            f"size {n}: {4 ** (n * n)} pairs scanned, "
            f"{len(image)} commutators, {len(traceless)} traceless, "
            f"equal={agree}, {built} constructive decompositions verified, "
            f"{failed} failed ({elapsed:.2f}s)"
        )
        if not agree or failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
