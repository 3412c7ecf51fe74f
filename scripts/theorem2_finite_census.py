#!/usr/bin/env python3
"""Census: where theorem 2's construction refuses over F_2, does a witness exist?

For each seed S this builds the document of ``chaincomm random --seed S
--field Fp:2 --max-dim D --length L``, a random chain endomorphism phi, and
runs theorem 2's construction on it.  (With ``--ensure t2`` phi would be a
commutator of chain maps by construction, so a witness would always exist.)
A document it refuses (FieldTooSmall or SelectionExhausted, exit 3 on the
CLI) goes to :func:`chaincomm.verify.brute_force_chain_commutator`, which
scans every chain map alpha and solves for beta, and so decides whether some
chain maps alpha, beta have [alpha, beta] = phi, within its bounds on the
total dimension and the dimension of the chain-map space.  One JSON object
goes to standard output with five counts:

* ``obstructed``: a degree or cohomology trace of phi is nonzero, so no
  witness exists (exit 2 on the CLI);
* ``built``: the construction built a witness (and verified it);
* ``refused_witness_exists``: refused, and the scan found a witness;
* ``refused_no_witness``: refused, and the scan found none, a finite-field
  counterexample to theorem 2, whose seeds are listed in
  ``counterexample_seeds``;
* ``out_of_bounds``: refused, and the document is beyond the scan's bounds.

    python3 scripts/theorem2_finite_census.py                  # seeds 0..99
    python3 scripts/theorem2_finite_census.py --seeds 20 --max-dim 4
"""

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chaincomm.errors import FieldTooSmall, SelectionExhausted, TraceObstruction  # noqa: E402
from chaincomm.fields import GF2  # noqa: E402
from chaincomm.generate import random_complex, random_endomorphism  # noqa: E402
from chaincomm.verify import ScanOutOfBounds, brute_force_chain_commutator  # noqa: E402
from chaincomm.witnesses import commutator_witness  # noqa: E402


def outcome(seed: int, max_dim: int, length: int) -> str:
    rng = random.Random(seed)
    c = random_complex(rng, GF2, max_dim=max_dim, length=length)
    phi = random_endomorphism(rng, c)
    try:
        commutator_witness(phi)
        return "built"
    except TraceObstruction:
        return "obstructed"
    except (FieldTooSmall, SelectionExhausted):
        pass
    try:
        found = brute_force_chain_commutator(phi)
    except ScanOutOfBounds:
        return "out_of_bounds"
    return "refused_witness_exists" if found is not None else "refused_no_witness"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="run seeds 0..SEEDS-1")
    parser.add_argument("--max-dim", type=int, default=3)
    parser.add_argument("--length", type=int, default=3)
    args = parser.parse_args()

    kinds = ("obstructed", "built", "refused_witness_exists", "refused_no_witness", "out_of_bounds")
    counts = dict.fromkeys(kinds, 0)
    counterexamples = []
    for seed in range(args.seeds):
        result = outcome(seed, args.max_dim, args.length)
        counts[result] += 1
        if result == "refused_no_witness":
            counterexamples.append(seed)
    report = {
        "field": "Fp:2",
        "max_dim": args.max_dim,
        "length": args.length,
        "seeds": args.seeds,
        **counts,
        "counterexample_seeds": counterexamples,
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
