"""Acceptance suite: one test per criterion, every check at exact tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  All comparisons are exact equalities of field elements; there are
no numeric tolerances anywhere.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from chaincomm import complexes
from chaincomm.complexes import (
    ChainComplex,
    ChainEndomorphism,
    commutator,
    homotopy_boundary,
    induced_cohomology_map,
    subtract,
    trace_report,
    validate_chain_map,
)
from chaincomm.errors import SelectionExhausted, StretchObstruction, TraceObstruction
from chaincomm.fields import GF2, RATIONALS as Q
from chaincomm.generate import random_chain_map, random_complex, random_endomorphism, random_homotopy
from chaincomm.matrices import Matrix, enumerate_matrices
from chaincomm.splitting import extract_blocks, split_complex
from chaincomm.verify import brute_force_commutator, example2_search, verify_commutator
from chaincomm.witnesses import (
    commutator_decomposition,
    commutator_witness,
    commutator_witness_detailed,
    homotopy_commutator_witness,
    homotopy_pointwise_witness,
    pointwise_commutator_witness,
    prescribed_trace_nullhomotopy,
)


@contextmanager
def criterion(name: str, budget_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.monotonic() - start:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 1. Example 2 reproduction (bit-exact, < 1 s)


def test_example2_reproduction():
    with criterion("example2-reproduction", budget_seconds=1.0):
        report = example2_search()
        assert report.matches_expected
        assert len(report.boundary_commutant) == 6
        assert len(report.cohomology_commutant) == 6
        assert len(report.admissible_pairs) == 2
        assert report.q_pair_trials == 16
        assert report.q_pair_successes == 0


# ---------------------------------------------------------------------------
# 2. Theorem 1 exhaustive equivalence at desk scale (< 1 min)


def _raw_f2_commutator_image(n: int) -> set[tuple[int, ...]]:
    """Independent oracle: all values of pq - qp over F_2, with matrices as
    flat bit tuples and arithmetic inlined (no library code)."""
    size = n * n
    mats = list(itertools.product((0, 1), repeat=size))
    image = set()
    rng_n = range(n)
    for p in mats:
        rows_p = [p[i * n : (i + 1) * n] for i in rng_n]
        for q in mats:
            rows_q = [q[i * n : (i + 1) * n] for i in rng_n]
            com = []
            for i in rng_n:
                for j in rng_n:
                    acc = 0
                    for k in rng_n:
                        acc ^= rows_p[i][k] & rows_q[k][j]
                        acc ^= rows_q[i][k] & rows_p[k][j]
                    com.append(acc)
            image.add(tuple(com))
    return image


def test_f2_desk_scale_equivalence():
    with criterion("theorem1-f2-desk-scale", budget_seconds=60.0):
        for n in (1, 2, 3):
            image = _raw_f2_commutator_image(n)
            all_mats = list(enumerate_matrices(GF2, n, n))
            traceless = [m for m in all_mats if m.trace() == 0]
            # exhaustive equivalence: the commutator image is exactly the
            # traceless set
            assert image == {m.entries for m in traceless}

            # the library oracle finds a verified witness on every traceless
            # matrix...
            for m in traceless:
                found = brute_force_commutator(m)
                assert found is not None
                p, q = found
                assert p * q - q * p == m
            # ...and reports absence on nonzero-trace samples (absence over
            # the whole space is already established by the image equality)
            nonzero = [m for m in all_mats if m.trace() != 0]
            for m in nonzero[:: max(1, len(nonzero) // 3)]:
                assert brute_force_commutator(m) is None

            # the construction agrees wherever it applies (it never signals
            # FieldTooSmall within these bounds)
            for m in traceless:
                p, q = commutator_decomposition(m)
                assert p * q - q * p == m


# ---------------------------------------------------------------------------
# 3. Theorem 2 round-trip (200 seeded rational instances, < 2 min)


def test_theorem2_roundtrip_200():
    with criterion("theorem2-roundtrip", budget_seconds=120.0):
        for seed in range(200):
            rng = random.Random(seed)
            length = 1 + seed % 5
            c = random_complex(rng, Q, max_dim=4, length=length)
            s = split_complex(c)
            phi = random_endomorphism(rng, c, ensure="t2", splitting=s)

            report = trace_report(phi)
            assert report.degree_and_cohomology_traces_vanish

            witness, detail = commutator_witness_detailed(phi)
            assert verify_commutator(phi, witness).ok

            blocks = extract_blocks(phi, detail.splitting)
            sel = detail.selection
            for i in c.degrees:
                idx = i - c.lo
                p_i, q_i = sel.first_pairs[idx]
                p_next, q_next = sel.first_pairs[idx + 1]
                s_i, _t_i = sel.second_pairs[idx]
                x = detail.mixed_solutions[i]
                t_corner = detail.corner_solutions[i]
                z = detail.cross_solutions[i]
                assert p_i * x - x * s_i == blocks.block(i, 0, 1)
                assert t_corner * q_next - q_i * t_corner == blocks.block(i, 0, 2)
                assert s_i * z - z * p_next == blocks.block(i, 1, 2)


# ---------------------------------------------------------------------------
# 4. Theorem 3 round-trip (200 seeded instances)


def test_theorem3_roundtrip_200():
    with criterion("theorem3-roundtrip"):
        for seed in range(200):
            rng = random.Random(10_000 + seed)
            length = 1 + seed % 5
            c = random_complex(rng, Q, max_dim=4, length=length)
            s = split_complex(c)
            phi = random_endomorphism(rng, c, ensure="t3", splitting=s)

            report = trace_report(phi)
            assert all(v == 0 for v in report.cohomology_traces.values())

            witness = homotopy_commutator_witness(phi)
            residual = subtract(phi, homotopy_boundary(witness.homotopy))
            assert commutator(witness.residual.alpha, witness.residual.beta) == residual
            assert validate_chain_map(witness.residual.alpha) == []
            assert validate_chain_map(witness.residual.beta) == []

            # phi - dS - Sd has the block-diagonal cohomology-only form
            residual_blocks = extract_blocks(residual, s)
            phi_blocks = extract_blocks(phi, s)
            for i in c.degrees:
                for pos in ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2)):
                    assert residual_blocks.block(i, *pos).is_zero()
                assert residual_blocks.block(i, 1, 1) == phi_blocks.block(i, 1, 1)


# ---------------------------------------------------------------------------
# 5. Theorem 4 / prescribed-trace null-homotopies (200 seeded instances)


def test_theorem4_and_prescribed_traces_200():
    with criterion("theorem4-lemmaB"):
        for seed in range(200):
            rng = random.Random(20_000 + seed)
            length = 1 + seed % 5
            c = random_complex(rng, Q, max_dim=4, length=length)
            s = split_complex(c)
            phi = random_endomorphism(rng, c, ensure="t4", splitting=s)

            report = trace_report(phi)
            assert all(v == 0 for v in report.stretch_traces.values())

            witness = homotopy_pointwise_witness(phi)
            residual = subtract(phi, homotopy_boundary(witness.homotopy))
            for i in c.degrees:
                a, b = witness.residual.pairs[i]
                assert a * b - b * a == residual.map(i)

            # sub-check: the null-homotopic correction hits the prescribed
            # traces exactly and is exactly the boundary of its homotopy
            targets = {i: phi.map(i).trace() for i in c.degrees}
            tau, sigma = prescribed_trace_nullhomotopy(c, targets)
            for i in c.degrees:
                assert tau.map(i).trace() == targets[i]
            assert homotopy_boundary(sigma) == tau


# ---------------------------------------------------------------------------
# 6. Telescoping identity (500 seeded endomorphisms over Q and F_2)


def test_telescoping_identity_500():
    with criterion("telescoping-identity"):
        for seed in range(500):
            rng = random.Random(30_000 + seed)
            field = Q if seed % 2 == 0 else GF2
            length = 1 + seed % 5
            c = random_complex(rng, field, max_dim=4, length=length)
            phi = random_chain_map(rng, c)
            report = trace_report(phi)
            for s in report.stretches:
                assert report.stretch_traces[s] == report.stretch_cohomology_traces[s]


# ---------------------------------------------------------------------------
# 7. Negative controls


def test_negative_controls():
    with criterion("negative-controls"):
        # identity on a complex with zero differentials: singleton stretches
        # with nonzero alternating sums
        zero_d = ChainComplex(Q, 0, [2, 2], [Matrix.zeros(Q, 2, 2)])
        with pytest.raises(StretchObstruction):
            homotopy_pointwise_witness(ChainEndomorphism.identity(zero_d))

        # nonzero degreewise trace obstructs pointwise witnesses
        single = ChainComplex(Q, 0, [1], [])
        lopsided = ChainEndomorphism(single, [Matrix.identity(Q, 1)])
        with pytest.raises(TraceObstruction) as err:
            pointwise_commutator_witness(lopsided)
        assert err.value.degree == 0

        # over F_2 the chain-commutator construction refuses, as a
        # limitation, where every shift of Lemma A's scan fails
        rng = random.Random(1)
        f2_window = random_complex(rng, GF2, max_dim=3, length=3)
        with pytest.raises(SelectionExhausted):
            commutator_witness(random_endomorphism(rng, f2_window, ensure="t2"))


# ---------------------------------------------------------------------------
# 8. Splitting soundness (500 seeded complexes)


def test_splitting_soundness_500():
    with criterion("splitting-soundness"):
        for seed in range(500):
            rng = random.Random(40_000 + seed)
            field = Q if seed % 2 == 0 else GF2
            length = 1 + seed % 5
            c = random_complex(rng, field, max_dim=4, length=length)
            s = split_complex(c)
            for i in range(c.lo - 1, c.hi + 1):
                conj = s.inverse_basis(i + 1) * c.differential(i) * s.basis(i)
                assert conj == s.standard_differential(i)

            phi = random_chain_map(rng, c, s)
            blocks = extract_blocks(phi, s)
            from chaincomm.splitting import assemble

            assert assemble(blocks) == phi
            again = extract_blocks(assemble(blocks), s)
            for i in c.degrees:
                assert again.split_map(i) == blocks.split_map(i)
                assert blocks.cohomology_block(i).trace() == induced_cohomology_map(phi, i).trace()
