"""Independent witness verification and brute-force oracles.

The verifiers re-check every claimed identity from scratch, exactly: each is
a signed sum of products, which
:func:`chaincomm.matrices.first_nonzero_entry` tests for zero on packed rows
without forming a product, and only a failing identity's first differing
entry is computed, both sides' values by
:func:`chaincomm.matrices.sum_entry` (a homotopy witness's residual
phi - (d s + s d) is one such sum and is never formed); this module
evaluates no sum itself and reads no stored integers.  The verifiers share no code with the
constructions in :mod:`chaincomm.witnesses` beyond the exact linear-algebra
primitives and the witness containers of :mod:`chaincomm.complexes`, so a
witness that passes here is trustworthy even if the construction code were
wrong.  The builders call :func:`verify_witness` on their own output as
their one self-check, so every identity a witness must satisfy, including
that ``alpha`` and ``beta`` are chain maps, is written down here alone.  The
module also hosts exhaustive finite-field searches: pair scans over single
matrices (a first commutator pair, commutant sets), a chain-level search
over the space of chain maps, and the bit-exact reproduction of the F_2
counterexample that defeats the pair-selection lemma.  A scan refused for
its size raises :class:`ScanOutOfBounds`, a ``ValueError``; a field the scan
does not cover at all raises a plain ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence, Union

from .complexes import (
    ChainEndomorphism,
    CommutatorWitness,
    Homotopy,
    HomotopyWitness,
    PointwiseWitness,
    chain_map_basis,
    commutator,
)
from .fields import PrimeField, render
from .linalg import solve_linear, sylvester_operator, sylvester_solve, is_invertible
from .matrices import Matrix, Term, enumerate_matrices, first_nonzero_entry, sum_entry


@dataclass(frozen=True)
class Violation:
    """One failed identity.  When both sides are matrices of one shape and
    field, ``entry`` is the (row, column) of the first differing entry in
    row-major order and ``left``/``right`` are the two sides' values there;
    otherwise ``entry`` is None and ``left``/``right`` describe the sides."""

    location: str
    identity: str
    left: str
    right: str
    entry: tuple[int, int] | None = None


@dataclass(frozen=True)
class VerificationResult:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


Side = Union[Matrix, Sequence[Term]]
"""One side of an identity: a matrix, or a signed sum of products given as
the terms of :func:`chaincomm.matrices.first_nonzero_entry`."""


def _terms(side: Side) -> Sequence[Term]:
    return [(1, side, None)] if isinstance(side, Matrix) else side


def _record(out: list[Violation], location: str, identity: str, left: Side, right: Side) -> None:
    """Append the violation of left = right to ``out``, if they differ.  The
    sides are compared by one :func:`first_nonzero_entry`, which forms no
    product, and only the first differing entry's values are computed, by
    :func:`chaincomm.matrices.sum_entry`."""
    both_matrices = isinstance(left, Matrix) and isinstance(right, Matrix)
    if both_matrices and (left.shape != right.shape or left.field != right.field):
        out.append(Violation(location, identity, repr(left), repr(right)))
        return
    left, right = _terms(left), _terms(right)
    entry = first_nonzero_entry([*left, *((-sign, x, y) for sign, x, y in right)])
    if entry is not None:
        left_value, right_value = (render(sum_entry(side, *entry)) for side in (left, right))
        out.append(Violation(location, identity, left_value, right_value, entry))


def _check_chain_map(name: str, endo: ChainEndomorphism, out: list[Violation]) -> None:
    c = endo.complex
    # off lo..hi - 1 both sides start or end at a zero space
    for i in range(c.lo, c.hi):
        d = c.differential(i)
        _record(
            out,
            f"degree {i}",
            f"{name} commutes with the differential",
            [(1, d, endo.map(i))],
            [(1, endo.map(i + 1), d)],
        )


def verify_commutator(phi: ChainEndomorphism, witness: CommutatorWitness) -> VerificationResult:
    """Re-check that alpha, beta are chain maps on phi's complex and that
    alpha beta - beta alpha = phi, degree by degree, exactly."""
    out: list[Violation] = []
    if witness.alpha.complex != phi.complex or witness.beta.complex != phi.complex:
        out.append(Violation("complex", "witness lives on the same complex", "witness complex", "target complex"))
        return VerificationResult(tuple(out))
    _check_chain_map("alpha", witness.alpha, out)
    _check_chain_map("beta", witness.beta, out)
    for i in phi.complex.degrees:
        a, b = witness.alpha.map(i), witness.beta.map(i)
        _record(out, f"degree {i}", "[alpha, beta] = phi", [(1, a, b), (-1, b, a)], phi.map(i))
    return VerificationResult(tuple(out))


def verify_pointwise(phi: ChainEndomorphism, witness: PointwiseWitness) -> VerificationResult:
    """Re-check a_i b_i - b_i a_i = phi_i at every degree."""
    out: list[Violation] = []
    if witness.complex != phi.complex:
        out.append(Violation("complex", "witness lives on the same complex", "witness complex", "target complex"))
        return VerificationResult(tuple(out))
    for i in phi.complex.degrees:
        zero = Matrix.zeros(phi.complex.field, phi.complex.dim(i), phi.complex.dim(i))
        a, b = witness.pairs.get(i, (zero, zero))  # a missing degree is the zero pair
        if a.shape != zero.shape or b.shape != zero.shape:
            out.append(Violation(f"degree {i}", "pair shapes match the space", str(a.shape), str(b.shape)))
            continue
        _record(out, f"degree {i}", "[a_i, b_i] = phi_i", [(1, a, b), (-1, b, a)], phi.map(i))
    return VerificationResult(tuple(out))


class _Residual:
    """phi - (d s + s d) in place of a ChainEndomorphism for the verifiers,
    which read only ``complex`` and ``map``: its map at a degree is a sum of
    products, so the residual is compared and never formed."""

    def __init__(self, phi: ChainEndomorphism, s: Homotopy):
        self.complex, self._phi, self._s = phi.complex, phi, s

    def map(self, i: int) -> Side:
        c, s = self.complex, self._s
        boundary = [(-1, c.differential(i - 1), s.map(i)), (-1, s.map(i + 1), c.differential(i))]
        return [*_terms(self._phi.map(i)), *boundary]


def verify_homotopy_witness(phi: ChainEndomorphism, witness: HomotopyWitness) -> VerificationResult:
    """Re-check that phi minus the boundary of the homotopy equals the
    residual's commutator (chainwise or pointwise per residual kind)."""
    if witness.homotopy.complex != phi.complex:
        return VerificationResult(
            (Violation("complex", "homotopy lives on the same complex", "homotopy complex", "target complex"),)
        )
    return verify_witness(_Residual(phi, witness.homotopy), witness.residual)


def verify_witness(phi: ChainEndomorphism, witness: object) -> VerificationResult:
    """Re-check a witness of any kind against phi; an unknown kind is a
    violation."""
    if isinstance(witness, CommutatorWitness):
        return verify_commutator(phi, witness)
    if isinstance(witness, PointwiseWitness):
        return verify_pointwise(phi, witness)
    if isinstance(witness, HomotopyWitness):
        return verify_homotopy_witness(phi, witness)
    known = "CommutatorWitness|PointwiseWitness|HomotopyWitness"
    return VerificationResult((Violation("witness", "known witness kind", type(witness).__name__, known),))


# ---------------------------------------------------------------------------
# exhaustive single-matrix oracle

_PAIR_SCAN_BITS = 20  # a pair scan covers at most 2^20 pairs


class ScanOutOfBounds(ValueError):
    """An exhaustive scan refused for its size.  A field the scan does not
    cover at all raises a plain ValueError instead."""


def _check_pair_scan(field, size: int) -> None:
    """Admit a scan of all pairs of size x size matrices over a finite field
    when there are at most 2^20 of them, |F|^(2 size^2) <= 2^20."""
    if not field.finite:
        raise ValueError("pair enumeration requires a finite field")
    exponent = 2 * size * size
    # |F| >= 2, so a larger exponent is refused without forming the power
    if exponent > _PAIR_SCAN_BITS or field.size**exponent > 1 << _PAIR_SCAN_BITS:
        raise ScanOutOfBounds(f"enumeration of {field.size}^{exponent} pairs of size-{size} matrices exceeds 2^20")


def commutant_set(m: Matrix) -> frozenset[Matrix]:
    """C(m) = { p : some q satisfies p q - q p = m }, by exhaustive
    enumeration of all (p, q) pairs over a small finite field."""
    field = m.field
    if not m.is_square:
        raise ValueError("square matrix required")
    _check_pair_scan(field, m.rows)
    n = m.rows
    members = []
    for p in enumerate_matrices(field, n, n):
        for q in enumerate_matrices(field, n, n):
            if p * q - q * p == m:
                members.append(p)
                break
    return frozenset(members)


def brute_force_commutator(m: Matrix) -> tuple[Matrix, Matrix] | None:
    """First (p, q) in lexicographic order with p q - q p = m, or None.

    Equivalent to the full pair scan: p runs in lexicographic order, and for
    each p the inner scan runs only when the linear system p X - X p = m is
    solvable at all (which the scan would otherwise discover by exhaustion).
    """
    field = m.field
    if not m.is_square:
        raise ValueError("square matrix required")
    _check_pair_scan(field, m.rows)
    n = m.rows
    for p in enumerate_matrices(field, n, n):
        if sylvester_solve(p, p, m) is None:
            continue
        for q in enumerate_matrices(field, n, n):
            if p * q - q * p == m:
                return p, q
    return None


def commutator_image(field: PrimeField, size: int) -> frozenset[Matrix]:
    """Every value of p q - q p over all pairs; one full enumeration."""
    _check_pair_scan(field, size)
    mats = list(enumerate_matrices(field, size, size))
    return frozenset(p * q - q * p for p in mats for q in mats)


# ---------------------------------------------------------------------------
# the F_2 counterexample search

_EXAMPLE2_FIELD = PrimeField(2)


def _f2(rows) -> Matrix:
    return Matrix.from_rows(_EXAMPLE2_FIELD, rows)


# The two commutant sets, the admissible (p, s) pairs and the q-candidate
# set the search must reproduce bit for bit.
EXPECTED_BOUNDARY_COMMUTANT = frozenset(
    _f2(r) for r in ([[0, 0], [0, 1]], [[0, 0], [1, 0]], [[0, 0], [1, 1]], [[1, 0], [0, 0]], [[1, 0], [1, 0]], [[1, 0], [1, 1]])
)
EXPECTED_COHOMOLOGY_COMMUTANT = frozenset(
    _f2(r) for r in ([[0, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 1], [0, 1]], [[1, 0], [0, 0]], [[1, 1], [0, 0]], [[1, 1], [0, 1]])
)
EXPECTED_ADMISSIBLE_PAIRS = frozenset(
    {
        (_f2([[0, 0], [1, 0]]), _f2([[1, 1], [0, 1]])),
        (_f2([[1, 0], [1, 1]]), _f2([[0, 1], [0, 0]])),
    }
)
EXPECTED_Q_CANDIDATES = frozenset(
    _f2(r) for r in ([[0, 0], [0, 1]], [[0, 0], [1, 1]], [[1, 0], [0, 0]], [[1, 0], [1, 0]])
)


@dataclass(frozen=True)
class Example2Report:
    """Outcome of the exhaustive F_2 search showing that no choice of pairs
    satisfies all separation conditions simultaneously."""

    boundary_commutant: frozenset[Matrix]
    cohomology_commutant: frozenset[Matrix]
    admissible_pairs: tuple[tuple[Matrix, Matrix], ...]
    q_candidates: dict[Matrix, tuple[Matrix, ...]]
    q_pair_trials: int
    q_pair_successes: int
    matches_expected: bool


def example2_search() -> Example2Report:
    """Reproduce the F_2 counterexample exhaustively.

    Recomputes both commutant sets by scanning all 256 pairs each, filters
    (p, s) by invertibility of the mixed separation operator, derives the q
    candidates from the commutator identity, and tries all 16 ordered
    (q1, q2) pairs against the consecutive separation operator.  Zero
    successes reproduce the counterexample.
    """
    field = _EXAMPLE2_FIELD
    boundary_target = _f2([[0, 0], [1, 0]])
    cohomology_target = _f2([[0, 1], [0, 0]])

    c_boundary = commutant_set(boundary_target)
    c_cohomology = commutant_set(cohomology_target)

    admissible = tuple(
        (p, s_mat)
        for p in sorted(c_boundary, key=Matrix.sort_key)
        for s_mat in sorted(c_cohomology, key=Matrix.sort_key)
        if is_invertible(sylvester_operator(p, s_mat))
    )

    q_candidates: dict[Matrix, tuple[Matrix, ...]] = {}
    for p, _ in admissible:
        if p in q_candidates:
            continue
        q_candidates[p] = tuple(
            q for q in enumerate_matrices(field, 2, 2) if p * q - q * p == boundary_target
        )

    q_pool = sorted({q for qs in q_candidates.values() for q in qs}, key=Matrix.sort_key)
    trials = 0
    successes = 0
    for q1, q2 in product(q_pool, repeat=2):
        trials += 1
        if is_invertible(sylvester_operator(q2, q1)):
            successes += 1

    matches = (
        c_boundary == EXPECTED_BOUNDARY_COMMUTANT
        and c_cohomology == EXPECTED_COHOMOLOGY_COMMUTANT
        and frozenset(admissible) == EXPECTED_ADMISSIBLE_PAIRS
        and all(frozenset(qs) == EXPECTED_Q_CANDIDATES for qs in q_candidates.values())
        and trials == 16
        and successes == 0
    )
    return Example2Report(
        boundary_commutant=c_boundary,
        cohomology_commutant=c_cohomology,
        admissible_pairs=admissible,
        q_candidates=q_candidates,
        q_pair_trials=trials,
        q_pair_successes=successes,
        matches_expected=matches,
    )


# ---------------------------------------------------------------------------
# chain-level exhaustive oracle

_CHAIN_SCAN_MAX_TOTAL_DIM = 6
_CHAIN_SCAN_MAX_SPACE_DIM = 16


def brute_force_chain_commutator(phi: ChainEndomorphism) -> CommutatorWitness | None:
    """Exhaustive search for chain maps alpha, beta with [alpha, beta] = phi.

    The chain-map conditions are solved first, so the scan runs over the
    coordinates of the chain-map space rather than over raw matrix tuples:
    alpha ranges over all chain maps in lexicographic coordinate order, and
    beta is obtained per alpha by solving [alpha, -] = phi linearly (the
    deterministic free-variables-zero solution).  Only small F_2 instances
    are in bounds.
    """
    c = phi.complex
    field = c.field
    if not (field.finite and field.size == 2):
        raise ValueError("chain-level enumeration is limited to F_2")
    if c.total_dim() > _CHAIN_SCAN_MAX_TOTAL_DIM:
        raise ScanOutOfBounds(f"total dimension {c.total_dim()} exceeds the enumeration bound")
    basis = chain_map_basis(c)
    dim = len(basis)
    if dim > _CHAIN_SCAN_MAX_SPACE_DIM:
        raise ScanOutOfBounds(f"chain-map space dimension {dim} exceeds the enumeration bound")

    def flatten(endo: ChainEndomorphism) -> Matrix:
        entries = [e for i in c.degrees for e in endo.map(i).entries]
        return Matrix(field, len(entries), 1, entries)

    def combination(coeffs) -> ChainEndomorphism:
        maps = ChainEndomorphism.zero(c).maps
        for coeff, vec in zip(coeffs, basis):
            if coeff != 0:
                maps = [a + b.scale(coeff) for a, b in zip(maps, vec.maps)]
        return ChainEndomorphism(c, maps)

    target = flatten(phi)
    elements = tuple(field.elements())
    for coeffs in product(elements, repeat=dim):
        alpha = combination(coeffs)
        images = [flatten(commutator(alpha, vec)) for vec in basis]
        columns = Matrix(
            field,
            target.rows,
            dim,
            (images[j].entry(r, 0) for r in range(target.rows) for j in range(dim)),
        )
        solution = solve_linear(columns, target)
        if solution is None:
            continue
        beta = combination(solution.entries)
        witness = CommutatorWitness(alpha, beta)
        if commutator(alpha, beta) != phi:
            raise AssertionError("solved beta does not verify")
        return witness
    return None
