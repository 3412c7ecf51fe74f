"""Constructive witnesses for the four commutator-type properties.

Given a chain endomorphism phi, this module decides and certifies:

* pointwise commutator       -- each phi_i = [a_i, b_i] with no chain condition
                                (--theorem 1 on the CLI),
* commutator                 -- phi = [alpha, beta] with alpha, beta chain maps
                                (--theorem 2; infinite field required),
* homotopic to a commutator  -- phi - (dS + Sd) = [alpha, beta]
                                (--theorem 3),
* homotopic to a pointwise commutator (--theorem 4).

Every builder ends by handing its witness to
:func:`chaincomm.verify.verify_witness`, the independent re-checker, and
returns only a witness that it accepts; the identities a witness must satisfy
are written down there once, not again here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import complexes
from .complexes import (
    ChainComplex,
    ChainEndomorphism,
    CommutatorWitness,
    Homotopy,
    HomotopyWitness,
    PointwiseWitness,
    TraceReport,
    require_chain_map,
    trace_report,
)
from .errors import (
    FieldTooSmall,
    FiniteFieldUnsupported,
    SelectionExhausted,
    StretchObstruction,
    TraceObstruction,
)
from .fields import Field, Scalar
from .linalg import is_invertible, sylvester_operator, sylvester_solve
from .matrices import Matrix, enumerate_matrices, index_quotients, zero_diagonal_form
from .splitting import BlockData, Splitting, assemble, assemble_homotopy, extract_blocks, split_complex
from .verify import verify_witness


@dataclass(frozen=True)
class PairSelection:
    """Commutator factorizations (p_i, q_i) of the first matrix family and
    (s_i, t_i) of the second, adjusted by scalar shifts so that three
    families of Kronecker differences are invertible:

      mixed separation        p_i      against s_i
      right-factor separation q_{i+1}  against q_i
      cross separation        s_i      against p_{i+1}

    where "x against y" means sylvester_operator(x, y) is invertible, i.e.
    the corresponding Sylvester equations are uniquely solvable.
    Out-of-range indices denote empty matrices, for which every condition
    holds vacuously.
    """

    first_pairs: tuple[tuple[Matrix, Matrix], ...]
    second_pairs: tuple[tuple[Matrix, Matrix], ...]

    def first_left(self, i: int) -> Matrix | None:
        return self.first_pairs[i][0] if 0 <= i < len(self.first_pairs) else None

    def first_right(self, i: int) -> Matrix | None:
        return self.first_pairs[i][1] if 0 <= i < len(self.first_pairs) else None

    def second_left(self, i: int) -> Matrix | None:
        return self.second_pairs[i][0] if 0 <= i < len(self.second_pairs) else None


@dataclass(frozen=True)
class CommutatorConstruction:
    """Intermediate data of the chain-commutator construction: the splitting,
    the selected pairs, and the per-degree Sylvester solutions absorbing the
    three off-diagonal blocks."""

    splitting: Splitting
    selection: PairSelection
    mixed_solutions: dict[int, Matrix]
    corner_solutions: dict[int, Matrix]
    cross_solutions: dict[int, Matrix]


@dataclass(frozen=True)
class Verdict:
    condition_holds: bool
    construction_available: bool
    note: str


@dataclass(frozen=True)
class Analysis:
    report: TraceReport
    verdicts: dict[str, Verdict]


# ---------------------------------------------------------------------------
# trace-zero commutator factorization of a single matrix


def zero_diagonal_basis(m: Matrix) -> Matrix:
    """An invertible B with B^-1 m B of zero diagonal: the first of the three
    results of :func:`chaincomm.matrices.zero_diagonal_form`, which also
    returns B^-1 and B^-1 m B.

    m must be square, traceless, and zero or non-scalar (ValueError
    otherwise).
    """
    return zero_diagonal_form(m)[0]


def _exhaustive_decomposition(m: Matrix) -> tuple[Matrix, Matrix]:
    """Scan p in lexicographic order for a solvable p X - X p = m.

    Only feasible for sizes <= 3 over fields with <= 3 elements; coverage is
    complete there because the solve per p is exact.
    """
    field = m.field
    n = m.rows
    if not field.finite or field.size > 3 or n > 3:
        raise FieldTooSmall(
            f"no distinct-diagonal choice for size {n} over a field with {field.size} elements, "
            "and the exhaustive fallback is limited to sizes <= 3 over fields with <= 3 elements"
        )
    for p in enumerate_matrices(field, n, n):
        q = sylvester_solve(p, p, m)
        if q is not None:
            return p, q
    raise FieldTooSmall(f"exhaustive search found no commutator factorization of {m!r}")


def commutator_decomposition(m: Matrix) -> tuple[Matrix, Matrix]:
    """Factor a traceless square matrix as a commutator p q - q p.

    Algorithm: zero matrices factor trivially; a non-scalar matrix is
    conjugated to zero diagonal m' = B^-1 m B, with B and B^-1 from the same
    pass (:func:`chaincomm.matrices.zero_diagonal_form`), after which
    p = B diag(0, 1, ..., n-1) B^-1 and q = B q' B^-1 with
    q'_{jk} = m'_{jk} / (j - k) solve the problem whenever the field has at
    least n elements; remaining small cases fall back to exhaustive search,
    and everything else raises FieldTooSmall.  B diag(0, ..., n-1) is B with
    column j scaled by j, so p takes one product, and q' is read off the
    reduced matrix's stored integers
    (:func:`chaincomm.matrices.index_quotients`); the result is checked
    against p q - q p = m.
    """
    if not m.is_square:
        raise ValueError("commutator decomposition needs a square matrix")
    field = m.field
    n = m.rows
    if not field.is_zero(m.trace()):
        raise ValueError(f"matrix has nonzero trace {m.trace()}")
    if m.is_zero():
        zero = Matrix.zeros(field, n, n)
        return zero, zero
    if m.is_scalar() or (field.finite and field.size < n):
        p, q = _exhaustive_decomposition(m)
    else:
        basis, basis_inv, reduced = zero_diagonal_form(m)
        p = basis.scale_columns(range(n)) * basis_inv
        q = basis * index_quotients(reduced) * basis_inv
    if p * q - q * p != m:
        raise AssertionError("commutator factorization failed to verify")
    return p, q


# ---------------------------------------------------------------------------
# compatible pair selection (the five-condition lemma)


def _scalar_candidates(field: Field, exclusion_bound: int):
    """Scan order for scalar shifts: all elements over a finite field; the
    integers 0..exclusion_bound over Q (each invertibility condition excludes
    at most its operator's size many scalars, so the bound suffices)."""
    if field.finite:
        return field.elements()
    return (field.normalize(k) for k in range(exclusion_bound + 1))


def _shift(m: Matrix, scalar: Scalar) -> Matrix:
    return m + Matrix.identity(m.field, m.rows).scale(scalar)


def _separated(a: Matrix | None, b: Matrix | None) -> bool:
    """Vacuously true when either side is missing or empty."""
    if a is None or b is None or a.rows == 0 or b.rows == 0:
        return True
    return is_invertible(sylvester_operator(a, b))


def select_separated_pairs(
    first: Sequence[Matrix], second: Sequence[Matrix], field: Field
) -> PairSelection:
    """Factor two traceless families as commutators subject to the three
    spectral-separation condition families (see :class:`PairSelection`).

    The left factors of the second family are shifted by scalars (scanned
    0, 1, 2, ... over Q, all elements over F_p) until the mixed and cross
    separations hold; then the right factors of the first family are shifted
    index by index, sweeping upward, until the right-factor separations
    hold.  Shifting by a scalar never disturbs the commutator identities.
    Over an infinite field each condition excludes finitely many scalars, so
    the scans terminate; over a finite field exhaustion raises
    SelectionExhausted.
    """
    for m in (*first, *second):
        if not field.is_zero(m.trace()):
            raise ValueError("all inputs must be traceless")
        if m.field != field:
            raise ValueError("field mismatch")
    first_pairs = [commutator_decomposition(m) for m in first]
    second_pairs = [commutator_decomposition(m) for m in second]

    def first_left(i: int) -> Matrix | None:
        return first_pairs[i][0] if 0 <= i < len(first_pairs) else None

    def first_shift(stage: str, i: int, m: Matrix, bound: int, separated: Callable[[Matrix], bool]) -> Matrix:
        for scalar in _scalar_candidates(field, bound):
            shifted = _shift(m, scalar)
            if separated(shifted):
                return shifted
        if not field.finite:
            raise AssertionError("scalar scan over Q exhausted its exclusion bound")
        raise SelectionExhausted(stage, i)

    for i, (s, t) in enumerate(second_pairs):
        left, right = first_left(i), first_left(i + 1)
        bound = s.rows * sum(x.rows for x in (left, right) if x is not None)
        s = first_shift("adjacent spectral separation", i, s, bound, lambda x: _separated(left, x) and _separated(x, right))
        second_pairs[i] = (s, t)

    for i in range(len(first_pairs) - 1):
        (p_next, q_next), q_prev = first_pairs[i + 1], first_pairs[i][1]
        bound = q_next.rows * q_prev.rows
        q_next = first_shift("consecutive right-factor separation", i, q_next, bound, lambda x: _separated(x, q_prev))
        first_pairs[i + 1] = (p_next, q_next)

    return PairSelection(tuple(first_pairs), tuple(second_pairs))


# ---------------------------------------------------------------------------
# per-degree (pointwise) witnesses


def _verified(phi: ChainEndomorphism, witness):
    """witness, once :func:`verify_witness` accepts it for phi; a rejection
    means the construction is wrong and raises AssertionError naming the
    first violation."""
    violations = verify_witness(phi, witness).violations
    if violations:
        first = violations[0]
        raise AssertionError(
            f"constructed witness fails at {first.location}: {first.identity} "
            f"(entry {first.entry}: {first.left} != {first.right})"
        )
    return witness


def _check_traces(c: ChainComplex, trace: Callable[[int], Scalar], kind: str) -> None:
    for i in c.degrees:
        value = trace(i)
        if not c.field.is_zero(value):
            raise TraceObstruction(i, kind, value)


def pointwise_commutator_witness(phi: ChainEndomorphism) -> PointwiseWitness:
    """Factor every phi_i as a plain matrix commutator (--theorem 1).

    Requires every degreewise trace to vanish; raises TraceObstruction at the
    first degree where it does not.
    """
    require_chain_map(phi)
    _check_traces(phi.complex, lambda i: complexes.degree_trace(phi, i), "degree")
    pairs = {i: commutator_decomposition(phi.map(i)) for i in phi.complex.degrees}
    return _verified(phi, PointwiseWitness(phi.complex, pairs))


# ---------------------------------------------------------------------------
# chain-level commutator witness


def commutator_witness_detailed(
    phi: ChainEndomorphism,
) -> tuple[CommutatorWitness, CommutatorConstruction]:
    """Write phi = [alpha, beta] with alpha, beta chain maps (--theorem 2).

    Split the complex; the boundary blocks of phi are traceless (forced by
    the vanishing degree and cohomology traces, via the trace identity
    tr phi_i = tr B_i-block + tr H_i-block + tr B_{i+1}-block); select
    separated commutator pairs for the boundary and cohomology families;
    solve one Sylvester equation per off-diagonal block; assemble upper
    block-triangular alpha (left factors plus one corner solve) and beta
    (right factors plus the other two solves) and conjugate back.
    """
    c = phi.complex
    field = c.field
    if field.finite:
        raise FiniteFieldUnsupported(
            "the chain-commutator construction requires an infinite field; "
            "no claim is made about existence over finite fields"
        )
    require_chain_map(phi)
    _check_traces(c, lambda i: complexes.degree_trace(phi, i), "degree")
    s = split_complex(c)
    blocks = extract_blocks(phi, s)
    _check_traces(c, lambda i: blocks.cohomology_block(i).trace(), "cohomology")
    first = [blocks.boundary_block(i) for i in range(c.lo, c.hi + 2)]
    second = [blocks.cohomology_block(i) for i in c.degrees]
    selection = select_separated_pairs(first, second, field)

    mixed_solutions: dict[int, Matrix] = {}
    corner_solutions: dict[int, Matrix] = {}
    cross_solutions: dict[int, Matrix] = {}
    alpha_blocks: dict[int, dict[tuple[int, int], Matrix]] = {}
    beta_blocks: dict[int, dict[tuple[int, int], Matrix]] = {}
    for i in c.degrees:
        idx = i - c.lo
        p_i, q_i = selection.first_pairs[idx]
        p_next, q_next = selection.first_pairs[idx + 1]
        s_i, t_i = selection.second_pairs[idx]

        g = blocks.block(i, 0, 1)
        h = blocks.block(i, 0, 2)
        k = blocks.block(i, 1, 2)
        x = sylvester_solve(p_i, s_i, g)
        t_corner = sylvester_solve(q_i, q_next, -h)
        z = sylvester_solve(s_i, p_next, k)
        if x is None or t_corner is None or z is None:
            raise AssertionError("Sylvester system unsolvable despite separation conditions")
        mixed_solutions[i], corner_solutions[i], cross_solutions[i] = x, t_corner, z

        alpha_blocks[i] = {(0, 0): p_i, (0, 2): t_corner, (1, 1): s_i, (2, 2): p_next}
        beta_blocks[i] = {(0, 0): q_i, (0, 1): x, (1, 1): t_i, (1, 2): z, (2, 2): q_next}

    alpha = assemble(BlockData.from_blocks(s, alpha_blocks))
    beta = assemble(BlockData.from_blocks(s, beta_blocks))
    witness = _verified(phi, CommutatorWitness(alpha, beta))
    return witness, CommutatorConstruction(s, selection, mixed_solutions, corner_solutions, cross_solutions)


def commutator_witness(phi: ChainEndomorphism) -> CommutatorWitness:
    witness, _ = commutator_witness_detailed(phi)
    return witness


# ---------------------------------------------------------------------------
# homotopy to a commutator


def homotopy_commutator_witness(phi: ChainEndomorphism) -> HomotopyWitness:
    """Find a homotopy from phi to a commutator of chain maps (--theorem 3).

    Requires the cohomology traces to vanish.  In split coordinates the
    homotopy at degree i carries the three top-row blocks of phi_i in its
    bottom row and the previous degree's (1, 2) block in its middle-left
    position; subtracting its boundary kills every block except the action
    on cohomology, so the residual is factored blockwise as a commutator of
    block-diagonal chain maps without being formed.
    """
    require_chain_map(phi)
    c = phi.complex
    s = split_complex(c)
    blocks = extract_blocks(phi, s)
    _check_traces(c, lambda i: blocks.cohomology_block(i).trace(), "cohomology")

    homotopy = assemble_homotopy(
        s,
        lambda i: {
            (1, 0): blocks.block(i - 1, 1, 2),
            (2, 0): blocks.block(i, 0, 0),
            (2, 1): blocks.block(i, 0, 1),
            (2, 2): blocks.block(i, 0, 2),
        },
    )

    alpha_blocks = {}
    beta_blocks = {}
    for i in c.degrees:
        a, b = commutator_decomposition(blocks.cohomology_block(i))
        alpha_blocks[i] = {(1, 1): a}
        beta_blocks[i] = {(1, 1): b}
    alpha = assemble(BlockData.from_blocks(s, alpha_blocks))
    beta = assemble(BlockData.from_blocks(s, beta_blocks))
    return _verified(phi, HomotopyWitness(homotopy, CommutatorWitness(alpha, beta)))


# ---------------------------------------------------------------------------
# null-homotopic maps with prescribed traces, and homotopy to a pointwise
# commutator


def prescribed_trace_nullhomotopy(
    c: ChainComplex, traces: Mapping[int, Scalar]
) -> tuple[ChainEndomorphism, Homotopy]:
    """A null-homotopic endomorphism tau with tr(tau_i) equal to the given
    scalars, together with a homotopy sigma whose boundary is exactly tau.

    Requires the alternating sum of the prescribed traces to vanish over
    every stretch (raises StretchObstruction otherwise) and the traces to
    vanish off the window.  Within each stretch, scalars are propagated from
    the left end (where the boundary space vanishes) by
    next = prescribed - current; tau acts as that scalar times a rank-one
    projector on each boundary block.
    """
    field = c.field
    prescribed = {i: field.normalize(v) for i, v in traces.items()}
    for i, v in prescribed.items():
        if not (c.lo <= i <= c.hi) and not field.is_zero(v):
            raise ValueError(f"prescribed trace at degree {i} is outside the support window")

    def target(i: int) -> Scalar:
        return prescribed.get(i, field.zero)

    runs = complexes.stretches(c)
    for run in runs:
        total = complexes.alternating_sum(field, run, prescribed)
        if not field.is_zero(total):
            raise StretchObstruction(run.start, run.end, total)

    s = split_complex(c)
    scalars: dict[int, Scalar] = {}
    for run in runs:
        current = field.zero  # boundary space vanishes at the left end of a stretch
        scalars[run.start] = current
        for i in run.degrees():
            current = field.sub(target(i), current)
            scalars[i + 1] = current
        if not field.is_zero(scalars[run.end + 1]):
            raise AssertionError("trace propagation did not close despite vanishing stretch sums")

    def boundary_action(i: int) -> Matrix:
        b = s.boundary_dim(i)
        value = scalars.get(i, field.zero)
        if b == 0:
            if not field.is_zero(value):
                raise AssertionError(f"nonzero propagated trace {value} on a vanished boundary space at {i}")
            return Matrix.zeros(field, 0, 0)
        return Matrix(field, b, b, (value if r == 0 and col == 0 else 0 for r in range(b) for col in range(b)))

    sigma = assemble_homotopy(s, lambda i: {(2, 0): boundary_action(i)})
    tau = complexes.homotopy_boundary(sigma)
    for i in c.degrees:
        if tau.map(i).trace() != target(i):
            raise AssertionError(f"tau has wrong trace at degree {i}")
    return tau, sigma


def homotopy_pointwise_witness(phi: ChainEndomorphism) -> HomotopyWitness:
    """Find a homotopy from phi to a pointwise commutator (--theorem 4).

    Requires every stretch's alternating trace sum to vanish.  The null-
    homotopic correction tau with the same degreewise traces as phi is split
    off first; each phi_i - tau_i is then traceless and is factored as a
    matrix commutator.
    """
    require_chain_map(phi)
    c = phi.complex
    tau, sigma = prescribed_trace_nullhomotopy(c, {i: complexes.degree_trace(phi, i) for i in c.degrees})
    pairs = {i: commutator_decomposition(phi.map(i) - tau.map(i)) for i in c.degrees}
    return _verified(phi, HomotopyWitness(sigma, PointwiseWitness(c, pairs)))


# ---------------------------------------------------------------------------
# analysis


_THEOREM_NOTES = {
    "theorem1": "pointwise commutator",
    "theorem2": "commutator of chain maps",
    "theorem3": "homotopic to a commutator",
    "theorem4": "homotopic to a pointwise commutator",
}


def analyze(phi: ChainEndomorphism) -> Analysis:
    """Evaluate all four trace conditions and report which witness
    constructions this library can attempt."""
    report = trace_report(phi)
    finite = phi.complex.field.finite
    verdicts = {
        "theorem1": Verdict(report.degree_traces_vanish, True, _THEOREM_NOTES["theorem1"]),
        "theorem2": Verdict(
            report.degree_and_cohomology_traces_vanish,
            not finite,
            _THEOREM_NOTES["theorem2"]
            + ("; construction unavailable (requires an infinite field)" if finite else ""),
        ),
        "theorem3": Verdict(report.cohomology_traces_vanish, True, _THEOREM_NOTES["theorem3"]),
        "theorem4": Verdict(report.stretch_traces_vanish, True, _THEOREM_NOTES["theorem4"]),
    }
    return Analysis(report, verdicts)
