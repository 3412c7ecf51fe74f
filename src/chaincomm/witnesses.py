"""Constructive witnesses for the four commutator-type properties.

Given a chain endomorphism phi, this module decides and certifies:

* pointwise commutator       -- each phi_i = [a_i, b_i] with no chain condition
                                (--theorem 1 on the CLI),
* commutator                 -- phi = [alpha, beta] with alpha, beta chain maps
                                (--theorem 2),
* homotopic to a commutator  -- phi - (dS + Sd) = [alpha, beta]
                                (--theorem 3),
* homotopic to a pointwise commutator (--theorem 4).

Every builder ends by handing its witness to
:func:`chaincomm.verify.verify_witness`, the independent re-checker, and
returns only a witness that it accepts; the identities a witness must satisfy
are written down there once, not again here.  So the commutator
factorizations are not multiplied back, and each stretch condition of
theorem 4 is decided by the propagation that builds its correction.

Every builder runs on every field.  Over a small finite field one may end
in a ConstructionLimitation, which claims nothing about the input:
FieldTooSmall, or for theorem 2 also SelectionExhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    SelectionExhausted,
    StretchObstruction,
    TraceObstruction,
)
from .fields import Field, Scalar
from .linalg import is_invertible, solve_linear, sylvester_solve
from .matrices import (
    Matrix,
    block_matrix,
    characteristic_polynomial,
    enumerate_matrices,
    index_quotients,
    zero_diagonal_form,
)
from .splitting import BlockData, Splitting, assemble, assemble_homotopy, extract_blocks, split_complex
from .verify import verify_witness


@dataclass(frozen=True)
class _Factors:
    """A commutator factorization m = p q - q p.  Where the left factor's
    eigenbasis is known, p = basis diag(eigenvalues) basis^-1 with integer
    eigenvalues (residues over F_p); factors found by exhaustive search
    carry none."""

    p: Matrix
    q: Matrix
    basis: Matrix | None = None
    basis_inv: Matrix | None = None
    eigenvalues: tuple[int, ...] | None = None

    def shifted(self, scalar: int) -> "_Factors":
        """The same factorization with p + scalar I for p."""
        if not scalar:
            return self
        eigenvalues = self.eigenvalues
        if eigenvalues is not None:
            eigenvalues = tuple(_residue(self.p.field, e + scalar) for e in eigenvalues)
        return replace(self, p=_shift(self.p, scalar), eigenvalues=eigenvalues)


@dataclass(frozen=True)
class _Corner:
    """A passed right-factor separation test, shift mu, between q_i and
    q_{i+1}: left = q_i - mu I, right = q_{i+1} before its shift by mu,
    the coefficients of chi_right, and test = chi_right(left), invertible."""

    coefficients: tuple[Scalar, ...]
    left: Matrix
    right: Matrix
    test: Matrix


@dataclass(frozen=True)
class PairSelection:
    """Commutator factorizations (p_i, q_i) of the first matrix family and
    (s_i, t_i) of the second, adjusted by scalar shifts so that three
    families of Kronecker differences are invertible:

      mixed separation        p_i      against s_i
      right-factor separation q_{i+1}  against q_i
      cross separation        s_i      against p_{i+1}

    where "x against y" means that x and y share no eigenvalue, i.e.
    sylvester_operator(x, y) is invertible and the corresponding Sylvester
    equations are uniquely solvable.  Out-of-range indices denote empty
    matrices, for which every condition holds vacuously.  ``corners[i]`` is
    the passed test between q_{i+1} and q_i, None where it is vacuous.
    """

    first: tuple[_Factors, ...]
    second: tuple[_Factors, ...]
    corners: tuple[_Corner | None, ...]

    @property
    def first_pairs(self) -> tuple[tuple[Matrix, Matrix], ...]:
        return tuple((f.p, f.q) for f in self.first)

    @property
    def second_pairs(self) -> tuple[tuple[Matrix, Matrix], ...]:
        return tuple((f.p, f.q) for f in self.second)

    def first_left(self, i: int) -> Matrix | None:
        return _factor(self.first, i, "p")

    def first_right(self, i: int) -> Matrix | None:
        return _factor(self.first, i, "q")

    def second_left(self, i: int) -> Matrix | None:
        return _factor(self.second, i, "p")


def _factor(factors: Sequence[_Factors], i: int, side: str) -> Matrix | None:
    """Factor ``side`` ("p" or "q") of factorization i, or None (an empty
    matrix) when i is out of range."""
    return getattr(factors[i], side) if 0 <= i < len(factors) else None


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
    (:func:`chaincomm.matrices.index_quotients`).  The factors are not
    multiplied back here: each builder's one self-check,
    :func:`chaincomm.verify.verify_witness`, checks every factorization it
    uses.
    """
    f = _factored(m)
    return f.p, f.q


def _factored(m: Matrix) -> _Factors:
    """:func:`commutator_decomposition` with the left factor's eigenbasis:
    B and B^-1 with eigenvalues 0..n-1, and for zero, p = 0 with B = I and
    every eigenvalue 0."""
    if not m.is_square:
        raise ValueError("commutator decomposition needs a square matrix")
    field = m.field
    n = m.rows
    if not field.is_zero(m.trace()):
        raise ValueError(f"matrix has nonzero trace {m.trace()}")
    if m.is_zero():
        zero, identity = Matrix.zeros(field, n, n), Matrix.identity(field, n)
        return _Factors(zero, zero, identity, identity, (0,) * n)
    if m.is_scalar() or (field.finite and field.size < n):
        return _Factors(*_exhaustive_decomposition(m))
    basis, basis_inv, reduced = zero_diagonal_form(m)
    p = basis.scale_columns(range(n)) * basis_inv
    q = basis * index_quotients(reduced) * basis_inv
    return _Factors(p, q, basis, basis_inv, tuple(range(n)))


# ---------------------------------------------------------------------------
# compatible pair selection (the five-condition lemma)
#
# Two square matrices a and b share no eigenvalue exactly when
# gcd(chi_a, chi_b) = 1, i.e. when chi_b(a) is invertible, over every field;
# that is when the Kronecker difference kron(a, I) - kron(I, b^T) is
# invertible, and it is tested without building it.  Left factors with known
# eigenvalues are compared as integer sets.


def _first_shift(field: Field, bound: int, attempt: Callable[[int], object], stage: str, i: int) -> tuple[int, object]:
    """The first scalar of the scan 0, 1, ..., bound (capped at p over F_p)
    for which ``attempt`` returns something true, and what it returned.
    Each invertibility condition excludes at most its operator's size many
    scalars, ``bound``, over every field (eigenvalues in the algebraic
    closure count too), so only a field of at most ``bound`` elements can
    exhaust the scan; it raises SelectionExhausted."""
    candidates = range(min(bound + 1, field.size) if field.finite else bound + 1)
    for scalar in candidates:
        found = attempt(scalar)
        if found:
            return scalar, found
    if len(candidates) > bound:
        raise AssertionError("scalar scan exhausted its exclusion bound")
    raise SelectionExhausted(stage, i)


def _residue(field: Field, value: int) -> int:
    return value % field.size if field.finite else value


def _shift(m: Matrix, scalar: Scalar) -> Matrix:
    return m + Matrix.identity(m.field, m.rows).scale(scalar) if scalar else m


def _coprime(coefficients: Sequence[Scalar], a: Matrix) -> Matrix | None:
    """chi(a), by Horner's rule, for the characteristic polynomial chi of
    some b, when it is invertible (a and b share no eigenvalue); else None."""
    value = Matrix.identity(a.field, a.rows)  # chi is monic
    for c in reversed(coefficients[:-1]):
        value = _shift(value * a, c)
    return value if is_invertible(value) else None


def _shift_test(fixed: Sequence[_Factors], moving: _Factors) -> Callable[[int], bool]:
    """The test of a scalar c: whether moving.p + c I shares no eigenvalue
    with any fixed.p, all of known spectrum: c must avoid the differences
    d - e of eigenvalues d of a fixed p and e of moving.p.  Empty matrices
    pass vacuously."""
    field = moving.p.field
    forbidden = {_residue(field, d - e) for f in fixed for d in f.eigenvalues for e in moving.eigenvalues}
    return lambda c: c not in forbidden


def select_separated_pairs(
    first: Sequence[Matrix], second: Sequence[Matrix], field: Field
) -> PairSelection:
    """Factor two traceless families as commutators subject to the three
    spectral-separation condition families (see :class:`PairSelection`).
    A matrix of nonzero trace, or over another field, raises ValueError.

    Every factor must carry its left factor's eigenbasis: a matrix that
    only exhaustive search factors (size <= 3 over F_2 or F_3) raises
    FieldTooSmall.  The left factors of the second family are shifted by
    scalars (scanned 0, 1, 2, ..., see :func:`_first_shift`) until the mixed
    and cross separations hold; then the right factors of the first family
    are shifted index by index, sweeping upward, until the right-factor
    separations hold.  Shifting by a scalar never disturbs the commutator
    identities.  Each condition excludes finitely many scalars, so the scans
    terminate; over a field too small for the scan, exhaustion raises
    SelectionExhausted.

    No Kronecker operator is built.  The first scalar that separates s_i
    from p_i and p_{i+1} is read off their spectra (see :func:`_shift_test`).
    The right-factor test computes chi_{q_{i+1}} once (Berkowitz, on the
    stored integers) and, per candidate mu, asks whether chi_{q_{i+1}}(q_i -
    mu I) is invertible; the matrix that passes is kept for the corner solve.
    """
    for m in (*first, *second):
        if m.field != field:
            raise ValueError("field mismatch")
    first_factors = [_factored(m) for m in first]
    second_factors = [_factored(m) for m in second]
    if any(f.eigenvalues is None for f in (*first_factors, *second_factors)):
        raise FieldTooSmall(
            "a block factored only by exhaustive search carries no eigenbasis for Lemma A's Sylvester solves"
        )

    for i, s in enumerate(second_factors):
        neighbours = first_factors[i : i + 2]  # p_i and p_{i+1}, where they exist
        bound = s.p.rows * sum(f.p.rows for f in neighbours)
        scalar, _ = _first_shift(field, bound, _shift_test(neighbours, s), "adjacent spectral separation", i)
        second_factors[i] = s.shifted(scalar)

    corners: list[_Corner | None] = []
    for i in range(len(first_factors) - 1):
        q_prev, following = first_factors[i].q, first_factors[i + 1]
        q_next = following.q
        if not q_prev.rows or not q_next.rows:
            corners.append(None)
            continue
        chi = characteristic_polynomial(q_next)

        def attempt(c: int) -> tuple[Matrix, Matrix] | None:
            left = _shift(q_prev, -c)
            test = _coprime(chi, left)
            return None if test is None else (left, test)

        bound = q_next.rows * q_prev.rows
        mu, (left, test) = _first_shift(field, bound, attempt, "consecutive right-factor separation", i)
        corners.append(_Corner(chi, left, q_next, test))
        first_factors[i + 1] = replace(following, q=_shift(q_next, mu))

    return PairSelection(tuple(first_factors), tuple(second_factors), tuple(corners))


def _eigen_solve(a: _Factors, b: _Factors, c: Matrix) -> Matrix:
    """The unique X with a.p X - X b.p = c, for separated left factors with
    known eigenbases: X = B_a Y B_b^-1 with
    Y_jk = (B_a^-1 c B_b)_jk / (d_j - e_k) (Bhatia & Rosenthal 1997)."""
    quotients = index_quotients(a.basis_inv * c * b.basis, a.eigenvalues, b.eigenvalues)
    return a.basis * quotients * b.basis_inv


def _corner_solve(corner: _Corner | None, c: Matrix) -> Matrix:
    """The unique T with left T - T right = c for a passed corner test.
    By Cayley-Hamilton chi_right(right) = 0, and left^k T - T right^k =
    sum_{j<k} left^j c right^(k-1-j), so chi_right(left) T is
    sum_{k=1..n} chi_k sum_{j<k} left^j c right^(k-1-j); it is summed by
    Horner's rule in both factors, and the test matrix, invertible, is
    solved against it."""
    if corner is None or c.is_zero():
        return c
    coefficients, left, right = corner.coefficients, corner.left, corner.right
    horner = Matrix.identity(right.field, right.rows)
    total = c
    for j in range(len(coefficients) - 3, -1, -1):
        horner = _shift(horner * right, coefficients[j + 1])
        total = c * horner + left * total
    solution = solve_linear(corner.test, total)
    if solution is None:
        raise AssertionError("corner Sylvester equation unsolvable despite separation")
    return solution


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
    solve one Sylvester equation per off-diagonal block in closed form (the
    mixed and cross ones in the left factors' eigenbases, the corner one
    through the characteristic polynomial its separation test used);
    assemble upper block-triangular alpha (left factors plus one corner
    solve) and beta (right factors plus the other two solves) and conjugate
    back.
    """
    c = phi.complex
    require_chain_map(phi)
    _check_traces(c, lambda i: complexes.degree_trace(phi, i), "degree")
    s = split_complex(c)
    blocks = extract_blocks(phi, s)
    _check_traces(c, lambda i: blocks.cohomology_block(i).trace(), "cohomology")
    first = [blocks.boundary_block(i) for i in range(c.lo, c.hi + 2)]
    second = [blocks.cohomology_block(i) for i in c.degrees]
    selection = select_separated_pairs(first, second, c.field)

    mixed_solutions: dict[int, Matrix] = {}
    corner_solutions: dict[int, Matrix] = {}
    cross_solutions: dict[int, Matrix] = {}
    alpha_blocks: dict[int, dict[tuple[int, int], Matrix]] = {}
    beta_blocks: dict[int, dict[tuple[int, int], Matrix]] = {}
    for i in c.degrees:
        idx = i - c.lo
        here, following, middle = selection.first[idx], selection.first[idx + 1], selection.second[idx]

        x = _eigen_solve(here, middle, blocks.block(i, 0, 1))
        t_corner = _corner_solve(selection.corners[idx], -blocks.block(i, 0, 2))
        z = _eigen_solve(middle, following, blocks.block(i, 1, 2))
        mixed_solutions[i], corner_solutions[i], cross_solutions[i] = x, t_corner, z

        alpha_blocks[i] = {(0, 0): here.p, (0, 2): t_corner, (1, 1): middle.p, (2, 2): following.p}
        beta_blocks[i] = {(0, 0): here.q, (0, 1): x, (1, 1): middle.q, (1, 2): z, (2, 2): following.q}

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

    The traces must vanish off the window (ValueError otherwise).  Within
    each stretch, scalars are propagated from the left end (where the
    boundary space vanishes) by next = prescribed - current; tau acts as that
    scalar times a rank-one projector on each boundary block, so tr(tau_i),
    the sum of the scalars at i and i + 1, is the prescribed trace.  The
    same pass decides the stretch: it closes when the scalar past its right
    end is zero, and a remainder r, (-1)^end times the stretch's alternating
    trace sum, raises StretchObstruction with that sum.
    """
    field = c.field
    prescribed = {i: field.normalize(v) for i, v in traces.items()}
    for i, v in prescribed.items():
        if not (c.lo <= i <= c.hi) and not field.is_zero(v):
            raise ValueError(f"prescribed trace at degree {i} is outside the support window")

    scalars: dict[int, Scalar] = {}
    for run in complexes.stretches(c):
        current = field.zero  # boundary space vanishes at the left end of a stretch
        for i in run.degrees():
            scalars[i] = current
            current = field.sub(prescribed.get(i, field.zero), current)
        if not field.is_zero(current):
            raise StretchObstruction(run.start, run.end, field.mul(field.alternating_sign(run.end), current))

    s = split_complex(c)

    def boundary_action(i: int) -> Matrix:
        b = s.boundary_dim(i)
        if b == 0:
            return Matrix.zeros(field, 0, 0)
        return block_matrix(field, (1, b - 1), (1, b - 1), {(0, 0): Matrix(field, 1, 1, [scalars[i]])})

    sigma = assemble_homotopy(s, lambda i: {(2, 0): boundary_action(i)})
    return complexes.homotopy_boundary(sigma), sigma


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


_THEOREMS = {
    "theorem1": ("degree_traces_vanish", "pointwise commutator"),
    "theorem2": ("degree_and_cohomology_traces_vanish", "commutator of chain maps"),
    "theorem3": ("cohomology_traces_vanish", "homotopic to a commutator"),
    "theorem4": ("stretch_traces_vanish", "homotopic to a pointwise commutator"),
}


def analyze(phi: ChainEndomorphism) -> Analysis:
    """Evaluate all four trace conditions.  Every construction is available
    on every field; over a small finite field one may still end in a
    ConstructionLimitation."""
    report = trace_report(phi)
    verdicts = {name: Verdict(getattr(report, flag), True, note) for name, (flag, note) in _THEOREMS.items()}
    return Analysis(report, verdicts)
