"""Bounded complexes of finite-dimensional vector spaces and their chain maps.

Indexing is cohomological: the differential at degree i maps V_i to V_{i+1}.
A complex is supported on a finite window [lo, hi]; every space outside the
window is zero, so the represented complexes are automatically quasi-bounded.
The module also computes the four trace functionals (per degree, per degree
on cohomology, and their alternating sums over stretches) that govern the
commutator properties decided by :mod:`chaincomm.witnesses`, and holds the
containers of the witnesses that certify them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Mapping, Sequence

from .fields import Field, Scalar
from .linalg import image_basis, kernel_basis
from .matrices import Matrix, block_matrix, first_nonzero_entry, kron


class ChainComplex:
    """Finitely supported graded vector spaces with differentials.

    ``dims[j]`` is the dimension of the space in degree ``lo + j``;
    ``differentials[j]`` is the map out of degree ``lo + j`` and must have
    shape ``dims[j+1] x dims[j]``.  Construction checks shapes only; the
    composite condition d(i+1) . d(i) = 0 is reported by
    :func:`validate_complex` so that invalid data can be diagnosed rather
    than rejected blindly.
    """

    def __init__(self, field: Field, lo: int, dims: Sequence[int], differentials: Sequence[Matrix] = ()):
        if isinstance(lo, bool) or not isinstance(lo, int):
            raise ValueError(f"lo must be an integer, got {lo!r}")
        if len(dims) == 0:
            raise ValueError("a complex needs a nonempty support window")
        if any(isinstance(d, bool) or not isinstance(d, int) or d < 0 for d in dims):
            raise ValueError("dimensions must be nonnegative integers")
        expected = max(len(dims) - 1, 0)
        if len(differentials) != expected:
            raise ValueError(f"expected {expected} differentials, got {len(differentials)}")
        for j, d in enumerate(differentials):
            if d.field != field:
                raise ValueError(f"differential {j} has field {d.field}, expected {field}")
            if d.shape != (dims[j + 1], dims[j]):
                raise ValueError(
                    f"differential out of degree {lo + j} has shape {d.shape}, "
                    f"expected {(dims[j + 1], dims[j])}"
                )
        self.field = field
        self.lo = lo
        self.hi = lo + len(dims) - 1
        self._dims = tuple(dims)
        self._differentials = tuple(differentials)
        self._hash: int | None = None

    def dim(self, degree: int) -> int:
        if self.lo <= degree <= self.hi:
            return self._dims[degree - self.lo]
        return 0

    @property
    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def stored_differentials(self) -> tuple[Matrix, ...]:
        return self._differentials

    def differential(self, degree: int) -> Matrix:
        """The map V_degree -> V_{degree+1}; an empty/zero matrix off the window."""
        if self.lo <= degree < self.hi:
            return self._differentials[degree - self.lo]
        return Matrix.zeros(self.field, self.dim(degree + 1), self.dim(degree))

    def total_dim(self) -> int:
        return sum(self._dims)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChainComplex)
            and self.field == other.field
            and self.lo == other.lo
            and self._dims == other._dims
            and self._differentials == other._differentials
        )

    def __hash__(self) -> int:
        # memoised: the splitting cache hashes its key on every lookup, and
        # hashing every entry of every differential each time is not free
        if self._hash is None:
            self._hash = hash((self.field, self.lo, self._dims, self._differentials))
        return self._hash

    def __repr__(self) -> str:
        return f"ChainComplex({self.field.kind}, degrees {self.lo}..{self.hi}, dims {list(self._dims)})"


class _GradedMap:
    """One matrix per degree of the window, the map at degree i going
    V_i -> V_{i - shift}; chain endomorphisms have shift 0, homotopies 1."""

    _shift = 0
    _noun = "map"
    _plural = "maps"

    def __init__(self, complex: ChainComplex, maps: Sequence[Matrix]):
        if len(maps) != len(complex.dims):
            raise ValueError(f"expected {len(complex.dims)} {self._plural}, got {len(maps)}")
        for degree, m in zip(complex.degrees, maps):
            want = self.shape(complex, degree)
            if m.field != complex.field:
                raise ValueError(f"{self._noun} field does not match the complex")
            if m.shape != want:
                raise ValueError(f"{self._noun} at degree {degree} has shape {m.shape}, expected {want}")
        self.complex = complex
        self._maps = tuple(maps)

    @classmethod
    def shape(cls, complex: ChainComplex, degree: int) -> tuple[int, int]:
        return complex.dim(degree - cls._shift), complex.dim(degree)

    @classmethod
    def zero(cls, complex: ChainComplex):
        return cls.from_map(complex, {})

    @classmethod
    def from_map(cls, complex: ChainComplex, maps: Mapping[int, Matrix]):
        """The family with the given maps, zero at every degree not given."""
        return cls(
            complex,
            [
                maps[i] if i in maps else Matrix.zeros(complex.field, *cls.shape(complex, i))
                for i in complex.degrees
            ],
        )

    def map(self, degree: int) -> Matrix:
        if self.complex.lo <= degree <= self.complex.hi:
            return self._maps[degree - self.complex.lo]
        return Matrix.zeros(self.complex.field, *self.shape(self.complex, degree))

    @property
    def maps(self) -> tuple[Matrix, ...]:
        return self._maps

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.complex == other.complex and self._maps == other._maps


class ChainEndomorphism(_GradedMap):
    """A degreewise square matrix family; validity (commuting with the
    differential) is checked by :func:`validate_chain_map`."""

    @classmethod
    def identity(cls, complex: ChainComplex) -> "ChainEndomorphism":
        return cls(complex, [Matrix.identity(complex.field, n) for n in complex.dims])

    def __repr__(self) -> str:
        return f"ChainEndomorphism(degrees {self.complex.lo}..{self.complex.hi})"


class Homotopy(_GradedMap):
    """A degree -1 family: the map at degree i goes V_i -> V_{i-1}.

    Any family of the right shapes is a legal operand; no algebraic
    condition is imposed.
    """

    _shift = 1
    _noun = "homotopy"
    _plural = "homotopy maps"


# ---------------------------------------------------------------------------
# witness containers


@dataclass(frozen=True)
class PointwiseWitness:
    """Per-degree pairs (a_i, b_i) with a_i b_i - b_i a_i = phi_i."""

    complex: ChainComplex
    pairs: dict[int, tuple[Matrix, Matrix]]


@dataclass(frozen=True)
class CommutatorWitness:
    """Chain maps alpha, beta with [alpha, beta] = phi."""

    alpha: ChainEndomorphism
    beta: ChainEndomorphism


@dataclass(frozen=True)
class HomotopyWitness:
    """A homotopy s plus a residual witness for phi - (d s + s d)."""

    homotopy: Homotopy
    residual: CommutatorWitness | PointwiseWitness


@dataclass(frozen=True)
class Stretch:
    """A maximal run of degrees whose interior differentials are all nonzero,
    flanked by zero differentials on both sides."""

    start: int
    end: int

    def degrees(self) -> range:
        return range(self.start, self.end + 1)

    def __repr__(self) -> str:
        return f"Stretch({self.start}..{self.end})"


@dataclass(frozen=True)
class CohomologySpace:
    """Bases chosen for one cohomology space: cocycles = ker d_i,
    boundaries = im d_{i-1} (both as column collections inside V_i)."""

    dim: int
    cocycle_basis: Matrix
    boundary_basis: Matrix


# ---------------------------------------------------------------------------
# validation


def validate_complex(c: ChainComplex) -> list[str]:
    """All composite-vanishing violations; empty iff the data is a complex.

    Memoised on the complex's content in a 16-entry LRU cache, like
    :func:`chaincomm.splitting.split_complex`, so parsing a document, splitting
    its complex and parsing the certificate check d . d = 0 once; each call
    returns a fresh list.  ``validate_complex.cache_info()`` reports hits
    and misses.
    """
    return list(_complex_answers(c))


def validate_chain_map(phi: ChainEndomorphism) -> list[str]:
    """All failures of d . phi = phi . d; empty iff phi is a chain map.

    Memoised on the complex and the maps in a 16-entry LRU cache, so the
    parse's answer serves the builders' guards, the certificate's re-parse
    and a second theorem asked of the same endomorphism; each call returns
    a fresh list.  ``validate_chain_map.cache_info()`` reports hits and
    misses.
    """
    return list(_chain_map_answers(phi.complex, phi.maps))


def _composite_failures(c: ChainComplex) -> tuple[str, ...]:
    """validate_complex's answer, computed."""
    # off lo..hi - 2 the composite starts or ends at a zero space
    return tuple(
        f"degree {i}: d({i + 1}) . d({i}) != 0"
        for i in range(c.lo, c.hi - 1)
        if first_nonzero_entry([(1, c.differential(i + 1), c.differential(i))]) is not None
    )


def _commutation_failures(c: ChainComplex, maps: tuple[Matrix, ...]) -> tuple[str, ...]:
    """validate_chain_map's answer for the family ``maps`` on c, computed."""
    # off lo..hi - 1 both sides start or end at a zero space
    return tuple(
        f"degree {i}: d({i}) . phi({i}) != phi({i + 1}) . d({i})"
        for j, i in enumerate(range(c.lo, c.hi))
        if first_nonzero_entry([(1, c.differential(i), maps[j]), (-1, maps[j + 1], c.differential(i))]) is not None
    )


_complex_answers = lru_cache(maxsize=16)(_composite_failures)
_chain_map_answers = lru_cache(maxsize=16)(_commutation_failures)
validate_complex.cache_info = _complex_answers.cache_info
validate_complex.cache_clear = _complex_answers.cache_clear
validate_chain_map.cache_info = _chain_map_answers.cache_info
validate_chain_map.cache_clear = _chain_map_answers.cache_clear


def require_chain_map(phi: ChainEndomorphism) -> ChainEndomorphism:
    """phi itself; raises ValueError naming every failure when it is not a
    chain map."""
    return _required(phi, validate_chain_map(phi))


def _rechecked(phi: ChainEndomorphism) -> ChainEndomorphism:
    """:func:`require_chain_map` past the cache, for results of the algebra:
    their content is new, so caching it would only push out the answers that
    parsing stored for the builders to reuse, and the random generators,
    whose results later requests parse, must leave the cache as it was."""
    return _required(phi, _commutation_failures(phi.complex, phi.maps))


def _required(phi: ChainEndomorphism, problems: Sequence[str]) -> ChainEndomorphism:
    if problems:
        raise ValueError("not a chain map: " + "; ".join(problems))
    return phi


# ---------------------------------------------------------------------------
# cohomology


def cohomology(c: ChainComplex, degree: int) -> CohomologySpace:
    """Dimension and chosen bases of ker d_i / im d_{i-1} at one degree."""
    cocycles = kernel_basis(c.differential(degree))
    boundaries = image_basis(c.differential(degree - 1))
    return CohomologySpace(cocycles.cols - boundaries.cols, cocycles, boundaries)


def _splitting(c: ChainComplex):
    """The complex's cached standard-form splitting."""
    from .splitting import split_complex  # splitting imports this module

    return split_complex(c)


def cohomology_lifts(c: ChainComplex, degree: int) -> tuple[Matrix, Matrix]:
    """(boundary basis, cocycle representatives extending it): the B- and
    H-columns of the complex's standard-form splitting, the deterministic lift
    convention shared by every cohomology computation."""
    s = _splitting(c)
    b, h, _ = s.block_dims(degree)
    p = s.basis(degree)
    return p.submatrix(0, p.rows, 0, b), p.submatrix(0, p.rows, b, b + h)


def induced_cohomology_map(phi: ChainEndomorphism, degree: int) -> Matrix:
    """The matrix of phi on cohomology in the lift basis of
    :func:`cohomology_lifts`, read off the complex's cached splitting."""
    return _splitting(phi.complex).cohomology_action(degree, phi.map(degree))


# ---------------------------------------------------------------------------
# stretches and traces


def stretches(c: ChainComplex) -> tuple[Stretch, ...]:
    """Maximal runs inside the window; off-window degrees (whose traces vanish
    identically) are not reported."""
    found = []
    start = c.lo
    for i in c.degrees:
        if c.differential(i).is_zero():
            found.append(Stretch(start, i))
            start = i + 1
    return tuple(found)


def degree_trace(phi: ChainEndomorphism, degree: int) -> Scalar:
    return phi.map(degree).trace()


def cohomology_trace(phi: ChainEndomorphism, degree: int) -> Scalar:
    return induced_cohomology_map(phi, degree).trace()


@dataclass(frozen=True)
class TraceReport:
    """All four trace families of one chain endomorphism plus the condition
    flags for the four commutator-type properties."""

    degree_traces: dict[int, Scalar]
    cohomology_traces: dict[int, Scalar]
    stretches: tuple[Stretch, ...]
    stretch_traces: dict[Stretch, Scalar]
    stretch_cohomology_traces: dict[Stretch, Scalar]
    quasi_bounded: bool
    degree_traces_vanish: bool
    cohomology_traces_vanish: bool
    degree_and_cohomology_traces_vanish: bool
    stretch_traces_vanish: bool


def alternating_sum(field: Field, run: Stretch, values: Mapping[int, Scalar]) -> Scalar:
    """The sum of (-1)^i values[i] over the stretch; a degree missing from
    ``values`` counts as zero."""
    return field.normalize(sum(values.get(i, 0) if i % 2 == 0 else -values.get(i, 0) for i in run.degrees()))


def trace_report(phi: ChainEndomorphism) -> TraceReport:
    c = phi.complex
    f = c.field
    per_degree = {i: degree_trace(phi, i) for i in c.degrees}
    per_degree_h = {i: cohomology_trace(phi, i) for i in c.degrees}
    runs = stretches(c)
    stretch_traces = {s: alternating_sum(f, s, per_degree) for s in runs}
    stretch_traces_h = {s: alternating_sum(f, s, per_degree_h) for s in runs}
    t1 = all(f.is_zero(v) for v in per_degree.values())
    t3 = all(f.is_zero(v) for v in per_degree_h.values())
    t4 = all(f.is_zero(v) for v in stretch_traces.values())
    return TraceReport(
        degree_traces=per_degree,
        cohomology_traces=per_degree_h,
        stretches=runs,
        stretch_traces=stretch_traces,
        stretch_cohomology_traces=stretch_traces_h,
        # differential(lo - 1) leaves the zero space below the window, so a
        # zero differential always exists (see the module docstring)
        quasi_bounded=True,
        degree_traces_vanish=t1,
        cohomology_traces_vanish=t3,
        degree_and_cohomology_traces_vanish=t1 and t3,
        stretch_traces_vanish=t4,
    )


# ---------------------------------------------------------------------------
# algebra of chain maps and homotopies; every result is rechecked, and as chain
# maps are closed under it, a failure means an operand was not a chain map


def _check_same_complex(a: ChainEndomorphism, b: ChainEndomorphism) -> None:
    if a.complex != b.complex:
        raise ValueError("chain endomorphisms live on different complexes")


def add(a: ChainEndomorphism, b: ChainEndomorphism) -> ChainEndomorphism:
    _check_same_complex(a, b)
    return _rechecked(ChainEndomorphism(a.complex, [x + y for x, y in zip(a.maps, b.maps)]))


def subtract(a: ChainEndomorphism, b: ChainEndomorphism) -> ChainEndomorphism:
    _check_same_complex(a, b)
    return _rechecked(ChainEndomorphism(a.complex, [x - y for x, y in zip(a.maps, b.maps)]))


def compose(a: ChainEndomorphism, b: ChainEndomorphism) -> ChainEndomorphism:
    """Degreewise product a . b."""
    _check_same_complex(a, b)
    return _rechecked(ChainEndomorphism(a.complex, [x * y for x, y in zip(a.maps, b.maps)]))


def commutator(a: ChainEndomorphism, b: ChainEndomorphism) -> ChainEndomorphism:
    """a b - b a in the endomorphism ring of the complex."""
    _check_same_complex(a, b)
    return _rechecked(ChainEndomorphism(a.complex, [x * y - y * x for x, y in zip(a.maps, b.maps)]))


def scale(a: ChainEndomorphism, scalar: Scalar) -> ChainEndomorphism:
    return _rechecked(ChainEndomorphism(a.complex, [m.scale(scalar) for m in a.maps]))


def homotopy_boundary(s: Homotopy) -> ChainEndomorphism:
    """The chain endomorphism d . s + s . d.

    On a valid complex it is a chain map by proof, d(ds + sd) = dsd =
    (ds + sd)d, and is not re-checked; the complex's validity is read from
    :func:`validate_complex`'s cache.  On an invalid complex the result is
    checked, and ValueError names every failure.
    """
    tau = _boundary(s)
    if validate_complex(s.complex):
        require_chain_map(tau)
    return tau


def _boundary(s: Homotopy) -> ChainEndomorphism:
    """d . s + s . d, unchecked."""
    c = s.complex
    return ChainEndomorphism(
        c, [c.differential(i - 1) * s.map(i) + s.map(i + 1) * c.differential(i) for i in c.degrees]
    )


# ---------------------------------------------------------------------------
# the linear space of chain endomorphisms


def chain_map_basis(c: ChainComplex) -> tuple[ChainEndomorphism, ...]:
    """A deterministic basis of the space of chain endomorphisms, obtained by
    solving the commutation constraints d . phi = phi . d as a linear system
    in the matrix entries (stacked row-major, degrees ascending).

    In row-major vectorization d_i phi_i - phi_{i+1} d_i is
    kron(d_i, I) vec(phi_i) - kron(I, d_i^T) vec(phi_{i+1}), the convention of
    :func:`chaincomm.linalg.sylvester_operator`."""
    field = c.field
    sizes = [n * n for n in c.dims]
    blocks = {}
    for j, i in enumerate(range(c.lo, c.hi)):
        d = c.differential(i)
        blocks[j, j] = kron(d, Matrix.identity(field, d.cols))
        blocks[j, j + 1] = -kron(Matrix.identity(field, d.rows), d.transpose())
    row_sizes = [c.dim(i + 1) * c.dim(i) for i in range(c.lo, c.hi)]
    vectors = kernel_basis(block_matrix(field, row_sizes, sizes, blocks)).transpose()
    offsets = list(accumulate(sizes, initial=0))
    return tuple(
        ChainEndomorphism(c, [Matrix(field, n, n, row[offsets[j] : offsets[j + 1]]) for j, n in enumerate(c.dims)])
        for row in map(vectors.row, range(vectors.rows))
    )
