"""Seeded random instances: valid complexes, chain maps, homotopies.

Complexes are built from standard-form differentials conjugated by random
invertible changes of basis, so d . d = 0 holds by construction.  Chain
endomorphisms are sampled in split coordinates (random upper block-
triangular data with matching boundary blocks), which parameterizes the
whole space of chain maps without solving linear systems.  Everything is
driven by a caller-supplied ``random.Random`` so identical seeds give
identical instances.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import complexes, splitting
from .complexes import ChainComplex, ChainEndomorphism, Homotopy, commutator, add
from .fields import Field, Scalar
from .linalg import inverse, is_invertible
from .matrices import Matrix, block_matrix
from .splitting import BlockData, Splitting, assemble

ENSURE_CHOICES = ("t1", "t2", "t3", "t4")


def _split_uncached(c: ChainComplex) -> Splitting:
    """c's splitting, past the splitting and validation caches: generating an
    instance must not fill in the answers that later requests about it read.
    The algebra (``commutator``, ``add``) checks its results past the cache
    too."""
    return splitting._split(c, complexes._composite_failures(c))


def random_scalar(rng: random.Random, field: Field, span: int = 3) -> Scalar:
    if field.finite:
        return rng.randrange(field.size)
    return Fraction(rng.randint(-span, span))


def random_matrix(rng: random.Random, field: Field, rows: int, cols: int, span: int = 3) -> Matrix:
    return Matrix(field, rows, cols, (random_scalar(rng, field, span) for _ in range(rows * cols)))


def random_invertible(rng: random.Random, field: Field, n: int) -> Matrix:
    """Rejection-sample an invertible matrix."""
    if n == 0:
        return Matrix.identity(field, 0)
    while True:
        candidate = random_matrix(rng, field, n, n)
        if is_invertible(candidate):
            return candidate


def random_complex(
    rng: random.Random, field: Field, max_dim: int = 4, length: int = 4, lo: int = 0
) -> ChainComplex:
    """A valid complex supported on degrees lo .. lo+length-1 with every
    dimension at most max_dim."""
    if length < 1:
        raise ValueError("length must be at least 1")
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    boundary = [0] * (length + 1)  # boundary[j] = dim B at degree lo+j
    cohom = [0] * length
    for j in range(length):
        room = max_dim - boundary[j]
        if j < length - 1:
            boundary[j + 1] = rng.randint(0, max(0, room))
            room -= boundary[j + 1]
        cohom[j] = rng.randint(0, max(0, room))
    dims = [boundary[j] + cohom[j] + boundary[j + 1] for j in range(length)]

    bases = [random_invertible(rng, field, n) for n in dims]
    differentials = []
    for j in range(length - 1):
        rows = (boundary[j + 1], cohom[j + 1], boundary[j + 2])
        cols = (boundary[j], cohom[j], boundary[j + 1])
        standard = block_matrix(field, rows, cols, {(0, 2): Matrix.identity(field, boundary[j + 1])})
        differentials.append(bases[j + 1] * standard * inverse(bases[j]))
    return ChainComplex(field, lo, dims, differentials)


def random_chain_map(
    rng: random.Random, c: ChainComplex, splitting: Splitting | None = None, span: int = 3
) -> ChainEndomorphism:
    """A uniform-ish random chain endomorphism, sampled in split coordinates."""
    s = splitting if splitting is not None else _split_uncached(c)
    field = c.field
    boundary_actions = {
        i: random_matrix(rng, field, s.boundary_dim(i), s.boundary_dim(i), span)
        for i in range(c.lo, c.hi + 2)
    }
    blocks = {}
    for i in c.degrees:
        b, h, b_next = s.block_dims(i)
        blocks[i] = {
            (0, 0): boundary_actions[i],
            (0, 1): random_matrix(rng, field, b, h, span),
            (0, 2): random_matrix(rng, field, b, b_next, span),
            (1, 1): random_matrix(rng, field, h, h, span),
            (1, 2): random_matrix(rng, field, h, b_next, span),
            (2, 2): boundary_actions[i + 1],
        }
    return assemble(BlockData.from_blocks(s, blocks))


def random_homotopy(rng: random.Random, c: ChainComplex, span: int = 3) -> Homotopy:
    return Homotopy(
        c,
        [random_matrix(rng, c.field, c.dim(i - 1), c.dim(i), span) for i in c.degrees],
    )


def random_endomorphism(
    rng: random.Random,
    c: ChainComplex,
    ensure: str | None = None,
    splitting: Splitting | None = None,
) -> ChainEndomorphism:
    """A random chain endomorphism, optionally guaranteed to satisfy one of
    the four trace conditions:

    * t1/t2 -- a commutator of two random chain maps (all traces vanish),
    * t3/t4 -- a commutator plus the boundary of a random homotopy (the
      cohomology traces and all stretch sums vanish, the degree traces
      generally do not).
    """
    if ensure is not None and ensure not in ENSURE_CHOICES:
        raise ValueError(f"ensure must be one of {ENSURE_CHOICES}, got {ensure!r}")
    s = splitting if splitting is not None else _split_uncached(c)
    if ensure is None:
        return random_chain_map(rng, c, s)
    alpha = random_chain_map(rng, c, s)
    beta = random_chain_map(rng, c, s)
    base = commutator(alpha, beta)
    if ensure in ("t1", "t2"):
        return base
    # c has a splitting, so it is valid and d s + s d is a chain map; add
    # checks the sum
    return add(base, complexes._boundary(random_homotopy(rng, c)))
