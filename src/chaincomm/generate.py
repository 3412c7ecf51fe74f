"""Seeded random instances: valid complexes, chain maps, homotopies.

Complexes are built from standard-form differentials conjugated by random
invertible changes of basis T_j, so d . d = 0 holds by construction.  The
standard differential out of degree j is the identity from the last b =
dim B_{j+1} coordinates of V_j onto the first b of V_{j+1}, so d_j =
T_{j+1} . std . T_j^-1 is formed as one thin product, the first b columns of
T_{j+1} times the last b rows of T_j^-1.  Chain endomorphisms are sampled in
split coordinates (random upper block-triangular data with matching boundary
blocks), which parameterizes the whole space of chain maps without solving
linear systems; the commutators drawn for ``ensure`` are formed there too,
A'B' - B'A' per degree from the two maps' split matrices, and conjugated
back once.  The generators split each complex through a small memo of their
own (:func:`split_for_generation`), so drawing several endomorphisms of one
complex splits it once and the request caches are left as they were.
Everything is driven by a caller-supplied ``random.Random`` so identical
seeds give identical instances.
"""

from __future__ import annotations

import random
from functools import lru_cache

from . import complexes, splitting
from .complexes import ChainComplex, ChainEndomorphism, Homotopy, add
from .fields import Field
from .linalg import inverse, is_invertible
from .matrices import Matrix
from .splitting import BlockData, Splitting, assemble

ENSURE_CHOICES = ("t1", "t2", "t3", "t4")


@lru_cache(maxsize=4)
def split_for_generation(c: ChainComplex) -> Splitting:
    """c's splitting for the generators, memoised on the complex's content
    in a 4-entry LRU cache of its own (``cache_info()``, ``cache_clear()``).
    It is built past the splitting and validation caches: generating an
    instance must not fill in the answers that later requests about it read.
    The algebra (``add``) and :func:`random_endomorphism`'s commutators check
    their results past the cache too."""
    return splitting._split(c, complexes._composite_failures(c))


def random_matrix(rng: random.Random, field: Field, rows: int, cols: int, span: int = 3) -> Matrix:
    """Entries drawn row-major: uniform residues over F_p, integers in
    [-span, span] over Q."""
    if field.finite:
        p = field.size
        return Matrix.from_canonical(field, rows, cols, [rng.randrange(p) for _ in range(rows * cols)])
    nums = [rng.randint(-span, span) for _ in range(rows * cols)]
    return Matrix.from_ratios(field, rows, cols, nums, (1,) * len(nums), 1)


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
        b, n, m = boundary[j + 1], dims[j], dims[j + 1]
        if b == 0:
            differentials.append(Matrix.zeros(field, m, n))
            continue
        # T_{j+1} . std . T_j^-1: std picks the last b coordinates of V_j
        # and puts them first in V_{j+1}
        differentials.append(bases[j + 1].submatrix(0, m, 0, b) * inverse(bases[j]).submatrix(n - b, n, 0, n))
    return ChainComplex(field, lo, dims, differentials)


def _random_blocks(rng: random.Random, s: Splitting, span: int = 3) -> BlockData:
    """Random upper block-triangular data on s, boundary actions first."""
    c, field = s.complex, s.complex.field
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
    return BlockData.from_blocks(s, blocks)


def random_chain_map(
    rng: random.Random, c: ChainComplex, splitting: Splitting | None = None, span: int = 3
) -> ChainEndomorphism:
    """A uniform-ish random chain endomorphism, sampled in split coordinates."""
    s = splitting if splitting is not None else split_for_generation(c)
    return assemble(_random_blocks(rng, s, span))


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

    The commutator [alpha, beta] is formed at each degree as P (A'B' - B'A')
    P^-1 from the split matrices A', B' and the splitting's basis P; the
    returned map is checked past the validation cache, by
    ``complexes._rechecked`` or by ``add``.
    """
    if ensure is not None and ensure not in ENSURE_CHOICES:
        raise ValueError(f"ensure must be one of {ENSURE_CHOICES}, got {ensure!r}")
    s = splitting if splitting is not None else split_for_generation(c)
    if ensure is None:
        return random_chain_map(rng, c, s)
    alpha = _random_blocks(rng, s)
    beta = _random_blocks(rng, s)
    maps = []
    for i in c.degrees:
        a, b = alpha.split_map(i), beta.split_map(i)
        maps.append(s.from_split(i, a * b - b * a))
    base = ChainEndomorphism(c, maps)
    if ensure in ("t1", "t2"):
        return complexes._rechecked(base)
    # c has a splitting, so it is valid and d s + s d is a chain map; add
    # checks the sum
    return add(base, complexes._boundary(random_homotopy(rng, c)))
