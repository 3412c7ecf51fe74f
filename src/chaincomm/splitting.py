"""Standard-form splittings of a complex.

For a valid complex one can choose, degree by degree, an isomorphism

    V_i  =  B_i  (+)  H_i  (+)  B_{i+1}

(boundaries, a lift of cohomology, a complement mapping isomorphically onto
the next boundaries) under which every differential becomes the standard
block matrix whose only nonzero block is the identity in the upper-right
corner.  Chain endomorphisms then become block upper-triangular with the
same boundary block shared by adjacent degrees; that block data drives all
witness constructions.

Each degree's basis and its inverse come from one elimination that extends
the boundaries greedily, first by cocycles, then by unit vectors; every
choice is deterministic, so block data is reproducible run to run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .complexes import ChainComplex, ChainEndomorphism, Homotopy, validate_complex
from .errors import BlockStructureError
from .linalg import extend_to_basis, is_invertible, kernel_and_pivots
from .matrices import Grid, Matrix, block_matrix, check_blocks, first_nonzero_entry, split_blocks

_UPPER_POSITIONS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_LOWER_POSITIONS = ((1, 0), (2, 0), (2, 1))


def _nonzero_lower_block(pos: tuple[int, int], degree: int) -> BlockStructureError:
    return BlockStructureError(f"nonzero lower block {pos} at degree {degree}: not a chain map in split coordinates")


class Splitting:
    """Per-degree change of basis realizing the standard form, with the
    inverses :func:`split_complex` reads off the eliminations choosing it."""

    def __init__(
        self,
        complex: ChainComplex,
        block_dims: Mapping[int, tuple[int, int, int]],
        basis: Mapping[int, Matrix],
        inverse: Mapping[int, Matrix],
    ):
        self.complex = complex
        self._block_dims = dict(block_dims)
        self._basis = dict(basis)
        self._inverse = dict(inverse)

    def block_dims(self, degree: int) -> tuple[int, int, int]:
        """(boundary, cohomology, next boundary) dimensions at one degree."""
        return self._block_dims.get(degree, (0, 0, 0))

    def boundary_dim(self, degree: int) -> int:
        """dim B_degree = rank of the incoming differential."""
        return self.block_dims(degree)[0]

    def cohomology_dim(self, degree: int) -> int:
        return self.block_dims(degree)[1]

    def basis(self, degree: int) -> Matrix:
        """Columns: chosen basis of V_degree (identity of size 0 off-window)."""
        return self._basis[degree] if degree in self._basis else self._off_window(degree)

    def inverse_basis(self, degree: int) -> Matrix:
        return self._inverse[degree] if degree in self._inverse else self._off_window(degree)

    def _off_window(self, degree: int) -> Matrix:
        return Matrix.identity(self.complex.field, self.complex.dim(degree))

    def to_split(self, degree: int, endo_map: Matrix) -> Matrix:
        """Conjugate a V_degree endomorphism matrix into split coordinates."""
        return self.inverse_basis(degree) * endo_map * self.basis(degree)

    def from_split(self, degree: int, split_map: Matrix) -> Matrix:
        return self.basis(degree) * split_map * self.inverse_basis(degree)

    def cohomology_action(self, degree: int, endo_map: Matrix) -> Matrix:
        """The H-block of a V_degree endomorphism in split coordinates: the
        H-rows of P^-1 times ``endo_map`` times the H-columns of P.  Raises
        ValueError when ``endo_map`` moves a cohomology lift out of the
        cocycles B (+) H, which a chain map never does."""
        b, h, _ = self.block_dims(degree)
        p = self.basis(degree)
        n = p.rows
        images = endo_map * p.submatrix(0, n, b, b + h)
        coords = self.inverse_basis(degree).submatrix(b, n, 0, n) * images
        if not coords.submatrix(h, n - b, 0, h).is_zero():
            raise ValueError("endomorphism does not preserve cocycles; not a chain map?")
        return coords.submatrix(0, h, 0, h)

    def standard_differential(self, degree: int) -> Matrix:
        """The split-coordinate differential out of ``degree``: the identity
        from the last block of V_degree onto the first of V_{degree+1}, else
        zero."""
        row_sizes, col_sizes = self.block_dims(degree + 1), self.block_dims(degree)
        if row_sizes[0] != col_sizes[2]:
            raise BlockStructureError(
                f"inconsistent boundary dimensions between degrees {degree} and {degree + 1}"
            )
        field = self.complex.field
        return block_matrix(field, row_sizes, col_sizes, {(0, 2): Matrix.identity(field, col_sizes[2])})


class BlockData:
    """A chain endomorphism expressed in split coordinates.

    Stores, per degree i, the 3x3 block grid with row and column sizes
    (b_i, h_i, b_{i+1}), sparse: a missing block is zero.  That the blocks
    below the diagonal vanish and that block (2,2) at degree i equals block
    (0,0) at degree i+1 is enforced at construction; ``split_map`` assembles
    a degree's matrix on demand.
    """

    def __init__(self, splitting: Splitting, grids: Mapping[int, Grid]):
        c = splitting.complex
        self.splitting = splitting
        self._grids = {i: dict(grids.get(i, {})) for i in c.degrees}
        for i, grid in self._grids.items():
            for pos in _LOWER_POSITIONS:
                if pos in grid and not grid[pos].is_zero():
                    raise _nonzero_lower_block(pos, i)
        for i in range(c.lo, c.hi):
            last, first = self._grids[i].get((2, 2)), self._grids[i + 1].get((0, 0))
            if last != first and not all(m is None or m.is_zero() for m in (last, first)):
                raise BlockStructureError(f"boundary blocks disagree between degrees {i} and {i + 1}")

    @classmethod
    def from_blocks(cls, splitting: Splitting, blocks: Mapping[int, Grid]) -> "BlockData":
        """Build from sparse upper-triangular block grids (missing blocks
        zero), checking each block's position, shape and field (ValueError)
        and the shared boundary blocks (BlockStructureError) on the grids
        themselves."""
        c = splitting.complex
        for i in c.degrees:
            given = blocks.get(i, {})
            bad = set(given).difference(_UPPER_POSITIONS)
            if bad:
                raise ValueError(f"blocks below the diagonal are not allowed: {sorted(bad)}")
            sizes = splitting.block_dims(i)
            check_blocks(c.field, sizes, sizes, given)
        return cls(splitting, blocks)

    def split_map(self, degree: int) -> Matrix:
        """The whole conjugated matrix at ``degree``, assembled from its grid."""
        sizes = self.splitting.block_dims(degree)
        return block_matrix(self.splitting.complex.field, sizes, sizes, self._grids[degree])

    def block(self, degree: int, row: int, col: int) -> Matrix:
        blk, sizes = self._grids[degree].get((row, col)), self.splitting.block_dims(degree)
        return blk if blk is not None else Matrix.zeros(self.splitting.complex.field, sizes[row], sizes[col])

    def boundary_block(self, degree: int) -> Matrix:
        """The action on B_degree (empty for off-window or end degrees)."""
        c = self.splitting.complex
        return self.block(degree, 0, 0) if c.lo <= degree <= c.hi else Matrix.zeros(c.field, 0, 0)

    def cohomology_block(self, degree: int) -> Matrix:
        c = self.splitting.complex
        return self.block(degree, 1, 1) if c.lo <= degree <= c.hi else Matrix.zeros(c.field, 0, 0)


@lru_cache(maxsize=16)
def split_complex(c: ChainComplex) -> Splitting:
    """Choose the standard-form bases for a valid complex.

    Memoised on the complex's content (field, lo, dims, differentials) in a
    16-entry LRU cache, so equal complexes share one splitting;
    ``split_complex.cache_info()`` reports hits and misses and
    ``split_complex.__wrapped__`` is the uncached construction, which still
    reads the complex's validity from :func:`validate_complex`'s cache.

    Construction per degree: boundary basis = pivot columns of the incoming
    differential; one elimination extends it greedily by cocycles (lifts of
    cohomology), then by unit vectors, and yields the inverse.  Those unit
    vectors sit at the pivot columns of the outgoing differential d, since
    e_j is independent of ker d + span(e_<j) iff d e_j is independent of
    d e_<j; so d maps them onto the boundary basis one degree up.  The
    conjugated differentials are asserted to equal the standard corner
    matrix exactly, through those inverses.
    """
    return _split(c, validate_complex(c))


def _split(c: ChainComplex, problems: Sequence[str]) -> Splitting:
    """The construction of :func:`split_complex`, given the complex's
    validation answer ``problems``."""
    if problems:
        raise ValueError("cannot split an invalid complex: " + "; ".join(problems))

    pivots = {c.lo - 1: ()}  # the differential into degree lo has no columns
    block_dims: dict[int, tuple[int, int, int]] = {}
    basis: dict[int, Matrix] = {}
    inverse: dict[int, Matrix] = {}
    for i in c.degrees:
        cocycles, pivots[i] = kernel_and_pivots(c.differential(i))
        boundaries = c.differential(i - 1).take_columns(pivots[i - 1])
        basis[i], inverse[i] = extend_to_basis(boundaries, cocycles)
        if not is_invertible(basis[i]):
            raise BlockStructureError(f"chosen basis at degree {i} is not invertible")
        block_dims[i] = (boundaries.cols, cocycles.cols - boundaries.cols, len(pivots[i]))

    s = Splitting(c, block_dims, basis, inverse)
    for i in range(c.lo - 1, c.hi + 1):
        left = s.inverse_basis(i + 1) * c.differential(i)
        if first_nonzero_entry([(1, left, s.basis(i)), (-1, s.standard_differential(i), None)]) is not None:
            raise BlockStructureError(f"conjugated differential at degree {i} is not in standard form")
    return s


def extract_blocks(phi: ChainEndomorphism, s: Splitting) -> BlockData:
    """Conjugate a chain endomorphism into split coordinates and cut it into
    its six upper blocks; the lower blocks must vanish (they do for genuine
    chain maps), which is read on the conjugated matrix in place."""
    if phi.complex != s.complex:
        raise ValueError("endomorphism and splitting live on different complexes")
    grids = {}
    for i in s.complex.degrees:
        m = s.to_split(i, phi.map(i))
        sizes = s.block_dims(i)
        offsets = (0, sizes[0], sizes[0] + sizes[1], m.rows)
        for r, c in _LOWER_POSITIONS:
            if not m.region_is_zero(offsets[r], offsets[r + 1], offsets[c], offsets[c + 1]):
                raise _nonzero_lower_block((r, c), i)
        grids[i] = split_blocks(m, sizes, sizes, _UPPER_POSITIONS)
    return BlockData(s, grids)


def assemble(blocks: BlockData) -> ChainEndomorphism:
    """Inverse of :func:`extract_blocks`; the result is a chain map.

    In split coordinates the differential out of degree i is the identity
    from the B_{i+1} block of V_i onto the B_{i+1} block of V_{i+1}
    (:func:`split_complex` asserts this standard form), so a family of block
    matrices commutes with it exactly when its blocks below the diagonal
    vanish and block (2, 2) at degree i equals block (0, 0) at degree i + 1.
    :class:`BlockData` enforces both, and conjugating back by the splitting's
    bases keeps the commutation, so nothing is re-checked here.
    """
    s = blocks.splitting
    return ChainEndomorphism(s.complex, [s.from_split(i, blocks.split_map(i)) for i in s.complex.degrees])


def assemble_homotopy(s: Splitting, grid: Callable[[int], Grid]) -> Homotopy:
    """The homotopy whose map at each degree i > lo is, in split coordinates,
    the sparse block grid ``grid(i)`` from (b_i, h_i, b_{i+1}) to
    (b_{i-1}, h_{i-1}, b_i); the map out of degree lo lands in zero."""
    c = s.complex
    maps = {}
    for i in range(c.lo + 1, c.hi + 1):
        split_map = block_matrix(c.field, s.block_dims(i - 1), s.block_dims(i), grid(i))
        maps[i] = s.basis(i - 1) * split_map * s.inverse_basis(i)
    return Homotopy.from_map(c, maps)
