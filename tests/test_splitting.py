import json
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincomm import jsonio, matrices, witnesses
from chaincomm.complexes import (
    ChainComplex,
    ChainEndomorphism,
    induced_cohomology_map,
    trace_report,
    validate_chain_map,
    validate_complex,
)
from chaincomm.errors import BlockStructureError
from chaincomm.fields import GF2, RATIONALS as Q, PrimeField
from chaincomm.generate import (
    random_chain_map,
    random_complex,
    random_endomorphism,
    random_homotopy,
    random_matrix,
    split_for_generation,
)
from chaincomm.linalg import inverse, kernel_basis
from chaincomm.matrices import Matrix, block_matrix, split_blocks
from chaincomm.splitting import BlockData, assemble, extract_blocks, split_complex

from helpers import (
    F_M31,
    alternating_reflection,
    corner_window,
    exact_two_term,
    mat,
    matrices as matrix_strategy,
    reference_extension,
    reference_rref,
    reference_split_bases,
    seeds,
    wide_rationals,
    zero_differential_complex,
)


def test_split_zero_differentials():
    c = zero_differential_complex(Q, [2, 3])
    s = split_complex(c)
    assert s.block_dims(0) == (0, 2, 0)
    assert s.block_dims(1) == (0, 3, 0)
    assert s.basis(0) == Matrix.identity(Q, 2)
    assert s.basis(1) == Matrix.identity(Q, 3)


def test_split_exact_two_term():
    c = exact_two_term()
    s = split_complex(c)
    assert s.block_dims(0) == (0, 0, 1)
    assert s.block_dims(1) == (1, 0, 0)
    assert s.boundary_dim(0) == 0 and s.boundary_dim(1) == 1 and s.boundary_dim(2) == 0


def test_split_corner_window():
    c = corner_window(Q, 3)
    s = split_complex(c)
    assert s.block_dims(1) == (1, 0, 1)
    d_split = s.inverse_basis(2) * c.differential(1) * s.basis(1)
    assert d_split == s.standard_differential(1)


def test_split_standard_form_on_random_complexes():
    for seed, rng in seeds(40):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=4, length=4)
        s = split_complex(c)
        for i in range(c.lo - 1, c.hi + 1):
            conj = s.inverse_basis(i + 1) * c.differential(i) * s.basis(i)
            assert conj == s.standard_differential(i)
        for i in c.degrees:
            b, h, b_next = s.block_dims(i)
            assert b + h + b_next == c.dim(i)


def _reference_splitting(c: ChainComplex) -> dict[int, tuple[Matrix, Matrix, tuple[int, int, int]]]:
    """Per degree (basis, inverse, block dims) from the kernel basis and the
    greedy reference extension: the boundaries (pivot columns of the
    incoming differential) extended greedily by the outgoing differential's
    kernel basis, then by unit vectors, and inverted by reference_rref."""
    out = {}
    for i in c.degrees:
        incoming = c.differential(i - 1)
        boundaries = incoming.take_columns(reference_rref(incoming)[2])
        cocycles = kernel_basis(c.differential(i))
        b, z = boundaries.cols, cocycles.cols
        out[i] = (*reference_extension(boundaries, cocycles), (b, z - b, c.dim(i) - z))
    return out


def _edge_complexes(field) -> list[ChainComplex]:
    """Zero-dimensional degrees, zero differentials, and injective and
    surjective differentials."""
    zero = Matrix.zeros
    return [
        ChainComplex(field, 0, [0], []),
        ChainComplex(field, 0, [0, 0, 0], [zero(field, 0, 0)] * 2),
        ChainComplex(field, 0, [2, 0, 3], [zero(field, 0, 2), zero(field, 3, 0)]),
        zero_differential_complex(field, [2, 3, 1]),
        ChainComplex(field, 0, [2, 3], [mat(field, [[1, 0], [0, 1], [1, 1]])]),
        ChainComplex(field, 0, [3, 2], [mat(field, [[1, 0, 1], [0, 1, 1]])]),
        ChainComplex(
            field, 0, [2, 4, 2], [mat(field, [[1, 0], [0, 1], [0, 0], [0, 0]]), mat(field, [[0, 0, 1, 0], [0, 0, 0, 1]])]
        ),
        exact_two_term(field),
        corner_window(field),
    ]


def _assert_split_matches_references(c: ChainComplex, label) -> None:
    s = split_complex.__wrapped__(c)
    expected = _reference_splitting(c)
    assert {i: s.basis(i) for i in c.degrees} == reference_split_bases(c), label
    for i in c.degrees:
        assert (s.basis(i), s.inverse_basis(i), s.block_dims(i)) == expected[i], (label, i)
        assert s.inverse_basis(i) * s.basis(i) == Matrix.identity(c.field, c.dim(i)), (label, i)


def _wide_invertible(data, n: int) -> Matrix:
    """Upper triangular with wide rational entries and a nonzero diagonal."""
    upper = data.draw(matrix_strategy(Q, n, n, elements=wide_rationals())).to_rows()
    diagonal = data.draw(st.lists(wide_rationals().filter(bool), min_size=n, max_size=n))
    return Matrix.from_rows(
        Q, [[diagonal[r] if r == k else e if k > r else 0 for k, e in enumerate(row)] for r, row in enumerate(upper)], n
    )


@pytest.mark.parametrize("field", [Q, GF2, PrimeField(101), F_M31], ids=["Q", "F2", "F101", "F_M31"])
def test_split_bases_match_the_solve_based_reference(field):
    # preimages are read off the pivots of the differential, not solved for;
    # the inverses off the reductions, not by inverting the bases
    for seed, rng in seeds(40):
        _assert_split_matches_references(random_complex(rng, field, max_dim=4, length=4), seed)
    for n, c in enumerate(_edge_complexes(field)):
        _assert_split_matches_references(c, f"edge {n}")
    if field.finite:
        return

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def wide(data):
        # a seeded complex conjugated by wide rational changes of basis
        c = random_complex(random.Random(data.draw(st.integers(0, 2**16))), Q, max_dim=4, length=3)
        t = [_wide_invertible(data, n) for n in c.dims]
        maps = [t[j + 1] * c.differential(i) * inverse(t[j]) for j, i in enumerate(range(c.lo, c.hi))]
        _assert_split_matches_references(ChainComplex(Q, c.lo, list(c.dims), maps), "wide")

    wide()


def test_split_makes_no_elimination_wider_than_its_cocycles(monkeypatch):
    # besides each differential's own reduction, one elimination of at most
    # b + z columns per degree (an elimination of [B | Z | I] would take
    # b + z + n), and the basis check is the only pivots-only one
    original = matrices._eliminate
    calls = []

    def recording(m, width, forward=False):
        calls.append((m, forward))
        return original(m, width, forward)

    for field in (Q, F_M31):
        c = random_complex(random.Random(3), field, max_dim=6, length=4)
        assert validate_complex(c) == []
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(matrices, "_eliminate", recording)
            s = split_complex.__wrapped__(c)
        full = [m for m, forward in calls if not forward]
        assert full[0::2] == [c.differential(i) for i in c.degrees]
        for i, m in zip(c.degrees, full[1::2], strict=True):
            b, h, _ = s.block_dims(i)
            assert m.cols <= b + (b + h), (field, i)
        assert [m for m, forward in calls if forward] == [s.basis(i) for i in c.degrees]
        assert any(all(s.block_dims(i)) for i in c.degrees)


def test_split_rejects_invalid_complex():
    bad = ChainComplex(Q, 0, [1, 1, 1], [mat(Q, [[1]]), mat(Q, [[1]])])
    with pytest.raises(ValueError):
        split_complex(bad)


def test_extract_identity_blocks():
    c = corner_window(Q, 3)
    s = split_complex(c)
    blocks = extract_blocks(ChainEndomorphism.identity(c), s)
    for i in c.degrees:
        b, h, b_next = s.block_dims(i)
        assert blocks.block(i, 0, 0) == Matrix.identity(Q, b)
        assert blocks.block(i, 1, 1) == Matrix.identity(Q, h)
        assert blocks.block(i, 2, 2) == Matrix.identity(Q, b_next)
        assert blocks.block(i, 0, 1).is_zero()
        assert blocks.block(i, 0, 2).is_zero()
        assert blocks.block(i, 1, 2).is_zero()


def test_extract_null_homotopic_on_zero_differentials():
    from chaincomm.complexes import homotopy_boundary

    z = zero_differential_complex(Q, [2, 2])
    s = split_complex(z)
    for seed, rng in seeds(5):
        phi = homotopy_boundary(random_homotopy(rng, z))
        blocks = extract_blocks(phi, s)
        for i in z.degrees:
            assert blocks.split_map(i).is_zero()


def test_extract_alternating_reflection_boundary_blocks():
    window = corner_window(Q, 4)
    s = split_complex(window)
    blocks = extract_blocks(alternating_reflection(window), s)
    for i in range(window.lo + 1, window.hi + 1):
        block = blocks.boundary_block(i)
        assert block.shape == (1, 1)
        assert block.trace() in (Q.one, Q.neg(Q.one))
    assert blocks.cohomology_block(window.lo + 1).shape == (0, 0)


def test_extract_rejects_non_chain_map():
    c = corner_window(Q, 3)
    s = split_complex(c)
    not_chain = ChainEndomorphism(c, [mat(Q, [[1, 0], [0, 2]])] * 3)
    with pytest.raises(BlockStructureError):
        extract_blocks(not_chain, s)


def test_extract_reads_the_lower_blocks_in_place():
    # the three lower blocks are tested on the conjugated map without being
    # cut; the verdict and the first nonzero block named equal those of
    # cutting all nine, and the six upper blocks are the cut ones
    for seed, rng in seeds(40):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=3, length=3)
        s = split_complex(c)
        if seed % 4 < 2:
            phi = random_chain_map(rng, c, s)
        else:
            phi = ChainEndomorphism(c, [random_matrix(rng, field, c.dim(i), c.dim(i)) for i in c.degrees])
        grids = {i: split_blocks(s.to_split(i, phi.map(i)), s.block_dims(i), s.block_dims(i)) for i in c.degrees}
        lower = [(pos, i) for i in c.degrees for pos in ((1, 0), (2, 0), (2, 1)) if not grids[i][pos].is_zero()]
        if lower:
            pos, i = lower[0]
            with pytest.raises(BlockStructureError, match=re.escape(f"nonzero lower block {pos} at degree {i}:")):
                extract_blocks(phi, s)
            continue
        try:
            blocks = extract_blocks(phi, s)
        except BlockStructureError as err:
            assert "boundary blocks disagree" in str(err)
            continue
        for i in c.degrees:
            for row, col in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
                assert blocks.block(i, row, col) == grids[i][(row, col)]


def test_roundtrip_extract_assemble():
    for seed, rng in seeds(40):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=4, length=4)
        s = split_complex(c)
        phi = random_chain_map(rng, c, s)
        blocks = extract_blocks(phi, s)
        assert assemble(blocks) == phi
        again = extract_blocks(assemble(blocks), s)
        for i in c.degrees:
            assert again.split_map(i) == blocks.split_map(i)


def test_assemble_rejects_malformed_blocks():
    c = corner_window(Q, 3)
    s = split_complex(c)
    with pytest.raises(ValueError):
        BlockData.from_blocks(s, {1: {(2, 0): Matrix.zeros(Q, 1, 1)}})
    # inconsistent shared boundary blocks
    with pytest.raises(BlockStructureError):
        BlockData.from_blocks(
            s,
            {
                0: {(2, 2): mat(Q, [[1]])},
                1: {(0, 0): mat(Q, [[2]])},
            },
        )


def test_from_blocks_checks_each_block():
    # corner_window(Q, 3) has block sizes (0, 1, 1), (1, 0, 1), (1, 1, 0)
    c = corner_window(Q, 3)
    s = split_complex(c)
    malformed = {
        "shape": {1: {(0, 0): Matrix.zeros(Q, 2, 2)}},
        "field": {1: {(0, 0): mat(GF2, [[1]])}},
        "below the diagonal": {1: {(1, 0): Matrix.zeros(Q, 0, 1)}},
        "out of the grid": {1: {(0, 3): Matrix.zeros(Q, 1, 1)}},
    }
    for name, blocks in malformed.items():
        with pytest.raises(ValueError) as raised:
            BlockData.from_blocks(s, blocks)
        assert raised.type is ValueError, name
    disagreeing = {
        "values": {0: {(2, 2): mat(Q, [[1]])}, 1: {(0, 0): mat(Q, [[2]])}},
        "nonzero against missing": {1: {(2, 2): mat(Q, [[3]])}},
        "missing against nonzero": {1: {(0, 0): mat(Q, [[3]])}},
    }
    for name, blocks in disagreeing.items():
        with pytest.raises(BlockStructureError):
            BlockData.from_blocks(s, blocks)
    # a missing boundary block is zero, so it agrees with an explicit zero
    zero = BlockData.from_blocks(s, {0: {(2, 2): Matrix.zeros(Q, 1, 1)}})
    assert zero.boundary_block(1) == Matrix.zeros(Q, 1, 1)
    assert zero.split_map(1).is_zero() and assemble(zero) == ChainEndomorphism.zero(c)


@pytest.mark.parametrize("field", [Q, GF2, PrimeField(2**31 - 1)], ids=["Q", "F2", "Fp"])
def test_assemble_equals_conjugating_the_whole_block_matrix(field):
    for seed, rng in seeds(25):
        c = random_complex(rng, field, max_dim=4, length=1 + seed % 4)
        s = split_complex(c)
        boundary = {i: random_matrix(rng, field, s.boundary_dim(i), s.boundary_dim(i)) for i in range(c.lo, c.hi + 2)}
        grids = {}
        for i in c.degrees:
            sizes = s.block_dims(i)
            grid = {pos: random_matrix(rng, field, sizes[pos[0]], sizes[pos[1]]) for pos in ((0, 1), (0, 2), (1, 1), (1, 2))}
            grid[(0, 0)], grid[(2, 2)] = boundary[i], boundary[i + 1]
            # sparse grids: drop some blocks; a dropped shared block is zero on both sides
            grids[i] = {pos: m for pos, m in grid.items() if rng.random() < 0.75 or pos in ((0, 0), (2, 2))}
        for i in c.degrees:
            if rng.random() < 0.25:
                boundary_zero = Matrix.zeros(field, s.boundary_dim(i + 1), s.boundary_dim(i + 1))
                grids[i][(2, 2)] = boundary_zero
                grids.get(i + 1, {}).pop((0, 0), None)
        old_path = ChainEndomorphism(
            c,
            [
                s.basis(i) * block_matrix(field, s.block_dims(i), s.block_dims(i), grids[i]) * s.inverse_basis(i)
                for i in c.degrees
            ],
        )
        assert assemble(BlockData.from_blocks(s, grids)) == old_path, seed


def test_basis_in_the_window_is_the_stored_matrix(monkeypatch):
    s = split_complex(corner_window(Q, 3))
    stored = {i: (s.basis(i), s.inverse_basis(i)) for i in s.complex.degrees}
    assert s.basis(-1) == s.inverse_basis(3) == Matrix.identity(Q, 0)

    def no_identity(cls, field, n):
        raise AssertionError("an in-window basis built an identity")

    monkeypatch.setattr(Matrix, "identity", classmethod(no_identity))
    for i, (basis, inverse) in stored.items():
        assert s.basis(i) is basis and s.inverse_basis(i) is inverse
        assert basis * inverse == mat(Q, [[1, 0], [0, 1]])


def test_cohomology_only_blocks_form_chain_map():
    c = corner_window(Q, 4)
    s = split_complex(c)
    blocks = {}
    for i in c.degrees:
        h = s.cohomology_dim(i)
        blocks[i] = {(1, 1): Matrix.identity(Q, h).scale(3)}
    phi = assemble(BlockData.from_blocks(s, blocks))
    assert validate_chain_map(phi) == []


@pytest.mark.parametrize("field", [Q, GF2, PrimeField(101)], ids=["Q", "F2", "F101"])
def test_assembled_upper_triangular_blocks_form_a_chain_map(field):
    # assemble does not re-check its result: upper-triangular blocks whose
    # shared boundary blocks agree commute with the standard differential
    for seed, rng in seeds(25):
        c = random_complex(rng, field, max_dim=4, length=1 + seed % 5)
        s = split_complex(c)
        boundary = {i: random_matrix(rng, field, s.boundary_dim(i), s.boundary_dim(i)) for i in range(c.lo, c.hi + 2)}
        blocks = {}
        for i in c.degrees:
            sizes = s.block_dims(i)
            blocks[i] = {
                pos: random_matrix(rng, field, sizes[pos[0]], sizes[pos[1]]) for pos in ((0, 1), (0, 2), (1, 1), (1, 2))
            }
            blocks[i][(0, 0)], blocks[i][(2, 2)] = boundary[i], boundary[i + 1]
        assert validate_chain_map(assemble(BlockData.from_blocks(s, blocks))) == [], seed


def test_trace_additivity_over_blocks():
    for seed, rng in seeds(30):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=4, length=4)
        s = split_complex(c)
        phi = random_chain_map(rng, c, s)
        blocks = extract_blocks(phi, s)
        for i in c.degrees:
            total = field.add(
                field.add(blocks.block(i, 0, 0).trace(), blocks.block(i, 1, 1).trace()),
                blocks.block(i, 2, 2).trace(),
            )
            assert total == phi.map(i).trace()


def test_cohomology_block_trace_matches_functor_path():
    for seed, rng in seeds(30):
        field = Q if seed % 2 == 0 else GF2
        c = random_complex(rng, field, max_dim=4, length=4)
        s = split_complex(c)
        phi = random_chain_map(rng, c, s)
        blocks = extract_blocks(phi, s)
        for i in c.degrees:
            assert blocks.cohomology_block(i).trace() == induced_cohomology_map(phi, i).trace()


# -- the splitting cache ---------------------------------------------------------

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _parsed(name: str) -> jsonio.Document:
    return jsonio.parse_document(json.loads((FIXTURES / name).read_text(encoding="utf-8")))


def test_equal_complexes_share_one_splitting():
    first, second = _parsed("f2_window.json"), _parsed("f2_window.json")
    assert first.complex is not second.complex
    assert first.complex == second.complex and hash(first.complex) == hash(second.complex)
    split_complex.cache_clear()
    s = split_complex(first.complex)
    assert (split_complex.cache_info().hits, split_complex.cache_info().misses) == (0, 1)
    assert split_complex(second.complex) is s
    assert (split_complex.cache_info().hits, split_complex.cache_info().misses) == (1, 1)


def test_changed_differential_entry_misses():
    c = ChainComplex(Q, 0, [2, 2], [mat(Q, [[1, 2], [3, 4]])])
    changed = ChainComplex(Q, 0, [2, 2], [mat(Q, [[1, 2], [3, 5]])])
    split_complex.cache_clear()
    split_complex(c)
    s = split_complex(changed)
    assert (split_complex.cache_info().hits, split_complex.cache_info().misses) == (0, 2)
    assert s.complex == changed


def test_cache_holds_at_most_sixteen_splittings():
    split_complex.cache_clear()
    for k in range(20):
        split_complex(exact_two_term(Q, k + 1))
        assert split_complex.cache_info().currsize <= 16
    info = split_complex.cache_info()
    assert info.maxsize == 16 and info.currsize == 16 and info.misses == 20


def test_generation_does_not_fill_the_cache():
    # nor the validation caches, whose answers later requests read
    caches = (split_complex, validate_complex, validate_chain_map)
    rng = random.Random(5)
    c = random_complex(rng, Q, max_dim=4, length=4)
    split_complex.cache_clear()
    before = [f.cache_info() for f in caches]
    random_complex(rng, PrimeField(7), max_dim=4, length=3)
    for ensure in (None, "t1", "t2", "t3", "t4"):
        random_endomorphism(rng, c, ensure=ensure)
    random_chain_map(rng, c)
    assert [f.cache_info() for f in caches] == before


def test_generators_split_each_complex_once():
    rng = random.Random(5)
    c = random_complex(rng, PrimeField(101), max_dim=4, length=4)
    split_for_generation.cache_clear()
    for _ in range(2):
        random_endomorphism(rng, c, ensure="t4")
    assert (split_for_generation.cache_info().hits, split_for_generation.cache_info().misses) == (1, 1)
    # keyed by content, like split_complex: an equal complex shares the entry
    random_chain_map(rng, ChainComplex(c.field, c.lo, c.dims, c.stored_differentials))
    assert (split_for_generation.cache_info().hits, split_for_generation.cache_info().misses) == (2, 1)
    for k in range(10):
        random_chain_map(rng, exact_two_term(Q, k + 1))
        assert split_for_generation.cache_info().currsize <= 4
    info = split_for_generation.cache_info()
    assert info.maxsize == 4 and info.currsize == 4 and info.misses == 11


def test_generators_refuse_bad_arguments():
    rng = random.Random(5)
    c = random_complex(rng, Q, max_dim=2, length=2)
    for bad, message in (
        (lambda: random_complex(rng, Q, length=0), "length must be at least 1"),
        (lambda: random_complex(rng, Q, max_dim=-1), "max_dim must be nonnegative"),
        (lambda: random_endomorphism(rng, c, ensure="t5"), "ensure must be one of"),
    ):
        with pytest.raises(ValueError, match=message):
            bad()


@pytest.mark.parametrize("builder", ["commutator_witness", "homotopy_commutator_witness", "homotopy_pointwise_witness"])
def test_certificates_do_not_depend_on_cache_state(builder):
    rng = random.Random(11)
    c = random_complex(rng, Q, max_dim=4, length=4)
    document = json.dumps(jsonio.serialize_document(c, random_endomorphism(rng, c, ensure="t2")))

    def certificate() -> str:
        doc = jsonio.parse_document(json.loads(document))
        witness = getattr(witnesses, builder)(doc.endomorphism)
        return json.dumps(jsonio.serialize_document(doc.complex, doc.endomorphism, [witness]), sort_keys=True)

    split_complex.cache_clear()
    cold = certificate()
    assert split_complex.cache_info().misses == 1
    warm = certificate()
    assert split_complex.cache_info().misses == 1 and split_complex.cache_info().hits > 0
    assert warm == cold
