import json
import pathlib
import random

import pytest

from chaincomm import jsonio, witnesses
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
from chaincomm.generate import random_chain_map, random_complex, random_endomorphism, random_homotopy, random_matrix
from chaincomm.matrices import Matrix, block_matrix
from chaincomm.splitting import BlockData, assemble, extract_blocks, split_complex

from helpers import (
    alternating_reflection,
    corner_window,
    exact_two_term,
    mat,
    reference_split_bases,
    seeds,
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


@pytest.mark.parametrize("field", [Q, GF2, PrimeField(101)], ids=["Q", "F2", "F101"])
def test_split_bases_match_the_solve_based_reference(field):
    # preimages are read off the pivots of the differential, not solved for
    for seed, rng in seeds(40):
        c = random_complex(rng, field, max_dim=4, length=4)
        s = split_complex.__wrapped__(c)
        assert {i: s.basis(i) for i in c.degrees} == reference_split_bases(c), seed


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
