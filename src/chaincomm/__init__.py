"""Exact-arithmetic commutator witnesses for endomorphisms of bounded complexes.

Given a bounded complex of finite-dimensional vector spaces over Q or F_p
and a chain endomorphism, the library decides whether the endomorphism is a
pointwise commutator, a commutator of chain maps, or homotopic to either,
and constructs machine-verifiable witnesses (matrix pairs, homotopies)
checked by exact arithmetic.
"""

from .complexes import (
    ChainComplex,
    ChainEndomorphism,
    CohomologySpace,
    CommutatorWitness,
    Homotopy,
    HomotopyWitness,
    PointwiseWitness,
    Stretch,
    TraceReport,
    add,
    chain_map_basis,
    cohomology,
    commutator,
    compose,
    homotopy_boundary,
    induced_cohomology_map,
    scale,
    stretches,
    subtract,
    trace_report,
    validate_chain_map,
    validate_complex,
)
from .errors import (
    BlockStructureError,
    ConstructionLimitation,
    FieldTooSmall,
    FiniteFieldUnsupported,
    MathematicalObstruction,
    SelectionExhausted,
    StretchObstruction,
    TraceObstruction,
    WitnessError,
)
from .fields import GF2, RATIONALS, Field, PrimeField, Rationals, Scalar
from .linalg import (
    RrefResult,
    complement_basis,
    image_basis,
    inverse,
    is_invertible,
    kernel_basis,
    rank,
    rref,
    solve_linear,
    sylvester_operator,
    sylvester_solve,
)
from .matrices import Matrix, block_matrix, enumerate_matrices, hstack, kron, split_blocks, vstack
from .splitting import BlockData, Splitting, assemble, extract_blocks, split_complex
from .verify import (
    Example2Report,
    ScanOutOfBounds,
    VerificationResult,
    Violation,
    brute_force_chain_commutator,
    brute_force_commutator,
    commutant_set,
    commutator_image,
    example2_search,
    verify_commutator,
    verify_homotopy_witness,
    verify_pointwise,
    verify_witness,
)
from .witnesses import (
    Analysis,
    CommutatorConstruction,
    PairSelection,
    Verdict,
    analyze,
    commutator_decomposition,
    commutator_witness,
    commutator_witness_detailed,
    homotopy_commutator_witness,
    homotopy_pointwise_witness,
    pointwise_commutator_witness,
    prescribed_trace_nullhomotopy,
    select_separated_pairs,
    zero_diagonal_basis,
)

__version__ = "0.1.0"
