"""Syndrome decoding for quantum convolutional stabilizer codes.

Maps an [n,k,m] stabilizer specification to an equivalent classical
convolutional code, derives syndrome-former / inverse-syndrome-former /
generator circuits, and decodes measured syndromes to maximum-likelihood
error patterns with a single Viterbi pass.
"""

from .algebra import (
    GF2, GF4, W, WBAR,
    AlgebraError, DegreeCapError, FieldMismatchError, Poly, RatMatrix,
    RationalFn, ZeroDenominatorError,
    format_poly, parse_poly, ratio,
)
from .stabilizer import (
    ErrorFrame, F4LinearityError, QuaternaryTransfer, SpecError,
    StabilizerSpec, SymplecticCheck, binary_transfer, check_symplectic,
    example_311, parse_stabilizer, quaternary_transfer, syndrome_of,
)
from .circuits import (
    CandidateBuilder, CatastrophicGeneratorError, CodeBundle, DerivationError,
    PolePeriodError, TransferSystem, block_isf_matrix, block_parity_matrix,
    coset_code_rows, derive_bundle, derive_generator,
    derive_inverse_syndrome_former, derive_syndrome_former, minors_gcd,
    polynomial_kernel_basis,
)
from .trellis import (
    BranchMetric, DecodeResult, Trellis, TrellisError, build_trellis,
    pauli_costs_for_channel, viterbi_decode,
)
from .oracle import OracleCapError, OracleResult, coset_leader_oracle
from .decoder import DecodedError, SyndromeDecoder, SyndromeDecoderF4
from .simulate import (
    ChannelParams, SimConfig, SweepResult, SweepRow, frame_rng, run_frame,
    run_sweep, sample_error, syndrome_from_text, syndrome_to_text,
)

__version__ = "0.1.0"
