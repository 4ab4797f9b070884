"""bellkit: verification toolkit for bipartite quantum correlation models.

Covers dilations (Naimark and local), Schmidt/support analysis, irreducible
decomposition, abstract-state equality, binary PVM rounding, and the XOR and
tilted-CHSH self-test certificates, behind a batch CLI (``bellkit``).
"""

__version__ = "0.1.0"

from .linalg import Tolerance, hermitian_eig, structural_predicates
from .schmidt import SchmidtDecomposition, schmidt_decompose
from .models import (
    Scenario,
    QuantumModel,
    CommutingModel,
    Correlation,
    DilationWitness,
    Word,
    validate_model,
    correlation_of,
    evaluate_moment,
    classify,
    is_projective_state,
)
from .support import SupportData, support_of, is_centrally_supported_via_transfer
from .reps import (
    AlgebraNotSemisimpleNumerically,
    RepDecomposition,
    CyclicModel,
    commutant_basis,
    irrep_decompose,
    cyclic_restrict,
    states_equal,
)
from .dilations import (
    NaimarkDilation,
    naimark_dilate,
    verify_local_dilation,
    NotDilatable,
    find_local_dilation,
)
from .special import (
    SyncReport,
    synchronous_verify,
    LemmaViolated,
    binary_round,
    XorCorrelation,
    xor_of,
    xor_selftest_certificate,
)
from .tilted import (
    tilted_chsh_build,
    verify_tilted_sos,
    TiltedChshCertificate,
)

__all__ = [
    "__version__",
    "Tolerance",
    "hermitian_eig",
    "structural_predicates",
    "SchmidtDecomposition",
    "schmidt_decompose",
    "Scenario",
    "QuantumModel",
    "CommutingModel",
    "Correlation",
    "DilationWitness",
    "Word",
    "validate_model",
    "correlation_of",
    "evaluate_moment",
    "classify",
    "is_projective_state",
    "SupportData",
    "support_of",
    "is_centrally_supported_via_transfer",
    "AlgebraNotSemisimpleNumerically",
    "RepDecomposition",
    "CyclicModel",
    "commutant_basis",
    "irrep_decompose",
    "cyclic_restrict",
    "states_equal",
    "NaimarkDilation",
    "naimark_dilate",
    "verify_local_dilation",
    "NotDilatable",
    "find_local_dilation",
    "SyncReport",
    "synchronous_verify",
    "LemmaViolated",
    "binary_round",
    "XorCorrelation",
    "xor_of",
    "xor_selftest_certificate",
    "tilted_chsh_build",
    "verify_tilted_sos",
    "TiltedChshCertificate",
]
