"""bellkit: verification toolkit for bipartite quantum correlation models.

Covers dilations (Naimark and local), Schmidt/support analysis, irreducible
decomposition, abstract-state equality, binary PVM rounding, and the XOR and
tilted-CHSH self-test certificates, behind a batch CLI (``bellkit``).

``import bellkit`` imports neither numpy nor any kernel.  Each kernel module
is registered in ``sys.modules`` through ``importlib.util.LazyLoader`` and
runs on its first attribute access (``bellkit.reps.irrep_decompose``), and
the names in ``__all__`` resolve through the module ``__getattr__``
(PEP 562), so ``bellkit.states_equal`` runs ``reps`` and what it imports.
The CLI and the fixture builders in ``presets`` are ordinary imports.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# kernel module -> the names the package exports from it
_EXPORTS = {
    "linalg": ("Tolerance", "hermitian_eig", "structural_predicates"),
    "schmidt": ("SchmidtDecomposition", "schmidt_decompose"),
    "models": ("Scenario", "QuantumModel", "CommutingModel", "Correlation",
               "DilationWitness", "Word", "validate_model", "correlation_of",
               "evaluate_moment", "classify", "is_projective_state"),
    "support": ("SupportData", "support_of", "is_centrally_supported_via_transfer"),
    "reps": ("AlgebraNotSemisimpleNumerically", "RepDecomposition", "CyclicModel",
             "commutant_basis", "irrep_decompose", "cyclic_restrict", "states_equal"),
    "dilations": ("NaimarkDilation", "naimark_dilate", "verify_local_dilation",
                  "NotDilatable", "find_local_dilation"),
    "special": ("SyncReport", "synchronous_verify", "LemmaViolated", "binary_round",
                "XorCorrelation", "xor_of", "xor_selftest_certificate"),
    "tilted": ("tilted_chsh_build", "verify_tilted_sos", "TiltedChshCertificate"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def _register(name: str):
    """Put ``bellkit.<name>`` in ``sys.modules`` without running it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


linalg, schmidt, models, io, support, reps, dilations, special, tilted = map(
    _register, ("linalg", "schmidt", "models", "io", "support", "reps", "dilations",
                "special", "tilted"))


def __getattr__(name: str):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
