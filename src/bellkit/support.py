"""Support projections, support models, and the centrally-supported property.

Two independent criteria for being centrally supported are implemented: the
defining commutator condition ``[Pi_A, M] = [Pi_B, N] = 0``, and the
transfer condition that every A-operator can be moved across the state onto
the B side (and vice versa).  They must agree on every input; the test suite
enforces this on a large fixture corpus.
"""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, dagger, mat_norm, record
from .models import QuantumModel
from .schmidt import SchmidtDecomposition, schmidt_decompose

__all__ = ["SupportData", "support_of", "is_centrally_supported_via_transfer"]


@record(frozen=True)
class SupportData:
    PiA: np.ndarray
    PiB: np.ndarray
    supportModel: QuantumModel
    centrally_supported: bool
    commutator_residuals: dict[str, float]
    schmidt: SchmidtDecomposition


def _compress(op: np.ndarray, basis: np.ndarray) -> np.ndarray:
    t = dagger(basis) @ op @ basis
    return (t + dagger(t)) / 2  # scrub fp drift before POVM validation


def support_of(m: QuantumModel, tol: Tolerance = DEFAULT_TOL) -> SupportData:
    """Support projections and the compressed support model.

    The support model's dimensions equal the Schmidt rank of psi and its
    operators are the compressions ``Pi M Pi`` written in the Schmidt bases.
    The model is centrally supported iff every commutator residual
    ``||[Pi_A, M^x_a]||`` and ``||[Pi_B, N^y_b]||`` vanishes within tolerance.
    """
    sd = schmidt_decompose(m.psi, m.dimA, m.dimB, tol)
    basisA, basisB = sd.left, sd.right
    PiA = basisA @ dagger(basisA)
    PiB = basisB @ dagger(basisB)

    residuals: dict[str, float] = {}
    worst = 0.0
    for side, name, fam, Pi in (("A", "M", m.M, PiA), ("B", "N", m.N, PiB)):
        for x, povm in enumerate(fam):
            for a, op in enumerate(povm):
                r = mat_norm(Pi @ op - op @ Pi)
                residuals[f"[Pi{side},{name}[{x}][{a}]]"] = r
                worst = max(worst, r)

    psi_small = np.einsum("ai,ab,bj->ij", basisA.conj(), m.psi.reshape(m.dimA, m.dimB),
                          basisB.conj()).reshape(-1)
    psi_small = psi_small / np.linalg.norm(psi_small)
    support_model = QuantumModel(
        scenario=m.scenario,
        dimA=sd.rank,
        dimB=sd.rank,
        M=[[_compress(op, basisA) for op in povm] for povm in m.M],
        N=[[_compress(op, basisB) for op in povm] for povm in m.N],
        psi=psi_small,
    )
    return SupportData(
        PiA=PiA,
        PiB=PiB,
        supportModel=support_model,
        centrally_supported=bool(worst <= tol.eps),
        commutator_residuals=residuals,
        schmidt=sd,
    )


def _best_transfer_residual(op: np.ndarray, P: np.ndarray) -> float:
    """min_X || (op (x) Id) psi - (Id (x) X) psi || for coefficient matrix P.

    With ``psi = vec(P)`` the two vectors are ``op P`` and ``P X^T``, so the
    minimum is the residual of the least-squares solve ``P Y = op P``.  Pass
    ``P.T`` for an operator on the B factor: the problem is the same with the
    factors swapped.
    """
    target = op @ P
    sol, _, _, _ = np.linalg.lstsq(P, target, rcond=None)
    return float(np.linalg.norm(P @ sol - target))


def is_centrally_supported_via_transfer(m: QuantumModel, tol: Tolerance = DEFAULT_TOL):
    """Transfer-criterion verdict plus the per-operator defect norms.

    For each measurement operator the least-squares problem
    ``min_X ||(M (x) Id - Id (x) X) psi||`` is solved (and symmetrically for
    N); the model is centrally supported iff every optimal residual vanishes.
    Agrees with ``support_of(m).centrally_supported`` on all inputs.
    """
    psi_mat = m.psi.reshape(m.dimA, m.dimB)
    residuals: dict[str, float] = {}
    worst = 0.0
    for name, fam, P in (("M", m.M, psi_mat), ("N", m.N, psi_mat.T)):
        for x, povm in enumerate(fam):
            for a, op in enumerate(povm):
                r = _best_transfer_residual(op, P)
                residuals[f"transfer {name}[{x}][{a}]"] = r
                worst = max(worst, r)
    return bool(worst <= tol.eps), residuals
