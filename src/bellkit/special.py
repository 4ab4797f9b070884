"""Synchronous and binary correlation machinery, and XOR certificates.

Synchronous correlations force the state to swap measurements across the
tensor factor and force projectivity on full-rank models; extreme binary
correlations admit an eigenvalue trichotomy that rounds any POVM model to a
projective one with the same correlation.  XOR correlations of unbiased
binary behaviours carry the even-rank commuting-operator self-test
certificate.  Extremality is never decided here, only asserted by the caller
or refuted by an explicit convex decomposition.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    cluster_eigenvalues,
    dagger,
    hermitian_eig,
    mat_norm,
    record,
)
from .models import (
    Correlation,
    DilationWitness,
    QuantumModel,
    _act,
    correlation_of,
    is_projective_state,
    trivial_witness,
)
from .schmidt import schmidt_decompose

__all__ = [
    "SyncReport",
    "synchronous_verify",
    "LemmaViolated",
    "binary_round",
    "XorCorrelation",
    "xor_of",
    "XorCertificate",
    "xor_selftest_certificate",
    "check_decomposition",
    "refute_extremality",
]


@record
class SyncReport:
    swap_residuals: dict[str, float]
    full_rank: bool
    projectivity_residuals: dict[str, float] | None
    projective_state: bool
    passed: bool


def synchronous_verify(m: QuantumModel, tol: Tolerance = DEFAULT_TOL) -> SyncReport:
    """Checks every synchronous model must satisfy.

    Requires a synchronous scenario and correlation (``p(a,b|x,x) = 0`` for
    ``a != b``).  Reports the swap-transfer residuals
    ``||(M^x_a (x) Id - Id (x) N^x_a) psi||`` for all (x, a); if the model is
    full-rank, the projectivity residuals ``||M^2 - M||`` (which must then
    vanish); and whether the induced abstract state is projective (it always
    is for synchronous correlations).
    """
    sc = m.scenario
    if sc.nX != sc.nY or sc.nA != sc.nB:
        raise ValueError(f"scenario {sc} is not synchronous (needs X=Y, A=B)")
    p = correlation_of(m, tol).p
    s = np.arange(sc.nX)
    worst_sync = p[:, :, s, s][~np.eye(sc.nA, dtype=bool)].max(initial=0.0)  # a != b
    if worst_sync > tol.eps:
        raise ValueError(
            f"correlation is not synchronous: max off-diagonal p(a,b|x,x) = {worst_sync:.3e}"
        )

    swap: dict[str, float] = {}
    for x in range(sc.nX):
        for a in range(sc.nA):
            lhs = _act(m, "A", m.M[x][a], m.psi)
            rhs = _act(m, "B", m.N[x][a], m.psi)
            swap[f"(x={x},a={a})"] = float(np.linalg.norm(lhs - rhs))

    full_rank = schmidt_decompose(m.psi, m.dimA, m.dimB, tol).full_rank
    proj_res = None
    if full_rank:
        proj_res = {}
        for x in range(sc.nX):
            for a in range(sc.nA):
                proj_res[f"M[{x}][{a}]"] = mat_norm(m.M[x][a] @ m.M[x][a] - m.M[x][a])
                proj_res[f"N[{x}][{a}]"] = mat_norm(m.N[x][a] @ m.N[x][a] - m.N[x][a])

    proj_state = is_projective_state(m, tol)
    passed = (max(swap.values()) <= tol.eps
              and (proj_res is None or max(proj_res.values()) <= tol.eps)
              and proj_state)
    return SyncReport(
        swap_residuals=swap,
        full_rank=full_rank,
        projectivity_residuals=proj_res,
        projective_state=proj_state,
        passed=passed,
    )


class LemmaViolated(RuntimeError):
    """An eigenpair fails the binary trichotomy (eigenvalue in {0,1} or
    eigenvector unseen by the state); the extremality assertion is false or
    the tolerance too tight."""

    def __init__(self, side: str, x: int, eigenvalue: float, residual: float):
        self.side = side
        self.x = x
        self.eigenvalue = eigenvalue
        self.residual = residual
        super().__init__(
            f"eigenvalue {eigenvalue:.6f} of {side}[{x}][0] is neither 0 nor 1 and its "
            f"eigenspace meets the state (residual {residual:.3e})"
        )


def _round_effect(m: QuantumModel, side: str, x: int, tol: Tolerance) -> np.ndarray:
    """Projection onto the eigenvalue-1 part of the binary effect ``[x][0]`` of ``side``.

    Every eigenvalue cluster must be ~0, ~1, or have an eigenspace whose
    projector annihilates the state on that side; otherwise LemmaViolated is
    raised.
    """
    op = (m.M if side == "A" else m.N)[x][0]
    vals, vecs = hermitian_eig(op, tol)
    proj = np.zeros_like(op)
    for block in cluster_eigenvalues(vals, tol.cut("cluster")):
        lam = float(vals[block].mean())
        cols = vecs[:, block]
        if abs(lam - 1.0) <= tol.eps:
            proj = proj + cols @ dagger(cols)
        elif abs(lam) <= tol.eps:
            continue
        else:
            residual = float(np.linalg.norm(_act(m, side, cols @ dagger(cols), m.psi)))
            if residual > tol.eps:
                raise LemmaViolated("M" if side == "A" else "N", x, lam, residual)
    return (proj + dagger(proj)) / 2


def binary_round(m: QuantumModel,
                 tol: Tolerance = DEFAULT_TOL) -> tuple[QuantumModel, DilationWitness]:
    """Round a binary POVM model to a projective model with the same correlation.

    Valid when the correlation is an extreme point (which this function cannot
    decide; the caller asserts it).  Each effect M^x_0 is spectrally
    decomposed, each eigenpair must satisfy the trichotomy (eigenvalue 0,
    eigenvalue 1, or eigenspace killed by the state), and the rounded
    projections keep exactly the eigenvalue-1 spaces.  The returned witness is
    the identity-isometry witness: S >= S' holds on the nose.
    """
    sc = m.scenario
    if sc.nA != 2 or sc.nB != 2:
        raise ValueError(f"binary rounding needs two outputs per side, got {sc}")
    P, Q = [], []
    for side, n_inputs, dim, family in (("A", sc.nX, m.dimA, P), ("B", sc.nY, m.dimB, Q)):
        for x in range(n_inputs):
            p0 = _round_effect(m, side, x, tol)
            family.append([p0, np.eye(dim) - p0])

    rounded = QuantumModel(scenario=sc, dimA=m.dimA, dimB=m.dimB, M=P, N=Q, psi=m.psi)
    return rounded, trivial_witness(m)


@record
class XorCorrelation:
    """Signed marginal matrix c[x, y] = sum_{a,b} (-1)^{a+b} p(a,b|x,y)."""

    c: np.ndarray
    unbiased: bool
    rank: int


def xor_of(p: Correlation, tol: Tolerance = DEFAULT_TOL) -> XorCorrelation:
    """XOR correlation of a binary behaviour, with unbiasedness and rank.

    Unbiased means both local marginals are uniform for every setting pair.
    The rank is the numerical rank of c at the tolerance.
    """
    sc = p.scenario
    if sc.nA != 2 or sc.nB != 2:
        raise ValueError(f"XOR correlation needs binary outputs, got {sc}")
    t = p.p
    c = t[0, 0] - t[0, 1] - t[1, 0] + t[1, 1]
    marginals = np.stack([t.sum(axis=1), t.sum(axis=0)])  # p(a|x,y), p(b|x,y)
    unbiased = bool(np.abs(marginals[:, 0] - marginals[:, 1]).max() <= tol.eps)
    svals = np.linalg.svd(c, compute_uv=False)
    rank = int(np.sum(svals > tol.eps * max(1.0, svals[0])))
    return XorCorrelation(c=c, unbiased=unbiased, rank=rank)


@record
class XorCertificate:
    granted: bool
    rank: int
    unbiased: bool
    extremal_asserted: bool
    extremality_refuted: bool | None
    reasons: list[str]


def check_decomposition(p: Correlation, decomposition) -> None:
    """ValueError naming the first component of ``decomposition`` (a list of
    (weight, Correlation)) whose scenario is not p's."""
    for k, (_, comp) in enumerate(decomposition):
        if comp.scenario != p.scenario:
            raise ValueError(f"decomposition component {k} has scenario {comp.scenario}, "
                             f"but the correlation has scenario {p.scenario}")


def refute_extremality(p: Correlation, decomposition, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the supplied convex decomposition refutes extremality of p.

    ``decomposition`` is a list of (weight, Correlation).  Refutation needs
    positive weights summing to 1, the mixture reproducing p entrywise, and
    at least one component distinct from p.  (Refutation is decidable;
    assertion is not, so this is the only extremality check the toolkit does.)
    A component from another scenario raises ValueError
    (:func:`check_decomposition`).
    """
    check_decomposition(p, decomposition)
    if not decomposition:
        return False
    weights = np.array([w for w, _ in decomposition], dtype=float)
    if weights.min() <= 0 or abs(weights.sum() - 1.0) > tol.eps:
        return False
    mix = sum(w * comp.p for w, comp in decomposition)
    if float(np.abs(mix - p.p).max()) > tol.eps:
        return False
    return any(float(np.abs(comp.p - p.p).max()) > tol.eps for _, comp in decomposition)


def xor_selftest_certificate(p: Correlation, extremal_assertion: bool,
                             decomposition=None,
                             tol: Tolerance = DEFAULT_TOL) -> XorCertificate:
    """Commuting-operator self-test certificate for a binary correlation.

    Granted iff the correlation is unbiased, its XOR matrix has even rank,
    and the caller asserts extremality (which the certificate records
    verbatim and never claims itself).  A supplied convex decomposition that
    reproduces p with distinct components refutes the assertion and denies
    the certificate.
    """
    xc = xor_of(p, tol)
    refuted = None
    if decomposition is not None:
        refuted = refute_extremality(p, decomposition, tol)
    reasons = []
    if not xc.unbiased:
        reasons.append("correlation is not unbiased")
    if xc.rank % 2 != 0:
        reasons.append(f"XOR matrix rank {xc.rank} is odd")
    if not extremal_assertion:
        reasons.append("extremality not asserted")
    if refuted:
        reasons.append("extremality refuted by the supplied convex decomposition")
    granted = not reasons
    return XorCertificate(
        granted=granted,
        rank=xc.rank,
        unbiased=xc.unbiased,
        extremal_asserted=extremal_assertion,
        extremality_refuted=refuted,
        reasons=reasons,
    )
