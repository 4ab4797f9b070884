"""Tilted-CHSH sum-of-squares certificates.

The tilted-CHSH functional eta = alpha*a0 + a0*b0 + a0*b1 + a1*b0 - a1*b1
(in the +-1-observable generators a_x = m^x_0 - m^x_1, b_y = n^y_0 - n^y_1)
has optimal value lam = sqrt(8 + 2*alpha^2) over all models, certified by two
explicit identities expressing 2*lam*(lam - eta) as a sum of squares and
manifestly positive terms.  The identities hold in the universal algebra:
both sides agree once every a letter is moved left of every b letter, using
[a_x, b_y] = 0 and neither a_x^2 = 1 nor b_y^2 = 1.  So they are checked once,
on coefficients, and hold for every valid model whatsoever; a model is
optimal exactly when the state annihilates every term.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, mat_norm, record
from .models import QuantumModel, Scenario, ValidationReport, _act, _check_commutation

__all__ = [
    "NCPoly",
    "TiltedChshPolynomials",
    "tilted_chsh_build",
    "TiltedChshCertificate",
    "verify_tilted_sos",
]

# generator indices in monomials
A0, A1, B0, B1 = 0, 1, 2, 3


class NCPoly:
    """Noncommutative polynomial in the four observables a0, a1, b0, b1.

    Stored as a monomial-to-coefficient map; monomials are tuples of
    generator indices.  No simplification is performed beyond merging equal
    monomials; commutation between the a and b letters only enters through
    the a-then-b normal form that ``verify_tilted_sos`` reduces the identity
    defects to.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, ...], float] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0.0:
                    self.terms[tuple(mono)] = float(coeff)

    @staticmethod
    def constant(c: float) -> "NCPoly":
        return NCPoly({(): c})

    @staticmethod
    def gen(idx: int) -> "NCPoly":
        return NCPoly({(idx,): 1.0})

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = NCPoly.constant(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0.0) + c
        return NCPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = NCPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return NCPoly.constant(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return NCPoly({m: c * other for m, c in self.terms.items()})
        out: dict[tuple[int, ...], float] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 + m2
                out[mono] = out.get(mono, 0.0) + c1 * c2
        return NCPoly(out)

    def __rmul__(self, other):
        return self * other

    def square(self) -> "NCPoly":
        return self * self

    def evaluate(self, gens: list[np.ndarray]) -> np.ndarray:
        """Substitute concrete matrices for the generators.

        Each monomial is the product ``I @ g1 @ g2 @ ...``, and the terms are
        summed in the order of ``terms``.
        """
        d = gens[0].shape[0]
        out = np.zeros((d, d), dtype=complex)
        for mono, coeff in self.terms.items():
            term = np.eye(d, dtype=complex)
            for idx in mono:
                term = term @ gens[idx]
            out += coeff * term
        return out

    def __repr__(self):
        return f"NCPoly({len(self.terms)} terms)"


@record(frozen=True)
class TiltedChshPolynomials:
    """The functional and the twelve certificate polynomials for one alpha."""

    alpha: float
    lam: float
    delta: float
    eta: NCPoly
    r: tuple[NCPoly, NCPoly, NCPoly, NCPoly]
    s: tuple[NCPoly, ...]  # s1..s8

    def identity_sides(self) -> tuple[NCPoly, NCPoly, NCPoly]:
        """(LHS, RHS1, RHS2) of the two certificate identities.

        LHS = 2*lam*(lam - eta);
        RHS1 = r1^2 + r2^2 + (s1+s2+s3+s4)/2 + 2*(s5+s6);
        RHS2 = r3^2 + r4^2 + (s1+s2+s3+s4)/2
               + 2*(2-a0^2-a1^2)*(2-b0^2-b1^2)
               + (lam-alpha*(a0-a1))^2*(1-b0^2)/2
               + (lam-alpha*(a0+a1))^2*(1-b1^2)/2.
        """
        a0, a1, b0, b1 = (NCPoly.gen(i) for i in (A0, A1, B0, B1))
        r1, r2, r3, r4 = self.r
        s1, s2, s3, s4, s5, s6, _, _ = self.s
        lhs = 2 * self.lam * (NCPoly.constant(self.lam) - self.eta)
        rhs1 = (r1.square() + r2.square() + 0.5 * (s1 + s2 + s3 + s4) + 2 * (s5 + s6))
        w0 = NCPoly.constant(self.lam) - self.alpha * (a0 - a1)
        w1 = NCPoly.constant(self.lam) - self.alpha * (a0 + a1)
        rhs2 = (r3.square() + r4.square() + 0.5 * (s1 + s2 + s3 + s4)
                + 2 * (2 - a0.square() - a1.square()) * (2 - b0.square() - b1.square())
                + 0.5 * w0.square() * (1 - b0.square())
                + 0.5 * w1.square() * (1 - b1.square()))
        return lhs, rhs1, rhs2


def tilted_chsh_build(alpha: float) -> TiltedChshPolynomials:
    """Formal certificate polynomials for the tilted-CHSH family.

    Valid for 0 <= alpha < 2; lam = sqrt(8 + 2 alpha^2) and
    delta = sqrt(8 - 2 alpha^2).
    """
    if not 0 <= alpha < 2:
        raise ValueError(f"alpha must lie in [0, 2), got {alpha}")
    lam = math.sqrt(8 + 2 * alpha**2)
    delta = math.sqrt(8 - 2 * alpha**2)
    a0, a1, b0, b1 = (NCPoly.gen(i) for i in (A0, A1, B0, B1))

    eta = alpha * a0 + a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1
    r1 = NCPoly.constant(lam) - eta
    r2 = alpha * a1 - a0 * b0 + a0 * b1 - a1 * b0 - a1 * b1
    r3 = (2 * a0 - (lam / 2) * (b0 + b1)
          + (alpha / 2) * (a0 * b0 + a0 * b1 - a1 * b0 + a1 * b1))
    r4 = (2 * a1 - (lam / 2) * (b0 - b1)
          + (alpha / 2) * (a0 * b0 - a0 * b1 - a1 * b0 - a1 * b1))

    one = NCPoly.constant(1.0)
    s1 = (alpha + 2 * b0).square() * (one - a0.square())
    s2 = (alpha + 2 * b1).square() * (one - a0.square())
    s3 = (alpha - 2 * b0).square() * (one - a1.square())
    s4 = (alpha - 2 * b1).square() * (one - a1.square())
    s5 = (2 + a0 * a1 + a1 * a0) * (one - b0.square())
    s6 = (2 - a0 * a1 - a1 * a0) * (one - b1.square())
    s7 = (NCPoly.constant(lam) - alpha * (a0 - a1)) * (one - b0.square())
    s8 = (NCPoly.constant(lam) - alpha * (a0 + a1)) * (one - b1.square())

    return TiltedChshPolynomials(
        alpha=alpha, lam=lam, delta=delta, eta=eta,
        r=(r1, r2, r3, r4), s=(s1, s2, s3, s4, s5, s6, s7, s8),
    )


def _identity_defect(diff: NCPoly) -> tuple[float, float]:
    """``(residual, swaps)`` of ``diff`` = LHS - RHS.

    ``residual`` is the largest coefficient left after the a-then-b reduction
    (a stable sort moves every a letter left of every b letter); ``swaps`` is
    sum_m |c_m| inv(m), inv(m) counting the b-before-a pairs of m.  Each of
    the inv(m) swaps that sorts m moves its operator by at most
    max ||[a_x, b_y]|| when every generator has norm at most 1."""
    normal: dict[tuple[int, ...], float] = {}
    swaps = 0.0
    for mono, coeff in diff.terms.items():
        key = tuple(sorted(mono, key=lambda idx: idx >= B0))
        normal[key] = normal.get(key, 0.0) + coeff
        swaps += abs(coeff) * sum(x >= B0 > y for i, x in enumerate(mono) for y in mono[i + 1:])
    return max(map(abs, normal.values()), default=0.0), swaps


@record
class TiltedChshCertificate:
    alpha: float
    lam: float
    delta: float
    f_eta: float
    identity_defects: tuple[float, float]
    state_residuals: dict[str, float]
    identities_ok: bool
    optimal: bool


def verify_tilted_sos(m, alpha: float, tol: Tolerance = DEFAULT_TOL) -> TiltedChshCertificate:
    """Check the tilted-CHSH certificate on a concrete model.

    Each identity defect is the coefficient residual of LHS - RHS in the
    a-then-b normal form, which must vanish for every valid model, optimal or
    not.  On a commuting model it adds the commutator bound, the swap weight
    of ``_identity_defect`` times max_{x,y} ||[a_x, b_y]||; that bound needs
    ||a_x||, ||b_y|| <= 1, which holds for valid POVMs.  A tensor model
    commutes by construction, so its term is 0.  ``identities_ok`` asks for
    coefficient residuals within the ``identity`` cut and, on a commuting
    model, for the commutation rule of ``validate_model``; the bound is
    reported, not cut, so both commands accept the same models.  The state
    residuals f(r_i^2) = ||r_i psi||^2 and f(s_j) are nonnegative and must
    all vanish exactly when f(eta) reaches lam, which is what ``optimal``
    reports (at the given tolerance).  They are read from one table of word
    vectors, so on a tensor model no operator on the composite space is
    formed.
    """
    sc = m.scenario
    if sc != Scenario(2, 2, 2, 2):
        raise ValueError(f"tilted CHSH needs the (2,2,2,2) scenario, got {sc}")
    polys = tilted_chsh_build(alpha)
    # the +-1 observables, each on its own factor
    gens = [m.M[0][0] - m.M[0][1], m.M[1][0] - m.M[1][1],
            m.N[0][0] - m.N[0][1], m.N[1][0] - m.N[1][1]]
    psi = m.psi

    lhs, rhs1, rhs2 = polys.identity_sides()
    residual1, swaps1 = _identity_defect(lhs - rhs1)
    residual2, swaps2 = _identity_defect(lhs - rhs2)
    commutator, commutes = 0.0, ValidationReport()
    if not isinstance(m, QuantumModel):
        commutator = max(mat_norm(a @ b - b @ a) for a in gens[:B0] for b in gens[B0:])
        _check_commutation(commutes, m, tol)

    # a monomial's vector is its first generator acting on the vector of the rest
    vec = {(): psi}

    def word(mono):
        if mono not in vec:
            vec[mono] = _act(m, "B" if mono[0] >= B0 else "A", gens[mono[0]], word(mono[1:]))
        return vec[mono]

    def on_psi(poly):
        return sum(coeff * word(mono) for mono, coeff in poly.terms.items())

    f_eta = float(np.real(np.vdot(psi, on_psi(polys.eta))))
    residuals: dict[str, float] = {}
    for i, r in enumerate(polys.r, 1):
        v = on_psi(r)
        residuals[f"r{i}^2"] = float(np.real(np.vdot(v, v)))
    for j, s in enumerate(polys.s, 1):
        residuals[f"s{j}"] = float(np.real(np.vdot(psi, on_psi(s))))

    identities_ok = max(residual1, residual2) <= tol.cut("identity") and commutes.valid
    optimal = abs(f_eta - polys.lam) <= tol.eps
    return TiltedChshCertificate(
        alpha=alpha,
        lam=polys.lam,
        delta=polys.delta,
        f_eta=f_eta,
        identity_defects=(residual1 + swaps1 * commutator, residual2 + swaps2 * commutator),
        state_residuals=residuals,
        identities_ok=identities_ok,
        optimal=optimal,
    )

