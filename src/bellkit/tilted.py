"""Tilted-CHSH sum-of-squares certificates.

The tilted-CHSH functional eta = alpha*a0 + a0*b0 + a0*b1 + a1*b0 - a1*b1
(in the +-1-observable generators a_x = m^x_0 - m^x_1, b_y = n^y_0 - n^y_1)
has optimal value lam = sqrt(8 + 2*alpha^2) over all models, certified by two
explicit operator identities expressing 2*lam*(lam - eta) as a sum of squares
and manifestly positive terms.  The identities hold in the universal algebra,
i.e. for every valid model whatsoever; a model is optimal exactly when the
state annihilates every term.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, mat_norm
from .models import QuantumModel, Scenario
from .presets import _X, _Z, _binary_povm, commuting_from_tensor

__all__ = [
    "NCPoly",
    "evaluate_all",
    "TiltedChshPolynomials",
    "tilted_chsh_build",
    "TiltedChshCertificate",
    "verify_tilted_sos",
    "optimal_tilted_model",
]

# generator indices in monomials
A0, A1, B0, B1 = 0, 1, 2, 3


class NCPoly:
    """Noncommutative polynomial in the four observables a0, a1, b0, b1.

    Stored as a monomial-to-coefficient map; monomials are tuples of
    generator indices.  No simplification is performed beyond merging equal
    monomials; commutation between the a and b letters only enters when a
    polynomial is evaluated on concrete operators.  Evaluation goes through
    ``evaluate_all``, whose prefix table forms each monomial product once
    however many terms and polynomials share it.
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

        The one-polynomial case of ``evaluate_all``.
        """
        return next(evaluate_all([self], gens))

    def __repr__(self):
        return f"NCPoly({len(self.terms)} terms)"


def evaluate_all(polys: list[NCPoly], gens: list[np.ndarray]) -> Iterator[np.ndarray]:
    """Substitute concrete matrices for the generators in several polynomials,
    yielding each polynomial's operator in turn.

    Every monomial product is formed once, in a prefix table shared by all the
    polynomials: ``table[mono] = table[mono[:-1]] @ gens[mono[-1]]``, seeded
    with ``table[()] = I``.  That is the left-to-right product ``I @ g1 @ g2
    @ ...`` of a monomial evaluated on its own, and each polynomial sums its
    terms in its own order, so every result is bitwise the one-at-a-time
    evaluation; only the repeated products are gone.  A product is dropped
    from the table at its last use, as a term or as the parent of a longer
    product, so only the products later polynomials still need stay alive.
    """
    d = gens[0].shape[0]
    uses = Counter(mono for poly in polys for mono in poly.terms)
    formed = {mono[:k] for poly in polys for mono in poly.terms for k in range(1, len(mono) + 1)}
    uses.update(mono[:-1] for mono in formed)
    table = {(): np.eye(d, dtype=complex)}

    def release(mono):
        uses[mono] -= 1
        if not uses[mono]:
            del table[mono]

    def product(mono):
        # an absent product was never formed: a formed one keeps this use
        if mono not in table:
            table[mono] = product(mono[:-1]) @ gens[mono[-1]]
            release(mono[:-1])
        return table[mono]

    def total(poly):
        out = np.zeros((d, d), dtype=complex)
        for mono, coeff in poly.terms.items():
            out += coeff * product(mono)
            release(mono)
        return out

    for poly in polys:
        yield total(poly)


@dataclass(frozen=True)
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


def _observable_generators(m) -> list[np.ndarray]:
    """[a0, a1, b0, b1] as matrices on the model's full space."""
    if isinstance(m, QuantumModel):
        m = commuting_from_tensor(m)
    return [
        m.M[0][0] - m.M[0][1],
        m.M[1][0] - m.M[1][1],
        m.N[0][0] - m.N[0][1],
        m.N[1][0] - m.N[1][1],
    ]


@dataclass
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
    """Evaluate the tilted-CHSH certificate on a concrete model.

    The two identity defects are operator norms of LHS - RHS and must vanish
    for every valid model, optimal or not.  The state residuals f(r_i^2) and
    f(s_j) are nonnegative and must all vanish exactly when f(eta) reaches
    lam, which is what ``optimal`` reports (at the given tolerance).
    """
    sc = m.scenario
    if sc != Scenario(2, 2, 2, 2):
        raise ValueError(f"tilted CHSH needs the (2,2,2,2) scenario, got {sc}")
    polys = tilted_chsh_build(alpha)
    gens = _observable_generators(m)
    psi = m.psi

    # each operator is reduced to its numbers as it arrives; only lhs is kept
    ops = evaluate_all([*polys.identity_sides(), polys.eta, *polys.r, *polys.s], gens)
    lhs = next(ops)
    defect1 = mat_norm(lhs - next(ops))
    defect2 = mat_norm(lhs - next(ops))
    del lhs

    f_eta = float(np.real(np.vdot(psi, next(ops) @ psi)))
    residuals: dict[str, float] = {}
    for i in range(1, 5):
        v = next(ops) @ psi
        residuals[f"r{i}^2"] = float(np.real(np.vdot(v, v)))
    for j in range(1, 9):
        residuals[f"s{j}"] = float(np.real(np.vdot(psi, next(ops) @ psi)))

    identities_ok = max(defect1, defect2) <= tol.cut("identity")
    optimal = abs(f_eta - polys.lam) <= tol.eps
    return TiltedChshCertificate(
        alpha=alpha,
        lam=polys.lam,
        delta=polys.delta,
        f_eta=f_eta,
        identity_defects=(defect1, defect2),
        state_residuals=residuals,
        identities_ok=identities_ok,
        optimal=optimal,
    )


def optimal_tilted_model(alpha: float) -> QuantumModel:
    """Optimal 2-qubit projective model for the tilted-CHSH functional.

    The closed form of Acin, Massar and Pironio (PRL 108, 100402 (2012)):
    state cos(t)|00> + sin(t)|11> with sin 2t = sqrt((4 - alpha^2)/(4 + alpha^2)),
    A0 = Z, A1 = X and B0, B1 = cos(mu) Z +- sin(mu) X with tan(mu) = sin 2t.
    It reaches f(eta) = sqrt(8 + 2 alpha^2).
    """
    if not 0 <= alpha < 2:
        raise ValueError(f"alpha must lie in [0, 2), got {alpha}")
    s2t = math.sqrt((4 - alpha**2) / (4 + alpha**2))
    theta = 0.5 * math.asin(s2t)
    mu = math.atan(s2t)
    b0 = math.cos(mu) * _Z + math.sin(mu) * _X
    b1 = math.cos(mu) * _Z - math.sin(mu) * _X
    return QuantumModel(
        scenario=Scenario(2, 2, 2, 2), dimA=2, dimB=2,
        M=[_binary_povm(_Z), _binary_povm(_X)], N=[_binary_povm(b0), _binary_povm(b1)],
        psi=np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)]),
    )
