"""The operator-residual rule at each site that applies it, and the
twice-projected residual.

Each site passes its residual C when ``||C||_2 <= eps * (1 + s)``, for its own
scale s.  Inputs put ``||C||_2`` a relative 1e-3 above and below that bound,
where ``||C||_F > eps``, so the Frobenius screen cannot decide them; an exact
input is decided by the screen.  Above, the residual reported is ``||C||_2``.
"""

import numpy as np
import pytest

from bellkit import models
from bellkit.linalg import (
    DEFAULT_TOL,
    Tolerance,
    hermitian_eig,
    mat_norm,
    _project_off,
    structural_predicates,
)
from bellkit.models import CommutingModel, Scenario

DELTA = 1e-6  # the size of each site's residual, 0 for the exact input
SIDES = {"above": (DELTA, 1 + 1e-3), "below": (DELTA, 1 - 1e-3), "exact": (0.0, None)}


def tolerance(c, s, side) -> Tolerance:
    """The eps that puts ``||c||_2`` at the side's multiple of ``eps (1 + s)``."""
    ratio = SIDES[side][1]
    if ratio is None:
        return DEFAULT_TOL
    tol = Tolerance(mat_norm(c) / (ratio * (1 + s)))
    assert np.linalg.norm(c) > tol.eps
    return tol


def upper(delta) -> np.ndarray:
    """0.5 I plus ``delta`` above the diagonal: its skew part has norm ``delta``."""
    return np.array([[0.5, delta], [0.0, 0.5]])


@pytest.mark.parametrize("side", SIDES)
def test_hermiticity(side):
    op = upper(SIDES[side][0])
    family = [[op, np.eye(2) - op]]  # sums to the identity exactly
    tol = tolerance(op - op.conj().T, mat_norm(op), side)
    violations = list(models._povm_violations(family, "M", 1, 2, 2, tol))
    expected = [("hermiticity", f"M[0][{a}]", mat_norm(m - m.conj().T))
                for a, m in enumerate(family[0]) if side == "above"]
    assert [(v.name, v.location, v.residual) for v in violations] == expected


@pytest.mark.parametrize("side", SIDES)
def test_completeness(side):
    family = [[np.diag([1.0 + SIDES[side][0], 0.0]), np.diag([0.0, 1.0])]]
    total = family[0][0] + family[0][1]
    defect = total - np.eye(2)
    violations = list(models._povm_violations(family, "M", 1, 2, 2,
                                              tolerance(defect, mat_norm(total), side)))
    expected = [("POVM completeness", "M[0]", mat_norm(defect))] if side == "above" else []
    assert [(v.name, v.location, v.residual) for v in violations] == expected


@pytest.mark.parametrize("side", SIDES)
def test_commutation(side):
    """[P, Q] for P = |0><0| and Q the projector on a vector turned by theta
    has norm cos(theta) sin(theta); each of the four commutators is +-[P, Q]."""
    theta = np.arcsin(SIDES[side][0])
    v = np.array([np.cos(theta), np.sin(theta)])
    p, q = np.diag([1.0, 0.0]), np.outer(v, v)
    m = CommutingModel(scenario=Scenario(1, 1, 2, 2), dim=2, M=[[p, np.eye(2) - p]],
                       N=[[q, np.eye(2) - q]], psi=np.array([1.0, 0.0]))
    tol = tolerance(p @ q - q @ p, mat_norm(p) * mat_norm(q), side)
    violations = list(models._commutation_violations(m, tol))
    expected = [(f"[M[0][{a}], N[0][{b}]]", mat_norm(ma @ nb - nb @ ma))
                for a, ma in enumerate(m.M[0]) for b, nb in enumerate(m.N[0])
                if mat_norm(ma @ nb - nb @ ma) > tol.eps * (1 + mat_norm(ma) * mat_norm(nb))]
    assert [(v.location, v.residual) for v in violations] == expected
    assert len(expected) == (4 if side == "above" else 0)


@pytest.mark.parametrize("side", SIDES)
def test_hermitian_eig(side):
    h = upper(SIDES[side][0])
    tol = tolerance(h - h.conj().T, mat_norm(h), side)
    if side == "above":
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(h, tol)
    else:
        hermitian_eig(h, tol)


@pytest.mark.parametrize("side", SIDES)
def test_structural_hermitian_flag(side):
    h = upper(SIDES[side][0])
    tol = tolerance(h - h.conj().T, mat_norm(h), side)
    assert structural_predicates(h, tol).hermitian is (side != "above")


def test_project_off_is_the_twice_written_loop():
    """The same bits as the loops it replaced, for a vector and for columns."""
    rng = np.random.default_rng(5)
    for d, r, k in ((6, 0, 1), (6, 3, 1), (12, 5, 4), (40, 17, 9)):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        q = q[:, :r]
        x = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
        for target in (x[:, 0], x):
            want = target.copy()
            for _ in range(2):
                want -= q @ (q.conj().T @ want)
            got = _project_off(q, target)
            assert np.array_equal(got, want)
            assert got is not target
