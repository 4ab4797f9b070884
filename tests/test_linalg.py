"""Numerics substrate: tolerance, Hermitian eigensystems, structural flags, PSD root."""

import numpy as np
import pytest

from bellkit.linalg import (
    Tolerance,
    hermitian_eig,
    psd_sqrt,
    structural_predicates,
)


def rand_herm(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (x + x.conj().T) / 2


def rand_unitary(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(x)
    return q


class TestHermitianEig:
    def test_diag(self):
        vals, _ = hermitian_eig(np.diag([0.0, 1.0]))
        np.testing.assert_allclose(vals, [1.0, 0.0])

    def test_pauli_x(self):
        vals, vecs = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(vals, [1.0, -1.0])
        np.testing.assert_allclose(np.abs(vecs), np.ones((2, 2)) / np.sqrt(2), atol=1e-12)
        # phase convention: first entries real positive
        assert vecs[0, 0].real > 0 and vecs[0, 1].real > 0

    def test_reconstruction_100_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            h = rand_herm(rng, 8)
            vals, vecs = hermitian_eig(h)
            recon = vecs @ np.diag(vals) @ vecs.conj().T
            assert np.linalg.norm(h - recon, 2) < 1e-12
            assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(8), 2) < 1e-10
            assert abs(vals.sum() - np.trace(h).real) < 1e-10
            assert all(vals[i] >= vals[i + 1] for i in range(7))

    def test_degenerate_deterministic(self):
        h = np.diag([1.0, 1.0, 0.0])
        vals1, vecs1 = hermitian_eig(h)
        vals2, vecs2 = hermitian_eig(h.copy())
        np.testing.assert_array_equal(vecs1, vecs2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestStructuralPredicates:
    def test_identity(self):
        f = structural_predicates(np.eye(3))
        assert f.hermitian and f.positive and f.projection and f.isometry and f.unitary

    def test_half_identity(self):
        f = structural_predicates(np.eye(2) / 2)
        assert f.hermitian and f.positive
        assert not f.projection

    def test_commuting_projections_iff_product_projection(self):
        # PQ = QP  iff  PQP is a projection
        rng = np.random.default_rng(9)
        for trial in range(40):
            d = int(rng.integers(2, 7))
            u = rand_unitary(rng, d)
            k1, k2 = rng.integers(1, d, size=2)
            p = u[:, :k1] @ u[:, :k1].conj().T
            if trial % 2 == 0:
                q = u[:, d - k2:] @ u[:, d - k2:].conj().T  # shares eigenbasis: commutes
            else:
                w = rand_unitary(rng, d)
                q = w[:, :k2] @ w[:, :k2].conj().T
            commute = np.linalg.norm(p @ q - q @ p, 2) < 1e-9
            pqp_proj = structural_predicates(p @ q @ p).projection
            assert commute == pqp_proj, f"trial {trial}: commute={commute} flag={pqp_proj}"

    def test_nonsquare_isometry(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        f = structural_predicates(v)
        assert f.isometry and not f.unitary and not f.hermitian


def test_psd_sqrt():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = x @ x.conj().T
    r = psd_sqrt(m)
    np.testing.assert_allclose(r @ r, m, atol=1e-10)


def test_tolerance_contract():
    tol = Tolerance(1e-9)
    assert tol.is_zero(5e-10)
    assert not tol.is_zero(5e-8)
    with pytest.raises(ValueError):
        Tolerance(-1.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_tolerance_rejects_non_finite(eps):
    with pytest.raises(ValueError, match="finite"):
        Tolerance(eps)
