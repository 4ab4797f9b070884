"""Numerics substrate: tensor products, traces, eigen, orthonormalization."""

import numpy as np
import pytest

from bellkit.linalg import (
    Tolerance,
    hermitian_eig,
    kron,
    orthonormalize,
    partial_trace,
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


class TestKron:
    def test_identity(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_permutation_action(self):
        swap = np.array([[0, 1], [1, 0]])
        e0 = np.zeros(4)
        e0[0] = 1
        np.testing.assert_allclose((kron(swap, np.eye(2)) @ e0).real,
                                   [0, 0, 1, 0], atol=1e-15)

    def test_diagonal_expansion(self):
        # direct expansion by definition: entries a_ii * b_jj in row order
        got = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        np.testing.assert_allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_associative_bilinear(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dims = rng.integers(2, 5, size=3)
            a, b, c = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in dims)
            np.testing.assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)
            s, t = rng.normal(size=2)
            np.testing.assert_allclose(kron(s * a + t * a.T, b),
                                       s * kron(a, b) + t * kron(a.T, b), atol=1e-12)


class TestPartialTrace:
    def test_maximally_entangled(self):
        psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(partial_trace(rho, 2, 2, "A"), np.eye(2) / 2, atol=1e-15)

    def test_product_state(self):
        psi = np.kron([1, 0], [0, 1]).astype(complex)
        rho = np.outer(psi, psi.conj())
        np.testing.assert_allclose(partial_trace(rho, 2, 2, "A"),
                                   np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(partial_trace(rho, 2, 2, "B"),
                                   np.diag([0.0, 1.0]), atol=1e-15)

    def test_rank3_state_reduction(self):
        # |00>/sqrt2 + (|11>+|22>)/2  ->  rho_A = diag(1/2, 1/4, 1/4)
        psi = np.zeros(9)
        psi[0] = 1 / np.sqrt(2)
        psi[4] = psi[8] = 1 / 2
        rho = np.outer(psi, psi)
        np.testing.assert_allclose(partial_trace(rho, 3, 3, "A"),
                                   np.diag([0.5, 0.25, 0.25]), atol=1e-15)

    def test_trace_preserved_and_product_factorization(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = rng.normal(size=3) + 1j * rng.normal(size=3)
            u /= np.linalg.norm(u)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            rho = np.outer(np.kron(u, v), np.kron(u, v).conj())
            np.testing.assert_allclose(partial_trace(rho, 3, 2, "A"),
                                       np.outer(u, u.conj()), atol=1e-14)
            assert abs(np.trace(partial_trace(rho, 3, 2, "B")) - 1) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), 2, 2, "A")


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


class TestOrthonormalize:
    def test_duplicate_removal(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        basis = orthonormalize([e0, e0, e1])
        assert len(basis) == 2

    def test_hadamard_pair(self):
        basis = orthonormalize([np.array([1.0, 1.0]), np.array([1.0, -1.0])])
        assert len(basis) == 2
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_rank_matches_svd_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 9))
            vs = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(k)]
            if rng.random() < 0.5 and k >= 2:  # plant a dependency
                vs[-1] = vs[0] * rng.normal() + vs[k // 2] * rng.normal()
            rank = np.linalg.matrix_rank(np.column_stack(vs), tol=1e-8)
            assert len(orthonormalize(vs)) == rank


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
    assert tol.close(1.0, 1.0 + 5e-10)
    assert not tol.close(1.0, 1.0 + 5e-8)
    with pytest.raises(ValueError):
        Tolerance(-1.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_tolerance_rejects_non_finite(eps):
    with pytest.raises(ValueError, match="finite"):
        Tolerance(eps)
