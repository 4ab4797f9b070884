"""Schmidt decomposition and the full-rank operator-transfer map."""

import numpy as np
import pytest

from bellkit.schmidt import schmidt_decompose, transfer_operator


def test_maximally_entangled_pair():
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    sd = schmidt_decompose(psi, 2, 2)
    assert sd.rank == 2
    np.testing.assert_allclose(sd.coefficients, [1 / np.sqrt(2)] * 2)


def test_product_state_rank_one():
    psi = np.kron([1.0, 0.0], [0.0, 1.0])
    sd = schmidt_decompose(psi, 2, 2)
    assert sd.rank == 1
    np.testing.assert_allclose(sd.coefficients, [1.0])


def test_rank3_state():
    psi = np.zeros(9)
    psi[0] = 1 / np.sqrt(2)
    psi[4] = psi[8] = 0.5
    sd = schmidt_decompose(psi, 3, 3)
    assert sd.rank == 3
    np.testing.assert_allclose(sd.coefficients, [1 / np.sqrt(2), 0.5, 0.5])


@pytest.mark.parametrize("psi, dims, full", [
    (np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2), True),
    (np.kron([1.0, 0.0], [0.0, 1.0]), (2, 2), False),
    (np.array([1, 0, 0, 0, 1, 0]) / np.sqrt(2), (2, 3), False),  # rank 2 = dimA < dimB
])
def test_full_rank_means_rank_equals_both_dimensions(psi, dims, full):
    assert schmidt_decompose(psi, *dims).full_rank is full


def test_reconstruction_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(30):
        dA, dB = rng.integers(2, 6, size=2)
        psi = rng.normal(size=dA * dB) + 1j * rng.normal(size=dA * dB)
        psi /= np.linalg.norm(psi)
        sd = schmidt_decompose(psi, int(dA), int(dB))
        assert np.linalg.norm(sd.reconstruct() - psi) < 1e-10
        assert abs(np.sum(sd.coefficients**2) - 1) < 1e-10
        for basis in (sd.left, sd.right):
            gram = basis.conj().T @ basis
            np.testing.assert_allclose(gram, np.eye(sd.rank), atol=1e-10)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        schmidt_decompose(np.zeros(4), 2, 2)


class TestTransferOperator:
    def test_maximally_entangled_gives_transpose(self):
        psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
        sd = schmidt_decompose(psi, 2, 2)
        e = np.array([[1.0, 2.0], [3.0, 4.0]])
        ehat = transfer_operator(e, sd)
        # lam is proportional to Id, so Ehat is E^T in the Schmidt basis;
        # verify through the defining residual rather than basis bookkeeping
        resid = np.linalg.norm(np.kron(e, np.eye(2)) @ psi - np.kron(np.eye(2), ehat) @ psi)
        assert resid < 1e-12
        np.testing.assert_allclose(ehat, e.T, atol=1e-12)

    def test_hand_evaluated_example(self):
        # lam = diag(sqrt(2/3), sqrt(1/3)), E = e0 e1^T:
        # (lam E^T lam^{-1})[1,0] = lam_2/lam_1 = 1/sqrt(2), all else 0
        lam = np.array([np.sqrt(2 / 3), np.sqrt(1 / 3)])
        psi = np.zeros(4)
        psi[0], psi[3] = lam
        sd = schmidt_decompose(psi, 2, 2)
        e = np.array([[0.0, 1.0], [0.0, 0.0]])
        ehat = transfer_operator(e, sd)
        expected = np.array([[0.0, 0.0], [1 / np.sqrt(2), 0.0]])
        np.testing.assert_allclose(ehat, expected, atol=1e-12)
        resid = np.linalg.norm(np.kron(e, np.eye(2)) @ psi - np.kron(np.eye(2), ehat) @ psi)
        assert resid < 1e-12

    def test_residual_property_50_random(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            # full-rank state with coefficients bounded away from zero
            coeffs = rng.uniform(0.4, 1.0, size=d)
            coeffs /= np.linalg.norm(coeffs)
            ua, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            ub, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            psi = (ua @ np.diag(coeffs) @ ub.T).reshape(-1)
            sd = schmidt_decompose(psi, d, d)
            e = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            ehat = transfer_operator(e, sd)
            resid = np.linalg.norm(np.kron(e, np.eye(d)) @ psi
                                   - np.kron(np.eye(d), ehat) @ psi)
            assert resid < 1e-9

    def test_rank_deficient_rejected(self):
        psi = np.kron([1.0, 0.0], [1.0, 0.0])
        sd = schmidt_decompose(psi, 2, 2)
        with pytest.raises(ValueError):
            transfer_operator(np.eye(2), sd)
