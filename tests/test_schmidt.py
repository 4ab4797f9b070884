"""Schmidt decomposition."""

import numpy as np
import pytest

from bellkit.schmidt import schmidt_decompose


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
        rebuilt = (sd.left @ np.diag(sd.coefficients) @ sd.right.T).reshape(-1)
        assert np.linalg.norm(rebuilt - psi) < 1e-10
        assert abs(np.sum(sd.coefficients**2) - 1) < 1e-10
        for basis in (sd.left, sd.right):
            gram = basis.conj().T @ basis
            np.testing.assert_allclose(gram, np.eye(sd.rank), atol=1e-10)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        schmidt_decompose(np.zeros(4), 2, 2)

