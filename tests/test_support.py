"""Support projections, support models, and the two centrally-supported criteria."""

import numpy as np
import pytest

from bellkit.linalg import DEFAULT_TOL, mat_norm
from bellkit.models import Scenario, Word, correlation_of, evaluate_moment, validate_quantum_model
from bellkit.presets import (
    block_padded_model,
    chsh_ideal_model,
    random_quantum_model,
    support_mixing_model,
)
from bellkit.support import is_centrally_supported_via_transfer, support_of


def test_full_rank_model_trivial_support():
    m = chsh_ideal_model()
    data = support_of(m)
    np.testing.assert_allclose(data.PiA, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(data.PiB, np.eye(2), atol=1e-12)
    assert data.centrally_supported
    assert data.supportModel.dimA == 2
    ok, residuals = is_centrally_supported_via_transfer(m)
    assert ok and max(residuals.values()) < 1e-10


def test_block_model_centrally_supported():
    rng = np.random.default_rng(2)
    base = chsh_ideal_model()
    padded = block_padded_model(base, rng, 2, 1)
    assert validate_quantum_model(padded).valid
    data = support_of(padded)
    assert data.centrally_supported
    assert data.supportModel.dimA == 2  # back to the original size
    np.testing.assert_allclose(correlation_of(data.supportModel).p,
                               correlation_of(base).p, atol=1e-10)


def test_mixing_model_not_centrally_supported():
    rng = np.random.default_rng(4)
    m = support_mixing_model(rng, 4, 2, Scenario(2, 2, 2, 2))
    data = support_of(m)
    assert not data.centrally_supported
    # the named residual points at the mixing measurement
    assert data.commutator_residuals["[PiA,M[0][0]]"] > 1e-3
    ok, residuals = is_centrally_supported_via_transfer(m)
    assert not ok
    assert residuals["transfer M[0][0]"] > 1e-6


def test_support_projection_equals_reduced_density_image():
    rng = np.random.default_rng(8)
    from bellkit.linalg import partial_trace, hermitian_eig

    for _ in range(10):
        m = random_quantum_model(rng, Scenario(2, 2, 2, 2), 3, 4)
        data = support_of(m)
        rho_a = partial_trace(np.outer(m.psi, m.psi.conj()), 3, 4, "A")
        vals, vecs = hermitian_eig(rho_a)
        cols = vecs[:, vals > 1e-9]
        pi_from_rho = cols @ cols.conj().T
        assert mat_norm(pi_from_rho - data.PiA) < 1e-10


def test_criteria_agree_on_mixed_corpus():
    rng = np.random.default_rng(12)
    sc = Scenario(2, 2, 2, 2)
    for k in range(30):
        kind = k % 3
        if kind == 0:
            m = random_quantum_model(rng, sc, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        elif kind == 1:
            m = block_padded_model(
                random_quantum_model(rng, sc, 2, 2), rng,
                int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        else:
            m = support_mixing_model(rng, int(rng.integers(3, 6)), 2, sc)
        commutator = support_of(m).centrally_supported
        transfer, _ = is_centrally_supported_via_transfer(m)
        assert commutator == transfer, f"criteria disagree on fixture {k}"


def test_support_model_preserves_state_when_central():
    """Moments up to combined length 4 agree between model and support model."""
    rng = np.random.default_rng(21)
    base = random_quantum_model(rng, Scenario(1, 1, 2, 2), 2, 2)
    padded = block_padded_model(base, rng, 2, 2)
    data = support_of(padded)
    assert data.centrally_supported
    letters = [(x, a) for x in range(1) for a in range(2)]

    def words(max_len):
        out = [()]
        level = [()]
        for _ in range(max_len):
            level = [w + (l,) for w in level for l in letters]
            out.extend(level)
        return out

    for wa in words(2):
        for wb in words(2):
            v1 = evaluate_moment(padded, Word("A", wa), Word("B", wb))
            v2 = evaluate_moment(data.supportModel, Word("A", wa), Word("B", wb))
            assert abs(v1 - v2) < 1e-9


def _kronecker_transfer_residual(op, psi_mat, side):
    """Reference: the least-squares transfer solved over vec(X) with a
    d^2-column design matrix, one column per entry of the unknown X."""
    if side == "A":
        target = (op @ psi_mat).reshape(-1)
        dB = psi_mat.shape[1]
        design = np.zeros((psi_mat.size, dB * dB), dtype=complex)
        for j in range(dB):
            for k in range(dB):
                design[j::dB, j * dB + k] = psi_mat[:, k]
    else:
        target = (psi_mat @ op.T).reshape(-1)
        dA, dB = psi_mat.shape
        design = np.zeros((psi_mat.size, dA * dA), dtype=complex)
        for i in range(dA):
            for k in range(dA):
                design[i * dB:(i + 1) * dB, i * dA + k] = psi_mat[k, :]
    sol, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    return float(np.linalg.norm(design @ sol - target))


def _transfer_fixtures():
    """(label, model, centrally supported); random POVMs on the larger factor
    of a non-square generic state do not commute with its support."""
    rng = np.random.default_rng(31)
    sc = Scenario(2, 2, 2, 2)
    yield "random 3x5", random_quantum_model(rng, sc, 3, 5), False
    yield "random 5x3", random_quantum_model(rng, sc, 5, 3), False
    yield "padded 3x5", block_padded_model(random_quantum_model(rng, sc, 2, 2), rng, 1, 3), True
    yield "padded 5x3", block_padded_model(random_quantum_model(rng, sc, 2, 2), rng, 3, 1), True
    yield "mixing 4x4", support_mixing_model(rng, 4, 2, sc), False
    yield "mixing 3x5", block_padded_model(support_mixing_model(rng, 3, 1, sc), rng, 0, 2), False
    yield "mixing 5x3", block_padded_model(support_mixing_model(rng, 3, 2, sc), rng, 2, 0), False


@pytest.mark.parametrize("label,m,central", list(_transfer_fixtures()))
def test_transfer_solve_matches_kronecker_reference(label, m, central):
    """The direct solve lstsq(P, op P) (P^T for B) reproduces the design-matrix
    residuals on both sides, for dimA != dimB and rank-deficient states."""
    psi_mat = m.psi.reshape(m.dimA, m.dimB)
    ok, residuals = is_centrally_supported_via_transfer(m)
    reference = {}
    for side, name, fam in (("A", "M", m.M), ("B", "N", m.N)):
        for x, povm in enumerate(fam):
            for a, op in enumerate(povm):
                reference[f"transfer {name}[{x}][{a}]"] = _kronecker_transfer_residual(
                    op, psi_mat, side)
    assert residuals.keys() == reference.keys()
    for key, ref in reference.items():
        assert abs(residuals[key] - ref) < 1e-12, (label, key, residuals[key], ref)
    assert ok == (max(reference.values()) <= DEFAULT_TOL.eps)
    assert ok == support_of(m).centrally_supported
    assert ok == central
