"""Model validation, correlation extraction, and word moments."""

import numpy as np
import pytest

from bellkit.models import (
    CommutingModel,
    Scenario,
    QuantumModel,
    Word,
    _act,
    _apply_word_vec,
    classify,
    correlation_of,
    evaluate_moment,
    is_projective_state,
    validate_commuting_model,
    validate_quantum_model,
)
from bellkit.presets import (
    block_padded_model,
    chsh_ideal_model,
    commuting_from_tensor,
    example_pair,
    random_quantum_model,
    tensor_with_auxiliary,
)


def chsh_formula(a, b, x, y):
    """Independent oracle for the ideal CHSH behaviour."""
    return (1 + (-1) ** ((a + b + x * y) % 2) / np.sqrt(2)) / 4


class TestValidation:
    def test_ideal_chsh_is_valid(self):
        assert validate_quantum_model(chsh_ideal_model()).valid

    def test_uniform_povm_valid_not_projective(self):
        sc = Scenario(1, 1, 2, 2)
        half = np.eye(2) / 2
        proj = np.diag([1.0, 0.0])
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[half, half]], N=[[proj, np.eye(2) - proj]],
                         psi=np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert validate_quantum_model(m).valid
        assert not classify(m).projective

    def test_completeness_violation_reported(self):
        sc = Scenario(1, 1, 2, 2)
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[np.eye(2), np.eye(2)]],  # sums to 2*Id
                         N=[[np.eye(2) / 2, np.eye(2) / 2]],
                         psi=np.array([1, 0, 0, 0], dtype=complex))
        rep = validate_quantum_model(m)
        assert not rep.valid
        bad = [v for v in rep.violations if v.name == "POVM completeness"]
        assert bad and abs(bad[0].residual - 1.0) < 1e-12

    def test_commuting_model_commutation_checked(self):
        sc = Scenario(1, 1, 2, 2)
        z = np.diag([1.0, 0.0])
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        m = CommutingModel(scenario=sc, dim=2,
                           M=[[z, np.eye(2) - z]], N=[[x, np.eye(2) - x]],
                           psi=np.array([1.0, 0.0]))
        rep = validate_commuting_model(m)
        assert any(v.name == "commutation" for v in rep.violations)


class TestCorrelation:
    def test_example_model_correlation(self):
        s3, s2 = example_pair()
        for m in (s3, s2):
            p = correlation_of(m)
            assert abs(p.value(0, 0, 0, 0) - 0.5) < 1e-12
            assert abs(p.value(1, 1, 0, 0) - 0.5) < 1e-12
            assert abs(p.value(0, 1, 0, 0)) < 1e-12
            assert abs(p.value(1, 0, 0, 0)) < 1e-12

    def test_product_state_deterministic(self):
        sc = Scenario(1, 1, 2, 2)
        proj = np.diag([1.0, 0.0])
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[proj, np.eye(2) - proj]], N=[[proj, np.eye(2) - proj]],
                         psi=np.array([1.0, 0, 0, 0]))
        p = correlation_of(m)
        assert abs(p.value(0, 0, 0, 0) - 1.0) < 1e-14

    def test_ideal_chsh_against_formula(self):
        p = correlation_of(chsh_ideal_model())
        for a in range(2):
            for b in range(2):
                for x in range(2):
                    for y in range(2):
                        assert abs(p.value(a, b, x, y) - chsh_formula(a, b, x, y)) < 1e-12

    def test_correlation_invariants_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            sc = Scenario(int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                          int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            m = random_quantum_model(rng, sc, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            p = correlation_of(m).p
            assert p.min() >= 0
            sums = p.sum(axis=(0, 1))
            np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-10)

    def test_commuting_extension_agrees(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            m = random_quantum_model(rng, Scenario(2, 2, 2, 2), 2, 3)
            cm = commuting_from_tensor(m)
            np.testing.assert_allclose(correlation_of(cm).p, correlation_of(m).p,
                                       atol=1e-12)


class TestMoments:
    def test_empty_words_give_one(self):
        m = chsh_ideal_model()
        assert abs(evaluate_moment(m, Word("A"), Word("B")) - 1) < 1e-14

    def test_example_moment_half(self):
        _, s2 = example_pair()
        val = evaluate_moment(s2, Word("A", ((0, 0),)), Word("B", ((0, 0),)))
        assert abs(val - 0.5) < 1e-12

    def test_single_letters_match_correlation(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sc = Scenario(2, 2, 2, 2)
            m = random_quantum_model(rng, sc, 2, 2)
            p = correlation_of(m)
            for x in range(2):
                for y in range(2):
                    for a in range(2):
                        for b in range(2):
                            mom = evaluate_moment(m, Word("A", ((x, a),)),
                                                  Word("B", ((y, b),)))
                            assert abs(mom - p.value(a, b, x, y)) < 1e-10

    def test_reversal_conjugates(self):
        rng = np.random.default_rng(37)
        m = random_quantum_model(rng, Scenario(2, 2, 2, 2), 3, 3)
        wa = Word("A", ((0, 1), (1, 0), (0, 0)))
        wb = Word("B", ((1, 1), (0, 0)))
        forward = evaluate_moment(m, wa, wb)
        backward = evaluate_moment(m, wa.reversed(), wb.reversed())
        assert abs(forward - np.conj(backward)) < 1e-12

    def test_auxiliary_register_invisible(self):
        rng = np.random.default_rng(41)
        m = random_quantum_model(rng, Scenario(2, 2, 2, 2), 2, 2)
        aux = np.kron([0.6, 0.8], [1.0, 0.0])  # product state
        big = tensor_with_auxiliary(m, aux, 2, 2)
        np.testing.assert_allclose(correlation_of(big).p, correlation_of(m).p, atol=1e-10)
        wa = Word("A", ((0, 0), (1, 1)))
        wb = Word("B", ((1, 0),))
        assert abs(evaluate_moment(big, wa, wb) - evaluate_moment(m, wa, wb)) < 1e-10

    def test_index_out_of_range(self):
        m = chsh_ideal_model()
        with pytest.raises(IndexError):
            evaluate_moment(m, Word("A", ((5, 0),)), Word("B"))


class TestClassify:
    def test_example_models(self):
        s3, s2 = example_pair()
        f2 = classify(s2)
        assert f2.projective and f2.full_rank and f2.binary and f2.synchronous_scenario
        f3 = classify(s3)
        assert f3.projective and f3.full_rank  # rank 3 on a 3-dim space

    def test_povm_model_not_projective(self):
        sc = Scenario(1, 1, 2, 2)
        half = np.eye(2) / 2
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[half, half]], N=[[half, half]],
                         psi=np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert not classify(m).projective


class TestProjectiveState:
    def test_projective_model_yes(self):
        assert is_projective_state(chsh_ideal_model())

    def test_full_rank_povm_no(self):
        # noisy measurement on a full-rank state: the state sees the defect
        sc = Scenario(1, 1, 2, 2)
        noisy = np.diag([0.9, 0.1])
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[noisy, np.eye(2) - noisy]],
                         N=[[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]],
                         psi=np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert not is_projective_state(m)

    def test_defect_outside_support_invisible(self):
        rng = np.random.default_rng(43)
        base = chsh_ideal_model()
        padded = block_padded_model(base, rng, 2, 2)  # junk blocks are POVMs
        assert is_projective_state(padded)
        assert not classify(padded).projective


class TestTensorFactorAction:
    """``_act`` is bitwise the inline reshape/transpose it replaced."""

    @staticmethod
    def _vectors(rng, dim):
        cols = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        return [cols[:, 0].copy(), cols[:, 1]]  # contiguous and strided

    @pytest.mark.parametrize("dimA,dimB", [(3, 5), (5, 3), (2, 2)])
    def test_tensor_model(self, dimA, dimB):
        rng = np.random.default_rng(dimA * 10 + dimB)
        m = random_quantum_model(rng, Scenario(2, 2, 2, 2), dimA, dimB)
        for vec in self._vectors(rng, dimA * dimB):
            P = vec.reshape(dimA, dimB)
            for op in (m.M[0][0], m.M[1][1]):
                assert _act(m, "A", op, vec).tobytes() == (op @ P).reshape(-1).tobytes()
            for op in (m.N[0][1], m.N[1][0]):
                assert _act(m, "B", op, vec).tobytes() == (P @ op.T).reshape(-1).tobytes()
            inner = (m.M[0][0] @ P).reshape(-1)
            old = (m.M[1][0] @ inner.reshape(dimA, dimB)).reshape(-1)
            word = Word("A", ((1, 0), (0, 0)))
            assert _apply_word_vec(m, word, vec).tobytes() == old.tobytes()
            two_sided = (m.M[0][1] @ P @ m.N[1][1].T).reshape(-1)
            nested = _act(m, "B", m.N[1][1], _act(m, "A", m.M[0][1], vec))
            assert nested.tobytes() == two_sided.tobytes()

    def test_commuting_model(self):
        rng = np.random.default_rng(7)
        m = commuting_from_tensor(random_quantum_model(rng, Scenario(2, 2, 2, 2), 3, 5))
        for vec in self._vectors(rng, 15):
            for side, fam in (("A", m.M), ("B", m.N)):
                op = fam[1][0]
                assert _act(m, side, op, vec).tobytes() == (op @ vec).tobytes()
