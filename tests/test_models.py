"""Model validation, correlation extraction, and word moments."""

import math
from itertools import product

import numpy as np
import pytest

from bellkit import linalg, models
from bellkit.linalg import DEFAULT_TOL, Tolerance, mat_norm
from bellkit.models import (
    CommutingModel,
    Scenario,
    QuantumModel,
    Word,
    _act,
    _word_vector,
    classify,
    correlation_of,
    evaluate_moment,
    is_projective_state,
    validate_model,
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
        assert validate_model(chsh_ideal_model()).valid

    def test_uniform_povm_valid_not_projective(self):
        sc = Scenario(1, 1, 2, 2)
        half = np.eye(2) / 2
        proj = np.diag([1.0, 0.0])
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[half, half]], N=[[proj, np.eye(2) - proj]],
                         psi=np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert validate_model(m).valid
        assert not classify(m).projective

    def test_completeness_violation_reported(self):
        sc = Scenario(1, 1, 2, 2)
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[np.eye(2), np.eye(2)]],  # sums to 2*Id
                         N=[[np.eye(2) / 2, np.eye(2) / 2]],
                         psi=np.array([1, 0, 0, 0], dtype=complex))
        rep = validate_model(m)
        assert not rep.valid
        bad = [v for v in rep.violations if v.name == "POVM completeness"]
        assert bad and abs(bad[0].residual - 1.0) < 1e-12

    def test_misshapen_operator_skips_only_its_povm(self):
        m = chsh_ideal_model()
        M = [[m.M[0][0], m.M[0][1][:, :1]], [5 * np.eye(2), m.M[1][1]]]
        N = [[m.N[0][0][:1], m.N[0][1]], m.N[1]]
        rep = validate_model(QuantumModel(
            scenario=m.scenario, dimA=2, dimB=2, M=M, N=N, psi=m.psi))
        assert [(v.name, v.location) for v in rep.violations] == [
            ("operator shape", "M[0][1]"), ("POVM completeness", "M[1]"),
            ("operator shape", "N[0][0]")]
        assert [v.residual for v in rep.violations][::2] == [1.0, 1.0]

    def test_misshapen_commuting_operator_reported_not_raised(self):
        c = commuting_from_tensor(chsh_ideal_model())
        M = [[c.M[0][0], c.M[0][1][:, :3]], c.M[1]]
        rep = validate_model(CommutingModel(
            scenario=c.scenario, dim=4, M=M, N=c.N, psi=c.psi))
        assert [(v.name, v.location, v.residual) for v in rep.violations] == [
            ("operator shape", "M[0][1]", 1.0)]

    def test_commuting_model_commutation_checked(self):
        sc = Scenario(1, 1, 2, 2)
        z = np.diag([1.0, 0.0])
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        m = CommutingModel(scenario=sc, dim=2,
                           M=[[z, np.eye(2) - z]], N=[[x, np.eye(2) - x]],
                           psi=np.array([1.0, 0.0]))
        rep = validate_model(m)
        assert any(v.name == "commutation" for v in rep.violations)

    @staticmethod
    def turned_pair(theta):
        """Projections P and U Q U^H on C^4 with U = exp(i theta K): every
        [M^0_a, N^0_b] is +-[P, UQU^H], with four equal singular values, so
        its Frobenius norm is twice its spectral norm."""
        p, q = np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([1.0, 0.0, 0.0, 1.0])
        k = np.zeros((4, 4))
        k[0, 2] = k[2, 0] = k[1, 3] = k[3, 1] = 1.0
        vals, vecs = np.linalg.eigh(k)
        u = vecs @ np.diag(np.exp(1j * theta * vals)) @ vecs.conj().T
        q = u @ q @ u.conj().T
        m = CommutingModel(scenario=Scenario(1, 1, 2, 2), dim=4,
                           M=[[p, np.eye(4) - p]], N=[[q, np.eye(4) - q]],
                           psi=np.array([1.0, 0.0, 0.0, 0.0]))
        return m, mat_norm(p @ q - q @ p), float(np.linalg.norm(p @ q - q @ p))

    def test_commutator_past_the_frobenius_screen_within_the_bound_passes(self):
        """eps < ||C||_F, but ||C||_2 = 1.5 eps <= eps (1 + ||M|| ||N||) = 2 eps."""
        m, spectral, frobenius = self.turned_pair(1e-6)
        tol = Tolerance(spectral / 1.5)
        assert frobenius > tol.eps
        assert validate_model(m, tol).valid

    def test_violation_reports_the_spectral_norm(self):
        """At ||C||_2 = 3 eps every commutator fails, with ||C||_2 as residual."""
        m, spectral, _ = self.turned_pair(1e-6)
        rep = validate_model(m, Tolerance(spectral / 3))
        assert [(v.name, v.location) for v in rep.violations] == [
            ("commutation", f"[M[0][{a}], N[0][{b}]]") for a in range(2) for b in range(2)]
        for v, (a, b) in zip(rep.violations, product(range(2), repeat=2)):
            ma, nb = m.M[0][a], m.N[0][b]
            assert v.residual == mat_norm(ma @ nb - nb @ ma)

    def test_commuting_operators_take_no_spectral_norm(self, monkeypatch):
        calls = []

        def counted(op):
            calls.append(op.shape)
            return mat_norm(op)

        monkeypatch.setattr(models, "mat_norm", counted)
        monkeypatch.setattr(linalg, "mat_norm", counted)
        m = commuting_from_tensor(tensor_with_auxiliary(
            chsh_ideal_model(), np.array([0.6, 0.0, 0.0, 0.8]), 2, 2))
        assert list(models._commutation_violations(m, DEFAULT_TOL)) == [] and calls == []


class TestCorrelation:
    def test_example_model_correlation(self):
        s3, s2 = example_pair()
        for m in (s3, s2):
            p = correlation_of(m)
            assert abs(p.p[0, 0, 0, 0] - 0.5) < 1e-12
            assert abs(p.p[1, 1, 0, 0] - 0.5) < 1e-12
            assert abs(p.p[0, 1, 0, 0]) < 1e-12
            assert abs(p.p[1, 0, 0, 0]) < 1e-12

    def test_product_state_deterministic(self):
        sc = Scenario(1, 1, 2, 2)
        proj = np.diag([1.0, 0.0])
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[proj, np.eye(2) - proj]], N=[[proj, np.eye(2) - proj]],
                         psi=np.array([1.0, 0, 0, 0]))
        p = correlation_of(m)
        assert abs(p.p[0, 0, 0, 0] - 1.0) < 1e-14

    def test_ideal_chsh_against_formula(self):
        p = correlation_of(chsh_ideal_model())
        for a in range(2):
            for b in range(2):
                for x in range(2):
                    for y in range(2):
                        assert abs(p.p[a, b, x, y] - chsh_formula(a, b, x, y)) < 1e-12

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

    def test_clamp_note_is_never_negative_zero(self):
        """A table with no negative entry notes a clamp of +0.0, not -0.0."""
        for m in (chsh_ideal_model(), *example_pair()):
            clamped = correlation_of(m).notes["max_negative_clamped"]
            assert clamped == 0.0 and math.copysign(1.0, clamped) == 1.0

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
        assert abs(evaluate_moment(m, Word()) - 1) < 1e-14

    def test_example_moment_half(self):
        _, s2 = example_pair()
        val = evaluate_moment(s2, Word(((0, 0),), ((0, 0),)))
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
                            mom = evaluate_moment(m, Word(((x, a),), ((y, b),)))
                            assert abs(mom - p.p[a, b, x, y]) < 1e-10

    def test_reversal_conjugates(self):
        rng = np.random.default_rng(37)
        m = random_quantum_model(rng, Scenario(2, 2, 2, 2), 3, 3)
        w = Word(((0, 1), (1, 0), (0, 0)), ((1, 1), (0, 0)))
        forward = evaluate_moment(m, w)
        backward = evaluate_moment(m, w.adjoint_times(Word()))
        assert abs(forward - np.conj(backward)) < 1e-12

    def test_auxiliary_register_invisible(self):
        rng = np.random.default_rng(41)
        m = random_quantum_model(rng, Scenario(2, 2, 2, 2), 2, 2)
        aux = np.kron([0.6, 0.8], [1.0, 0.0])  # product state
        big = tensor_with_auxiliary(m, aux, 2, 2)
        np.testing.assert_allclose(correlation_of(big).p, correlation_of(m).p, atol=1e-10)
        w = Word(((0, 0), (1, 1)), ((1, 0),))
        assert abs(evaluate_moment(big, w) - evaluate_moment(m, w)) < 1e-10

    def test_index_out_of_range(self):
        m = chsh_ideal_model()
        with pytest.raises(IndexError):
            evaluate_moment(m, Word(((5, 0),)))


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
            nested_a = _act(m, "A", m.M[1][0], _act(m, "A", m.M[0][0], vec))
            assert nested_a.tobytes() == old.tobytes()
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


def reference_word_vector(model, lettersA, lettersB):
    """The letter loop that the word vector table replaced: B's letters act on
    psi, rightmost first, then A's."""
    v = model.psi
    for side, letters in (("B", lettersB), ("A", lettersA)):
        family = model.M if side == "A" else model.N
        for x, a in reversed(letters):
            v = _act(model, side, family[x][a], v)
    return v


def words_up_to(letters, n):
    return [w for k in range(n + 1) for w in product(letters, repeat=k)]


class TestWordVectorTable:
    """Every vector and moment read through the word vector table is bitwise
    the letter loop's, whatever order the table is filled in."""

    SC = Scenario(2, 3, 2, 2)

    def models(self):
        rng = np.random.default_rng(77)
        wide = random_quantum_model(rng, self.SC, 3, 5)
        tall = random_quantum_model(rng, self.SC, 5, 3)
        return [wide, tall, commuting_from_tensor(wide)]

    def mixed_words(self, n):
        sc = self.SC
        words_a = words_up_to([(x, a) for x in range(sc.nX) for a in range(sc.nA)], n)
        words_b = words_up_to([(y, b) for y in range(sc.nY) for b in range(sc.nB)], n)
        return [(wa, wb) for wa in words_a for wb in words_b if len(wa) + len(wb) <= n]

    def test_word_vectors_and_moments(self):
        words = self.mixed_words(4)
        order = np.random.default_rng(5).permutation(len(words))
        for m in self.models():
            table = {}
            for k in order:
                wa, wb = words[k]
                ref = reference_word_vector(m, wa, wb)
                assert _word_vector(m, wa, wb, table).tobytes() == ref.tobytes()
                moment = evaluate_moment(m, Word(wa, wb))
                assert np.complex128(moment).tobytes() == np.vdot(m.psi, ref).tobytes()
            assert len(table) == len(words)

    def test_correlation_of(self):
        sc = self.SC
        for m in self.models():
            p = np.zeros((sc.nA, sc.nB, sc.nX, sc.nY))
            for x, y, a, b in np.ndindex(sc.nX, sc.nY, sc.nA, sc.nB):
                ref = reference_word_vector(m, ((x, a),), ((y, b),))
                p[a, b, x, y] = np.vdot(m.psi, ref).real
            p = np.clip(p, 0.0, None)
            for x, y in np.ndindex(sc.nX, sc.nY):
                p[:, :, x, y] /= p[:, :, x, y].sum()
            assert correlation_of(m).p.tobytes() == p.tobytes()


def reference_correlation_of(model, tol=DEFAULT_TOL):
    """The index loops ``correlation_of`` ran before it built one array of
    moments: the table and the ``max_imag`` note."""
    sc = model.scenario
    p = np.zeros((sc.nA, sc.nB, sc.nX, sc.nY))
    max_imag = 0.0
    for x in range(sc.nX):
        for y in range(sc.nY):
            for a in range(sc.nA):
                for b in range(sc.nB):
                    val = evaluate_moment(model, Word(((x, a),), ((y, b),)))
                    max_imag = max(max_imag, abs(val.imag))
                    p[a, b, x, y] = val.real
    p = np.clip(p, 0.0, None)
    for x in range(sc.nX):
        for y in range(sc.nY):
            p[:, :, x, y] /= p[:, :, x, y].sum()
    return p, max_imag


@pytest.mark.parametrize("scenario", [Scenario(2, 2, 2, 2), Scenario(2, 3, 3, 2),
                                      Scenario(3, 1, 2, 4)])
def test_correlation_of_is_bitwise_the_index_loop(scenario):
    """Table and imaginary-part note equal the loop's bit for bit, on tensor
    models and their commuting embeddings, binary or not."""
    rng = np.random.default_rng(31)
    for dimA, dimB in ((2, 3), (4, 2)):
        m = random_quantum_model(rng, scenario, dimA, dimB)
        for model in (m, commuting_from_tensor(m)):
            ref_p, ref_imag = reference_correlation_of(model)
            corr = correlation_of(model)
            assert corr.p.tobytes() == ref_p.tobytes()
            assert corr.notes["max_imag_discarded"] == ref_imag
            assert type(corr.notes["max_imag_discarded"]) is float
