"""Synchronous verification, binary rounding, XOR certificates."""

from types import SimpleNamespace

import numpy as np
import pytest

from bellkit import special
from bellkit.linalg import Tolerance, mat_norm
from bellkit.models import (
    Correlation,
    Scenario,
    QuantumModel,
    _act,
    classify,
    correlation_of,
    validate_model,
)
from bellkit.presets import (
    block_padded_model,
    chsh_ideal_model,
    example_pair,
    random_quantum_model,
    synchronous_model,
)
from bellkit.special import (
    LemmaViolated,
    binary_round,
    refute_extremality,
    synchronous_verify,
    xor_of,
    xor_selftest_certificate,
)
from bellkit.support import is_centrally_supported_via_transfer, support_of


class TestSynchronous:
    def test_standard_construction_passes(self):
        rng = np.random.default_rng(1)
        m = synchronous_model(rng, 3, 2, 3)
        rep = synchronous_verify(m)
        assert rep.passed
        assert max(rep.swap_residuals.values()) < 1e-10
        assert rep.full_rank
        assert max(rep.projectivity_residuals.values()) < 1e-10

    def test_example_model_synchronous(self):
        s3, _ = example_pair()
        rep = synchronous_verify(s3)
        assert rep.passed and rep.projective_state

    def test_non_synchronous_rejected(self):
        m = chsh_ideal_model()  # optimal CHSH is not synchronous
        with pytest.raises(ValueError):
            synchronous_verify(m)

    def test_padded_synchronous_centrally_supported_not_full_rank(self):
        rng = np.random.default_rng(3)
        base = synchronous_model(rng, 2, 2, 2)
        padded = block_padded_model(base, rng, 2, 2)
        rep = synchronous_verify(padded)
        assert rep.passed
        assert not rep.full_rank and rep.projectivity_residuals is None
        assert support_of(padded).centrally_supported
        assert is_centrally_supported_via_transfer(padded)[0]

    def test_every_synchronous_fixture_projective_state(self):
        rng = np.random.default_rng(5)
        for k in range(10):
            m = synchronous_model(rng, int(rng.integers(2, 4)),
                                  int(rng.integers(1, 3)), int(rng.integers(2, 4)))
            assert synchronous_verify(m).projective_state, f"fixture {k}"

    @staticmethod
    def reference_off_diagonal_mass(p):
        """The loop ``synchronous_verify`` ran before it took the ``x = y`` slice."""
        nA, nB, nX, _ = p.shape
        worst = 0.0
        for x in range(nX):
            for a in range(nA):
                for b in range(nB):
                    if a != b:
                        worst = max(worst, p[a, b, x, x])
        return worst

    @pytest.mark.parametrize("seed", range(4))
    def test_off_diagonal_mass_is_bitwise_the_loop(self, monkeypatch, seed):
        """The largest p(a,b|x,x), a != b, is the loop's to the bit: the check
        passes at eps equal to the loop's value and fails one ulp below it.

        A synchronous 3-outcome model's off-diagonal entries are rounding
        residue far below the smallest eps, so its table is scaled by 2**50
        (exact for these entries); a random model in the same scenario is
        probed unscaled."""
        rng = np.random.default_rng(seed)
        sync = synchronous_model(rng, 3, 2, 3)
        scaled = correlation_of(sync).p * 2.0 ** 50
        ref = self.reference_off_diagonal_mass(scaled)
        monkeypatch.setattr(special, "correlation_of", lambda m, tol: SimpleNamespace(p=scaled))
        synchronous_verify(sync, Tolerance(ref))
        with pytest.raises(ValueError, match="not synchronous"):
            synchronous_verify(sync, Tolerance(np.nextafter(ref, 0.0)))
        monkeypatch.undo()

        m = random_quantum_model(rng, Scenario(2, 2, 3, 3), 2, 3)
        ref = self.reference_off_diagonal_mass(correlation_of(m).p)
        synchronous_verify(m, Tolerance(ref))
        with pytest.raises(ValueError, match="not synchronous"):
            synchronous_verify(m, Tolerance(np.nextafter(ref, 0.0)))

    def test_swap_residuals_are_the_nested_act_forms(self):
        """Each swap residual is bitwise ||M^x_a psi - N^x_a psi|| with both
        vectors formed by ``_act`` on the operators."""
        rng = np.random.default_rng(151)
        models = [synchronous_model(rng, d, n_in, n_out)
                  for d, n_in, n_out in ((3, 2, 3), (4, 3, 2), (5, 2, 4))]
        models.append(block_padded_model(models[0], rng, 2, 1))
        for m in models:
            got = synchronous_verify(m).swap_residuals
            sc = m.scenario
            want = {f"(x={x},a={a})": float(np.linalg.norm(
                        _act(m, "A", m.M[x][a], m.psi) - _act(m, "B", m.N[x][a], m.psi)))
                    for x in range(sc.nX) for a in range(sc.nA)}
            assert got.keys() == want.keys()
            assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()

    def test_full_rank_nonprojective_cannot_be_synchronous(self):
        """A full-rank POVM model violating projectivity can never pass all
        checks: such a model's correlation fails synchronicity already."""
        sc = Scenario(1, 1, 2, 2)
        noisy = np.diag([0.8, 0.2])
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[noisy, np.eye(2) - noisy]],
                         N=[[noisy.T, np.eye(2) - noisy.T]],
                         psi=np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert classify(m).full_rank and not classify(m).projective
        with pytest.raises(ValueError, match="not synchronous"):
            synchronous_verify(m)


class TestBinaryRound:
    def test_projective_model_unchanged(self):
        m = chsh_ideal_model()
        rounded, witness = binary_round(m)
        for x in range(2):
            for a in range(2):
                assert mat_norm(rounded.M[x][a] - m.M[x][a]) < 1e-10
        assert witness.dimAuxA == witness.dimAuxB == 1

    def test_padded_eigenvalue_stripped(self):
        """CHSH padded with a 1/3-eigenvector orthogonal to the state's support."""
        rng = np.random.default_rng(7)
        m = chsh_ideal_model()
        padded = QuantumModel(
            scenario=m.scenario, dimA=3, dimB=2,
            M=[[_pad(m.M[x][0], extra), _pad(m.M[x][1], 1 - extra)]
               for x, extra in ((0, 1 / 3), (1, 1 / 3))],
            N=m.N,
            psi=np.concatenate([m.psi, np.zeros(2)]),
        )
        assert validate_model(padded).valid
        rounded, _ = binary_round(padded)
        assert classify(rounded).projective
        np.testing.assert_allclose(correlation_of(rounded).p, correlation_of(padded).p,
                                   atol=1e-10)
        psi_mat = padded.psi.reshape(3, 2)
        for x in range(2):
            for a in range(2):
                diff = padded.M[x][a] - rounded.M[x][a]
                assert np.linalg.norm(diff @ psi_mat) < 1e-9

    def test_middle_eigenvalue_in_support_violates(self):
        sc = Scenario(1, 1, 2, 2)
        half = np.eye(2) / 2  # eigenvalue 1/2 everywhere, state sees it
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[half, half]],
                         N=[[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]],
                         psi=np.array([1, 0, 0, 1]) / np.sqrt(2))
        with pytest.raises(LemmaViolated) as exc_info:
            binary_round(m)
        assert abs(exc_info.value.eigenvalue - 0.5) < 1e-12

    def test_rounded_output_is_pvm(self):
        m = chsh_ideal_model()
        padded = QuantumModel(
            scenario=m.scenario, dimA=3, dimB=2,
            M=[[_pad(m.M[x][0], 0.25), _pad(m.M[x][1], 0.75)] for x in range(2)],
            N=m.N,
            psi=np.concatenate([m.psi, np.zeros(2)]),
        )
        rounded, _ = binary_round(padded)
        assert classify(rounded).projective
        assert validate_model(rounded).valid


def _pad(op, corner):
    big = np.zeros((3, 3), dtype=complex)
    big[:2, :2] = op
    big[2, 2] = corner
    return big


class TestXor:
    def test_ideal_chsh_matrix(self):
        p = correlation_of(chsh_ideal_model())
        xc = xor_of(p)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(xc.c, [[s, s], [s, -s]], atol=1e-9)
        assert xc.unbiased
        assert xc.rank == 2

    def test_deterministic_allones_rank_one(self):
        sc = Scenario(2, 2, 2, 2)
        p = np.zeros((2, 2, 2, 2))
        p[0, 0, :, :] = 1.0
        xc = xor_of(Correlation(sc, p))
        np.testing.assert_allclose(xc.c, np.ones((2, 2)))
        assert xc.rank == 1
        assert not xc.unbiased

    def test_uniform_zero_matrix(self):
        sc = Scenario(2, 2, 2, 2)
        p = np.full((2, 2, 2, 2), 0.25)
        xc = xor_of(Correlation(sc, p))
        np.testing.assert_allclose(xc.c, np.zeros((2, 2)), atol=1e-15)
        assert xc.unbiased

    def test_linear_in_p(self):
        rng = np.random.default_rng(11)
        sc = Scenario(2, 2, 2, 2)

        def rand_corr():
            p = rng.random((2, 2, 2, 2))
            p /= p.sum(axis=(0, 1), keepdims=True)
            return Correlation(sc, p)

        p1, p2 = rand_corr(), rand_corr()
        t = 0.3
        mix = Correlation(sc, t * p1.p + (1 - t) * p2.p)
        np.testing.assert_allclose(xor_of(mix).c,
                                   t * xor_of(p1).c + (1 - t) * xor_of(p2).c,
                                   atol=1e-12)

    @staticmethod
    def reference_xor_of(p, tol):
        """The loop ``xor_of`` ran before it took c and the marginals over the
        whole (x, y) grid; it also returns the largest marginal difference."""
        sc = p.scenario
        c = np.zeros((sc.nX, sc.nY))
        unbiased = True
        worst = 0.0
        for x in range(sc.nX):
            for y in range(sc.nY):
                tab = p.p[:, :, x, y]
                c[x, y] = tab[0, 0] - tab[0, 1] - tab[1, 0] + tab[1, 1]
                margA = abs(tab[0, :].sum() - tab[1, :].sum())
                margB = abs(tab[:, 0].sum() - tab[:, 1].sum())
                if margA > tol.eps or margB > tol.eps:
                    unbiased = False
                worst = max(worst, margA, margB)
        return c, unbiased, worst

    def test_bitwise_the_loop(self):
        """c and the unbiased verdict equal the loop's on seeded biased tables,
        on unbiased ones, and on tables whose A or B marginal sits exactly at
        eps (unbiased) or one ulp past it (biased), dyadic or not."""
        rng = np.random.default_rng(23)
        eps = 2.0 ** -20
        at_eps = np.full((2, 2, 3, 2), 0.25)
        at_eps[0, :, 1, 0] += eps / 4  # A's marginal difference is eps at (x, y) = (1, 0)
        at_eps[1, :, 1, 0] -= eps / 4
        cases = [(Correlation(Scenario(3, 2, 2, 2), at_eps), eps),
                 (Correlation(Scenario(2, 3, 2, 2), at_eps.transpose(1, 0, 3, 2)), eps),
                 (correlation_of(chsh_ideal_model()), 1e-9),
                 (Correlation(Scenario(2, 2, 2, 2), np.full((2, 2, 2, 2), 0.25)), 1e-9)]
        for shape in ((2, 2, 2, 2), (2, 2, 3, 4), (2, 2, 1, 5)):
            p = rng.random(shape)
            p /= p.sum(axis=(0, 1), keepdims=True)
            cases.append((Correlation(Scenario(*shape[2:], 2, 2), p), 1e-9))
            near = 0.25 + 1e-7 * rng.normal(size=shape)  # marginals off uniform by ~1e-7
            near = Correlation(Scenario(*shape[2:], 2, 2), near / near.sum(axis=(0, 1)))
            cases.append((near, self.reference_xor_of(near, Tolerance())[2]))
        edges = 0
        for corr, e in cases:
            # a table probed at its largest marginal is unbiased there, biased one ulp below
            edge = self.reference_xor_of(corr, Tolerance(e))[2] == e
            edges += edge
            for tol in (Tolerance(e), Tolerance(np.nextafter(e, 0.0))):
                ref_c, ref_unbiased, _ = self.reference_xor_of(corr, tol)
                xc = xor_of(corr, tol)
                assert xc.c.tobytes() == ref_c.tobytes()
                assert xc.unbiased == ref_unbiased
                assert not edge or ref_unbiased == (tol.eps == e)
        assert edges == 5

    def test_non_binary_rejected(self):
        sc = Scenario(1, 1, 3, 3)
        p = np.zeros((3, 3, 1, 1))
        p[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            xor_of(Correlation(sc, p))


class TestXorCertificate:
    def test_chsh_granted(self):
        p = correlation_of(chsh_ideal_model())
        cert = xor_selftest_certificate(p, extremal_assertion=True)
        assert cert.granted and cert.rank == 2
        assert cert.extremal_asserted

    def test_odd_rank_denied(self):
        sc = Scenario(2, 2, 2, 2)
        p = np.zeros((2, 2, 2, 2))
        p[0, 0, :, :] = 1.0
        cert = xor_selftest_certificate(Correlation(sc, p), extremal_assertion=True)
        assert not cert.granted
        assert any("odd" in r for r in cert.reasons)

    def test_no_assertion_denied(self):
        p = correlation_of(chsh_ideal_model())
        cert = xor_selftest_certificate(p, extremal_assertion=False)
        assert not cert.granted
        assert any("extremality not asserted" in r for r in cert.reasons)

    def test_refutation_by_decomposition(self):
        s3, _ = example_pair()
        p = correlation_of(s3)
        # p = (p1 + p2)/2 with deterministic components
        sc = p.scenario
        p1 = np.zeros((2, 2, 1, 1))
        p1[0, 0, 0, 0] = 1.0
        p2 = np.zeros((2, 2, 1, 1))
        p2[1, 1, 0, 0] = 1.0
        decomposition = [(0.5, Correlation(sc, p1)), (0.5, Correlation(sc, p2))]
        assert refute_extremality(p, decomposition)
        cert = xor_selftest_certificate(p, True, decomposition)
        assert not cert.granted
        assert cert.extremality_refuted

    def test_trivial_decomposition_does_not_refute(self):
        p = correlation_of(chsh_ideal_model())
        assert not refute_extremality(p, [(1.0, p)])

    def test_component_from_another_scenario_rejected(self):
        """1x1-scenario components broadcast against a 2x2 table; they must
        be rejected, not read as a refutation of the uniform correlation."""
        p = Correlation(Scenario(2, 2, 2, 2), np.full((2, 2, 2, 2), 0.25))
        small = Scenario(1, 1, 2, 2)
        same, diff = np.eye(2) / 2, np.fliplr(np.eye(2)) / 2
        decomposition = [(0.5, Correlation(small, t[..., None, None])) for t in (same, diff)]
        with pytest.raises(ValueError, match=r"component 0 has scenario Scenario\(nX=1.*"
                                             r"correlation has scenario Scenario\(nX=2"):
            refute_extremality(p, decomposition)
