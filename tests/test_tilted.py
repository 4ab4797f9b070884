"""Tilted-CHSH polynomials, SOS identities, and the optimizer oracle."""

import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest

from bellkit.models import Scenario
from bellkit.presets import (
    _X,
    _Z,
    _binary_povm,
    chsh_ideal_model,
    commuting_from_tensor,
    random_quantum_model,
    random_state,
    tensor_with_auxiliary,
)
from bellkit.models import QuantumModel
from bellkit.tilted import (
    NCPoly,
    evaluate_all,
    optimal_tilted_model,
    tilted_chsh_build,
    verify_tilted_sos,
)


class TestNCPoly:
    def test_merging_only(self):
        a = NCPoly.gen(0)
        p = a * a + 2 * (a * a)
        assert p.terms == {(0, 0): 3.0}

    def test_noncommutative_product(self):
        a, b = NCPoly.gen(0), NCPoly.gen(1)
        p = a * b - b * a
        assert p.terms == {(0, 1): 1.0, (1, 0): -1.0}

    def test_evaluation(self):
        a = NCPoly.gen(0)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose((a * a - 1).evaluate([x]), np.zeros((2, 2)))


def _naive_evaluate(poly, gens):
    """One polynomial on its own, each monomial rebuilt from I left to right."""
    d = gens[0].shape[0]
    out = np.zeros((d, d), dtype=complex)
    for mono, coeff in poly.terms.items():
        term = np.eye(d, dtype=complex)
        for idx in mono:
            term = term @ gens[idx]
        out += coeff * term
    return out


def _certificate_polys(alpha):
    """lhs, rhs1, rhs2, eta, r1..r4, s1..s8: what verify_tilted_sos evaluates."""
    polys = tilted_chsh_build(alpha)
    return [*polys.identity_sides(), polys.eta, *polys.r, *polys.s]


class TestSharedEvaluation:
    @pytest.mark.parametrize("alpha", [0.0, 0.7, 1.5])
    def test_bitwise_equal_to_one_at_a_time(self, alpha):
        """The shared prefix table changes no bit, -0.0 against 0.0 included."""
        rng = np.random.default_rng(107)
        gens = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
                for _ in range(4)]
        polys = _certificate_polys(alpha)
        assert len(polys) == 16
        for poly, op in zip(polys, evaluate_all(polys, gens), strict=True):
            naive = _naive_evaluate(poly, gens)
            assert op.tobytes() == naive.tobytes()
            assert poly.evaluate(gens).tobytes() == naive.tobytes()

    def test_generator_with_shared_and_repeated_polynomials(self):
        """Operators arrive one at a time, bitwise the one-at-a-time evaluation,
        also when a polynomial repeats and products are released in between."""
        rng = np.random.default_rng(113)
        gens = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                for _ in range(4)]
        certificate = _certificate_polys(0.9)
        polys = [certificate[5], *certificate, certificate[1], NCPoly.constant(2.0),
                 certificate[0]]
        ops = evaluate_all(polys, gens)
        assert isinstance(ops, types.GeneratorType)
        for poly in polys:
            assert next(ops).tobytes() == _naive_evaluate(poly, gens).tobytes()
        assert next(ops, None) is None

    def test_zero_polynomial(self):
        gens = [np.diag([1.0, -1.0, 2.0])] * 4
        zero = np.zeros((3, 3), dtype=complex)
        assert NCPoly({(0, 1): 0.0}).terms == {}
        assert NCPoly().evaluate(gens).tobytes() == zero.tobytes()
        ops = evaluate_all([NCPoly(), NCPoly.gen(2), NCPoly()], gens)
        assert [op.tobytes() for op in ops] == [zero.tobytes(), (zero + gens[2]).tobytes(),
                                                zero.tobytes()]

    def test_multi_generator_evaluation(self):
        """Pauli algebra: XY - YX = 2iZ and ZXY = iI."""
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([[0.0, -1j], [1j, 0.0]])
        z = np.diag([1.0, -1.0])
        a, b, c = NCPoly.gen(0), NCPoly.gen(1), NCPoly.gen(2)
        p = a * b - b * a + 2 * (c * a * b) + 0.5
        expected = 2j * z + (0.5 + 2j) * np.eye(2)
        np.testing.assert_array_equal(p.evaluate([x, y, z]), expected)


class TestBuild:
    def test_alpha_zero_is_chsh(self):
        polys = tilted_chsh_build(0.0)
        assert abs(polys.lam - 2 * np.sqrt(2)) < 1e-14
        # eta reduces to the CHSH operator: no bare a0 term
        assert (0,) not in polys.eta.terms
        assert polys.eta.terms[(0, 2)] == 1.0  # a0 b0

    def test_lambda_values(self):
        assert abs(tilted_chsh_build(0.5).lam - np.sqrt(8.5)) < 1e-14
        assert abs(tilted_chsh_build(0.5).lam - 2.9154759474226504) < 1e-12
        assert abs(tilted_chsh_build(1.0).delta - np.sqrt(6.0)) < 1e-14

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            tilted_chsh_build(2.0)
        with pytest.raises(ValueError):
            tilted_chsh_build(-0.1)


class TestIdentities:
    def test_defects_vanish_on_random_models(self):
        """The two displayed identities hold for every valid model."""
        rng = np.random.default_rng(101)
        sc = Scenario(2, 2, 2, 2)
        for alpha in (0.0, 0.7, 1.3):
            for _ in range(10):
                m = random_quantum_model(rng, sc, int(rng.integers(2, 4)),
                                         int(rng.integers(2, 4)))
                cert = verify_tilted_sos(m, alpha)
                assert max(cert.identity_defects) < 1e-8, (alpha, cert.identity_defects)
                assert cert.identities_ok

    def test_state_residuals_nonnegative(self):
        rng = np.random.default_rng(103)
        m = random_quantum_model(rng, Scenario(2, 2, 2, 2), 2, 2)
        cert = verify_tilted_sos(m, 0.4)
        assert all(v > -1e-10 for v in cert.state_residuals.values())

    def test_deterministic_classical_model_suboptimal(self):
        sc = Scenario(2, 2, 2, 2)
        proj = np.diag([1.0, 0.0])
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[proj, np.eye(2) - proj]] * 2,
                         N=[[proj, np.eye(2) - proj]] * 2,
                         psi=np.array([1.0, 0, 0, 0]))
        cert = verify_tilted_sos(m, 0.0)
        assert cert.f_eta <= 2 + 1e-12
        assert not cert.optimal
        # 2*lam*(lam - f(eta)) = sum of residuals; all must show up
        assert cert.state_residuals["r1^2"] > 1e-3
        assert cert.identities_ok  # identities hold regardless of optimality

    def test_scenario_mismatch(self):
        sc = Scenario(1, 1, 2, 2)
        proj = np.diag([1.0, 0.0])
        m = QuantumModel(scenario=sc, dimA=2, dimB=2,
                         M=[[proj, np.eye(2) - proj]],
                         N=[[proj, np.eye(2) - proj]],
                         psi=np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValueError):
            verify_tilted_sos(m, 0.0)


class TestOptimizer:
    def test_chsh_reaches_tsirelson(self):
        m = optimal_tilted_model(0.0)
        cert = verify_tilted_sos(m, 0.0)
        assert abs(cert.f_eta - 2 * np.sqrt(2)) < 1e-6

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_optimal_models_annihilate_certificate(self, alpha):
        m = optimal_tilted_model(alpha)
        cert = verify_tilted_sos(m, alpha, )
        assert cert.f_eta >= cert.lam - 1e-6
        assert max(cert.state_residuals.values()) < 1e-5
        assert max(cert.identity_defects) < 1e-10

    def test_optimizer_model_is_valid_projective(self):
        from bellkit.models import classify, validate_quantum_model
        m = optimal_tilted_model(0.75)
        assert validate_quantum_model(m).valid
        assert classify(m).projective

    def test_consistency_with_ideal_chsh(self):
        """Both the optimizer's model and the standard construction are optimal."""
        cert = verify_tilted_sos(chsh_ideal_model(), 0.0)
        assert cert.optimal
        assert max(cert.state_residuals.values()) < 1e-12


def _b_turned(m, angle):
    """The optimal model with both B observables cos(mu) Z +- sin(mu) X at mu + angle."""
    b0 = (m.N[0][0] - m.N[0][1]).real
    mu = math.atan2(b0[0, 1], b0[0, 0]) + angle
    return dataclasses.replace(m, N=[_binary_povm(math.cos(mu) * _Z + sign * math.sin(mu) * _X)
                                     for sign in (1, -1)])


class TestAtScale:
    def test_dimA16_auxiliary_tensor_and_commuting(self):
        """Tilted optimum (x) C^8 (x) C^8 on a 256-dim space, and B turned 0.3 rad off."""
        alpha = 1.5
        aux = random_state(np.random.default_rng(109), 64)
        base = optimal_tilted_model(alpha)
        for m, optimal in ((base, True), (_b_turned(base, 0.3), False)):
            big = tensor_with_auxiliary(m, aux, 8, 8)
            assert (big.dimA, big.dimB) == (16, 16)
            cert = verify_tilted_sos(big, alpha)
            assert cert.identities_ok
            assert cert.optimal is optimal
            comm = verify_tilted_sos(commuting_from_tensor(big), alpha)
            assert (comm.identities_ok, comm.optimal) == (cert.identities_ok, cert.optimal)
            assert abs(comm.f_eta - cert.f_eta) <= 1e-12
            for got, want in zip(comm.identity_defects, cert.identity_defects):
                assert abs(got - want) <= 1e-12
            assert comm.state_residuals.keys() == cert.state_residuals.keys()
            for key, want in cert.state_residuals.items():
                assert abs(comm.state_residuals[key] - want) <= 1e-12, key


class TestMemory:
    def test_verify_tilted_sos_peak_at_d64(self):
        """Products are freed at their last use and each certificate operator is
        reduced as it arrives: the peak stays under 64 operators (holding every
        product and operator to the end takes about 92)."""
        big = tensor_with_auxiliary(optimal_tilted_model(1.5),
                                    random_state(np.random.default_rng(5), 16), 4, 4)
        assert (big.dimA, big.dimB) == (8, 8)
        verify_tilted_sos(big, 1.5)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            cert = verify_tilted_sos(big, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.optimal and cert.identities_ok
        assert peak <= 64 * 64 * 64 * 16
