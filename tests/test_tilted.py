"""Tilted-CHSH polynomials, SOS identities, and the optimizer oracle."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from bellkit.linalg import dagger, mat_norm
from bellkit.models import CommutingModel, Scenario, validate_model
from bellkit.presets import (
    _X,
    _Z,
    _binary_povm,
    chsh_ideal_model,
    commuting_from_tensor,
    optimal_tilted_model,
    random_quantum_model,
    random_state,
    tensor_with_auxiliary,
)
from bellkit.models import QuantumModel
from bellkit.tilted import (
    NCPoly,
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
        """NCPoly.evaluate is bitwise the reference, -0.0 against 0.0 included."""
        rng = np.random.default_rng(107)
        gens = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
                for _ in range(4)]
        polys = _certificate_polys(alpha)
        assert len(polys) == 16
        for poly in polys:
            assert poly.evaluate(gens).tobytes() == _naive_evaluate(poly, gens).tobytes()

    def test_zero_polynomial(self):
        gens = [np.diag([1.0, -1.0, 2.0])] * 4
        zero = np.zeros((3, 3), dtype=complex)
        assert NCPoly({(0, 1): 0.0}).terms == {}
        assert NCPoly().evaluate(gens).tobytes() == zero.tobytes()

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


def _full_space_gens(m):
    """[a0, a1, b0, b1] as matrices on the model's whole space."""
    if isinstance(m, QuantumModel):
        m = commuting_from_tensor(m)
    return [m.M[0][0] - m.M[0][1], m.M[1][0] - m.M[1][1],
            m.N[0][0] - m.N[0][1], m.N[1][0] - m.N[1][1]]


def _turned_b(m, rng, eps, norm=None):
    """``m`` with every N operator conjugated by exp(i eps H), H a seeded
    Hermitian (rescaled to spectral norm ``norm`` if given): still valid
    POVMs, but the a and b sides stop commuting."""
    h = rng.standard_normal((m.dim, m.dim)) + 1j * rng.standard_normal((m.dim, m.dim))
    w, v = np.linalg.eigh(h + dagger(h))
    if norm is not None:
        w = w * (norm / np.abs(w).max())
    u = (v * np.exp(1j * eps * w)) @ dagger(v)
    return dataclasses.replace(m, N=[[u @ op @ dagger(u) for op in povm] for povm in m.N])


class TestNormalFormDefect:
    def test_noncommuting_commuting_model_fails(self):
        """A commuting model built directly, whose a and b do not commute."""
        m = CommutingModel(scenario=Scenario(2, 2, 2, 2), dim=2,
                           M=[_binary_povm(_Z), _binary_povm(_X)],
                           N=[_binary_povm(_X), _binary_povm(_Z)],
                           psi=np.array([1.0, 0.0]))
        cert = verify_tilted_sos(m, 0.5)
        assert min(cert.identity_defects) > 1.0
        assert not cert.identities_ok

    @pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-3])
    def test_bound_never_under_reports(self, eps):
        """The reported defect is at least the operator norm of LHS - RHS."""
        rng = np.random.default_rng(127)
        for alpha in (0.0, 0.8, 1.7):
            for _ in range(4):
                base = random_quantum_model(rng, Scenario(2, 2, 2, 2), int(rng.integers(2, 4)),
                                            int(rng.integers(2, 4)))
                m = _turned_b(commuting_from_tensor(base), rng, eps)
                gens = _full_space_gens(m)
                assert max(mat_norm(g) for g in gens) <= 1 + 1e-12
                lhs, *rhs = tilted_chsh_build(alpha).identity_sides()
                cert = verify_tilted_sos(m, alpha)
                for defect, side in zip(cert.identity_defects, rhs, strict=True):
                    assert defect >= mat_norm(_naive_evaluate(lhs - side, gens)) - 1e-13

    @pytest.mark.parametrize("eps,valid", [(1e-11, True), (1e-10, True), (1e-9, True),
                                           (1e-7, False)])
    def test_agrees_with_validate_on_nearly_commuting_models(self, eps, valid):
        """identities_ok applies validate's commutation rule, not a cut on the
        commutator bound, a swap weight of up to about 128 times max ||[a_x, b_y]||."""
        base = commuting_from_tensor(
            random_quantum_model(np.random.default_rng(3), Scenario(2, 2, 2, 2), 3, 3))
        m = _turned_b(base, np.random.default_rng(7), eps, norm=4.0)
        assert validate_model(m).valid is valid
        cert = verify_tilted_sos(m, 1.5)
        assert cert.identities_ok is valid
        # the bound is still reported: it passes the identity cut only at 1e-11
        assert (max(cert.identity_defects) <= 1e-8) is (eps < 1e-10)

    def test_tensor_defect_is_the_coefficient_residual(self):
        """On a tensor model the defect depends on alpha only."""
        rng = np.random.default_rng(131)
        small = random_quantum_model(rng, Scenario(2, 2, 2, 2), 2, 2)
        large = random_quantum_model(rng, Scenario(2, 2, 2, 2), 3, 4)
        for alpha in (0.0, 0.3, 1.5, 1.99):
            defects = verify_tilted_sos(small, alpha).identity_defects
            assert verify_tilted_sos(large, alpha).identity_defects == defects
            assert max(defects) < 1e-14


class TestStateTerms:
    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.9])
    def test_word_vectors_match_operator_evaluation(self, alpha):
        """f(eta), ||r_i psi||^2 and f(s_j) from word vectors agree with the
        full-space operators on random tensor and commuting POVM models."""
        rng = np.random.default_rng(137)
        polys = tilted_chsh_build(alpha)
        for _ in range(5):
            base = random_quantum_model(rng, Scenario(2, 2, 2, 2), int(rng.integers(2, 4)),
                                        int(rng.integers(2, 4)))
            for m in (base, commuting_from_tensor(base)):
                gens, psi = _full_space_gens(m), m.psi
                cert = verify_tilted_sos(m, alpha)
                want = {"eta": np.vdot(psi, _naive_evaluate(polys.eta, gens) @ psi).real}
                for i, r in enumerate(polys.r, 1):
                    v = _naive_evaluate(r, gens) @ psi
                    want[f"r{i}^2"] = np.vdot(v, v).real
                for j, s in enumerate(polys.s, 1):
                    want[f"s{j}"] = np.vdot(psi, _naive_evaluate(s, gens) @ psi).real
                got = {"eta": cert.f_eta, **cert.state_residuals}
                assert got.keys() == want.keys()
                for key, value in want.items():
                    assert abs(got[key] - value) <= 1e-12, key


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
        from bellkit.models import classify
        m = optimal_tilted_model(0.75)
        assert validate_model(m).valid
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
    def test_verify_tilted_sos_peak_at_d256(self):
        """A tensor model's state terms come from vectors on the 256-dim space
        and no operator on it is formed: the peak stays under one 256 x 256
        complex matrix."""
        big = tensor_with_auxiliary(optimal_tilted_model(1.5),
                                    random_state(np.random.default_rng(5), 64), 8, 8)
        assert (big.dimA, big.dimB) == (16, 16)
        verify_tilted_sos(big, 1.5)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            cert = verify_tilted_sos(big, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.optimal and cert.identities_ok
        assert peak <= 256 * 256 * 16
