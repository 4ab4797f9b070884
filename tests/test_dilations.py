"""Naimark dilation and local-dilation search/verification."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from bellkit.dilations import (
    NotDilatable,
    find_local_dilation,
    naimark_dilate,
    verify_local_dilation,
)
from bellkit.linalg import Tolerance, dagger, mat_norm, replace, structural_predicates
from bellkit.models import (
    DilationWitness,
    QuantumModel,
    Scenario,
    _act,
    correlation_of,
    trivial_witness,
    validate_model,
)
from bellkit.presets import (
    block_padded_model,
    chsh_ideal_model,
    doubled_model,
    example_pair,
    optimal_tilted_model,
    random_povm,
    random_quantum_model,
    random_state,
    tensor_with_auxiliary,
)
from bellkit.reps import (
    _flat,
    _intertwiner,
    block_components,
    cyclic_restrict,
    irrep_decompose,
    states_equal,
)
from bellkit.schmidt import schmidt_decompose
from bellkit.support import support_of
from test_local_unitary import haar_unitary, rotate


class TestNaimark:
    def test_pvm_input_reproduced_exactly(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        nd = naimark_dilate([p0, p1])
        for proj, effect in zip(nd.P, [p0, p1]):
            np.testing.assert_allclose(nd.V.conj().T @ proj @ nd.V, effect, atol=1e-14)

    def test_trine_povm(self):
        # three symmetric rank-one effects (2/3)|phi_j><phi_j| on the qubit
        effects = []
        for j in range(3):
            t = 2 * np.pi * j / 3
            phi = np.array([np.cos(t / 2), np.sin(t / 2)])
            effects.append(2 / 3 * np.outer(phi, phi))
        nd = naimark_dilate(effects)
        assert nd.V.shape[0] == 6
        assert structural_predicates(nd.V).isometry
        for proj, effect in zip(nd.P, effects):
            assert structural_predicates(proj).projection
            assert mat_norm(nd.V.conj().T @ proj @ nd.V - effect) < 1e-12

    def test_uniform_povm(self):
        half = np.eye(2) / 2
        nd = naimark_dilate([half, half])
        expected_v = (np.kron(np.eye(2), [[1], [0]]) + np.kron(np.eye(2), [[0], [1]])) / np.sqrt(2)
        np.testing.assert_allclose(nd.V, expected_v, atol=1e-12)

    def test_property_suite_random_povms(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            povm = random_povm(rng, d, k)
            nd = naimark_dilate(povm)
            assert mat_norm(nd.V.conj().T @ nd.V - np.eye(d)) < 1e-10
            for proj, effect in zip(nd.P, povm):
                assert mat_norm(proj @ proj - proj) < 1e-12
                assert mat_norm(nd.V.conj().T @ proj @ nd.V - effect) < 1e-10

    def test_non_povm_rejected(self):
        with pytest.raises(ValueError):
            naimark_dilate([np.eye(2), np.eye(2)])

    @pytest.mark.parametrize("povm, violation", [
        ([np.eye(2), np.eye(2)], "POVM completeness at POVM[0]"),
        ([np.array([[0.5, 0.1], [0.0, 0.5]]), np.array([[0.5, -0.1], [0.0, 0.5]])],
         "hermiticity at POVM[0][0]"),
        # -1.5 eps is inside psd_sqrt's relative clamp, but not a valid effect
        ([np.diag([-1.5e-9, 1.0]), np.diag([1.0 + 1.5e-9, 0.0])], "positivity at POVM[0][0]"),
        ([np.eye(2), np.zeros((3, 3))], "operator shape at POVM[0][1]: residual 1.000e+00"),
        ([np.eye(2), np.zeros((2, 5))], "operator shape at POVM[0][1]: residual 3.000e+00"),
    ])
    def test_povm_checked_as_validate_checks_a_model(self, povm, violation):
        with pytest.raises(ValueError, match=r"POVM is not valid: .*" + re.escape(violation)):
            naimark_dilate(povm)


def _chsh_large_auxiliary(k: int = 32):
    """CHSH (x) a random k x k auxiliary state, CHSH, and the identity witness."""
    m = chsh_ideal_model()
    aux = random_state(np.random.default_rng(k), k * k)
    big = tensor_with_auxiliary(m, aux, k, k)
    w = DilationWitness(IA=np.eye(2 * k), IB=np.eye(2 * k), aux=aux, dimAuxA=k, dimAuxB=k)
    return big, m, w


def _traced_peak(run):
    """``run()`` and the peak of the memory it traced, in bytes."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _nested_act_residuals(S, T, w):
    """verify_local_dilation's residuals with each product vector formed by
    nested ``_act`` calls on the operators, A's acting on psi first."""
    def residual(measured, target):
        lhs = (w.IA @ measured.reshape(S.dimA, S.dimB) @ w.IB.T).reshape(
            T.dimA, w.dimAuxA, T.dimB, w.dimAuxB).transpose(0, 2, 1, 3).reshape(-1)
        return float(np.linalg.norm(lhs - np.kron(target, w.aux)))

    sc = S.scenario
    out = {"identity": residual(S.psi, T.psi)}
    for x, a, y, b in itertools.product(range(sc.nX), range(sc.nA), range(sc.nY), range(sc.nB)):
        out[f"(x={x},a={a},y={y},b={b})"] = residual(
            _act(S, "B", S.N[y][b], _act(S, "A", S.M[x][a], S.psi)),
            _act(T, "B", T.N[y][b], _act(T, "A", T.M[x][a], T.psi)))
    return out


class TestVerifyLocalDilation:
    def test_residuals_are_the_nested_act_forms(self):
        """Every residual is bitwise the nested ``_act`` form's, on seeded
        POVM models with seeded witnesses and on a found dilation."""
        rng = np.random.default_rng(149)
        sc = Scenario(2, 3, 3, 2)
        cases = []
        for dims_s, dims_t, aux in (((3, 4), (2, 3), (2, 2)), ((4, 2), (3, 3), (1, 2))):
            S = random_quantum_model(rng, sc, *dims_s)
            T = random_quantum_model(rng, sc, *dims_t)
            w = DilationWitness(
                IA=rng.standard_normal((dims_t[0] * aux[0], dims_s[0])),
                IB=rng.standard_normal((dims_t[1] * aux[1], dims_s[1]))
                + 1j * rng.standard_normal((dims_t[1] * aux[1], dims_s[1])),
                aux=random_state(rng, aux[0] * aux[1]), dimAuxA=aux[0], dimAuxB=aux[1])
            cases.append((S, T, w))
        m = chsh_ideal_model()
        big = tensor_with_auxiliary(m, random_state(rng, 6), 2, 3)
        cases.append((big, m, find_local_dilation(big, m, seed=0)))
        for S, T, w in cases:
            got = verify_local_dilation(S, T, w).residuals
            want = _nested_act_residuals(S, T, w)
            assert got.keys() == want.keys()
            assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()

    def test_reflexivity(self):
        m = chsh_ideal_model()
        rep = verify_local_dilation(m, m, trivial_witness(m))
        assert rep.passed and rep.max_residual < 1e-12
        assert rep.schmidt_ranks == {"psi": 2, "psi_tilde": 2, "aux": 1}

    def test_auxiliary_junk_canonical_embedding(self):
        m = chsh_ideal_model()
        aux = np.kron([0.6, 0.8], [1.0, 0.0])
        big = tensor_with_auxiliary(m, aux, 2, 2)
        # canonical embedding: IA is the identity on H_A (x) C^2 reshaped
        w = find_local_dilation(big, m, seed=0)
        rep = verify_local_dilation(big, m, w, Tolerance(1e-8))
        assert rep.passed
        assert rep.moment_residual is not None and rep.moment_residual < 1e-9

    def test_example_pair_no_witness_can_pass(self):
        """Natural candidates between the rank-3 and rank-2 models all fail,
        and the report carries the rank obstruction."""
        s3, s2 = example_pair()
        candidates = []
        # embed-and-forget: route the 3-dim space into (2-dim) x (2-dim aux)
        ia = np.zeros((4, 3), dtype=complex)
        ia[0, 0] = 1  # |0> -> |0>|0>
        ia[1, 1] = 1  # |1> -> |0>|1>
        ia[3, 2] = 1  # |2> -> |1>|1>
        candidates.append((ia.copy(), ia.copy(), np.array([1, 0, 0, 0], dtype=complex)))
        ia2 = np.zeros((4, 3), dtype=complex)
        ia2[0, 0] = 1
        ia2[2, 1] = 1  # |1> -> |1>|0>
        ia2[3, 2] = 1  # |2> -> |1>|1>
        candidates.append((ia2.copy(), ia2.copy(), np.array([1, 0, 0, 0], dtype=complex)))
        for ia_c, ib_c, aux in candidates:
            w = DilationWitness(IA=ia_c, IB=ib_c, aux=aux, dimAuxA=2, dimAuxB=2)
            rep = verify_local_dilation(s3, s2, w)
            assert not rep.passed
            assert not rep.rank_consistent  # 3 != 2 * rank(aux)

    def test_moment_residual_is_the_gram_residual_of_states_equal(self):
        m = chsh_ideal_model()
        big = tensor_with_auxiliary(m, random_state(np.random.default_rng(8), 4), 2, 2)
        rep = verify_local_dilation(big, m, find_local_dilation(big, m, seed=0))
        equal, witness = states_equal(big, m)
        assert rep.passed and equal
        assert np.float64(rep.moment_residual).tobytes() == \
            np.float64(witness.gram_residual).tobytes()

    def test_rotated_target_fails_on_its_distinguishing_word(self):
        """T measures B in a rotated basis: another abstract state, so the
        report fails and carries the gap at states_equal's word."""
        m = chsh_ideal_model()
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        t = replace(m, N=[[rot @ op @ rot.T for op in povm] for povm in m.N])
        assert support_of(t).centrally_supported
        rep = verify_local_dilation(m, t, trivial_witness(m))
        equal, moment = states_equal(m, t)
        assert not rep.passed and not equal
        assert rep.moment_residual == abs(moment.value1 - moment.value2)
        assert rep.moment_residual > Tolerance().cut("frame")

    def test_no_state_check_without_central_support(self):
        m = replace(chsh_ideal_model(), psi=np.array([1.0, 0, 0, 0]))
        assert not support_of(m).centrally_supported
        rep = verify_local_dilation(m, m, trivial_witness(m))
        assert rep.passed and rep.moment_residual is None

    def test_identity_witness_on_a_large_auxiliary_stays_small(self):
        """CHSH (x) aux(k=32) has d = 4096 but a 4-dimensional cyclic space:
        the check allocates no d x d frame buffer (256 MiB)."""
        big, m, w = _chsh_large_auxiliary()
        rep, peak = _traced_peak(lambda: verify_local_dilation(big, m, w))
        assert rep.passed and rep.moment_residual is not None
        assert peak < 6 * 2**20

    def test_cyclic_restriction_of_a_large_auxiliary_stays_small(self):
        big, _, _ = _chsh_large_auxiliary()
        cyclic, peak = _traced_peak(lambda: cyclic_restrict(big))
        assert cyclic.dim == 4 and cyclic.restricted
        assert peak < 6 * 2**20

    def test_dimension_mismatch_rejected(self):
        m = chsh_ideal_model()
        w = trivial_witness(m)
        s3, _ = example_pair()
        with pytest.raises(ValueError):
            verify_local_dilation(s3, m, w)

    @pytest.mark.parametrize("which", ["S", "T"])
    def test_outcome_count_mismatch_rejected(self, which):
        """A POVM with fewer outcomes than the scenario is bad input, not an
        IndexError from the residual loop."""
        m = chsh_ideal_model()
        short = QuantumModel(scenario=m.scenario, dimA=2, dimB=2,
                             M=m.M, N=[m.N[0], m.N[1][:1]], psi=m.psi)
        S, T = (short, m) if which == "S" else (m, short)
        with pytest.raises(ValueError, match=rf"{which}\.N has outcome counts \[2, 1\]"):
            verify_local_dilation(S, T, trivial_witness(m))


class TestFindLocalDilation:
    def test_self_dilation_unitary_witness(self):
        m = chsh_ideal_model()
        w = find_local_dilation(m, m, seed=0)
        assert w.dimAuxA == w.dimAuxB == 1
        assert structural_predicates(w.IA).unitary
        np.testing.assert_allclose(w.aux, [1.0], atol=1e-10)
        rep = verify_local_dilation(m, m, w, Tolerance(1e-8))
        assert rep.passed

    def test_entangled_auxiliary(self):
        m = chsh_ideal_model()
        aux = np.array([0.8, 0.0, 0.0, 0.6])  # entangled across the aux split
        big = tensor_with_auxiliary(m, aux, 2, 2)
        assert validate_model(big).valid
        w = find_local_dilation(big, m, seed=1)
        rep = verify_local_dilation(big, m, w, Tolerance(1e-8))
        assert rep.passed and rep.max_residual < 1e-8
        assert rep.schmidt_ranks == {"psi": 4, "psi_tilde": 2, "aux": 2}

    def test_sixteen_dim_auxiliary(self):
        m = chsh_ideal_model()
        aux = random_state(np.random.default_rng(16), 16 * 16)
        big = tensor_with_auxiliary(m, aux, 16, 16)
        w = find_local_dilation(big, m, seed=0)
        rep = verify_local_dilation(big, m, w, Tolerance(1e-8))
        assert rep.passed
        assert rep.schmidt_ranks == {"psi": 32, "psi_tilde": 2, "aux": 16}

    def test_direct_sum_spread_state(self):
        m = chsh_ideal_model()
        dbl = doubled_model(m)
        w = find_local_dilation(dbl, m, seed=2)
        rep = verify_local_dilation(dbl, m, w, Tolerance(1e-8))
        assert rep.passed
        aux_rank = schmidt_decompose(w.aux, w.dimAuxA, w.dimAuxB).rank
        assert aux_rank == 2

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 16])
    def test_padded_auxiliary_ladder(self, k):
        """CHSH (x) a random k x k aux, padded with junk blocks of sizes 2 and
        3 (up to d = 34/35 per side): the same abstract state as CHSH, one
        reached block pair, rank one across its multiplicities, and each junk
        block routed whole into the aux."""
        m = chsh_ideal_model()
        rng = np.random.default_rng(k)
        big = tensor_with_auxiliary(m, random_state(rng, k * k), k, k)
        padded = block_padded_model(big, rng, 2, 3)
        assert states_equal(padded, m)[0]
        w = find_local_dilation(padded, m, seed=0)
        rep = verify_local_dilation(padded, m, w)
        assert rep.passed
        assert rep.schmidt_ranks == {"psi": 2 * k, "psi_tilde": 2, "aux": k}
        assert (w.dimAuxA, w.dimAuxB) == (k + 2, k + 3)

        dec_a, dec_b, comp = block_components(padded, seed=0)
        assert len(comp) == 1
        # the reached pair is the CHSH irrep with multiplicity k on each side,
        # wherever the sort by trace signature puts it
        [((i, j), mat)] = comp.items()
        assert (dec_a.blocks[i].n, dec_a.blocks[i].m) == (2, k)
        assert (dec_b.blocks[j].n, dec_b.blocks[j].m) == (2, k)
        svals = np.linalg.svd(mat, compute_uv=False)
        np.testing.assert_allclose(svals[0], 1.0, atol=1e-12)
        assert svals[1] <= 1e-12

    def test_example_pair_schmidt_obstruction(self):
        s3, s2 = example_pair()
        with pytest.raises(NotDilatable) as exc_info:
            find_local_dilation(s3, s2, seed=0)
        assert exc_info.value.obstruction["kind"] == "schmidt-rank"
        # and the reverse direction is obstructed the same way (2 % 3 != 0)
        with pytest.raises(NotDilatable) as exc_info:
            find_local_dilation(s2, s3, seed=0)
        assert exc_info.value.obstruction["kind"] == "schmidt-rank"

    def test_different_scenarios_are_bad_input(self):
        """Models from different scenarios are not an obstruction but bad
        input, as in ``verify_local_dilation``."""
        s3, _ = example_pair()
        with pytest.raises(ValueError, match="models live in different scenarios"):
            find_local_dilation(s3, chsh_ideal_model(), seed=0)

    def test_reducible_ideal_rejected(self):
        _, s2 = example_pair()
        with pytest.raises(NotDilatable) as exc_info:
            find_local_dilation(s2, s2, seed=0)
        assert exc_info.value.obstruction["kind"] == "reducible-ideal"

    def test_correlation_mismatch_rejected(self):
        m = chsh_ideal_model()
        rng = np.random.default_rng(60)
        other = random_quantum_model(rng, Scenario(2, 2, 2, 2), 2, 2)
        with pytest.raises(NotDilatable) as exc_info:
            find_local_dilation(other, m, seed=0)
        assert exc_info.value.obstruction["kind"] == "correlation"

    def test_rank_multiplicativity_across_fixtures(self):
        m = chsh_ideal_model()
        for aux, da, db in [
            (np.array([0.8, 0.0, 0.0, 0.6]), 2, 2),
            (np.kron([1.0, 0.0], [0.6, 0.8]), 2, 2),
            (np.array([0.5, 0.5, 0.5, 0.5]), 2, 2),
        ]:
            big = tensor_with_auxiliary(m, aux, da, db)
            w = find_local_dilation(big, m, seed=11)
            rep = verify_local_dilation(big, m, w, Tolerance(1e-8))
            assert rep.passed
            r = rep.schmidt_ranks
            assert r["psi"] == r["psi_tilde"] * r["aux"]

    def test_complex_phases_and_local_rotation(self):
        """Complex auxiliary amplitudes and generic local unitaries on top:
        the assembled witness must still verify exactly."""
        rng = np.random.default_rng(99)
        m = chsh_ideal_model()
        aux = np.array([0.8 * np.exp(1j * 0.7), 0, 0, 0.6 * np.exp(-1j * 1.2)])
        big = tensor_with_auxiliary(m, aux, 2, 2)
        ua, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        ub, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rotated = QuantumModel(
            scenario=big.scenario, dimA=4, dimB=4,
            M=[[ua @ op @ dagger(ua) for op in povm] for povm in big.M],
            N=[[ub @ op @ dagger(ub) for op in povm] for povm in big.N],
            psi=np.kron(ua, ub) @ big.psi,
        )
        w = find_local_dilation(rotated, m, seed=17)
        rep = verify_local_dilation(rotated, m, w, Tolerance(1e-8))
        assert rep.passed and rep.max_residual < 1e-10

    def test_centrally_supported_propagates(self):
        """When verify passes and S is centrally supported, so is the target."""
        m = chsh_ideal_model()
        aux = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2)
        big = tensor_with_auxiliary(m, aux, 2, 2)
        assert support_of(big).centrally_supported
        w = find_local_dilation(big, m, seed=4)
        assert verify_local_dilation(big, m, w, Tolerance(1e-8)).passed
        assert support_of(m).centrally_supported


_SC = Scenario(2, 2, 2, 2)
_Z = np.diag([1.0, -1.0])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_E0 = np.array([1.0, 0.0])
_PLUS_I = np.array([1.0, 1.0j]) / np.sqrt(2)   # Z and X outcomes 1/2, like |-i>
_MINUS_I = np.array([1.0, -1.0j]) / np.sqrt(2)


def _pvm(obs):
    return [(np.eye(2) + obs) / 2, (np.eye(2) - obs) / 2]


def _blocks(a, b):
    """The direct sum a (+) b."""
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2], out[2:, 2:] = a, b
    return out


def _model(M, N, psi):
    m = QuantumModel(scenario=_SC, dimA=M[0][0].shape[0], dimB=N[0][0].shape[0],
                     M=M, N=N, psi=np.asarray(psi, dtype=complex))
    assert validate_model(m).valid
    return m


_ZX = [_pvm(_Z), _pvm(_X)]


def _obstruction(S, T, tol=Tolerance()):
    with pytest.raises(NotDilatable) as exc_info:
        find_local_dilation(S, T, seed=0, tol=tol)
    return exc_info.value.obstruction


def irrep_dimension_pair():
    """Commuting effects: two 1-dim irreps per side, not T's 2-dim one."""
    T = _model(_ZX, _ZX, np.kron(_E0, _E0))
    com = [[np.eye(2), np.zeros((2, 2))], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]]
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    return _model(com, com, np.kron(plus, plus)), T


def intertwiner_pair():
    """A: two inequivalent qubit irreps, |<0|v>|^2 = 0.3 and 0.7, equally
    weighted: the mixture has T's correlation, neither component does."""
    def v_pvm(c):
        p = np.outer([np.sqrt(c), np.sqrt(1 - c)], [np.sqrt(c), np.sqrt(1 - c)])
        return [p, np.eye(2) - p]

    T = _model(_ZX, _ZX, np.kron(_E0, _E0))
    M = [[_blocks(p, p) for p in _pvm(_Z)],
         [_blocks(a, b) for a, b in zip(v_pvm(0.3), v_pvm(0.7))]]
    psi_a = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    return _model(M, _ZX, np.kron(psi_a, _E0)), T


def multiplicity_pair(theta=np.pi / 4):
    """S = T_A (x) C^2 on A; the two multiplicity copies carry
    cos(theta) |0>|+i> and sin(theta) |0>|-i>, which have the same Z/X
    correlation for every theta: the component has rank two, and only the
    |0>|+i> part lies along the ideal state."""
    T = _model(_ZX, _ZX, np.kron(_E0, _PLUS_I))
    M = [[np.kron(p, np.eye(2)) for p in povm] for povm in _ZX]
    coeff = np.zeros((2, 2, 2), dtype=complex)  # (i_A, aux, i_B)
    coeff[:, 0, :] = np.cos(theta) * np.outer(_E0, _PLUS_I)
    coeff[:, 1, :] = np.sin(theta) * np.outer(_E0, _MINUS_I)
    return _model(M, _ZX, coeff.reshape(-1)), T


def overlap_pair():
    """T's own representation with the complex-conjugate state: equal
    correlation, but f(Z_B X_B) differs; the state is orthogonal to the
    ideal one, so nothing of it lies along the ideal state."""
    T = _model(_ZX, _ZX, np.kron(_E0, _PLUS_I))
    return _model(_ZX, _ZX, np.kron(_E0, _MINUS_I)), T


def component_correlation_pair():
    """Reached only through the ambiguous intertwiner band: S's A side is
    T_A (+) T_A', where A' measures X rotated by delta = 10 eps.  The two
    irreps are 2.5 eps apart, inside [eps, 100 eps), so irrep_decompose
    keeps them split and each still matches T_A.  B = T_B (x) C^2, and the
    state puts |00> on the first A block and |01> on the second: the mixture
    has T's correlation up to 2.5 eps, each component's is off by 1/2, and
    |00> has overlap 1/sqrt(2) with the ideal |0>|+i>."""
    delta = 10 * Tolerance().eps
    x_rot = np.cos(delta) * _X + np.sin(delta) * _Z
    M = [[_blocks(p, p) for p in _pvm(_Z)],
         [_blocks(a, b) for a, b in zip(_pvm(_X), _pvm(x_rot))]]
    N = [[np.kron(p, np.eye(2)) for p in povm] for povm in _ZX]
    coeff = np.zeros((4, 4))  # (block_A i_A, i_B aux_B)
    coeff[0, 0] = coeff[2, 3] = 1 / np.sqrt(2)
    return _model(M, N, coeff.reshape(-1)), _model(_ZX, _ZX, np.kron(_E0, _PLUS_I))


COMPONENT_PAIRS = [irrep_dimension_pair, intertwiner_pair, multiplicity_pair, overlap_pair,
                   component_correlation_pair]


class TestComponentObstructions:
    """Each pair has T's correlation and a Schmidt rank that T's divides, so
    only the per-component checks can refuse it.  T measures Z and X on both
    sides and is irreducible.  A reached component that is not the pulled-back
    ideal state times a multiplicity vector reports its relative residual."""

    def test_irrep_dimension(self):
        ob = _obstruction(*irrep_dimension_pair())
        assert ob == {"kind": "component-state", "side": "A", "block": 0}

    def test_intertwiner(self):
        ob = _obstruction(*intertwiner_pair())
        assert (ob["kind"], ob["side"]) == ("component-state", "A")
        assert ob["residual"] > 1e-2

    def test_multiplicity_singular_value_ratio(self):
        ob = _obstruction(*multiplicity_pair())
        assert (ob["kind"], ob["block"]) == ("component-state", (0, 0))
        assert ob["residual"] == pytest.approx(1 / np.sqrt(2))

    def test_overlap(self):
        ob = _obstruction(*overlap_pair())
        assert ob == {"kind": "component-state", "block": (0, 0), "residual": 1.0}

    def test_component_correlation(self):
        S, T = component_correlation_pair()
        dec = irrep_decompose([op for povm in S.M for op in povm])
        assert [(b.n, b.m) for b in dec.blocks] == [(2, 1), (2, 1)]
        assert len(dec.ambiguous_pairs) == 1
        ob = _obstruction(S, T)
        assert (ob["kind"], ob["block"]) == ("component-state", (0, 0))
        assert ob["residual"] == pytest.approx(1 / np.sqrt(2))


_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def conjugate_pair():
    """``(S, T)`` in the (3,3,2,2) scenario on Phi+.  In T, Alice measures
    the Pauli X, Y and Z PVMs and Bob X, -Y and Z, so every pair is
    perfectly correlated.  S is T with every effect complex-conjugated: the
    same correlation, but Alice's irreps are inequivalent (XYZ = iI against
    -iI), so T is no local dilation of S."""
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)

    def model(M, N):
        return QuantumModel(scenario=Scenario(3, 3, 2, 2), dimA=2, dimB=2, M=M, N=N, psi=phi)

    def conj(family):
        return [[e.conj() for e in povm] for povm in family]

    T = model([_pvm(o) for o in (_X, _Y, _Z)], [_pvm(o) for o in (_X, -_Y, _Z)])
    return model(conj(T.M), conj(T.N)), T


class TestConjugatePair:
    def test_conjugate_is_a_component_state_obstruction(self):
        S, T = conjugate_pair()
        assert validate_model(S).valid and validate_model(T).valid
        np.testing.assert_allclose(correlation_of(S).p, correlation_of(T).p, atol=1e-15)
        ob = _obstruction(S, T)
        assert (ob["kind"], ob["side"], ob["block"]) == ("component-state", "A", 0)
        assert ob["residual"] == pytest.approx(1.0)


def reference_find_local_dilation(S, T, seed=0, tol=Tolerance()):
    """``find_local_dilation`` as it was before each reached component was
    projected onto the pulled-back ideal state.  A component then had to pass
    three tests: an SVD whose second-to-first singular value ratio was at most
    max(100 eps, 1e-10), its own correlation within ``reassembly`` of T's, and
    an overlap modulus with psi~ within a fixed 1e-7 of 1.  Its aux slots
    were the leading right singular vector times the overlap's phase, added
    one scalar at a time.  The rest is the library's code, unchanged."""
    p_t = correlation_of(T, tol).p
    if np.abs(correlation_of(S, tol).p - p_t).max() > tol.cut("residual"):
        raise NotDilatable("correlations differ", {"kind": "correlation"})
    rank_s = schmidt_decompose(S.psi, S.dimA, S.dimB, tol).rank
    if rank_s % schmidt_decompose(T.psi, T.dimA, T.dimB, tol).rank != 0:
        raise NotDilatable("schmidt-rank obstruction", {"kind": "schmidt-rank"})
    dec_ta = irrep_decompose(_flat(T.M), seed=seed + 2, tol=tol)
    dec_tb = irrep_decompose(_flat(T.N), seed=seed + 3, tol=tol)
    if not (dec_ta.irreducible and dec_tb.irreducible):
        raise NotDilatable("reducible ideal", {"kind": "reducible-ideal"})

    dec_a, dec_b, comp = block_components(S, seed, tol)
    inter_a, inter_b = {}, {}
    for pos, (dec, inter, dim_tilde, ideal) in enumerate((
            (dec_a, inter_a, T.dimA, T.M), (dec_b, inter_b, T.dimB, T.N))):
        for i in sorted({pair[pos] for pair in comp}):
            blk = dec.blocks[i]
            if blk.n != dim_tilde:
                raise NotDilatable("irrep dimension", {"kind": "component-state"})
            u, res = _intertwiner(blk.generators, _flat(ideal))
            if res > tol.cut("intertwiner"):
                raise NotDilatable("intertwiner", {"kind": "component-state"})
            inter[i] = u

    def aux_offsets(dec, inter):
        return np.cumsum([0] + [blk.m if idx in inter else blk.n * blk.m
                                for idx, blk in enumerate(dec.blocks)])

    off_a, off_b = aux_offsets(dec_a, inter_a), aux_offsets(dec_b, inter_b)
    aux = np.zeros((off_a[-1], off_b[-1]), dtype=complex)
    sc = S.scenario
    for (i, j), mat in sorted(comp.items()):
        ba, bb = dec_a.blocks[i], dec_b.blocks[j]
        u_svd, svals, vh_svd = np.linalg.svd(mat)
        if len(svals) > 1 and svals[1] > max(100 * tol.eps, 1e-10) * svals[0]:
            raise NotDilatable("multiplicity", {"kind": "component-state"})
        psi_ij = u_svd[:, 0]
        kappa = svals[0] * vh_svd[0, :]
        comp_model = QuantumModel(
            scenario=sc, dimA=ba.n, dimB=bb.n,
            M=[[ba.generators[x * sc.nA + a] for a in range(sc.nA)] for x in range(sc.nX)],
            N=[[bb.generators[y * sc.nB + b] for b in range(sc.nB)] for y in range(sc.nY)],
            psi=psi_ij,
        )
        comp_p = correlation_of(comp_model, Tolerance(tol.cut("coarse"))).p
        if float(np.abs(comp_p - p_t).max()) > tol.cut("reassembly"):
            raise NotDilatable("component correlation", {"kind": "component-correlation"})
        overlap = complex(np.vdot(T.psi, np.kron(inter_a[i], inter_b[j]) @ psi_ij))
        if abs(abs(overlap) - 1.0) > 1e-7:
            raise NotDilatable("overlap", {"kind": "component-state"})
        phase = overlap / abs(overlap)
        for k in range(ba.m):
            for l in range(bb.m):
                aux[off_a[i] + k, off_b[j] + l] += phase * kappa[k * bb.m + l]
    aux = aux.reshape(-1) / np.linalg.norm(aux)

    def assemble(dec, inter, off, tilde_dim):
        slots = np.eye(off[-1])
        ket0 = np.eye(tilde_dim, 1)
        return sum(np.kron(inter.get(idx, ket0), slots[:, off[idx]:off[idx + 1]])
                   @ dagger(blk.basis) for idx, blk in enumerate(dec.blocks))

    return DilationWitness(IA=assemble(dec_a, inter_a, off_a, T.dimA),
                           IB=assemble(dec_b, inter_b, off_b, T.dimB), aux=aux,
                           dimAuxA=int(off_a[-1]), dimAuxB=int(off_b[-1]))


IDEALS = {"chsh": chsh_ideal_model, "tilted0.6": lambda: optimal_tilted_model(0.6),
          "tilted1.5": lambda: optimal_tilted_model(1.5)}
REFERENCE_GRID = ([("chsh", k, padded, rotated) for k in range(2, 9)
                   for padded in (False, True) for rotated in (False, True)]
                  + [(ideal, k, padded, rotated) for ideal in ("tilted0.6", "tilted1.5")
                     for k in (2, 5) for padded in (False, True) for rotated in (False, True)])


def near_miss_pairs():
    """A 1e-3 rotation of one multiplicity copy, keyed by the obstruction it
    meets: the correlation (CHSH, a self-test) or the component state (Z/X
    on |0>|+i>, whose copies may carry |+i> and |-i> with T's correlation)."""
    chsh = chsh_ideal_model()
    big = tensor_with_auxiliary(chsh, random_state(np.random.default_rng(2), 4), 2, 2)
    theta = 1e-3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    # A = irrep (x) copy: rotate the irrep of copy 1 only
    ua = np.kron(rot, np.diag([0.0, 1.0])) + np.kron(np.eye(2), np.diag([1.0, 0.0]))
    return {"correlation": (replace(big, psi=np.kron(ua, np.eye(4)) @ big.psi), chsh),
            "component-state": multiplicity_pair(theta)}


class TestReferenceComponentPath:
    """The projection test against the replaced SVD / component-correlation /
    overlap / phase path: the same verdict, the same isometries bit for bit,
    and the auxiliary state within a few ulps."""

    @pytest.mark.parametrize("ideal, k, padded, rotated", REFERENCE_GRID)
    def test_dilatable_grid(self, ideal, k, padded, rotated):
        T = IDEALS[ideal]()
        rng = np.random.default_rng(k)
        S = tensor_with_auxiliary(T, random_state(rng, k * k), k, k)
        if padded:
            S = block_padded_model(S, rng, 2, 3)
        if rotated:
            S = rotate(S, haar_unitary(rng, S.dimA), haar_unitary(rng, S.dimB))
        new, ref = find_local_dilation(S, T, seed=0), reference_find_local_dilation(S, T)
        assert (new.dimAuxA, new.dimAuxB) == (ref.dimAuxA, ref.dimAuxB)
        for a, b in ((new.IA, ref.IA), (new.IB, ref.IB)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # the rotated CHSH (x) aux(k) at k = 4, 6, 8 differ by 1.4e-15 to
        # 1.6e-15, and there the projection's witness has the smaller verify
        # residual (1.7e-15 to 2.2e-15 against 4.2e-15 to 5.7e-15)
        assert np.abs(new.aux - ref.aux).max() <= 2e-15
        assert verify_local_dilation(S, T, new).passed

    @pytest.mark.parametrize("pair", COMPONENT_PAIRS + [conjugate_pair],
                             ids=lambda f: f.__name__)
    def test_both_refuse_the_component_pairs(self, pair):
        S, T = pair()
        for search in (find_local_dilation, reference_find_local_dilation):
            with pytest.raises(NotDilatable):
                search(S, T, seed=0)

    @pytest.mark.parametrize("kind", ["correlation", "component-state"])
    def test_both_refuse_a_near_miss(self, kind):
        S, T = near_miss_pairs()[kind]
        for search in (find_local_dilation, reference_find_local_dilation):
            with pytest.raises(NotDilatable) as exc_info:
                search(S, T, seed=0)
            assert exc_info.value.obstruction["kind"] == kind
