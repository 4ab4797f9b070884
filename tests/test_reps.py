"""Commutant, irrep decomposition, cyclic restriction, state equality."""

import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bellkit.io import load_model
from bellkit.linalg import DEFAULT_TOL, dagger, mat_norm
from bellkit.models import (
    CommutingModel,
    QuantumModel,
    Scenario,
    Word,
    _act,
    correlation_of,
    evaluate_moment,
)
from bellkit.presets import (
    block_padded_model,
    chsh_ideal_model,
    commuting_from_tensor,
    example_pair,
    random_povm,
    random_pvm,
    random_quantum_model,
    random_state,
    tensor_with_auxiliary,
)
from bellkit.reps import (
    _apply_letter,
    _cyclic_frame,
    _intertwiner,
    _irreducible_leaves,
    _max_abs_difference,
    commutant_basis,
    cyclic_restrict,
    irrep_decompose,
    scenario_letters,
    states_equal,
)


def rand_herm(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (x + x.conj().T) / 2


def rand_unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def constructed_rep(rng, structure, n_gens=2):
    """Generators realizing (+)_i M_{n_i} (x) Id_{m_i}, conjugated by a random unitary.

    Returns (generators, total_dim).  Uses random Hermitians per block, so the
    blocks are generically irreducible and mutually inequivalent.
    """
    d = sum(n * m for n, m in structure)
    u = rand_unitary(rng, d)
    gens = []
    for _ in range(n_gens):
        blocks = []
        for n, m in structure:
            blocks.append(np.kron(rand_herm(rng, n), np.eye(m)))
        full = np.zeros((d, d), dtype=complex)
        off = 0
        for b in blocks:
            k = b.shape[0]
            full[off:off + k, off:off + k] = b
            off += k
        gens.append(u @ full @ dagger(u))
    return gens, d


class TestCommutant:
    def test_identity_generator_full_commutant(self):
        basis = commutant_basis([np.eye(3)])
        assert len(basis) == 9

    def test_matrix_units_scalar_commutant(self):
        d = 3
        units = [np.zeros((d, d)) for _ in range(d * d)]
        for i in range(d):
            for j in range(d):
                units[i * d + j][i, j] = 1.0
        basis = commutant_basis(units)
        assert len(basis) == 1
        t = basis[0]
        np.testing.assert_allclose(t, t[0, 0] * np.eye(d), atol=1e-10)

    def test_multiplicity_two_block(self):
        rng = np.random.default_rng(15)
        gens, _ = constructed_rep(rng, [(2, 2)])
        assert len(commutant_basis(gens)) == 4

    def test_dimension_matches_sum_of_squares(self):
        rng = np.random.default_rng(16)
        structures = [
            [(2, 1)], [(1, 2)], [(2, 2)], [(2, 1), (1, 1)],
            [(2, 1), (2, 1)], [(3, 1), (1, 2)], [(2, 2), (1, 1)],
        ]
        for st in structures:
            gens, _ = constructed_rep(rng, st)
            expected = sum(m * m for _, m in st)
            assert len(commutant_basis(gens)) == expected, st

    def test_basis_is_hs_orthonormal(self):
        rng = np.random.default_rng(19)
        gens, _ = constructed_rep(rng, [(2, 2), (1, 1)])
        basis = commutant_basis(gens)
        gram = np.array([[np.trace(dagger(a) @ b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-10)


def jordan_pair(rng, d):
    """Two random rank-d/2 projections: d/2 inequivalent 2-dim irreps (Jordan)."""
    return random_pvm(rng, d, 2)[0], random_pvm(rng, d, 2)[0]


def redundant_additions(gens):
    """Generators inside span{I, gens}; adding them must not change the commutant."""
    p, q = gens[0], gens[1]
    d = p.shape[0]
    return {
        "adjoints": [dagger(g) for g in gens],
        "complement": [np.eye(d) - p],
        "duplicate": [p.copy()],
        "scalar-multiple": [2.5 * q],
        # p q lies in the algebra, so it and its adjoint leave the commutant alone
        "non-hermitian-and-adjoint": [p @ q, dagger(p @ q)],
    }


def assert_commutant_basis(basis, gens):
    """HS-orthonormal and commuting with every generator within the rank cutoff."""
    gram = np.array([[np.trace(dagger(a) @ b) for b in basis] for a in basis])
    np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-10)
    cutoff = DEFAULT_TOL.eps * max(1.0, max(mat_norm(g) for g in gens))
    for t in basis:
        for g in gens:
            assert mat_norm(g @ t - t @ g) <= cutoff


class TestCommutantRedundancy:
    @pytest.mark.parametrize("family", ["jordan", "blocks"])
    @pytest.mark.parametrize("addition", [
        "adjoints", "complement", "duplicate", "scalar-multiple", "non-hermitian-and-adjoint",
    ])
    def test_redundant_generators_leave_commutant(self, family, addition):
        rng = np.random.default_rng(31)
        if family == "jordan":
            gens, expected = list(jordan_pair(rng, 6)), 3
        else:
            gens, _ = constructed_rep(rng, [(2, 2), (1, 1)])
            expected = 5
        assert len(commutant_basis(gens)) == expected
        full = gens + redundant_additions(gens)[addition]
        basis = commutant_basis(full)
        assert len(basis) == expected
        assert_commutant_basis(basis, full)

    def test_all_additions_at_once(self):
        rng = np.random.default_rng(32)
        gens = list(jordan_pair(rng, 8))
        full = gens + [g for extra in redundant_additions(gens).values() for g in extra]
        basis = commutant_basis(full)
        assert len(basis) == 4
        assert_commutant_basis(basis, full)

    def test_identity_only_family(self):
        gens = [np.eye(3), 2.0 * np.eye(3), np.eye(3)]
        basis = commutant_basis(gens)
        assert len(basis) == 9
        assert_commutant_basis(basis, gens)

    def test_near_parallel_generators(self):
        # P(1e-11) adds a direction far below the rank cut; P(pi/4) must still count
        def proj(theta):
            v = np.array([np.cos(theta / 2), np.sin(theta / 2)])
            return np.outer(v, v)

        gens = [proj(0.0), proj(1e-11), proj(np.pi / 4)]
        basis = commutant_basis(gens)
        assert len(basis) == 1
        assert_commutant_basis(basis, gens)
        assert irrep_decompose(gens, seed=0).irreducible

    def test_rank_cut_counts_every_copy(self):
        # eps X alone sits below the 1e-9 cut (singular value 2 eps), but two
        # copies stack to 2 sqrt(2) eps above it, as in the full stacked map
        p = np.diag([1.0, 0.0])
        x = 0.4e-9 * np.array([[0.0, 1.0], [1.0, 0.0]])
        assert len(commutant_basis([p, x])) == 2
        assert len(commutant_basis([p, x, x])) == 1


def full_stack_commutant(gens, eps=DEFAULT_TOL.eps):
    """Reference: null space of every generator's d^2 x d^2 commutator map,
    stacked, cut at commutant_basis's cutoff; returns a d^2 x r isometry."""
    d = gens[0].shape[0]
    eye = np.eye(d)
    cutoff = eps * max(1.0, max(mat_norm(g) for g in gens))
    stack = np.vstack([np.kron(g, eye) - np.kron(eye, g.T) for g in gens])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    return vh[int(np.sum(s > cutoff)):].conj().T


def assert_matches_reference(gens, ref_gens=None, tol=DEFAULT_TOL):
    """Same dimension as the full-stack reference, commutant projectors within
    1e-12, and every ||[G, T]||_F <= 1e-12.  ``ref_gens`` may drop inputs that
    lie in span{I, others}, which leaves the commutant unchanged."""
    ref = full_stack_commutant(gens if ref_gens is None else ref_gens, tol.eps)
    basis = np.array(commutant_basis(gens, tol))
    assert len(basis) == ref.shape[1]
    flat = basis.reshape(len(basis), -1).T
    np.testing.assert_allclose(dagger(flat) @ flat, np.eye(len(basis)), atol=1e-12)
    # ||P_ref - P_new||_2 = ||(I - P_ref) flat||_2 for orthonormal bases of equal size
    assert np.linalg.norm(flat - ref @ (dagger(ref) @ flat)) <= 1e-12
    for g in gens:
        assert np.linalg.norm(g @ basis - basis @ g, axis=(1, 2)).max() <= 1e-12
    return len(basis)


def conjugated(gens, u):
    return [u @ g @ dagger(u) for g in gens]


class TestBlockDiagonalCommutant:
    """commutant_basis against the full d^2-unknown stack it replaces."""

    @pytest.mark.parametrize("d", [8, 16, 24, 32])
    def test_binary_pvm_families(self, d):
        rng = np.random.default_rng(100 + d)
        p, q = random_pvm(rng, d, 2), random_pvm(rng, d, 2)
        # the second effect of each PVM is I minus the first
        assert assert_matches_reference(p + q, [p[0], q[0]]) == d // 2

    @pytest.mark.parametrize("d", [8, 16, 24, 32])
    def test_povm_families_with_multiplicity(self, d):
        rng = np.random.default_rng(200 + d)
        u = rand_unitary(rng, d)
        e3 = conjugated([np.kron(e, np.eye(2)) for e in random_povm(rng, d // 2, 3)], u)
        e2 = conjugated([np.kron(e, np.eye(2)) for e in random_povm(rng, d // 2, 2)], u)
        assert assert_matches_reference(e3 + e2, e3[:2] + e2[:1]) == 4

    @pytest.mark.parametrize("k", [2, 8, 16])
    def test_chsh_tensor_auxiliary(self, k):
        m = chsh_ideal_model()
        gens = [np.kron(op, np.eye(k)) for povm in m.M for op in povm]
        ref_gens = [np.kron(povm[0], np.eye(k)) for povm in m.M]
        assert assert_matches_reference(gens, ref_gens) == k * k

    def test_non_star_closed_family(self):
        # the Hermitian part of the Jordan block would cut its commutant span{I, J}
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert assert_matches_reference([jordan]) == 2
        rng = np.random.default_rng(41)
        u = rand_unitary(rng, 6)
        # H is the second input here: I (x) R1, with every eigenvalue doubled
        gens = conjugated([np.kron(jordan, np.eye(3)), np.kron(np.eye(2), rand_herm(rng, 3)),
                           np.kron(np.eye(2), rand_herm(rng, 3))], u)
        assert assert_matches_reference(gens) == 2

    def test_no_hermitian_generator(self):
        rng = np.random.default_rng(42)
        u = rand_unitary(rng, 6)
        x = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
        gens = conjugated([np.kron(a, np.eye(2)) for a in x], u)
        assert all(mat_norm(g - dagger(g)) > 1 for g in gens)
        assert assert_matches_reference(gens) == 4

    def test_scalar_first_generator(self):
        rng = np.random.default_rng(43)
        p, q = jordan_pair(rng, 8)
        assert assert_matches_reference([2.0 * np.eye(8), p, q]) == 4

    @staticmethod
    def close_pair_family(rng, delta):
        """H with eigenvalues 0, delta, 1, 1, 1/2; P projects on H's 1-eigenspace,
        x acts inside it and y couples the 0- and 1/2-eigenvectors."""
        u = rand_unitary(rng, 5)
        h = u @ np.diag([0.0, delta, 1.0, 1.0, 0.5]) @ dagger(u)
        p, x, y = np.zeros((3, 5, 5))
        p[2, 2] = p[3, 3] = 1.0
        x[2, 3] = x[3, 2] = 1.0
        y[0, 4] = y[4, 0] = 1.0
        return h, conjugated([p, x, y], u)

    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_eigenvalues_astride_the_merge_gap(self, factor):
        # at the default tol the merge gap is 1e-3 (scale 1): H's eigenvalues
        # 0 and delta share a block below it and are split above it
        h, (p, x, y) = self.close_pair_family(np.random.default_rng(44), 1e-3 * factor)
        # P does not tell 0 from delta: merged, only H's own map keeps them apart
        assert assert_matches_reference([h]) == 1 + 1 + 4 + 1
        assert assert_matches_reference([h, p]) == 1 + 1 + 4 + 1
        assert assert_matches_reference([h, x, y]) == 1 + 1 + 2

    def test_close_eigenvalues_share_a_block(self):
        # split, the eigenvectors of 0 and 1e-5 would be mixed by about
        # eps_mach / 1e-5 = 2e-11, and so would T's commutator with y
        h, (_, x, y) = self.close_pair_family(np.random.default_rng(46), 1e-5)
        assert assert_matches_reference([h, x, y]) == 1 + 1 + 2

    def test_every_generator_order(self):
        rng = np.random.default_rng(45)
        gens, d = constructed_rep(rng, [(2, 2), (1, 1)])
        # degenerate H, generic H, a non-Hermitian member, a scalar
        family = [gens[0], gens[1], gens[0] @ gens[1], np.eye(d)]
        for order in itertools.permutations(family):
            assert assert_matches_reference(list(order)) == 5


class TestIrrepDecompose:
    def test_chsh_alice_irreducible(self):
        m = chsh_ideal_model()
        gens = [op for povm in m.M for op in povm]
        dec = irrep_decompose(gens, seed=0)
        assert dec.irreducible
        assert dec.blocks[0].n == 2 and dec.blocks[0].m == 1

    def test_doubled_generator_multiplicity_two(self):
        rng = np.random.default_rng(20)
        g = rand_herm(rng, 3)
        h = rand_herm(rng, 3)
        gens = [np.kron(x, np.eye(2)).reshape(6, 6) for x in (g, h)]
        # kron(g, I2) realizes multiplicity 2 directly
        dec = irrep_decompose(gens, seed=1)
        assert [(b.n, b.m) for b in dec.blocks] == [(3, 2)]

    def test_inequivalent_blocks_stay_split(self):
        rng = np.random.default_rng(22)
        gens, _ = constructed_rep(rng, [(2, 1), (2, 1)])
        dec = irrep_decompose(gens, seed=2)
        assert sorted((b.n, b.m) for b in dec.blocks) == [(2, 1), (2, 1)]
        assert dec.commutant_dim == 2 == len(commutant_basis(gens))

    def test_thirty_constructed_reps_recovered(self):
        rng = np.random.default_rng(24)
        for trial in range(30):
            n_blocks = int(rng.integers(1, 4))
            structure = []
            total = 0
            for _ in range(n_blocks):
                n = int(rng.integers(1, 4))
                m = int(rng.integers(1, 3))
                if total + n * m > 12:
                    break
                structure.append((n, m))
                total += n * m
            if not structure:
                structure = [(2, 1)]
            gens, d = constructed_rep(rng, structure)
            dec = irrep_decompose(gens, seed=trial)
            got = sorted((b.n, b.m) for b in dec.blocks)
            # random same-dimension irreps are a.s. inequivalent, so the
            # multiset of (n, m) pairs must match exactly
            assert got == sorted(structure), f"trial {trial}: {got} != {structure}"
            assert dec.commutant_dim == len(commutant_basis(gens))
            defect = max(mat_norm(dec.reassemble(t) - gens[t]) for t in range(len(gens)))
            assert defect < 1e-8
            u = dec.change_of_basis()
            assert mat_norm(dagger(u) @ u - np.eye(d)) < 1e-10

    @pytest.mark.parametrize("d", [24, 32])
    def test_binary_pvm_jordan_blocks_at_scale(self, d):
        rng = np.random.default_rng(d)
        gens = random_pvm(rng, d, 2) + random_pvm(rng, d, 2)
        dec = irrep_decompose(gens, seed=0)
        assert len(dec.blocks) == d // 2
        assert all((b.n, b.m) == (2, 1) for b in dec.blocks)
        assert dec.commutant_dim == len(commutant_basis(gens)) == d // 2
        assert dec.reassembly_defect < 1e-8

    def test_povm_family_blocks(self):
        # diag(a, b, b) algebra: two inequivalent characters, multiplicities 1 and 2
        s3, _ = example_pair()
        gens = [op for povm in s3.M for op in povm]
        dec = irrep_decompose(gens, seed=0)
        assert sorted((b.n, b.m) for b in dec.blocks) == [(1, 1), (1, 2)]


def kron_intertwiner(gens1, gens2):
    """The Kronecker-matrix form of ``_intertwiner``: the stacked maps
    ``X -> X g1 - g2 X`` as ``Id (x) g1^T - g2 (x) Id``, n^2 x n^2 each."""
    n = gens1[0].shape[0]
    eye = np.eye(n)
    rows = [np.kron(eye, g1.T) - np.kron(g2, eye) for g1, g2 in zip(gens1, gens2)]
    _, _, vh = np.linalg.svd(np.vstack(rows), full_matrices=False)
    u_svd, _, vh_x = np.linalg.svd(vh[-1, :].conj().reshape(n, n))
    u = u_svd @ vh_x
    flat = u.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat))]
    u = u * (abs(pivot) / pivot)
    residual = max(mat_norm(u @ g1 @ dagger(u) - g2) for g1, g2 in zip(gens1, gens2))
    return u, residual


def assert_intertwiner_matches_kron(gens1, gens2):
    u, res = _intertwiner(gens1, gens2)
    u_ref, res_ref = kron_intertwiner(gens1, gens2)
    assert u.tobytes() == u_ref.tobytes()  # bitwise, signed zeros included
    assert res == res_ref
    return res


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestIntertwinerMatchesKronecker:
    """The Sylvester column builder reproduces the Kronecker matrix entry for
    entry, so the intertwiner and its residual are bitwise those of the
    Kronecker solve."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equivalent_families(self, n):
        rng = np.random.default_rng(100 + n)
        gens1 = [rand_herm(rng, n) for _ in range(3)]
        v = rand_unitary(rng, n)
        gens2 = [v @ g @ dagger(v) for g in gens1]
        assert assert_intertwiner_matches_kron(gens1, gens2) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_inequivalent_families(self, n):
        rng = np.random.default_rng(200 + n)
        gens1 = [rand_herm(rng, n) for _ in range(2)]
        gens2 = [rand_herm(rng, n) for _ in range(2)]
        assert_intertwiner_matches_kron(gens1, gens2)

    @pytest.mark.parametrize("name", ["chsh_ideal", "exA_S", "exA_Shat", "chsh_aux_k2",
                                      "chsh_aux_k2_padded"])
    def test_irrep_fixture_leaves(self, name):
        # every pair of leaves irrep_decompose compares, and every leaf
        # against the CHSH irreps find_local_dilation matches it to
        model = load_model(FIXTURES / f"{name}.model.json")
        chsh = chsh_ideal_model()
        for family, ideal in ((model.M, chsh.M), (model.N, chsh.N)):
            gens = [op for povm in family for op in povm]
            leaves = _irreducible_leaves(gens, np.random.default_rng(0), DEFAULT_TOL)
            leaf_gens = [[dagger(v) @ g @ v for g in gens] for v in leaves]
            targets = leaf_gens + [[op for povm in ideal for op in povm]]
            for lg, other in itertools.product(leaf_gens, targets):
                if lg[0].shape == other[0].shape:
                    assert_intertwiner_matches_kron(lg, other)


class TestCyclicRestrict:
    def test_already_cyclic_identity(self):
        m = chsh_ideal_model()
        cm = cyclic_restrict(m)
        assert not cm.restricted
        assert cm.dim == 4
        assert cm.model is m

    def test_unreachable_block_stripped(self):
        rng = np.random.default_rng(26)
        base = random_quantum_model(rng, Scenario(1, 1, 2, 2), 2, 2)
        cext = commuting_from_tensor(base)

        def double(op):
            out = np.zeros((8, 8), dtype=complex)
            out[:4, :4] = op
            out[4:, 4:] = op
            return out

        doubled = CommutingModel(
            scenario=base.scenario, dim=8,
            M=[[double(op) for op in povm] for povm in cext.M],
            N=[[double(op) for op in povm] for povm in cext.N],
            psi=np.concatenate([cext.psi, np.zeros(4)]),
        )
        cm = cyclic_restrict(doubled)
        assert cm.restricted
        assert cm.dim <= 4  # the mirror block is never reached

    def test_example_commuting_cyclic_dim_two(self):
        _, s2 = example_pair()
        cm = cyclic_restrict(commuting_from_tensor(s2))
        assert cm.dim == 2
        # spanned by {psi, (M0 x Id) psi}: the identity word plus one letter
        keys = [w.key() for w in cm.basis_words]
        assert keys[0] == (0, ())
        assert keys[1] == (1, (("A", 0, 0),))

    def test_preserves_correlation_and_moments(self):
        rng = np.random.default_rng(28)
        m = random_quantum_model(rng, Scenario(2, 2, 2, 2), 2, 3)
        cm = cyclic_restrict(m)
        np.testing.assert_allclose(correlation_of(cm.model).p, correlation_of(m).p,
                                   atol=1e-10)
        letters = [(x, a) for x in range(2) for a in range(2)]
        words = [(), *[(l,) for l in letters]]
        words += [w1 + w2 for w1 in words[1:] for w2 in words[1:]]
        for wa in words:
            for wb in words:
                if len(wa) + len(wb) > 4:
                    continue
                v1 = evaluate_moment(m, Word(wa, wb))
                v2 = evaluate_moment(cm.model, Word(wa, wb))
                assert abs(v1 - v2) < 1e-10

    def test_cyclic_model_commutant_stabilizer_trivial(self):
        """No commutant element other than Id fixes the state of a cyclic model."""
        _, s2 = example_pair()
        cm = cyclic_restrict(commuting_from_tensor(s2))
        gens = [op for fam in (cm.model.M, cm.model.N) for povm in fam for op in povm]
        basis = commutant_basis(gens)
        # solve (sum_k c_k B_k) psi = psi; the affine solution set must be {Id}
        design = np.column_stack([b @ cm.model.psi for b in basis])
        sol, *_ = np.linalg.lstsq(design, cm.model.psi, rcond=None)
        t = sum(c * b for c, b in zip(sol, basis))
        np.testing.assert_allclose(t, np.eye(cm.dim), atol=1e-9)
        null_dim = design.shape[1] - np.linalg.matrix_rank(design, tol=1e-9)
        assert null_dim == 0


class TestStatesEqual:
    def test_reflexive(self):
        m = chsh_ideal_model()
        equal, w = states_equal(m, m)
        assert equal
        assert w.state_residual < 1e-9
        assert w.intertwiner_residual < 1e-8

    def test_auxiliary_invisible(self):
        rng = np.random.default_rng(32)
        m = random_quantum_model(rng, Scenario(2, 2, 2, 2), 2, 2)
        aux = np.kron([0.6, 0.8], [0.0, 1.0])
        big = tensor_with_auxiliary(m, aux, 2, 2)
        equal, _ = states_equal(m, big)
        assert equal

    def test_example_pair_equal(self):
        s3, s2 = example_pair()
        equal, w = states_equal(s3, s2)
        assert equal
        assert w.state_residual < 1e-9

    def test_different_correlations_distinguished(self):
        m1 = chsh_ideal_model()
        rng = np.random.default_rng(33)
        m2 = random_quantum_model(rng, Scenario(2, 2, 2, 2), 2, 2)
        equal, witness = states_equal(m1, m2)
        assert not equal
        # a degree-(1,1) moment already differs for generic models
        assert witness.word.length <= 4
        assert abs(witness.value1 - witness.value2) > 1e-6

    def test_symmetric_on_fixtures(self):
        s3, s2 = example_pair()
        assert states_equal(s3, s2)[0] == states_equal(s2, s3)[0]
        m = chsh_ideal_model()
        rng = np.random.default_rng(34)
        other = random_quantum_model(rng, Scenario(2, 2, 2, 2), 2, 2)
        assert states_equal(m, other)[0] == states_equal(other, m)[0] is False

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(36)
        m = random_quantum_model(rng, Scenario(2, 2, 2, 2), 2, 3)
        ua = rand_unitary(rng, 2)
        ub = rand_unitary(rng, 3)
        rotated = QuantumModel(
            scenario=m.scenario, dimA=2, dimB=3,
            M=[[ua @ op @ dagger(ua) for op in povm] for povm in m.M],
            N=[[ub @ op @ dagger(ub) for op in povm] for povm in m.N],
            psi=np.kron(ua, ub) @ m.psi,
        )
        equal, _ = states_equal(m, rotated)
        assert equal

    def test_projective_vs_uniform_povm_same_correlation(self):
        """Same correlation, different abstract state: a longer word separates."""
        sc = Scenario(1, 1, 2, 2)
        half = np.eye(2) / 2
        proj = np.diag([1.0, 0.0])
        uniform = QuantumModel(scenario=sc, dimA=2, dimB=2,
                               M=[[half, half]], N=[[half, half]],
                               psi=np.array([1, 0, 0, 1]) / np.sqrt(2))
        seesaw = QuantumModel(scenario=sc, dimA=2, dimB=2,
                              M=[[proj, np.eye(2) - proj]],
                              N=[[half, half]],
                              psi=np.array([1, 0, 0, 1]) / np.sqrt(2))
        np.testing.assert_allclose(correlation_of(uniform).p, correlation_of(seesaw).p,
                                   atol=1e-12)
        equal, witness = states_equal(uniform, seesaw)
        assert not equal
        assert len(witness.word.lettersA) >= 2  # degree-(1,1) moments all agree

    def test_scenario_mismatch_rejected(self):
        m1 = chsh_ideal_model()
        _, s2 = example_pair()
        with pytest.raises(ValueError):
            states_equal(m1, s2)

    def test_tensor_vs_commuting_carrier(self):
        _, s2 = example_pair()
        equal, w = states_equal(s2, commuting_from_tensor(s2))
        assert equal and w.state_residual < 1e-10

    def test_single_space_commuting_model(self):
        """A commuting model with no tensor structure at all still restricts
        and compares against itself."""
        z = np.diag([1.0, 0.0, 0.0])
        q = np.diag([1.0, 1.0, 0.0])
        m = CommutingModel(scenario=Scenario(1, 1, 2, 2), dim=3,
                           M=[[z, np.eye(3) - z]], N=[[q, np.eye(3) - q]],
                           psi=np.ones(3) / np.sqrt(3))
        cm = cyclic_restrict(m)
        assert cm.dim == 3
        equal, _ = states_equal(m, m)
        assert equal


# ------------------------------------------- references for the frame and unitary

def reference_cyclic_frame(model, tol):
    """The per-vector Gram-Schmidt frame that ``_cyclic_frame`` replaced."""
    letters = scenario_letters(model.scenario)
    psi = model.psi
    words, basis = [Word()], [psi / np.linalg.norm(psi)]
    level = [(Word(), psi.copy())]
    while level and len(basis) < len(psi):
        candidates = {}
        for letter in letters:
            for w, raw in level:
                cw = w.prepend(letter)
                if cw.key() not in candidates:
                    candidates[cw.key()] = (cw, _apply_letter(model, letter, raw))
        next_level = []
        for key in sorted(candidates):
            cw, vec = candidates[key]
            resid = vec.copy()
            for _ in range(2):
                for b in basis:
                    resid = resid - b * np.vdot(b, resid)
            norm = float(np.linalg.norm(resid))
            if norm >= tol.eps * 2.0:
                basis.append(resid / norm)
                words.append(cw)
                next_level.append((cw, vec))
                if len(basis) == len(psi):
                    break
        level = next_level
    return words, np.column_stack(basis)


def reference_frame_vectors(model, words):
    """Each frame word's vector rebuilt from psi, B's letters first, rightmost
    first, then A's: the letter loop that the word vector table replaced."""
    cols = []
    for cw in words:
        v = model.psi
        for side, letters in (("B", cw.lettersB), ("A", cw.lettersA)):
            family = model.M if side == "A" else model.N
            for x, a in reversed(letters):
                v = _act(model, side, family[x][a], v)
        cols.append(v)
    return np.column_stack(cols)


def reference_restrict(model, tol):
    """(restricted model, basis words), compressing one column at a time."""
    words, q = reference_cyclic_frame(model, tol)
    if q.shape[1] == len(model.psi):
        return model, words

    def compress(side, op):
        acted = np.column_stack([_act(model, side, op, q[:, j]) for j in range(q.shape[1])])
        t = dagger(q) @ acted
        return (t + dagger(t)) / 2

    sc = model.scenario
    return CommutingModel(
        scenario=sc, dim=q.shape[1],
        M=[[compress("A", op) for op in povm] for povm in model.M],
        N=[[compress("B", op) for op in povm] for povm in model.N],
        psi=dagger(q) @ model.psi,
    ), words


def reference_states_equal(m1, m2, tol):
    """The same B x E Gram block comparison on the per-vector Gram-Schmidt
    frame and the letter-loop word vectors.  Returns the verdict and a dict
    of what the comparison decided, with both extended frames."""
    (r1, words1), (r2, words2) = reference_restrict(m1, tol), reference_restrict(m2, tol)
    letters = scenario_letters(m1.scenario)
    merged = {w.key(): w for w in words1 + words2}
    extended = dict(merged)
    for key in sorted(merged):
        for letter in letters:
            cw = merged[key].prepend(letter)
            extended.setdefault(cw.key(), cw)
    frame_words = [extended[k] for k in sorted(extended)]
    rows = [k for k, w in enumerate(frame_words) if w.key() in merged]
    v1 = reference_frame_vectors(r1, frame_words)
    v2 = reference_frame_vectors(r2, frame_words)
    g1, g2 = dagger(v1[:, rows]) @ v1, dagger(v2[:, rows]) @ v2
    diff = np.abs(g1 - g2)
    out = {"gram_residual": float(diff.max()), "words_checked": len(frame_words),
           "frames": (v1, v2)}
    if out["gram_residual"] > tol.eps * 2.0:
        i, j = np.unravel_index(int(diff.argmax()), diff.shape)
        out["moment"] = frame_words[rows[i]].adjoint_times(frame_words[j])
        return False, out
    return True, out


def reference_full_gram_residual(v1, v2):
    """``max |G1 - G2|`` over the whole E x E Gram matrices of two frames,
    which the B x E block replaced, formed 128 rows at a time."""
    return max(float(np.abs(dagger(v1[:, k:k + 128]) @ v1 - dagger(v2[:, k:k + 128]) @ v2).max())
               for k in range(0, v1.shape[1], 128))


def reference_unitary(v1, v2):
    """The unitary from the eigh of the averaged E x E Gram (cut at 1e-12 of
    its top eigenvalue) that the SVD witness replaced."""
    g = (dagger(v1) @ v1 + dagger(v2) @ v2) / 2
    vals, vecs = np.linalg.eigh((g + dagger(g)) / 2)
    keep = vals > max(vals.max(initial=0.0), 1.0) * 1e-12
    coeff = vecs[:, keep] @ np.diag(1.0 / np.sqrt(vals[keep]))
    return (v2 @ coeff) @ dagger(v1 @ coeff)


def local_rotation(m, rng):
    ua, ub = rand_unitary(rng, m.dimA), rand_unitary(rng, m.dimB)
    return QuantumModel(
        scenario=m.scenario, dimA=m.dimA, dimB=m.dimB,
        M=[[ua @ op @ dagger(ua) for op in povm] for povm in m.M],
        N=[[ub @ op @ dagger(ub) for op in povm] for povm in m.N],
        psi=np.kron(ua, ub) @ m.psi,
    )


def seeded_pair(kind, d):
    """(m1, m2, restricted) on a (2,2,2,2) scenario; every kind but "other"
    induces equal states.  "padded" pads a d-2 model with a 2-dim junk block
    per side, so the first model's cyclic subspace is proper."""
    rng = np.random.default_rng(1000 + d)
    sc = Scenario(2, 2, 2, 2)
    if kind == "padded":
        base = random_quantum_model(rng, sc, d - 2, d - 2)
        return block_padded_model(base, rng, 2, 2), local_rotation(base, rng), True
    base = random_quantum_model(rng, sc, d, d)
    if kind == "rotation":
        return base, local_rotation(base, rng), False
    if kind == "commuting":
        return base, commuting_from_tensor(base), False
    other = QuantumModel(scenario=sc, dimA=d, dimB=d, M=base.M,
                         N=[base.N[0], random_povm(rng, d, 2)], psi=base.psi)
    return base, other, False


# ("other", 4) is a pair whose Gram gap peaks off the first row of the block
PAIRS = [("rotation", 8), ("commuting", 8), ("other", 8), ("rotation", 10), ("padded", 10),
         ("other", 4), ("rotation", 16), ("commuting", 16), ("other", 16)]
# the E x E eigh of reference_unitary is affordable up to d = 10
EIGH_PAIRS = [(kind, d) for kind, d in PAIRS if kind != "other" and d <= 10]


class TestFrameAndUnitaryAgainstReference:
    """The blocked cyclic frame, the B x E Gram block and the SVD unitary
    decide what the per-vector Gram-Schmidt frame, the full E x E Gram and
    the Gram-eigh unitary decided, at benchmark sizes and at d = 16."""

    @pytest.mark.parametrize("kind,d", PAIRS)
    def test_cyclic_frame_retains_the_same_words(self, kind, d):
        for m in seeded_pair(kind, d)[:2]:
            words, q = _cyclic_frame(m, DEFAULT_TOL)
            ref_words, ref_q = reference_cyclic_frame(m, DEFAULT_TOL)
            assert words == ref_words
            np.testing.assert_allclose(q, ref_q, atol=1e-9)
            assert mat_norm(dagger(q) @ q - np.eye(q.shape[1])) < 1e-13

    @pytest.mark.parametrize("kind,d", PAIRS)
    def test_states_equal_matches_reference(self, kind, d):
        m1, m2, restricted = seeded_pair(kind, d)
        equal, witness = states_equal(m1, m2)
        ref_equal, ref = reference_states_equal(m1, m2, DEFAULT_TOL)
        full_residual = reference_full_gram_residual(*ref["frames"])
        assert equal == ref_equal == (full_residual <= DEFAULT_TOL.cut("frame")) == (kind != "other")
        assert cyclic_restrict(m1).restricted == restricted
        if not equal:
            assert witness.word == ref["moment"]
            value1, value2 = evaluate_moment(m1, witness.word), evaluate_moment(m2, witness.word)
            assert abs(value1 - witness.value1) < 1e-12
            assert abs(value2 - witness.value2) < 1e-12
            assert abs(value1 - value2) > DEFAULT_TOL.cut("frame")
            return
        assert witness.words_checked == ref["words_checked"]
        if restricted:
            assert abs(witness.gram_residual - ref["gram_residual"]) < 1e-12
        else:
            assert witness.gram_residual == ref["gram_residual"]
        assert witness.state_residual < 1e-12
        assert witness.intertwiner_residual < 1e-12

    @pytest.mark.parametrize("kind,d", EIGH_PAIRS)
    def test_unitary_matches_gram_eigh(self, kind, d):
        m1, m2, _ = seeded_pair(kind, d)
        equal, witness = states_equal(m1, m2)
        assert equal
        _, ref = reference_states_equal(m1, m2, DEFAULT_TOL)
        np.testing.assert_allclose(witness.unitary, reference_unitary(*ref["frames"]), atol=1e-9)

    def test_unitary_at_d12(self):
        m1, m2, _ = seeded_pair("rotation", 12)
        equal, witness = states_equal(m1, m2)
        assert equal
        u = witness.unitary
        assert u.shape == (144, 144)
        assert mat_norm(u @ dagger(u) - np.eye(144)) <= 1e-12

    @pytest.mark.parametrize("dimA,dimB", [(3, 5), (5, 3), (4, 4)])
    def test_act_on_a_block_matches_columns(self, dimA, dimB):
        rng = np.random.default_rng(dimA * 10 + dimB)
        m = random_quantum_model(rng, Scenario(2, 2, 2, 2), dimA, dimB)
        block = rng.normal(size=(dimA * dimB, 7)) + 1j * rng.normal(size=(dimA * dimB, 7))
        for model in (m, commuting_from_tensor(m)):
            for side, op in (("A", model.M[1][0]), ("B", model.N[0][1])):
                by_column = np.column_stack(
                    [_act(model, side, op, block[:, j]) for j in range(7)])
                np.testing.assert_allclose(_act(model, side, op, block), by_column,
                                           rtol=0, atol=1e-14)


def _traced_peak(f, *args):
    """``(f(*args), peak bytes traced while it ran)``."""
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGramComparisonMemory:
    """The Gram comparison of ``states_equal`` works on row blocks: the values
    and the first row-major argmax are those of ``np.abs(g1 - g2)``, and no
    full-size difference is allocated."""

    def reference(self, g1, g2):
        diff = np.abs(g1 - g2)
        return float(diff.max()), np.unravel_index(int(diff.argmax()), diff.shape)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_matches_full_difference_with_ties(self, n):
        rng = np.random.default_rng(n)
        g1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g2 = g1.copy()
        g2[n // 2:, :] += 0.25
        g2[n - 1, 0] += 0.25j  # the same modulus as the (n // 2, 0) tie below
        g2[n // 2, 0] += 0.25j
        value, at = _max_abs_difference(g1, g2)
        want_value, want_at = self.reference(g1, g2)
        assert value == want_value
        assert at == tuple(int(k) for k in want_at) == (n // 2, 0)

    def test_equal_matrices_and_nan(self):
        g = np.arange(130 * 130, dtype=complex).reshape(130, 130)
        assert _max_abs_difference(g, g.copy()) == (0.0, (0, 0))
        h = g.copy()
        h[100, 7] = np.nan
        h[120, 3] = np.nan
        value, at = _max_abs_difference(g, h)
        assert np.isnan(value) and at == (100, 7)

    def test_no_full_size_temporary(self):
        n = 600
        rng = np.random.default_rng(7)
        g1 = rng.standard_normal((n, n)) + 0j
        g2 = g1 + 1e-3
        _, peak = _traced_peak(_max_abs_difference, g1, g2)
        assert peak < n * n * 16 / 4

    def test_states_equal_holds_no_third_gram_sized_array(self):
        """states_equal holds the two N-word frames, the two B x N Gram blocks
        and the SVD of one frame, and no N x N array: it peaks under six
        B x N complex arrays, where the full Grams took it to about 18."""
        m1, m2, _ = seeded_pair("rotation", 10)
        states_equal(m1, m2)  # first-call allocations stay out of the peak
        (equal, witness), peak = _traced_peak(states_equal, m1, m2)
        assert equal
        n, b = witness.words_checked, len(cyclic_restrict(m1).basis_words)
        assert b == 100
        assert peak < 6 * b * n * 16
