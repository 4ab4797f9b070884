"""The seeded-leaf split of ``irrep_decompose`` at the dimensions it targets.

``irrep_decompose`` seeds its leaves from the eigenvectors of one generic
Hermitian element of the algebra, grows each into a cyclic space, and
certifies each leaf with a commutant solve on that leaf alone; a leaf that
fails certification is split by ``_split_invariant``.  These tests pin the
structure and residuals at d = 64 and d = 256, the planted-structure oracle,
the fallback, and that no commutant is solved on more than one irrep.
"""

import json
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from bellkit import reps
from bellkit.dilations import find_local_dilation, verify_local_dilation
from bellkit.io import model_to_obj, save_json
from bellkit.linalg import DEFAULT_TOL, cluster_eigenvalues, dagger, mat_norm
from bellkit.presets import (
    chsh_ideal_model,
    commuting_from_tensor,
    random_pvm,
    random_state,
    tensor_with_auxiliary,
)
from bellkit.reps import (
    _generic_element,
    _seeded_leaves,
    _split_invariant,
    commutant_basis,
    irrep_decompose,
)
from run_cli import invoke

SEEDED = settings(database=None, derandomize=True, max_examples=25, deadline=None)


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def direct_sum(mats):
    d = sum(m.shape[0] for m in mats)
    out = np.zeros((d, d), dtype=complex)
    off = 0
    for m in mats:
        k = m.shape[0]
        out[off:off + k, off:off + k] = m
        off += k
    return out


def planted(irreps, mults, v):
    """``V ((+)_i rho_i (x) Id_{m_i}) V*`` for each generator: ``irreps[i]`` is
    the list of rho_i's generators, ``mults[i]`` its multiplicity."""
    n_gens = len(irreps[0])
    return [v @ direct_sum([np.kron(rho[t], np.eye(m)) for rho, m in zip(irreps, mults)])
            @ dagger(v) for t in range(n_gens)]


def random_irrep(rng, n, n_gens):
    """Random Hermitian generators on C^n: irreducible, and inequivalent to any
    other such draw, with probability one."""
    out = []
    for _ in range(n_gens):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        out.append((x + dagger(x)) / 2)
    return out


def alice(model):
    return [op for povm in model.M for op in povm]


def chsh_aux(k, seed):
    rng = np.random.default_rng(seed)
    return tensor_with_auxiliary(chsh_ideal_model(), random_state(rng, k * k), k, k)


def structure(dec):
    return sorted((b.n, b.m) for b in dec.blocks)


def assert_reassembles(dec, gens, d):
    assert dec.reassembly_defect <= DEFAULT_TOL.cut("reassembly")
    u = dec.change_of_basis()
    assert u.shape == (d, d)
    assert mat_norm(dagger(u) @ u - np.eye(d)) < 1e-10


class TestTargetDimensions:
    def test_chsh_aux32_at_d64(self):
        gens = alice(chsh_aux(32, 1))
        dec = irrep_decompose(gens, seed=0)
        assert [(b.n, b.m) for b in dec.blocks] == [(2, 32)]
        assert dec.commutant_dim == 32 * 32
        assert_reassembles(dec, gens, 64)

    def test_binary_pvms_at_d64(self):
        # Jordan's lemma: two binary PVMs in generic position give d/2
        # pairwise inequivalent 2-dim irreps
        rng = np.random.default_rng(64)
        gens = random_pvm(rng, 64, 2) + random_pvm(rng, 64, 2)
        dec = irrep_decompose(gens, seed=0)
        assert [(b.n, b.m) for b in dec.blocks] == [(2, 1)] * 32
        assert dec.commutant_dim == 32
        assert_reassembles(dec, gens, 64)

    def test_three_outcome_pvms_at_d64(self):
        # two random 3-outcome PVMs on C^12 with multiplicity 3, and two on
        # C^28 with multiplicity 1, in a random basis
        rng = np.random.default_rng(65)
        irreps = [random_pvm(rng, n, 3) + random_pvm(rng, n, 3) for n in (12, 28)]
        gens = planted(irreps, [3, 1], haar_unitary(rng, 64))
        dec = irrep_decompose(gens, seed=0)
        assert structure(dec) == [(12, 3), (28, 1)]
        assert dec.commutant_dim == 3 * 3 + 1
        assert_reassembles(dec, gens, 64)

    def test_three_outcome_pvms_irreducible_at_d64(self):
        rng = np.random.default_rng(66)
        gens = random_pvm(rng, 64, 3) + random_pvm(rng, 64, 3)
        dec = irrep_decompose(gens, seed=0)
        assert dec.irreducible and dec.reassembly_defect == 0.0

    def test_find_dilation_of_chsh_aux16(self):
        s, t = chsh_aux(16, 2), chsh_ideal_model()
        w = find_local_dilation(s, t, seed=0)
        rep = verify_local_dilation(s, t, w)
        assert rep.passed, (rep.max_residual, rep.moment_residual)
        assert rep.schmidt_ranks == {"psi": 32, "psi_tilde": 2, "aux": 16}


def commuting_chsh_aux8():
    """The commuting embedding of CHSH (x) aux(8): d = 256, one 2-dim irrep of
    multiplicity 128 per side."""
    return commuting_from_tensor(chsh_aux(8, 3))


class TestCommutingD256:
    def test_irrep_exits_0(self, tmp_path):
        path = tmp_path / "chsh_aux8_commuting.model.json"
        save_json(path, model_to_obj(commuting_chsh_aux8()))
        res = invoke(["irrep", str(path)])
        assert res.exit_code == 0, res.stderr
        report = json.loads(res.stdout)
        for side in ("side_A", "side_B"):
            assert report[side]["blocks"] == [{"irrep_dim": 2, "multiplicity": 128}]
            assert report[side]["commutant_dim"] == 128 * 128
            assert report[side]["reassembly_defect"] <= DEFAULT_TOL.cut("reassembly")

    def test_traced_peak_under_128_mib(self):
        gens = alice(commuting_chsh_aux8())
        tracemalloc.start()
        try:
            dec = irrep_decompose(gens, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(b.n, b.m) for b in dec.blocks] == [(2, 128)]
        assert peak < 128 * 2**20


def test_commutant_sees_only_irrep_sized_generators(monkeypatch):
    """On CHSH (x) aux(16) every commutant solve runs on one 2-dim leaf."""
    sizes = []
    real = reps.commutant_basis

    def spy(generators, tol=DEFAULT_TOL):
        sizes.extend(g.shape[0] for g in generators)
        return real(generators, tol)

    monkeypatch.setattr(reps, "commutant_basis", spy)
    dec = irrep_decompose(alice(chsh_aux(16, 4)), seed=0)
    assert [(b.n, b.m) for b in dec.blocks] == [(2, 16)]
    assert sizes and max(sizes) <= 2


@SEEDED
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=4)
       .filter(lambda blocks: sum(n * m for n, m in blocks) <= 24),
       st.integers(2, 3), st.integers(0, 2**32 - 1))
def test_planted_structure_is_recovered(blocks, n_gens, seed):
    rng = np.random.default_rng(seed)
    d = sum(n * m for n, m in blocks)
    irreps = [random_irrep(rng, n, n_gens) for n, _ in blocks]
    gens = planted(irreps, [m for _, m in blocks], haar_unitary(rng, d))
    dec = irrep_decompose(gens, seed=seed % 1000)
    assert structure(dec) == sorted(blocks)
    assert dec.commutant_dim == sum(m * m for _, m in blocks)
    assert_reassembles(dec, gens, d)


class TestCertificationFallback:
    """An element degenerate across two inequivalent irreps seeds a leaf that
    holds a copy of each; its commutant is not scalar, and
    ``_split_invariant`` splits it on the leaf's own space."""

    def setup(self):
        rng = np.random.default_rng(7)
        irreps = [random_irrep(rng, 2, 2), random_irrep(rng, 3, 2)]
        v = haar_unitary(rng, 2 * 2 + 3)
        gens = planted(irreps, [2, 1], v)
        # in the algebra, and its top eigenvalue 3, whose eigenvectors are
        # taken first, is shared by both irreps
        a = planted([[np.diag([0.0, 3.0])], [np.diag([1.0, 2.0, 3.0])]], [2, 1], v)[0]
        return gens, [a] + gens + [dagger(g) for g in gens]

    def test_leaf_fails_and_split_completes_it(self):
        gens, work = self.setup()
        leaves = _seeded_leaves(work, DEFAULT_TOL)
        assert sum(leaf.shape[1] for leaf in leaves) == 7
        com_dims = [len(commutant_basis([dagger(q) @ g @ q for g in work])) for q in leaves]
        assert max(com_dims) > 1  # a leaf failed certification
        rng = np.random.default_rng(0)
        pieces = [p for q in leaves for p in _split_invariant(q, work, rng, DEFAULT_TOL)]
        assert sorted(p.shape[1] for p in pieces) == [2, 2, 3]
        for p in pieces:
            assert len(commutant_basis([dagger(p) @ g @ p for g in work])) == 1

    def test_irrep_decompose_recovers_through_the_fallback(self, monkeypatch):
        gens, work = self.setup()
        monkeypatch.setattr(reps, "_generic_element", lambda gens, rng: work[0])
        split = []
        real = reps._split_invariant

        def spy(basis, work_gens, rng, tol):
            out = real(basis, work_gens, rng, tol)
            split.append(len(out))
            return out

        monkeypatch.setattr(reps, "_split_invariant", spy)
        dec = irrep_decompose(gens, seed=0)
        assert structure(dec) == [(2, 2), (3, 1)]
        assert dec.commutant_dim == 5
        assert max(split) > 1
        assert_reassembles(dec, gens, 7)


def jordan_wigner_pvms(n, copies, seed):
    """The binary PVMs (I +- g_j)/2 of the 2n anticommuting involutions
    Z..Z X I..I and Z..Z Y I..I on C^(2^n), each tensored with Id_copies, in
    a Haar basis: Tsirelson's XOR-game families, one 2^n-dim irrep of
    multiplicity ``copies``."""
    x, y, z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])
    gammas = []
    for j in range(n):
        for p in (x, y):
            g = np.ones((1, 1))
            for f in [z] * j + [p] + [np.eye(2)] * (n - j - 1):
                g = np.kron(g, f)
            gammas.append(np.kron(g, np.eye(copies)))
    d = 2 ** n * copies
    v = haar_unitary(np.random.default_rng(seed), d)
    return [v @ ((np.eye(d) + s * g) / 2) @ dagger(v) for g in gammas for s in (1, -1)]


class TestAnticommutingFamilies:
    """The generic element of an anticommuting family lies in span{I, g_j}, so
    its spectrum is two clusters of d/2 and no seed eigenvalue is simple: the
    seeded leaf is the whole space, and the commutant solve there certifies
    it (one irrep) or ``_split_invariant`` splits it (multiplicity 2)."""

    def decompose(self, gens, seed, monkeypatch):
        d = gens[0].shape[0]
        vals = np.linalg.eigvalsh(_generic_element(gens, np.random.default_rng(seed)))
        clusters = cluster_eigenvalues(vals, DEFAULT_TOL.cut("cluster"))
        assert [c.stop - c.start for c in clusters] == [d // 2, d // 2]
        sizes = []
        real = reps.commutant_basis

        def spy(generators, tol=DEFAULT_TOL):
            sizes.append(generators[0].shape[0])
            return real(generators, tol)

        monkeypatch.setattr(reps, "commutant_basis", spy)
        dec = irrep_decompose(gens, seed=seed)
        assert sizes[0] == d  # the one seeded leaf is the whole space
        return dec

    def test_four_qubit_family_is_irreducible(self, monkeypatch):
        dec = self.decompose(jordan_wigner_pvms(4, 1, seed=16), seed=0, monkeypatch=monkeypatch)
        assert structure(dec) == [(16, 1)]
        assert dec.commutant_dim == 1
        assert dec.reassembly_defect == 0.0

    def test_three_qubit_family_with_multiplicity_two(self, monkeypatch):
        gens = jordan_wigner_pvms(3, 2, seed=17)
        dec = self.decompose(gens, seed=0, monkeypatch=monkeypatch)
        assert structure(dec) == [(8, 2)]
        assert dec.commutant_dim == 4
        assert_reassembles(dec, gens, 16)
