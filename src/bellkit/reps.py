"""Associated representations: commutants, irrep decomposition, cyclic models.

The decomposition machinery realizes, numerically, the standard structure
theory of a *-closed operator family on a finite-dimensional space: the space
splits as a direct sum of (irrep (x) multiplicity) blocks, the family acts as
``g_i (x) Id_{m_i}`` on each, and the commutant has dimension ``sum m_i^2``.
State equality between two models is decided through their cyclic
restrictions: two cyclic models induce the same abstract state exactly when
the Gram matrices of their word frames coincide, in which case the forced
linear map between the frames is the intertwining unitary.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    cluster_eigenvalues,
    dagger,
    hermitian_eig,
    mat_norm,
    _project_off,
    record,
)
from .models import CommutingModel, QuantumModel, Scenario, Word, _act, _word_vector

__all__ = [
    "AlgebraNotSemisimpleNumerically",
    "RepBlock",
    "RepDecomposition",
    "CyclicModel",
    "commutant_basis",
    "irrep_decompose",
    "block_components",
    "cyclic_restrict",
    "states_equal",
    "EquivalenceWitness",
    "DistinguishingMoment",
    "scenario_letters",
]


class AlgebraNotSemisimpleNumerically(RuntimeError):
    """Block structure could not be resolved within tolerance."""


def scenario_letters(sc: Scenario) -> list[tuple[str, int, int]]:
    """All generator letters ``(side, x, a)``, ordered (side A before B, input, output)."""
    out = [("A", x, a) for x in range(sc.nX) for a in range(sc.nA)]
    out += [("B", y, b) for y in range(sc.nY) for b in range(sc.nB)]
    return out


def _apply_letter(model, letter, vec: np.ndarray) -> np.ndarray:
    side, x, a = letter
    return _act(model, side, (model.M if side == "A" else model.N)[x][a], vec)


def _principal_generators(gens, floor: float) -> list[np.ndarray]:
    """Combinations ``h_j = s_j u_j`` of the traceless parts of ``gens``.

    ``u_j``, ``s_j`` come from the thin SVD ``U S V^H`` of the d^2 x k matrix
    of flattened traceless parts.  The commutator map kills I and is linear,
    so the maps of the inputs, stacked, equal ``(conj(V) (x) Id)`` times the
    maps of the ``h_j``, stacked: an isometry, so both stacks have the same
    singular values and right singular vectors.  The ``h_j`` with
    ``s_j <= floor`` are dropped; at least one is kept.
    """
    d = gens[0].shape[0]
    eye = np.eye(d)
    flat = np.array([(g - np.trace(g) / d * eye).reshape(-1) for g in gens]).T
    u, s, _ = np.linalg.svd(flat, full_matrices=False)
    keep = max(1, int(np.sum(s > floor)))
    return [(u[:, j] * s[j]).reshape(d, d) for j in range(keep)]


def _sylvester_columns(g: np.ndarray, h: np.ndarray, a: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """Columns ``a_j n + b_j`` of the n^2 x n^2 Kronecker matrix of
    ``X -> g X - X h``, without forming it.

    Column j is the flattened ``g E - E h`` for the matrix unit E at
    ``(a_j, b_j)``: its column ``b_j`` is ``g[:, a_j]``, its row ``a_j`` is
    ``-h[b_j, :]``.  The commutator map is ``h = g``; the intertwining
    equation ``X g1 = g2 X`` is ``g = -g2, h = -g1``.
    """
    n, j = g.shape[0], np.arange(len(a))
    out = np.zeros((n, n, len(a)), dtype=complex)
    out[:, b, j] = g[:, a]
    out[a, :, j] -= h[b, :]
    return out.reshape(n * n, len(a))


def commutant_basis(generators, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Hilbert-Schmidt-orthonormal basis of {T : [T, G] = 0 for all G}.

    Computed as the joint null space of the stacked linear maps
    ``T -> G T - T G``; for a family realizing ``(+) M_{n_i} (x) Id_{m_i}``
    the dimension is ``sum m_i^2``.  That null space depends only on the
    span of the generators plus the identity, so the maps are stacked for
    the few principal combinations of the generators' traceless parts that
    span it, not for every input: adjoints of Hermitian effects, the last
    effect of a POVM, duplicates and multiples add no rows.  The stack of
    the kept combinations has the singular values of the full stack up to
    ``2 sqrt(k) * 1e-3`` of the rank cutoff (k inputs), so the rank cut, and
    the bound on ``[G, T]`` for every input G, are those of the full stack.

    Only block-diagonal unknowns enter the SVD (numerical block
    diagonalization, after Murota, Kanno, Kojima and Kojima 2010 and Maehara
    and Murota 2010).  H is the first input that is Hermitian within the
    cutoff.  Every T in the commutant commutes with H, so in an eigenbasis V
    of H it is block diagonal over H's eigenspaces: the stack acts on those
    ``sum n_c^2`` unknowns T' instead of all d^2 entries, and each null
    vector maps back as ``T = V T' V^H``.

    H must be Hermitian and must be an input.  Commuting with a Hermitian
    member is what confines T to its eigenspaces; the Hermitian part of a
    non-Hermitian member is not in the algebra unless the family is
    *-closed, and its eigenspaces cut true commutant elements: the Jordan
    block [[0, 1], [0, 0]] has a 2-dimensional commutant, the eigenspaces of
    its Hermitian part leave room for 1.  With no Hermitian input, or a
    scalar H, there is one block and this is the full problem.

    Eigenvalues at most ``gap = max(1e3 cutoff, dust scale^2 / cutoff)``
    apart share a block (``dust`` is the 1e-12 cut).  Merging eigenspaces
    only adds the unknowns that couple them, so it never loses a commutant
    element; splitting is safe once the eigenvalues are a gap apart.  The
    unknowns then left out meet singular values of at least 1e3 cutoff in
    H's own map, and the eigenbasis error, about ``eps_mach scale / gap``,
    moves a commutator by less than 1e-3 of the cutoff.  H's own map stays in the
    stack, so the rank cut, not the clustering, decides the dimension:
    unknowns coupling merged eigenvalues delta > cutoff apart meet singular
    values of about delta and are cut like any other.  The SVD is thin: the
    stack has at least as many rows as columns, so ``vh`` is still the full
    right basis of the kept unknowns.
    """
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise ValueError("commutant_basis needs at least one generator")
    d = gens[0].shape[0]
    for g in gens:
        if g.shape != (d, d):
            raise ValueError("generators must be square with a common dimension")
    # scale by the generators, not svals[0]: for near-central families the
    # whole map is fp noise and a relative cutoff would see rank everywhere
    scale = max(1.0, max(mat_norm(g) for g in gens))
    cutoff = tol.cut("commutant") * scale
    # The eigen-block clustering and the principal generators stay although the
    # seeded leaves are mostly 1- or 2-dim: an anticommuting (Tsirelson) family
    # seeds one leaf that is the whole space, and without them its irrep_decompose
    # at d=32 takes 34 s instead of 2.8 s (2-vCPU Xeon, one BLAS thread).
    herm = next((g for g in gens if mat_norm(g - dagger(g)) <= cutoff), np.zeros((d, d)))
    vals, v = np.linalg.eigh((herm + dagger(herm)) / 2)
    gap = max(1e3 * cutoff, tol.cut("dust") * scale * scale / cutoff)
    blocks = cluster_eigenvalues(vals, gap)
    label = np.repeat(np.arange(len(blocks)), [blk.stop - blk.start for blk in blocks])
    a, b = np.nonzero(label[:, None] == label[None, :])  # the block-diagonal unknowns
    conj = [dagger(v) @ g @ v for g in _principal_generators(gens, 1e-3 * cutoff)]
    rows = [_sylvester_columns(g, g, a, b) for g in conj]
    _, svals, vh = np.linalg.svd(np.vstack(rows), full_matrices=False)
    rank = int(np.sum(svals > cutoff))
    t = np.zeros((len(a) - rank, d, d), dtype=complex)
    t[:, a, b] = vh[rank:].conj()
    return list(v @ t @ dagger(v))


@record
class RepBlock:
    """One isotypic block: irrep of dimension n with multiplicity m.

    ``basis`` is a d x (n*m) isometry whose columns (indexed r*m + j) carry
    the conjugated generators to ``kron(g, Id_m)``; ``generators`` are the
    n x n irrep images of the input generators.
    """

    n: int
    m: int
    basis: np.ndarray
    generators: list[np.ndarray]


@record
class RepDecomposition:
    blocks: list[RepBlock]
    ambiguous_pairs: list[tuple[int, int, float]]
    reassembly_defect: float  # max over generators of ||reassemble(i) - g_i||

    @property
    def irreducible(self) -> bool:
        return len(self.blocks) == 1 and self.blocks[0].m == 1

    @property
    def commutant_dim(self) -> int:
        return sum(b.m * b.m for b in self.blocks)

    def change_of_basis(self) -> np.ndarray:
        return np.hstack([b.basis for b in self.blocks])

    def reassemble(self, index: int) -> np.ndarray:
        """The generator rebuilt from its block images, in the original basis."""
        return _reassemble(self.blocks, index)


def _reassemble(blocks: list[RepBlock], index: int) -> np.ndarray:
    u = np.hstack([b.basis for b in blocks])
    parts = [np.kron(b.generators[index], np.eye(b.m)) for b in blocks]
    d = len(u)
    full = np.zeros((d, d), dtype=complex)
    off = 0
    for part in parts:
        k = part.shape[0]
        full[off:off + k, off:off + k] = part
        off += k
    return u @ full @ dagger(u)


def _split_invariant(basis: np.ndarray, work_gens, rng, tol) -> list[np.ndarray]:
    """Certify an invariant subspace as irreducible, or split it recursively.

    ``basis`` is a d x s isometry; ``work_gens`` the *-closed family on the
    full space.  A scalar restricted commutant certifies the subspace, which
    comes back whole.  Otherwise one random Hermitian element of the
    restricted commutant, which almost surely has more than one eigenvalue
    cluster, is eigendecomposed and each cluster is split in turn.
    ``_irreducible_leaves`` calls this on each seeded leaf, so it is the
    fallback for a leaf that fails certification, on that leaf's space only.
    """
    restricted = [dagger(basis) @ g @ basis for g in work_gens]
    com = commutant_basis(restricted, tol)
    if len(com) == 1:
        return [basis]
    t = sum(rng.normal() * b for b in com)
    vals, vecs = hermitian_eig((t + dagger(t)) / 2, tol)  # exactly Hermitian
    clusters = cluster_eigenvalues(vals, tol.cut("cluster"))
    if len(clusters) == 1:
        raise AlgebraNotSemisimpleNumerically(
            "commutant is non-scalar but produced no splitting element")
    return [piece for block in clusters
            for piece in _split_invariant(basis @ vecs[:, block], work_gens, rng, tol)]


def _generic_element(gens, rng) -> np.ndarray:
    """A random Hermitian element of the *-algebra of ``gens``, of norm <= 1.

    A real combination of the Hermitian and anti-Hermitian parts ``h_j`` of
    the generators and of their symmetrised products ``h_j h_k + h_k h_j``
    (j < k).  In the irreducible decomposition it is ``(+) a_i (x) Id_{m_i}``;
    for random coefficients each ``a_i`` has a simple spectrum and
    inequivalent irreps share no eigenvalue.
    """
    h = np.array([p for g in gens for p in ((g + dagger(g)) / 2, (g - dagger(g)) / 2j)
                  if np.any(p)] or [0 * gens[0]])
    c = rng.normal(size=(len(h), len(h)))  # diagonal: linear terms; above it: products
    a = np.tensordot(np.diag(c), h, 1)
    for j in range(len(h)):
        a += h[j] @ np.tensordot(c[j, j + 1:], h[j + 1:], 1)
    a = (a + dagger(a)) / 2
    return a / max(1.0, mat_norm(a))


def _seeded_leaves(work_gens, tol) -> list[np.ndarray]:
    """Mutually orthogonal invariant subspaces that span the space, each the
    cyclic space of an eigenvector of the Hermitian element ``work_gens[0]``.

    That element ``a`` lies in the algebra, so ``a = (+) a_i (x) Id_{m_i}``;
    when ``a_i`` has a simple spectrum an eigenvector is ``u (x) w`` inside
    one isotypic block, and its cyclic space under the *-closed family is one
    irreducible copy ``C^{n_i} (x) w``.  The eigenvectors are taken in order.
    Each is projected twice off the leaves found so far, and a residual above
    the ``cluster`` cut (times the generator scale) seeds a new leaf.  The
    leaf grows a level at a time: the images of its newest columns under
    every generator, projected twice off all leaves, add their left singular
    vectors above the same cut.  A non-generic ``a`` can give reducible
    leaves, which the caller splits.
    """
    d = work_gens[0].shape[0]
    cut = tol.cut("cluster") * max(1.0, max(mat_norm(g) for g in work_gens))
    found = np.zeros((d, 0), dtype=complex)
    leaves = []
    for v in hermitian_eig(work_gens[0], tol)[1].T:
        v = _project_off(found, v)
        norm = np.linalg.norm(v)
        if norm <= cut:
            continue
        leaf = new = (v / norm)[:, None]
        while new.shape[1]:
            span = np.hstack([found, leaf])
            images = _project_off(span, np.hstack([g @ new for g in work_gens]))
            u, s, _ = np.linalg.svd(images, full_matrices=False)
            new = u[:, s > cut]
            leaf = np.hstack([leaf, new])
        leaves.append(leaf)
        found = np.hstack([found, leaf])
        if found.shape[1] == d:
            break
    return leaves


def _irreducible_leaves(gens, rng, tol) -> list[np.ndarray]:
    """Irreducible invariant subspaces of the *-algebra of ``gens`` that
    span the space: the seeded leaves, each certified or split by
    ``_split_invariant``.  An irreducible family keeps the identity as its
    one leaf, not the seeded basis of the whole space: conjugating by that
    basis rounds every irrep image, which moves the reassembly defect off 0,
    can refuse a model's dilation of itself at the floor tolerance, and
    moves the intertwiner residual between inequivalent irreps."""
    d = gens[0].shape[0]
    # the generic element goes first: commutant_basis block-diagonalizes the
    # certification over the eigenspaces of its first Hermitian input
    work = [_generic_element(gens, rng)] + gens + [dagger(g) for g in gens]
    leaves = _seeded_leaves(work, tol)
    if leaves[0].shape[1] == d:
        leaves = [np.eye(d)]
    return [piece for leaf in leaves for piece in _split_invariant(leaf, work, rng, tol)]


def _intertwiner(gens1, gens2):
    """The unitary U that best maps one irreducible family onto another of
    the same size, ``U g1 U* ~ g2``, and its residual.

    Returns ``(U, residual)``.  X is the least singular vector of the
    stacked maps ``X -> X g1 - g2 X`` over all n^2 unknowns, which come from
    ``_sylvester_columns(-g2, -g1)``, entry for entry the Kronecker matrix
    ``Id (x) g1^T - g2 (x) Id``; U is its polar factor.  By Schur's lemma an
    equivalent pair has a one-dimensional solution space, spanned by a
    multiple of a unitary, so the residual alone decides equivalence.
    """
    n = gens1[0].shape[0]
    a, b = np.divmod(np.arange(n * n), n)
    rows = [_sylvester_columns(-g2, -g1, a, b) for g1, g2 in zip(gens1, gens2)]
    _, _, vh = np.linalg.svd(np.vstack(rows), full_matrices=False)
    u_svd, _, vh_x = np.linalg.svd(vh[-1, :].conj().reshape(n, n))
    u = u_svd @ vh_x
    # deterministic global phase
    flat = u.reshape(-1)
    pivot = flat[np.argmax(np.abs(flat))]
    u = u * (abs(pivot) / pivot)
    residual = max(mat_norm(u @ g1 @ dagger(u) - g2) for g1, g2 in zip(gens1, gens2))
    return u, residual


def _trace_signature(gens) -> tuple:
    sig = []
    for g in gens:
        t = complex(np.trace(g))
        sig.append((round(t.real, 6), round(t.imag, 6)))
    return tuple(sig)


def _flat(family) -> list[np.ndarray]:
    """The effects of a family of POVMs, as one generator list."""
    return [op for povm in family for op in povm]


def irrep_decompose(generators, seed: int = 0,
                    tol: Tolerance = DEFAULT_TOL) -> RepDecomposition:
    """Double-commutant decomposition of the algebra generated by ``generators``.

    Adjoints are adjoined so the family is *-closed.  The space is split into
    irreducible invariant subspaces by a seeded-leaf split: the eigenvectors
    of one seeded generic Hermitian element of the algebra seed cyclic
    leaves (``_seeded_leaves``), and each leaf is certified by a commutant
    solve on its own space, or, if a non-generic element left it reducible,
    split there by ``_split_invariant``.  So no commutant is solved on the
    whole space unless the family is irreducible, when the one leaf is kept
    as the identity basis.  Unitarily equivalent pieces are merged into
    (irrep (x) multiplicity) blocks.  Blocks are sorted by (irrep dimension,
    trace signature) so the output is deterministic given the seed.
    Intertwiner residuals falling in the gray band (eps, 100*eps] are
    reported in ``ambiguous_pairs`` (those pieces stay split rather than
    guessing).
    """
    gens = [as_matrix(g) for g in generators]
    if not gens:
        raise ValueError("irrep_decompose needs at least one generator")
    d = gens[0].shape[0]
    leaves = _irreducible_leaves(gens, np.random.default_rng(seed), tol)

    leaf_gens = [[dagger(v) @ g @ v for g in gens] for v in leaves]
    # group unitarily equivalent leaves; a class is its (leaf, intertwiner) pairs
    classes: list[list[tuple[int, np.ndarray]]] = []
    ambiguous: list[tuple[int, int, float]] = []
    for k, lg in enumerate(leaf_gens):
        for members in classes:
            rep = members[0][0]
            if leaf_gens[rep][0].shape != lg[0].shape:
                continue
            u, res = _intertwiner(lg, leaf_gens[rep])
            if res <= tol.eps:
                members.append((k, u))
                break
            if res <= tol.cut("intertwiner"):
                ambiguous.append((rep, k, res))
        else:
            classes.append([(k, np.eye(lg[0].shape[0]))])

    blocks = []
    for members in classes:
        rep = members[0][0]
        n, m = leaves[rep].shape[1], len(members)
        # copy j of rep basis vector r in column r m + j, the kron(g, Id_m) order
        cols = np.stack([leaves[k] @ dagger(u) for k, u in members], axis=2).reshape(d, n * m)
        blocks.append(RepBlock(n=n, m=m, basis=cols, generators=leaf_gens[rep]))

    blocks.sort(key=lambda b: (b.n, _trace_signature(b.generators)))
    defect = max(mat_norm(_reassemble(blocks, t) - gens[t]) for t in range(len(gens)))
    if defect > tol.cut("reassembly"):
        raise AlgebraNotSemisimpleNumerically(
            f"reassembly defect {defect:.3e} exceeds tolerance; input too ill-conditioned"
        )
    return RepDecomposition(blocks=blocks, ambiguous_pairs=ambiguous,
                            reassembly_defect=defect)


def block_components(model: QuantumModel, seed: int = 0, tol: Tolerance = DEFAULT_TOL):
    """The state of a tensor model over the block pairs of its two sides.

    Returns ``(dec_a, dec_b, comp)``: the ``irrep_decompose`` of Alice's and
    Bob's families (seeds ``seed`` and ``seed + 1``) and, for each block pair
    ``(i, j)`` whose component has norm above the ``dust`` cut, the component
    of psi as an ``(n_i n_j) x (m_i m_j)`` matrix: irrep indices in the rows,
    multiplicity indices in the columns.
    """
    dec_a = irrep_decompose(_flat(model.M), seed=seed, tol=tol)
    dec_b = irrep_decompose(_flat(model.N), seed=seed + 1, tol=tol)
    psi_mat = model.psi.reshape(model.dimA, model.dimB)
    comp: dict[tuple[int, int], np.ndarray] = {}
    for i, ba in enumerate(dec_a.blocks):
        for j, bb in enumerate(dec_b.blocks):
            c = dagger(ba.basis) @ psi_mat @ np.conj(bb.basis)
            mat = (c.reshape(ba.n, ba.m, bb.n, bb.m)
                   .transpose(0, 2, 1, 3).reshape(ba.n * bb.n, ba.m * bb.m))
            if np.linalg.norm(mat) > tol.cut("dust"):
                comp[(i, j)] = mat
    return dec_a, dec_b, comp


@record
class CyclicModel:
    """A model whose state is cyclic, plus the words that span its space.

    ``model`` is the original input when the state was already cyclic there
    (and, for tensor inputs, the cyclic subspace is the whole product space);
    otherwise it is the compression onto the cyclic subspace, carried by a
    CommutingModel since that subspace need not factorize.
    """

    model: QuantumModel | CommutingModel
    basis_words: list[Word]
    dim: int
    restricted: bool


def _cyclic_frame(model, tol: Tolerance):
    """BFS over canonical words: returns (words, Q), Q's columns orthonormal.

    Level L+1 candidates are letters prepended to the retained level-L words,
    processed in length-lex order.  Each candidate's vector, from the word
    vector table, is projected twice off the basis so far (``_project_off``)
    and becomes Q's next column when its norm exceeds the ``frame`` cut, 2 eps
    (word vectors have norm <= 1).  The search ends at the first level that
    retains nothing, or when Q spans the whole space.  Q's buffer starts at a
    few columns and doubles when full, up to the whole space: cyclic spaces
    are often far smaller than the model's.
    """
    letters = scenario_letters(model.scenario)
    psi = model.psi
    cutoff = tol.cut("frame")
    total_dim = len(psi)
    Q = np.zeros((total_dim, min(4, total_dim)), dtype=complex)
    Q[:, 0] = psi / np.linalg.norm(psi)
    r = 1
    words = [Word()]
    level = [Word()]
    table: dict = {}
    while level and r < total_dim:
        candidates = {w.prepend(letter) for letter in letters for w in level}
        next_level = []
        for w in sorted(candidates, key=Word.key):
            resid = _project_off(Q[:, :r], _word_vector(model, w.lettersA, w.lettersB, table))
            norm = float(np.linalg.norm(resid))
            if norm > cutoff:
                if r == Q.shape[1]:
                    Q = np.pad(Q, ((0, 0), (0, min(r, total_dim - r))))
                Q[:, r] = resid / norm
                r += 1
                words.append(w)
                next_level.append(w)
                if r == total_dim:
                    break
        level = next_level
    return words, Q[:, :r]


def cyclic_restrict(model, tol: Tolerance = DEFAULT_TOL) -> CyclicModel:
    """Restriction of a model to the cyclic subspace generated by its state.

    For a tensor-product model the enumeration runs over the product algebra
    (words on both sides); when the cyclic subspace is proper the compressed
    carrier is a CommutingModel.  Correlations and word moments are preserved
    exactly.
    """
    words, q = _cyclic_frame(model, tol)
    r = q.shape[1]
    if r == len(model.psi):
        return CyclicModel(model=model, basis_words=words, dim=r, restricted=False)

    def compress(side: str, op: np.ndarray) -> np.ndarray:
        t = dagger(q) @ _act(model, side, op, q)
        return (t + dagger(t)) / 2

    sc = model.scenario
    small = CommutingModel(
        scenario=sc,
        dim=r,
        M=[[compress("A", model.M[x][a]) for a in range(sc.nA)] for x in range(sc.nX)],
        N=[[compress("B", model.N[y][b]) for b in range(sc.nB)] for y in range(sc.nY)],
        psi=dagger(q) @ model.psi,
    )
    return CyclicModel(model=small, basis_words=words, dim=r, restricted=True)


@record
class EquivalenceWitness:
    """Unitary between the cyclic spaces carrying state 1 onto state 2."""

    unitary: np.ndarray
    state_residual: float
    intertwiner_residual: float
    gram_residual: float
    words_checked: int


@record
class DistinguishingMoment:
    word: Word
    value1: complex
    value2: complex


def _max_abs_difference(g1: np.ndarray, g2: np.ndarray):
    """``max |g1 - g2|`` and its first index in row-major order, as
    ``np.abs(g1 - g2)`` gives them, formed a block of rows at a time so that
    no full-size difference is allocated."""
    rows = 64
    starts = range(0, len(g1), rows)
    maxima = np.array([np.abs(g1[k:k + rows] - g2[k:k + rows]).max() for k in starts])
    k = starts[int(maxima.argmax())]
    block = np.abs(g1[k:k + rows] - g2[k:k + rows])
    i, j = np.unravel_index(int(block.argmax()), block.shape)
    return float(maxima.max()), (k + int(i), int(j))


def states_equal(m1, m2, tol: Tolerance = DEFAULT_TOL):
    """Whether two models induce the same abstract state.

    Both models are cyclically restricted.  B is the union of their basis
    words, which spans both cyclic spaces, and E is B extended by one letter.
    Only the |B| x |E| block ``G[B, E] = v[:, B]^H v`` of each model's Gram
    matrix is compared, and it suffices: it contains ``G[B, B]``, so
    ``u : v1_B c -> v2_B c`` is a well-defined isometry onto cyclic space 2,
    and for each e in E the vector ``e psi_2 - u e psi_1`` is orthogonal to
    span v2_B, all of cyclic space 2, hence zero.  So in exact arithmetic the
    E x E block adds nothing, and u intertwines every letter.
    Returns ``(True, EquivalenceWitness)`` with the unitary between the cyclic
    spaces, or ``(False, DistinguishingMoment)`` with a word and both values.
    The unitary is the map w psi_1 -> w psi_2 on the whole frame E: with the
    thin SVD ``v1 = U S V^H`` of model 1's frame, ``u = v2 V S^-1 U^H`` (the
    columns of v1_B alone are too poorly conditioned to invert).  Its
    intertwiner residual is the largest ``||u L_1 - L_2 u||_2`` over letters.
    """
    if m1.scenario != m2.scenario:
        raise ValueError("states_equal requires a common scenario")
    c1 = cyclic_restrict(m1, tol)
    c2 = cyclic_restrict(m2, tol)
    letters = scenario_letters(m1.scenario)

    merged = set(c1.basis_words) | set(c2.basis_words)
    extended = merged | {w.prepend(letter) for w in merged for letter in letters}
    frame_words = sorted(extended, key=Word.key)

    def frame(model) -> np.ndarray:
        table: dict = {}
        return np.column_stack([_word_vector(model, w.lettersA, w.lettersB, table)
                                for w in frame_words])

    rows = [k for k, w in enumerate(frame_words) if w in merged]
    v1, v2 = frame(c1.model), frame(c2.model)
    g1 = dagger(v1[:, rows]) @ v1
    g2 = dagger(v2[:, rows]) @ v2
    gram_residual, (i, j) = _max_abs_difference(g1, g2)
    if gram_residual > tol.cut("frame"):
        return False, DistinguishingMoment(
            word=frame_words[rows[i]].adjoint_times(frame_words[j]),
            value1=complex(g1[i, j]), value2=complex(g2[i, j]),
        )
    del g1, g2  # the witness needs only the frames; free the blocks before the SVD

    # v1 spans c1's space (its rows), so all c1.dim singular values are kept
    U, s, Vh = np.linalg.svd(v1, full_matrices=False)
    u = (v2 @ dagger(Vh) / s) @ dagger(U)
    state_res = float(np.linalg.norm(u @ c1.model.psi - c2.model.psi))
    eye = np.eye(c1.dim, dtype=complex)
    inter_res = max(mat_norm(u @ _apply_letter(c1.model, letter, eye)
                             - _apply_letter(c2.model, letter, u))
                    for letter in letters)
    witness = EquivalenceWitness(
        unitary=u,
        state_residual=state_res,
        intertwiner_residual=inter_res,
        gram_residual=gram_residual,
        words_checked=len(frame_words),
    )
    return True, witness
