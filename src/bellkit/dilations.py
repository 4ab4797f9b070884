"""Naimark dilation and local dilations between quantum models.

A local dilation of a model T by a model S is a pair of local isometries and
an auxiliary state transporting every measured state of S onto the measured
states of T tensored with the auxiliary.  ``verify_local_dilation`` checks
the defining equation index by index; ``find_local_dilation`` constructs a
witness by decomposing both sides of S into irreducibles, matching every
state-supported component against the ideal model, and assembling the
isometries block by block.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    dagger,
    psd_sqrt,
    record,
    structural_predicates,
)
from .models import (
    DilationWitness,
    QuantumModel,
    ValidationReport,
    _act,
    _check_povm_family,
    correlation_of,
)
from .reps import _flat, _intertwiner, irrep_decompose, states_equal
from .schmidt import schmidt_decompose
from .support import support_of

__all__ = [
    "NaimarkDilation",
    "naimark_dilate",
    "DilationReport",
    "verify_local_dilation",
    "NotDilatable",
    "find_local_dilation",
]


@record(frozen=True)
class NaimarkDilation:
    """Isometry V : H -> H (x) C^k and PVM P with V* P_i V = M_i."""

    V: np.ndarray
    P: list[np.ndarray]


def naimark_dilate(povm, tol: Tolerance = DEFAULT_TOL) -> NaimarkDilation:
    """Canonical Naimark dilation of a POVM.

    On K = H (x) C^k the projections are P_i = Id (x) |i><i| and the isometry
    sends |h> to sum_i M_i^{1/2} |h> (x) |i>, so V as a d x k x d array holds
    M_i^{1/2} in slot ``[:, i]``.  The POVM is checked as ``validate_model``
    checks a model's; a violation raises ValueError.
    """
    ops = [as_matrix(m) for m in povm]
    k = len(ops)
    d = ops[0].shape[0]
    rep = ValidationReport()
    _check_povm_family(rep, [ops], "POVM", 1, k, d, tol)
    if not rep.valid:
        raise ValueError(f"POVM is not valid: {rep}")

    v = np.zeros((d, k, d), dtype=complex)
    for i, m in enumerate(ops):
        v[:, i] += psd_sqrt(m, tol)
    basis_k = np.eye(k)
    projections = [np.diag(np.tile(basis_k[i], d)) for i in range(k)]
    return NaimarkDilation(V=v.reshape(d * k, d), P=projections)


@record
class DilationReport:
    passed: bool
    max_residual: float
    residuals: dict[str, float]
    isometry_ok: bool
    aux_norm_residual: float
    schmidt_ranks: dict[str, int]
    rank_consistent: bool
    moment_residual: float | None = None


def _regroup(vec: np.ndarray, dT_A: int, dAuxA: int, dT_B: int, dAuxB: int) -> np.ndarray:
    """(H~_A (x) auxA) (x) (H~_B (x) auxB)  ->  (H~_A (x) H~_B) (x) (auxA (x) auxB)."""
    t = vec.reshape(dT_A, dAuxA, dT_B, dAuxB)
    return t.transpose(0, 2, 1, 3).reshape(-1)


def verify_local_dilation(S: QuantumModel, T: QuantumModel, w: DilationWitness,
                          tol: Tolerance = DEFAULT_TOL) -> DilationReport:
    """Check that ``w`` certifies T as a local dilation of S.

    The defining equation
    ``(IA (x) IB)(M^x_a (x) N^y_b)|psi> = (M~^x_a (x) N~^y_b |psi~>) (x) |aux>``
    is evaluated for every index and for the implied identity case, with the
    tensor-factor regrouping between the two sides recomputed explicitly.
    Schmidt ranks of psi, psi~, and aux are reported along with the
    multiplicativity constraint (isometries preserve Schmidt rank, so
    rank(psi) must equal rank(psi~) * rank(aux)).  When T is centrally
    supported a dilation forces the abstract states to agree, which
    ``states_equal`` decides; ``moment_residual`` is then its Gram residual
    when they agree, else the gap at its distinguishing word.  The models are
    not validated here, but POVM counts that do not match the scenario raise
    ValueError.
    """
    if S.scenario != T.scenario:
        raise ValueError("models live in different scenarios")
    sc = S.scenario
    for name, m in (("S", S), ("T", T)):
        for label, fam, n_in, n_out in (("M", m.M, sc.nX, sc.nA), ("N", m.N, sc.nY, sc.nB)):
            if len(fam) != n_in or any(len(povm) != n_out for povm in fam):
                raise ValueError(
                    f"{name}.{label} has outcome counts {[len(povm) for povm in fam]}, "
                    f"but the scenario needs {n_in} inputs with {n_out} outcomes each")
    if w.IA.shape != (T.dimA * w.dimAuxA, S.dimA):
        raise ValueError(
            f"IA has shape {w.IA.shape}, expected ({T.dimA * w.dimAuxA}, {S.dimA})")
    if w.IB.shape != (T.dimB * w.dimAuxB, S.dimB):
        raise ValueError(
            f"IB has shape {w.IB.shape}, expected ({T.dimB * w.dimAuxB}, {S.dimB})")
    if len(w.aux) != w.dimAuxA * w.dimAuxB:
        raise ValueError("aux vector does not match the declared auxiliary dimensions")

    isometry_ok = (structural_predicates(w.IA, tol).isometry
                   and structural_predicates(w.IB, tol).isometry)
    aux_norm_residual = abs(float(np.linalg.norm(w.aux)) - 1.0)

    residuals: dict[str, float] = {}
    pairs = [(None, None)] + [
        ((x, a), (y, b))
        for x in range(sc.nX) for a in range(sc.nA)
        for y in range(sc.nY) for b in range(sc.nB)
    ]
    for la, lb in pairs:
        if la is None:
            measured = S.psi
            target_core = T.psi
            label = "identity"
        else:
            x, a = la
            y, b = lb
            measured = _act(S, "B", S.N[y][b], _act(S, "A", S.M[x][a], S.psi))
            target_core = _act(T, "B", T.N[y][b], _act(T, "A", T.M[x][a], T.psi))
            label = f"(x={x},a={a},y={y},b={b})"
        lhs = _regroup(w.IA @ measured.reshape(S.dimA, S.dimB) @ w.IB.T,
                       T.dimA, w.dimAuxA, T.dimB, w.dimAuxB)
        rhs = np.kron(target_core, w.aux)
        residuals[label] = float(np.linalg.norm(lhs - rhs))
    max_residual = max(residuals.values())

    rank_psi = schmidt_decompose(S.psi, S.dimA, S.dimB, tol).rank
    rank_tilde = schmidt_decompose(T.psi, T.dimA, T.dimB, tol).rank
    rank_aux = schmidt_decompose(w.aux, w.dimAuxA, w.dimAuxB, tol).rank
    schmidt_ranks = {"psi": rank_psi, "psi_tilde": rank_tilde, "aux": rank_aux}
    rank_consistent = rank_psi == rank_tilde * rank_aux

    same_state, moment_residual = True, None
    if support_of(T, tol).centrally_supported:
        same_state, found = states_equal(S, T, tol)
        moment_residual = (found.gram_residual if same_state
                           else abs(found.value1 - found.value2))

    passed = (isometry_ok and aux_norm_residual <= tol.eps
              and max_residual <= tol.eps and rank_consistent and same_state)
    return DilationReport(
        passed=passed,
        max_residual=max_residual,
        residuals=residuals,
        isometry_ok=isometry_ok,
        aux_norm_residual=aux_norm_residual,
        schmidt_ranks=schmidt_ranks,
        rank_consistent=rank_consistent,
        moment_residual=moment_residual,
    )


class NotDilatable(RuntimeError):
    """No local dilation witness exists (or the search does not apply)."""

    def __init__(self, reason: str, obstruction: dict | None = None):
        super().__init__(reason)
        self.reason = reason
        self.obstruction = obstruction or {}


def find_local_dilation(S: QuantumModel, T: QuantumModel, seed: int = 0,
                        tol: Tolerance = DEFAULT_TOL) -> DilationWitness:
    """Construct a witness that the ideal model T is a local dilation of S.

    Requires T's associated representation to be irreducible on both sides
    (reducible targets raise NotDilatable).  Both sides of S are decomposed
    into (irrep (x) multiplicity) blocks; the state is expanded over block
    pairs, every supported component must carry the correlation and the same
    component state as T (rank-one cross-multiplicity structure, unit overlap
    after intertwining), and the block isometries are assembled with phases
    chosen so each component overlap with psi~ is real positive.  For blocks
    the state never touches, the isometry routes into the first standard
    basis vector of T's space.  When several assemblies exist (multiplicity
    on the auxiliary), the lexicographically-first one is returned.  Models
    from different scenarios raise ValueError.
    """
    if S.scenario != T.scenario:
        raise ValueError("models live in different scenarios")

    p_s = correlation_of(S, tol).p
    p_t = correlation_of(T, tol).p
    corr_gap = float(np.abs(p_s - p_t).max())
    if corr_gap > tol.cut("residual"):
        raise NotDilatable(
            f"correlations differ (max gap {corr_gap:.3e}); a dilation preserves the correlation",
            {"kind": "correlation", "gap": corr_gap},
        )

    rank_s = schmidt_decompose(S.psi, S.dimA, S.dimB, tol).rank
    rank_t = schmidt_decompose(T.psi, T.dimA, T.dimB, tol).rank
    if rank_t == 0 or rank_s % rank_t != 0:
        raise NotDilatable(
            f"schmidt-rank obstruction: rank(psi)={rank_s} is not a multiple of "
            f"rank(psi~)={rank_t}, but isometries preserve Schmidt rank",
            {"kind": "schmidt-rank", "rank_psi": rank_s, "rank_psi_tilde": rank_t},
        )

    dec_ta = irrep_decompose(_flat(T.M), seed=seed + 2, tol=tol)
    dec_tb = irrep_decompose(_flat(T.N), seed=seed + 3, tol=tol)
    if not (dec_ta.irreducible and dec_tb.irreducible):
        raise NotDilatable(
            "ideal model's associated representation is reducible; the constructive "
            "search only applies to irreducible ideal models",
            {"kind": "reducible-ideal",
             "blocksA": [(b.n, b.m) for b in dec_ta.blocks],
             "blocksB": [(b.n, b.m) for b in dec_tb.blocks]},
        )

    dec_a = irrep_decompose(_flat(S.M), seed=seed, tol=tol)
    dec_b = irrep_decompose(_flat(S.N), seed=seed + 1, tol=tol)
    psi_mat = S.psi.reshape(S.dimA, S.dimB)

    # per block pair: coefficient tensor reshaped to (irrep x irrep, mult x mult)
    comp: dict[tuple[int, int], np.ndarray] = {}
    for i, ba in enumerate(dec_a.blocks):
        for j, bb in enumerate(dec_b.blocks):
            c = dagger(ba.basis) @ psi_mat @ np.conj(bb.basis)
            mat = (c.reshape(ba.n, ba.m, bb.n, bb.m)
                   .transpose(0, 2, 1, 3).reshape(ba.n * bb.n, ba.m * bb.m))
            if np.linalg.norm(mat) > tol.cut("dust"):
                comp[(i, j)] = mat

    lam_a = sorted({i for i, _ in comp})
    lam_b = sorted({j for _, j in comp})

    # intertwiners from the supported irreps of S onto T's operators
    inter_a: dict[int, np.ndarray] = {}
    inter_b: dict[int, np.ndarray] = {}
    for side, dec, lam, inter, dim_tilde, ideal in (
            ("A", dec_a, lam_a, inter_a, T.dimA, T.M),
            ("B", dec_b, lam_b, inter_b, T.dimB, T.N)):
        for i in lam:
            blk = dec.blocks[i]
            if blk.n != dim_tilde:
                raise NotDilatable(
                    f"{side}-side component {i} has irrep dimension {blk.n} != "
                    f"dim H~_{side} = {dim_tilde}; its state component cannot equal the "
                    "ideal state",
                    {"kind": "component-state", "side": side, "block": i},
                )
            u, res = _intertwiner(blk.generators, _flat(ideal), tol)
            if u is None or res > tol.cut("intertwiner"):
                raise NotDilatable(
                    f"{side}-side component {i} is not unitarily equivalent to the ideal "
                    f"representation (residual {res:.3e})",
                    {"kind": "component-state", "side": side, "block": i, "residual": res},
                )
            inter[i] = u

    # auxiliary offsets per block, dimAux last: a supported block contributes
    # its multiplicity space, an unreached block its whole subspace
    def aux_offsets(dec, lam):
        return np.cumsum([0] + [blk.m if idx in lam else blk.n * blk.m
                                for idx, blk in enumerate(dec.blocks)])

    off_a, off_b = aux_offsets(dec_a, lam_a), aux_offsets(dec_b, lam_b)

    # validate each supported component and collect the auxiliary state
    aux = np.zeros((off_a[-1], off_b[-1]), dtype=complex)
    sc = S.scenario
    for (i, j), mat in sorted(comp.items()):
        ba, bb = dec_a.blocks[i], dec_b.blocks[j]
        u_svd, svals, vh_svd = np.linalg.svd(mat)
        if len(svals) > 1 and svals[1] > tol.cut("multiplicity") * svals[0]:
            raise NotDilatable(
                f"component ({i},{j}) carries several distinct states across its "
                f"multiplicity space (second singular value {svals[1]:.3e}); "
                "the component state differs from the ideal state",
                {"kind": "component-state", "block": (i, j), "sv_ratio": svals[1] / svals[0]},
            )
        psi_ij = u_svd[:, 0]
        kappa = svals[0] * vh_svd[0, :]  # mat = outer(psi_ij, kappa): lambda_ij |kappa_ij>

        comp_model = QuantumModel(
            scenario=sc, dimA=ba.n, dimB=bb.n,
            M=[[ba.generators[x * sc.nA + a] for a in range(sc.nA)] for x in range(sc.nX)],
            N=[[bb.generators[y * sc.nB + b] for b in range(sc.nB)] for y in range(sc.nY)],
            psi=psi_ij,
        )
        comp_p = correlation_of(comp_model, Tolerance(tol.cut("coarse"))).p
        gap = float(np.abs(comp_p - p_t).max())
        if gap > tol.cut("reassembly"):
            raise NotDilatable(
                f"component ({i},{j}) has correlation differing from p by {gap:.3e}",
                {"kind": "component-correlation", "block": (i, j), "gap": gap},
            )

        mapped = np.kron(inter_a[i], inter_b[j]) @ psi_ij
        overlap = complex(np.vdot(T.psi, mapped))
        if abs(abs(overlap) - 1.0) > tol.cut("overlap"):
            raise NotDilatable(
                f"component ({i},{j}) state has overlap modulus {abs(overlap):.6f} with "
                "the ideal state; the component state differs from the ideal state",
                {"kind": "component-state", "block": (i, j), "overlap": abs(overlap)},
            )
        phase = overlap / abs(overlap)
        # scalar products on purpose: numpy rounds an array complex multiply
        # differently from a scalar one, which would move aux by an ulp
        for k in range(ba.m):
            for l in range(bb.m):
                aux[off_a[i] + k, off_b[j] + l] += phase * kappa[k * bb.m + l]

    aux = aux.reshape(-1) / np.linalg.norm(aux)

    def assemble(dec, lam, inter, off, tilde_dim, local_dim):
        # per block u_i (x) (embedding of its multiplicity space), or |0> (x)
        # (embedding of the whole block) if unreached; iso[p, a] is row p dimAux + a
        iso = np.zeros((tilde_dim, off[-1], local_dim), dtype=complex)
        col = 0
        for idx, blk in enumerate(dec.blocks):
            if idx in lam:
                r, k = np.arange(blk.n), np.arange(blk.m)
                iso[:, off[idx] + k, col + r[:, None] * blk.m + k] = inter[idx][:, :, None]
            else:
                c = np.arange(blk.n * blk.m)
                iso[0, off[idx] + c, col + c] = 1.0
            col += blk.n * blk.m
        return iso.reshape(-1, local_dim) @ dagger(dec.change_of_basis())

    ia = assemble(dec_a, lam_a, inter_a, off_a, T.dimA, S.dimA)
    ib = assemble(dec_b, lam_b, inter_b, off_b, T.dimB, S.dimB)
    return DilationWitness(IA=ia, IB=ib, aux=aux,
                           dimAuxA=int(off_a[-1]), dimAuxB=int(off_b[-1]))

