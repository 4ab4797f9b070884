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

from itertools import chain

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
    _povm_violations,
    correlation_of,
)
from .reps import _flat, _intertwiner, block_components, irrep_decompose, states_equal
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


@record
class NaimarkDilation:
    """Isometry V : H -> H (x) C^k and PVM P with V* P_i V = M_i."""

    V: np.ndarray
    P: list[np.ndarray]


def naimark_dilate(povm, tol: Tolerance = DEFAULT_TOL) -> NaimarkDilation:
    """Canonical Naimark dilation of a POVM.

    On K = H (x) C^k the projections are P_i = Id (x) |i><i| and the isometry
    is V = sum_i M_i^{1/2} (x) |i>: the roots stacked so that row p k + i of V
    is row p of M_i^{1/2}.  The POVM is checked as ``validate_model`` checks a
    model's; a violation raises ValueError.
    """
    ops = [as_matrix(m) for m in povm]
    k = len(ops)
    d = ops[0].shape[0]
    rep = ValidationReport(list(_povm_violations([ops], "POVM", 1, k, d, tol)))
    if not rep.valid:
        raise ValueError(f"POVM is not valid: {rep}")

    v = np.stack([psd_sqrt(m, tol) for m in ops], axis=1).reshape(d * k, d)
    return NaimarkDilation(V=v, P=[np.kron(np.eye(d), np.diag(e)) for e in np.eye(k)])


@record
class DilationReport:
    passed: bool
    max_residual: float
    residuals: dict[str, float]
    isometry_ok: bool
    aux_norm_residual: float
    schmidt_ranks: dict[str, int]
    rank_consistent: bool
    moment_residual: float | None


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

    products = ((f"(x={x},a={a},y={y},b={b})",
                 _act(S, "B", S.N[y][b], _act(S, "A", S.M[x][a], S.psi)),
                 _act(T, "B", T.N[y][b], _act(T, "A", T.M[x][a], T.psi)))
                for x in range(sc.nX) for a in range(sc.nA)
                for y in range(sc.nY) for b in range(sc.nB))
    residuals: dict[str, float] = {}
    for label, measured, target in chain([("identity", S.psi, T.psi)], products):
        lhs = _regroup(w.IA @ measured.reshape(S.dimA, S.dimB) @ w.IB.T,
                       T.dimA, w.dimAuxA, T.dimB, w.dimAuxB)
        residuals[label] = float(np.linalg.norm(lhs - np.kron(target, w.aux)))
    max_residual = max(residuals.values())

    rank_psi = schmidt_decompose(S.psi, S.dimA, S.dimB, tol).rank
    support_t = support_of(T, tol)  # its Schmidt decomposition gives psi~'s rank
    rank_tilde = support_t.schmidt.rank
    rank_aux = schmidt_decompose(w.aux, w.dimAuxA, w.dimAuxB, tol).rank
    schmidt_ranks = {"psi": rank_psi, "psi_tilde": rank_tilde, "aux": rank_aux}
    rank_consistent = rank_psi == rank_tilde * rank_aux

    same_state, moment_residual = True, None
    if support_t.centrally_supported:
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

    def __init__(self, reason: str, obstruction: dict):
        super().__init__(reason)
        self.reason = reason
        self.obstruction = obstruction


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
    if rank_s % rank_t != 0:
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

    dec_a, dec_b, comp = block_components(S, seed, tol)

    # intertwiners from the supported irreps of S onto T's operators; their
    # keys are the blocks the state reaches
    inter_a: dict[int, np.ndarray] = {}
    inter_b: dict[int, np.ndarray] = {}
    for pos, (side, dec, inter, dim_tilde, ideal) in enumerate((
            ("A", dec_a, inter_a, T.dimA, T.M),
            ("B", dec_b, inter_b, T.dimB, T.N))):
        for i in sorted({pair[pos] for pair in comp}):
            blk = dec.blocks[i]
            if blk.n != dim_tilde:
                raise NotDilatable(
                    f"{side}-side component {i} has irrep dimension {blk.n} != "
                    f"dim H~_{side} = {dim_tilde}; its state component cannot equal the "
                    "ideal state",
                    {"kind": "component-state", "side": side, "block": i},
                )
            u, res = _intertwiner(blk.generators, _flat(ideal))
            if res > tol.cut("intertwiner"):
                raise NotDilatable(
                    f"{side}-side component {i} is not unitarily equivalent to the ideal "
                    f"representation (residual {res:.3e})",
                    {"kind": "component-state", "side": side, "block": i, "residual": res},
                )
            inter[i] = u

    # auxiliary offsets per block, dimAux last: a supported block contributes
    # its multiplicity space, an unreached block its whole subspace
    def aux_offsets(dec, inter):
        return np.cumsum([0] + [blk.m if idx in inter else blk.n * blk.m
                                for idx, blk in enumerate(dec.blocks)])

    off_a, off_b = aux_offsets(dec_a, inter_a), aux_offsets(dec_b, inter_b)

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

    def assemble(dec, inter, off, tilde_dim):
        # sum over blocks of kron(u_i, E_i) B_i^H, E_i the embedding of block
        # i's aux slots; an unreached block is kron(|0>, E_i) over all its slots
        slots = np.eye(off[-1])
        ket0 = np.eye(tilde_dim, 1)
        return sum(np.kron(inter.get(idx, ket0), slots[:, off[idx]:off[idx + 1]])
                   @ dagger(blk.basis) for idx, blk in enumerate(dec.blocks))

    ia = assemble(dec_a, inter_a, off_a, T.dimA)
    ib = assemble(dec_b, inter_b, off_b, T.dimB)
    return DilationWitness(IA=ia, IB=ib, aux=aux,
                           dimAuxA=int(off_a[-1]), dimAuxB=int(off_b[-1]))

