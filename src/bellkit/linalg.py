"""Dense complex linear algebra substrate.

Everything downstream works with plain ``numpy`` arrays: matrices are
2-d ``complex128`` arrays (row-major), vectors 1-d.  Composite indices of a
tensor product follow the numpy ``kron`` convention, ``i_A * dimB + i_B``.
All approximate comparisons go through :class:`Tolerance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "as_vector",
    "dagger",
    "kron",
    "partial_trace",
    "hermitian_eig",
    "cluster_eigenvalues",
    "orthonormalize",
    "StructuralFlags",
    "structural_predicates",
    "psd_sqrt",
    "schmidt_rank_of_matrix",
    "mat_norm",
]

# Every cut that is not a uniform eps rule: name -> (k, floor), the cut is max(k * eps, floor).
# k = 0 is a fixed cut, floor = 0 a multiple of eps; one name per rule, with the decisions it cuts.
_CUTS = {
    "dust": (0.0, 1e-12),           # phase pivots, component weights, merge-gap floor
    "rank": (0.0, 1e-9),            # Schmidt/support rank (relative), negative probabilities
    "cluster": (0.0, 1e-8),         # eigenvalue clusters, a vanishing commutant element
    "overlap": (0.0, 1e-7),         # component-state overlap modulus against 1
    "coarse": (0.0, 1e-6),          # probability sums, component correlations, intertwiner rank
    "commutant": (1.0, 1e-12),      # commutant rank cut (times the generator scale)
    "identity": (1.0, 1e-8),        # tilted-CHSH SOS identity defects
    "frame": (2.0, 0.0),            # cyclic frame residuals, Gram and moment gaps
    "residual": (10.0, 0.0),        # Naimark and rounding residuals, correlation gap
    "intertwiner": (100.0, 0.0),    # irrep intertwiner residuals
    "multiplicity": (100.0, 1e-10),  # component singular-value ratio across multiplicity
    "reassembly": (100.0, 1e-8),    # irrep reassembly defect, component correlation gap
}


@dataclass(frozen=True)
class Tolerance:
    """Absolute-plus-relative tolerance used for all approximate checks.

    ``close(x, y)`` tests ``|x - y| <= eps * (1 + max(|x|, |y|))``; every
    other cut is ``cut(name)``, from the one table above.
    """

    eps: float = 1e-9

    def __post_init__(self):
        if not math.isfinite(self.eps) or self.eps < 0:
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.eps}")

    def close(self, x, y) -> bool:
        x, y = complex(x), complex(y)
        return abs(x - y) <= self.eps * (1 + max(abs(x), abs(y)))

    def is_zero(self, x) -> bool:
        return abs(x) <= self.eps

    def cut(self, name: str) -> float:
        """``max(k * eps, floor)`` for the named entry of the cut table."""
        k, floor = _CUTS[name]
        return max(k * self.eps, floor)


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix has non-finite entries")
    return a


def as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex).reshape(-1)
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("vector has non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.asarray(m)).T


def mat_norm(m: np.ndarray) -> float:
    """Spectral norm; the operator norm used for all matrix residuals."""
    return float(np.linalg.norm(np.asarray(m, dtype=complex), 2))


def kron(a, b) -> np.ndarray:
    """Tensor product with composite index ``i_a * rows_b + i_b``."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(rho, dimA: int, dimB: int, keep: str = "A") -> np.ndarray:
    """Reduced matrix of a (dimA*dimB)-square operator.

    ``keep="A"`` traces out the B factor and returns the dimA-square
    reduction; ``keep="B"`` the other way round.
    """
    rho = as_matrix(rho)
    d = dimA * dimB
    if rho.shape != (d, d):
        raise ValueError(f"expected {d}x{d} matrix for dims ({dimA},{dimB}), got {rho.shape}")
    t = rho.reshape(dimA, dimB, dimA, dimB)
    if keep == "A":
        return np.einsum("ikjk->ij", t)
    if keep == "B":
        return np.einsum("kikj->ij", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def cluster_eigenvalues(vals: np.ndarray, gap: float) -> list[slice]:
    """Slices of index ranges whose eigenvalues differ by less than ``gap``."""
    slices = []
    start = 0
    for i in range(1, len(vals)):
        if abs(vals[i] - vals[i - 1]) >= gap:
            slices.append(slice(start, i))
            start = i
    if len(vals):
        slices.append(slice(start, len(vals)))
    return slices


def _fix_column_phases(u: np.ndarray, negligible: float) -> np.ndarray:
    """Rotate each column so its first non-negligible entry is real positive."""
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        idx = np.flatnonzero(np.abs(col) > negligible)
        if len(idx) == 0:
            continue
        pivot = col[idx[0]]
        u[:, j] = col * (abs(pivot) / pivot)
    return u


def hermitian_eig(h, tol: Tolerance = DEFAULT_TOL):
    """Spectral decomposition of a Hermitian matrix.

    Returns ``(vals, vecs)`` with eigenvalues sorted descending and
    eigenvectors as columns.  Inside each degenerate cluster (gap below the
    ``cluster`` cut) the columns are re-orthonormalized in index order and
    each column's phase is fixed so its first entry above the ``dust`` cut is
    real positive, making the output reproducible.
    """
    h = as_matrix(h)
    if mat_norm(h - dagger(h)) > tol.eps * (1 + mat_norm(h)):
        raise ValueError("hermitian_eig: input is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh((h + dagger(h)) / 2)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for block in cluster_eigenvalues(vals, tol.cut("cluster")):
        q, _ = np.linalg.qr(vecs[:, block])
        vecs[:, block] = q
    vecs = _fix_column_phases(vecs, tol.cut("dust"))
    return vals.real, vecs


def orthonormalize(vs, tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the span of ``vs`` (modified Gram-Schmidt).

    A vector is discarded when its residual after projecting out the basis so
    far has norm below ``tol.eps * (1 + max input norm)``.
    """
    vs = [as_vector(v) for v in vs]
    if not vs:
        return []
    scale = max(float(np.linalg.norm(v)) for v in vs)
    cutoff = tol.eps * (1 + scale)
    basis: list[np.ndarray] = []
    for v in vs:
        w = v.copy()
        for _ in range(2):  # second pass scrubs fp drift
            for b in basis:
                w = w - b * np.vdot(b, w)
        n = float(np.linalg.norm(w))
        if n >= cutoff:
            basis.append(w / n)
    return basis


@dataclass(frozen=True)
class StructuralFlags:
    hermitian: bool
    positive: bool
    projection: bool
    isometry: bool
    unitary: bool


def structural_predicates(m, tol: Tolerance = DEFAULT_TOL) -> StructuralFlags:
    """Structural classification of a matrix at the given tolerance.

    positive and projection presuppose hermitian; isometry means
    ``m.H m = Id`` (tall or square), unitary additionally ``m m.H = Id``.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    scale = 1 + mat_norm(m)
    herm = rows == cols and mat_norm(m - dagger(m)) <= tol.eps * scale
    positive = False
    projection = False
    if herm:
        vals = np.linalg.eigvalsh((m + dagger(m)) / 2)
        positive = bool(vals.min(initial=0.0) >= -tol.eps * scale)
        projection = mat_norm(m @ m - m) <= tol.eps * scale**2
    gram = dagger(m) @ m
    isometry = cols <= rows and mat_norm(gram - np.eye(cols)) <= tol.eps * scale**2
    unitary = (
        rows == cols
        and isometry
        and mat_norm(m @ dagger(m) - np.eye(rows)) <= tol.eps * scale**2
    )
    return StructuralFlags(herm, positive, projection, isometry, unitary)


def psd_sqrt(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negative eigenvalues clamped."""
    vals, vecs = hermitian_eig(m, tol)
    if vals.min(initial=0.0) < -tol.eps * (1 + abs(vals).max(initial=0.0)):
        raise ValueError(f"psd_sqrt: matrix has negative eigenvalue {vals.min()}")
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ dagger(vecs)


def schmidt_rank_of_matrix(coeff: np.ndarray, rel_cut: float) -> int:
    """Numerical rank of a bipartite coefficient matrix.

    Singular values at or below ``rel_cut`` times the leading one count as
    zero.
    """
    svals = np.linalg.svd(np.asarray(coeff, dtype=complex), compute_uv=False)
    if len(svals) == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > rel_cut * svals[0]))
