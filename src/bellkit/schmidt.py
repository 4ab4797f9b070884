"""Schmidt analysis of bipartite pure states and the operator-transfer map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_vector, dagger, _fix_column_phases

__all__ = [
    "SchmidtDecomposition",
    "schmidt_decompose",
    "transfer_operator",
]


@dataclass(frozen=True)
class SchmidtDecomposition:
    """psi = sum_i coefficients[i] * left[:, i] (x) right[:, i].

    Coefficients are strictly positive and sorted descending; ``left`` and
    ``right`` hold the orthonormal Schmidt vectors as columns.
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray
    dimA: int
    dimB: int

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def reconstruct(self) -> np.ndarray:
        coeff = self.left @ np.diag(self.coefficients) @ self.right.T
        return coeff.reshape(-1)


def schmidt_decompose(psi, dimA: int, dimB: int,
                      tol: Tolerance = DEFAULT_TOL) -> SchmidtDecomposition:
    """Schmidt decomposition of a bipartite vector.

    The coefficient matrix ``C[i, j] = psi[i * dimB + j]`` is factored by SVD;
    singular values at or below the ``rank`` cut times the leading one are
    dropped from the rank.  Basis phases follow the convention of
    :func:`bellkit.linalg.hermitian_eig` so outputs are reproducible.
    """
    psi = as_vector(psi)
    if len(psi) != dimA * dimB:
        raise ValueError(f"vector of length {len(psi)} does not match dims ({dimA},{dimB})")
    norm = float(np.linalg.norm(psi))
    if norm <= tol.eps:
        raise ValueError("cannot Schmidt-decompose the zero vector")
    coeff = psi.reshape(dimA, dimB)
    u, svals, vh = np.linalg.svd(coeff)
    r = int(np.sum(svals > tol.cut("rank") * svals[0]))
    u = u[:, :r]
    v = vh[:r, :].T  # right vectors as columns; psi = sum s_i u_i (x) v_i
    # fix the free phases on the left factor, compensating on the right so the
    # pairing (and hence the reconstructed state) is unchanged
    u_fixed = _fix_column_phases(u, tol.cut("dust"))
    phases = np.array([np.vdot(u_fixed[:, i], u[:, i]) for i in range(r)])
    v = v * phases
    return SchmidtDecomposition(svals[:r].copy(), u_fixed, v, dimA, dimB)


def transfer_operator(E, sd: SchmidtDecomposition) -> np.ndarray:
    """Operator ``Ehat`` on the B side with ``(E (x) Id) psi = (Id (x) Ehat) psi``.

    Requires a full-rank state (rank == dimA == dimB).  In the Schmidt bases
    the answer is ``lam @ E^T @ lam^{-1}`` with ``lam`` the diagonal
    coefficient matrix; the result is mapped back to the original B basis.
    """
    E = np.asarray(E, dtype=complex)
    if not (sd.rank == sd.dimA == sd.dimB):
        raise ValueError(
            f"transfer_operator needs a full-rank state: rank {sd.rank}, dims ({sd.dimA},{sd.dimB})"
        )
    lam = np.diag(sd.coefficients)
    lam_inv = np.diag(1.0 / sd.coefficients)
    e_schmidt = dagger(sd.left) @ E @ sd.left
    ehat_schmidt = lam @ e_schmidt.T @ lam_inv
    return sd.right @ ehat_schmidt @ dagger(sd.right)
