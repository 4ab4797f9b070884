"""Schmidt analysis of bipartite pure states."""

from __future__ import annotations

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_vector, _fix_column_phases, record

__all__ = [
    "SchmidtDecomposition",
    "schmidt_decompose",
]


@record
class SchmidtDecomposition:
    """psi = sum_i coefficients[i] * left[:, i] (x) right[:, i].

    Coefficients are strictly positive and sorted descending; ``left`` and
    ``right`` hold the orthonormal Schmidt vectors as columns.
    """

    coefficients: np.ndarray
    left: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    @property
    def full_rank(self) -> bool:
        """rank == dimA == dimB, the hypothesis of the main self-testing theorem."""
        return self.rank == len(self.left) == len(self.right)


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
    return SchmidtDecomposition(svals[:r].copy(), u_fixed, v)

