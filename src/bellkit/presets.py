"""Named reference models and seeded fixture generators.

The named constructions (the rank-2/rank-3 pair realizing the same abstract
state, the ideal CHSH model, the optimal tilted-CHSH models) are used by the
shipped fixture files and the acceptance suite; the random generators back
the property tests.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import dagger
from .models import CommutingModel, QuantumModel, Scenario

__all__ = [
    "example_pair",
    "chsh_ideal_model",
    "optimal_tilted_model",
    "commuting_from_tensor",
    "tensor_with_auxiliary",
    "doubled_model",
    "random_state",
    "random_povm",
    "random_pvm",
    "random_quantum_model",
    "synchronous_model",
    "block_padded_model",
    "support_mixing_model",
]


def example_pair() -> tuple[QuantumModel, QuantumModel]:
    """Two models of the half-half single-input correlation.

    Returns ``(S3, S2)``: a 3-dimensional model with state
    |00>/sqrt(2) + (|11> + |22>)/2 (Schmidt rank 3) and a 2-dimensional model
    on the maximally entangled pair (Schmidt rank 2).  Both induce the same
    abstract state, yet neither locally dilates to a common ideal model: the
    Schmidt ranks 2 and 3 have no common nontrivial divisor.
    """
    sc = Scenario(nX=1, nY=1, nA=2, nB=2)
    m0, m1 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])
    psi3 = np.diag([1 / np.sqrt(2), 1 / 2, 1 / 2]).reshape(-1)
    s3 = QuantumModel(scenario=sc, dimA=3, dimB=3, M=[[m0, m1]], N=[[m0, m1]], psi=psi3)

    n0, n1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    psi2 = np.array([1, 0, 0, 1]) / np.sqrt(2)
    s2 = QuantumModel(scenario=sc, dimA=2, dimB=2, M=[[n0, n1]], N=[[n0, n1]], psi=psi2)
    return s3, s2


_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _binary_povm(observable: np.ndarray) -> list[np.ndarray]:
    eye = np.eye(observable.shape[0])
    return [(eye + observable) / 2, (eye - observable) / 2]


def chsh_ideal_model() -> QuantumModel:
    """EPR pair with Z/X on one side and the diagonal bases on the other.

    Its correlation is p(a,b|x,y) = (1 + (-1)^(a+b+xy)/sqrt(2)) / 4, the
    optimal CHSH behaviour.
    """
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    return QuantumModel(
        scenario=Scenario(2, 2, 2, 2), dimA=2, dimB=2,
        M=[_binary_povm(_Z), _binary_povm(_X)],
        N=[_binary_povm((_Z + _X) / np.sqrt(2)), _binary_povm((_Z - _X) / np.sqrt(2))],
        psi=psi,
    )


def optimal_tilted_model(alpha: float) -> QuantumModel:
    """Optimal 2-qubit projective model for the tilted-CHSH functional.

    The closed form of Acin, Massar and Pironio (PRL 108, 100402 (2012)):
    state cos(t)|00> + sin(t)|11> with sin 2t = sqrt((4 - alpha^2)/(4 + alpha^2)),
    A0 = Z, A1 = X and B0, B1 = cos(mu) Z +- sin(mu) X with tan(mu) = sin 2t.
    It reaches f(eta) = sqrt(8 + 2 alpha^2).
    """
    if not 0 <= alpha < 2:
        raise ValueError(f"alpha must lie in [0, 2), got {alpha}")
    s2t = math.sqrt((4 - alpha**2) / (4 + alpha**2))
    theta = 0.5 * math.asin(s2t)
    mu = math.atan(s2t)
    b0 = math.cos(mu) * _Z + math.sin(mu) * _X
    b1 = math.cos(mu) * _Z - math.sin(mu) * _X
    return QuantumModel(
        scenario=Scenario(2, 2, 2, 2), dimA=2, dimB=2,
        M=[_binary_povm(_Z), _binary_povm(_X)], N=[_binary_povm(b0), _binary_povm(b1)],
        psi=np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)]),
    )


def commuting_from_tensor(m: QuantumModel) -> CommutingModel:
    """Kron-extend a tensor model to a commuting model on the product space."""
    eyeA, eyeB = np.eye(m.dimA), np.eye(m.dimB)
    return CommutingModel(
        scenario=m.scenario,
        dim=m.dimA * m.dimB,
        M=[[np.kron(op, eyeB) for op in povm] for povm in m.M],
        N=[[np.kron(eyeA, op) for op in povm] for povm in m.N],
        psi=m.psi,
    )


def tensor_with_auxiliary(m: QuantumModel, aux: np.ndarray,
                          dimAuxA: int, dimAuxB: int) -> QuantumModel:
    """Tensor an auxiliary register with identity measurements onto a model.

    ``aux`` lives on C^dimAuxA (x) C^dimAuxB; the new local spaces are
    H_A (x) C^dimAuxA and H_B (x) C^dimAuxB and the observable content is
    unchanged.
    """
    aux = np.asarray(aux, dtype=complex).reshape(dimAuxA, dimAuxB)
    psi = np.einsum("ab,kl->akbl", m.psi.reshape(m.dimA, m.dimB), aux).reshape(-1)
    return QuantumModel(
        scenario=m.scenario,
        dimA=m.dimA * dimAuxA,
        dimB=m.dimB * dimAuxB,
        M=[[np.kron(op, np.eye(dimAuxA)) for op in povm] for povm in m.M],
        N=[[np.kron(op, np.eye(dimAuxB)) for op in povm] for povm in m.N],
        psi=psi,
    )


def doubled_model(m: QuantumModel) -> QuantumModel:
    """Direct sum of two copies of a model with the state spread across both.

    Each operator becomes ``kron(Id_2, op)``; the state's coefficient matrix
    becomes ``kron(diag(0.8, 0.6), Psi)``, one copy in each diagonal block.
    """
    eye = np.eye(2)
    return QuantumModel(
        scenario=m.scenario, dimA=2 * m.dimA, dimB=2 * m.dimB,
        M=[[np.kron(eye, op) for op in povm] for povm in m.M],
        N=[[np.kron(eye, op) for op in povm] for povm in m.N],
        psi=np.kron(np.diag([0.8, 0.6]), m.psi.reshape(m.dimA, m.dimB)).reshape(-1),
    )


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_povm(rng: np.random.Generator, dim: int, outcomes: int) -> list[np.ndarray]:
    """Generic full-support POVM from normalized random Gram factors."""
    gs = []
    for _ in range(outcomes):
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gs.append(x @ dagger(x))
    total = sum(gs)
    vals, vecs = np.linalg.eigh(total)
    inv_root = vecs @ np.diag(1.0 / np.sqrt(vals)) @ dagger(vecs)
    return [inv_root @ g @ inv_root for g in gs]


def random_pvm(rng: np.random.Generator, dim: int, outcomes: int) -> list[np.ndarray]:
    """Random projective measurement: Haar-ish unitary columns split in groups."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    return [q[:, idx] @ dagger(q[:, idx]) for idx in np.array_split(np.arange(dim), outcomes)]


def random_quantum_model(rng: np.random.Generator, scenario: Scenario,
                         dimA: int, dimB: int) -> QuantumModel:
    return QuantumModel(
        scenario=scenario, dimA=dimA, dimB=dimB,
        M=[random_povm(rng, dimA, scenario.nA) for _ in range(scenario.nX)],
        N=[random_povm(rng, dimB, scenario.nB) for _ in range(scenario.nY)],
        psi=random_state(rng, dimA * dimB),
    )


def synchronous_model(rng: np.random.Generator, dim: int, n_inputs: int,
                      n_outputs: int) -> QuantumModel:
    """Standard synchronous construction: maximally entangled state, N = M^T."""
    psi = np.eye(dim).reshape(-1) / np.sqrt(dim)
    M = [random_pvm(rng, dim, n_outputs) for _ in range(n_inputs)]
    N = [[op.T.copy() for op in povm] for povm in M]
    return QuantumModel(scenario=Scenario(n_inputs, n_inputs, n_outputs, n_outputs),
                        dimA=dim, dimB=dim, M=M, N=N, psi=psi)


def block_padded_model(m: QuantumModel, rng: np.random.Generator,
                       junkA: int, junkB: int) -> QuantumModel:
    """Pad a model with junk blocks orthogonal to the state.

    Measurements become block-diagonal (original (+) random junk POVM), the
    state is zero on the junk block, so the padded model is centrally
    supported with the original as its support model.
    """
    def pad_family(family, d, junk, outcomes):
        zero = np.zeros((d, junk))
        return [[np.block([[op, zero], [zero.T, junk_op]])
                 for op, junk_op in zip(povm, random_povm(rng, junk, outcomes))]
                for povm in family]

    return QuantumModel(
        scenario=m.scenario, dimA=m.dimA + junkA, dimB=m.dimB + junkB,
        M=pad_family(m.M, m.dimA, junkA, m.scenario.nA),
        N=pad_family(m.N, m.dimB, junkB, m.scenario.nB),
        psi=np.pad(m.psi.reshape(m.dimA, m.dimB), ((0, junkA), (0, junkB))).reshape(-1),
    )


def support_mixing_model(rng: np.random.Generator, dim: int, rank: int,
                         scenario: Scenario) -> QuantumModel:
    """Rank-deficient state plus a measurement mixing support and complement.

    The first A-measurement contains a projector onto a vector straddling the
    support of psi and its orthogonal complement, so the support projection
    cannot commute with it: the model is not centrally supported.
    """
    if not 1 <= rank < dim:
        raise ValueError("need 1 <= rank < dim for a support-mixing fixture")
    if scenario.nA != 2:
        raise ValueError("the mixing measurement is binary; scenario needs nA == 2")
    coeffs = rng.uniform(0.5, 1.0, size=rank)
    coeffs = coeffs / np.linalg.norm(coeffs)
    psi = np.diag(np.pad(coeffs, (0, dim - rank)))
    mixing = np.zeros(dim, dtype=complex)
    mixing[0] = 1 / np.sqrt(2)
    mixing[rank] = 1 / np.sqrt(2)  # strictly outside the support
    proj = np.outer(mixing, mixing.conj())
    M0 = [proj, np.eye(dim) - proj]
    other = [random_povm(rng, dim, scenario.nA) for _ in range(scenario.nX - 1)]
    N = [random_povm(rng, dim, scenario.nB) for _ in range(scenario.nY)]
    return QuantumModel(scenario=scenario, dimA=dim, dimB=dim,
                        M=[M0] + other, N=N, psi=psi.reshape(-1))
