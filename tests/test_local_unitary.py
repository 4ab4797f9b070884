"""Local-unitary invariance: U_A (x) U_B moves nothing a verdict can see.

A local unitary conjugates every operator on its side and rotates the state,
so the rotated model induces the same abstract state, and the ideal model is
still a local dilation of it.  The models are CHSH and the tilted-CHSH
optimum at alpha = 1.5, each tensored with a random k x k auxiliary state
(k <= 8 drawn, k = 16 as pinned examples, so up to d = 32 per side) and
rotated by Haar-random unitaries.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from bellkit.dilations import find_local_dilation, verify_local_dilation
from bellkit.linalg import dagger
from bellkit.models import QuantumModel
from bellkit.presets import (
    chsh_ideal_model,
    optimal_tilted_model,
    random_state,
    tensor_with_auxiliary,
)
from bellkit.reps import states_equal

SEEDED = settings(database=None, derandomize=True, max_examples=12, deadline=None)
IDEALS = {"chsh": chsh_ideal_model, "tilted": lambda: optimal_tilted_model(1.5)}


def haar_unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotate(m: QuantumModel, ua: np.ndarray, ub: np.ndarray) -> QuantumModel:
    """``m`` seen through U_A (x) U_B."""
    return QuantumModel(
        scenario=m.scenario, dimA=m.dimA, dimB=m.dimB,
        M=[[ua @ op @ dagger(ua) for op in povm] for povm in m.M],
        N=[[ub @ op @ dagger(ub) for op in povm] for povm in m.N],
        psi=np.kron(ua, ub) @ m.psi,
    )


@SEEDED
@given(st.sampled_from(sorted(IDEALS)), st.integers(1, 8), st.integers(0, 2**32 - 1))
@example("chsh", 8, 1)
@example("tilted", 8, 2)  # d = 16 per side
@example("chsh", 16, 3)
@example("tilted", 16, 4)  # d = 32 per side
def test_local_unitaries_keep_the_state_and_the_dilation(ideal, k, seed):
    rng = np.random.default_rng(seed)
    t = IDEALS[ideal]()
    s = tensor_with_auxiliary(t, random_state(rng, k * k), k, k)
    rotated = rotate(s, haar_unitary(rng, s.dimA), haar_unitary(rng, s.dimB))

    assert states_equal(s, rotated)[0]
    w = find_local_dilation(rotated, t, seed=seed % 1000)
    rep = verify_local_dilation(rotated, t, w)
    assert rep.passed, (rep.max_residual, rep.moment_residual)
    assert rep.schmidt_ranks == {"psi": 2 * k, "psi_tilde": 2, "aux": k}
