"""The model builders of ``bellkit.presets`` against their index-loop forms.

``example_pair``, ``random_pvm``, ``block_padded_model`` and
``support_mixing_model`` are written with ``np.diag``, ``np.block`` and
``np.pad``.  The references below fill zero buffers entry by entry, with a
branch for an empty split and for no junk.  Each builder must give the same
arrays bit for bit, zero signs included, with the same dtypes, and leave its
generator in the same state, so every seeded fixture and property test sees
the same models and the same later draws.
"""

import numpy as np
import pytest

from bellkit.linalg import dagger
from bellkit.models import QuantumModel, Scenario
from bellkit.presets import (
    block_padded_model,
    chsh_ideal_model,
    example_pair,
    random_povm,
    random_pvm,
    random_quantum_model,
    support_mixing_model,
)


def reference_example_pair():
    sc = Scenario(nX=1, nY=1, nA=2, nB=2)
    e = np.eye(3)
    m0 = np.outer(e[0], e[0])
    m1 = np.outer(e[1], e[1]) + np.outer(e[2], e[2])
    psi3 = np.zeros(9)
    psi3[0] = 1 / np.sqrt(2)
    psi3[4] = 1 / 2
    psi3[8] = 1 / 2
    s3 = QuantumModel(scenario=sc, dimA=3, dimB=3, M=[[m0, m1]], N=[[m0, m1]], psi=psi3)
    f = np.eye(2)
    n0 = np.outer(f[0], f[0])
    n1 = np.outer(f[1], f[1])
    psi2 = np.array([1, 0, 0, 1]) / np.sqrt(2)
    s2 = QuantumModel(scenario=sc, dimA=2, dimB=2, M=[[n0, n1]], N=[[n0, n1]], psi=psi2)
    return s3, s2


def reference_random_pvm(rng, dim, outcomes):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    splits = np.array_split(np.arange(dim), outcomes)
    return [q[:, idx] @ dagger(q[:, idx]) if len(idx) else np.zeros((dim, dim), dtype=complex)
            for idx in splits]


def reference_block_padded_model(m, rng, junkA, junkB):
    def pad_family(family, d, junk, outcomes):
        out = []
        for povm in family:
            junk_povm = random_povm(rng, junk, outcomes) if junk else None
            block = []
            for a, op in enumerate(povm):
                big = np.zeros((d + junk, d + junk), dtype=complex)
                big[:d, :d] = op
                if junk:
                    big[d:, d:] = junk_povm[a]
                block.append(big)
            out.append(block)
        return out

    psi = np.zeros(((m.dimA + junkA), (m.dimB + junkB)), dtype=complex)
    psi[: m.dimA, : m.dimB] = m.psi.reshape(m.dimA, m.dimB)
    return QuantumModel(
        scenario=m.scenario, dimA=m.dimA + junkA, dimB=m.dimB + junkB,
        M=pad_family(m.M, m.dimA, junkA, m.scenario.nA),
        N=pad_family(m.N, m.dimB, junkB, m.scenario.nB),
        psi=psi.reshape(-1),
    )


def reference_support_mixing_model(rng, dim, rank, scenario):
    coeffs = rng.uniform(0.5, 1.0, size=rank)
    coeffs = coeffs / np.linalg.norm(coeffs)
    psi = np.zeros((dim, dim), dtype=complex)
    for i, c in enumerate(coeffs):
        psi[i, i] = c
    mixing = np.zeros(dim, dtype=complex)
    mixing[0] = 1 / np.sqrt(2)
    mixing[rank] = 1 / np.sqrt(2)
    proj = np.outer(mixing, mixing.conj())
    M0 = [proj, np.eye(dim) - proj]
    other = [random_povm(rng, dim, scenario.nA) for _ in range(scenario.nX - 1)]
    N = [random_povm(rng, dim, scenario.nB) for _ in range(scenario.nY)]
    return QuantumModel(scenario=scenario, dimA=dim, dimB=dim,
                        M=[M0] + other, N=N, psi=psi.reshape(-1))


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # the signs of zeros too


def assert_models_bitwise(got: QuantumModel, want: QuantumModel):
    assert (got.scenario, got.dimA, got.dimB) == (want.scenario, want.dimA, want.dimB)
    for fam_got, fam_want in ((got.M, want.M), (got.N, want.N)):
        assert [len(povm) for povm in fam_got] == [len(povm) for povm in fam_want]
        for povm_got, povm_want in zip(fam_got, fam_want):
            for op_got, op_want in zip(povm_got, povm_want):
                assert_bitwise(op_got, op_want)
    assert_bitwise(got.psi, want.psi)


def twin_generators(seed: int):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def test_example_pair_is_bitwise_the_reference():
    for got, want in zip(example_pair(), reference_example_pair()):
        assert_models_bitwise(got, want)


@pytest.mark.parametrize("dim, outcomes", [(1, 1), (1, 3), (2, 2), (2, 5), (3, 2), (3, 8),
                                           (5, 5), (6, 4), (7, 3)])
def test_random_pvm_is_bitwise_the_reference(dim, outcomes):
    """With more outcomes than dimensions some splits are empty: each gives
    the complex zero matrix, as the reference's branch does."""
    for seed in range(4):
        rng, ref_rng = twin_generators(seed)
        got, want = random_pvm(rng, dim, outcomes), reference_random_pvm(ref_rng, dim, outcomes)
        assert len(got) == len(want) == outcomes
        for op_got, op_want in zip(got, want):
            assert_bitwise(op_got, op_want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


BASES = {
    "chsh": lambda rng: chsh_ideal_model(),
    "exA_S": lambda rng: example_pair()[0],
    "random-2323": lambda rng: random_quantum_model(rng, Scenario(2, 3, 3, 2), 2, 3),
    "random-1243": lambda rng: random_quantum_model(rng, Scenario(1, 2, 4, 3), 4, 1),
}


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("junkA, junkB", [(0, 0), (0, 1), (1, 0), (1, 1), (0, 3), (3, 0),
                                          (1, 3), (3, 3)])
def test_block_padded_model_is_bitwise_the_reference(base, junkA, junkB):
    """No junk on a side draws nothing: ``random_povm`` of dimension 0
    returns empty matrices, so the generator's next draw is unchanged."""
    for seed in range(3):
        m = BASES[base](np.random.default_rng(100 + seed))
        rng, ref_rng = twin_generators(seed)
        got = block_padded_model(m, rng, junkA, junkB)
        want = reference_block_padded_model(m, ref_rng, junkA, junkB)
        assert_models_bitwise(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("dim, rank", [(2, 1), (3, 1), (3, 2), (5, 2), (6, 5), (8, 3)])
@pytest.mark.parametrize("scenario", [Scenario(2, 2, 2, 2), Scenario(3, 1, 2, 3)],
                         ids=["2222", "3123"])
def test_support_mixing_model_is_bitwise_the_reference(dim, rank, scenario):
    for seed in range(3):
        rng, ref_rng = twin_generators(seed)
        got = support_mixing_model(rng, dim, rank, scenario)
        want = reference_support_mixing_model(ref_rng, dim, rank, scenario)
        assert_models_bitwise(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
