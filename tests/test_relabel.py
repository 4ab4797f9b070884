"""Input and output relabelling: every value moves with the labels.

A relabelling renames input x to ``px[x]`` and, at input x, output a to
``pa[x][a]`` (and the same on B).  It permutes the correlation and the XOR
matrix, leaves ``states_equal``'s verdict alone and carries a distinguishing
word to one with the same two moments.  Renaming inputs permutes the
correlation and the XOR matrix bitwise.  Renaming outputs reorders the sum
that normalises each (x, y) slice, and the XOR sum, so those values move by
a few units in the last place.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from bellkit.linalg import DEFAULT_TOL, dagger
from bellkit.models import QuantumModel, Scenario, Word, correlation_of, evaluate_moment
from bellkit.presets import random_povm, random_quantum_model
from bellkit.reps import states_equal
from bellkit.special import xor_of

SEEDED = settings(database=None, derandomize=True, max_examples=30, deadline=None)


@st.composite
def relabellings(draw, binary=False):
    """(scenario, labels, numpy seed); labels = (px, pa, py, pb)."""
    n_x, n_y = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n_a, n_b = (2, 2) if binary else (draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    px = draw(st.permutations(range(n_x)))
    py = draw(st.permutations(range(n_y)))
    pa = [draw(st.permutations(range(n_a))) for _ in range(n_x)]
    pb = [draw(st.permutations(range(n_b))) for _ in range(n_y)]
    return Scenario(n_x, n_y, n_a, n_b), (px, pa, py, pb), draw(st.integers(0, 2**32 - 1))


def inputs_only(labels):
    """The same input relabelling, every output keeping its label."""
    px, pa, py, pb = labels
    return px, [sorted(p) for p in pa], py, [sorted(p) for p in pb]


def relabel(m, labels):
    """``m`` with M[x][a] filed as M[px[x]][pa[x][a]], and the same on B."""
    px, pa, py, pb = labels

    def family(ops, p_in, p_out):
        out = [None] * len(ops)
        for x, povm in enumerate(ops):
            out[p_in[x]] = [None] * len(povm)
            for a, op in enumerate(povm):
                out[p_in[x]][p_out[x][a]] = op
        return out

    return dataclasses.replace(m, M=family(m.M, px, pa), N=family(m.N, py, pb))


def relabel_table(p, labels):
    """p'[pa[x][a], pb[y][b], px[x], py[y]] = p[a, b, x, y]."""
    px, pa, py, pb = labels
    out = np.empty_like(p)
    n_a, n_b, n_x, n_y = p.shape
    for a, b, x, y in np.ndindex(n_a, n_b, n_x, n_y):
        out[pa[x][a], pb[y][b], px[x], py[y]] = p[a, b, x, y]
    return out


def relabel_word(w: Word, labels) -> Word:
    px, pa, py, pb = labels
    return Word(tuple((px[x], pa[x][a]) for x, a in w.lettersA),
                tuple((py[y], pb[y][b]) for y, b in w.lettersB))


def local_rotation(m, rng):
    ua, _ = np.linalg.qr(rng.normal(size=(m.dimA,) * 2) + 1j * rng.normal(size=(m.dimA,) * 2))
    ub, _ = np.linalg.qr(rng.normal(size=(m.dimB,) * 2) + 1j * rng.normal(size=(m.dimB,) * 2))
    return QuantumModel(
        scenario=m.scenario, dimA=m.dimA, dimB=m.dimB,
        M=[[ua @ op @ dagger(ua) for op in povm] for povm in m.M],
        N=[[ub @ op @ dagger(ub) for op in povm] for povm in m.N],
        psi=np.kron(ua, ub) @ m.psi,
    )


@SEEDED
@given(relabellings())
def test_correlation_permutes(case):
    sc, labels, seed = case
    m = random_quantum_model(np.random.default_rng(seed), sc, 2, 3)
    p = correlation_of(m).p
    moved = relabel_table(p, inputs_only(labels))
    assert correlation_of(relabel(m, inputs_only(labels))).p.tobytes() == moved.tobytes()
    # each slice's normalising sum of nA nB terms is rounded in another order
    np.testing.assert_array_max_ulp(correlation_of(relabel(m, labels)).p,
                                    relabel_table(p, labels), maxulp=2 * sc.nA * sc.nB)


@SEEDED
@given(relabellings(binary=True))
def test_xor_permutes(case):
    sc, labels, seed = case
    m = random_quantum_model(np.random.default_rng(seed), sc, 2, 2)
    c = xor_of(correlation_of(m)).c
    px, pa, py, pb = labels
    c_inputs = xor_of(correlation_of(relabel(m, inputs_only(labels)))).c
    c_relabelled = xor_of(correlation_of(relabel(m, labels))).c
    for x, y in np.ndindex(c.shape):
        assert c_inputs[px[x], py[y]].tobytes() == c[x, y].tobytes()
        # swapping a side's outputs at an input flips the sign of its row or column
        sign = (-1) ** (pa[x][0] + pb[y][0])
        assert abs(c_relabelled[px[x], py[y]] - sign * c[x, y]) <= 16 * np.finfo(float).eps


@SEEDED
@given(relabellings())
def test_states_equal_verdicts_and_distinguishing_moment(case):
    sc, labels, seed = case
    rng = np.random.default_rng(seed)
    m = random_quantum_model(rng, sc, 2, 2)
    rotated = local_rotation(m, rng)
    changed_M = [list(povm) for povm in m.M]
    changed_M[0] = random_povm(rng, m.dimA, sc.nA)
    changed = dataclasses.replace(m, M=changed_M)

    assert states_equal(m, rotated)[0]
    assert states_equal(relabel(m, labels), relabel(rotated, labels))[0]

    equal, moment = states_equal(m, changed)
    assert not equal
    assert not states_equal(relabel(m, labels), relabel(changed, labels))[0]
    word = relabel_word(moment.word, labels)
    values = []
    for model in (m, changed):
        value = evaluate_moment(model, moment.word)
        assert evaluate_moment(relabel(model, labels), word) == value
        values.append(value)
    np.testing.assert_allclose(values, [moment.value1, moment.value2], atol=1e-12)
    assert abs(values[0] - values[1]) > DEFAULT_TOL.cut("frame")
