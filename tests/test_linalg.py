"""Numerics substrate: tolerance, Hermitian eigensystems, structural flags,
PSD root, spectral norm, and the record decorator."""

import dataclasses

import numpy as np
import pytest

from bellkit.linalg import (
    FrozenInstanceError,
    Tolerance,
    field,
    hermitian_eig,
    mat_norm,
    psd_sqrt,
    record,
    replace,
    structural_predicates,
)
from bellkit.models import Scenario, Word


def rand_herm(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (x + x.conj().T) / 2


def rand_unitary(rng, d):
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(x)
    return q


class TestHermitianEig:
    def test_diag(self):
        vals, _ = hermitian_eig(np.diag([0.0, 1.0]))
        np.testing.assert_allclose(vals, [1.0, 0.0])

    def test_pauli_x(self):
        vals, vecs = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(vals, [1.0, -1.0])
        np.testing.assert_allclose(np.abs(vecs), np.ones((2, 2)) / np.sqrt(2), atol=1e-12)
        # phase convention: first entries real positive
        assert vecs[0, 0].real > 0 and vecs[0, 1].real > 0

    def test_reconstruction_100_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            h = rand_herm(rng, 8)
            vals, vecs = hermitian_eig(h)
            recon = vecs @ np.diag(vals) @ vecs.conj().T
            assert np.linalg.norm(h - recon, 2) < 1e-12
            assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(8), 2) < 1e-10
            assert abs(vals.sum() - np.trace(h).real) < 1e-10
            assert all(vals[i] >= vals[i + 1] for i in range(7))

    def test_degenerate_deterministic(self):
        h = np.diag([1.0, 1.0, 0.0])
        vals1, vecs1 = hermitian_eig(h)
        vals2, vecs2 = hermitian_eig(h.copy())
        np.testing.assert_array_equal(vecs1, vecs2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestStructuralPredicates:
    def test_identity(self):
        f = structural_predicates(np.eye(3))
        assert f.hermitian and f.positive and f.projection and f.isometry and f.unitary

    def test_half_identity(self):
        f = structural_predicates(np.eye(2) / 2)
        assert f.hermitian and f.positive
        assert not f.projection

    def test_commuting_projections_iff_product_projection(self):
        # PQ = QP  iff  PQP is a projection
        rng = np.random.default_rng(9)
        for trial in range(40):
            d = int(rng.integers(2, 7))
            u = rand_unitary(rng, d)
            k1, k2 = rng.integers(1, d, size=2)
            p = u[:, :k1] @ u[:, :k1].conj().T
            if trial % 2 == 0:
                q = u[:, d - k2:] @ u[:, d - k2:].conj().T  # shares eigenbasis: commutes
            else:
                w = rand_unitary(rng, d)
                q = w[:, :k2] @ w[:, :k2].conj().T
            commute = np.linalg.norm(p @ q - q @ p, 2) < 1e-9
            pqp_proj = structural_predicates(p @ q @ p).projection
            assert commute == pqp_proj, f"trial {trial}: commute={commute} flag={pqp_proj}"

    def test_nonsquare_isometry(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        f = structural_predicates(v)
        assert f.isometry and not f.unitary and not f.hermitian


def test_psd_sqrt():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = x @ x.conj().T
    r = psd_sqrt(m)
    np.testing.assert_allclose(r @ r, m, atol=1e-10)


def test_tolerance_contract():
    tol = Tolerance(1e-9)
    assert tol.is_zero(5e-10)
    assert not tol.is_zero(5e-8)
    with pytest.raises(ValueError):
        Tolerance(-1.0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_tolerance_rejects_non_finite(eps):
    with pytest.raises(ValueError, match="finite"):
        Tolerance(eps)


def test_mat_norm_is_bitwise_the_numpy_2_norm():
    rng = np.random.default_rng(22)
    for n in range(2, 65):
        for shape in ((n, n), (n, n // 2 + 1)):
            for _ in range(4):
                a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                assert mat_norm(a) == float(np.linalg.norm(a, 2))
                assert mat_norm(a.real) == float(np.linalg.norm(a.real.astype(complex), 2))
    assert mat_norm(np.zeros((3, 3))) == 0.0


# The same declarations through the standard library, as the reference.
def declare(decorate, fld):
    @decorate(frozen=True)
    class Point:
        x: int
        y: float = 0.5
        note: dict = fld(default_factory=dict, compare=False)

        def __post_init__(self):
            if self.x < 0:
                raise ValueError(f"negative: {self}")

    @decorate
    class Log:
        entries: list = fld(default_factory=list)
        total: float = 0.0

    return Point, Log


Point, Log = declare(record, field)
RefPoint, RefLog = declare(dataclasses.dataclass, dataclasses.field)


def test_record_construction_matches_dataclasses():
    for args, kwargs in (((1,), {}), ((1, 2.0), {}), ((), {"x": 3, "y": 1.0}),
                         ((4,), {"note": {"a": 1}}), ((1, 2.0, {"k": 0}), {})):
        p, ref = Point(*args, **kwargs), RefPoint(*args, **kwargs)
        assert vars(p) == vars(ref)
        assert repr(p) == repr(ref)
    assert Point._fields == ("x", "y", "note") == tuple(f.name for f in dataclasses.fields(RefPoint))
    assert Point(1).note is not Point(1).note  # a fresh default per instance
    assert Log().entries is not Log().entries
    for bad_args, bad_kwargs in (((), {}), ((1, 2, 3, 4), {}), ((1,), {"x": 1}),
                                 ((1,), {"z": 0})):
        with pytest.raises(TypeError):
            Point(*bad_args, **bad_kwargs)
    with pytest.raises(ValueError, match="negative: "):
        Point(-1)
    # __post_init__'s message, which reaches stderr, shows the record's repr
    with pytest.raises(ValueError) as err:
        Scenario(0, 2, 2, 2)
    assert str(err.value) == "scenario counts must be >= 1: Scenario(nX=0, nY=2, nA=2, nB=2)"


def test_record_equality_and_hash_match_dataclasses():
    pairs = [((1, 2.0, {"a": 1}), (1, 2.0, {"b": 2})), ((1, 2.0), (1, 3.0)), ((1,), (2,))]
    for a, b in pairs:
        assert (Point(*a) == Point(*b)) == (RefPoint(*a) == RefPoint(*b))
        assert hash(Point(*a)) == hash(RefPoint(*a)) == hash((Point(*a).x, Point(*a).y))
    assert Point(1) != RefPoint(1) and Point(1) != (1, 0.5)
    assert Log([1]) == Log([1]) and Log([1]) != Log([2])
    with pytest.raises(TypeError):
        hash(Log())
    words = [Word(((x, a),), ((y, 0),)) for x in range(3) for a in range(2) for y in range(2)]
    assert [hash(w) for w in words] == [hash((w.lettersA, w.lettersB)) for w in words]
    assert hash(Tolerance(1e-9)) == hash((1e-9,))


def test_frozen_record_refuses_assignment_and_deletion():
    p = Point(1)
    for change in (lambda: setattr(p, "x", 2), lambda: setattr(p, "other", 2),
                   lambda: delattr(p, "x")):
        with pytest.raises(FrozenInstanceError):
            change()
    assert issubclass(FrozenInstanceError, AttributeError)
    assert p.x == 1
    log = Log()
    log.total = 2.0
    assert log.total == 2.0


def test_replace_changes_fields_and_checks_the_copy_again():
    p = Point(1, 2.0, {"a": 1})
    q = replace(p, y=3.0)
    assert (q.x, q.y, q.note) == (1, 3.0, {"a": 1}) and p.y == 2.0
    assert replace(Tolerance(1e-6)) == Tolerance(1e-6)
    with pytest.raises(ValueError):
        replace(p, x=-1)
    with pytest.raises(TypeError):
        replace(p, z=0)
