"""Dense complex linear algebra substrate.

Everything downstream works with plain ``numpy`` arrays: matrices are
2-d ``complex128`` arrays (row-major), vectors 1-d.  Composite indices of a
tensor product follow the numpy ``kron`` convention, ``i_A * dimB + i_B``.
All approximate comparisons go through :class:`Tolerance`.  Every record
type of the package is declared with :func:`record`.
"""

from __future__ import annotations

import sys
from operator import attrgetter

import numpy as np

__all__ = [
    "record",
    "replace",
    "FrozenInstanceError",
    "Tolerance",
    "DEFAULT_TOL",
    "as_matrix",
    "as_vector",
    "dagger",
    "hermitian_eig",
    "cluster_eigenvalues",
    "StructuralFlags",
    "structural_predicates",
    "psd_sqrt",
    "mat_norm",
]


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a record."""


def record(cls):
    """Class decorator: one field per annotation of the class body, in order.

    It gives the class what ``dataclasses.dataclass(frozen=True)`` would,
    built from closures over the field names rather than from generated
    source, so a declaration runs no ``exec``:

    - ``_fields``, the field names;
    - ``__init__``, taking the fields by position or keyword; a field not
      given takes its default, the class attribute of its name, one value
      shared by every instance; then ``__post_init__`` runs, if the class
      has one;
    - ``__repr__`` as ``Name(f=v, ...)``;
    - ``__eq__`` between instances of the same class, over all fields;
    - ``__hash__`` as the tuple of the fields, so a set of records iterates
      in the same order as one of dataclasses;
    - ``__setattr__`` and ``__delattr__``, which raise
      :class:`FrozenInstanceError`: a record is a value, built whole.

    As on a dataclass, a field holding a numpy array of more than one entry
    makes ``==`` raise numpy's ``ValueError`` and ``hash`` raise ``TypeError``.
    """
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    title = cls.__qualname__

    def bind(args, kwargs) -> list:
        """All field values in order; ``kwargs`` is the call's own dict."""
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{title}() missing required argument {name!r}")
        if kwargs:  # a name given by position too, or no field's name
            key = next(iter(kwargs))
            raise TypeError(f"{title}() got multiple values for argument {key!r}" if key in names
                            else f"{title}() got an unexpected keyword argument {key!r}")
        return values

    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return f"{title}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    get = attrgetter(*names)  # of one name, the value rather than a 1-tuple
    key = (lambda obj: (get(obj),)) if len(names) == 1 else get

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__init__, cls.__repr__, cls.__eq__, cls.__hash__ = __init__, __repr__, __eq__, __hash__
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    cls._fields = names
    return cls


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with the named fields changed; the copy
    is built by ``__init__``, so ``__post_init__`` checks it again."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


# Every cut that is not a uniform eps rule: name -> (k, floor), the cut is max(k * eps, floor).
# k = 0 is a fixed cut, floor = 0 a multiple of eps; one name per rule, with the decisions it cuts.
_CUTS = {
    "dust": (0.0, 1e-12),           # phase pivots, component weights, merge-gap floor
    "rank": (0.0, 1e-9),            # Schmidt/support rank (relative), negative probabilities
    "cluster": (0.0, 1e-8),         # eigenvalue clusters, a vanishing commutant element
    "overlap": (0.0, 1e-7),         # component-state overlap modulus against 1
    "coarse": (0.0, 1e-6),          # probability sums, component correlations
    "commutant": (1.0, 1e-12),      # commutant rank cut (times the generator scale)
    "identity": (1.0, 1e-8),        # tilted-CHSH SOS identity coefficient residuals
    "frame": (2.0, 0.0),            # cyclic frame residuals, state-equal Gram gaps
    "residual": (10.0, 0.0),        # Naimark and rounding residuals, correlation gap
    "intertwiner": (100.0, 0.0),    # irrep intertwiner residuals
    "multiplicity": (100.0, 1e-10),  # component singular-value ratio across multiplicity
    "reassembly": (100.0, 1e-8),    # irrep reassembly defect, component correlation gap
}


@record
class Tolerance:
    """Tolerance used for all approximate checks.

    Besides the uniform ``eps`` rules, every cut is ``cut(name)``, from the
    one table above.  ``eps`` is finite and at least ``sys.float_info.epsilon``.
    """

    eps: float = 1e-9

    def __post_init__(self):
        if not sys.float_info.epsilon <= self.eps <= sys.float_info.max:
            raise ValueError(f"tolerance must be finite and at least {sys.float_info.epsilon!r}"
                             f" (float64 resolution), got {self.eps}")

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
    """Spectral norm; the operator norm used for all matrix residuals.

    The largest singular value, as ``np.linalg.norm(m, 2)`` takes it (the
    same bits), without that function's dispatch.
    """
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])


def _operator_excess(c: np.ndarray, tol: Tolerance, scale) -> float | None:
    """``||c||_2`` if it exceeds ``eps * scale()``, else None.  ``scale()`` is at
    least 1, so a Frobenius norm at most eps passes (``||c||_2 <= ||c||_F``)
    with no SVD and no call of ``scale``."""
    if np.linalg.norm(c) <= tol.eps:
        return None
    res = mat_norm(c)
    return res if res > tol.eps * scale() else None


def _project_off(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x`` (a vector or columns) less ``Q (Q^H x)``, ``Q = basis`` orthonormal,
    twice: the second pass removes what rounding left of ``x`` in Q's span."""
    for _ in range(2):
        x = x - basis @ (dagger(basis) @ x)
    return x


def cluster_eigenvalues(vals: np.ndarray, gap: float) -> list[slice]:
    """Slices of index ranges in which adjacent eigenvalues differ by at most
    ``gap``: neighbours exactly ``gap`` apart share a cluster."""
    if not len(vals):
        return []
    cuts = [0, *(np.flatnonzero(np.abs(np.diff(vals)) > gap) + 1).tolist(), len(vals)]
    return [slice(i, j) for i, j in zip(cuts, cuts[1:])]


def _fix_column_phases(u: np.ndarray, negligible: float) -> np.ndarray:
    """Rotate each column so its first non-negligible entry is real positive.

    Every column must have one: the callers pass orthonormal columns."""
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        idx = np.flatnonzero(np.abs(col) > negligible)
        pivot = col[idx[0]]
        u[:, j] = col * (abs(pivot) / pivot)
    return u


def hermitian_eig(h, tol: Tolerance = DEFAULT_TOL):
    """Spectral decomposition of a Hermitian matrix.

    Returns ``(vals, vecs)`` with eigenvalues sorted descending and
    eigenvectors as columns.  Each column's phase is fixed so its first
    entry above the ``dust`` cut is real positive.  A degenerate cluster
    (adjacent gaps at most the ``cluster`` cut) goes through QR first, which
    on orthonormal columns changes only phases (and rounding), so its basis
    is the eigensolver's own and moves with the BLAS kernel and threads.
    """
    h = as_matrix(h)
    if _operator_excess(h - dagger(h), tol, lambda: 1 + mat_norm(h)) is not None:
        raise ValueError("hermitian_eig: input is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh((h + dagger(h)) / 2)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for block in cluster_eigenvalues(vals, tol.cut("cluster")):
        q, _ = np.linalg.qr(vecs[:, block])
        vecs[:, block] = q
    vecs = _fix_column_phases(vecs, tol.cut("dust"))
    return vals, vecs


@record
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
    herm = rows == cols and _operator_excess(m - dagger(m), tol, lambda: scale) is None
    positive = projection = False
    if herm:
        vals = np.linalg.eigvalsh((m + dagger(m)) / 2)
        positive = bool(vals.min(initial=0.0) >= -tol.eps * scale)
        projection = _operator_excess(m @ m - m, tol, lambda: scale**2) is None
    isometry = (cols <= rows
                and _operator_excess(dagger(m) @ m - np.eye(cols), tol, lambda: scale**2) is None)
    unitary = (rows == cols and isometry
               and _operator_excess(m @ dagger(m) - np.eye(rows), tol, lambda: scale**2) is None)
    return StructuralFlags(herm, positive, projection, isometry, unitary)


def psd_sqrt(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix; tiny negative eigenvalues clamped."""
    vals, vecs = hermitian_eig(m, tol)
    if vals.min(initial=0.0) < -tol.eps * (1 + abs(vals).max(initial=0.0)):
        raise ValueError(f"psd_sqrt: matrix has negative eigenvalue {vals.min()}")
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ dagger(vecs)

