"""Dense complex linear algebra substrate.

Everything downstream works with plain ``numpy`` arrays: matrices are
2-d ``complex128`` arrays (row-major), vectors 1-d.  Composite indices of a
tensor product follow the numpy ``kron`` convention, ``i_A * dimB + i_B``.
All approximate comparisons go through :class:`Tolerance`.  Every record
type of the package is declared with :func:`record`.
"""

from __future__ import annotations

import math
from operator import attrgetter

import numpy as np

__all__ = [
    "record",
    "field",
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

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class _Field:
    __slots__ = ("default_factory", "compare")

    def __init__(self, default_factory, compare):
        self.default_factory, self.compare = default_factory, compare


def field(*, default_factory, compare: bool = True):
    """A record field whose default is ``default_factory()``, called for
    each instance not given the field, and whether ``==`` and ``hash`` read it."""
    return _Field(default_factory, compare)


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator: one field per annotation of the class body, in order.

    It gives the class what ``dataclasses.dataclass`` would, built from
    closures over the field names rather than from generated source, so a
    declaration runs no ``exec``:

    - ``_fields``, the field names;
    - ``__init__``, taking the fields by position or keyword; a field not
      given takes its default, or a fresh ``field(default_factory=...)``
      value; then ``__post_init__`` runs, if the class has one;
    - ``__repr__`` as ``Name(f=v, ...)``;
    - ``__eq__`` between instances of the same class, over the fields not
      declared ``field(compare=False)``.

    A ``frozen`` record raises :class:`FrozenInstanceError` on assignment
    and deletion and hashes as the tuple of its compared fields, as
    ``dataclasses`` does, so a set of records iterates in the same order;
    any other record is unhashable.
    """
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults, compared = {}, []  # defaults: name -> a call giving the value
    for name in names:
        spec = cls.__dict__.get(name, _MISSING)
        if isinstance(spec, _Field):
            defaults[name] = spec.default_factory
            delattr(cls, name)
        elif spec is not _MISSING:
            defaults[name] = lambda value=spec: value
        if not isinstance(spec, _Field) or spec.compare:
            compared.append(name)
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
                values.append(defaults[name]())
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

    get = attrgetter(*compared)  # of one name, the value rather than a 1-tuple
    key = (lambda obj: (get(obj),)) if len(compared) == 1 else get

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

    cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, __eq__
    cls.__hash__ = __hash__ if frozen else None
    if frozen:
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


@record(frozen=True)
class Tolerance:
    """Tolerance used for all approximate checks.

    Besides the uniform ``eps`` rules, every cut is ``cut(name)``, from the
    one table above.
    """

    eps: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.eps}")

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
    """Spectral norm; the operator norm used for all matrix residuals.

    The largest singular value, as ``np.linalg.norm(m, 2)`` takes it (the
    same bits), without that function's dispatch.
    """
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)[0])


def cluster_eigenvalues(vals: np.ndarray, gap: float) -> list[slice]:
    """Slices of index ranges in which adjacent eigenvalues differ by at most ``gap``."""
    slices = []
    start = 0
    for i in range(1, len(vals)):
        if abs(vals[i] - vals[i - 1]) > gap:
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
    eigenvectors as columns.  Inside each degenerate cluster (adjacent gaps
    at most the ``cluster`` cut) the columns are re-orthonormalized in index
    order and each column's phase is fixed so its first entry above the
    ``dust`` cut is real positive, making the output reproducible.
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


@record(frozen=True)
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

