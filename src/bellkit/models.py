"""Model, correlation and dilation-witness data types, validation, and the abstract state.

A quantum model is a pair of local POVM families plus a bipartite pure state;
a commuting model puts both families on one space and requires them to
commute.  Word moments ``<psi| M^{x1}_{a1}...  (x) N^{y1}_{b1}... |psi>`` are
the single currency for everything observable: correlations are just the
degree-(1,1) moments.  A letter is ``(side, x, a)``, and every word vector
``pi_A(A) pi_B(B) psi`` (moments, frames, tilted-CHSH state terms) comes from
``_word_vector``'s per-call table, one letter acting on the word one shorter.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from . import linalg
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    dagger,
    mat_norm,
    _operator_excess,
    record,
)
from .schmidt import schmidt_decompose

__all__ = [
    "Scenario",
    "QuantumModel",
    "CommutingModel",
    "Correlation",
    "DilationWitness",
    "trivial_witness",
    "Word",
    "ModelFlags",
    "Violation",
    "ValidationReport",
    "validate_model",
    "correlation_of",
    "evaluate_moment",
    "classify",
    "is_projective_state",
]


@record
class Scenario:
    """Input/output alphabet sizes of a bipartite Bell scenario."""

    nX: int
    nY: int
    nA: int
    nB: int

    def __post_init__(self):
        if min(self.nX, self.nY, self.nA, self.nB) < 1:
            raise ValueError(f"scenario counts must be >= 1: {self}")


def _coerce_model(m) -> None:
    """A model record's ``__post_init__``: its families and state as complex arrays."""
    object.__setattr__(m, "M", [[as_matrix(op) for op in povm] for povm in m.M])
    object.__setattr__(m, "N", [[as_matrix(op) for op in povm] for povm in m.N])
    object.__setattr__(m, "psi", as_vector(m.psi))


@record
class QuantumModel:
    """Tensor-product model: local POVMs M[x][a], N[y][b] and a joint state.

    ``psi`` lives on the composite space with index ``i_A * dimB + i_B``.
    """

    scenario: Scenario
    dimA: int
    dimB: int
    M: list[list[np.ndarray]]
    N: list[list[np.ndarray]]
    psi: np.ndarray

    kind = "tensor"
    __post_init__ = _coerce_model


@record
class CommutingModel:
    """Single-space model with mutually commuting measurement families."""

    scenario: Scenario
    dim: int
    M: list[list[np.ndarray]]
    N: list[list[np.ndarray]]
    psi: np.ndarray

    kind = "commuting"
    __post_init__ = _coerce_model


@record
class Correlation:
    """Outcome table p[a, b, x, y]; rows sum to 1 for every setting pair."""

    scenario: Scenario
    p: np.ndarray
    notes: dict | None = None

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        sc = self.scenario
        if p.shape != (sc.nA, sc.nB, sc.nX, sc.nY):
            raise ValueError(f"correlation table shape {p.shape} does not match {sc}")
        object.__setattr__(self, "p", p)


@record
class DilationWitness:
    """Local isometries and auxiliary state certifying S >= T.

    ``IA`` maps H_A into H~_A (x) H_A^aux (composite row index
    ``i_tilde * dimAuxA + i_aux``), likewise ``IB``; ``aux`` lives on
    H_A^aux (x) H_B^aux.
    """

    IA: np.ndarray
    IB: np.ndarray
    aux: np.ndarray
    dimAuxA: int
    dimAuxB: int

    def __post_init__(self):
        object.__setattr__(self, "IA", as_matrix(self.IA))
        object.__setattr__(self, "IB", as_matrix(self.IB))
        object.__setattr__(self, "aux", as_vector(self.aux))


def trivial_witness(m: QuantumModel) -> DilationWitness:
    """Identity-isometry witness with a scalar auxiliary state."""
    return DilationWitness(
        IA=np.eye(m.dimA), IB=np.eye(m.dimB), aux=np.array([1.0 + 0j]),
        dimAuxA=1, dimAuxB=1,
    )


@record
class Word:
    """Product word pi_A(lettersA) pi_B(lettersB) of the universal algebra.

    Letters are (input, output) pairs; A's letters are written before B's
    (they commute), and the empty word is the identity.  There is no
    validation here: ``evaluate_moment`` checks letters against a scenario.
    """

    lettersA: tuple[tuple[int, int], ...] = ()
    lettersB: tuple[tuple[int, int], ...] = ()

    @property
    def length(self) -> int:
        return len(self.lettersA) + len(self.lettersB)

    @cached_property
    def letters(self) -> tuple[tuple[str, int, int], ...]:
        """``(side, x, a)`` letters, A's first; cached in the instance dict, not a field."""
        return (tuple(("A", x, a) for x, a in self.lettersA)
                + tuple(("B", y, b) for y, b in self.lettersB))

    def key(self):
        """Length-lex sort key: length, then A's letters before B's."""
        return (self.length, self.letters)

    def prepend(self, letter) -> "Word":
        """The letter ``(side, x, a)`` times this word."""
        side, x, a = letter
        if side == "A":
            return Word(((x, a),) + self.lettersA, self.lettersB)
        return Word(self.lettersA, ((x, a),) + self.lettersB)

    def adjoint_times(self, other: "Word") -> "Word":
        """(self)^dagger * other, for self-adjoint letters."""
        return Word(
            tuple(reversed(self.lettersA)) + other.lettersA,
            tuple(reversed(self.lettersB)) + other.lettersB,
        )


def scenario_letters(sc: Scenario) -> list[tuple[str, int, int]]:
    """All generator letters ``(side, x, a)``, ordered (side A before B, input, output)."""
    return ([("A", x, a) for x in range(sc.nX) for a in range(sc.nA)]
            + [("B", y, b) for y in range(sc.nY) for b in range(sc.nB)])


@record
class ModelFlags:
    projective: bool
    full_rank: bool
    synchronous_scenario: bool
    binary: bool


@record
class Violation:
    name: str
    location: str
    residual: float

    def __str__(self):
        return f"{self.name} at {self.location}: residual {self.residual:.3e}"


@record
class ValidationReport:
    violations: list[Violation]

    @property
    def valid(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.valid:
            return "valid"
        return "; ".join(str(v) for v in self.violations)


def _povm_violations(ops, label: str, n_inputs: int, n_outputs: int, dim: int,
                     tol: Tolerance):
    """Every violation of a POVM family, in the order ``validate_model`` reports them."""
    if len(ops) != n_inputs:
        yield Violation("family count", label, float(abs(len(ops) - n_inputs)))
        return
    for x, povm in enumerate(ops):
        if len(povm) != n_outputs:
            yield Violation("POVM outcome count", f"{label}[{x}]",
                            float(abs(len(povm) - n_outputs)))
            continue
        for a, m in enumerate(povm):
            loc = f"{label}[{x}][{a}]"
            if m.shape != (dim, dim):
                rows, cols = m.shape
                yield Violation("operator shape", loc, float(max(abs(rows - dim), abs(cols - dim))))
                break  # no completeness check for this POVM
            herm_res = _operator_excess(m - dagger(m), tol, lambda: 1 + mat_norm(m))
            if herm_res is not None:
                yield Violation("hermiticity", loc, herm_res)
            else:
                min_eig = float(np.linalg.eigvalsh((m + dagger(m)) / 2).min())
                if min_eig < -tol.eps:
                    yield Violation("positivity", loc, -min_eig)
        else:
            total = sum(povm)
            comp_res = _operator_excess(total - np.eye(dim), tol, lambda: 1 + mat_norm(total))
            if comp_res is not None:
                yield Violation("POVM completeness", f"{label}[{x}]", comp_res)


def validate_model(m, tol: Tolerance = DEFAULT_TOL) -> ValidationReport:
    """Every violated model invariant with its residual; valid iff none.

    Checks the POVM families, then the state, then (commuting models only)
    that every M-operator commutes with every N-operator.
    """
    if isinstance(m, QuantumModel):
        dimA, dimB, dim = m.dimA, m.dimB, m.dimA * m.dimB
    elif isinstance(m, CommutingModel):
        dimA = dimB = dim = m.dim
    else:
        raise TypeError(f"not a model: {type(m)}")
    sc = m.scenario
    violations = [*_povm_violations(m.M, "M", sc.nX, sc.nA, dimA, tol),
                  *_povm_violations(m.N, "N", sc.nY, sc.nB, dimB, tol)]
    if len(m.psi) != dim:
        violations.append(Violation("state dimension", "psi", float(abs(len(m.psi) - dim))))
    else:
        norm_res = abs(float(np.linalg.norm(m.psi)) - 1.0)
        if norm_res > tol.eps:
            violations.append(Violation("state normalization", "psi", norm_res))
    # products of misshapen operators are undefined; their shapes are reported
    if isinstance(m, CommutingModel) and all(op.shape == (dim, dim)
                                             for povm in (*m.M, *m.N) for op in povm):
        violations += _commutation_violations(m, tol)
    return ValidationReport(violations)


def _commutation_violations(m: CommutingModel, tol: Tolerance):
    """Every [M^x_a, N^y_b] whose norm exceeds eps (1 + ||M^x_a|| ||N^y_b||).

    The one commutation rule: ``validate_model`` and ``verify_tilted_sos``
    both apply it to commuting models.  An operator's spectral norm is taken
    once, and only for a commutator past ``_operator_excess``'s screen."""
    norm_m = cache(lambda x, a: mat_norm(m.M[x][a]))
    norm_n = cache(lambda y, b: mat_norm(m.N[y][b]))
    for x, povm in enumerate(m.M):
        for a, ma in enumerate(povm):
            for y, qovm in enumerate(m.N):
                for b, nb in enumerate(qovm):
                    res = _operator_excess(ma @ nb - nb @ ma, tol,
                                          lambda: 1 + norm_m(x, a) * norm_n(y, b))
                    if res is not None:
                        yield Violation("commutation", f"[M[{x}][{a}], N[{y}][{b}]]", res)


def _act(model, side: str, op: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """``op`` acting on the ``side`` ("A" or "B") factor of ``vec``, a state
    vector or a d x k block of them.

    On a commuting model this is ``op @ vec``; on a tensor model each column
    is the dimA x dimB coefficient matrix P (index ``i_A * dimB + i_B``) and
    becomes ``op P`` for side A and ``P op^T`` for side B.
    """
    if not isinstance(model, QuantumModel):
        return op @ vec
    if side == "A":
        return (op @ vec.reshape(model.dimA, -1)).reshape(vec.shape)
    return (vec.T.reshape(-1, model.dimB) @ op.T).reshape(vec.T.shape).T


def _apply_letter(model, letter, vec: np.ndarray) -> np.ndarray:
    """The operator of ``letter`` ``(side, x, a)`` acting on ``vec``."""
    side, x, a = letter
    return _act(model, side, (model.M if side == "A" else model.N)[x][a], vec)


def _word_vector(model, letters, table: dict) -> np.ndarray:
    """The word ``letters``, in either side order, acting on psi: its first
    letter on the vector of the rest, cached in ``table`` by letter tuple."""
    if letters not in table:
        table[letters] = (_apply_letter(model, letters[0], _word_vector(model, letters[1:], table))
                          if letters else model.psi)
    return table[letters]


def _moment(model, letters, table: dict) -> complex:
    return complex(np.vdot(model.psi, _word_vector(model, letters, table)))


def evaluate_moment(model, word: Word) -> complex:
    """Abstract-state value f(word) = <psi| pi_A(lettersA) pi_B(lettersB) |psi>.

    Works for tensor and commuting models alike; the empty word acts as the
    identity, so ``evaluate_moment(m, Word()) == 1``.  A letter's indices
    are Python or numpy integers; a bool, float or string raises TypeError.
    """
    sc = model.scenario
    for side, x, a in word.letters:
        if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in (x, a)):
            raise TypeError(f"{side}-letter ({x!r},{a!r}) has a non-integer index")
        n_in, n_out = (sc.nX, sc.nA) if side == "A" else (sc.nY, sc.nB)
        if not (0 <= x < n_in and 0 <= a < n_out):
            raise IndexError(f"{side}-letter ({x},{a}) outside scenario {sc}")
    return _moment(model, word.letters, {})


def correlation_of(model, tol: Tolerance = DEFAULT_TOL) -> Correlation:
    """Correlation table of a valid model.

    Imaginary parts below tolerance are discarded and tiny negatives clamped
    to zero, renormalizing each (x,y) slice; the adjustments are recorded in
    ``Correlation.notes``.
    """
    sc = model.scenario
    shape = (sc.nA, sc.nB, sc.nX, sc.nY)
    table: dict = {}
    vals = np.array([_moment(model, (("A", x, a), ("B", y, b)), table)
                     for a, b, x, y in np.ndindex(shape)]).reshape(shape)
    max_imag = float(np.abs(vals.imag).max())
    if max_imag > tol.eps:
        raise ValueError(
            f"correlation has residual imaginary part {max_imag:.3e}; model is not valid"
        )
    clamped = max(0.0, -float(vals.real.min()))
    if clamped > tol.eps:
        raise ValueError(f"correlation entry below -eps: {-clamped:.3e}; model is not valid")
    p = np.clip(vals.real, 0.0, None)
    for x in range(sc.nX):
        for y in range(sc.nY):
            p[:, :, x, y] /= p[:, :, x, y].sum()
    return Correlation(sc, p, notes={"max_imag_discarded": max_imag,
                                     "max_negative_clamped": clamped})


def classify(m: QuantumModel, tol: Tolerance = DEFAULT_TOL) -> ModelFlags:
    """Structural flags of a valid quantum model."""
    projective = all(
        linalg.structural_predicates(op, tol).projection
        for fam in (m.M, m.N) for povm in fam for op in povm
    )
    sc = m.scenario
    return ModelFlags(
        projective=projective,
        full_rank=schmidt_decompose(m.psi, m.dimA, m.dimB, tol).full_rank,
        synchronous_scenario=(sc.nX == sc.nY and sc.nA == sc.nB),
        binary=(sc.nA == 2 and sc.nB == 2),
    )


def is_projective_state(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the abstract state of the model is projective.

    Tests f((m^x_a - (m^x_a)^2) (x) Id) = 0 and the B-side analogue for all
    generators, via linearity from word moments.  A non-projective POVM acting
    only outside the support of psi still yields True: the state cannot see it.
    """
    table: dict = {}
    return all(abs(_moment(m, (g,), table) - _moment(m, (g, g), table)) <= tol.eps
               for g in scenario_letters(m.scenario))  # one letter, then the letter squared
