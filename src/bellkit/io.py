"""File formats and canonical JSON serialization.

Model and correlation files are UTF-8 JSON; complex matrices are row-major
lists of rows with ``[re, im]`` entries, and the composite index convention
is ``i_A * dimB + i_B``.  Reports and fixtures are emitted in a canonical
form (sorted keys, compact separators, 17-significant-digit floats) so that
serialize -> parse -> serialize is byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import suppress
from itertools import chain
from pathlib import Path

import numpy as np

from .linalg import DEFAULT_TOL
from .models import CommutingModel, Correlation, DilationWitness, QuantumModel, Scenario

__all__ = [
    "ParseError",
    "canonical_dumps",
    "matrix_to_obj",
    "obj_to_matrix",
    "vector_to_obj",
    "obj_to_vector",
    "model_to_obj",
    "obj_to_model",
    "correlation_to_obj",
    "obj_to_correlation",
    "witness_to_obj",
    "obj_to_witness",
    "load_model",
    "load_correlation",
    "load_witness",
    "load_decomposition",
    "save_json",
    "file_sha256",
]


class ParseError(ValueError):
    """Input file failed to parse; message carries path and field context."""


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite float cannot be serialized")
    return format(float(x) + 0.0, ".17g")  # + 0.0 writes -0.0 as 0, as JSON reads it


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, compact separators, .17g floats."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list[str]):
    if isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif obj is None or isinstance(obj, (bool, int, str, np.integer)):
        parts.append(json.dumps(int(obj) if isinstance(obj, np.integer) else obj))
    elif isinstance(obj, list) and (rows := _float_pairs(obj)) is not None:
        parts.append(rows)
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for k, item in enumerate(obj):
            if k:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            if k:
                parts.append(",")
            parts.append(json.dumps(key) + ":")
            _emit(obj[key], parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj)} canonically")


def _float_pairs(obj: list) -> str | None:
    """``obj`` as canonical JSON when every item is an ``[re, im]`` list of
    floats (a matrix row or a vector), formatted in one pass; else None.
    Negative zeros are written as 0, like ``_fmt_float`` writes them."""
    if not all(type(e) is list and len(e) == 2 for e in obj):
        return None
    flat = [x for e in obj for x in e]
    if set(map(type, flat)) != {float}:
        return None
    flat = [x + 0.0 for x in flat]
    text = ("[" + ",".join(["[%.17g,%.17g]"] * len(obj)) + "]") % tuple(flat)
    if "n" in text:  # "inf" or "nan": a finite .17g number has no "n"
        raise ValueError("non-finite float cannot be serialized")
    return text


def matrix_to_obj(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def _is_finite_number(x) -> bool:
    """A JSON number: an int or float (not a bool), finite as a float."""
    with suppress(OverflowError):  # an int too large for a float
        return type(x) in (int, float) and math.isfinite(x)
    return False


def _numbers(obj, where: str, shape: tuple) -> np.ndarray:
    """``obj``, lists nested ``len(shape)`` deep with finite JSON numbers as
    leaves, as a float array.  ``shape`` holds ``None`` for a depth whose
    lists share any one length, then the fixed lengths of an entry.  Else a
    ParseError naming the first bad entry in row-major order, whole."""
    def deep(depth: int):
        items = [obj]
        for _ in range(depth):
            items = chain.from_iterable(items)
        return items
    # with one length per depth, a str or dict among the lists puts a str among the leaves
    with suppress(TypeError, OverflowError):  # a number where a list belongs; a huge int
        found = [set(map(len, deep(depth))) for depth in range(len(shape))]
        lengths = [min(f, default=0) for f in found]
        if (all(len(f) == 1 and n in (None, *f) for f, n in zip(found, shape)) and 0 not in lengths
                and set(map(type, deep(len(shape)))) <= {int, float}):
            a = np.fromiter(deep(len(shape)), float, math.prod(lengths)).reshape(lengths)
            if np.isfinite(a).all():
                return a
    seen = list(shape)

    def check(x, depth: int, at: str):
        if depth == len(shape):
            if not _is_finite_number(x):
                raise ParseError(f"{at}: expected a finite number, got {x!r:.40}")
        elif not isinstance(x, list):
            raise ParseError(f"{at}: expected a list, got {x!r:.40}")
        elif seen[depth] not in (None, len(x)):
            raise ParseError(f"{where}: rows of unequal length" if shape[depth] is None else
                             f"{at}: expected a list of length {shape[depth]}, got {x!r:.40}")
        else:
            seen[depth] = len(x)
            for k, y in enumerate(x):
                check(y, depth + 1, f"{at}[{k}]" if shape[depth] is None else at)

    check(obj, 0, where)
    if None in seen:
        raise ParseError(f"{where}: an empty list leaves the shape open")
    return np.zeros(seen)  # only an empty array passes the check but not the fast path


def obj_to_matrix(obj, where: str) -> np.ndarray:
    return _numbers(obj, where, (None, None, 2)).view(complex)[..., 0]


def vector_to_obj(v: np.ndarray) -> list:
    return matrix_to_obj(np.reshape(v, -1))


def obj_to_vector(obj, where: str) -> np.ndarray:
    return _numbers(obj, where, (None, 2)).view(complex)[..., 0]


def _scenario_to_obj(sc: Scenario) -> dict:
    return {"nX": sc.nX, "nY": sc.nY, "nA": sc.nA, "nB": sc.nB}


def _obj_to_scenario(obj, where: str) -> Scenario:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    return Scenario(*[_int_field(obj, key, where) for key in ("nX", "nY", "nA", "nB")])


def model_to_obj(m) -> dict:
    obj = {
        "kind": m.kind,
        "scenario": _scenario_to_obj(m.scenario),
        "M": [[matrix_to_obj(op) for op in povm] for povm in m.M],
        "N": [[matrix_to_obj(op) for op in povm] for povm in m.N],
        "psi": vector_to_obj(m.psi),
    }
    if isinstance(m, QuantumModel):
        obj["dimA"] = m.dimA
        obj["dimB"] = m.dimB
    else:
        obj["dim"] = m.dim
    return obj


def obj_to_model(obj, where: str = "model"):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    kind = obj.get("kind")
    if kind not in ("tensor", "commuting"):
        raise ParseError(f"{where}: field 'kind' must be 'tensor' or 'commuting', got {kind!r}")
    sc = _obj_to_scenario(_field(obj, "scenario", where), f"{where}.scenario")
    M = _obj_to_family(_field(obj, "M", where), f"{where}.M")
    N = _obj_to_family(_field(obj, "N", where), f"{where}.N")
    psi = obj_to_vector(_field(obj, "psi", where), f"{where}.psi")
    if kind == "tensor":
        return QuantumModel(scenario=sc, dimA=_int_field(obj, "dimA", where),
                            dimB=_int_field(obj, "dimB", where), M=M, N=N, psi=psi)
    return CommutingModel(scenario=sc, dim=_int_field(obj, "dim", where), M=M, N=N, psi=psi)


def _obj_to_family(obj, where: str) -> list[list[np.ndarray]]:
    if not isinstance(obj, list) or not all(isinstance(povm, list) for povm in obj):
        raise ParseError(f"{where}: expected a list of lists of matrices")
    return [[obj_to_matrix(op, f"{where}[{x}][{a}]") for a, op in enumerate(povm)]
            for x, povm in enumerate(obj)]


def _field(obj: dict, key: str, where: str):
    """``obj[key]``, or a ParseError naming the missing field."""
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _int_field(obj: dict, key: str, where: str) -> int:
    """``obj[key]``, a count or a dimension, as an int: a non-bool int or an
    integral float from 1 to ``sys.maxsize``, which keeps a size mismatch's
    residual a finite float; else a ParseError, also when the key is missing."""
    value = _field(obj, key, where)
    n = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= sys.maxsize:
        return n
    raise ParseError(f"{where}: field '{key}' must be a positive integer of at most "
                     f"{sys.maxsize}, got {value!r:.40}")


def correlation_to_obj(c: Correlation) -> dict:
    return {
        "scenario": _scenario_to_obj(c.scenario),
        "p": c.p.tolist(),
    }


def obj_to_correlation(obj, where: str = "correlation") -> Correlation:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    sc = _obj_to_scenario(_field(obj, "scenario", where), f"{where}.scenario")
    p = _numbers(_field(obj, "p", where), f"{where}.p", (None,) * 4)
    if p.shape != (sc.nA, sc.nB, sc.nX, sc.nY):
        raise ParseError(
            f"{where}: table shape {p.shape} does not match scenario "
            f"(expected ({sc.nA},{sc.nB},{sc.nX},{sc.nY}))")
    if p.min() < -DEFAULT_TOL.cut("rank"):
        raise ParseError(f"{where}: negative probability {p.min():.3e}")
    p = np.clip(p, 0.0, None)  # decimal round-trip dust
    sums = p.sum(axis=(0, 1))
    if np.abs(sums - 1.0).max() > DEFAULT_TOL.cut("coarse"):
        bad = np.abs(sums - 1.0).argmax()
        x, y = np.unravel_index(bad, sums.shape)
        raise ParseError(
            f"{where}: outcome table for (x={x},y={y}) sums to {sums[x, y]:.9g}, not 1")
    return Correlation(scenario=sc, p=p)


def witness_to_obj(w: DilationWitness) -> dict:
    return {
        "IA": matrix_to_obj(w.IA),
        "IB": matrix_to_obj(w.IB),
        "aux": vector_to_obj(w.aux),
        "dimAuxA": w.dimAuxA,
        "dimAuxB": w.dimAuxB,
    }


def obj_to_witness(obj, where: str = "witness") -> DilationWitness:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    return DilationWitness(
        IA=obj_to_matrix(_field(obj, "IA", where), f"{where}.IA"),
        IB=obj_to_matrix(_field(obj, "IB", where), f"{where}.IB"),
        aux=obj_to_vector(_field(obj, "aux", where), f"{where}.aux"),
        dimAuxA=_int_field(obj, "dimAuxA", where),
        dimAuxB=_int_field(obj, "dimAuxB", where),
    )


def _read(path) -> bytes:
    """The bytes of the file at ``path``, or a ParseError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None


def _load_json(path) -> object:
    try:
        return json.loads(_read(path).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


def load_model(path):
    return obj_to_model(_load_json(path), where=str(path))


def load_correlation(path) -> Correlation:
    return obj_to_correlation(_load_json(path), where=str(path))


def load_witness(path) -> DilationWitness:
    return obj_to_witness(_load_json(path), where=str(path))


def load_decomposition(path) -> list[tuple[float, Correlation]]:
    """Convex decomposition file: {"components": [{"weight": w, "correlation": {...}}]},
    with at least one component and positive weights that sum to 1."""
    obj = _load_json(path)
    where = str(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
        raise ParseError(f"{where}: expected an object with a 'components' list")
    if not obj["components"]:
        raise ParseError(f"{where}: 'components' is empty")
    out = []
    for k, comp in enumerate(obj["components"]):
        here = f"{where}.components[{k}]"
        if not isinstance(comp, dict):
            raise ParseError(f"{here}: expected an object with 'weight' and 'correlation'")
        weight, corr = _field(comp, "weight", here), _field(comp, "correlation", here)
        if not _is_finite_number(weight) or weight <= 0:
            raise ParseError(f"{here}: field 'weight' must be a positive finite number, "
                             f"got {weight!r}")
        out.append((float(weight), obj_to_correlation(corr, here)))
    total = sum(w for w, _ in out)
    if abs(total - 1.0) > DEFAULT_TOL.cut("coarse"):
        raise ParseError(f"{where}: weights sum to {total:.9g}, not 1")
    return out


def save_json(path, obj):
    try:
        Path(path).write_text(canonical_dumps(obj) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None


def file_sha256(path) -> str:
    return hashlib.sha256(_read(path)).hexdigest()
