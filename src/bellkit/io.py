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
import sys
from pathlib import Path

import numpy as np

from .dilations import DilationWitness
from .linalg import DEFAULT_TOL
from .models import CommutingModel, Correlation, QuantumModel, Scenario

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
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
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
            parts.append(json.dumps(key))
            parts.append(":")
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
    # the bound is False for NaN, +-inf and ints too large for a float
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _complex_entries(obj, where: str) -> list[complex]:
    """A list of ``[re, im]`` pairs of JSON numbers as complex values, else a
    ParseError naming ``where`` and the first entry that is not one.
    Non-finite values pass here; ``_finite`` rejects them on the array."""
    try:
        if {type(x) for e in obj for x in e} <= {int, float}:
            return [complex(re, im) for re, im in obj]
    except (TypeError, ValueError, OverflowError):
        pass  # a non-iterable entry, not a pair, or an int beyond float range
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of [re, im] pairs")
    k, e = next((k, e) for k, e in enumerate(obj) if not (
        isinstance(e, list) and len(e) == 2 and all(map(_is_finite_number, e))))
    raise ParseError(f"{where}[{k}]: expected an [re, im] pair of finite numbers, "
                     f"got {e!r:.40}")


def _finite(a: np.ndarray, where: str) -> np.ndarray:
    """``a`` if every entry is finite, else a ParseError at the first that is not."""
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        at = "".join(f"[{i}]" for i in bad[0])
        raise ParseError(f"{where}{at}: non-finite entry {a[tuple(bad[0])]}")
    return a


def obj_to_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of rows")
    rows = [_complex_entries(row, f"{where}[{i}]") for i, row in enumerate(obj)]
    if len({len(row) for row in rows}) > 1:
        raise ParseError(f"{where}: rows of unequal length")
    return _finite(np.array(rows, dtype=complex), where)


def vector_to_obj(v: np.ndarray) -> list:
    return matrix_to_obj(np.reshape(v, -1))


def obj_to_vector(obj, where: str) -> np.ndarray:
    return _finite(np.array(_complex_entries(obj, where), dtype=complex), where)


def _scenario_to_obj(sc: Scenario) -> dict:
    return {"nX": sc.nX, "nY": sc.nY, "nA": sc.nA, "nB": sc.nB}


def _obj_to_scenario(obj, where: str) -> Scenario:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    counts = [_int_field(obj, key, where) for key in ("nX", "nY", "nA", "nB")]
    try:
        return Scenario(*counts)
    except ValueError as exc:
        raise ParseError(f"{where}: bad scenario ({exc})") from None


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
    sc = _obj_to_scenario(obj.get("scenario", {}), f"{where}.scenario")
    try:
        M = _obj_to_family(obj["M"], f"{where}.M")
        N = _obj_to_family(obj["N"], f"{where}.N")
        psi = obj_to_vector(obj["psi"], f"{where}.psi")
        if kind == "tensor":
            return QuantumModel(scenario=sc, dimA=_int_field(obj, "dimA", where),
                                dimB=_int_field(obj, "dimB", where), M=M, N=N, psi=psi)
        return CommutingModel(scenario=sc, dim=_int_field(obj, "dim", where),
                              M=M, N=N, psi=psi)
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc}") from None


def _obj_to_family(obj, where: str) -> list[list[np.ndarray]]:
    if not isinstance(obj, list) or not all(isinstance(povm, list) for povm in obj):
        raise ParseError(f"{where}: expected a list of lists of matrices")
    return [[obj_to_matrix(op, f"{where}[{x}][{a}]") for a, op in enumerate(povm)]
            for x, povm in enumerate(obj)]


def _int_field(obj: dict, key: str, where: str) -> int:
    """``obj[key]`` as an int: a non-bool int or an integral float, else a
    ParseError, also when the key is missing."""
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    value = obj[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{where}: field '{key}' must be an integer, got {value!r}")


def correlation_to_obj(c: Correlation) -> dict:
    return {
        "scenario": _scenario_to_obj(c.scenario),
        "p": c.p.tolist(),
    }


def _check_number_table(obj, where: str) -> None:
    """Nested lists whose leaves are finite JSON numbers, else a ParseError
    at the first bad leaf."""
    if isinstance(obj, list):
        for k, x in enumerate(obj):
            _check_number_table(x, f"{where}[{k}]")
    elif not _is_finite_number(obj):
        raise ParseError(f"{where}: expected a finite number, got {obj!r:.40}")


def obj_to_correlation(obj, where: str = "correlation") -> Correlation:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    sc = _obj_to_scenario(obj.get("scenario", {}), f"{where}.scenario")
    if "p" not in obj:
        raise ParseError(f"{where}: missing field 'p'")
    _check_number_table(obj["p"], f"{where}.p")
    try:
        p = np.array(obj["p"], dtype=float)
    except ValueError as exc:
        raise ParseError(f"{where}: bad table 'p' ({exc})") from None
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
            f"{where}: outcome table for (x={x},y={y}) sums to {sums[x, y]:.9f}, not 1")
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
    try:
        return DilationWitness(
            IA=obj_to_matrix(obj["IA"], f"{where}.IA"),
            IB=obj_to_matrix(obj["IB"], f"{where}.IB"),
            aux=obj_to_vector(obj["aux"], f"{where}.aux"),
            dimAuxA=_int_field(obj, "dimAuxA", where),
            dimAuxB=_int_field(obj, "dimAuxB", where),
        )
    except KeyError as exc:
        raise ParseError(f"{where}: missing field {exc}") from None


def _load_json(path) -> object:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    try:
        return json.loads(text)
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
        if not isinstance(comp, dict) or "weight" not in comp or "correlation" not in comp:
            raise ParseError(f"{here}: expected an object with 'weight' and 'correlation'")
        weight = comp["weight"]
        if not _is_finite_number(weight) or weight <= 0:
            raise ParseError(f"{here}: field 'weight' must be a positive finite number, "
                             f"got {weight!r}")
        out.append((float(weight), obj_to_correlation(comp["correlation"], here)))
    total = sum(w for w, _ in out)
    if abs(total - 1.0) > DEFAULT_TOL.cut("coarse"):
        raise ParseError(f"{where}: weights sum to {total:.9f}, not 1")
    return out


def save_json(path, obj):
    try:
        Path(path).write_text(canonical_dumps(obj) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
