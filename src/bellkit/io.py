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
from pathlib import Path

import numpy as np

from .dilations import DilationWitness
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
    return format(float(x), ".17g")


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


def matrix_to_obj(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


def obj_to_matrix(obj, where: str) -> np.ndarray:
    try:
        rows = [[complex(e[0], e[1]) for e in row] for row in obj]
        return np.array(rows, dtype=complex)
    except (TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"{where}: bad matrix entry ({exc})") from None


def vector_to_obj(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(e.real), float(e.imag)] for e in v]


def obj_to_vector(obj, where: str) -> np.ndarray:
    try:
        return np.array([complex(e[0], e[1]) for e in obj], dtype=complex)
    except (TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"{where}: bad vector entry ({exc})") from None


def _scenario_to_obj(sc: Scenario) -> dict:
    return {"nX": sc.nX, "nY": sc.nY, "nA": sc.nA, "nB": sc.nB}


def _obj_to_scenario(obj, where: str) -> Scenario:
    try:
        return Scenario(*(_int_field(obj, key, where) for key in ("nX", "nY", "nA", "nB")))
    except (KeyError, TypeError, ValueError) as exc:
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
    ParseError; a missing key raises KeyError for the caller."""
    value = obj[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParseError(f"{where}: field '{key}' must be an integer, got {value!r}")


def correlation_to_obj(c: Correlation) -> dict:
    return {
        "scenario": _scenario_to_obj(c.scenario),
        "p": [[[[float(v) for v in row] for row in plane] for plane in cube]
              for cube in c.p.tolist()],
    }


def obj_to_correlation(obj, where: str = "correlation") -> Correlation:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected a JSON object")
    sc = _obj_to_scenario(obj.get("scenario", {}), f"{where}.scenario")
    try:
        p = np.array(obj["p"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad table 'p' ({exc})") from None
    if p.shape != (sc.nA, sc.nB, sc.nX, sc.nY):
        raise ParseError(
            f"{where}: table shape {p.shape} does not match scenario "
            f"(expected ({sc.nA},{sc.nB},{sc.nX},{sc.nY}))")
    if p.min() < -1e-9:
        raise ParseError(f"{where}: negative probability {p.min():.3e}")
    p = np.clip(p, 0.0, None)  # decimal round-trip dust
    sums = p.sum(axis=(0, 1))
    if np.abs(sums - 1.0).max() > 1e-6:
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
        raise ParseError(f"{path}: {exc}") from None
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
    """Convex decomposition file: {"components": [{"weight": w, "correlation": {...}}]}."""
    obj = _load_json(path)
    where = str(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
        raise ParseError(f"{where}: expected an object with a 'components' list")
    out = []
    for k, comp in enumerate(obj["components"]):
        try:
            weight = float(comp["weight"])
            corr = obj_to_correlation(comp["correlation"], f"{where}.components[{k}]")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{where}.components[{k}]: {exc}") from None
        out.append((weight, corr))
    return out


def save_json(path, obj):
    Path(path).write_text(canonical_dumps(obj) + "\n", encoding="utf-8")


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
