"""Seeded input generator for the benchmark workloads.

Uses numpy only, never ``bellkit.presets`` or ``bellkit.tilted``: a change to
those functions must not be able to change what the benchmark feeds the CLI.
Every generated file is listed with its sha256 in ``MANIFEST.sha256`` so the
runner can detect an input that changed between passes.  The manifest's own
sha256 goes into every record, so two runs or two commits can be compared on
their inputs.

The file format is the one bellkit reads: matrices are row-major lists of
``[re, im]`` pairs and the composite index of a tensor state is
``i_A * dimB + i_B``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

MANIFEST = "MANIFEST.sha256"
FIXTURES = ("chsh_ideal.model.json", "chsh.corr.json", "exA_S.model.json", "exA_Shat.model.json")

IRREP_DIMS = (8, 12, 16, 20)
DILATION_AUX = (2, 4, 6, 8)
STATE_EQUAL_DIMS = (8, 10, 12)
TILTED = ((4, 0.5), (6, 1.0), (8, 1.5))  # (aux dimension k, alpha); dimA = 2k
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


# ----------------------------------------------------------------- primitives

def _gauss(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _state(rng, n: int) -> np.ndarray:
    v = _gauss(rng, n)
    return v / np.linalg.norm(v)


def _unitary(rng, d: int) -> np.ndarray:
    q, r = np.linalg.qr(_gauss(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _binary_pvm(rng, d: int) -> list[np.ndarray]:
    cols = _unitary(rng, d)[:, : d // 2]
    p = cols @ cols.conj().T
    p = (p + p.conj().T) / 2
    return [p, np.eye(d) - p]


def _povm(rng, d: int, outcomes: int = 2) -> list[np.ndarray]:
    """Generic full-rank POVM: Gram factors normalised by their sum."""
    gs = [g @ g.conj().T for g in (_gauss(rng, d, d) for _ in range(outcomes))]
    vals, vecs = np.linalg.eigh(sum(gs))
    inv_root = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    out = [inv_root @ g @ inv_root for g in gs]
    out = [(e + e.conj().T) / 2 for e in out]
    out[-1] = np.eye(d) - sum(out[:-1])
    return out


def _observable_povm(obs: np.ndarray) -> list[np.ndarray]:
    eye = np.eye(obs.shape[0])
    return [(eye + obs) / 2, (eye - obs) / 2]


# -------------------------------------------------------------------- models
# A model is a plain dict: kind, scenario, M, N, psi and the dimensions.

def _tensor(M, N, psi, dimA: int, dimB: int) -> dict:
    return {"kind": "tensor", "M": M, "N": N, "psi": np.asarray(psi, dtype=complex),
            "dimA": dimA, "dimB": dimB}


def chsh_ideal() -> dict:
    psi = np.array([1, 0, 0, 1]) / math.sqrt(2)
    M = [_observable_povm(_Z), _observable_povm(_X)]
    N = [_observable_povm((_Z + _X) / math.sqrt(2)), _observable_povm((_Z - _X) / math.sqrt(2))]
    return _tensor(M, N, psi, 2, 2)


def tilted_model(alpha: float, optimal: bool) -> dict:
    """Closed-form tilted-CHSH optimum (Acin-Massar-Pironio 2012).

    sin 2t = sqrt((4 - alpha^2)/(4 + alpha^2)), psi = cos t|00> + sin t|11>,
    A0 = Z, A1 = X, B0/B1 = cos mu Z +/- sin mu X with tan mu = sin 2t.  The
    non-optimal variant turns the B observables 0.3 rad away from mu, which
    keeps every SOS identity but lowers the functional value.
    """
    s2t = math.sqrt((4 - alpha**2) / (4 + alpha**2))
    theta = 0.5 * math.asin(s2t)
    mu = math.atan(s2t) + (0.0 if optimal else 0.3)
    psi = np.zeros(4)
    psi[0], psi[3] = math.cos(theta), math.sin(theta)
    M = [_observable_povm(_Z), _observable_povm(_X)]
    N = [_observable_povm(math.cos(mu) * _Z + math.sin(mu) * _X),
         _observable_povm(math.cos(mu) * _Z - math.sin(mu) * _X)]
    return _tensor(M, N, psi, 2, 2)


def with_auxiliary(m: dict, aux: np.ndarray, k: int) -> dict:
    """m (x) aux on C^k (x) C^k; the auxiliary register is never measured."""
    psi = np.einsum("ab,kl->akbl", m["psi"].reshape(m["dimA"], m["dimB"]),
                    aux.reshape(k, k)).reshape(-1)
    eye = np.eye(k)
    return _tensor([[np.kron(op, eye) for op in povm] for povm in m["M"]],
                   [[np.kron(op, eye) for op in povm] for povm in m["N"]],
                   psi, m["dimA"] * k, m["dimB"] * k)


def local_rotation(m: dict, rng) -> dict:
    """U_A (x) U_B applied to a model: the abstract state is unchanged."""
    ua, ub = _unitary(rng, m["dimA"]), _unitary(rng, m["dimB"])
    psi = (ua @ m["psi"].reshape(m["dimA"], m["dimB"]) @ ub.T).reshape(-1)
    return _tensor([[ua @ op @ ua.conj().T for op in povm] for povm in m["M"]],
                   [[ub @ op @ ub.conj().T for op in povm] for povm in m["N"]],
                   psi, m["dimA"], m["dimB"])


def commuting_embedding(m: dict) -> dict:
    """Tensor model -> commuting model on the product space (same state)."""
    eyeA, eyeB = np.eye(m["dimA"]), np.eye(m["dimB"])
    return {"kind": "commuting", "dim": m["dimA"] * m["dimB"], "psi": m["psi"],
            "M": [[np.kron(op, eyeB) for op in povm] for povm in m["M"]],
            "N": [[np.kron(eyeA, op) for op in povm] for povm in m["N"]]}


def random_model(rng, d: int) -> dict:
    """Generic POVM model in the (2,2,2,2) scenario with a generic state."""
    return _tensor([_povm(rng, d) for _ in range(2)], [_povm(rng, d) for _ in range(2)],
                   _state(rng, d * d), d, d)


def pvm_model(rng, d: int) -> dict:
    """Two binary rank-d/2 PVMs per side: Jordan's lemma splits each side into
    d/2 irreps of dimension 2 (generically pairwise inequivalent)."""
    return _tensor([_binary_pvm(rng, d) for _ in range(2)],
                   [_binary_pvm(rng, d) for _ in range(2)], _state(rng, d * d), d, d)


def change_one_setting(m: dict, rng) -> dict:
    """Replace N[1] by a fresh POVM: the correlation, hence the state, differs."""
    return _tensor(m["M"], [m["N"][0], _povm(rng, m["dimB"])], m["psi"], m["dimA"], m["dimB"])


def block_padded(m: dict, rng, junk: int) -> dict:
    """Direct sum with a junk block the state never touches.

    The padded model is centrally supported and its cyclic subspace is the
    one of ``m``.
    """
    def pad(family, d):
        out = []
        for povm in family:
            junk_povm = _povm(rng, junk, len(povm))
            block = []
            for op, jop in zip(povm, junk_povm):
                big = np.zeros((d + junk, d + junk), dtype=complex)
                big[:d, :d], big[d:, d:] = op, jop
                block.append(big)
            out.append(block)
        return out

    dA, dB = m["dimA"], m["dimB"]
    psi = np.zeros((dA + junk, dB + junk), dtype=complex)
    psi[:dA, :dB] = m["psi"].reshape(dA, dB)
    return _tensor(pad(m["M"], dA), pad(m["N"], dB), psi.reshape(-1), dA + junk, dB + junk)


def support_mixing(rng, d: int, rank: int) -> dict:
    """Rank-deficient state and a projector straddling its support: the
    support projection cannot commute with it, so the model is not
    centrally supported."""
    coeffs = rng.uniform(0.5, 1.0, size=rank)
    psi = np.zeros((d, d), dtype=complex)
    psi[np.arange(rank), np.arange(rank)] = coeffs / np.linalg.norm(coeffs)
    v = np.zeros(d)
    v[0] = v[rank] = 1 / math.sqrt(2)
    proj = np.outer(v, v)
    return _tensor([[proj, np.eye(d) - proj], _povm(rng, d)],
                   [_povm(rng, d), _povm(rng, d)], psi.reshape(-1), d, d)


def synchronous(rng, d: int) -> dict:
    """Maximally entangled state with N = M^T: a synchronous PVM model."""
    M = [_binary_pvm(rng, d) for _ in range(2)]
    return _tensor(M, [[op.T.copy() for op in povm] for povm in M],
                   np.eye(d).reshape(-1) / math.sqrt(d), d, d)


def identity_witness(k: int, aux: np.ndarray) -> dict:
    """Witness that chsh (x) aux dilates to chsh: identity isometries.

    ``with_auxiliary`` lays out H_A as C^2 (x) C^k, which is exactly the
    (i_tilde * k + i_aux) row order a witness uses.
    """
    eye = np.eye(2 * k)
    return {"IA": _matrix(eye), "IB": _matrix(eye), "aux": _vector(aux),
            "dimAuxA": k, "dimAuxB": k}


# ------------------------------------------------------------------ writing

def _matrix(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


def _vector(v) -> list:
    return [[float(e.real), float(e.imag)] for e in np.asarray(v, dtype=complex).reshape(-1)]


def _model_obj(m: dict) -> dict:
    obj = {"kind": m["kind"],
           "scenario": {"nX": len(m["M"]), "nY": len(m["N"]),
                        "nA": len(m["M"][0]), "nB": len(m["N"][0])},
           "M": [[_matrix(op) for op in povm] for povm in m["M"]],
           "N": [[_matrix(op) for op in povm] for povm in m["N"]],
           "psi": _vector(m["psi"])}
    if m["kind"] == "tensor":
        obj["dimA"], obj["dimB"] = m["dimA"], m["dimB"]
    else:
        obj["dim"] = m["dim"]
    return obj


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, separators=(",", ":")) + "\n", encoding="utf-8")


def _inputs(workload: str, rng) -> dict[str, object]:
    """File name -> JSON object for one workload."""
    files: dict[str, object] = {}

    def model(name: str, m: dict) -> None:
        files[f"{name}.model.json"] = _model_obj(m)

    if workload == "cli-fixtures":
        model("commuting", commuting_embedding(chsh_ideal()))
        model("binary", block_padded(chsh_ideal(), rng, 1))
        aux = _state(rng, 4)
        model("chsh_aux2", with_auxiliary(chsh_ideal(), aux, 2))
        files["chsh_aux2.witness.json"] = identity_witness(2, aux)
    elif workload == "irrep-ladder":
        model("chsh_ideal", chsh_ideal())
        for d in IRREP_DIMS:
            model(f"pvm_d{d}", pvm_model(rng, d))
        for k in DILATION_AUX:
            model(f"chsh_aux{k}", with_auxiliary(chsh_ideal(), _state(rng, k * k), k))
    elif workload == "state-ladder":
        for d in STATE_EQUAL_DIMS:
            base = random_model(rng, d)
            model(f"se_d{d}_a", base)
            twin = commuting_embedding(base) if d == STATE_EQUAL_DIMS[0] else local_rotation(base, rng)
            model(f"se_d{d}_equal", twin)
            model(f"se_d{d}_other", change_one_setting(base, rng))
        model("cyclic_d10", block_padded(random_model(rng, 8), rng, 2))
        model("support_padded_d16", block_padded(random_model(rng, 12), rng, 4))
        model("support_mixing_d16", support_mixing(rng, 16, 10))
        model("sync_d16", synchronous(rng, 16))
        for k, alpha in TILTED:
            aux = _state(rng, k * k)
            model(f"tilted_k{k}_opt", with_auxiliary(tilted_model(alpha, True), aux, k))
            model(f"tilted_k{k}_off", with_auxiliary(tilted_model(alpha, False), aux, k))
        aux = _state(rng, 64)
        model("chsh_ideal", chsh_ideal())
        model("chsh_aux8", with_auxiliary(chsh_ideal(), aux, 8))
        files["chsh_aux8.witness.json"] = identity_witness(8, aux)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files


def write_inputs(workload: str, seed: int, out_dir: Path, fixtures_dir: Path) -> str:
    """Generate a workload's inputs from ``seed`` into ``out_dir``, write the
    manifest and return its sha256, which identifies the whole input set.
    ``cli-fixtures`` also copies the shipped fixtures there, so the manifest
    covers every file the CLI reads."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    for name, obj in _inputs(workload, np.random.default_rng(seed)).items():
        _write(out_dir / name, obj)
    for name in FIXTURES if workload == "cli-fixtures" else ():
        shutil.copyfile(fixtures_dir / name, out_dir / name)
    lines = [f"{_sha256(p)}  {p.name}" for p in sorted(out_dir.iterdir()) if p.name != MANIFEST]
    (out_dir / MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return _sha256(out_dir / MANIFEST)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_mismatches(out_dir: Path) -> list[str]:
    """Files whose bytes no longer match the manifest (empty when intact)."""
    bad = []
    for line in (out_dir / MANIFEST).read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        path = out_dir / name
        if not path.is_file() or _sha256(path) != digest:
            bad.append(name)
    return bad
