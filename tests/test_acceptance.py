"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import time
from pathlib import Path

import numpy as np

from bellkit.dilations import (
    find_local_dilation,
    naimark_dilate,
    verify_local_dilation,
)
from bellkit.io import model_to_obj, save_json
from bellkit.linalg import dagger, mat_norm
from bellkit.models import (
    Scenario,
    QuantumModel,
    classify,
    correlation_of,
    validate_model,
)
from bellkit.presets import (
    block_padded_model,
    chsh_ideal_model,
    commuting_from_tensor,
    example_pair,
    optimal_tilted_model,
    random_povm,
    random_quantum_model,
    random_state,
    support_mixing_model,
    synchronous_model,
    tensor_with_auxiliary,
)
from bellkit.reps import commutant_basis, irrep_decompose, states_equal
from bellkit.schmidt import schmidt_decompose
from bellkit.special import LemmaViolated, binary_round, synchronous_verify, xor_of
from bellkit.support import is_centrally_supported_via_transfer, support_of
from bellkit.tilted import verify_tilted_sos
from run_cli import invoke

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(number: int, description: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({extra})" if extra else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


def test_criterion_1_example_reproduction():
    """Fixture pair: correlation values, Schmidt ranks, state equality, obstruction."""
    start = time.perf_counter()
    ok = True
    s_path = FIXTURES / "exA_S.model.json"
    shat_path = FIXTURES / "exA_Shat.model.json"

    s3, s2 = example_pair()
    for m in (s3, s2):
        p = correlation_of(m)
        ok &= abs(p.p[0, 0, 0, 0] - 0.5) < 1e-10
        ok &= abs(p.p[1, 1, 0, 0] - 0.5) < 1e-10
        ok &= abs(p.p[0, 1, 0, 0]) < 1e-10
        ok &= abs(p.p[1, 0, 0, 0]) < 1e-10
    ok &= schmidt_decompose(s2.psi, 2, 2).rank == 2
    ok &= schmidt_decompose(s3.psi, 3, 3).rank == 3

    res = invoke(["state-equal", str(s_path), str(shat_path)])
    ok &= res.exit_code == 0 and json.loads(res.stdout)["verdicts"]["equal"] is True

    res = invoke(["find-dilation", str(s_path), str(shat_path)])
    rep = json.loads(res.stdout)
    ok &= res.exit_code == 1 and rep["obstruction"]["kind"] == "schmidt-rank"

    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, "example pair reproduced (values, ranks, state-equal, obstruction)",
           ok, f"{elapsed:.2f}s")


def test_criterion_2_chsh_suite(tmp_path):
    """Ideal CHSH: XOR matrix, certificate, and dilation from an extended model."""
    start = time.perf_counter()
    ok = True
    ideal = chsh_ideal_model()
    xc = xor_of(correlation_of(ideal))
    s = 1 / np.sqrt(2)
    ok &= np.abs(xc.c - np.array([[s, s], [s, -s]])).max() < 1e-9
    ok &= xc.rank == 2

    res = invoke(["xor-certify", str(FIXTURES / "chsh.corr.json"), "--assert-extremal"])
    ok &= res.exit_code == 0 and json.loads(res.stdout)["verdicts"]["granted"] is True

    big = tensor_with_auxiliary(ideal, np.array([0.8, 0.0, 0.0, 0.6]), 2, 2)
    big_path = tmp_path / "chsh_aux.model.json"
    ideal_path = tmp_path / "chsh.model.json"
    witness_path = tmp_path / "witness.json"
    save_json(big_path, model_to_obj(big))
    save_json(ideal_path, model_to_obj(ideal))
    res = invoke(["find-dilation", str(big_path), str(ideal_path),
                  "--witness-out", str(witness_path), "--tol", "1e-8"])
    ok &= res.exit_code == 0
    res = invoke(["verify-dilation", str(big_path), str(ideal_path), str(witness_path),
                  "--tol", "1e-8"])
    rep = json.loads(res.stdout)
    ok &= res.exit_code == 0 and rep["residuals"]["max"] < 1e-8

    elapsed = time.perf_counter() - start
    ok &= elapsed < 2.0
    report(2, "CHSH suite (XOR matrix, certificate, dilation round trip)",
           ok, f"{elapsed:.2f}s")


def test_criterion_3_tilted_identities():
    """Both SOS identities hold on random valid models, each also run as its
    commuting embedding, where the commutator bound enters the defect."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    sc = Scenario(2, 2, 2, 2)
    worst = 0.0
    for alpha in np.arange(0.0, 2.0, 0.25):
        for _ in range(50):
            dA = int(rng.integers(2, 4))
            dB = int(rng.integers(2, 4))
            m = random_quantum_model(rng, sc, dA, dB)
            for model in (m, commuting_from_tensor(m)):
                cert = verify_tilted_sos(model, float(alpha))
                worst = max(worst, *cert.identity_defects)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 30.0
    report(3, "tilted-CHSH operator identities on 8 alphas x 50 random models, "
           "tensor and commuting", ok, f"max defect {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_tilted_optimal_residuals():
    """Optimizer oracle reaches lambda and annihilates every certificate term."""
    ok = True
    details = []
    for alpha in (0.0, 0.5, 1.0):
        m = optimal_tilted_model(alpha)
        cert = verify_tilted_sos(m, alpha)
        ok &= cert.f_eta >= cert.lam - 1e-6
        ok &= max(cert.state_residuals.values()) < 1e-5
        details.append(f"a={alpha}: gap {cert.lam - cert.f_eta:.1e}")
        if alpha == 0.0:
            ok &= abs(cert.f_eta - 2 * np.sqrt(2)) < 1e-6
    report(4, "tilted-CHSH optimal models (f(eta) >= lam - 1e-6, residuals < 1e-5)",
           ok, "; ".join(details))


def test_criterion_5_naimark_property_suite():
    """100 random POVMs: isometry, projective dilation, compression identity."""
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        povm = random_povm(rng, d, k)
        nd = naimark_dilate(povm)
        worst = max(worst, mat_norm(dagger(nd.V) @ nd.V - np.eye(d)))
        for proj, effect in zip(nd.P, povm):
            worst = max(worst, mat_norm(proj @ proj - proj))
            worst = max(worst, mat_norm(dagger(nd.V) @ proj @ nd.V - effect))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(5, "Naimark property suite (100 random POVMs, residuals < 1e-10)",
           ok, f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_centrally_supported_equivalence():
    """Commutator and transfer criteria agree on 200 mixed fixtures."""
    rng = np.random.default_rng(606)
    sc = Scenario(2, 2, 2, 2)
    agreements = 0
    for k in range(200):
        kind = k % 3
        if kind == 0:  # full-rank generic
            d = int(rng.integers(2, 7))
            m = random_quantum_model(rng, sc, d, d)
        elif kind == 1:  # block-diagonal, state in the first block
            base_d = int(rng.integers(2, 4))
            base = random_quantum_model(rng, sc, base_d, base_d)
            m = block_padded_model(base, rng, int(rng.integers(1, 7 - base_d)),
                                   int(rng.integers(1, 7 - base_d)))
        else:  # support-mixing
            d = int(rng.integers(3, 7))
            m = support_mixing_model(rng, d, int(rng.integers(1, d - 1)), sc)
        commutator = support_of(m).centrally_supported
        transfer, _ = is_centrally_supported_via_transfer(m)
        agreements += commutator == transfer
    ok = agreements == 200
    report(6, "centrally-supported criteria agree on 200 seeded fixtures",
           ok, f"{agreements}/200")


def _padded_chsh(extra0: float):
    m = chsh_ideal_model()

    def pad(op, corner):
        big = np.zeros((3, 3), dtype=complex)
        big[:2, :2] = op
        big[2, 2] = corner
        return big

    return QuantumModel(
        scenario=m.scenario, dimA=3, dimB=2,
        M=[[pad(m.M[x][0], extra0), pad(m.M[x][1], 1 - extra0)] for x in range(2)],
        N=m.N,
        psi=np.concatenate([m.psi, np.zeros(2)]),
    ), m


def test_criterion_7_binary_rounding():
    """Trichotomy fixtures round to PVMs; a violating fixture raises."""
    ok = True
    # (a) already projective: unchanged
    ideal = chsh_ideal_model()
    rounded, witness = binary_round(ideal)
    ok &= all(mat_norm(rounded.M[x][a] - ideal.M[x][a]) < 1e-12
              for x in range(2) for a in range(2))
    ok &= witness.dimAuxA == 1

    # (b) eigenvalue 1/3 outside the support: stripped, correlation preserved
    padded, _ = _padded_chsh(1 / 3)
    ok &= validate_model(padded).valid
    rounded, _ = binary_round(padded)
    ok &= classify(rounded).projective
    gap = np.abs(correlation_of(rounded).p - correlation_of(padded).p).max()
    ok &= gap < 1e-9
    psi_mat = padded.psi.reshape(3, 2)
    for x in range(2):
        for a in range(2):
            diff = padded.M[x][a] - rounded.M[x][a]
            ok &= np.linalg.norm(diff @ psi_mat) < 1e-9

    # (c) eigenvalue 1/2 meeting the support: LemmaViolated
    sc = Scenario(1, 1, 2, 2)
    half = np.eye(2) / 2
    violator = QuantumModel(scenario=sc, dimA=2, dimB=2,
                            M=[[half, half]],
                            N=[[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]],
                            psi=np.array([1, 0, 0, 1]) / np.sqrt(2))
    try:
        binary_round(violator)
        ok = False
    except LemmaViolated:
        pass
    report(7, "binary rounding (PVM output, correlation preserved, violator raises)", ok)


def test_criterion_8_synchronous_suite():
    """Swap residuals, projective state, central support, projectivity when full-rank."""
    rng = np.random.default_rng(808)
    ok = True
    fixtures = []
    for _ in range(6):
        fixtures.append(synchronous_model(rng, int(rng.integers(2, 5)),
                                          int(rng.integers(1, 3)),
                                          int(rng.integers(2, 4))))
    fixtures.append(example_pair()[0])
    # non-full-rank but centrally supported synchronous fixtures
    for _ in range(3):
        base = synchronous_model(rng, 2, 2, 2)
        fixtures.append(block_padded_model(base, rng, 2, 2))

    for k, m in enumerate(fixtures):
        rep = synchronous_verify(m)
        ok &= max(rep.swap_residuals.values()) < 1e-9
        ok &= rep.projective_state
        ok &= support_of(m).centrally_supported
        ok &= is_centrally_supported_via_transfer(m)[0]
        if rep.full_rank:
            ok &= max(rep.projectivity_residuals.values()) < 1e-9
        assert ok, f"synchronous fixture {k} failed"
    report(8, "synchronous suite (swap, projective state, central support)", ok)


def test_criterion_9_representation_roundtrip():
    """30 constructed reps recovered; commutant dim = sum m_i^2; defect < 1e-8."""
    rng = np.random.default_rng(909)

    def rand_herm(d):
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (x + x.conj().T) / 2

    def rand_unitary(d):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        return q

    ok = True
    worst_defect = 0.0
    for trial in range(30):
        structure = []
        total = 0
        while len(structure) < 3:
            n = int(rng.integers(1, 4))
            mult = int(rng.integers(1, 3))
            if total + n * mult > 12:
                break
            structure.append((n, mult))
            total += n * mult
        if not structure:
            structure = [(2, 1)]
        d = sum(n * mult for n, mult in structure)
        u = rand_unitary(d)
        gens = []
        for _ in range(2):
            full = np.zeros((d, d), dtype=complex)
            off = 0
            for n, mult in structure:
                blk = np.kron(rand_herm(n), np.eye(mult))
                full[off:off + n * mult, off:off + n * mult] = blk
                off += n * mult
            gens.append(u @ full @ dagger(u))

        dec = irrep_decompose(gens, seed=trial)
        ok &= sorted((b.n, b.m) for b in dec.blocks) == sorted(structure)
        ok &= dec.commutant_dim == len(commutant_basis(gens))
        defect = max(mat_norm(dec.reassemble(t) - gens[t]) for t in range(len(gens)))
        worst_defect = max(worst_defect, defect)
        ok &= defect < 1e-8
        assert ok, f"trial {trial}: structure {structure}"
    report(9, "representation round-trip (30 constructed reps)",
           ok, f"max defect {worst_defect:.2e}")


def test_criterion_10_dilation_implies_equal_state():
    """A local dilation preserves the abstract state: whenever find-dilation's
    witness passes verify-dilation, state-equal must say equal.  Each model
    tensored with an auxiliary state is a dilation by construction."""
    rng = np.random.default_rng(1010)
    checked = 0
    ok = True
    for target in (chsh_ideal_model(), optimal_tilted_model(1.5)):
        for k in (2, 3):
            big = tensor_with_auxiliary(target, random_state(rng, k * k), k, k)
            w = find_local_dilation(big, target, seed=0)
            if verify_local_dilation(big, target, w).passed:
                checked += 1
                ok &= states_equal(big, target)[0]
    ok &= checked == 4
    report(10, "dilation found and verified implies equal states (CHSH, tilted; aux k=2,3)",
           ok, f"{checked} dilations checked")
