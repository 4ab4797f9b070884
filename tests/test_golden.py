"""Byte-for-byte CLI reports: every subcommand on the shipped fixtures.

Each file ``tests/golden/<case>.out`` holds ``exit <code>`` on its first line
followed by the exact stdout of the command.  Paths are relative to the
repository root so that ``provenance.inputs`` does not depend on where the
checkout lives.  There is deliberately no switch to rewrite the files: a
changed byte is a changed report and must be explained, not refreshed.
"""

import importlib.util
from pathlib import Path

import pytest

from bellkit.cli import main
from run_cli import invoke

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CHSH = "fixtures/chsh_ideal.model.json"
CHSH_WITNESS = "fixtures/chsh_ideal.witness.json"
CHSH_CORR = "fixtures/chsh.corr.json"
EXA_S = "fixtures/exA_S.model.json"
EXA_SHAT = "fixtures/exA_Shat.model.json"
# CHSH (x) a 2 x 2 auxiliary state (multiplicity 2), and the same padded with
# junk blocks the state never reaches: the dilation cases with m > 1 and with
# unreached blocks
CHSH_AUX2 = "fixtures/chsh_aux_k2.model.json"
CHSH_AUX2_PADDED = "fixtures/chsh_aux_k2_padded.model.json"

CASES = {
    "validate": ["validate", CHSH],
    "validate_text": ["validate", CHSH, "--format", "text"],
    "correlation": ["correlation", CHSH],
    "schmidt": ["schmidt", CHSH],
    "support": ["support", CHSH],
    "support_exa_s": ["support", EXA_S],
    "naimark": ["naimark", CHSH],
    "irrep": ["irrep", CHSH],
    "cyclic": ["cyclic", CHSH],
    "cyclic_exa_s": ["cyclic", EXA_S],
    "round_binary": ["round-binary", CHSH, "--assert-extremal"],
    "tilted_sos": ["tilted-sos", CHSH, "--alpha", "0"],
    "tilted_sos_alpha15": ["tilted-sos", CHSH, "--alpha", "1.5"],
    "sync_verify": ["sync-verify", EXA_S],
    "state_equal": ["state-equal", EXA_S, EXA_SHAT],
    "find_dilation_obstructed": ["find-dilation", EXA_S, EXA_SHAT],
    "find_dilation": ["find-dilation", CHSH, CHSH],
    "find_dilation_aux2": ["find-dilation", CHSH_AUX2, CHSH],
    "find_dilation_aux2_padded": ["find-dilation", CHSH_AUX2_PADDED, CHSH],
    "irrep_aux2_padded": ["irrep", CHSH_AUX2_PADDED],
    "naimark_aux2_padded": ["naimark", CHSH_AUX2_PADDED],
    "verify_dilation": ["verify-dilation", CHSH, CHSH, CHSH_WITNESS],
    "xor": ["xor", CHSH_CORR],
    "xor_certify": ["xor-certify", CHSH_CORR, "--assert-extremal"],
    "xor_certify_unasserted": ["xor-certify", CHSH_CORR],
    # away from the default --tol: at 1e-12 the fixed floors of the cut
    # table decide, at 1e-3 the multiples of eps do
    "find_dilation_tol1e-12": ["find-dilation", CHSH, CHSH, "--tol", "1e-12"],
    "find_dilation_tol1e-3": ["find-dilation", CHSH, CHSH, "--tol", "1e-3"],
    "tilted_sos_alpha15_tol1e-12": ["tilted-sos", CHSH, "--alpha", "1.5", "--tol", "1e-12"],
    "tilted_sos_alpha15_tol1e-3": ["tilted-sos", CHSH, "--alpha", "1.5", "--tol", "1e-3"],
    "irrep_tol1e-12": ["irrep", CHSH, "--tol", "1e-12"],
    "state_equal_tol1e-3": ["state-equal", EXA_S, EXA_SHAT, "--tol", "1e-3"],
    "round_binary_tol1e-12": ["round-binary", CHSH, "--assert-extremal", "--tol", "1e-12"],
}


def run_case(name: str) -> bytes:
    res = invoke(CASES[name])
    return f"exit {res.exit_code}\n".encode() + res.stdout.encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_case(name) == (GOLDEN / f"{name}.out").read_bytes()


def test_every_subcommand_has_a_golden_case():
    covered = {args[0] for args in CASES.values()}
    assert covered == set(main.commands)


def test_fixtures_are_reproducible(tmp_path, monkeypatch):
    """tools/make_fixtures.py rewrites every shipped fixture byte for byte."""
    spec = importlib.util.spec_from_file_location("make_fixtures",
                                                  ROOT / "tools" / "make_fixtures.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "FIXTURES", tmp_path)
    tool.main()
    shipped = ROOT / "fixtures"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in shipped.iterdir())
    for path in tmp_path.iterdir():
        assert path.read_bytes() == (shipped / path.name).read_bytes(), path.name
