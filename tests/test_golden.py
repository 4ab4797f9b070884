"""Byte-for-byte CLI reports: every subcommand on the shipped fixtures.

Each file ``tests/golden/<case>.out`` holds ``exit <code>`` on its first line
followed by the exact stdout of the command.  Paths are relative to the
repository root so that ``provenance.inputs`` does not depend on where the
checkout lives.  There is deliberately no switch to rewrite the files: a
changed byte is a changed report and must be explained, not refreshed.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from bellkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CHSH = "fixtures/chsh_ideal.model.json"
CHSH_WITNESS = "fixtures/chsh_ideal.witness.json"
CHSH_CORR = "fixtures/chsh.corr.json"
EXA_S = "fixtures/exA_S.model.json"
EXA_SHAT = "fixtures/exA_Shat.model.json"

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
    res = CliRunner().invoke(main, CASES[name], catch_exceptions=False)
    return f"exit {res.exit_code}\n".encode() + res.stdout_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_case(name) == (GOLDEN / f"{name}.out").read_bytes()


def test_every_subcommand_has_a_golden_case():
    covered = {args[0] for args in CASES.values()}
    assert covered == set(main.commands)
