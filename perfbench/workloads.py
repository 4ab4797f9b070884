"""Command lists of the three workloads and the known answer of every command.

Each answer follows from how ``gen.py`` built the input, never from running
bellkit: a command passes when its exit code and the checked report fields
match.  Fields are compared, not bytes, so a change that only reformats a
report still passes; the runner records stdout hashes to show such changes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import gen

WORKLOADS = ("cli-fixtures", "irrep-ladder", "state-ladder")

Check = Callable[[dict], list[str]]


@dataclass(frozen=True)
class Cmd:
    label: str
    args: tuple[str, ...]   # arguments after ``python -m bellkit.cli``
    exit_code: int
    check: Check


# -------------------------------------------------------------------- checks

_MISSING = "<missing>"


def _get(report: dict, path: str):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


def fields(**expected) -> Check:
    """Exact match of report fields; ``__`` in a keyword stands for ``.``."""
    def check(report):
        out = []
        for key, want in expected.items():
            path = key.replace("__", ".")
            got = _get(report, path)
            if got != want:
                out.append(f"{path}: expected {want!r}, got {got!r}")
        return out
    return check


def close(path: str, want, atol: float) -> Check:
    """Numeric field (nested lists allowed) within ``atol`` of ``want``."""
    def flat(x):
        return [v for item in x for v in flat(item)] if isinstance(x, list) else [x]

    def check(report):
        got = _get(report, path)
        try:
            g, w = flat(got), flat(want)
            ok = len(g) == len(w) and all(abs(a - b) <= atol for a, b in zip(g, w))
        except TypeError:
            ok = False
        return [] if ok else [f"{path}: expected {want!r} within {atol}, got {got!r}"]
    return check


def all_of(*checks: Check) -> Check:
    return lambda report: [e for c in checks for e in c(report)]


def irrep_structure(dim: int) -> Check:
    """Two binary PVMs of rank dim/2 per side, in generic position.

    Jordan's lemma: every irrep has dimension <= 2; generic principal angles
    make them dim/2 pairwise inequivalent 2-dimensional irreps.  The
    commutant then has dimension sum m^2 and the decomposition must
    reassemble the generators.
    """
    def check(report):
        out = []
        for side in ("side_A", "side_B"):
            rep = report.get(side)
            if not isinstance(rep, dict) or "blocks" not in rep:
                out.append(f"{side}: no decomposition ({rep!r})")
                continue
            blocks = rep["blocks"]
            if blocks != [{"irrep_dim": 2, "multiplicity": 1}] * (dim // 2):
                out.append(f"{side}: expected {dim // 2} inequivalent 2-dim irreps: {blocks}")
            if rep["commutant_dim"] != sum(b["multiplicity"] ** 2 for b in blocks):
                out.append(f"{side}: commutant_dim {rep['commutant_dim']} != sum m^2")
            if not rep["reassembly_defect"] <= 1e-8:
                out.append(f"{side}: reassembly_defect {rep['reassembly_defect']}")
        return out
    return check


def dilation_found(k: int) -> Check:
    return fields(verdicts={"found": True, "verified": True},
                  schmidt_ranks={"psi": 2 * k, "psi_tilde": 2, "aux": k})


def dilation_verified(k: int) -> Check:
    return fields(verdicts={"passed": True, "isometries_ok": True,
                            "schmidt_rank_consistent": True},
                  schmidt_ranks={"psi": 2 * k, "psi_tilde": 2, "aux": k})


def _chsh_table() -> list:
    r = 1 / math.sqrt(2)
    return [[[[(1 + (-1) ** (a + b + x * y) * r) / 4 for y in range(2)] for x in range(2)]
             for b in range(2)] for a in range(2)]


# ------------------------------------------------------------------ commands

def commands(workload: str, inputs: str) -> list[Cmd]:
    """The workload's commands; ``inputs`` is the directory ``gen.write_inputs``
    filled, relative to the repository root the CLI runs in."""
    def f(name: str) -> str:
        return f"{inputs}/{name}"

    def model(name: str) -> str:
        return f(f"{name}.model.json")

    if workload == "cli-fixtures":
        chsh, corr = f("chsh_ideal.model.json"), f("chsh.corr.json")
        exa, exa_hat = f("exA_S.model.json"), f("exA_Shat.model.json")
        return [
            Cmd("validate", ("validate", model("commuting")), 0,
                fields(verdicts__valid=True)),
            Cmd("correlation", ("correlation", chsh), 0,
                close("p", _chsh_table(), 1e-12)),
            Cmd("schmidt", ("schmidt", exa), 0,
                all_of(fields(rank=3), close("coefficients", [math.sqrt(0.5), 0.5, 0.5], 1e-12))),
            Cmd("support", ("support", exa), 0,
                fields(verdicts={"centrally_supported": True, "transfer_criterion": True,
                                 "criteria_agree": True}, support_rank=3)),
            Cmd("naimark", ("naimark", chsh), 0, fields(verdicts__all_within_tolerance=True)),
            Cmd("round-binary", ("round-binary", model("binary"), "--assert-extremal"), 0,
                fields(verdicts__rounded=True, verdicts__correlation_preserved=True)),
            Cmd("sync-verify", ("sync-verify", exa), 0, fields(verdicts__passed=True)),
            Cmd("xor", ("xor", corr), 0,
                all_of(fields(rank=2, verdicts__unbiased=True),
                       close("c", [[math.sqrt(0.5), math.sqrt(0.5)],
                                   [math.sqrt(0.5), -math.sqrt(0.5)]], 1e-12))),
            Cmd("xor-certify", ("xor-certify", corr, "--assert-extremal"), 0,
                fields(verdicts__granted=True, rank=2)),
            Cmd("state-equal", ("state-equal", exa, exa_hat), 0, fields(verdicts__equal=True)),
            Cmd("find-dilation", ("find-dilation", exa, exa_hat), 1,
                fields(verdicts__found=False, obstruction__kind="schmidt-rank",
                       obstruction__rank_psi=3, obstruction__rank_psi_tilde=2)),
            Cmd("verify-dilation",
                ("verify-dilation", model("chsh_aux2"), chsh, f("chsh_aux2.witness.json")), 0,
                dilation_verified(2)),
            Cmd("irrep", ("irrep", chsh), 0, irrep_structure(2)),
            Cmd("cyclic", ("cyclic", model("commuting")), 0,
                fields(verdicts__already_cyclic=True, cyclic_dim=4)),
            Cmd("tilted-sos", ("tilted-sos", chsh, "--alpha", "0"), 0,
                fields(verdicts={"identities_ok": True, "optimal": True})),
        ]
    if workload == "irrep-ladder":
        return (
            [Cmd(f"irrep-d{d}", ("irrep", model(f"pvm_d{d}")), 0, irrep_structure(d))
             for d in gen.IRREP_DIMS]
            + [Cmd(f"find-dilation-k{k}",
                   ("find-dilation", model(f"chsh_aux{k}"), model("chsh_ideal")), 0,
                   dilation_found(k))
               for k in gen.DILATION_AUX]
        )
    if workload == "state-ladder":
        cmds = []
        for d in gen.STATE_EQUAL_DIMS:
            cmds.append(Cmd(f"state-equal-d{d}-equal",
                            ("state-equal", model(f"se_d{d}_a"), model(f"se_d{d}_equal")), 0,
                            fields(verdicts__equal=True)))
            cmds.append(Cmd(f"state-equal-d{d}-other",
                            ("state-equal", model(f"se_d{d}_a"), model(f"se_d{d}_other")), 1,
                            fields(verdicts__equal=False)))
        cmds += [
            Cmd("cyclic-d10", ("cyclic", model("cyclic_d10")), 0,
                fields(verdicts__already_cyclic=False, cyclic_dim=64)),
            Cmd("support-padded-d16", ("support", model("support_padded_d16")), 0,
                fields(verdicts={"centrally_supported": True, "transfer_criterion": True,
                                 "criteria_agree": True}, support_rank=12)),
            Cmd("support-mixing-d16", ("support", model("support_mixing_d16")), 0,
                fields(verdicts={"centrally_supported": False, "transfer_criterion": False,
                                 "criteria_agree": True}, support_rank=10)),
            Cmd("sync-verify-d16", ("sync-verify", model("sync_d16")), 0,
                fields(verdicts={"passed": True, "full_rank": True, "projective_state": True})),
            Cmd("round-binary-d16", ("round-binary", model("sync_d16"), "--assert-extremal"), 0,
                fields(verdicts__rounded=True, verdicts__correlation_preserved=True)),
            Cmd("naimark-d16", ("naimark", model("sync_d16")), 0,
                fields(verdicts__all_within_tolerance=True)),
        ]
        for k, alpha in gen.TILTED:
            for variant, optimal in (("opt", True), ("off", False)):
                cmds.append(Cmd(f"tilted-sos-dimA{2 * k}-{variant}",
                                ("tilted-sos", model(f"tilted_k{k}_{variant}"), "--alpha", repr(alpha)),
                                0, fields(verdicts={"identities_ok": True, "optimal": optimal})))
        cmds.append(Cmd("verify-dilation-k8",
                        ("verify-dilation", model("chsh_aux8"), model("chsh_ideal"),
                         f("chsh_aux8.witness.json")), 0, dilation_verified(8)))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


def judge(cmd: Cmd, exit_code: int | None, stdout: bytes, stderr: str) -> tuple[bool, list[str]]:
    """(failed, verdict errors) of one command run.

    Failed means crashed, timed out (``exit_code`` None) or printed a
    traceback; a verdict error is a wrong exit code or a wrong report field.
    """
    if exit_code is None or "Traceback (most recent call last)" in stderr or exit_code not in (0, 1, 2):
        return True, []
    errors = []
    if exit_code != cmd.exit_code:
        errors.append(f"exit code {exit_code}, expected {cmd.exit_code}: {stderr.strip()[-300:]}")
    try:
        report = json.loads(stdout)
    except ValueError:
        return False, errors + ["stdout is not one JSON report"]
    return False, errors + cmd.check(report)
