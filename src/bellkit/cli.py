"""Batch command-line front end.

One subcommand per verification procedure; each reads JSON model or
correlation files, runs exactly one check, and writes a single canonical JSON
report to stdout (diagnostics go to stderr).  Exit code 0 means every check
passed, 1 means a check failed, 2 means the input or usage was bad.  Reports
embed the input hashes, tolerance, and seed, so published numbers are
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# Kernel modules, not their names: each runs on its first attribute access
# (see ``bellkit/__init__``), so a command runs only the modules it calls and
# ``--version`` none.  ``schmidt`` and ``support`` are also command names.
from . import __version__, dilations, io, linalg, models, reps, special, tilted
from . import schmidt as schmidt_kernel, support as support_kernel

__all__ = ["main", "run"]


def main(argv=None) -> int:
    """Verification toolkit for bipartite quantum correlation models."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only --help and --version may precede the command name, so the first
    # other token is the command, and its parser is the only one built.
    at = next((i for i, token in enumerate(argv) if not token.startswith("-")), len(argv))
    try:
        name = _top_parser().parse_args(argv[:at + 1]).command
        command = main.commands[name]
        parser = _Parser(prog=f"bellkit {name}", description=command.__doc__)
        for names, kwargs in command.args:
            parser.add_argument(*names, **kwargs)
        kwargs = vars(parser.parse_args(argv[at + 1:]))
    except SystemExit as exc:  # --help, --version or a usage error
        return exc.code
    return command(**kwargs)


# Command name -> its runner, in registration order; ``report`` fills it.
main.commands = {}
# The two things ``click.testing.CliRunner.invoke`` reads of the object it
# drives.  Kept for perfbench/tracer.py until it calls ``main(argv)``
# (ROADMAP item 1).
main.name = "bellkit"
main.main = lambda args=(), prog_name=None, **_: sys.exit(main(args))


def run():
    """Process entry point: ``main``, then exit without interpreter teardown.

    Stdout and stderr are flushed and ``os._exit`` ends the process with
    ``main``'s code, so neither ``atexit`` nor the teardown of the heap the
    numpy and bellkit imports built runs.  A flush that fails (a reader
    that closed the pipe) exits 120, as the interpreter does when its own
    final flush fails.  In-process callers use ``main``, which returns the
    code and never exits the process.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = 120
    os._exit(code)


class _Parser(argparse.ArgumentParser):
    """No option abbreviations, and a token that reads as a negative number
    (``--tol -inf``, ``--tol -1e-300``) is a value, not an unknown option."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)


def _top_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellkit", usage="%(prog)s [-h] [--version] COMMAND ...",
                     description=main.__doc__,
                     epilog="commands:\n" + "\n".join(
                         f"  {name:<17}{command.__doc__}" for name, command in main.commands.items()),
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}")
    parser.add_argument("command", choices=main.commands, metavar="COMMAND",
                        help="one of the commands below; 'bellkit COMMAND --help' "
                             "shows its arguments")
    return parser


def arg(*names, kind=None, **kwargs):
    """Declare an argument of the command below, as ``add_argument`` takes it.

    ``kind`` marks an input file, read by ``io.load_<kind>``; an input option
    names its ``dest``.  Stack these above the body in command-line order.
    """
    if not names[0].startswith("-"):  # a positional shows as its upper-case name
        kwargs.setdefault("metavar", names[0].upper())

    def declare(body):
        body.__dict__.setdefault("args", []).insert(0, (names, kind, kwargs))
        return body

    return declare


_COMMON = [
    (("--format",), {"dest": "fmt", "choices": ("json", "text"), "default": "json",
                     "help": "Report format (default: %(default)s)."}),
    (("--seed",), {"type": int, "default": 0,
                   "help": "Seed for randomized subroutines (default: %(default)s)."}),
    # None stands for linalg.Tolerance(): reading its eps here would run
    # linalg and numpy at import.  The help names that eps (tested).
    (("--tol",), {"type": float, "default": None,
                  "help": "Tolerance for all approximate checks (default: 1e-09)."}),
]


def _render_text(obj, prefix="") -> list[str]:
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            lines.extend(_render_text(obj[key], f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(obj, (list, tuple)) and len(repr(obj)) > 72:
        lines.append(f"{prefix[:-1]} = <{len(obj)} entries>")
    else:
        lines.append(f"{prefix[:-1]} = {obj}")
    return lines


def report(*, tensor: bool = False, validated: bool = True):
    """Register the decorated body as the subcommand named after it.

    The body declares its own arguments with ``arg``; every command also
    takes ``--format``, ``--seed`` and ``--tol``.  Every input file is
    parsed, hashed into the provenance, and passed to the body positionally
    in declaration order (an omitted optional input is None); the other
    arguments arrive by keyword, with ``tol`` as a :class:`Tolerance`.  Each
    model must be a tensor-product model when ``tensor`` is set and must pass
    validation when ``validated`` is set, and a decomposition's components
    must share the correlation's scenario.  The body returns
    ``(fields, passed)``; the command adds its name and the provenance,
    prints the report and returns 0 if ``passed``, else 1.  Any ValueError,
    parse errors included, is bad input, and a MemoryError is an input too
    large to check: 2, with one line on stderr and nothing on stdout.
    """

    def decorate(body):
        name = body.__name__.replace("_", "-")
        declared = body.__dict__.pop("args")
        slots = [(kwargs.get("dest", names[0]), kind) for names, kind, kwargs in declared if kind]

        def command(fmt, seed, tol, **kwargs):
            try:
                tolerance = linalg.Tolerance() if tol is None else linalg.Tolerance(tol)
                if seed < 0:
                    raise ValueError(f"--seed must be a nonnegative integer, got {seed}")
                paths, inputs = [], []
                for dest, kind in slots:
                    path = kwargs.pop(dest)
                    if path is None:
                        inputs.append(None)
                        continue
                    # Looked up per call, so that rebinding a loader in ``io``
                    # (as perfbench's tracer does) takes effect.
                    obj = getattr(io, f"load_{kind}")(path)
                    if kind == "decomposition":
                        try:
                            special.check_decomposition(inputs[0], obj)
                        except ValueError as exc:
                            raise ValueError(f"{path}: {exc}") from None
                    if kind == "model" and tensor and not isinstance(obj, models.QuantumModel):
                        raise ValueError(f"{name} needs a tensor-product model")
                    if kind == "model" and validated:
                        rep = models.validate_model(obj, tolerance)
                        if not rep.valid:
                            raise ValueError(f"model is not valid: {rep}")
                    paths.append(path)
                    inputs.append(obj)
                fields, passed = body(*inputs, tol=tolerance, seed=seed, **kwargs)
                fields["command"] = name
                fields["provenance"] = {
                    "inputs": {str(p): io.file_sha256(p) for p in paths},
                    "seed": seed,
                    "tol": tolerance.eps,
                    "version": __version__,
                }
                out = (io.canonical_dumps(fields) if fmt == "json"
                       else "\n".join(_render_text(fields)))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            except MemoryError as exc:
                print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
                return 2
            print(out)
            return 0 if passed else 1

        command.__doc__ = body.__doc__
        command.args = [(names, kwargs) for names, _, kwargs in declared] + _COMMON
        main.commands[name] = command
        return command

    return decorate


@report(validated=False)
@arg("model_file", kind="model")
def validate(model, tol, seed):
    """Check the model invariants (POVM structure, commutation, unit state)."""
    rep = models.validate_model(model, tol)
    violations = [{"name": v.name, "location": v.location, "residual": v.residual}
                  for v in rep.violations]
    return {"verdicts": {"valid": rep.valid}, "violations": violations}, rep.valid


@report()
@arg("model_file", kind="model")
def correlation(model, tol, seed):
    """Extract the correlation table of a valid model."""
    corr = models.correlation_of(model, tol)
    return {**io.correlation_to_obj(corr), "notes": corr.notes}, True


@report(tensor=True)
@arg("model_file", kind="model")
def schmidt(model, tol, seed):
    """Schmidt coefficients and rank of a tensor model's state."""
    sd = schmidt_kernel.schmidt_decompose(model.psi, model.dimA, model.dimB, tol)
    return {
        "coefficients": sd.coefficients.tolist(),
        "rank": sd.rank,
        "witnesses": {"left_basis": io.matrix_to_obj(sd.left),
                      "right_basis": io.matrix_to_obj(sd.right)},
    }, True


@report(tensor=True)
@arg("model_file", kind="model")
def support(model, tol, seed):
    """Support projections and the centrally-supported verdict (both criteria)."""
    data = support_kernel.support_of(model, tol)
    transfer_verdict, transfer_res = support_kernel.is_centrally_supported_via_transfer(model, tol)
    agree = data.centrally_supported == transfer_verdict
    return {
        "verdicts": {
            "centrally_supported": data.centrally_supported,
            "transfer_criterion": transfer_verdict,
            "criteria_agree": agree,
        },
        "support_rank": data.schmidt.rank,
        "residuals": {
            "commutator": data.commutator_residuals,
            "transfer": transfer_res,
        },
        "witnesses": {"support_model": io.model_to_obj(data.supportModel)},
    }, agree


@report()
@arg("model_file", kind="model")
def naimark(model, tol, seed):
    """Naimark-dilate every POVM in the model and verify the dilation."""
    residuals = {}
    witnesses = {}
    for label, families in (("M", model.M), ("N", model.N)):
        for x, povm in enumerate(families):
            nd = dilations.naimark_dilate(povm, tol)
            residuals[f"{label}[{x}]"] = max(
                linalg.mat_norm(nd.V.conj().T @ p @ nd.V - m) for p, m in zip(nd.P, povm)
            )
            witnesses[f"{label}[{x}].V"] = io.matrix_to_obj(nd.V)
    passed = max(residuals.values()) <= tol.cut("residual")
    return {
        "verdicts": {"all_within_tolerance": passed},
        "residuals": residuals,
        "witnesses": witnesses,
    }, passed


@report(tensor=True)
@arg("model_file", kind="model")
@arg("--assert-extremal", action="store_true",
     help="Assert that the correlation is an extreme point (required; "
          "the toolkit cannot decide extremality).")
def round_binary(model, assert_extremal, tol, seed):
    """Round a binary POVM model to a projective model with the same correlation."""
    import numpy as np

    if not assert_extremal:
        raise ValueError("binary rounding is only sound for extreme correlations; "
                         "pass --assert-extremal to assert this")
    try:
        rounded, witness = special.binary_round(model, tol)
    except special.LemmaViolated as exc:
        return {
            "verdicts": {"rounded": False, "lemma_violated": True,
                         "extremality_asserted": True},
            "violation": {"side": exc.side, "x": exc.x,
                          "eigenvalue": exc.eigenvalue, "residual": exc.residual},
        }, False
    corr_gap = float(np.abs(models.correlation_of(rounded, tol).p
                            - models.correlation_of(model, tol).p).max())
    effect_res = {}
    for side, name, ops, rops in (("A", "M", model.M, rounded.M),
                                  ("B", "N", model.N, rounded.N)):
        for x in range(len(ops)):
            for a in range(2):
                effect_res[f"{name}[{x}][{a}]"] = float(np.linalg.norm(
                    models._act(model, side, ops[x][a] - rops[x][a], model.psi)))
    cut = tol.cut("residual")
    passed = corr_gap <= cut and max(effect_res.values()) <= cut
    return {
        "verdicts": {"rounded": True, "lemma_violated": False,
                     "extremality_asserted": True, "correlation_preserved": passed},
        "residuals": {"correlation_gap": corr_gap, "effects_on_state": effect_res},
        "witnesses": {"rounded_model": io.model_to_obj(rounded),
                      "dilation": io.witness_to_obj(witness)},
    }, passed


@report(tensor=True)
@arg("model_file", kind="model")
def sync_verify(model, tol, seed):
    """Run every check a synchronous model must satisfy."""
    rep = special.synchronous_verify(model, tol)
    return {
        "verdicts": {"passed": rep.passed, "full_rank": rep.full_rank,
                     "projective_state": rep.projective_state},
        "residuals": {"swap_transfer": rep.swap_residuals,
                      "projectivity": rep.projectivity_residuals},
    }, rep.passed


@report()
@arg("corr_file", kind="correlation")
def xor(corr, tol, seed):
    """XOR correlation matrix, unbiasedness, and rank of a binary behaviour."""
    xc = special.xor_of(corr, tol)
    return {
        "c": xc.c.tolist(),
        "verdicts": {"unbiased": xc.unbiased},
        "rank": xc.rank,
    }, True


@report()
@arg("corr_file", kind="correlation")
@arg("--assert-extremal", action="store_true",
     help="Assert the correlation is extreme (recorded verbatim).")
@arg("--decomposition", kind="decomposition", dest="decomposition_file",
     help="Convex decomposition refuting extremality.")
def xor_certify(corr, decomposition, assert_extremal, tol, seed):
    """Grant or deny the even-rank commuting-operator self-test certificate."""
    cert = special.xor_selftest_certificate(corr, assert_extremal, decomposition, tol)
    return {
        "verdicts": {
            "granted": cert.granted,
            "unbiased": cert.unbiased,
            "rank_even": cert.rank % 2 == 0,
            "extremality_asserted": cert.extremal_asserted,
            "extremality_refuted": cert.extremality_refuted,
        },
        "rank": cert.rank,
        "reasons": cert.reasons,
        "note": "extremality is an asserted input: the toolkit never decides it, "
                "it only refutes it given a convex decomposition",
    }, cert.granted


@report()
@arg("model1", kind="model")
@arg("model2", kind="model")
def state_equal(m1, m2, tol, seed):
    """Decide whether two models induce the same abstract state."""
    equal, witness = reps.states_equal(m1, m2, tol)
    if not equal:
        return {
            "verdicts": {"equal": False},
            "distinguishing": {
                "wordA": [list(l) for l in witness.word.lettersA],
                "wordB": [list(l) for l in witness.word.lettersB],
                "value1": [witness.value1.real, witness.value1.imag],
                "value2": [witness.value2.real, witness.value2.imag],
            },
        }, False
    return {
        "verdicts": {"equal": True},
        "witnesses": {"unitary": io.matrix_to_obj(witness.unitary)},
        "residuals": {
            "state": witness.state_residual,
            "intertwiner": witness.intertwiner_residual,
            "gram": witness.gram_residual,
        },
        "words_checked": witness.words_checked,
    }, True


@report(tensor=True)
@arg("model_s", kind="model")
@arg("model_t", kind="model")
@arg("--witness-out", help="Write the found witness to this file.")
def find_dilation(s, t, witness_out, tol, seed):
    """Search for a witness that MODEL_T is a local dilation of MODEL_S."""
    try:
        witness = dilations.find_local_dilation(s, t, seed=seed, tol=tol)
    except dilations.NotDilatable as exc:
        return {
            "verdicts": {"found": False},
            "reason": exc.reason,
            "obstruction": {k: (list(v) if isinstance(v, tuple) else v)
                            for k, v in exc.obstruction.items()},
        }, False
    rep = dilations.verify_local_dilation(s, t, witness, tol)
    if witness_out:
        io.save_json(witness_out, io.witness_to_obj(witness))
    return {
        "verdicts": {"found": True, "verified": rep.passed},
        "residuals": {"max": rep.max_residual, "per_index": rep.residuals},
        "schmidt_ranks": rep.schmidt_ranks,
        "witnesses": {"dilation": io.witness_to_obj(witness)},
    }, rep.passed


@report(tensor=True)
@arg("model_s", kind="model")
@arg("model_t", kind="model")
@arg("witness_file", kind="witness")
def verify_dilation(s, t, witness, tol, seed):
    """Verify a local-dilation witness for MODEL_S over MODEL_T."""
    rep = dilations.verify_local_dilation(s, t, witness, tol)
    return {
        "verdicts": {
            "passed": rep.passed,
            "isometries_ok": rep.isometry_ok,
            "schmidt_rank_consistent": rep.rank_consistent,
        },
        "residuals": {
            "max": rep.max_residual,
            "per_index": rep.residuals,
            "aux_norm": rep.aux_norm_residual,
            "moments": rep.moment_residual,
        },
        "schmidt_ranks": rep.schmidt_ranks,
    }, rep.passed


@report()
@arg("model_file", kind="model")
def irrep(model, tol, seed):
    """Irreducible (block (x) multiplicity) decomposition of both local algebras."""
    fields = {}
    passed = True
    for side, family in (("A", model.M), ("B", model.N)):
        try:
            dec = reps.irrep_decompose(reps._flat(family), seed=seed, tol=tol)
        except reps.AlgebraNotSemisimpleNumerically as exc:
            fields[f"side_{side}"] = {"error": str(exc)}
            passed = False
            continue
        fields[f"side_{side}"] = {
            "blocks": [{"irrep_dim": b.n, "multiplicity": b.m} for b in dec.blocks],
            "commutant_dim": dec.commutant_dim,
            "irreducible": dec.irreducible,
            "reassembly_defect": dec.reassembly_defect,
            "ambiguous_pairs": [list(map(float, pair)) for pair in dec.ambiguous_pairs],
        }
    return fields, passed


@report()
@arg("model_file", kind="model")
def cyclic(model, tol, seed):
    """Restrict a model to the cyclic subspace generated by its state."""
    cm = reps.cyclic_restrict(model, tol)
    return {
        "verdicts": {"already_cyclic": not cm.restricted},
        "cyclic_dim": cm.dim,
        "basis_words": [
            {"A": [list(l) for l in w.lettersA], "B": [list(l) for l in w.lettersB]}
            for w in cm.basis_words
        ],
        "witnesses": {"restricted_model": io.model_to_obj(cm.model)},
    }, True


@report()
@arg("model_file", kind="model")
@arg("--alpha", type=float, required=True, help="Tilt parameter in [0, 2).")
def tilted_sos(model, alpha, tol, seed):
    """Evaluate the tilted-CHSH SOS certificate on a model."""
    cert = tilted.verify_tilted_sos(model, alpha, tol)
    return {
        "alpha": cert.alpha,
        "lambda": cert.lam,
        "delta": cert.delta,
        "f_eta": cert.f_eta,
        "verdicts": {"identities_ok": cert.identities_ok, "optimal": cert.optimal},
        "residuals": {
            "identity_defect_1": cert.identity_defects[0],
            "identity_defect_2": cert.identity_defects[1],
            "state": cert.state_residuals,
        },
    }, cert.identities_ok


if __name__ == "__main__":
    run()
