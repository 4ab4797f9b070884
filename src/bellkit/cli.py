"""Batch command-line front end.

One subcommand per verification procedure; each reads JSON model or
correlation files, runs exactly one check, and writes a single canonical JSON
report to stdout (diagnostics go to stderr).  Exit code 0 means every check
passed, 1 means a check failed, 2 means the input or usage was bad.  Reports
embed the input hashes, tolerance, and seed, so published numbers are
reproducible byte for byte.
"""

from __future__ import annotations

import gc
import sys

import click

# Kernel modules, not their names: each runs on its first attribute access
# (see ``bellkit/__init__``), so a command runs only the modules it calls and
# ``--version`` none.  ``schmidt`` and ``support`` are also command names.
from . import __version__, dilations, io, linalg, models, reps, special, tilted
from . import schmidt as schmidt_kernel, support as support_kernel

__all__ = ["main", "run"]


@click.group()
@click.version_option(__version__)
def main():
    """Verification toolkit for bipartite quantum correlation models."""


def run():
    """Process entry point: ``main``, then ``gc.freeze()`` on the way out.

    Once the report is written and click has raised SystemExit, every
    tracked object (the heap the numpy, click and bellkit imports built, and
    what the command built) moves to the permanent generation, so the
    exiting interpreter's collections no longer traverse and tear it down.
    Output is flushed and ``atexit`` runs as usual; the OS reclaims the
    frozen objects.  In-process callers use ``main`` and keep a normal heap.
    """
    try:
        main()
    finally:
        gc.freeze()


class _Input(click.Path):
    """A file a command reads: parsed for the command, hashed for its report.
    A missing file is reported by its loader, like every other file error."""

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def load(self, path):
        # Looked up per call, so that rebinding a loader in ``io`` (as
        # perfbench's tracer does) takes effect.
        return getattr(io, f"load_{self.kind}")(path)


MODEL, CORRELATION, WITNESS, DECOMPOSITION = (
    _Input(kind) for kind in ("model", "correlation", "witness", "decomposition"))


def _common_params() -> list[click.Option]:
    return [
        click.Option(["--format", "fmt"], type=click.Choice(["json", "text"]),
                     default="json", show_default=True, help="Report format."),
        click.Option(["--seed"], type=int, default=0, show_default=True,
                     help="Seed for randomized subroutines."),
        # None stands for linalg.Tolerance(): reading its eps here would run
        # linalg and numpy at import.  The help shows that eps (tested).
        click.Option(["--tol"], type=float, default=None, show_default="1e-09",
                     help="Tolerance for all approximate checks."),
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

    The body declares its own click arguments and options.  Every parameter
    typed MODEL, CORRELATION, WITNESS or DECOMPOSITION is parsed, hashed into
    the provenance, and passed to the body positionally in declaration order
    (an omitted optional input is None); the other parameters arrive by
    keyword, with ``tol`` as a :class:`Tolerance`.  Each model must be a
    tensor-product model when ``tensor`` is set and must pass validation when
    ``validated`` is set, and a decomposition's components must share the
    correlation's scenario.  The body returns ``(fields, passed)``; the
    command adds its name and the provenance, prints the report and exits 0 if
    ``passed``, else 1.  Any ValueError, parse errors included, is bad input,
    and a MemoryError is an input too large to check: exit 2 with one line on
    stderr and nothing on stdout.
    """

    def decorate(body):
        name = body.__name__.replace("_", "-")
        params = list(reversed(body.__click_params__)) + _common_params()

        def run(fmt, seed, tol, **kwargs):
            try:
                tolerance = linalg.Tolerance() if tol is None else linalg.Tolerance(tol)
                if seed < 0:
                    raise ValueError(f"--seed must be a nonnegative integer, got {seed}")
                paths, inputs = [], []
                for param in params:
                    if not isinstance(param.type, _Input):
                        continue
                    path = kwargs.pop(param.name)
                    if path is None:
                        inputs.append(None)
                        continue
                    obj = param.type.load(path)
                    if param.type is DECOMPOSITION:
                        try:
                            special.check_decomposition(inputs[0], obj)
                        except ValueError as exc:
                            raise ValueError(f"{path}: {exc}") from None
                    if param.type is MODEL and tensor and not isinstance(obj, models.QuantumModel):
                        raise ValueError(f"{name} needs a tensor-product model")
                    if param.type is MODEL and validated:
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
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            except MemoryError as exc:
                click.echo("error: out of memory" + (f": {exc}" if str(exc) else ""), err=True)
                sys.exit(2)
            click.echo(out)
            sys.exit(0 if passed else 1)

        return main.command(name, params=params, help=body.__doc__)(run)

    return decorate


@report(validated=False)
@click.argument("model_file", type=MODEL)
def validate(model, tol, seed):
    """Check the model invariants (POVM structure, commutation, unit state)."""
    rep = models.validate_model(model, tol)
    violations = [{"name": v.name, "location": v.location, "residual": v.residual}
                  for v in rep.violations]
    return {"verdicts": {"valid": rep.valid}, "violations": violations}, rep.valid


@report()
@click.argument("model_file", type=MODEL)
def correlation(model, tol, seed):
    """Extract the correlation table of a valid model."""
    corr = models.correlation_of(model, tol)
    return {**io.correlation_to_obj(corr), "notes": corr.notes}, True


@report(tensor=True)
@click.argument("model_file", type=MODEL)
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
@click.argument("model_file", type=MODEL)
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
@click.argument("model_file", type=MODEL)
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
@click.argument("model_file", type=MODEL)
@click.option("--assert-extremal", is_flag=True,
              help="Assert that the correlation is an extreme point (required; "
                   "the toolkit cannot decide extremality).")
def round_binary(model, assert_extremal, tol, seed):
    """Round a binary POVM model to a projective model with the same correlation."""
    import numpy as np

    if not assert_extremal:
        raise ValueError("binary rounding is only sound for extreme correlations; "
                         "pass --assert-extremal to assert this")
    try:
        rounded, witness = special.binary_round(model, True, tol)
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
@click.argument("model_file", type=MODEL)
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
@click.argument("corr_file", type=CORRELATION)
def xor(corr, tol, seed):
    """XOR correlation matrix, unbiasedness, and rank of a binary behaviour."""
    xc = special.xor_of(corr, tol)
    return {
        "c": xc.c.tolist(),
        "verdicts": {"unbiased": xc.unbiased},
        "rank": xc.rank,
    }, True


@report()
@click.argument("corr_file", type=CORRELATION)
@click.option("--assert-extremal", is_flag=True,
              help="Assert the correlation is extreme (recorded verbatim).")
@click.option("--decomposition", "decomposition_file", type=DECOMPOSITION,
              default=None, help="Convex decomposition refuting extremality.")
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
@click.argument("model1", type=MODEL)
@click.argument("model2", type=MODEL)
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
@click.argument("model_s", type=MODEL)
@click.argument("model_t", type=MODEL)
@click.option("--witness-out", type=click.Path(), default=None,
              help="Write the found witness to this file.")
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
@click.argument("model_s", type=MODEL)
@click.argument("model_t", type=MODEL)
@click.argument("witness_file", type=WITNESS)
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
@click.argument("model_file", type=MODEL)
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
@click.argument("model_file", type=MODEL)
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
@click.argument("model_file", type=MODEL)
@click.option("--alpha", type=float, required=True,
              help="Tilt parameter in [0, 2).")
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
