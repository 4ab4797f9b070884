"""The benchmark tracer still drives the CLI and finds what it wraps.

``perfbench/tracer.py`` patches each ``(module, attribute)`` in ``TRACED``;
a name deleted or renamed in bellkit would break ``--trace 1``.  It runs the
commands through ``click.testing.CliRunner``, which reads ``cli.main.name``
and calls ``cli.main.main(args=..., prog_name=...)``.
"""

import ast
import importlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from bellkit import cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def traced_names():
    """The ``TRACED`` literal, read from the tracer's source without running it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACER}")


@pytest.mark.parametrize("module,attr", traced_names())
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(f"bellkit.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_tracer_runs_the_cli_fixtures_pass(tmp_path, monkeypatch):
    """One untraced and one traced pass over ``cli-fixtures``: every command
    succeeds with the known answer, and each gets one command span."""
    monkeypatch.syspath_prepend(str(TRACER.parent))
    gen, tracer, workloads = (importlib.import_module(m) for m in ("gen", "tracer", "workloads"))
    gen.write_inputs("cli-fixtures", 42, tmp_path, ROOT / "fixtures")
    cmds = workloads.commands("cli-fixtures", tmp_path.as_posix())
    runner, spans = CliRunner(), tracer.Tracer()
    _, untraced = tracer._run_pass(runner, cli.main, cmds, workloads.judge, None)
    undo = tracer.patch(spans)
    try:
        _, traced = tracer._run_pass(runner, cli.main, cmds, workloads.judge, spans)
    finally:
        tracer.unpatch(undo)
    for results in (untraced, traced):
        assert [r for r in results if r["failed"] or r["errors"]] == []
    assert sum(s[2] == tracer.COMMAND_SPAN for s in spans.spans) == len(cmds)
