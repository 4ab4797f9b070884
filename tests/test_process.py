"""The real process path: ``python -m bellkit.cli`` as a child process.

The other CLI tests call ``main`` in-process through ``CliRunner``.  A child
goes through the process entry ``bellkit.cli.run`` instead, which freezes the
heap after ``main`` returns; these tests check that the child's exit code and
stdout bytes are still exactly the in-process ones, and that the freeze stays
out of in-process calls.
"""

import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import bellkit
from bellkit import cli
from bellkit.io import model_to_obj, save_json
from bellkit.models import Scenario
from bellkit.presets import random_quantum_model
from test_golden import CASES, GOLDEN, ROOT

SRC = str(Path(bellkit.__file__).resolve().parent.parent)

# the first golden case of each subcommand, by case name
FIRST_CASE = {}
for _name in sorted(CASES):
    FIRST_CASE.setdefault(CASES[_name][0], _name)
ONE_PER_COMMAND = sorted(FIRST_CASE.values())


def child(args, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC}, **kwargs)


def test_one_case_per_subcommand():
    assert len(ONE_PER_COMMAND) == len(cli.main.commands) == 15


@pytest.mark.parametrize("name", ONE_PER_COMMAND)
def test_child_report_matches_golden(name):
    res = child(["-m", "bellkit.cli", *CASES[name]], cwd=ROOT)
    assert f"exit {res.returncode}\n".encode() + res.stdout == (GOLDEN / f"{name}.out").read_bytes()


def test_child_version_exits_0():
    res = child(["-m", "bellkit.cli", "--version"])
    assert res.returncode == 0
    assert bellkit.__version__.encode() in res.stdout


@pytest.mark.parametrize("args", [
    ["validate"],                                        # missing argument
    [],                                                  # no subcommand
    ["no-such-command"],                                 # unknown subcommand
    ["validate", "--form", "json", CASES["validate"][1]],  # abbreviated option
    ["validate", "--seed", "x", CASES["validate"][1]],   # non-integer --seed
], ids=["missing-argument", "no-subcommand", "unknown-subcommand", "abbreviated-option",
        "non-integer-seed"])
def test_child_usage_error_exits_2(args):
    res = child(["-m", "bellkit.cli", *args], cwd=ROOT)
    assert res.returncode == 2
    assert res.stdout == b""
    assert b"error: " in res.stderr
    assert b"Traceback" not in res.stderr


def test_child_writes_a_large_report_whole(tmp_path):
    """A naimark report over 1 MB reaches the pipe whole and byte-identical
    to the in-process one, freeze or not."""
    model = random_quantum_model(np.random.default_rng(5), Scenario(4, 4, 4, 4), 28, 28)
    path = tmp_path / "m.json"
    save_json(path, model_to_obj(model))
    args = ["naimark", str(path)]
    expected = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert expected.exit_code == 0
    assert len(expected.stdout_bytes) >= 1_000_000
    res = child(["-m", "bellkit.cli", *args])
    assert res.returncode == 0
    assert res.stdout == expected.stdout_bytes


def test_child_freezes_the_heap_on_exit():
    """``python -m bellkit.cli`` goes through ``run``: by the time ``atexit``
    handlers run, the heap is frozen."""
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
            "sys.argv = ['bellkit', '--version']\n"
            "runpy.run_module('bellkit.cli', run_name='__main__')\n")
    res = child(["-c", code])
    assert res.returncode == 0
    count = int(res.stderr.decode().split("frozen ")[1])
    assert count > 10_000


def test_in_process_main_does_not_freeze(monkeypatch):
    monkeypatch.chdir(ROOT)
    before = gc.get_freeze_count()
    res = CliRunner().invoke(cli.main, list(CASES["validate"]), catch_exceptions=False)
    assert res.exit_code == 0
    assert gc.get_freeze_count() == before


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, attr = scripts["bellkit"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.run
