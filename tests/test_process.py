"""The real process path: ``python -m bellkit.cli`` as a child process.

The other CLI tests call ``main`` in-process through ``CliRunner``.  A child
goes through the process entry ``bellkit.cli.run`` instead, which flushes
stdout and stderr after ``main`` and leaves through ``os._exit``, skipping
the interpreter's teardown.  These tests check that the child's exit code,
stdout and stderr are still exactly the in-process ones, that a failed flush
still exits non-zero, and that ``os._exit`` stays out of in-process calls.
"""

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
from test_golden import CASES, CHSH, GOLDEN, ROOT

SRC = str(Path(bellkit.__file__).resolve().parent.parent)

# the first golden case of each subcommand, by case name
FIRST_CASE = {}
for _name in sorted(CASES):
    FIRST_CASE.setdefault(CASES[_name][0], _name)
ONE_PER_COMMAND = sorted(FIRST_CASE.values())


# A child's stdout is a block-buffered pipe, as by default, so a report that
# ``run`` failed to flush would not reach it.
CHILD_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": SRC}


def child(args, stdout=subprocess.PIPE, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          timeout=120, env=CHILD_ENV, **kwargs)


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


@pytest.fixture(scope="module")
def large_model(tmp_path_factory) -> str:
    """A 28 x 28 model in the (4,4,4,4) scenario, whose naimark report is
    over 1 MB."""
    model = random_quantum_model(np.random.default_rng(5), Scenario(4, 4, 4, 4), 28, 28)
    path = tmp_path_factory.mktemp("large") / "m.json"
    save_json(path, model_to_obj(model))
    return str(path)


def assert_child_matches_main(args, code: int):
    """The child's exit code, stdout and stderr are the in-process ones."""
    expected = CliRunner().invoke(cli.main, args, catch_exceptions=False)
    assert expected.exit_code == code
    res = child(["-m", "bellkit.cli", *args], cwd=ROOT)
    assert res.returncode == code
    assert res.stdout == expected.stdout_bytes
    assert res.stderr == expected.stderr_bytes
    return res


def test_child_writes_a_large_report_whole(large_model):
    """A naimark report over 1 MB reaches the pipe whole and byte-identical
    to the in-process one, though the child exits without teardown."""
    res = assert_child_matches_main(["naimark", large_model], 0)
    assert len(res.stdout) >= 1_000_000


@pytest.mark.parametrize("args, code", [
    (CASES["find_dilation_obstructed"], 1),
    (["sync-verify", CHSH], 2),  # the CHSH correlation is not synchronous
], ids=["exit-1", "exit-2"])
def test_child_exit_matches_in_process_main(args, code, monkeypatch):
    monkeypatch.chdir(ROOT)
    res = assert_child_matches_main(args, code)
    if code == 2:
        assert res.stderr.startswith(b"error: ")


def test_in_process_main_never_calls_os_exit(monkeypatch):
    def refuse(code):
        raise AssertionError(f"os._exit({code}) called in-process")

    monkeypatch.setattr(os, "_exit", refuse)
    monkeypatch.chdir(ROOT)
    for args, code in ((CASES["validate"], 0), (CASES["find_dilation_obstructed"], 1),
                       (["validate", "no-such-file.json"], 2), (["--version"], 0)):
        assert CliRunner().invoke(cli.main, args, catch_exceptions=False).exit_code == code


@pytest.mark.parametrize("large, code", [(False, 120), (True, 1)],
                         ids=["report-in-the-buffer", "report-over-1MB"])
def test_child_exits_nonzero_when_the_reader_has_gone(large, code, large_model):
    """Stdout is a block-buffered pipe whose read end is already closed.  A
    short report stays in the buffer until ``run``'s flush fails, which
    exits 120 as the interpreter's own final flush would; a long one fails
    in ``print`` with a traceback and exits 1."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        args = ["naimark", large_model] if large else CASES["validate"]
        res = child(["-m", "bellkit.cli", *args], stdout=write_end, cwd=ROOT)
    finally:
        os.close(write_end)
    assert res.returncode == code
    assert (b"BrokenPipeError" in res.stderr) == (code == 1)


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, attr = scripts["bellkit"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.run
