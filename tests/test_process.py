"""The real process path: ``python -m bellkit.cli`` as a child process.

The other CLI tests call ``main`` in-process through ``run_cli.invoke``.  A
child goes through the process entry ``bellkit.cli.run`` instead, which
flushes stdout and stderr after ``main`` and leaves through ``os._exit``,
skipping the interpreter's teardown.  These tests check that the child's exit code,
stdout and stderr are still exactly the in-process ones, that a report or
message that cannot be written exits 120 whatever its size and buffering, that
an unreadable or undecodable input exits 2 naming the file, that ``os._exit``
stays out of in-process calls, and that a child left to its default BLAS
thread count prints one thread's bytes.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellkit
from bellkit import cli
from bellkit.io import model_to_obj, save_json
from bellkit.models import Scenario
from bellkit.presets import commuting_from_tensor, random_quantum_model
from run_cli import invoke
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


def child(args, stdout=subprocess.PIPE, env=CHILD_ENV, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          timeout=120, env=env, **kwargs)


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
    expected = invoke(args)
    assert expected.exit_code == code
    res = child(["-m", "bellkit.cli", *args], cwd=ROOT)
    assert res.returncode == code
    assert res.stdout == expected.stdout.encode()
    assert res.stderr == expected.stderr.encode()
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
        assert invoke(args).exit_code == code


@pytest.mark.parametrize("large, unbuffered", [
    (False, False), (True, False), (False, True), (True, True),
], ids=["report-in-the-buffer", "report-over-1MB", "unbuffered", "unbuffered-over-1MB"])
def test_child_exits_nonzero_when_the_reader_has_gone(large, unbuffered, large_model):
    """Stdout is a pipe whose read end is already closed.  A short report
    in a block buffer fails in ``run``'s flush; a long one, or any report
    with ``PYTHONUNBUFFERED=1``, fails in ``print``.  Either way the child
    exits 120, as the interpreter's own final flush would, with empty stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**CHILD_ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else CHILD_ENV
    try:
        args = ["naimark", large_model] if large else CASES["validate"]
        res = child(["-m", "bellkit.cli", *args], stdout=write_end, env=env, cwd=ROOT)
    finally:
        os.close(write_end)
    assert res.returncode == 120
    assert res.stderr == b""


@pytest.mark.parametrize("content", [None, b'{"kind": "tensor", "name": "caf\xe9"}'],
                         ids=["missing", "undecodable"])
def test_child_unreadable_input_exits_2_naming_it(content, tmp_path):
    """The second of two models cannot be read or is not UTF-8: one
    ``error:`` line that names that file, nothing on stdout."""
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_bytes(content)
    res = child(["-m", "bellkit.cli", "state-equal", CHSH, str(bad)], cwd=ROOT)
    assert res.returncode == 2
    assert res.stdout == b""
    assert res.stderr.startswith(f"error: {bad}: ".encode())
    assert res.stderr.count(b"\n") == 1


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_child_defaults_to_one_blas_thread(tmp_path):
    """A d = 9 POVM model against its commuting embedding: on a machine with
    more than one CPU, its state-equal report differs in the low bits at two
    BLAS threads, so with the thread variables unset the child prints the
    one-thread bytes only because ``run`` pins them.  On one CPU both
    children run one thread anyway, and the test cannot fail."""
    model = random_quantum_model(np.random.default_rng(0), Scenario(2, 2, 2, 2), 9, 9)
    paths = [str(tmp_path / "tensor.json"), str(tmp_path / "commuting.json")]
    save_json(paths[0], model_to_obj(model))
    save_json(paths[1], model_to_obj(commuting_from_tensor(model)))
    unset = {k: v for k, v in CHILD_ENV.items() if k not in BLAS_THREADS}
    outs = [subprocess.run([sys.executable, "-m", "bellkit.cli", "state-equal", *paths],
                           capture_output=True, timeout=120, env=env)
            for env in (unset, {**unset, **dict.fromkeys(BLAS_THREADS, "1")})]
    assert [r.returncode for r in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, attr = scripts["bellkit"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.run
