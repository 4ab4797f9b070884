"""Run the CLI in-process: ``invoke(args)`` calls ``bellkit.cli.main`` with
stdout and stderr captured, and returns its exit code and both streams.

An exception that ``main`` does not map to an exit code propagates, so a
crash fails the calling test with its traceback.
"""

import contextlib
import io
from typing import NamedTuple

from bellkit import cli


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(args) -> Result:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return Result(code, out.getvalue(), err.getvalue())
