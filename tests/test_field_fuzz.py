"""Field fuzz of every input file kind through every subcommand that reads it.

Each top-level field of a model (tensor and commuting), witness, correlation
and decomposition file, each scenario count, each decomposition component's
fields and the whole document are set in turn to each value of ``VALUES``,
and each of these fields is also deleted.
The enumeration is exhaustive, so it needs no seed.  Every run must exit 2
with one ``error:`` line on stderr, nothing on stdout and no traceback.  The
one exception is ``validate``, whose job is to report the invariants a
parseable model breaks: there a file that parses may also exit 1 with
``"valid":false``.  A crash raises out of ``invoke`` and fails the case at
its first crashing mutation.
"""

import copy
import json

import pytest

from bellkit.io import correlation_to_obj, model_to_obj, witness_to_obj
from bellkit.models import correlation_of, trivial_witness
from bellkit.presets import chsh_ideal_model, commuting_from_tensor
from run_cli import invoke

VALUES = [5, None, [5], "x", {}, [], -1, 0, 2.5, True]
DELETED = object()  # a field removed rather than set

CHSH = chsh_ideal_model()
CORR = correlation_to_obj(correlation_of(CHSH))
FILES = {
    "tensor": model_to_obj(CHSH),
    "commuting": model_to_obj(commuting_from_tensor(CHSH)),
    "witness": witness_to_obj(trivial_witness(CHSH)),
    "correlation": CORR,
    "decomposition": {"components": [{"weight": 1.0, "correlation": CORR}]},
}
MODEL_COMMANDS = [
    ["validate", "@model"], ["correlation", "@model"], ["schmidt", "@model"],
    ["support", "@model"], ["naimark", "@model"], ["round-binary", "@model", "--assert-extremal"],
    ["sync-verify", "@model"], ["state-equal", "@model", "@model"],
    ["find-dilation", "@model", "@model"], ["verify-dilation", "@model", "@model", "@witness"],
    ["irrep", "@model"], ["cyclic", "@model"], ["tilted-sos", "@model", "--alpha", "0"],
]
TENSOR_ONLY = {"schmidt", "support", "round-binary", "sync-verify", "find-dilation",
               "verify-dilation"}
CORR_COMMANDS = [["xor", "@correlation"],
                 ["xor-certify", "@correlation", "--assert-extremal",
                  "--decomposition", "@decomposition"]]

# (the kind of file fuzzed, the command) pairs: each command reads the fuzzed
# file in every slot of that kind, and the shipped-good file in the others
CASES = (
    [("tensor", cmd) for cmd in MODEL_COMMANDS]
    + [("commuting", cmd) for cmd in MODEL_COMMANDS if cmd[0] not in TENSOR_ONLY]
    + [("witness", ["verify-dilation", "@model", "@model", "@witness"])]
    + [("correlation", cmd) for cmd in CORR_COMMANDS]
    + [("decomposition", CORR_COMMANDS[1])]
)


def mutations(obj):
    """(description, mutated copy) for every field of ``obj`` and every value,
    and for every field deleted."""
    for value in VALUES:
        yield f"<document> = {value!r}", value
    places = [(key,) for key in obj]
    places += [(key, sub) for key in obj if isinstance(obj[key], dict) for sub in obj[key]]
    if "components" in obj:
        places += [("components", 0, "weight"), ("components", 0, "correlation")]
    for place in places:
        where = ".".join(map(str, place))
        for value in [*VALUES, DELETED]:
            out = copy.deepcopy(obj)
            parent = out
            for key in place[:-1]:
                parent = parent[key]
            if value is DELETED:
                del parent[place[-1]]
                yield f"del {where}", out
            else:
                parent[place[-1]] = value
                yield f"{where} = {value!r}", out


def _exits_2(res, command) -> bool:
    if command == "validate" and res.exit_code == 1 and '"valid":false' in res.stdout:
        return True
    return (res.exit_code == 2 and res.stdout == "" and res.stderr.startswith("error: ")
            and res.stderr.count("\n") == 1)


def _good_files(tmp_path) -> dict:
    """The path of a good file for each slot kind: model, witness, correlation, decomposition."""
    paths = {}
    for name, obj in FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    paths["model"] = paths.pop("tensor")
    return paths


def _argv(cmd, paths) -> list[str]:
    return [str(paths[a[1:]]) if a.startswith("@") else a for a in cmd]


@pytest.mark.parametrize("kind,cmd", CASES, ids=[f"{k}-{c[0]}" for k, c in CASES])
def test_every_bad_field_exits_2(tmp_path, kind, cmd):
    paths = _good_files(tmp_path)
    bad_path = tmp_path / "bad.json"
    paths["model" if kind in ("tensor", "commuting") else kind] = bad_path
    failures = []
    for what, obj in mutations(FILES[kind]):
        bad_path.write_text(json.dumps(obj))
        res = invoke(_argv(cmd, paths))
        if not _exits_2(res, cmd[0]):
            failures.append((what, res.exit_code, res.stderr[-200:]))
    assert failures == []


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300", "0", "-0.0"])
@pytest.mark.parametrize("cmd", MODEL_COMMANDS + CORR_COMMANDS, ids=lambda c: c[0])
def test_bad_tolerance_exits_2(tmp_path, cmd, tol):
    res = invoke([*_argv(cmd, _good_files(tmp_path)), "--tol", tol])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: tolerance must be finite and positive, got ")
    assert res.stderr.count("\n") == 1
