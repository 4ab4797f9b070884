"""File formats, canonical serialization, and the CLI contract."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellkit
from bellkit import cli
from bellkit.io import (
    ParseError,
    canonical_dumps,
    correlation_to_obj,
    load_model,
    model_to_obj,
    obj_to_correlation,
    obj_to_model,
    save_json,
    witness_to_obj,
    obj_to_witness,
)
from bellkit.linalg import replace
from bellkit.models import QuantumModel, Scenario, correlation_of, trivial_witness
from bellkit.presets import (
    chsh_ideal_model,
    commuting_from_tensor,
    example_pair,
    random_quantum_model,
    tensor_with_auxiliary,
)
from run_cli import invoke
from test_dilations import conjugate_pair

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CHSH_CORR = correlation_to_obj(correlation_of(chsh_ideal_model()))
NAN = float("nan")


class TestCanonicalForm:
    def test_roundtrip_byte_stable(self):
        for m in (*example_pair(), chsh_ideal_model()):
            text = canonical_dumps(model_to_obj(m))
            reparsed = obj_to_model(json.loads(text))
            assert canonical_dumps(model_to_obj(reparsed)) == text

    def test_fixture_files_are_canonical(self):
        for path in sorted(FIXTURES.glob("*.json")):
            text = path.read_text()
            obj = json.loads(text)
            assert canonical_dumps(obj) + "\n" == text, f"{path.name} not canonical"

    def test_negative_zero_written_as_zero(self):
        """kron with a negative entry makes -0.0 entries; dumping writes them as
        0, so the dump is a fixed point of JSON load and canonical dump."""
        m = tensor_with_auxiliary(chsh_ideal_model(), np.kron([0.6, 0.8], [1.0, 0.0]), 2, 2)
        obj = model_to_obj(m)
        assert any(x == 0 and math.copysign(1, x) < 0 for row in obj["N"][1][0] for e in row
                   for x in e)
        text = canonical_dumps(obj)
        assert canonical_dumps(json.loads(text)) == text
        assert canonical_dumps(model_to_obj(obj_to_model(json.loads(text)))) == text
        assert canonical_dumps({"x": -0.0, "v": [[-0.0, 1.0]]}) == '{"v":[[0,1]],"x":0}'

    def test_sorted_keys_and_17_digits(self):
        out = canonical_dumps({"b": 1 / 3, "a": True})
        assert out == '{"a":true,"b":0.33333333333333331}'

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_dumps({"x": float("nan")})

    def test_float_pair_rows_match_the_item_by_item_walk(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((9, 7)) + 1j * rng.standard_normal((9, 7))
        special = [[-0.0, 0.0], [5e-324, -2.2250738585072014e-308], [1e308, -1.7976931348623157e308],
                   [3.0, -4.0], [1.0, 1e16], [0.1, 123456789.0]]
        for obj in (np.stack((m.real, m.imag), -1).tolist(), special, [special, []],
                    {"v": special, "s": [[1, 2.0]], "t": [(1.5, 2.5)], "u": [[1.5, True]]}):
            assert canonical_dumps(obj) == _walk_dumps(obj)

    @pytest.mark.parametrize("bad", [NAN, math.inf, -math.inf])
    def test_float_pair_rows_reject_non_finite(self, bad):
        for row in ([[0.5, 1.0], [bad, 0.0]], [[0.5, 1.0], [0.0, bad]]):
            with pytest.raises(ValueError, match="non-finite"):
                canonical_dumps({"m": [row]})


def _walk_dumps(obj) -> str:
    """canonical_dumps as an item-by-item walk with format(x, ".17g"),
    writing -0.0 as 0 (JSON reads -0 as the integer 0)."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        assert math.isfinite(obj)
        return format(0.0 if obj == 0 else obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_walk_dumps, obj)) + "]"
    return "{" + ",".join(f"{json.dumps(k)}:{_walk_dumps(obj[k])}" for k in sorted(obj)) + "}"


class TestModelFiles:
    def test_model_roundtrip_values(self, tmp_path):
        m = chsh_ideal_model()
        path = tmp_path / "m.json"
        save_json(path, model_to_obj(m))
        loaded = load_model(path)
        assert loaded.scenario == m.scenario
        np.testing.assert_allclose(loaded.psi, m.psi)
        for x in range(2):
            for a in range(2):
                np.testing.assert_allclose(loaded.M[x][a], m.M[x][a])

    def test_bad_kind_reported(self):
        with pytest.raises(ParseError) as exc_info:
            obj_to_model({"kind": "weird"}, where="input.json")
        assert "input.json" in str(exc_info.value)
        assert "kind" in str(exc_info.value)

    def test_correlation_shape_check(self):
        obj = correlation_to_obj(correlation_of(chsh_ideal_model()))
        obj["p"] = obj["p"][:1]  # truncate
        with pytest.raises(ParseError):
            obj_to_correlation(obj)

    def test_correlation_sum_check(self):
        obj = correlation_to_obj(correlation_of(chsh_ideal_model()))
        obj["p"][0][0][0][0] += 0.5
        with pytest.raises(ParseError, match="sums to"):
            obj_to_correlation(obj)

    def test_entries_load_as_complex_of_each_pair(self):
        """Each [re, im] entry loads to the bits of complex(re, im): ints,
        an int of 2**60, -0.0, subnormals and the largest float included."""
        rng = np.random.default_rng(3)
        special = [[2 ** 60, -0.0], [-0.0, 1], [5e-324, -1.7976931348623157e308], [-7, 0.1]]
        rows = rng.standard_normal((4, 4, 2)).tolist()
        rows[1] = special
        obj = model_to_obj(chsh_ideal_model())
        obj["M"][0][0] = rows
        obj["psi"] = special
        m = obj_to_model(obj)
        for got, want in ((m.M[0][0], [[complex(re, im) for re, im in row] for row in rows]),
                          (m.psi, [complex(re, im) for re, im in special])):
            want = np.array(want, dtype=complex)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert m.M[0][0][1, 0] == float(2 ** 60)

    def test_witness_roundtrip(self):
        w = trivial_witness(chsh_ideal_model())
        w2 = obj_to_witness(witness_to_obj(w))
        np.testing.assert_allclose(w2.IA, w.IA)
        assert w2.dimAuxA == 1


class TestCliCommands:
    def test_validate_fixture(self):
        res = invoke(["validate", str(FIXTURES / "chsh_ideal.model.json")])
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert report["verdicts"]["valid"] is True
        assert report["provenance"]["tol"] == 1e-9

    def test_validate_broken_model_exits_1(self, tmp_path):
        m = chsh_ideal_model()
        obj = model_to_obj(m)
        obj["psi"][0] = [2.0, 0.0]  # breaks normalization
        path = tmp_path / "bad.json"
        save_json(path, obj)
        res = invoke(["validate", str(path)])
        assert res.exit_code == 1
        assert json.loads(res.stdout)["verdicts"]["valid"] is False

    def test_validate_misshapen_operator_and_later_povm(self, tmp_path):
        """A 2x1 effect is reported with a nonzero residual, and the check goes
        on to report the next POVM's completeness violation."""
        obj = model_to_obj(chsh_ideal_model())
        obj["M"][0][1] = [row[:1] for row in obj["M"][0][1]]
        obj["M"][1][0] = model_to_obj(replace(
            chsh_ideal_model(), M=[[5 * np.eye(2)] * 2] * 2))["M"][1][0]
        path = tmp_path / "bad.json"
        save_json(path, obj)
        res = invoke(["validate", str(path)])
        assert res.exit_code == 1
        assert json.loads(res.stdout)["violations"] == [
            {"location": "M[0][1]", "name": "operator shape", "residual": 1},
            {"location": "M[1]", "name": "POVM completeness", "residual": 5},
        ]

    def test_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        res = invoke(["validate", str(path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_exits_2(self, tmp_path, tol):
        obj = model_to_obj(chsh_ideal_model())
        obj["psi"] = [[0.0, 0.0]] * 4  # invalid: any usable tolerance reports it
        path = tmp_path / "zero_state.json"
        save_json(path, obj)
        res = invoke(["validate", str(path), "--tol", tol, "--format", "text"])
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_tolerance_default_shown_is_the_default(self):
        """``--tol`` defaults to ``Tolerance()``; its help names that eps."""
        res = invoke(["validate", "--help"])
        assert res.exit_code == 0
        assert f"(default: {bellkit.Tolerance().eps})" in " ".join(res.stdout.split())

    @pytest.mark.parametrize("command", ["validate", "irrep"])
    def test_negative_seed_exits_2(self, command):
        """A negative --seed is refused by every command, with a message that
        names the option, like a bad --tol."""
        res = invoke([command, str(FIXTURES / "chsh_ideal.model.json"), "--seed", "-1"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: --seed must be a nonnegative integer, got -1\n"

    @pytest.mark.parametrize("kind,field,value", [
        ("model", "M", 5), ("model", "M", None), ("model", "M", [5]),
        ("model", "N", 5), ("model", "N", None), ("model", "N", [5]),
        ("model", "dimA", None), ("model", "dimB", [2]),
        ("witness", "dimAuxA", None), ("witness", "dimAuxB", "two"),
        ("decomposition", "components", 5), ("decomposition", "components", None),
        ("correlation", "p", {}),
        ("model", "dimA", 2.9), ("model", "dimA", True), ("model", "dimB", False),
        ("witness", "dimAuxA", 1.5), ("witness", "dimAuxB", True),
        ("model", "scenario", {"nX": 2.7, "nY": 2, "nA": 2, "nB": 2}),
        ("correlation", "scenario", {"nX": 2, "nY": 2, "nA": True, "nB": 2}),
        ("model", "scenario", 5), ("model", "scenario", {"nX": 2, "nY": 2, "nA": 2}),
        ("correlation", "scenario", [2, 2, 2, 2]),
        ("correlation", "p", [[[[NAN] * 2] * 2] * 2] * 2),
        ("decomposition", "components", [{"weight": NAN, "correlation": CHSH_CORR}]),
        ("decomposition", "components", [{"weight": True, "correlation": CHSH_CORR}]),
        ("decomposition", "components", [{"weight": 1.0, "correlation": {**CHSH_CORR, "p": [1]}}]),
        # not a convex combination: no components, a zero weight, a sum below 1
        ("decomposition", "components", []),
        ("decomposition", "components", [{"weight": w, "correlation": CHSH_CORR} for w in (0.0, 1.0)]),
        ("decomposition", "components", [{"weight": w, "correlation": CHSH_CORR} for w in (0.5, 0.4)]),
    ])
    def test_malformed_field_exits_2(self, tmp_path, kind, field, value):
        """A wrongly typed field is a parse error: exit 2, a message, no traceback."""
        chsh = str(FIXTURES / "chsh_ideal.model.json")
        objs = {
            "model": model_to_obj(chsh_ideal_model()),
            "witness": witness_to_obj(trivial_witness(chsh_ideal_model())),
            "decomposition": {"components": []},
            "correlation": correlation_to_obj(correlation_of(chsh_ideal_model())),
        }
        obj = objs[kind]
        obj[field] = value
        path = tmp_path / f"bad_{kind}.json"
        path.write_text(json.dumps(obj))
        args = {
            "model": ["validate", str(path)],
            "witness": ["verify-dilation", chsh, chsh, str(path)],
            "decomposition": ["xor-certify", str(FIXTURES / "chsh.corr.json"),
                              "--decomposition", str(path)],
            "correlation": ["xor", str(path)],
        }[kind]
        res = invoke(args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: {path}")
        assert res.stderr.count(str(path)) == 1
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("kind,leaf,value,location", [
        ("model", ("M", 0, 0, 1, 0), [True, False], "M[0][0][1][0]"),
        ("model", ("M", 1, 0, 0, 1, 0), "0.5", "M[1][0][0][1]"),
        ("model", ("N", 0, 1, 1, 1), None, "N[0][1][1][1]"),
        ("model", ("N", 1, 1, 0, 0, 1), 10 ** 400, "N[1][1][0][0]"),
        ("model", ("psi", 2), [0.5], "psi[2]"),
        ("model", ("psi", 3), None, "psi[3]"),
        ("model", ("psi", 0, 0), NAN, "psi[0]"),
        ("model", ("psi", 1, 1), float("inf"), "psi[1]"),
        ("model", ("M", 0, 0, 0, 0, 0), NAN, "M[0][0][0][0]"),
        ("model", ("N", 1, 0, 1, 0, 1), -float("inf"), "N[1][0][1][0]"),
        ("witness", ("IA", 0, 0, 1), False, "IA[0][0]"),
        ("witness", ("aux", 0, 0), NAN, "aux[0]"),
        ("correlation", ("p", 0, 0, 0, 0), "0.25", "p[0][0][0][0]"),
        ("correlation", ("p", 1, 0, 1, 0), True, "p[1][0][1][0]"),
        ("correlation", ("p", 0, 1, 0, 1), None, "p[0][1][0][1]"),
    ])
    def test_bad_numeric_leaf_exits_2(self, tmp_path, kind, leaf, value, location):
        """A leaf that is not a finite JSON number (bool, string, null, NaN,
        inf, an int beyond float range) is a parse error naming its place."""
        chsh = str(FIXTURES / "chsh_ideal.model.json")
        obj = {
            "model": model_to_obj(chsh_ideal_model()),
            "witness": witness_to_obj(trivial_witness(chsh_ideal_model())),
            "correlation": correlation_to_obj(correlation_of(chsh_ideal_model())),
        }[kind]
        parent = obj
        for key in leaf[:-1]:
            parent = parent[key]
        parent[leaf[-1]] = value
        path = tmp_path / f"bad_{kind}.json"
        path.write_text(json.dumps(obj))
        args = {
            "model": ["validate", str(path)],
            "witness": ["verify-dilation", chsh, chsh, str(path)],
            "correlation": ["xor", str(path)],
        }[kind]
        res = invoke(args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: {path}.{location}: ")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("place,value,exit_code,expected", [
        (("psi",), [], 1, '"name":"state dimension"'),
        (("M", 0, 0), [[]], 1, '"name":"operator shape"'),
        (("M", 0, 0), [], 2, ""),
        (("M", 0, 0), [[[1, 0], [0, 0]], [[0, 0]]], 2, ".M[0][0]: rows of unequal length"),
    ])
    def test_empty_and_ragged_lists(self, tmp_path, place, value, exit_code, expected):
        """An empty state or a 1x0 operator parses and fails validation; an
        empty or a ragged matrix is a parse error."""
        obj = model_to_obj(chsh_ideal_model())
        parent = obj
        for key in place[:-1]:
            parent = parent[key]
        parent[place[-1]] = value
        path = tmp_path / "lists.json"
        path.write_text(json.dumps(obj))
        res = invoke(["validate", str(path)])
        assert res.exit_code == exit_code
        if exit_code == 1:
            assert expected in res.stdout
            assert res.stderr == ""
        else:
            assert res.stdout == ""
            assert res.stderr.startswith(f"error: {path}{expected}" if expected else "error: ")
            assert res.stderr.count("\n") == 1

    def test_boolean_entries_rejected_where_they_equal_the_numbers(self, tmp_path):
        """CHSH's M[0][0] = diag(1, 0) written with true/false entries would
        load as the same matrix and validate; it is a parse error instead."""
        obj = json.loads((FIXTURES / "chsh_ideal.model.json").read_text())
        obj["M"][0][0] = [[[re != 0, im != 0] for re, im in row] for row in obj["M"][0][0]]
        path = tmp_path / "bool_entries.json"
        path.write_text(json.dumps(obj))
        res = invoke(["validate", str(path)])
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: {path}.M[0][0][0][0]: ")

    def test_string_probabilities_rejected(self, tmp_path):
        obj = {"scenario": {"nX": 2, "nY": 2, "nA": 2, "nB": 2},
               "p": [[[["0.25"] * 2] * 2] * 2] * 2}
        path = tmp_path / "string_p.json"
        path.write_text(json.dumps(obj))
        res = invoke(["xor", str(path)])
        assert res.exit_code == 2
        assert res.stderr.startswith(f"error: {path}.p[0][0][0][0]: ")

    @pytest.mark.parametrize("field", ["p", "weight"])
    def test_huge_sum_gives_a_short_error_line(self, tmp_path, monkeypatch, field):
        """A sum of 1e308 is written in 9 significant digits, not in full."""
        corr = copy.deepcopy(CHSH_CORR)
        weight = 1.0
        if field == "p":
            corr["p"][0][0][0][0] = 1e308
        else:
            weight = 1e308
        monkeypatch.chdir(tmp_path)
        save_json("corr.json", corr)
        save_json("dec.json", {"components": [{"weight": weight, "correlation": corr}]})
        res = invoke(["xor-certify", "corr.json", "--decomposition", "dec.json"])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "e+308, not 1\n" in res.stderr
        assert len(res.stderr.encode()) < 200

    def test_decomposition_from_another_scenario_exits_2(self, tmp_path):
        """Two 1x1-scenario components do not refute the uniform 2x2 table; the
        error names the decomposition file, like every other input-file error."""
        uniform = {"scenario": {"nX": 2, "nY": 2, "nA": 2, "nB": 2},
                   "p": [[[[0.25] * 2] * 2] * 2] * 2}
        small = {"nX": 1, "nY": 1, "nA": 2, "nB": 2}
        same, diff = [[[[0.5]], [[0]]], [[[0]], [[0.5]]]], [[[[0]], [[0.5]]], [[[0.5]], [[0]]]]
        dec = {"components": [{"weight": 0.5, "correlation": {"scenario": small, "p": p}}
                              for p in (same, diff)]}
        (tmp_path / "uni.json").write_text(json.dumps(uniform))
        (tmp_path / "dec.json").write_text(json.dumps(dec))
        res = invoke(["xor-certify", str(tmp_path / "uni.json"), "--assert-extremal",
                      "--decomposition", str(tmp_path / "dec.json")])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == (f"error: {tmp_path / 'dec.json'}: decomposition component 0 has "
                              "scenario Scenario(nX=1, nY=1, nA=2, nB=2), but the correlation "
                              "has scenario Scenario(nX=2, nY=2, nA=2, nB=2)\n")

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 32.0 GiB")])
    def test_memory_error_exits_2(self, monkeypatch, exc):
        """An input too large to check is exit 2 with one line, not a traceback
        and exit 1 (which would read as a failed check)."""
        def oversized(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli.reps, "irrep_decompose", oversized)
        res = invoke(["irrep", str(FIXTURES / "chsh_ideal.model.json")])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == ("error: out of memory" + (f": {exc}" if str(exc) else "") + "\n")

    def test_integral_float_size_accepted(self, tmp_path):
        obj = model_to_obj(chsh_ideal_model())
        obj["dimA"] = 2.0
        obj["scenario"]["nX"] = 2.0
        path = tmp_path / "float_sizes.json"
        path.write_text(json.dumps(obj))
        m = load_model(path)
        assert (m.dimA, m.scenario.nX) == (2, 2)
        assert type(m.dimA) is int and type(m.scenario.nX) is int

    def test_verify_dilation_short_povm_exits_2(self, tmp_path):
        """verify-dilation validates its models; a POVM with fewer outcomes
        than the scenario is bad input, not an IndexError."""
        obj = model_to_obj(chsh_ideal_model())
        obj["M"][1] = obj["M"][1][:1]
        path = tmp_path / "short.json"
        save_json(path, obj)
        chsh = str(FIXTURES / "chsh_ideal.model.json")
        res = invoke(["verify-dilation", str(path), chsh,
                      str(FIXTURES / "chsh_ideal.witness.json")])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "model is not valid: POVM outcome count at M[1]" in res.stderr
        assert "Traceback" not in res.stderr

    def test_verify_dilation_invalid_model_exits_2(self, tmp_path):
        """A model whose state has norm 2 gets no verdict, even with a witness
        that would pass on it."""
        obj = model_to_obj(chsh_ideal_model())
        obj["psi"] = [[2 * re, 2 * im] for re, im in obj["psi"]]
        path = tmp_path / "norm2.json"
        save_json(path, obj)
        res = invoke(["verify-dilation", str(path), str(path),
                      str(FIXTURES / "chsh_ideal.witness.json")])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "model is not valid: state normalization at psi" in res.stderr
        assert "Traceback" not in res.stderr

    def test_missing_file_exits_2(self):
        res = invoke(["validate", "no_such_file.json"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("kind", ["model", "correlation", "witness", "decomposition"])
    def test_missing_input_reported_like_other_file_errors(self, tmp_path, kind):
        missing = str(tmp_path / "nope" / "x.json")
        chsh = str(FIXTURES / "chsh_ideal.model.json")
        corr = str(FIXTURES / "chsh.corr.json")
        args = {
            "model": ["validate", missing],
            "correlation": ["xor", missing],
            "witness": ["verify-dilation", chsh, chsh, missing],
            "decomposition": ["xor-certify", corr, "--decomposition", missing],
        }[kind]
        res = invoke(args)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {missing}: No such file or directory\n"
        assert res.stderr.count(missing) == 1

    def test_correlation_matches_ideal_values(self):
        res = invoke(["correlation", str(FIXTURES / "chsh_ideal.model.json")])
        assert res.exit_code == 0
        p = np.array(json.loads(res.stdout)["p"])
        for a in range(2):
            for b in range(2):
                for x in range(2):
                    for y in range(2):
                        expect = (1 + (-1) ** ((a + b + x * y) % 2) / np.sqrt(2)) / 4
                        assert abs(p[a, b, x, y] - expect) < 1e-12

    def test_schmidt_ranks(self):
        res = invoke(["schmidt", str(FIXTURES / "exA_S.model.json")])
        assert json.loads(res.stdout)["rank"] == 3
        res = invoke(["schmidt", str(FIXTURES / "exA_Shat.model.json")])
        assert json.loads(res.stdout)["rank"] == 2

    def test_state_equal_fixture_pair(self):
        res = invoke(["state-equal", str(FIXTURES / "exA_S.model.json"),
                      str(FIXTURES / "exA_Shat.model.json")])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["verdicts"]["equal"] is True

    def test_find_dilation_obstruction(self):
        res = invoke(["find-dilation", str(FIXTURES / "exA_S.model.json"),
                      str(FIXTURES / "exA_Shat.model.json")])
        assert res.exit_code == 1
        report = json.loads(res.stdout)
        assert report["verdicts"]["found"] is False
        assert report["obstruction"]["kind"] == "schmidt-rank"

    def test_conjugate_pair_is_not_found(self, tmp_path):
        """T and its complex conjugate S have equal correlations and
        inequivalent irreps on A: a component-state obstruction with a
        finite residual, reported as a failed check, not as bad input."""
        paths = [tmp_path / "s.json", tmp_path / "t.json"]
        for path, model in zip(paths, conjugate_pair()):
            save_json(path, model_to_obj(model))
        res = invoke(["find-dilation", *map(str, paths)])
        assert (res.exit_code, res.stderr) == (1, "")
        report = json.loads(res.stdout)
        assert report["verdicts"]["found"] is False
        assert report["obstruction"]["kind"] == "component-state"
        assert math.isfinite(report["obstruction"]["residual"])
        res = invoke(["state-equal", *map(str, paths)])
        assert (res.exit_code, res.stderr) == (1, "")
        assert len(json.loads(res.stdout)["distinguishing"]["wordA"]) == 3

    def test_xor_certify_grants_chsh(self):
        res = invoke(["xor-certify", str(FIXTURES / "chsh.corr.json"),
                      "--assert-extremal"])
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert report["verdicts"]["granted"] is True
        assert report["rank"] == 2

    def test_xor_certify_denied_without_assertion(self):
        res = invoke(["xor-certify", str(FIXTURES / "chsh.corr.json")])
        assert res.exit_code == 1
        assert "extremality not asserted" in json.loads(res.stdout)["reasons"][0]

    def test_find_and_verify_dilation_via_files(self, tmp_path):
        m = chsh_ideal_model()
        big = tensor_with_auxiliary(m, np.array([0.8, 0, 0, 0.6]), 2, 2)
        big_path = tmp_path / "big.json"
        ideal_path = tmp_path / "ideal.json"
        witness_path = tmp_path / "w.json"
        save_json(big_path, model_to_obj(big))
        save_json(ideal_path, model_to_obj(m))
        res = invoke(["find-dilation", str(big_path), str(ideal_path),
                      "--witness-out", str(witness_path), "--tol", "1e-8"])
        assert res.exit_code == 0, res.stdout
        assert witness_path.exists()
        res = invoke(["verify-dilation", str(big_path), str(ideal_path),
                      str(witness_path), "--tol", "1e-8"])
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert report["residuals"]["max"] < 1e-8

    def test_find_dilation_across_scenarios_exits_2(self):
        """exA_S has scenario (1,1,2,2) and the CHSH model (2,2,2,2): bad
        input, as for state-equal and verify-dilation, not a "not found"."""
        res = invoke(["find-dilation", str(FIXTURES / "exA_S.model.json"),
                      str(FIXTURES / "chsh_ideal.model.json")])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: models live in different scenarios\n"

    @pytest.mark.parametrize("target", ["no_such_dir/w.json", "."])
    def test_unwritable_witness_out_exits_2(self, tmp_path, target):
        m = chsh_ideal_model()
        big = tensor_with_auxiliary(m, np.array([0.8, 0, 0, 0.6]), 2, 2)
        big_path, ideal_path = tmp_path / "big.json", tmp_path / "ideal.json"
        save_json(big_path, model_to_obj(big))
        save_json(ideal_path, model_to_obj(m))
        res = invoke(["find-dilation", str(big_path), str(ideal_path),
                      "--witness-out", str(tmp_path / target), "--tol", "1e-8"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert "Traceback" not in res.stderr
        assert res.stderr.count(str(tmp_path / target)) == 1

    def test_unreadable_model_names_its_path_once(self, tmp_path):
        res = invoke(["validate", str(tmp_path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {tmp_path}: Is a directory\n"

    def test_sync_verify(self, tmp_path):
        s3, _ = example_pair()
        path = tmp_path / "s3.json"
        save_json(path, model_to_obj(s3))
        res = invoke(["sync-verify", str(path)])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["verdicts"]["passed"] is True

    def test_naimark_command(self):
        res = invoke(["naimark", str(FIXTURES / "chsh_ideal.model.json")])
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert max(report["residuals"].values()) < 1e-10

    def test_irrep_command(self):
        res = invoke(["irrep", str(FIXTURES / "chsh_ideal.model.json")])
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert report["side_A"]["irreducible"] is True
        res2 = invoke(["irrep", str(FIXTURES / "exA_S.model.json")])
        blocks = json.loads(res2.stdout)["side_A"]["blocks"]
        assert sorted((b["irrep_dim"], b["multiplicity"]) for b in blocks) == [(1, 1), (1, 2)]

    def test_cyclic_command(self, tmp_path):
        from bellkit.presets import commuting_from_tensor
        _, s2 = example_pair()
        path = tmp_path / "c.json"
        save_json(path, model_to_obj(commuting_from_tensor(s2)))
        res = invoke(["cyclic", str(path)])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["cyclic_dim"] == 2

    def test_round_binary_requires_assertion(self):
        res = invoke(["round-binary", str(FIXTURES / "chsh_ideal.model.json")])
        assert res.exit_code == 2
        assert res.stderr == ("error: binary rounding is only sound for extreme correlations; "
                              "pass --assert-extremal to assert this\n")
        res = invoke(["round-binary", str(FIXTURES / "chsh_ideal.model.json"),
                      "--assert-extremal"])
        assert res.exit_code == 0

    def test_round_binary_reports_a_lemma_violation(self, tmp_path):
        """The eigenvalue-1/2 effect seen by the state: exit 1, and the report
        names the eigenpair."""
        half = np.eye(2) / 2
        m = QuantumModel(scenario=Scenario(1, 1, 2, 2), dimA=2, dimB=2, M=[[half, half]],
                         N=[[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]],
                         psi=np.array([1, 0, 0, 1]) / np.sqrt(2))
        path = tmp_path / "half.json"
        save_json(path, model_to_obj(m))
        res = invoke(["round-binary", str(path), "--assert-extremal"])
        assert (res.exit_code, res.stderr) == (1, "")
        report = json.loads(res.stdout)
        assert report["verdicts"]["lemma_violated"] is True
        assert report["violation"]["eigenvalue"] == pytest.approx(0.5, abs=1e-12)

    def test_round_binary_needs_two_outputs(self, tmp_path):
        m = random_quantum_model(np.random.default_rng(0), Scenario(2, 2, 3, 3), 2, 2)
        path = tmp_path / "ternary.json"
        save_json(path, model_to_obj(m))
        res = invoke(["round-binary", str(path), "--assert-extremal"])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr.startswith("error: binary rounding needs two outputs per side")

    @pytest.mark.parametrize("cmd", [
        ["schmidt", "@m"], ["support", "@m"], ["round-binary", "@m", "--assert-extremal"],
        ["sync-verify", "@m"], ["find-dilation", "@m", "@m"],
        ["verify-dilation", "@m", "@m", "@w"],
    ], ids=lambda c: c[0])
    def test_tensor_only_command_refuses_a_commuting_model(self, tmp_path, cmd):
        paths = {"@m": tmp_path / "m.json", "@w": tmp_path / "w.json"}
        save_json(paths["@m"], model_to_obj(commuting_from_tensor(chsh_ideal_model())))
        save_json(paths["@w"], witness_to_obj(trivial_witness(chsh_ideal_model())))
        res = invoke([str(paths.get(a, a)) for a in cmd])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == f"error: {cmd[0]} needs a tensor-product model\n"

    def test_tilted_sos_command(self):
        res = invoke(["tilted-sos", str(FIXTURES / "chsh_ideal.model.json"),
                      "--alpha", "0"])
        assert res.exit_code == 0
        report = json.loads(res.stdout)
        assert report["verdicts"]["identities_ok"] is True
        assert report["verdicts"]["optimal"] is True
        assert abs(report["f_eta"] - 2 * np.sqrt(2)) < 1e-9

    def test_text_format(self):
        res = invoke(["validate", str(FIXTURES / "chsh_ideal.model.json"),
                      "--format", "text"])
        assert res.exit_code == 0
        assert "verdicts.valid = True" in res.stdout

    def test_reports_deterministic(self):
        args = ["correlation", str(FIXTURES / "chsh_ideal.model.json")]
        assert invoke(args).stdout == invoke(args).stdout

    def test_report_reserialization_lossless(self):
        res = invoke(["support", str(FIXTURES / "exA_S.model.json")])
        report = json.loads(res.stdout)
        assert canonical_dumps(report) == res.stdout.strip()


def test_cli_import_does_not_load_scipy():
    src = str(Path(bellkit.__file__).resolve().parent.parent)
    code = "import sys, bellkit.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
