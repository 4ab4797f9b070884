"""The package's exports and its module graph.

Every name a module lists in ``__all__`` must resolve, so a deletion cannot
leave a stale export.  The import graph keeps the file types and the CLI apart
from code they do not run: ``io`` and ``special`` read and write dilation
witnesses without the dilation kernels, and no module of the package imports
the fixture builders in ``presets``.  Importing the CLI runs no kernel and
imports neither numpy nor click, yet leaves every module the benchmark tracer
patches in ``sys.modules``.  No command child imports ``dataclasses``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_trace_targets import traced_names

import bellkit

PACKAGE = Path(bellkit.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", ["bellkit"] + [f"bellkit.{m}" for m in MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def imported_modules(module: str) -> set[str]:
    """The bellkit modules that ``module``'s source imports, by short name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("bellkit."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("bellkit."))
    return found


@pytest.mark.parametrize("module", ["io", "special"])
def test_file_types_do_not_import_the_dilation_kernels(module):
    assert "dilations" not in imported_modules(module)


def test_no_module_imports_presets():
    importers = [m for m in MODULES + ["__init__"] if "presets" in imported_modules(m)]
    assert importers == []


def test_cli_import_does_not_load_presets():
    code = "import sys, bellkit.cli; print('bellkit.presets' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


def python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})


@pytest.mark.parametrize("package", ["numpy", "click"])
def test_cli_import_does_not_load(package):
    out = python("-c", f"import sys, bellkit.cli; print({package!r} in sys.modules)")
    assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


@pytest.mark.parametrize("package", ["numpy", "click"])
def test_version_child_does_not_load(package):
    out = python("-W", "error", "-X", "importtime", "-m", "bellkit.cli", "--version")
    assert out.returncode == 0, out.stderr
    assert "version" in out.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "bellkit" in imported  # the package; the CLI itself runs as __main__
    assert [m for m in imported if m.split(".")[0] == package] == []


def test_find_dilation_child_does_not_load_dataclasses():
    """``find-dilation`` runs the modules that declare the most record types;
    ``linalg.record`` builds them, so the child never imports ``dataclasses``."""
    out = subprocess.run([sys.executable, "-W", "error", "-X", "importtime", "-m", "bellkit.cli",
                          "find-dilation", "fixtures/chsh_ideal.model.json",
                          "fixtures/chsh_ideal.model.json"],
                         capture_output=True, text=True, timeout=120, cwd=PACKAGE.parent.parent,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.returncode == 0, out.stderr
    assert '"found":true' in out.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:")]
    assert "numpy" in imported  # the kernels ran
    assert "dataclasses" not in imported


def test_cli_import_registers_every_traced_module():
    """The tracer lists bellkit's modules from ``sys.modules`` before it
    patches, so each one it wraps must be there, run or not."""
    modules = sorted({f"bellkit.{module}" for module, _ in traced_names()})
    code = f"import sys, bellkit.cli; print([m for m in {modules!r} if m not in sys.modules])"
    out = python("-c", code)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr
