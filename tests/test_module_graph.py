"""The package's exports and its module graph.

Every name a module lists in ``__all__`` must resolve, so a deletion cannot
leave a stale export.  The import graph keeps the file types and the CLI apart
from code they do not run: ``io`` and ``special`` read and write dilation
witnesses without the dilation kernels, and no module of the package imports
the fixture builders in ``presets``.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
