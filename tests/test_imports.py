"""Every name a loqc module imports is used in that module, and the
package binds its modules under their own names."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import loqc
import loqc.cli
import loqc.evolve as evolve_module

MODULES = sorted(Path(loqc.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_a_module_is_bound_under_its_own_name():
    # a package-level name equal to a module's would shadow the module
    assert isinstance(evolve_module, types.ModuleType)
    assert loqc.evolve is sys.modules["loqc.evolve"]


def _loaded(statement: str, packages: tuple[str, ...]) -> list[str]:
    """The loaded modules whose names hold one of ``packages``, after
    ``statement`` runs in a fresh interpreter that imports loqc from this
    checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(loqc.__file__).parents[1])}
    script = (
        f"import sys; {statement}; "
        f"print(sorted(m for m in sys.modules if any(p in m for p in {packages!r})))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return ast.literal_eval(proc.stdout)


def test_importing_the_package_loads_no_numpy():
    assert _loaded("import loqc", ("numpy",)) == []


def test_the_cli_loads_neither_sympy_nor_mpmath():
    # the exact tests use both; a command must start without them
    assert _loaded("import loqc.cli", ("sympy", "mpmath")) == []
