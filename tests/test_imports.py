"""Every name a package module imports is used in that module.

A refactor that deletes the last use of a name leaves its import behind; this
test finds such dead imports from the source alone.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "alphacoh"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
# imported and unused on purpose: the benchmark reads and patches `select` under the
# harness module too, so the name has to resolve there (ROADMAP Direction 1)
EXEMPT = {("harness", "select")}


def unused_imports(module: str) -> set[str]:
    """The names `module` binds by an import and never reads."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports(module) - {name for mod, name in EXEMPT if mod == module} == set()


@pytest.mark.parametrize("module, name", sorted(EXEMPT))
def test_an_exemption_is_still_needed(module, name):
    assert name in unused_imports(module)
