"""The package keeps to the oldest Python that ``pyproject.toml`` admits,
and uses every name it imports."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "dtcsp").rglob("*.py"))


def _least_python():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    m = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M)
    assert m, "pyproject.toml states no requires-python lower bound"
    return int(m.group(1)), int(m.group(2))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_parses_as_least_python(path):
    # ast.parse with feature_version rejects syntax newer than that version
    # (except* groups, for one); regex syntax such as possessive
    # quantifiers is not checked here
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=_least_python())


def _unused_imports(path):
    """Names that the module imports and never reads, but for those whose
    import line carries ``# noqa: F401``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names
                         if "# noqa: F401" not in lines[alias.lineno - 1]}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


LIBRARY = [p for p in MODULES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_module_uses_every_name_it_imports(path):
    # no linter runs here: an import left behind by a deletion (a lock's
    # threading, say) would otherwise stay unnoticed
    assert _unused_imports(path) == []


def test_unused_import_check_sees_a_leftover(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import math\nimport threading\n"
                      "from os import path, sep  # noqa: F401\n\n"
                      "x = math.pi\n", encoding="utf-8")
    assert _unused_imports(module) == ["threading"]
