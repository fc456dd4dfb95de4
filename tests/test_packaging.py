"""The package keeps to the oldest Python that ``pyproject.toml`` admits."""

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
