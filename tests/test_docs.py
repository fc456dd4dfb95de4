"""The README and the package's docstrings name only what the package has."""

import ast
import importlib
import pathlib
import pkgutil
import re

import dtcsp

README = pathlib.Path(__file__).parent.parent / "README.md"
SOURCES = sorted(pathlib.Path(dtcsp.__file__).parent.glob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules(dtcsp.__path__))
_NAME = r"((?:dtcsp|%s)\.[A-Za-z_]\w*)" % "|".join(MODULES)


def _references():
    """Every `module.name` and `dtcsp.name` in backticks, module being one
    of the package's modules."""
    pattern = re.compile(f"`{_NAME}`")
    return sorted(set(pattern.findall(README.read_text(encoding="utf-8"))))


def _docstring_references():
    """Every ``module.name`` and ``dtcsp.name`` in double backticks in a
    docstring of the package's modules, classes and functions."""
    pattern = re.compile(f"``{_NAME}``")
    refs = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                refs.update(pattern.findall(ast.get_docstring(node) or ""))
    return sorted(refs)


def _missing(refs):
    missing = []
    for ref in refs:
        module, name = ref.split(".")
        owner = dtcsp if module == "dtcsp" else importlib.import_module(
            f"dtcsp.{module}")
        if not hasattr(owner, name):
            missing.append(ref)
    return missing


def test_readme_names_resolve():
    refs = _references()
    assert refs
    assert _missing(refs) == []


def test_docstring_names_resolve():
    refs = _docstring_references()
    assert refs
    assert _missing(refs) == []
