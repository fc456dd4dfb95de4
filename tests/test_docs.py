"""The README names only what the package has."""

import importlib
import pathlib
import pkgutil
import re

import dtcsp

README = pathlib.Path(__file__).parent.parent / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(dtcsp.__path__))


def _references():
    """Every `module.name` and `dtcsp.name` in backticks, module being one
    of the package's modules."""
    pattern = re.compile(r"`((?:dtcsp|%s)\.[A-Za-z_]\w*)`" % "|".join(MODULES))
    return sorted(set(pattern.findall(README.read_text(encoding="utf-8"))))


def test_readme_names_resolve():
    refs = _references()
    assert refs
    missing = []
    for ref in refs:
        module, name = ref.split(".")
        owner = dtcsp if module == "dtcsp" else importlib.import_module(
            f"dtcsp.{module}")
        if not hasattr(owner, name):
            missing.append(ref)
    assert missing == []
