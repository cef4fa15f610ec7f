"""Every code name README.md mentions exists.

A backticked dotted name whose first part is one of the bgflight modules
(``module.name``) or one of their classes (``Class.name``) must resolve to
an attribute, so a deleted or renamed helper cannot stay documented.  File
names and names from other packages (``scipy.special``) are skipped.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import bgflight

README = Path(bgflight.__file__).resolve().parents[2] / "README.md"
MODULES = ("acceptance", "cli", "errors", "gmatrix", "kinetic", "lattice",
           "partitions", "paths", "scattering")
FILE_SUFFIXES = (".json", ".jsonl", ".csv", ".py")


def _roots():
    """Each module and each class defined in the modules, by name."""
    roots = {}
    for name in MODULES:
        module = importlib.import_module(f"bgflight.{name}")
        roots[name] = module
        roots.update((attr, value) for attr, value in vars(module).items()
                     if inspect.isclass(value)
                     and value.__module__.startswith("bgflight."))
    return roots


def _documented_names():
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
    return sorted({n for n in names if not n.endswith(FILE_SUFFIXES)})


ROOTS = _roots()
NAMES = [n for n in _documented_names() if n.split(".")[0] in ROOTS]


def test_readme_names_some_code():
    assert len(NAMES) >= 10


@pytest.mark.parametrize("name", NAMES)
def test_readme_name_resolves(name):
    head, *rest = name.split(".")
    obj = ROOTS[head]
    for part in rest:
        assert hasattr(obj, part), f"README.md names {name}; {part} is gone"
        obj = getattr(obj, part)
