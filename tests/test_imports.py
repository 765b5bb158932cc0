"""No module of the package imports a name that it never uses, no module
of the package or its tests imports numpy, and the package defines nothing
that only the tests use.

There is no linter among the test dependencies, so this reads each module
with ``ast``: every name bound by an import must appear as a name in the
module's code or in one of its quoted annotations.  ``__init__`` imports
names only to export them, so it is checked the other way round: its
``__all__`` lists exactly the names its relative imports bind.
"""

import ast
import re
from pathlib import Path

import pytest

import triarr

MODULES = sorted(p for p in Path(triarr.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


def _annotations(tree):
    """Argument, return and variable annotations: the places a quoted name
    can stand for an import."""
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if ann is not None:
                yield ann


def unused_imports(source: str) -> list[str]:
    """Names that an import in the source binds and nothing else reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    trees = [tree]
    for ann in _annotations(tree):
        trees += [ast.parse(n.value, mode="eval") for n in ast.walk(ann)
                  if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    used = {n.id for t in trees for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_detector_reports_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import product, chain as link\n"
        "from typing import NamedTuple\n"
        "def f(x: 'NamedTuple') -> int:\n"
        "    return link(x)\n"
    )
    assert unused_imports(source) == ["os", "product"]


def imported_packages(source: str) -> set[str]:
    """Top-level packages that the source's absolute imports load."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_numpy():
    # the package and its tests run on plain ints; only perfbench/run.py
    # imports numpy, to print its version
    paths = [*Path(triarr.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    assert [p.name for p in paths if "numpy" in imported_packages(p.read_text())] == []
    source = "import os, numpy.linalg as la\nfrom numpy import array\nfrom . import numpy\n"
    assert imported_packages(source) == {"os", "numpy"}
    assert imported_packages("from . import numpy\nimport numbers\n") == {"numbers"}


def test_all_is_exactly_what_init_imports():
    tree = ast.parse(Path(triarr.__file__).read_text())
    imported = [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    ]
    (exported,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]
    ]
    assert len(exported) == len(set(exported)) and len(imported) == len(set(imported))
    assert set(exported) == set(imported)
    assert all(hasattr(triarr, name) for name in exported)


def definitions(source: str) -> list[str]:
    """Top-level functions and classes, and their classes' methods that are
    not dunders."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body if isinstance(m, ast.FunctionDef)
                      and not (m.name.startswith("__") and m.name.endswith("__"))]
    return names


def named(source: str, strings: bool = False) -> set[str]:
    """Names the code reads or imports; with strings, also the parts of each
    string constant that is a dotted name, as the benchmark's tracer
    addresses functions ("derivmod.defining_poly")."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[\w.]+", node.value):
                names.update(node.value.split("."))
    return names


def test_every_definition_is_named_outside_the_tests():
    # src/ keeps only what a command or another module calls: each
    # definition is named in the package's code (its exports in __init__ do
    # not count), in perfbench/ or in demos/; the tests alone do not count
    used = set().union(*(named(p.read_text()) for p in MODULES))
    for path in [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        used |= named(path.read_text(), strings=True)
    unused = [f"{p.name}:{name}" for p in MODULES for name in definitions(p.read_text())
              if name not in used]
    assert unused == []


def test_definition_detector():
    source = (
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): return helper()\n"
        "    def spare(self): pass\n"
        "def helper(): pass\n"
    )
    assert definitions(source) == ["A", "used", "spare", "helper"]
    assert {"helper"} <= named(source) and not {"spare", "used"} & named(source)
    traced = 's("derivmod.defining_poly")\nprint("a b")\n'
    assert {"derivmod", "defining_poly"} <= named(traced, strings=True)
    assert "defining_poly" not in named(traced) and "b" not in named(traced, strings=True)
