"""No module of the package imports a name that it never uses, and no
module of the package or its tests imports numpy.

There is no linter among the test dependencies, so this reads each module
with ``ast``: every name bound by an import must appear as a name in the
module's code or in one of its quoted annotations.  ``__init__`` imports
names only to export them, so it is checked the other way round: its
``__all__`` lists exactly the names its relative imports bind.
"""

import ast
from pathlib import Path

import pytest

import triarr

MODULES = sorted(p for p in Path(triarr.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
