"""Every name a module exports in ``__all__`` resolves, and no module
imports another's private names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spinscape

MODULES = sorted(m.name for m in pkgutil.iter_modules(spinscape.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_all(name):
    module = importlib.import_module(f"spinscape.{name}")
    namespace = {}
    exec(f"from spinscape.{name} import *", namespace)  # raises on a stale name
    assert module.__all__
    assert all(n in namespace for n in module.__all__)


def test_no_private_cross_module_imports():
    # a module's private helpers are its own: ``from .x import _name`` fails
    found = []
    for path in sorted(Path(spinscape.__path__[0]).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, found
