"""Every name a module exports in ``__all__`` resolves."""

import importlib
import pkgutil

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
