"""The public API: every exported name resolves, removed names stay gone."""

import importlib
import pkgutil

import pytest

import contpop

MODULES = ["contpop"] + [f"contpop.{m.name}"
                         for m in pkgutil.iter_modules(contpop.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ())
            if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module, name", [
    ("combinatorics", "product_functional"),
    ("combinatorics", "falling_factorial"),
    ("model", "PointConfiguration"),
    ("surgailis", "domination_bound"),
])
def test_removed_names_are_gone(module, name):
    assert not hasattr(contpop, name)
    assert name not in contpop.__all__
    assert not hasattr(importlib.import_module(f"contpop.{module}"), name)
