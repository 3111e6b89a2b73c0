"""The public names of the package and of each module resolve."""

import importlib
import types

import pytest

import fdnoma

MODULES = ["specfun", "channel", "outage", "montecarlo", "scenario"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fdnoma.{name}")
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert not missing, missing


def test_package_exports_are_module_exports():
    # the package re-exports part of the modules' public names, nothing else
    public = set()
    for name in MODULES:
        public.update(importlib.import_module(f"fdnoma.{name}").__all__)
    exported = {
        item
        for item, value in vars(fdnoma).items()
        if not item.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported <= public, sorted(exported - public)
