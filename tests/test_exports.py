"""The public names of the package and of each module resolve."""

import importlib
import pkgutil
import types
from dataclasses import fields

import pytest

import fdnoma
from fdnoma.scenario import SweepRow

# every module of the package declares __all__, except the CLI entry point
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(fdnoma.__path__) if info.name != "cli"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fdnoma.{name}")
    missing = [item for item in module.__all__ if not hasattr(module, item)]
    assert not missing, missing


# the public API: adding or dropping a name is a deliberate edit here
PACKAGE_EXPORTS = {
    "ConfigError", "FadingSet", "McEstimate", "McSettings", "Node", "NodeGeometry",
    "OutageCurve", "OutageResult", "RicianShadowedParams", "Scheme", "SweepSpec",
    "SystemConfig", "emit_csv", "emit_plot_data", "evaluate_outage", "load_config",
    "mc_outage", "mc_outage_curves", "run_sweep",
}


def package_exports():
    return {
        item
        for item, value in vars(fdnoma).items()
        if not item.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_package_exports_are_module_exports():
    # the package re-exports part of the modules' public names, nothing else
    public = set()
    for name in MODULES:
        public.update(importlib.import_module(f"fdnoma.{name}").__all__)
    exported = package_exports()
    assert exported <= public, sorted(exported - public)


def test_package_exports_are_pinned():
    exported = package_exports()
    assert exported == PACKAGE_EXPORTS, (
        f"added: {sorted(exported - PACKAGE_EXPORTS)}, "
        f"dropped: {sorted(PACKAGE_EXPORTS - exported)}"
    )


def test_sweep_row_fields_are_pinned():
    # a row holds the evaluators' records and nothing else
    assert tuple(field.name for field in fields(SweepRow)) == (
        "scheme", "node", "pt_db", "closed", "mc",
    )
