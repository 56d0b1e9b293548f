"""Every name that the package root or a cfpow module exports exists."""

import importlib
import pkgutil

import pytest

import cfpow

EXPORTING = ["cfpow"] + sorted(
    info.name
    for info in pkgutil.iter_modules(cfpow.__path__, "cfpow.")
    if hasattr(importlib.import_module(info.name), "__all__")
)


@pytest.mark.parametrize("module_name", EXPORTING)
def test_all_names_resolve(module_name):
    exported = importlib.import_module(module_name).__all__
    missing = [name for name in exported if not hasattr(importlib.import_module(module_name), name)]
    assert not missing, f"{module_name}.__all__ lists undefined names: {missing}"
    assert len(set(exported)) == len(exported)
