"""Every name a qqwalk module exports in __all__ resolves."""

import importlib
import pkgutil

import pytest

import qqwalk

MODULES = ["qqwalk"] + [f"qqwalk.{info.name}"
                        for info in pkgutil.iter_modules(qqwalk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"

