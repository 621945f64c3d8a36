"""Every name the package and its submodules export in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import udwtomo

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(udwtomo.__path__))


def test_package_all_resolves():
    missing = [name for name in udwtomo.__all__ if not hasattr(udwtomo, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"udwtomo.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
