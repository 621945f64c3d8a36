"""Every name the package and its submodules export in ``__all__`` resolves,
the package's names on first access."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import udwtomo

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(udwtomo.__path__))


def test_package_all_resolves():
    missing = [name for name in udwtomo.__all__ if not hasattr(udwtomo, name)]
    assert missing == []


def test_package_names_resolve_lazily(src_env, tmp_path):
    # a fresh interpreter, since this process has bound every name already:
    # after the import none is bound, and each access binds it and lists it in dir()
    body = """
import udwtomo
names = [n for n in udwtomo.__all__ if n != "__version__"]
assert not [n for n in names if n in vars(udwtomo)], vars(udwtomo).keys()
for name in names:
    getattr(udwtomo, name)
    assert name in vars(udwtomo) and name in dir(udwtomo), name
"""
    proc = subprocess.run([sys.executable, "-c", body], capture_output=True, text=True,
                          env=src_env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_every_name():
    namespace = {}
    exec("from udwtomo import *", namespace)
    assert [name for name in udwtomo.__all__ if name not in namespace] == []
    assert all(namespace[name] is getattr(udwtomo, name) for name in udwtomo.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        udwtomo.no_such_name  # noqa: B018


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"udwtomo.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
