"""Every name the package and its submodules export in ``__all__`` resolves,
the package's names on first access, every function and class the
package defines is reached from the package or a demo, and every field the
package stores is read."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import udwtomo

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(udwtomo.__path__))
ROOT = Path(__file__).resolve().parents[1]
# kept for the tests alone: the dense state and its expectation values pin
# the correlator table, and the random kernels feed both
TEST_ORACLES = ("density_matrix", "pauli_ev_oracle", "random_kernel_matrix")


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


def _loaded_names(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def test_every_definition_is_reached():
    # a module-level function or class that nothing in the package or the
    # demos reads (its own body aside) is reached only by tests, if at all;
    # imports, __all__ and the package's export table do not count as reads,
    # and dunder hooks (the module __getattr__ and __dir__) are the
    # interpreter's to call
    package = sorted((ROOT / "src" / "udwtomo").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in [*package, *sorted((ROOT / "demos").glob("*.py"))]}
    loads = sum((_loaded_names(tree) for tree in trees.values()), Counter())
    unreached = [f"{path.stem}.{node.name}"
                 for path in package for node in trees[path].body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and node.name not in TEST_ORACLES and not node.name.startswith("__")
                 and loads[node.name] == _loaded_names(node)[node.name]]
    assert unreached == []


def _stored_attributes(tree: ast.AST) -> list[str]:
    """The fields of each dataclass and the ``self.<attr>`` that each
    ``__init__`` sets (the exceptions' payloads), as ``Class.attr``."""
    out = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            out += [f"{cls.name}.{n.target.id}" for n in cls.body
                    if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
        for init in (n for n in cls.body
                     if isinstance(n, ast.FunctionDef) and n.name == "__init__"):
            out += [f"{cls.name}.{t.attr}" for n in ast.walk(init)
                    if isinstance(n, (ast.Assign, ast.AnnAssign))
                    for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
                    if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                    and t.value.id == "self"]
    return out


def test_every_stored_attribute_is_read():
    # a value the package stores but nothing reads as an attribute -- not
    # the package, the demos, the tests nor the benchmark -- is computed
    # for no one
    package = sorted((ROOT / "src" / "udwtomo").glob("*.py"))
    readers = [*package, *(ROOT / "demos").glob("*.py"), *(ROOT / "tests").glob("*.py"),
               *(ROOT / "udwbench").rglob("*.py")]
    reads = set()
    for path in readers:
        reads |= {node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    stored = [name for path in package
              for name in _stored_attributes(ast.parse(path.read_text(encoding="utf-8")))]
    assert stored
    assert [name for name in stored if name.split(".")[1] not in reads] == []
