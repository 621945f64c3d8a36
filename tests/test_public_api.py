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


def _namedtuples(tree: ast.AST) -> dict[str, list[str]]:
    """The named tuples of a module, ``X = namedtuple("X", "a b")`` or a
    class derived from such a call, with their field names."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            name, calls = node.name, node.bases
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            name, calls = node.targets[0].id, [node.value]
        else:
            continue
        for call in calls:
            if (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "namedtuple"
                    and len(call.args) == 2 and isinstance(call.args[1], ast.Constant)):
                out[name] = call.args[1].value.split()
    return out


def _stored_attributes(tree: ast.AST) -> list[str]:
    """The fields of each dataclass and named tuple and the ``self.<attr>``
    that each ``__init__`` sets (the exceptions' payloads, the config
    record's fields), as ``Class.attr``."""
    out = [f"{name}.{f}" for name, names in _namedtuples(tree).items() for f in names]
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


def _annotated_class(node, classes):
    """The package class an annotation names (``X``, ``"X"``, ``mod.X``,
    ``X | None``), or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:  # a string that is no annotation
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        named = {_annotated_class(side, classes) for side in (node.left, node.right)} - {None}
        return named.pop() if len(named) == 1 else None
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in classes else None


class _OwnedReads(ast.NodeVisitor):
    """The ``Class.attr`` reads of a module whose receiver has a package
    class that the code states: ``self`` in a method, an annotated
    parameter, a name bound to a constructor call or to a call of an
    annotated function or method, a field with an annotated class, a name
    asserted by ``isinstance`` and ``pytest.raises(C) as e`` (``e.value``).
    A read of a receiver of no stated class counts for no owner."""

    def __init__(self, classes, fields, returns):
        self.classes, self.fields, self.returns = classes, fields, returns
        self.scopes, self.enclosing, self.reads = [{}], [], set()

    def typeof(self, node):
        if isinstance(node, ast.Name):
            return next((s[node.id] for s in reversed(self.scopes) if node.id in s), None)
        if isinstance(node, ast.Attribute):
            base = self.typeof(node.value)
            if isinstance(base, tuple):  # the ExceptionInfo of pytest.raises
                return base[0] if node.attr == "value" else None
            return self.fields.get(base, {}).get(node.attr)
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in self.classes:
            return name
        if isinstance(func, ast.Attribute):
            owner = self.typeof(func.value) or _annotated_class(func.value, self.classes)
            if isinstance(owner, str):  # a method or a classmethod
                return self.fields.get(owner, {}).get(f"{name}()")
        return self.returns.get(name)

    def bind(self, target, owner):
        # a name takes the class of its value; the names it unpacks take none
        for name in (n for n in ast.walk(target) if isinstance(n, ast.Name)):
            self.scopes[-1][name.id] = owner if name is target else None

    def visit_ClassDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_FunctionDef(self, node):
        args = [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
        scope = {a.arg: _annotated_class(a.annotation, self.classes) if a.annotation else None
                 for a in args}
        if self.enclosing and self.enclosing[-1] and args and not any(
                getattr(d, "id", None) == "staticmethod" for d in node.decorator_list):
            scope[args[0].arg] = self.enclosing[-1]  # self, or cls
        self.scopes.append(scope)
        self.enclosing.append(None)  # a function nested in it is no method
        for stmt in node.body:
            self.visit(stmt)
        self.enclosing.pop()
        self.scopes.pop()

    def visit_Assign(self, node):
        self.generic_visit(node)
        for target in node.targets:
            self.bind(target, self.typeof(node.value))

    def visit_For(self, node):
        self.visit(node.iter)
        self.bind(node.target, None)
        for stmt in [*node.body, *node.orelse]:
            self.visit(stmt)

    def visit_Assert(self, node):
        self.generic_visit(node)
        tests = node.test.values if isinstance(node.test, ast.BoolOp) else [node.test]
        for test in tests:
            if (isinstance(test, ast.Call) and getattr(test.func, "id", None) == "isinstance"
                    and len(test.args) == 2):
                self.bind(test.args[0], _annotated_class(test.args[1], self.classes))

    def visit_With(self, node):
        for item in node.items:
            self.visit(item.context_expr)
            call = item.context_expr
            if item.optional_vars is None:
                continue
            if (isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "raises"
                    and call.args):
                self.bind(item.optional_vars, (_annotated_class(call.args[0], self.classes),))
            else:
                self.bind(item.optional_vars, None)
        for stmt in node.body:
            self.visit(stmt)

    def visit_Attribute(self, node):
        owner = self.typeof(node.value)
        if isinstance(node.ctx, ast.Load) and isinstance(owner, str):
            self.reads.add(f"{owner}.{node.attr}")
        self.generic_visit(node)


def test_every_stored_attribute_is_read():
    # a value the package stores but nothing reads as an attribute of its
    # own class -- not the package, the demos, the tests nor the benchmark
    # -- is computed for no one; a read of the same name on another class,
    # or on a receiver of no stated class, does not count
    package = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "udwtomo").glob("*.py"))]
    classes = {n.name for tree in package for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    classes |= {name for tree in package for name in _namedtuples(tree)}
    fields, returns = {}, {}
    for tree in package:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.returns is not None:
                returns[node.name] = _annotated_class(node.returns, classes)
            if isinstance(node, ast.ClassDef):
                fields[node.name] = {
                    **{n.target.id: _annotated_class(n.annotation, classes) for n in node.body
                       if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)},
                    **{f"{n.name}()": _annotated_class(n.returns, classes) for n in node.body
                       if isinstance(n, ast.FunctionDef) and n.returns is not None}}
    readers = [*(ROOT / "src" / "udwtomo").glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "tests").glob("*.py"), *(ROOT / "udwbench").rglob("*.py")]
    reads = set()
    for path in readers:
        visitor = _OwnedReads(classes, fields, returns)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        reads |= visitor.reads
    stored = [name for tree in package for name in _stored_attributes(tree)]
    assert stored
    assert [name for name in stored if name not in reads] == []
