"""Static checks on the package source: no module reaches into another
module's private names, no module imports a name it never uses or
defines a private helper it never names, every exception class the
package defines is raised somewhere in it, only ``tours.walk`` steps
around a rotation, only ``crapo`` measures one-sided distances, an
import inside a function is one that would close a cycle at the top of
the module, and nothing in the package imports the test oracles."""

import ast
import builtins
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hypertutte"
MODULES = sorted(SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _imports(tree):
    """(bound name, whether it may be a module) for every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], True
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                # ``from . import m`` binds a module, ``from .m import f`` a name
                yield alias.asname or alias.name, not node.module


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def private_accesses(source: str) -> list:
    tree = ast.parse(source)
    found = [
        f"from-import of {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if _private(alias.name)
    ]
    modules = {bound for bound, is_module in _imports(tree) if is_module}
    found += [
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and _private(node.attr)
    ]
    return found


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted({bound for bound, _ in _imports(tree)} - used)


def unreferenced_private_definitions(source: str) -> list:
    """Private functions and classes that the source names nowhere
    outside their own definition, as a plain name or as an attribute."""
    tree = ast.parse(source)

    def names(node) -> Counter:
        return Counter(map(_name, ast.walk(node)))

    everywhere = names(tree)
    return sorted(
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and _private(node.name)
        and everywhere[node.name] == names(node)[node.name]
    )


def _name(node) -> str | None:
    """The name a Name or Attribute node ends in, e.g. ``X`` for ``mod.X``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unraised_exceptions(sources) -> list:
    """Exception classes defined in the sources that no ``raise`` names.

    A class is an exception class if one of its bases is a builtin
    exception or an exception class defined in the sources."""
    trees = [ast.parse(source) for source in sources]
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    exceptions = set()
    grew = True
    while grew:
        before = len(exceptions)
        for cls in classes:
            for base in map(_name, cls.bases):
                builtin = getattr(builtins, base or "", None)
                if base in exceptions or (
                    isinstance(builtin, type) and issubclass(builtin, BaseException)
                ):
                    exceptions.add(cls.name)
        grew = len(exceptions) > before
    raised = {
        _name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    return sorted(exceptions - raised)


def callers(sources: dict, name: str) -> list:
    """Where the sources, given as {module name: source}, call ``name``:
    ``module.function`` for the innermost enclosing function, ``module``
    at module level."""
    found = set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.Call) and _name(child.func) == name:
                found.add(where)
            visit(child, module, where)

    for module, source in sources.items():
        visit(ast.parse(source), module, module)
    return sorted(found)


def _package_imports(node, modules) -> set:
    """The package modules an import statement loads: ``from .m import f``
    and ``import hypertutte.m`` load m, ``from . import m`` loads m, and a
    name that is no module comes from the package's ``__init__``."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return {(parts + ["__init__"])[1] for parts in names if parts[0] == "hypertutte"}
    parts = node.module.split(".") if node.module else []
    if not node.level:
        if parts[:1] != ["hypertutte"]:
            return set()
        parts = parts[1:]
    if parts:
        return {parts[0]}
    return {alias.name if alias.name in modules else "__init__" for alias in node.names}


def _scoped_imports(tree):
    """(import statement, whether it runs inside a function) for every
    import in the tree."""

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, inside
            yield from visit(child, inside or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    return visit(tree, False)


def deferred_imports(sources: dict) -> tuple:
    """Imports inside functions between the modules of ``sources``
    ({module name: source}), as ``module -> imported``, split in two:
    those a top-level import would close into a cycle, because the
    imported module already reaches the importer through top-level
    imports, and those it would not."""
    top = {module: set() for module in sources}
    inside = []
    for module, source in sources.items():
        for node, deferred in _scoped_imports(ast.parse(source)):
            for target in _package_imports(node, sources):
                if deferred:
                    inside.append((module, target))
                else:
                    top[module].add(target)

    def reaches(start, goal) -> bool:
        seen, stack = set(), [start]
        while stack:
            module = stack.pop()
            if module == goal:
                return True
            if module not in seen:
                seen.add(module)
                stack.extend(top.get(module, ()))
        return False

    cyclic, needless = set(), set()
    for module, target in inside:
        (cyclic if reaches(target, module) else needless).add(f"{module} -> {target}")
    return sorted(cyclic), sorted(needless)


def imported_names(source: str) -> set:
    """The first component of every module an import names, and every
    name a relative ``from . import`` takes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.partition(".")[0])
            if node.level and not node.module:
                found |= {alias.name for alias in node.names}
    return found


def _test_code(name: str) -> bool:
    return name in ("oracles", "tests", "conftest") or name.startswith("test_")


def test_one_tour_step_rule():
    """The tour's step rule lives in ``tours.walk`` alone."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "next_at") == ["tours.walk"]


def test_one_sweep():
    """Only ``crapo`` calls the distance kernel ``one_sided``: every other
    module sweeps a box through ``crapo.sweep``, never point by point."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    outside = [where for where in callers(sources, "one_sided")
               if where.partition(".")[0] != "crapo"]
    assert outside == []


def test_function_level_imports_only_break_cycles():
    """An import inside a function is allowed only where the same import
    at the top of the module would make a cycle."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert deferred_imports(sources)[1] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_imports_no_test_code(path):
    """The oracles and the rest of the tests stay out of the package."""
    names = imported_names(path.read_text(encoding="utf-8"))
    assert sorted(filter(_test_code, names)) == []


def test_every_exception_class_is_raised():
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    assert unraised_exceptions(sources) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_access_across_modules(path):
    assert private_accesses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_helpers(path):
    """A private helper that nothing in its module names is dead code."""
    assert unreferenced_private_definitions(path.read_text(encoding="utf-8")) == []


def test_checks_catch_violations():
    source = (
        "from . import crapo\n"
        "from .jaeger import embedding_activities, NotAHypertree\n"
        "from .crapo import _one_sided\n"
        "__all__ = ['exported']\n"
        "from .model import exported\n"
        "budget = crapo._BOX_BUDGET + _one_sided((0,), (1,))[0]\n"
        "embedding_activities\n"
    )
    assert private_accesses(source) == ["from-import of _one_sided", "crapo._BOX_BUDGET"]
    assert unused_imports(source) == ["NotAHypertree"]
    helpers = (
        "def _used():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "def _orphan():\n    return _used()\n"
        "class _Box:\n    def _method(self):\n        return self._method()\n"
        "    def _called(self):\n        return 2\n"
        "class _Gone:\n    pass\n"
        "def public():\n    return _Box()._called()\n"
    )
    assert unreferenced_private_definitions(helpers) == [
        "_Gone", "_method", "_orphan", "_recursive"]
    planted = [
        "class Bad(ValueError):\n    pass\n"
        "class Worse(Bad):\n    pass\n"
        "class Unused(Worse):\n    pass\n"
        "class Plain:\n    pass\n",
        "from . import errors\n"
        "raise errors.Worse('x')\n"
        "raise Bad\n"
        "raise\n",
    ]
    assert unraised_exceptions(planted) == ["Unused"]
    assert unraised_exceptions(planted[:1]) == ["Bad", "Unused", "Worse"]
    stepping = {
        "tours": "def walk(g, t):\n    yield g.next_at('v0', 0)\n",
        "rogue": (
            "def lap(g):\n"
            "    def turn():\n"
            "        return g.next_at('v0', 0)\n"
            "    return turn\n"
            "edge = next_at(g, 0)\n"
        ),
    }
    assert callers(stepping, "next_at") == ["rogue", "rogue.turn", "tours.walk"]
    sweeping = {
        "crapo": "def d1_less(hs, c):\n    return min(one_sided(h, c)[0] for h in hs)\n",
        "tutte": (
            "from . import crapo\n"
            "def corank_nullity(hs, box):\n"
            "    return [crapo.one_sided(h, c) for c in box for h in hs]\n"
        ),
    }
    assert callers(sweeping, "one_sided") == ["crapo.d1_less", "tutte.corank_nullity"]
    deferring = {
        "__init__": "from .model import load\n",
        "model": "import yaml\n",
        "tours": "from .model import load\n",
        "jaeger": "from . import tours\nfrom .delta import f\n",
        "delta": (
            "def f():\n"
            "    from .jaeger import g\n"
            "    from . import tours, fixture_path\n"
            "    from hypertutte.model import load\n"
            "    return lambda: __import__('x')\n"
        ),
        "cli": "import hypertutte.tours\nclass C:\n    from .delta import f\n",
    }
    assert deferred_imports(deferring) == (
        ["delta -> jaeger"], ["delta -> __init__", "delta -> model", "delta -> tours"])
    assert sorted(filter(_test_code, imported_names(
        "import tests.oracles\n"
        "from oracles import is_jaeger\n"
        "from test_delta import FIG6\n"
        "from . import conftest, model\n"
        "from .crapo import sweep\n"
        "import itertools\n"
    ))) == ["conftest", "oracles", "test_delta", "tests"]
