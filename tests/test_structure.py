"""Static checks on the package source: no module reaches into another
module's private names, and no module imports a name it never uses."""

import ast
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_access_across_modules(path):
    assert private_accesses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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
