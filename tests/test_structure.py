"""Static checks on the package source: every function, class and method
is reached by name from a command or the benchmark, no module reaches
into another module's private names, no module imports a name it never
uses or defines a private helper it never names, every exception class
the package defines is raised somewhere in it, only ``tours.walk``
steps the dart permutation around the nodes, only ``tours.tour`` and
``hypertrees.tour_search`` walk, only ``jaeger.embedding_activities``
checks that a vector is a hypertree (every other caller reads the
searches' tables), only ``hypertrees`` reads a table's order columns
(``hypertrees.orders``, per activity kind), ``tutte.tutte_sum`` is the
one activity sum, only ``tours._trees`` recurses by
contraction and deletion, no module defines a ``sweep``
(``tutte.corank_nullity`` is the one walk of lattice points) and no
function of ``crapo`` or ``tutte`` calls itself, ``tutte._expand`` is
the one series expansion, which both sums of the series identity call,
only the routines that
visit points check the box budget, ``crapo._region`` is the one
membership rule, read by the one Crapo
decider, the package runs in one process (no module imports ``os``,
``concurrent.futures`` or ``multiprocessing``),
``polymatroid.BasisActivity`` is the one activity record, which only
``polymatroid.assignment_from_orders`` builds and whose bit
masks over P's coordinates only the CLI commands and
``delta.obstruction_check`` turn back into names
(``polymatroid.names``), so names appear only at print,
``polymatroid.active`` is the one activity rule, to which every fetched
row of a basis's exchange table goes, a table only
``PolymatroidBases.exchanges`` builds from shifted bases, a hypergraphic
polymatroid is built only through the registry behind
``polymatroid.bases_from_hypertrees``, one per base set, no package
import runs inside a function, only ``cli`` imports ``delta`` and
``polymatroid`` imports none of the modules above it, a module loads
only a pinned set of standard modules (so PyYAML and ``pathlib`` wait
for the function that needs them), and nothing in the package imports
the test oracles.  The CLI raises every usage or input error as an
exception, which ``cli.main`` alone reports as ``error: ...``."""

import ast
import builtins
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hypertutte"
MODULES = sorted(SRC.glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
ENTRY_POINTS = ("cli", "__init__")  # the commands and the package's public names
POOLING = {"os", "concurrent", "multiprocessing"}  # modules that start other processes
STARTUP = {"collections", "itertools", "math", "operator", "random", "weakref"}  # what a library module loads
STARTUP_EXTRA = {"cli": {"argparse", "json", "sys"}, "__main__": {"sys"}}


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


def _named(nodes) -> set:
    """Every name the nodes and their descendants hold, as in :func:`_name`."""
    return {_name(n) for node in nodes for n in ast.walk(node)} - {None}


def unreachable_definitions(sources: dict, roots) -> list:
    """Functions, classes and methods of the sources, given as {module
    name: source}, as ``module.name`` or ``module.Class.method``, that no
    name reaches from the root sources ``roots`` or from module-level code.

    Reaching goes by name alone: once a name is reached, so is every
    definition of that name, with all the names its body holds.  A class
    brings its bases, decorators, class-level statements and dunder
    methods; dunder methods, which Python calls, are never reported."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    reached = _named(map(ast.parse, roots))
    definitions = {}  # where -> (name, the names it brings)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, functions):
                definitions[f"{module}.{node.name}"] = (node.name, _named([node]))
            elif isinstance(node, ast.ClassDef):
                methods = [stmt for stmt in node.body if isinstance(stmt, functions)
                           and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]
                for m in methods:
                    definitions[f"{module}.{node.name}.{m.name}"] = (m.name, _named([m]))
                brings = node.bases + node.decorator_list + [
                    stmt for stmt in node.body if stmt not in methods]
                definitions[f"{module}.{node.name}"] = (node.name, _named(brings))
            else:
                reached |= _named([node])
    while found := [where for where, (name, _) in definitions.items() if name in reached]:
        for where in found:
            reached |= definitions.pop(where)[1]
    return sorted(definitions)


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


def _places(sources: dict, match) -> list:
    """Where the sources, given as {module name: source}, hold a node
    that ``match`` accepts: ``module.function`` for the innermost
    enclosing function, ``module`` at module level."""
    found = set()

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, f"{module}.{child.name}")
                continue
            if match(child):
                found.add(where)
            visit(child, module, where)

    for module, source in sources.items():
        visit(ast.parse(source), module, module)
    return sorted(found)


def callers(sources: dict, name: str) -> list:
    """Where the sources call ``name``, in the form of :func:`_places`."""
    return _places(sources, lambda node: isinstance(node, ast.Call) and _name(node.func) == name)


def functions(sources: dict):
    """``(module.name, node)`` for every function and method of the
    sources, given as {module name: source}, nested ones included."""
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{module}.{node.name}", node


def self_callers(sources: dict) -> list:
    """``module.name`` of every function of the sources whose body calls
    its own name: recursion, direct or through a nested generator."""
    return sorted(where for where, node in functions(sources) if any(
        isinstance(n, ast.Call) and _name(n.func) == node.name for n in ast.walk(node)))


def readers(sources: dict, attr: str) -> list:
    """Where the sources read the attribute ``attr`` of any object, in
    the form of :func:`_places`."""
    return _places(sources, lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


def rows_not_handed_to(sources: dict, rule: str) -> list:
    """``module.function`` of every function of the sources, given as
    {module name: source}, that uses an exchange row other than as an
    argument of a call of ``rule``.  A row is what a call of an
    ``exchanges`` attribute returns; it may be handed to ``rule`` at
    once or bound to a plain name whose every read is such an argument.
    Any other read of the attribute, or other use of a row, counts, also
    for each function around a nested one that holds it."""
    found = set()
    for where, node in functions(sources):
        parent = {child: up for up in ast.walk(node) for child in ast.iter_child_nodes(up)}

        def handed(n):
            up = parent.get(n)
            return isinstance(up, ast.Call) and _name(up.func) == rule and n in up.args

        bound = set()
        for n in ast.walk(node):
            if not (isinstance(n, ast.Attribute) and n.attr == "exchanges"):
                continue
            call = parent.get(n)
            if not (isinstance(call, ast.Call) and call.func is n):
                found.add(where)
                continue
            up = parent.get(call)
            if isinstance(up, ast.Assign) and [type(t) for t in up.targets] == [ast.Name]:
                bound.add(up.targets[0].id)
            elif not handed(call):
                found.add(where)
        if any(isinstance(n, ast.Name) and n.id in bound and isinstance(n.ctx, ast.Load)
               and not handed(n) for n in ast.walk(node)):
            found.add(where)
    return sorted(found)


def system_exits(sources: dict) -> list:
    """Where the sources name ``SystemExit``, in the form of :func:`_places`."""
    return _places(sources, lambda node: _name(node) == "SystemExit")


def error_writers(sources: dict) -> list:
    """Where the sources hold a string with ``error:`` in it, f-string
    parts included, in the form of :func:`_places`."""
    return _places(sources, lambda node: isinstance(node, ast.Constant)
                   and isinstance(node.value, str) and "error:" in node.value)


def activity_records(sources: dict) -> list:
    """``module.Class`` for every record class in the sources, given as
    {module name: source}, with both an ``internal`` and an ``external``
    field (see :func:`record_fields`)."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and {"internal", "external"} <= record_fields(node):
                found.append(f"{module}.{node.name}")
    return sorted(found)


def record_fields(node: ast.ClassDef) -> set:
    """The fields of a record class: the annotated names of a dataclass
    or a ``NamedTuple`` subclass, and the names a ``namedtuple(...)``
    base lists, as one string or as a list or tuple of strings."""
    fields = set()
    if any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
           for d in node.decorator_list) or any(_name(b) == "NamedTuple" for b in node.bases):
        fields |= {stmt.target.id for stmt in node.body
                   if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    for base in node.bases:
        if not (isinstance(base, ast.Call) and _name(base.func) == "namedtuple"):
            continue
        names = [kw.value for kw in base.keywords if kw.arg == "field_names"] + base.args[1:2]
        for listed in names:
            if isinstance(listed, ast.Constant) and isinstance(listed.value, str):
                fields |= set(listed.value.replace(",", " ").split())
            elif isinstance(listed, (ast.List, ast.Tuple)):
                fields |= {elt.value for elt in listed.elts if isinstance(elt, ast.Constant)}
    return fields


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


def package_imports(sources: dict) -> dict:
    """The package modules each module of ``sources`` ({module name:
    source}) imports, at its top or inside a function or class, as
    {module: set of imported modules}."""
    return {module: {target for node, _ in _scoped_imports(ast.parse(source))
                     for target in _package_imports(node, sources)}
            for module, source in sources.items()}


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


def startup_imports(source: str) -> set:
    """The first component of every module the source imports as it
    loads, at its top level or in a class body, other than the package
    and ``__future__``."""
    found = set()
    for node, deferred in _scoped_imports(ast.parse(source)):
        if deferred or isinstance(node, ast.ImportFrom) and node.level:
            continue
        names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module]
        found |= {name.partition(".")[0] for name in names}
    return found - {"hypertutte", "__future__"}


def _test_code(name: str) -> bool:
    return name in ("oracles", "tests", "conftest") or name.startswith("test_")


def test_src_is_reachable():
    """The package holds only what a command or the benchmark runs: every
    function, class and method outside the entry points is reached by
    name from them, from module-level code or from ``perfbench``."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    roots = [sources.pop(name) for name in ENTRY_POINTS]
    roots += [path.read_text(encoding="utf-8") for path in BENCHMARK]
    assert unreachable_definitions(sources, roots) == []


def test_one_tour_step_rule():
    """The tour's step rule lives in ``tours.walk`` alone: it alone reads
    the dart permutation ``sigma``, and nothing in the package steps
    through a rotation successor ``next_at``."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert readers(sources, "sigma") == ["tours.walk"]
    assert callers(sources, "next_at") == []


def test_one_jaeger_tree_builder():
    """Besides ``tours.tour``, only ``hypertrees.tour_search`` walks a
    tour: it is the one builder of Jaeger trees and their orders."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "walk") == ["hypertrees.tour_search", "tours.tour"]


def test_one_membership_check():
    """Jaeger trees, orders and activities are reached through the
    searches' tables (``hypertrees.jaeger_trees``, whose orders
    ``hypertrees.orders`` reads); only
    ``jaeger.embedding_activities``, which answers one vector, asks
    whether that vector is well formed before it looks it up."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "well_formed") == ["jaeger.embedding_activities"]


def test_one_order_table():
    """Only ``hypertrees`` reads the order columns of a Jaeger row: the
    searches' tables are read by the CLI for the trees it prints, by
    ``hypertrees.enumerate_hypertrees`` for their keys and by
    ``hypertrees.orders``, which every caller asks for an activity kind's
    orders."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "jaeger_trees") == [
        "cli._cmd_jaeger", "hypertrees.enumerate_hypertrees", "hypertrees.orders"]


def test_one_activity_sum():
    """``tutte.tutte_sum`` is the one activity sum: the embedding and
    fixed-order polynomials and the order comparisons of ``harness``
    call it, and ``harness`` defines no sum of its own."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "tutte_sum") == [
        "harness._compare", "tutte.tutte_embedding", "tutte.tutte_from_order"]


def test_one_contraction_deletion():
    """``tours._trees`` is the one contraction/deletion recursion: apart
    from the checks on a ribbon graph and on a spanning tree, it alone
    asks whether a graph stays connected."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "connected") == [
        "model._validate", "tours._trees", "tours.is_spanning_tree"]


def test_one_sweep():
    """No module defines a ``sweep``: ``tutte.corank_nullity`` is the one
    walk of lattice points, which it makes on an explicit stack, and the
    Crapo lister reads attainment off the exchange tables, region by
    region, not distances point by point.  No function of ``crapo`` or
    ``tutte`` calls itself, so neither lattice walk recurses: the depth
    of a walk is the number of coordinates, which may exceed Python's
    recursion limit."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert [where for where, node in functions(sources) if node.name == "sweep"] == []
    assert self_callers({name: sources[name] for name in ("crapo", "tutte")}) == []


def test_budget_only_where_points_are_visited():
    """``crapo.check_budget`` runs only in the Crapo lister on the leaves
    it is about to list, and in the corank-nullity walk on the table's
    cells and on the prefixes the walk pops, as it pops them: a box the
    lister passes leaves no leaf to list, and a bounding box whose
    prefixes cannot reach the window is not walked, so each is held to
    the budget for the points visited, whatever its size."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "check_budget") == ["crapo._violations", "tutte.corank_nullity"]
    named = _places(sources, lambda node: isinstance(node, ast.Name) and node.id == "_BOX_BUDGET")
    assert named == ["crapo", "crapo.check_budget"]


def test_one_membership_rule():
    """``crapo._region``, an interval's part of a box, is the one
    membership rule, read by the one Crapo decider: the lister cuts the
    box at its boundaries."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "_region") == ["crapo._violations"]


def test_one_process():
    """The package runs in one process: no module imports ``os``,
    ``concurrent.futures`` or ``multiprocessing``."""
    assert [path.name for path in MODULES
            if imported_names(path.read_text(encoding="utf-8")) & POOLING] == []


def test_one_activity_record():
    """``polymatroid.BasisActivity`` is the only record class holding
    internal and external activity sets."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert activity_records(sources) == ["polymatroid.BasisActivity"]


def test_one_record_builder():
    """``polymatroid.assignment_from_orders`` builds every activity
    record: it alone calls ``BasisActivity.of``, and the embedding's
    records are looked up in the assignment it builds
    (``jaeger.embedding_assignment``)."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "of") == ["polymatroid.assignment_from_orders"]


def test_one_series_expansion():
    """``tutte._expand`` is the one expansion of grouped terms into a
    series window: the lattice counts and the substituted polynomial
    both go through it, and only it reads the table of spreads."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "_spread") == ["tutte._expand"]
    assert callers(sources, "_expand") == ["tutte.corank_nullity", "tutte.series_window"]


def test_one_error_reporter():
    """Every usage or input error is an exception that ``cli.main``
    alone reports: no module names ``SystemExit``, and only ``cli.main``
    writes ``error:``."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert system_exits(sources) == []
    assert error_writers(sources) == ["cli.main"]


def test_one_activity_rule():
    """``polymatroid.active`` is the one activity rule: it alone ANDs a
    row of a basis's exchange table, for every row a caller fetches goes
    to it and nowhere else, the exchange check and the Delta search among
    them, and only ``PolymatroidBases.exchanges``, which builds that
    table, looks up a shifted basis."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert readers(sources, "exchanges") != []
    assert rows_not_handed_to(sources, "active") == []
    assert callers(sources, "_shift") == ["polymatroid.exchanges"]


def test_one_polymatroid_per_base_set():
    """Only ``polymatroid.load_bases`` and the registry of hypergraphic
    polymatroids behind ``polymatroid.bases_from_hypertrees`` build a
    ``PolymatroidBases``, so no caller bypasses the registry and builds
    a second polymatroid, with its own exchange rows, for a hypertree set."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "PolymatroidBases") == [
        "polymatroid._hypergraphic_polymatroid", "polymatroid.load_bases"]
    for name, where in [("_hypergraphic_polymatroid", ["polymatroid.bases_from_hypertrees"]),
                        ("_hypergraphic", ["polymatroid",
                                           "polymatroid._hypergraphic_polymatroid"])]:
        named = _places(sources, lambda node: isinstance(node, ast.Name) and node.id == name)
        assert named == where


def test_names_only_at_print():
    """Activity records stay bit masks through every layer: only the CLI
    commands that print a record and ``delta.obstruction_check``, whose
    answer the CLI prints, call ``polymatroid.names``."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert callers(sources, "names") == [
        "cli._cmd_delta", "cli._cmd_jaeger", "delta.obstruction_check"]


def test_function_level_imports_only_break_cycles():
    """No package import runs inside a function: the modules import each
    other at the top without a cycle, so none needs breaking there."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert deferred_imports(sources) == ([], [])


def test_layering():
    """``delta``, the decision-tree framework, sits above the library:
    within the package only ``cli`` imports it.  ``polymatroid`` sits
    beneath the layers that read it: it imports none of ``jaeger``,
    ``crapo``, ``tutte``, ``delta``, ``harness`` or ``cli``."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    imports = package_imports(sources)
    assert sorted(module for module, targets in imports.items() if "delta" in targets) == ["cli"]
    above = {"jaeger", "crapo", "tutte", "delta", "harness", "cli"}
    assert sorted(imports["polymatroid"] & above) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_startup_imports(path):
    """Loading a module loads only ``collections``, ``itertools``,
    ``math``, ``operator`` (which ``collections`` loads anyway), ``random``
    and ``weakref`` from outside the package, and
    ``argparse``, ``json`` and ``sys`` for the CLI: a heavier import
    (PyYAML, ``pathlib``, ``dataclasses``) goes inside the function
    that needs it, so start-up stays cheap."""
    allowed = STARTUP | STARTUP_EXTRA.get(path.stem, set())
    assert sorted(startup_imports(path.read_text(encoding="utf-8")) - allowed) == []


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
    darting = {
        "model": (
            "class RibbonGraph:\n"
            "    def next_at(self, node, edge):\n"
            "        return self.sigma[self.dart(node, edge)] >> 1\n"
        ),
        "tours": "def walk(g, tree, d):\n    sigma = g.sigma\n    yield sigma[d]\n",
        "hypertrees": (
            "def tour_search(g, d):\n"
            "    while True:\n"
            "        d = g.sigma[d ^ 1]\n"
            "        yield d\n"
            "start = g.sigma[0]\n"
        ),
    }
    assert readers(darting, "sigma") == [
        "hypertrees", "hypertrees.tour_search", "model.next_at", "tours.walk"]
    walking = {
        "tours": "def tour(g, t):\n    return list(walk(g, t))\n",
        "hypertrees": "from . import tours\ndef tour_search(g):\n    yield from tours.walk(g, set())\n",
        "jaeger": (
            "from . import tours\n"
            "def greedy_tree(g, h):\n"
            "    return [step for step in tours.walk(g, set())]\n"
        ),
    }
    assert callers(walking, "walk") == [
        "hypertrees.tour_search", "jaeger.greedy_tree", "tours.tour"]
    ordering = {
        "hypertrees": "def orders(g, kind):\n    return jaeger_trees(g, 'violet')\n",
        "harness": (
            "from . import hypertrees, tutte\n"
            "def violet_polynomial(g):\n"
            "    found = hypertrees.jaeger_trees(g, 'violet')\n"
            "    return tutte.tutte_sum(g, {h: f[1] for h, f in found.items()})\n"
        ),
    }
    assert callers(ordering, "jaeger_trees") == ["harness.violet_polynomial", "hypertrees.orders"]
    assert callers(ordering, "tutte_sum") == ["harness.violet_polynomial"]
    recursing = {
        "tours": "def _trees(edges, n):\n    return connected(edges[1:], n)\n",
        "model": "class RibbonGraph:\n    def _validate(self):\n        return connected(self.edges, 2)\n",
        "tutte": (
            "def _dc(n, edges):\n"
            "    rest = edges[1:]\n"
            "    return _dc(n, rest) + _dc(n - 1, rest) if connected(rest, n) else 0\n"
        ),
    }
    assert callers(recursing, "connected") == ["model._validate", "tours._trees", "tutte._dc"]
    sweeping = {
        "crapo": "def _violations(args):\n    return list(sweep(*args))\n",
        "tutte": "from . import crapo\ndef corank_nullity(hs, box):\n    return crapo.sweep(box, hs)\n",
        "delta": (
            "from .crapo import sweep\n"
            "def crapo_verify(P, box):\n"
            "    return [sides for _, sides in sweep(box, P.bases)]\n"
        ),
    }
    assert callers(sweeping, "sweep") == [
        "crapo._violations", "delta.crapo_verify", "tutte.corank_nullity"]
    descending = {
        "crapo": (
            "def sweep(box):\n"
            "    def descend(i):\n        yield from descend(i + 1)\n"
            "    return descend(0)\n"
        ),
        "tutte": (
            "def corank_nullity(g):\n    stack = [g]\n    while stack:\n        stack.pop()\n"
            "class Table:\n    def size(self, n):\n        return n and self.size(n - 1)\n"
        ),
    }
    assert self_callers(descending) == ["crapo.descend", "tutte.size"]
    assert [where for where, node in functions(descending) if node.name == "sweep"] == [
        "crapo.sweep"]
    reaching = {
        "tutte": (
            "def run(g):\n    return _helper(g)\n"
            "def _helper(g):\n    return Table(g).entry(0)\n"
            "class Table:\n"
            "    def __init__(self, g):\n        self.g = g\n"
            "    def entry(self, i):\n        return i\n"
            "    def only_tested(self):\n        return self.entry(1)\n"
            "def orphan():\n    return orphan()\n"
        ),
    }
    assert unreachable_definitions(reaching, ["from . import tutte\ntutte.run(None)\n"]) == [
        "tutte.Table.only_tested", "tutte.orphan"]
    building = {
        "crapo": (
            "def intervals(P, a):\n    return [CrapoInterval(b, (), ()) for b in a]\n"
            "def crapo_interval(g, h):\n    return CrapoInterval(h, (), ())\n"
        ),
        "delta": "from . import crapo\ndef basis_interval(b):\n    return crapo.CrapoInterval(b)\n",
    }
    assert callers(building, "CrapoInterval") == [
        "crapo.crapo_interval", "crapo.intervals", "delta.basis_interval"]
    recording = {
        "delta": (
            "@dataclass(frozen=True)\nclass BasisActivity:\n"
            "    internal: frozenset\n    external: frozenset\n"
        ),
        "jaeger": (
            "import dataclasses\n"
            "@dataclasses.dataclass\nclass ActivityRecord:\n"
            "    internal: frozenset\n    external: frozenset\n"
            "class Plain:\n    internal = external = frozenset()\n"
            "@dataclass\nclass Half:\n    internal: frozenset\n"
        ),
        "tutte": (
            "from collections import namedtuple\n"
            "class Activity(namedtuple('Activity', 'internal, external size')):\n"
            "    __slots__ = ()\n"
            "class Listed(collections.namedtuple('Listed', field_names=['external', 'internal'])):\n"
            "    pass\n"
            "class Typed(NamedTuple):\n    internal: int\n    external: int\n"
            "class Partial(namedtuple('Partial', 'internal other')):\n    external = 0\n"
        ),
    }
    assert activity_records(recording) == [
        "delta.BasisActivity", "jaeger.ActivityRecord",
        "tutte.Activity", "tutte.Listed", "tutte.Typed"]
    decoding = {
        "cli": "from . import delta\ndef _cmd_jaeger(P, rec):\n    print(delta.names(P, rec.internal))\n",
        "crapo": (
            "from .delta import names\n"
            "def intervals(P, a):\n"
            "    return [(b, names(P, rec.internal)) for b, rec in a.items()]\n"
        ),
    }
    assert callers(decoding, "names") == ["cli._cmd_jaeger", "crapo.intervals"]
    reporting = {
        "cli": (
            "def _read(path):\n    raise SystemExit(_usage_error(f'cannot read {path}'))\n"
            "def _usage_error(message):\n    print(f'error: {message}')\n    return 2\n"
            "def main(args):\n"
            "    try:\n        return args.func(args)\n"
            "    except builtins.SystemExit:\n        raise\n"
            "    except ValueError as exc:\n        print('error: ' + str(exc))\n"
        ),
        "model": "def load(text):\n    raise ValueError('parse error: ' + text)\n",
    }
    assert system_exits(reporting) == ["cli._read", "cli.main"]
    assert error_writers(reporting) == ["cli._usage_error", "cli.main", "model.load"]
    exchanging = {
        "polymatroid": (
            "class PolymatroidBases:\n"
            "    def exchanges(self, b):\n"
            "        return [_shift(b, 0, 1) in self.bases]\n"
            "def exchange_witness(P, b, e):\n    return _shift(b, e, 0)\n"
            "def active(row, i, others):\n    down, up = row\n    return down[i] & others\n"
            "def activity_masks(P, b):\n    row = P.exchanges(b)\n    return active(row, 0, 1)\n"
            "def exchange_free(P, b):\n    return active(P.exchanges(b), 0, 1)\n"
        ),
        "tutte": (
            "def tutte_sum(P, h, i):\n"
            "    down, up = P.exchanges(h)\n"
            "    return down[i], _shift(h, i, 0) in P.bases\n"
            "def inline(P, h, i):\n    row = P.exchanges(h)\n    return active(row, i, row[0][i])\n"
            "def fetcher(P):\n    return P.exchanges\n"
            "def lazy(P, h):\n    return [P.exchanges(h)]\n"
        ),
    }
    assert rows_not_handed_to(exchanging, "active") == [
        "tutte.fetcher", "tutte.inline", "tutte.lazy", "tutte.tutte_sum"]
    assert callers(exchanging, "_shift") == [
        "polymatroid.exchange_witness", "polymatroid.exchanges", "tutte.tutte_sum"]
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
    assert package_imports(deferring) == {
        "__init__": {"model"}, "model": set(), "tours": {"model"}, "jaeger": {"tours", "delta"},
        "delta": {"jaeger", "tours", "__init__", "model"}, "cli": {"tours", "delta"}}
    assert sorted(filter(_test_code, imported_names(
        "import tests.oracles\n"
        "from oracles import is_jaeger\n"
        "from test_delta import FIG6\n"
        "from . import conftest, model\n"
        "from .crapo import sweep\n"
        "import itertools\n"
    ))) == ["conftest", "oracles", "test_delta", "tests"]
    assert startup_imports(
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from . import model\n"
        "from .delta import f\n"
        "from hypertutte.tours import walk\n"
        "from collections.abc import Mapping\n"
        "class C:\n    import json\n"
        "def f():\n    import yaml\n    from pathlib import Path\n"
    ) == {"collections", "json", "os", "sys"}
    assert imported_names(
        "import os.path\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing as mp\n"
    ) & POOLING == POOLING
