import re

import pytest
import yaml

from hypertutte import fixture_path, load_path
from oracles import load_graph


HG_FIXTURES = ["fig1.hg", "fig2.hg", "fig4.hg", "fig5.hg"]

# acceptance bookkeeping: criterion name -> outcome, plus free-form notes
# that tests may attach (e.g. which bridge identity held)
_acceptance = {}
ACCEPTANCE_NOTES = {}


def _criterion_key(name):
    m = re.match(r"A(\d+)([a-z]?)", name)
    return (int(m.group(1)), m.group(2))


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    m = re.search(r"test_a(\d+[a-z]?)_", report.nodeid)
    if m:
        _acceptance[f"A{m.group(1)}"] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance, key=_criterion_key):
        verdict = "PASS" if _acceptance[name] == "passed" else "FAIL"
        note = ACCEPTANCE_NOTES.get(name)
        suffix = f"  ({note})" if note else ""
        terminalreporter.write_line(f"{name} {verdict}{suffix}")


@pytest.fixture(scope="session")
def fig1():
    return load_path(fixture_path("fig1.hg"))


@pytest.fixture(scope="session")
def fig2():
    return load_path(fixture_path("fig2.hg"))


@pytest.fixture(scope="session")
def fig5():
    return load_path(fixture_path("fig5.hg"))


@pytest.fixture(scope="session")
def all_hg():
    return {name: load_path(fixture_path(name)) for name in HG_FIXTURES}


@pytest.fixture(scope="session")
def fig6_graph():
    with open(fixture_path("fig6.graph"), encoding="utf-8") as fh:
        return load_graph(fh.read())


@pytest.fixture(scope="session")
def fig6_orders():
    with open(fixture_path("fig6.orders"), encoding="utf-8") as fh:
        return yaml.safe_load(fh.read())["orders"]


@pytest.fixture(scope="session")
def single_edge():
    """The minimal instance: one violet, one emerald, one edge."""
    from hypertutte.model import RibbonGraph

    return RibbonGraph.build(1, 1, [("v0", "e0")], {"v0": [0], "e0": [0]}, ("v0", 0))


@pytest.fixture(scope="session")
def long_star():
    """One violet on 1,500 emeralds, each emerald on one edge: 1,500
    coordinates, more than Python's default recursion limit of 1,000."""
    from hypertutte.model import RibbonGraph

    n = 1500
    return RibbonGraph.build(
        1, n, [("v0", f"e{j}") for j in range(n)],
        {"v0": list(range(n)), **{f"e{j}": [j] for j in range(n)}}, ("v0", 0))
