"""Instance loading, validation and rotation navigation."""

import copy
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from hypertutte import fixture_names, fixture_path, harness, load_path
from hypertutte.model import (
    NotIncident,
    ParseError,
    RibbonGraph,
    ValidationError,
    adjacency,
    connected,
    load,
    reach,
    read_rendered,
)
from hypertutte.delta import load_decision_tree
from hypertutte.jaeger import embedding_assignment
from hypertutte.tutte import tutte_embedding
from oracles import degree, incident, next_at, perturbed
from test_oracle import complete_bipartite


def test_fig2_loads(fig2):
    assert fig2.violet_count == 3
    assert fig2.emerald_count == 4
    assert len(fig2.edges) == 9
    assert fig2.basis == ("v0", 0)


def test_single_edge_valid(single_edge):
    assert len(single_edge.edges) == 1
    assert degree(single_edge, "v0") == 1


def test_missing_rotation_entry_rejected():
    text = fixture_path("fig2.hg").read_text()
    broken = text.replace("  e2: [6, 5]\n", "")
    with pytest.raises((ParseError, ValidationError)):
        load(broken)


def test_wrong_rotation_content_rejected():
    text = fixture_path("fig2.hg").read_text()
    with pytest.raises(ValidationError):
        load(text.replace("e2: [6, 5]", "e2: [6, 6]"))


def test_unknown_and_missing_keys_rejected():
    text = fixture_path("fig2.hg").read_text()
    with pytest.raises(ParseError):
        load(text + "extra: 1\n")
    with pytest.raises(ParseError):
        load(text.replace("basis: [v0, 0]\n", ""))


def test_non_integer_rotation_entry_rejected():
    text = fixture_path("fig2.hg").read_text()
    with pytest.raises(ParseError):
        load(text.replace("v0: [0, 2, 7]", "v0: [0.9, 2, 7]"))


def test_boolean_rotation_entry_rejected():
    text = fixture_path("fig2.hg").read_text()
    with pytest.raises(ParseError):
        load(text.replace("e0: [1, 0]", "e0: [1, false]"))


def test_boolean_basis_edge_rejected():
    text = fixture_path("fig2.hg").read_text()
    with pytest.raises(ParseError):
        load(text.replace("basis: [v0, 0]", "basis: [v0, false]"))


@pytest.mark.parametrize("key", ["e", "vx", "x", "v1x", "w0"])
def test_rotation_key_must_be_a_node_name(key):
    text = fixture_path("fig2.hg").read_text()
    with pytest.raises(ParseError, match="bad rotation entry"):
        load(text.replace("  e2:", f"  {key}:"))


INSTANCE_TEXTS = [
    fixture_path(name).read_text() for name in fixture_names() if name.endswith(".hg")
]
FUZZ_TOKENS = ["-1", "0", "99", "x", "e", "vx", "[]", "{}", "true", "null"]


@st.composite
def one_token_mutants(draw):
    """A fixture instance with one word or number replaced by a fuzz token."""
    text = draw(st.sampled_from(INSTANCE_TEXTS))
    start, end = draw(st.sampled_from([m.span() for m in re.finditer(r"-?\w+", text)]))
    return text[:start] + draw(st.sampled_from(FUZZ_TOKENS)) + text[end:]


@settings(max_examples=400, deadline=None)
@given(one_token_mutants())
def test_loader_raises_only_parse_or_validation_errors(text):
    try:
        load(text)
    except (ParseError, ValidationError):
        pass


def test_readme_instance_example_loads(fig2):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("**Hypergraph instance", 1)[1]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    assert load(block) == fig2


def test_basis_must_be_incident():
    text = fixture_path("fig2.hg").read_text()
    with pytest.raises(ValidationError):
        load(text.replace("basis: [v0, 0]", "basis: [v0, 1]"))


def test_basis_edge_must_be_an_integer(fig2):
    """True equals edge 1, which is incident to v1, but is no edge id."""
    same = (fig2.violet_count, fig2.emerald_count, fig2.edges, dict(fig2.rotations))
    assert RibbonGraph.build(*same, ("v1", 1)).basis_dart == 2
    with pytest.raises(ValidationError):
        RibbonGraph.build(*same, ("v1", True))


def test_disconnected_rejected():
    with pytest.raises(ValidationError):
        RibbonGraph.build(
            2,
            2,
            [("v0", "e0"), ("v1", "e1")],
            {"v0": [0], "e0": [0], "v1": [1], "e1": [1]},
            ("v0", 0),
        )


def test_node_count_above_the_edges_rejected_before_names():
    """A declared count far above what the edges can connect is refused
    from the counts alone, whatever their size."""
    for violets, emeralds in ((10 ** 9, 1), (1, 10 ** 9)):
        with pytest.raises(ValidationError, match="need at least") as info:
            RibbonGraph.build(violets, emeralds, [("v0", "e0")],
                              {"v0": [0], "e0": [0]}, ("v0", 0))
        assert len(str(info.value)) < 200


def test_rotation_mismatch_names_a_few_nodes():
    """A rotation that misses many nodes names five of them and counts
    the rest."""
    edges = [(f"v{i}", "e0") for i in range(8)]
    with pytest.raises(ValidationError) as info:
        RibbonGraph.build(8, 1, edges, {"v0": [0], "e0": list(range(8))}, ("v0", 0))
    assert str(info.value) == (
        "rotation node set mismatch: ['v1', 'v2', 'v3', 'v4', 'v5'] and 2 more")


def test_next_at_degree_one(single_edge):
    assert next_at(single_edge, "v0", 0) == 0


def test_next_at_fig1_rotation(fig1):
    # around the violet node of degree 3 adjacent to e1, e4, e0:
    # counterclockwise successor of the e4 edge is the e0 edge
    assert next_at(fig1, "v1", 8) == 1
    assert next_at(fig1, "v1", 2) == 8
    assert next_at(fig1, "v1", 1) == 2


def test_next_at_not_incident(fig2):
    """Edge ids out of range are no edges, not indices from the end: -9
    would otherwise stand for edge 0, which is incident to v0."""
    for edge in (8, 99, -9):
        with pytest.raises(NotIncident):
            next_at(fig2, "v0", edge)
        with pytest.raises(NotIncident):
            fig2.dart("v0", edge)


def test_next_at_cyclic(all_hg):
    for g in all_hg.values():
        for node in g.nodes:
            start = incident(g, node)[0]
            seen = []
            edge = start
            for _ in range(degree(g, node)):
                seen.append(edge)
                edge = next_at(g, node, edge)
            assert edge == start
            assert sorted(seen) == sorted(incident(g, node))


def test_degree_sum(all_hg):
    for g in all_hg.values():
        assert sum(degree(g, n) for n in g.nodes) == 2 * len(g.edges)


def test_render_round_trip(all_hg, single_edge):
    for g in list(all_hg.values()) + [single_edge]:
        assert load(g.render()) == g


def test_fixture_files_round_trip():
    for name in ("fig1.hg", "fig2.hg", "fig4.hg", "fig5.hg"):
        g = load_path(fixture_path(name))
        assert load(g.render()) == g


def test_fixtures_are_in_render_form():
    """Every bundled instance is its own ``render``, so it is read
    without PyYAML: a hand edit that leaves the form fails here."""
    for text in INSTANCE_TEXTS:
        assert load(text).render() == text


def _rendered_texts():
    yield from INSTANCE_TEXTS
    yield from (harness.random_instance(seed).render() for seed in range(300))
    rng = random.Random(35)
    for a in range(1, 6):
        for b in range(1, 6):
            yield perturbed(complete_bipartite(a, b), rng).render()


def test_reader_accepts_every_render():
    """The fixtures, 300 random instances and perturbed K_{a,b} for
    a, b <= 5 are read without PyYAML, into PyYAML's mapping."""
    for text in _rendered_texts():
        data = read_rendered(text)
        assert data is not None and data == yaml.safe_load(text), text


FORMAT_INSERTS = [" ", "  ", "\t", "\r", "\n", "# x", "0", "_", "+", "-", ",", ":",
                  "[", "]", "\ufeff", "\u2028", "\x85", "\u0661", "v", "e", ".", "~", "1"]


@st.composite
def format_mutants(draw):
    """A fixture instance with text inserted, replaced or deleted, or
    lines duplicated or swapped."""
    text = draw(st.sampled_from(INSTANCE_TEXTS))
    at = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["insert", "replace", "delete", "duplicate", "swap"]))
    if how in ("insert", "replace"):
        return text[:at] + draw(st.sampled_from(FORMAT_INSERTS)) + text[at + (how == "replace"):]
    if how == "delete":
        return text[:at] + text[at + draw(st.integers(1, 3)):]
    lines = text.splitlines(True)
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    if how == "duplicate":
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


@settings(max_examples=600, deadline=None)
@given(st.one_of(one_token_mutants(), format_mutants()))
def test_reader_agrees_with_yaml(text):
    """Whatever text the reader accepts, PyYAML reads the same mapping."""
    data = read_rendered(text)
    if data is not None:
        assert data == yaml.safe_load(text)


FIG2_TEXT = fixture_path("fig2.hg").read_text()


def _fig2_edit(old, new):
    assert old in FIG2_TEXT
    return FIG2_TEXT.replace(old, new)


# (text, whether the reader accepts it, what ``load`` makes of it)
READER_CASES = {
    "octal-010": (_fig2_edit("e3: [8, 7]", "e3: [010, 7]"), False, "fig2"),  # YAML: 8
    "underscore-1_0": (_fig2_edit("e3: [8, 7]", "e3: [8, 1_0]"), False,
                       "rotation at e3 does not list its incident edges exactly once"),
    "plus-sign": (_fig2_edit("e0: [1, 0]", "e0: [+1, 0]"), False, "fig2"),
    "trailing-space": (_fig2_edit("violet: 3\n", "violet: 3 \n"), False, "fig2"),
    "crlf": (FIG2_TEXT.replace("\n", "\r\n"), False, "fig2"),
    "tab-indent": (_fig2_edit("  v0:", "\tv0:"), False, "invalid syntax"),
    "no-final-newline": (FIG2_TEXT[:-1], False, "fig2"),
    "comment-line": ("# comment\n" + FIG2_TEXT, False, "fig2"),
    # the later line wins, as in YAML
    "duplicate-rotation-key": (_fig2_edit("  e2: [6, 5]\n", "  e2: [0, 2, 7]\n  e2: [6, 5]\n"),
                               True, "fig2"),
    "leading-zero-name-v01": (_fig2_edit("  v0:", "  v01:"), False,
                              "rotation node set mismatch: ['v0', 'v01']"),
    "empty-rotation-block": (FIG2_TEXT[:FIG2_TEXT.index("  v0:")]
                             + FIG2_TEXT[FIG2_TEXT.index("basis:"):], False,
                             "rotation must be a mapping"),
    "byte-order-mark": ("\ufeff" + FIG2_TEXT, False, "fig2"),
    "rotation-out-of-order": (_fig2_edit("  v0: [0, 2, 7]\n", "")
                              .replace("  e3: [8, 7]\n", "  e3: [8, 7]\n  v0: [0, 2, 7]\n"),
                              True, "fig2"),
}


@pytest.mark.parametrize("name", READER_CASES)
def test_reader_named_cases(name, fig2):
    """Texts near the form: the reader reads only what it accepts, and
    ``load`` gives the graph or the error PyYAML's mapping gives."""
    text, accepted, outcome = READER_CASES[name]
    data = read_rendered(text)
    assert (data is not None) == accepted
    if accepted:
        assert data == yaml.safe_load(text)
    if outcome == "fig2":
        assert load(text) == fig2
    else:
        with pytest.raises((ParseError, ValidationError), match=re.escape(outcome)):
            load(text)


def test_connected():
    assert connected([], 0) and connected([], 1)
    assert connected([(0, "a", "b"), (1, "b", "c")], 3)
    assert not connected([(0, "a", "b")], 3)  # the third node is isolated
    assert not connected([(0, "a", "b"), (1, "c", "c")], 3)
    assert not connected([], 2)


def _full_adjacency(g):
    return adjacency((k, v, e) for k, (v, e) in enumerate(g.edges))


def test_reach_without_limits(fig2):
    """With neither ``avoid`` nor ``until`` the search reaches the whole
    graph, each node keyed to the edge that first reached it, in the
    order it reached them."""
    assert list(reach(_full_adjacency(fig2), "v0").items()) == [
        ("v0", None), ("e0", 0), ("e1", 2), ("e3", 7), ("v2", 8), ("e2", 6), ("v1", 5)]


def test_reach_avoids_and_stops(all_hg):
    """``avoid`` acts as deleting its edges from the map, and the search
    stops at the first ``until`` node it reaches: its map is a prefix of
    the full one, crosses no avoided edge, and ends at that node, the
    only one of ``until`` in it."""
    rng = random.Random(11)
    for g in all_hg.values():
        triples = [(k, v, e) for k, (v, e) in enumerate(g.edges)]
        adj = _full_adjacency(g)
        for _ in range(60):
            avoid = set(rng.sample(range(len(triples)), rng.randrange(len(triples))))
            start = rng.choice(g.nodes)
            full = list(reach(adjacency(t for t in triples if t[0] not in avoid), start).items())
            assert list(reach(adj, start, avoid).items()) == full
            until = set(rng.sample(g.nodes, rng.randrange(1, 4)))
            stopped = list(reach(adj, start, avoid, until).items())
            assert stopped == full[:len(stopped)]
            assert all(k not in avoid for _, k in stopped)
            hits = [node for node, _ in stopped if node in until]
            if until.isdisjoint(node for node, _ in full):
                assert stopped == full and hits == []
            else:
                assert hits == [stopped[-1][0]]


def test_values_survive_pickle_and_copy(all_hg):
    """Graphs, polymatroids, activity records and decision trees come
    back from ``pickle`` and ``copy`` as equal values of the same type,
    still immutable, and a graph that made the round trip has the same
    embedding polynomial."""
    tree = load_decision_tree(fixture_path("delta_fig.tree").read_text(encoding="utf-8"))
    graphs = [*all_hg.values(), perturbed(complete_bipartite(4, 4), random.Random(44))]
    for g in graphs:
        P, assignment = embedding_assignment(g)
        values = [g, P, *assignment.values(), tree]
        for x in values:
            for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
                assert type(y) is type(x) and y == x and hash(y) == hash(x)
        for x, name in ((g, "basis"), (P, "ground")):
            with pytest.raises(AttributeError):
                setattr(pickle.loads(pickle.dumps(x)), name, None)
        assert tutte_embedding(pickle.loads(pickle.dumps(g))) == tutte_embedding(g)


SRC = str(Path(__file__).resolve().parents[1] / "src")
UNUSED_BY_LIBRARY = ("yaml", "dataclasses", "importlib.resources")


def _python(flags, code):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_library_loads_no_parser():
    """Importing the package and its library modules, building a graph
    and running the embedding sum and the Crapo verifier load neither
    YAML nor ``dataclasses`` nor ``importlib.resources`` (in an
    interpreter without ``site``, which preloads the last)."""
    k22 = (2, 2, [("v0", "e0"), ("v0", "e1"), ("v1", "e0"), ("v1", "e1")],
           {"v0": [0, 1], "v1": [2, 3], "e0": [0, 2], "e1": [1, 3]}, ("v0", 0))
    code = (
        "import sys\n"
        "import hypertutte\n"
        "from hypertutte import crapo, delta, harness, hypertrees, jaeger\n"
        "from hypertutte import polymatroid, polynomial, tours, tutte\n"
        f"g = hypertutte.RibbonGraph.build(*{k22!r})\n"
        "print(tutte.tutte_embedding(g))\n"
        "print(crapo.verify_crapo_partition(g)['status'])\n"
        f"print([m for m in {UNUSED_BY_LIBRARY!r} if m in sys.modules])\n"
    )
    poly = tutte_embedding(RibbonGraph.build(*k22))
    assert _python(["-S"], code) == f"{poly}\nPASS\n[]\n"


def test_yaml_loads_on_first_parse():
    """A file in ``render``'s form loads without PyYAML; PyYAML is
    imported by the first parse of any other text, here fig2 with a
    comment line, which gives the same graph."""
    code = (
        "import sys\n"
        "import hypertutte\n"
        f"g = hypertutte.load_path({str(fixture_path('fig2.hg'))!r})\n"
        "print(g.violet_count, g.emerald_count, 'yaml' in sys.modules)\n"
        "print(hypertutte.load('# comment\\n' + g.render()) == g, 'yaml' in sys.modules)\n"
    )
    assert _python([], code) == "3 4 False\nTrue True\n"
