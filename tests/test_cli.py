"""End-to-end command-line checks."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from hypertutte import crapo, fixture_names, fixture_path, tutte
from hypertutte.cli import main

FIG1 = str(fixture_path("fig1.hg"))
FIG2 = str(fixture_path("fig2.hg"))
FIG5 = str(fixture_path("fig5.hg"))
TREE = str(fixture_path("delta_fig.tree"))
BASES = str(fixture_path("delta_fig.matroid"))

FIG2_POLY = (
    "x^4 + 4x^3y - x^3 + 6x^2y^2 - 3x^2y + 4xy^3 - 4xy^2"
    " + y^4 - 2y^3 + y^2"
)


SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "report-schema.json"


@pytest.fixture(scope="module")
def schema():
    with open(SCHEMA, encoding="utf-8") as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tutte_embedding(capsys):
    code, out, _ = run(capsys, "tutte", FIG2)
    assert code == 0
    assert out.strip() == FIG2_POLY


def test_tutte_fixed_order(capsys):
    code, out, _ = run(capsys, "tutte", "--method", "fixed",
                       "--order", "e3,e1,e0,e2", FIG2)
    assert code == 0
    assert out.strip() == FIG2_POLY


def test_tutte_fixed_order_rejects_bad_order(capsys):
    code, _, err = run(capsys, "tutte", "--method", "fixed",
                       "--order", "e0,e0,e1,e2", FIG2)
    assert code == 2
    assert "error:" in err


def test_tutte_fixed_order_rejects_empty_order(capsys):
    """An empty ``--order`` is an order that lists no emerald, not a
    missing one: exit 2, not the index-order polynomial."""
    code, out, err = run(capsys, "tutte", "--method", "fixed", "--order", "", FIG1)
    assert code == 2
    assert out == ""
    assert "must list every element" in err


@pytest.mark.parametrize("method", [(), ("--method", "embedding"),
                                    ("--method", "corank-nullity")],
                         ids=["default", "embedding", "corank-nullity"])
def test_tutte_order_needs_fixed_method(capsys, method):
    """``--order`` is read only by ``--method fixed``: with any other
    method, the default included, it is refused, not ignored."""
    code, out, err = run(capsys, "tutte", *method, "--order", "e1,e0", FIG1)
    assert (code, out) == (2, "")
    assert err == "error: --order needs --method fixed\n"


@pytest.mark.parametrize("argv", [("--bounds", "1,1"), ("--method", "embedding", "--bounds", "1,1"),
                                  ("--method", "fixed", "--bounds", "9,9")],
                         ids=["default", "embedding", "fixed"])
def test_tutte_bounds_needs_corank_nullity_method(capsys, argv):
    """``--bounds`` is read only by ``--method corank-nullity``: with any
    other method, the default included, it is refused, not ignored."""
    code, out, err = run(capsys, "tutte", *argv, FIG1)
    assert (code, out) == (2, "")
    assert err == "error: --bounds needs --method corank-nullity\n"


def test_negative_pair_needs_the_equals_form(capsys):
    """argparse reads ``-2,3`` after ``--box`` as an option, a usage error;
    ``--box=-2,3`` passes it as the value.  fig2's default box is [-2, 3]."""
    with pytest.raises(SystemExit) as exc:
        main(["crapo", "verify", "--box", "-2,3", FIG2])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    code, out, _ = run(capsys, "crapo", "verify", "--box=-2,3", FIG2)
    assert code == 0
    assert out == "crapo-partition: PASS\n  points: 1296\n  hypertrees: 7\n"


def test_tutte_corank_nullity_long_star(tmp_path, long_star):
    """A 1,500-emerald star's table is walked without recursion: exit 0
    and the table, with no traceback."""
    path = tmp_path / "star.hg"
    path.write_text(long_star.render(), encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "hypertutte", "tutte", "--method",
                           "corank-nullity", "--bounds", "1,1", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.splitlines() == ["i\\j\t0\t1", "0\t1\t1500", "1\t1500\t2248500"]


def test_tutte_corank_nullity_table(capsys):
    code, out, _ = run(capsys, "tutte", "--method", "corank-nullity",
                       "--bounds", "1,1", FIG2)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["i\\j", "0", "1"]
    assert lines[1].split("\t")[0] == "0"
    assert int(lines[1].split("\t")[1]) == 7  # points at zero distance both ways


def test_tutte_corank_nullity_lopsided_table(capsys, fig2):
    """A window of 3 rows by 6 columns prints row i as the cells (i, j)
    of the table, j = 0..5."""
    code, out, _ = run(capsys, "tutte", "--method", "corank-nullity",
                       "--bounds", "2,5", FIG2)
    assert code == 0
    table = tutte.corank_nullity(fig2, 2, 5)
    header, *rows = [line.split("\t") for line in out.strip().splitlines()]
    assert header == ["i\\j", *map(str, range(6))]
    assert rows == [[str(i), *(str(table[i, j]) for j in range(6))] for i in range(3)]


def test_hypertrees(capsys):
    code, out, _ = run(capsys, "hypertrees", FIG2)
    assert code == 0
    assert len(out.strip().splitlines()) == 7
    assert "0,0,1,1" in out


def test_jaeger(capsys):
    code, out, _ = run(capsys, "jaeger", FIG2)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert any(
        line.startswith("h=1,1,0,0 ") and "Int=e0,e2,e3" in line and "Ext=e0" in line
        for line in lines
    )


def test_jaeger_violet_variant(capsys):
    code, out, _ = run(capsys, "jaeger", "--variant", "violet", FIG2)
    assert code == 0
    assert len(out.strip().splitlines()) == 7


def test_tour(capsys):
    code, out, _ = run(capsys, "tour", "--tree", "0,2,5,6,7,8", FIG2)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 18
    assert lines[0] == "v0 0"
    assert lines[-1] == "e3 7"


def test_tour_dot(capsys):
    code, out, _ = run(capsys, "tour", "--tree", "0,2,5,6,7,8", "--dot", FIG2)
    assert code == 0
    assert out.startswith("graph tour {")
    assert 'style=solid' in out and 'style=dashed' in out


def test_tour_bad_tree(capsys):
    code, _, err = run(capsys, "tour", "--tree", "0,1", FIG2)
    assert code == 2
    code, _, err = run(capsys, "tour", "--tree", "zero", FIG2)
    assert code == 2
    for tree in ("0,1,2,4,5,-2", "0,1,2,4,5,99"):  # edge ids outside the edge list
        code, out, err = run(capsys, "tour", f"--tree={tree}", FIG2)
        assert code == 2, tree
        assert out == "" and "not a spanning tree" in err
    code, out, err = run(capsys, "tour", "--tree=0,0,1,2,4,5,7", FIG2)  # 0 twice
    assert code == 2
    assert out == "" and "--tree repeats an edge index" in err


@pytest.mark.parametrize("args", [
    ("tutte", "--method", "corank-nullity", "--bounds", "3"),
    ("tutte", "--method", "corank-nullity", "--bounds", "1,x"),
    ("crapo", "verify", "--box", "1"),
    ("crapo", "verify", "--box", "0,1,2"),
])
def test_integer_pair_flags_name_the_flag(capsys, args):
    code, out, err = run(capsys, *args, FIG2)
    assert code == 2
    assert out == ""
    assert f"{args[-2]} must be two comma-separated integers" in err


@pytest.mark.parametrize("argv", [
    ("tutte", "MISSING"),
    ("hypertrees", "MISSING"),
    ("jaeger", "MISSING"),
    ("tour", "--tree", "0", "MISSING"),
    ("crapo", "verify", "MISSING"),
    ("delta", "check", "--tree", TREE, "--bases", "MISSING"),
    ("delta", "check", "--tree", "MISSING", "--bases", BASES),
    ("delta", "obstruct", "MISSING"),
    ("conjecture", "violet-prime", "MISSING"),
], ids=["tutte", "hypertrees", "jaeger", "tour", "crapo-verify", "delta-check-bases",
        "delta-check-tree", "delta-obstruct", "conjecture"])
def test_missing_file_is_usage_error(capsys, tmp_path, argv):
    """Every subcommand that reads a file exits 2 on a missing one, prints
    nothing to stdout and names the file."""
    missing = str(tmp_path / "missing.hg")
    code, out, err = run(capsys, *(missing if arg == "MISSING" else arg for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing}: ")


def _unreadable(tmp_path, kind):
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "binary.hg"
    path.write_bytes(b"\xff\xfe\x00violet: 3\n")
    return str(path)


@pytest.mark.parametrize("kind, reason", [
    ("directory", "Is a directory"), ("binary", "'utf-8' codec can't decode byte 0xff")])
def test_unreadable_file_is_usage_error_naming_it(capsys, tmp_path, kind, reason):
    """A directory or a file that is not UTF-8, given as an instance, a
    polymatroid or a decision tree, exits 2 with the path in the error."""
    bad = _unreadable(tmp_path, kind)
    for argv in (["tutte", bad], ["conjecture", "violet-prime", FIG2, bad, "--trials", "0"],
                 ["delta", "check", "--tree", TREE, "--bases", bad],
                 ["delta", "check", "--tree", bad, "--bases", BASES]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: cannot read {bad}: ") and reason in err, argv


def test_declared_node_count_above_the_edges_is_refused_briefly(capsys, tmp_path):
    """100,000 declared violet nodes with one edge are refused as usage
    errors before a node name is listed: a connected graph on N nodes
    needs N - 1 edges."""
    path = tmp_path / "wide.hg"
    path.write_text("violet: 100000\nemerald: 1\nedges: [[0, 0]]\n"
                    "rotation:\n  v0: [0]\n  e0: [0]\nbasis: [v0, 0]\n")
    code, _, err = run(capsys, "tutte", str(path))
    assert code == 2
    assert "100001 nodes need at least 100000 edges" in err
    assert len(err) < 300


@pytest.mark.parametrize("box, points", [("-2,4", 2401), ("-1,3", 625)],
                         ids=["2401-points", "625-points"])
def test_crapo_verify_text(capsys, box, points):
    code, out, _ = run(capsys, "crapo", "verify", f"--box={box}", FIG2)
    assert code == 0
    assert "crapo-partition: PASS" in out
    assert f"points: {points}" in out


def test_crapo_verify_json_schema(capsys, schema):
    code, out, _ = run(capsys, "crapo", "verify", "--report", "json", FIG5)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["status"] == "PASS"


def test_crapo_verify_empty_box_is_usage_error(capsys):
    code, out, err = run(capsys, "crapo", "verify", "--box", "5,2", FIG2)
    assert code == 2
    assert "error:" in err
    assert "PASS" not in out


def test_crapo_verify_has_no_jobs_option(capsys):
    """The listing runs in one process, so ``crapo verify`` takes no
    ``--jobs``."""
    with pytest.raises(SystemExit) as exc:
        main(["crapo", "verify", "--jobs", "2", FIG1])
    assert exc.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--box=5,2"])
def test_crapo_verify_usage_error_before_graph_work(capsys, monkeypatch, flag):
    def refuse(g):
        raise AssertionError("embedding_assignment called")

    monkeypatch.setattr(crapo, "embedding_assignment", refuse)
    code, out, err = run(capsys, "crapo", "verify", flag, FIG1)
    assert code == 2
    assert out == ""
    assert "error:" in err


def refused_delta_check(capsys, tree, bases) -> str:
    """``delta check`` on the files ``tree`` and ``bases``: a usage error
    (exit 2) that prints nothing to stdout; its stderr."""
    code, out, err = run(capsys, "delta", "check", "--tree", str(tree), "--bases", str(bases))
    assert (code, out) == (2, "")
    return err


def test_delta_check_bases_without_bases_is_usage_error(capsys, tmp_path):
    bases = tmp_path / "broken.matroid"
    bases.write_text("ground: [a, b, c]\n", encoding="utf-8")
    err = refused_delta_check(capsys, TREE, bases)
    assert err == f"error: invalid bases {bases}: missing keys: ['bases']\n"


def test_delta_check_bases_breaking_exchange_is_usage_error(capsys, tmp_path):
    bases = tmp_path / "no_exchange.matroid"
    bases.write_text("ground: [a, b]\nbases: [[2, 0], [0, 2]]\n", encoding="utf-8")
    err = refused_delta_check(capsys, TREE, bases)
    assert err.startswith(f"error: invalid bases {bases}: exchange axiom fails")


@pytest.mark.parametrize("text, message", [
    ("ground: [a, b, b]\nbases: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n", "distinct"),
    ("ground: [a, b, c]\nbases: [[-1, 2, 0], [0, 1, 0]]\n", "non-negative"),
], ids=["repeated-name", "negative-coordinate"])
def test_delta_check_bad_bases_is_usage_error(capsys, tmp_path, text, message):
    bases = tmp_path / "bad.matroid"
    bases.write_text(text, encoding="utf-8")
    err = refused_delta_check(capsys, TREE, bases)
    assert err.startswith(f"error: invalid bases {bases}: ")
    assert message in err


def test_delta_check_bad_tree_is_usage_error(capsys, tmp_path):
    """A malformed decision tree is named in the error, as a malformed
    base set is."""
    tree = tmp_path / "unlabeled.tree"
    tree.write_text("children: []\n", encoding="utf-8")
    err = refused_delta_check(capsys, tree, BASES)
    assert err == f"error: invalid decision tree {tree}: missing keys: ['label']\n"


def test_delta_check_invalid_tree_names_the_file(capsys, tmp_path):
    """A decision tree that parses but does not fit the base set is named
    in the error too: its node ``a`` of rank 1 needs two children."""
    tree = tmp_path / "short.tree"
    tree.write_text("label: a\nchildren:\n  - label: b\n", encoding="utf-8")
    err = refused_delta_check(capsys, tree, BASES)
    assert err == f"error: invalid decision tree {tree}: node 'a' needs 2 children, has 1\n"


def test_delta_check(capsys, schema):
    code, out, _ = run(
        capsys, "delta", "check",
        "--tree", TREE,
        "--bases", BASES,
    )
    assert code == 0
    assert "b=0,1,1 order=a<b<c" in out
    assert "delta-crapo: PASS" in out


def test_delta_obstruct(capsys):
    code, out, _ = run(capsys, "delta", "obstruct", "--from", "embedding", FIG5)
    assert code == 0
    assert out.strip() == "NO_EXEMPT"


def test_delta_obstruct_refuses_other_sources(capsys):
    """``--from`` takes ``embedding`` alone: any other source is a usage
    error that prints nothing."""
    with pytest.raises(SystemExit) as exc:
        main(["delta", "obstruct", "--from", "orders", FIG5])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "invalid choice: 'orders'" in err


def test_conjecture_report_json(capsys, schema):
    code, out, _ = run(capsys, "conjecture", "violet-prime", FIG2,
                       "--trials", "5", "--seed", "0", "--report", "json")
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["verdict"] == "EQUAL"
    assert report["checked"] == 6


def test_conjecture_deterministic(capsys):
    a = run(capsys, "conjecture", "violet-prime", "--trials", "8", "--seed", "2")
    b = run(capsys, "conjecture", "violet-prime", "--trials", "8", "--seed", "2")
    assert a == b


@pytest.mark.parametrize("argv", [
    ("--trials", "-1"),
    (FIG2, "--trials", "-1"),
    ("--trials", "0"),
], ids=["negative", "negative-with-instance", "zero-without-instance"])
def test_conjecture_refuses_to_check_nothing(capsys, argv):
    code, out, err = run(capsys, "conjecture", "violet-prime", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_conjecture_instances_before_or_after_options(capsys):
    before = run(capsys, "conjecture", "violet-prime", FIG2, FIG5, "--trials", "1",
                 "--report", "json")
    after = run(capsys, "conjecture", "violet-prime", "--trials", "1", FIG2,
                "--report", "json", FIG5)
    assert before[0] == after[0] == 0
    assert before == after
    assert json.loads(after[1])["checked"] == 3


def test_conjecture_unknown_option_after_instance(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conjecture", "violet-prime", "--trials", "1", FIG2, "--bogus"])
    assert exc.value.code == 2
    assert "unrecognized arguments: " in capsys.readouterr().err


def test_conjecture_zero_trials_with_instance(capsys):
    code, out, _ = run(capsys, "conjecture", "violet-prime", FIG2,
                       "--trials", "0", "--report", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "EQUAL"
    assert report["checked"] == 1


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "hypertutte", "fixtures", "list"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == fixture_names()


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [["hypertrees", FIG1],
                                  ["crapo", "verify", FIG1, "--report", "json"]])
def test_closed_stdout_is_not_an_input_error(argv, buffered):
    """Writing to a pipe whose reader has gone, as under ``| head``, is
    no usage error: exit 141 (128 + SIGPIPE) with nothing on stderr,
    whether stdout is flushed at each write or only at the end."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        done = subprocess.run([sys.executable, "-m", "hypertutte", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


@pytest.mark.parametrize("kind", ["tree", "hg", "hg-100000"])
def test_deeply_nested_yaml_is_usage_error(tmp_path, kind):
    """A decision tree nested 1,000 deep and an instance whose edges are a
    list nested 2,000 or 100,000 deep overflow the YAML parser's
    recursion: exit 2 with an error line, not a traceback.  libyaml's C
    loader kills the interpreter with SIGSEGV on the 100,000-deep list,
    so a switch to it fails here (see ``model.yaml_mapping``)."""
    if kind == "tree":
        text = "{label: a, children: [" * 1000 + "{label: a}" + "]}" * 1000 + "\n"
        path = tmp_path / "deep.tree"
        argv = ["delta", "check", "--tree", str(path),
                "--bases", BASES]
    else:
        depth = 100_000 if kind == "hg-100000" else 2000
        deep = "edges: " + "[" * depth + "]" * depth
        text = "".join(deep + "\n" if line.startswith("edges:") else line
                       for line in fixture_path("fig2.hg").read_text().splitlines(True))
        path = tmp_path / "deep.hg"
        argv = ["tutte", str(path)]
    path.write_text(text, encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "hypertutte", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


def test_fixtures_list_and_emit(capsys):
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == 0
    names = out.strip().splitlines()
    assert len(names) == 8
    assert "fig2.hg" in names
    code, out, _ = run(capsys, "fixtures", "emit", "fig2.hg")
    assert code == 0
    assert out == fixture_path("fig2.hg").read_text()


def test_fixtures_list_takes_no_name(capsys):
    """``fixtures list`` with a name is refused, not read as a plain list."""
    code, out, err = run(capsys, "fixtures", "list", "fig1.hg")
    assert (code, out) == (2, "")
    assert err == "error: fixtures list takes no name\n"


def test_fixtures_emit_requires_name(capsys, tmp_path):
    """Only a bundled fixture's name is emitted: an absolute path, or one
    that climbs out of the fixture folder, is no fixture name."""
    outside = tmp_path / "outside.hg"
    outside.write_text("not a fixture\n")
    code, _, err = run(capsys, "fixtures", "emit")
    assert code == 2
    for name in ("nope.hg", str(outside), "../cli.py"):
        code, out, err = run(capsys, "fixtures", "emit", name)
        assert (code, out) == (2, ""), name
        assert "no fixture named" in err


GOLDEN = Path(__file__).with_name("data") / "cli_golden.txt"


def _golden_commands():
    for name in ("fig1.hg", "fig2.hg", "fig4.hg", "fig5.hg"):
        yield ("tutte", name)
        yield ("tutte", "--method", "fixed", name)
        yield ("tutte", "--method", "corank-nullity", name)
        yield ("hypertrees", name)
        yield ("jaeger", name)
        yield ("jaeger", "--variant", "violet", name)
        yield ("crapo", "verify", name)
        yield ("crapo", "verify", "--report", "json", name)
        yield ("delta", "obstruct", "--from", "embedding", name)
    yield ("delta", "check", "--tree", "delta_fig.tree", "--bases", "delta_fig.matroid")
    yield ("conjecture", "violet-prime", "--trials", "30", "--report", "json")


def cli_transcript() -> str:
    """Stdout and exit code of every golden command, bundled fixture
    names resolved to their paths but printed as names."""
    fixtures = set(fixture_names())
    parts = []
    for argv in _golden_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(fixture_path(a)) if a in fixtures else a for a in argv])
        parts.append(f"$ hypertutte {' '.join(argv)}\n{out.getvalue()}[exit {code}]\n")
    return "".join(parts)


def test_golden_transcript():
    """Byte-for-byte CLI output of the figures.  Regenerate only for an
    intended output change:
    PYTHONPATH=src:tests python -c "import test_cli as t;
    t.GOLDEN.write_text(t.cli_transcript(), encoding='utf-8')"
    """
    assert cli_transcript() == GOLDEN.read_text(encoding="utf-8")
