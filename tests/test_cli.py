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


def test_missing_file_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["tutte", "/nonexistent.hg"])
    assert info.value.code == 2


def test_declared_node_count_above_the_edges_is_refused_briefly(capsys, tmp_path):
    """100,000 declared violet nodes with one edge are refused as usage
    errors before a node name is listed: a connected graph on N nodes
    needs N - 1 edges."""
    path = tmp_path / "wide.hg"
    path.write_text("violet: 100000\nemerald: 1\nedges: [[0, 0]]\n"
                    "rotation:\n  v0: [0]\n  e0: [0]\nbasis: [v0, 0]\n")
    with pytest.raises(SystemExit) as info:
        main(["tutte", str(path)])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert "100001 nodes need at least 100000 edges" in err
    assert len(err) < 300


def test_crapo_verify_text(capsys):
    code, out, _ = run(capsys, "crapo", "verify", "--box=-2,4", FIG2)
    assert code == 0
    assert "crapo-partition: PASS" in out
    assert "points: 2401" in out


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


def test_delta_check_bases_without_bases_is_usage_error(capsys, tmp_path):
    bases = tmp_path / "broken.matroid"
    bases.write_text("ground: [a, b, c]\n", encoding="utf-8")
    code, out, err = run(
        capsys, "delta", "check",
        "--tree", str(fixture_path("delta_fig.tree")), "--bases", str(bases),
    )
    assert code == 2
    assert "missing keys" in err


def test_delta_check_bases_breaking_exchange_is_usage_error(capsys, tmp_path):
    bases = tmp_path / "no_exchange.matroid"
    bases.write_text("ground: [a, b]\nbases: [[2, 0], [0, 2]]\n", encoding="utf-8")
    code, out, err = run(
        capsys, "delta", "check",
        "--tree", str(fixture_path("delta_fig.tree")), "--bases", str(bases),
    )
    assert code == 2
    assert out == ""
    assert "exchange axiom fails" in err


@pytest.mark.parametrize("text, message", [
    ("ground: [a, b, b]\nbases: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n", "distinct"),
    ("ground: [a, b, c]\nbases: [[-1, 2, 0], [0, 1, 0]]\n", "non-negative"),
], ids=["repeated-name", "negative-coordinate"])
def test_delta_check_bad_bases_is_usage_error(capsys, tmp_path, text, message):
    bases = tmp_path / "bad.matroid"
    bases.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, "delta", "check",
        "--tree", str(fixture_path("delta_fig.tree")), "--bases", str(bases),
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_crapo_verify_parallel(capsys):
    code, out, _ = run(capsys, "crapo", "verify", "--box=-1,3", FIG2)
    assert code == 0
    assert "PASS" in out


def test_delta_check(capsys, schema):
    code, out, _ = run(
        capsys, "delta", "check",
        "--tree", str(fixture_path("delta_fig.tree")),
        "--bases", str(fixture_path("delta_fig.matroid")),
    )
    assert code == 0
    assert "b=0,1,1 order=a<b<c" in out
    assert "delta-crapo: PASS" in out


def test_delta_obstruct(capsys):
    code, out, _ = run(capsys, "delta", "obstruct", "--from", "embedding", FIG5)
    assert code == 0
    assert out.strip() == "NO_EXEMPT"


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


@pytest.mark.parametrize("kind", ["tree", "hg"])
def test_deeply_nested_yaml_is_usage_error(tmp_path, kind):
    """A decision tree nested 1,000 deep and an instance whose edges are a
    list nested 2,000 deep overflow the YAML parser's recursion: exit 2
    with an error line, not a traceback."""
    if kind == "tree":
        text = "{label: a, children: [" * 1000 + "{label: a}" + "]}" * 1000 + "\n"
        argv = ["delta", "check", "--tree", str(tmp_path / "deep.tree"),
                "--bases", str(fixture_path("delta_fig.matroid"))]
    else:
        deep = "edges: " + "[" * 2000 + "]" * 2000
        text = "".join(deep + "\n" if line.startswith("edges:") else line
                       for line in fixture_path("fig2.hg").read_text().splitlines(True))
        argv = ["tutte", str(tmp_path / "deep.hg")]
    (tmp_path / f"deep.{kind}").write_text(text, encoding="utf-8")
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
