"""Command-line interface.

Subcommands: tutte, hypertrees, jaeger, tour, crapo, delta, conjecture,
fixtures.  Exit codes: 0 success or PASS, 1 verification failure (or a
conjecture counterexample under --strict), 2 usage or input errors.
Every usage or input error is a ValueError or OSError (naming the file
it is about, :func:`_load`) that :func:`main` alone reports, exit 2.
All output is deterministic; randomized commands take an explicit
--seed and default to a fixed constant.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from . import fixture_names, fixture_path
from .model import emerald, load
from . import tours, hypertrees, polymatroid, jaeger, tutte, crapo, delta, harness


def _load(path, parse=load, noun="instance"):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read {path}: {exc}") from None
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"invalid {noun} {path}: {exc}") from None


def _pair(flag: str, text: str) -> tuple:
    try:
        first, second = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be two comma-separated integers, not {text!r}") from None
    return first, second


def _fmt_h(h) -> str:
    return ",".join(str(x) for x in h)


def _print_poly(poly) -> None:
    """``print(poly)``, written a thousand terms at a time so that the
    whole text is never held."""
    texts, sep = poly.term_texts(), ""
    while chunk := " ".join(islice(texts, 1000)):
        sys.stdout.write(sep + chunk)
        sep = " "
    sys.stdout.write("\n")


def _cmd_tutte(args) -> int:
    if args.order is not None and args.method != "fixed":
        raise ValueError("--order needs --method fixed")
    if args.bounds is not None and args.method != "corank-nullity":
        raise ValueError("--bounds needs --method corank-nullity")
    g = _load(args.instance)
    if args.method == "embedding":
        _print_poly(tutte.tutte_embedding(g))
    elif args.method == "fixed":
        if args.order is not None:
            order = tuple(args.order.split(","))
        else:
            order = tuple(emerald(j) for j in range(g.emerald_count))
        _print_poly(tutte.tutte_from_order(g, order))
    else:  # corank-nullity
        imax, jmax = _pair("--bounds", args.bounds) if args.bounds is not None else (3, 3)
        table = tutte.corank_nullity(g, imax, jmax)
        print("i\\j\t" + "\t".join(str(j) for j in range(jmax + 1)))
        for i in range(imax + 1):
            print(str(i) + "\t" + "\t".join(
                str(table[i, j]) for j in range(jmax + 1)))
    return 0


def _cmd_hypertrees(args) -> int:
    g = _load(args.instance)
    for h in hypertrees.enumerate_hypertrees(g):
        print(_fmt_h(h))
    return 0


def _cmd_jaeger(args) -> int:
    g = _load(args.instance)
    found = hypertrees.jaeger_trees(g, args.variant)
    order_map = hypertrees.orders(g, "embedding" if args.variant == "emerald" else "violet-prime")
    P = polymatroid.bases_from_hypertrees(g)
    for h, rec in polymatroid.assignment_from_orders(P, order_map).items():
        print(
            f"h={_fmt_h(h)} tree={','.join(map(str, found[h][0]))} "
            f"order={'<'.join(order_map[h])} "
            f"Int={','.join(polymatroid.names(P, rec.internal))} "
            f"Ext={','.join(polymatroid.names(P, rec.external))}"
        )
    return 0


def _cmd_tour(args) -> int:
    g = _load(args.instance)
    try:
        ids = [int(k) for k in args.tree.split(",")]
    except ValueError:
        raise ValueError("--tree must be comma-separated edge indices") from None
    tree = frozenset(ids)
    if len(tree) != len(ids):
        raise ValueError("--tree repeats an edge index")
    if not tours.is_spanning_tree(g, tree):
        raise ValueError("--tree is not a spanning tree of the instance")
    if args.dot:
        print("graph tour {")
        for k, (v, e) in enumerate(g.edges):
            style = "solid" if k in tree else "dashed"
            print(f'  "{v}" -- "{e}" [label="{k}", style={style}];')
        print("}")
        return 0
    for node, edge in tours.tour(g, tree):
        print(f"{node} {edge}")
    return 0


def _emit_report(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        status = report.get("status") or report.get("verdict")
        print(f"{report['kind']}: {status}")
        for key in ("points", "hypertrees", "checked"):
            if key in report:
                print(f"  {key}: {report[key]}")
        for violation in report.get("violations", [])[:20]:
            print(f"  violation: {violation}")


def _cmd_crapo(args) -> int:
    g = _load(args.instance)
    box = [_pair("--box", args.box)] * g.emerald_count if args.box else None
    report = crapo.verify_crapo_partition(g, box=box)
    _emit_report(report, args.report == "json")
    return 0 if report["status"] == "PASS" else 1


def _cmd_delta(args) -> int:
    if args.action == "check":
        P = _load(args.bases, polymatroid.load_bases, "bases")
        dtree = _load(args.tree, lambda text: delta.validate_decision_tree(
            delta.load_decision_tree(text), P), "decision tree")
        assignment = delta.assignment_from_delta(dtree, P)
        for b, rec in assignment.items():
            nontrivial = rec.nontrivial_internal | rec.nontrivial_external
            print(
                f"b={_fmt_h(b)} order={'<'.join(delta.order_of_basis(dtree, P, b))} "
                f"Int={','.join(sorted(polymatroid.names(P, rec.internal)))} "
                f"Ext={','.join(sorted(polymatroid.names(P, rec.external)))} "
                f"nontrivial={','.join(sorted(polymatroid.names(P, nontrivial)))}"
            )
        report = delta.crapo_verify(P, assignment)
        _emit_report(report, args.report == "json")
        return 0 if report["status"] == "PASS" else 1
    # obstruct
    g = _load(args.instance)
    P, assignment = jaeger.embedding_assignment(g)
    verdict, element = delta.obstruction_check(P, assignment)
    print(verdict if element is None else f"{verdict} {element}")
    return 0


def _cmd_conjecture(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be at least 0, not {args.trials}")
    if not args.instances and not args.trials:
        raise ValueError("nothing to check: give instance files or --trials of at least 1")
    reports = []
    for path in args.instances:
        report = harness.test_violet_prime(_load(path))
        report["instance_path"] = path
        reports.append(report)
    reports.extend(harness.random_reports(harness.test_violet_prime, args.trials, args.seed))
    counterexamples = [r for r in reports if r["verdict"] != "EQUAL"]
    summary = {
        "kind": "violet-prime-summary",
        "verdict": "COUNTEREXAMPLE" if counterexamples else "EQUAL",
        "checked": len(reports),
        "counterexamples": counterexamples,
    }
    _emit_report(summary, args.report == "json")
    return 1 if counterexamples and args.strict else 0


def _cmd_fixtures(args) -> int:
    if args.action == "list":
        if args.name is not None:
            raise ValueError("fixtures list takes no name")
        for name in fixture_names():
            print(name)
        return 0
    if not args.name:
        raise ValueError("fixtures emit requires a name")
    sys.stdout.write(fixture_path(args.name).read_text(encoding="utf-8"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertutte",
        description="Tutte polynomials of hypergraphs via embedding activities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tutte", help="compute the Tutte polynomial")
    p.add_argument("--method", choices=("embedding", "fixed", "corank-nullity"),
                   default="embedding")
    p.add_argument("--order", help="emerald order for --method fixed, e.g. e1,e0")
    p.add_argument("--bounds", help="I,J window for --method corank-nullity")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_tutte)

    p = sub.add_parser("hypertrees", help="list all hypertrees")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_hypertrees)

    p = sub.add_parser("jaeger", help="list Jaeger trees, orders and activities")
    p.add_argument("--variant", choices=("emerald", "violet"), default="emerald")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_jaeger)

    p = sub.add_parser("tour", help="print the tour of a spanning tree")
    p.add_argument("--tree", required=True, help="comma-separated edge indices")
    p.add_argument("--dot", action="store_true", help="emit a dot drawing instead")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_tour)

    p = sub.add_parser("crapo", help="verify the Crapo partition on a box")
    p.add_argument("action", choices=("verify",))
    p.add_argument("--box", help="lo,hi applied to every coordinate")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_crapo)

    p = sub.add_parser("delta", help="decision-tree activities")
    dsub = p.add_subparsers(dest="action", required=True)
    pc = dsub.add_parser("check", help="validate a decision tree and verify")
    pc.add_argument("--tree", required=True)
    pc.add_argument("--bases", required=True)
    pc.add_argument("--report", choices=("text", "json"), default="text")
    po = dsub.add_parser("obstruct", help="realizability obstruction check")
    po.add_argument("--from", dest="source", choices=("embedding",), default="embedding")
    po.add_argument("instance")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("conjecture", help="test the violet-prime conjecture")
    p.add_argument("variant", choices=("violet-prime",))
    p.add_argument("instances", nargs="*", help="instance files to test first")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("fixtures", help="bundled example instances")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if args.command == "conjecture" and not any(arg.startswith("-") for arg in extra):
        args.instances += extra  # instance files may also follow the options
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
