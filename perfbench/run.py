"""hypertutte benchmark: one workload, one seed, a fixed measuring time.

Usage, from the repository root:

    python3 perfbench/run.py --workload kab-ladder --seed 1 --seconds 40 --trace 0

Every pass runs one workload's whole input set in a fresh interpreter
(``worker.py``), one pass at a time, so that the library's caches start
empty and are never cleared inside a pass.  Passes repeat until the next
one would overrun ``--seconds``; set-up is sampled in separate
interpreters too.  Each pass checks all of its outputs.  Times are
reported in reference seconds (``speed.py``), which cancel the drift of
the shared host's speed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe
the run.  The exit code is 1 when any output check failed and 2 when the
library's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("kab-ladder", "conjecture-sweep", "lattice-certify")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run, its set-up and all of its passes end within this

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "polys_per_s": "1/s",
    "item_s_p50": "s",
    "item_s_p90": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; values come from per_layer_metrics()
PER_LAYER_UNITS = {
    "tours.spanning_trees": "count",
    "tours.spanning_trees_s": "s",
    "tours.tour_calls": "count",
    "hypertrees.representatives_calls": "count",
    "hypertrees.representatives_s": "s",
    "hypertrees.oracle_calls": "count",
    "hypertrees.oracle_s": "s",
    "hypertrees.oracle_yes_ratio": "ratio",
    "hypertrees.count": "count",
    "hypertrees.enumerate_s": "s",
    "jaeger.tree_calls": "count",
    "jaeger.tree_s": "s",
    "jaeger.candidates_checked": "count",
    "jaeger.filter_yield": "ratio",
    "jaeger.activities_calls": "count",
    "jaeger.activities_s": "s",
    "jaeger.order_s": "s",
    "polynomial.ops": "count",
    "polynomial.s": "s",
    "tutte.embedding_s": "s",
    "tutte.corank_nullity_s": "s",
    "tutte.box_points": "count",
    "harness.violet_prime_s": "s",
    "harness.violet_s": "s",
    "harness.counterexamples": "count",
    "crapo.verify_s": "s",
    "crapo.points": "count",
    "crapo.points_per_s": "1/s",
    "crapo.intervals_s": "s",
    "delta.crapo_s": "s",
    "delta.crapo_points": "count",
    "delta.polymatroid_s": "s",
    "delta.search_s": "s",
    "delta.dtrees_tried": "count",
    "delta.dtrees_per_s": "1/s",
    "model.build_calls": "count",
    "model.build_s": "s",
    "trace.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

# self-time metrics: metric -> the traced functions whose self time it sums
SELF_TIME = {
    "tours.spanning_trees_s": ("tours.enumerate_spanning_trees",),
    "hypertrees.representatives_s": ("hypertrees.representatives",),
    "hypertrees.oracle_s": ("hypertrees.is_hypertree",),
    "hypertrees.enumerate_s": ("hypertrees.enumerate_hypertrees", "hypertrees.all_spanning_trees"),
    "jaeger.tree_s": ("jaeger.jaeger_tree_of", "jaeger.violet_jaeger_tree_of"),
    "jaeger.activities_s": ("jaeger.activities", "jaeger.embedding_activities"),
    "jaeger.order_s": ("jaeger.order_emerald", "jaeger.order_violet", "jaeger.order_violet_prime"),
    "polynomial.s": tuple(
        f"polynomial.Poly.{op}"
        for op in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__")
    ),
    "tutte.embedding_s": ("tutte.tutte_embedding",),
    "tutte.corank_nullity_s": ("tutte.corank_nullity",),
    "harness.violet_prime_s": ("harness.test_violet_prime", "harness.violet_prime_polynomial"),
    "harness.violet_s": ("harness.test_violet", "harness.violet_polynomial"),
    "crapo.verify_s": ("crapo.verify_crapo_partition",),
    "crapo.intervals_s": ("crapo.crapo_interval",),
    "delta.crapo_s": ("delta.crapo_verify",),
    "delta.polymatroid_s": ("delta.bases_from_hypertrees",),
    "delta.search_s": ("delta.exhaustive_delta_search",),
    "model.build_s": ("model.RibbonGraph.build",),
}

# call and yield counts: metric -> (field, traced functions)
CALL_COUNTS = {
    "tours.spanning_trees": ("yields", ("tours.enumerate_spanning_trees",)),
    "tours.tour_calls": ("calls", ("tours.tour",)),
    "hypertrees.representatives_calls": ("calls", ("hypertrees.representatives",)),
    "hypertrees.oracle_calls": ("calls", ("hypertrees.is_hypertree",)),
    "jaeger.tree_calls": ("calls", SELF_TIME["jaeger.tree_s"]),
    "jaeger.candidates_checked": ("calls", ("jaeger.is_jaeger", "jaeger.is_violet_jaeger")),
    "jaeger.activities_calls": ("calls", ("jaeger.activities",)),
    "polynomial.ops": ("calls", SELF_TIME["polynomial.s"]),
    "delta.dtrees_tried": ("yields", ("delta.enumerate_decision_trees",)),
    "model.build_calls": ("calls", ("model.RibbonGraph.build",)),
}

# counts a pass derives from its outputs rather than from the wrappers
OUTPUT_COUNTS = (
    "hypertrees.count",
    "tutte.box_points",
    "harness.counterexamples",
    "crapo.points",
    "delta.crapo_points",
)


class PassFailed(RuntimeError):
    """A worker exited abnormally or printed no result."""


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker to completion and return its result."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {' | '.join(tail)}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise PassFailed(f"{mode} pass printed no result: {lines[-1][:200]}") from exc


def per_layer_metrics(result: dict) -> dict:
    """Per-layer values of one traced pass."""
    stats = result["trace"]["stats"]

    def total(field, keys):
        return sum(stats.get(k, {}).get(field, 0) for k in keys)

    values = {name: total("self_s", keys) for name, keys in SELF_TIME.items()}
    values.update({name: total(field, keys) for name, (field, keys) in CALL_COUNTS.items()})
    values.update({name: result["counts"].get(name, 0) for name in OUTPUT_COUNTS})

    def ratio(num, den):
        return num / den if den else 0.0

    values["hypertrees.oracle_yes_ratio"] = ratio(
        total("yes", ("hypertrees.is_hypertree",)), values["hypertrees.oracle_calls"]
    )
    values["jaeger.filter_yield"] = ratio(
        values["jaeger.tree_calls"], values["jaeger.candidates_checked"]
    )
    values["crapo.points_per_s"] = ratio(values["crapo.points"], values["crapo.verify_s"])
    values["delta.dtrees_per_s"] = ratio(values["delta.dtrees_tried"], values["delta.search_s"])
    # self times partition the entry spans; spans without an item are set-up
    in_items = sum(end - start for item, _, start, end in result["trace"]["spans"] if item is not None)
    values["trace.self_share"] = ratio(in_items, result["wall_s"])
    return values


def module_self_times(result: dict) -> dict:
    """Self time per library module in one traced pass."""
    modules = {}
    for key, s in result["trace"]["stats"].items():
        module = key.split(".")[0]
        modules[module] = modules.get(module, 0.0) + s["self_s"]
    return modules


def absent_metrics(absent: list) -> list:
    """Per-layer metrics all of whose traced functions are gone."""
    gone = set(absent)
    sources = dict(SELF_TIME)
    sources.update({name: keys for name, (_, keys) in CALL_COUNTS.items()})
    return sorted(name for name, keys in sources.items() if set(keys) <= gone)


def median_of(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def end_to_end_metrics(setups: list, timed: list, key: str = "item_ref_s") -> dict:
    """An item's time is its median over the passes; the input set's time
    is the sum of these, and the item percentiles are taken over them,
    since single short items vary by a fifth from pass to pass.  Item
    times are read from ``key``: reference seconds by default."""
    per_item = [statistics.median(times) for times in zip(*(p[key] for p in timed))]
    wall_s = sum(per_item)
    checked = min(p["attempted"] - p["failed"] for p in timed)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "polys_per_s": checked / wall_s,
        "item_s_p50": statistics.median(per_item),
        "item_s_p90": statistics.quantiles(per_item, n=10, method="inclusive")[8],
        "peak_rss_mb": median_of(timed, "peak_rss_mb"),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Set-up samples, then rounds of passes until the next round would
    overrun ``seconds``.  Returns (set-up times, timed passes, traced
    passes, errors)."""
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    deadline = start + seconds
    modes = ("timed", "traced") if trace else ("timed",)
    setups, timed, traced, errors = [], [], [], []
    try:
        for _ in range(SETUP_SAMPLES):
            setups.append(run_pass(workload, seed, "setup", hard_deadline)["setup_ref_s"])
        while True:
            round_start = time.monotonic()
            for mode in modes:
                result = run_pass(workload, seed, mode, hard_deadline)
                (traced if mode == "traced" else timed).append(result)
            if time.monotonic() + (time.monotonic() - round_start) > deadline:
                break
    except PassFailed as exc:
        errors.append(str(exc))
    return setups + [p["setup_ref_s"] for p in timed], timed, traced, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypertutte" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2

    setups, timed, traced, errors = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    passes = timed + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if errors or not timed or (args.trace and not traced):
        failed += 1
        attempted += 1  # the pass that broke off counts as one failed item

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": {"timed": len(timed), "traced": len(traced), "setup_samples": len(setups)},
        "failed_frac": {"failed": failed, "attempted": attempted,
                        "value": failed / attempted if attempted else 1.0},
        "errors": errors,
        "problems": sorted({t for p in passes for t in p["problems"]})[:20],
    }
    metrics = {}
    if timed:
        first = timed[0]
        detail["item_samples"] = {"items": len(first["item_s"]), "passes": len(timed)}
        detail["coverage"] = first["coverage"]
        detail["counts"] = first["counts"]
        detail["skipped"] = first["skipped"]
        values = end_to_end_metrics(setups, timed)
        detail["end_to_end"] = values
        detail["measured_wall_s"] = end_to_end_metrics(setups, timed, "item_s")["wall_s"]
        detail["speed_samples"] = sum(p["speed_samples"] for p in timed)
        if "lattice.points" in first["counts"]:
            detail["points_per_s"] = first["counts"]["lattice.points"] / values["wall_s"]
        if not args.trace:
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    if args.trace and traced and timed:
        layer = [per_layer_metrics(p) for p in traced]
        values = {name: statistics.median(v[name] for v in layer) for name in layer[0]}
        values["trace.overhead_ratio"] = median_of(traced, "wall_s") / median_of(timed, "wall_s")
        absent = sorted({k for p in traced for k in p["trace"]["absent"]})
        detail["absent_functions"] = absent
        detail["absent_metrics"] = absent_metrics(absent)
        detail["module_self_s"] = module_self_times(traced[0])
        detail["traced_wall_s"] = traced[0]["wall_s"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}

    if timed or traced:
        detail["passes_file"] = write_passes(args.workload, args.seed, args.trace, timed, traced)
    print(json.dumps(detail, indent=1))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def write_passes(workload: str, seed: int, trace: int, timed: list, traced: list) -> str:
    """Write every pass's item times and the traced passes' entry-point
    spans to the output directory; return the file's path."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    fields = ("trace_id", "name", "start", "end")
    data = {
        "items": (timed or traced)[0]["items"],
        "timed_item_s": [p["item_s"] for p in timed],
        "timed_item_ref_s": [p["item_ref_s"] for p in timed],
        "traced_item_s": [p["item_s"] for p in traced],
        "spans": [[dict(zip(fields, span)) for span in p["trace"]["spans"]] for p in traced],
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
