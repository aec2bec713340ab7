"""Write ``expected.json``: the outputs the checks compare against.

Usage, from the repository root:

    PYTHONPATH=src:perfbench python3 perfbench/record_expected.py

Every recorded value is independent of the run seed: polynomials,
hypertree and spanning-tree counts depend only on the underlying graph,
and the lattice-certify inputs are fixed.  Re-record only when a change
is meant to alter these outputs, and say so where the change is
described.
"""

from __future__ import annotations

import json

from hypertutte import crapo, delta, tutte

import workloads
from workloads import WORKLOADS, embedding_assignment


def _graph_values(g) -> dict:
    return {
        "hypertrees": len(workloads.hypertree_set(g)),
        "spanning_trees": workloads.spanning_tree_count(g),
        "poly": str(tutte.tutte_embedding(g)),
    }


def record() -> dict:
    kab = WORKLOADS["kab-ladder"]
    kab_values = {}
    for item in kab.build(0):
        kab_values.setdefault(item.tag, _graph_values(item.g))

    sweep = WORKLOADS["conjecture-sweep"]
    sweep_values = [_graph_values(item.g) for item in sweep.build(0)]

    lattice = WORKLOADS["lattice-certify"]
    lattice_values = {}
    for item in lattice.build(0):
        P, assignment = embedding_assignment(item.g)
        entry = {
            "hypertrees": len(workloads.hypertree_set(item.g)),
            "crapo_points": crapo.verify_crapo_partition(item.g)["points"],
            "delta_crapo_points": delta.crapo_verify(P, assignment)["points"],
        }
        if item.search:
            found = delta.exhaustive_delta_search(P, assignment)
            entry["delta_search"] = "found" if found is not None else "none"
        lattice_values[item.tag] = entry

    return {
        "kab-ladder": kab_values,
        "conjecture-sweep": sweep_values,
        "lattice-certify": lattice_values,
    }


if __name__ == "__main__":
    text = json.dumps(record(), indent=1, sort_keys=True) + "\n"
    workloads.EXPECTED_PATH.write_text(text, encoding="utf-8")
