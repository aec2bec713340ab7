"""Byte-identity guard: both variants' tour-search tables and the rendered
embedding, violet-prime and violet polynomials, hashed over the fixtures,
``harness.random_instance`` seeds 0-149, a seeded K4,4 and seeded
K4,5, K5,5, K6,6, K4,8 and K3,12, the corank-nullity tables of the
fixtures and those seeds at five windows, the fixed-order
polynomials of all these graphs under the index order and under one
seeded shuffled order each, and the violet-prime and violet reports of
the fixtures, the frozen violet counterexample, seeds 0-299 and the
seeded K_{a,b}, must match the digests recorded in
``tests/data/outputs.sha256``.  A speed-up of the search, the
activities, the assembly, the slices, the lattice walk or the
conjecture checks must leave every one unchanged.

To re-record after a deliberate change of output, run
``PYTHONPATH=src:tests python tests/test_outputs.py`` and say why."""

import hashlib
import json
import random
from pathlib import Path

from hypertutte import fixture_path, harness, load_path
from hypertutte.harness import random_instance
from hypertutte.hypertrees import jaeger_trees, orders
from hypertutte.polymatroid import bases_from_hypertrees
from hypertutte.tutte import corank_nullity, tutte_embedding, tutte_from_order, tutte_sum
from oracles import perturbed
from test_oracle import complete_bipartite

DIGESTS = Path(__file__).resolve().parent / "data" / "outputs.sha256"


def digest(graphs) -> str:
    sha = hashlib.sha256()
    for g in graphs:
        for variant in ("emerald", "violet"):
            sha.update(repr(sorted(jaeger_trees(g, variant).items())).encode())
        violets = [tutte_sum(g, orders(g, kind)) for kind in ("violet-prime", "violet")]
        for poly in [tutte_embedding(g), *violets]:
            sha.update(f"\n{poly}\n".encode())
    return sha.hexdigest()


def lattice_digest(graphs) -> str:
    """The corank-nullity tables at (0, 0), (3, 3), (1, 4), (4, 1) and
    (n, n), n = #emerald, the window that determines T."""
    sha = hashlib.sha256()
    for g in graphs:
        n = g.emerald_count
        for window in ((0, 0), (3, 3), (1, 4), (4, 1), (n, n)):
            sha.update(repr(sorted(corank_nullity(g, *window).items())).encode())
    return sha.hexdigest()


def fixed_order_digest(graphs) -> str:
    """``tutte_from_order`` of the i-th graph under its ground set's index
    order and under that order shuffled by ``random.Random(i)``."""
    sha = hashlib.sha256()
    for i, g in enumerate(graphs):
        order = list(bases_from_hypertrees(g).ground)
        sha.update(f"\n{tutte_from_order(g, order)}\n".encode())
        random.Random(i).shuffle(order)
        sha.update(f"\n{tutte_from_order(g, order)}\n".encode())
    return sha.hexdigest()


def reports_digest(graphs) -> str:
    """The violet-prime and violet reports of each graph, as sorted JSON."""
    sha = hashlib.sha256()
    for g in graphs:
        for check in (harness.test_violet_prime, harness.test_violet):
            sha.update(f"\n{json.dumps(check(g), sort_keys=True)}\n".encode())
    return sha.hexdigest()


def seeded_complete_bipartites() -> list:
    """Seeded embeddings of K4,5, K5,5, K6,6, K4,8 and K3,12."""
    return [perturbed(complete_bipartite(a, b), random.Random(10 * a + b))
            for a, b in ((4, 5), (5, 5), (6, 6), (4, 8), (3, 12))]


def groups():
    """name -> (digest, graphs), in a fixed order."""
    fixtures = [load_path(fixture_path(f"fig{i}.hg")) for i in (1, 2, 4, 5)]
    randoms = [random_instance(seed=s) for s in range(150)]
    k44 = [perturbed(complete_bipartite(4, 4), random.Random(44))]
    kabs = seeded_complete_bipartites()
    counterexample = [load_path(DIGESTS.parent / "violet_counterexample.hg")]
    more = [random_instance(seed=s) for s in range(150, 300)]
    return {
        "fixtures": (digest, fixtures),
        "random_instance 0-149": (digest, randoms),
        "K4,4": (digest, k44),
        "K4,5 K5,5 K6,6 K4,8 K3,12": (digest, kabs),
        "corank_nullity, fixtures and random_instance 0-149": (lattice_digest, fixtures + randoms),
        "tutte_from_order, fixtures, random_instance 0-149 and seeded K_{a,b}":
            (fixed_order_digest, fixtures + randoms + k44 + kabs),
        "violet-prime and violet reports, fixtures, violet_counterexample.hg,"
        " random_instance 0-299 and seeded K_{a,b}":
            (reports_digest, fixtures + counterexample + randoms + more + k44 + kabs),
    }


def recorded() -> dict:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return dict(line.split("  ", 1)[::-1] for line in lines)


def test_outputs_match_recorded_digests():
    assert {name: hash_(graphs) for name, (hash_, graphs) in groups().items()} == recorded()


if __name__ == "__main__":
    DIGESTS.write_text("".join(f"{hash_(graphs)}  {name}\n"
                               for name, (hash_, graphs) in groups().items()), encoding="utf-8")
