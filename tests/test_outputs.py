"""Byte-identity guard: both variants' tour-search tables and the rendered
embedding, violet-prime and violet polynomials, hashed over the fixtures,
``harness.random_instance`` seeds 0-149, a seeded K4,4 and seeded
K4,5, K5,5, K6,6, K4,8 and K3,12, and the
corank-nullity tables of the fixtures and those seeds at five windows,
must match the digests recorded in ``tests/data/outputs.sha256``.  A
speed-up of the search, the activities, the assembly or the lattice walk
must leave every one unchanged.

To re-record after a deliberate change of output, run
``PYTHONPATH=src:tests python tests/test_outputs.py`` and say why."""

import hashlib
import random
from pathlib import Path

from hypertutte import fixture_path, load_path
from hypertutte.harness import random_instance
from hypertutte.hypertrees import jaeger_trees, orders
from hypertutte.tutte import corank_nullity, tutte_embedding, tutte_sum
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


def seeded_complete_bipartites() -> list:
    """Seeded embeddings of K4,5, K5,5, K6,6, K4,8 and K3,12."""
    return [perturbed(complete_bipartite(a, b), random.Random(10 * a + b))
            for a, b in ((4, 5), (5, 5), (6, 6), (4, 8), (3, 12))]


def groups():
    """name -> (digest, graphs), in a fixed order."""
    fixtures = [load_path(fixture_path(f"fig{i}.hg")) for i in (1, 2, 4, 5)]
    randoms = [random_instance(seed=s) for s in range(150)]
    return {
        "fixtures": (digest, fixtures),
        "random_instance 0-149": (digest, randoms),
        "K4,4": (digest, [perturbed(complete_bipartite(4, 4), random.Random(44))]),
        "K4,5 K5,5 K6,6 K4,8 K3,12": (digest, seeded_complete_bipartites()),
        "corank_nullity, fixtures and random_instance 0-149": (lattice_digest, fixtures + randoms),
    }


def recorded() -> dict:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    return dict(line.split("  ", 1)[::-1] for line in lines)


def test_outputs_match_recorded_digests():
    assert {name: hash_(graphs) for name, (hash_, graphs) in groups().items()} == recorded()


if __name__ == "__main__":
    DIGESTS.write_text("".join(f"{hash_(graphs)}  {name}\n"
                               for name, (hash_, graphs) in groups().items()), encoding="utf-8")
