"""Shared builders for the test corpus. Everything is seeded and exact."""

import dataclasses
import random
from fractions import Fraction

import pytest

from hgsparse import HyperEdge, WeightedHypergraph
from hgsparse import sparsify


def mg(n, triples):
    """Multigraph, as a 2-uniform hypergraph, from (u, v, w) triples with
    u and v in either order."""
    edges = (HyperEdge((min(u, v), max(u, v)), w) for u, v, w in triples)
    return WeightedHypergraph(n, tuple(edges))


def random_multigraph(n, m, seed, weighted=True):
    """Random multigraph with exact rational weights, deterministic in seed."""
    rng = random.Random(("mg", n, m, seed).__repr__())
    triples = []
    for _ in range(m):
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        while v == u:
            v = rng.randint(1, n)
        w = Fraction(rng.randint(1, 12), rng.randint(1, 4)) if weighted else Fraction(1)
        triples.append((u, v, w))
    return mg(n, triples)


def random_hypergraph(n, m, r_max, seed):
    """Unweighted multi-hypergraph with repeats, deterministic in seed."""
    rng = random.Random(("hg", n, m, r_max, seed).__repr__())
    edges = []
    for _ in range(m):
        size = rng.randint(2, min(r_max, n))
        verts = tuple(sorted(rng.sample(range(1, n + 1), size)))
        edges.append(HyperEdge(verts))
        # occasional exact duplicate to exercise the grouped structure
        if rng.random() < 0.25:
            edges.append(HyperEdge(verts))
    return WeightedHypergraph(n, tuple(edges))


def two_cluster(parallel=12):
    edges = [HyperEdge((1, 2))] * parallel + [HyperEdge((1, 2, 3))]
    return WeightedHypergraph(3, tuple(edges))


# unweighted instances on which the balancing loop has real work to do
BALANCE_INSTANCES = [
    two_cluster(),
    two_cluster(30),
    WeightedHypergraph(4, tuple([HyperEdge((1, 2))] * 9
                                + [HyperEdge((3, 4))] * 9
                                + [HyperEdge((1, 2, 3, 4))] * 2)),
] + [random_hypergraph(6, 12, 4, s) for s in range(6)]


@pytest.fixture
def tmp_hg_file(tmp_path):
    def write(h, name="h.hg"):
        from hgsparse import serialize_hypergraph

        path = tmp_path / name
        path.write_text(serialize_hypergraph(h))
        return str(path)

    return write


@pytest.fixture
def inflate_p(monkeypatch):
    """Calling it makes the sampler core plan p = 1 on every copy, which
    breaks the size bound rho * gamma * (n - 1) on inputs with many copies."""
    real = sparsify.make_plan

    def inflated(*args, **kwargs):
        plan = real(*args, **kwargs)
        return dataclasses.replace(plan, p=(Fraction(1),) * len(plan.p))

    return lambda: monkeypatch.setattr(sparsify, "make_plan", inflated)
