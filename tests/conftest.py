"""Shared builders for the test corpus. Everything is seeded and exact."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from hgsparse import HyperEdge, WeightedHypergraph, as_weight
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


@st.composite
def bucket_cases(draw) -> tuple[WeightedHypergraph, float]:
    """(h, epsilon) whose weights are integers, fractions over many distinct
    large denominators, or the least weight w0 with the bucket bounds
    w0 alpha^k and their neighbours 1/q away, alpha = 10 n^2 / eps^3."""
    n = draw(st.integers(2, 6))
    eps = draw(st.sampled_from([1.0, 0.5, 0.3, 0.25]))
    kind = draw(st.sampled_from(["int", "large_den", "bound"]))
    if kind == "int":
        weights = draw(st.lists(st.builds(Fraction, st.integers(1, 10**12)), max_size=12))
    elif kind == "large_den":
        weights = draw(st.lists(st.builds(Fraction, st.integers(1, 2**90),
                                          st.integers(2**40, 2**100)), max_size=12))
    else:
        alpha = Fraction(10 * n * n) / as_weight(eps) ** 3
        w0 = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
        weights = [w0]
        for _ in range(draw(st.integers(0, 11))):
            bound = w0 * alpha ** draw(st.integers(1, 4))
            weights.append(bound + draw(st.sampled_from([-1, 0, 1])) * Fraction(1, 10**30))
        weights = draw(st.permutations(weights))
    return WeightedHypergraph(n, tuple(HyperEdge((1, 2), w) for w in weights)), eps


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


FRACTION_OPS = ("__add__", "__radd__", "__lt__", "__le__", "__gt__", "__ge__", "__eq__")


def fraction_op_counts(monkeypatch, call) -> Counter:
    """How often `call()` runs each of FRACTION_OPS."""
    counts: Counter = Counter()
    for name in FRACTION_OPS:
        def counted(*args, _name=name, _real=getattr(Fraction, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(Fraction, name, counted)
    try:
        call()
    finally:
        monkeypatch.undo()
    return counts


def fraction_builds(monkeypatch, call) -> int:
    """How many Fractions `call()` constructs, arithmetic results included."""
    count = 0

    def counted(*args, _real=Fraction.__new__, **kwargs):
        nonlocal count
        count += 1
        return _real(*args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    try:
        call()
    finally:
        monkeypatch.undo()
    return count
