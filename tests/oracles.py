"""Slow oracles that only the tests read: an exact global min cut, the
survivor-connectivity audit of a sampling plan, a seeded concentration batch,
a bitmask builder for `Cut`, and the heavy-core family of instances.

The library keeps what its samplers, pipeline, CLI and demos run; these
recompute from first principles and back the fast paths at small scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from hgsparse import (
    BalancedAssignment,
    HyperEdge,
    QualityReport,
    SamplingPlan,
    UnionFind,
    WeightedHypergraph,
    all_cuts_report,
    child_seed,
    collapse,
    sparsify_unweighted,
    sparsify_weighted,
)
from hgsparse.graph import _adjacency, _stoer_wagner


def mask_of(vertices: Iterable[int]) -> int:
    """The bitmask of a vertex set: bit v-1 set iff v is in it."""
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def heavy_core(n: int) -> WeightedHypergraph:
    """A core clique on C = n // 2 vertices with each of its pairs 3 times,
    plus one hyperedge {v} + core for each other vertex v (rank C + 1).
    Under uniform clique weights the sum of 1/kappa over copies grows like
    n * r; balancing brings it under gamma * (n - 1)."""
    core = tuple(range(1, n // 2 + 1))
    edges = [HyperEdge(p) for p in itertools.combinations(core, 2) for _ in range(3)]
    edges += [HyperEdge(core + (v,)) for v in range(len(core) + 1, n + 1)]
    return WeightedHypergraph(n, tuple(edges))


def global_min_cut(
    h: WeightedHypergraph, subset: Optional[Iterable[int]] = None
) -> tuple[Fraction, frozenset[int]]:
    """Minimum cut value and one achieving side of the 2-uniform h restricted
    to `subset`.

    Value 0 with a smallest-vertex component as the side when disconnected.
    """
    weights = collapse(h)
    verts = sorted(subset) if subset is not None else list(range(1, h.n + 1))
    if len(verts) < 2:
        raise ValueError("min cut needs at least 2 vertices")
    vset = set(verts)
    for v in verts:
        if not 1 <= v <= h.n:
            raise ValueError(f"vertex id {v} out of range [1,{h.n}]")
    inner = (p for p in weights if p[0] in vset and p[1] in vset)
    blocks = UnionFind(verts, inner).groups()
    if len(blocks) > 1:
        return Fraction(0), blocks[0]
    val, side = _stoer_wagner(verts, _adjacency(h.n, weights))
    return Fraction(val), side


def check_same_component(assignment: BalancedAssignment, plan: SamplingPlan) -> bool:
    """For every threshold rho * 2^i with survivors, the strong pairs must
    connect each surviving copy internally.

    Survivors at level i are copies with kappa >= rho * 2^i; the pair graph
    keeps positively weighted slots of strength >= the same threshold.  Each
    surviving copy's vertex set has to land inside one component of that
    graph, else sampling could disconnect what the plan treats as strongly
    connected.
    """
    h = assignment.hypergraph
    if h.m != len(plan.p):
        raise ValueError("plan does not match the assignment's hypergraph")
    table = assignment.strengths
    positive = [p for p, u in assignment.collapsed_units().items() if u > 0]
    kappa = assignment.kappa_by_copy()
    kappa_top = max(kappa, default=Fraction(0))
    i = 0
    while True:
        threshold = plan.rho * (1 << i)
        if threshold > kappa_top:
            return True  # E_{>=i} empty here and for every larger i
        survivors = [c for c in range(h.m) if kappa[c] >= threshold]
        if not survivors:
            return True
        uf = UnionFind(range(1, h.n + 1),
                       (p for p in positive if table.strength(*p) >= threshold))
        for c in survivors:
            verts = h.edges[c].vertices
            root = uf.find(verts[0])
            if any(uf.find(v) != root for v in verts[1:]):
                return False
        i += 1


@dataclass(frozen=True)
class ConcentrationSummary:
    failure_count: int
    reports: tuple[QualityReport, ...]


def concentration_trial(
    h: WeightedHypergraph,
    epsilon: float,
    d: int,
    trials: int,
    seed: int,
    gamma: int = 2,
    rho_override=None,
) -> ConcentrationSummary:
    """Sparsify end to end `trials` times under derived seeds and count the
    runs whose worst cut error exceeds 2 * epsilon.

    With the theoretical rho the per-run failure probability is O(n^-d), so
    a desk-scale batch should come back clean; shrinking rho via the
    override makes failures visible on purpose.
    """
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    reports: list[QualityReport] = []
    failures = 0
    target = 2 * epsilon
    unweighted = h.is_unweighted()
    for t in range(trials):
        run_seed = child_seed(seed, "trial", t)
        if unweighted:
            res = sparsify_unweighted(
                h, epsilon, gamma=gamma, d=d, seed=run_seed, rho_override=rho_override
            )
        else:
            res = sparsify_weighted(
                h, epsilon, d=d, seed=run_seed, gamma=gamma, rho_override=rho_override
            )
        rep = all_cuts_report(h, res.hypergraph, target, seed=run_seed)
        reports.append(rep)
        if not rep.passed:
            failures += 1
    return ConcentrationSummary(failures, tuple(reports))
