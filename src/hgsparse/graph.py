"""Weighted multigraphs, exact global min cuts, and edge strengths.

The strength of an edge is the largest min-cut value among all induced
subgraphs containing it.  It is computed by peeling: find a global min cut,
record its value for every vertex pair inside the component, split along the
cut, recurse.  A brute-force oracle over all vertex subsets and all cuts
backs the fast path at small n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .hypergraph import as_weight


class UnionFind:
    """Connected components: disjoint sets over `ids`, with the vertices of
    each of `vertex_sets` (an edge; a pair is a 2-set) joined into one."""

    __slots__ = ("parent", "rank")

    def __init__(self, ids: Iterable[int], vertex_sets: Iterable[Sequence[int]] = ()):
        self.parent = {i: i for i in ids}
        self.rank = {i: 0 for i in self.parent}
        for verts in vertex_sets:
            first = verts[0]
            for v in verts[1:]:
                self.union(first, v)

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True

    def groups(self) -> list[frozenset[int]]:
        out: dict[int, set[int]] = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return sorted((frozenset(g) for g in out.values()), key=min)


@dataclass(frozen=True)
class MultiEdge:
    u: int
    v: int
    weight: Fraction

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("self loops are not allowed")
        if not isinstance(self.weight, Fraction):
            object.__setattr__(self, "weight", as_weight(self.weight))
        if self.weight < 0:
            raise ValueError("multigraph edge weight must be nonnegative")

    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True)
class WeightedMultigraph:
    n: int
    edges: tuple[MultiEdge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        if not isinstance(self.edges, tuple):
            object.__setattr__(self, "edges", tuple(self.edges))
        for e in self.edges:
            if min(e.u, e.v) < 1 or max(e.u, e.v) > self.n:
                raise ValueError(f"edge endpoint out of range [1,{self.n}]")


@dataclass(frozen=True)
class CollapsedGraph:
    """Parallel edges summed per vertex pair; only positive totals kept."""

    n: int
    weights: Mapping[tuple[int, int], Fraction]

    def adjacency(self) -> dict[int, dict[int, Fraction]]:
        adj: dict[int, dict[int, Fraction]] = {v: {} for v in range(1, self.n + 1)}
        for (u, v), w in self.weights.items():
            adj[u][v] = w
            adj[v][u] = w
        return adj


def collapse(g: WeightedMultigraph) -> CollapsedGraph:
    sums: dict[tuple[int, int], Fraction] = {}
    for e in g.edges:
        p = e.pair()
        sums[p] = sums.get(p, Fraction(0)) + e.weight
    return CollapsedGraph(g.n, {p: w for p, w in sums.items() if w > 0})


def _stoer_wagner(vertices: Sequence[int], adj) -> tuple[object, frozenset[int]]:
    """Exact global min cut of a connected graph on >= 2 vertices.

    Ties in the maximum-adjacency scan go to the smallest node id; among
    equal-value phase cuts the lexicographically smallest sorted side wins,
    so results are reproducible across runs.
    """
    nodes = sorted(vertices)
    k = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    w = [[0] * k for _ in range(k)]
    for i, v in enumerate(nodes):
        row = adj.get(v)
        if not row:
            continue
        wi = w[i]
        for y, wt in row.items():
            j = pos.get(y)
            if j is not None:
                wi[j] = wt
    members: list[list[int]] = [[v] for v in nodes]
    active = list(range(k))
    in_a = [False] * k
    best_val = None
    best_side: tuple[int, ...] = ()
    while len(active) > 1:
        start = active[0]
        key = w[start][:]
        for i in active:
            in_a[i] = False
        in_a[start] = True
        s = t = start
        for _ in range(len(active) - 1):
            pick = -1
            pick_key = None
            for i in active:
                if in_a[i]:
                    continue
                kv = key[i]
                if pick < 0 or kv > pick_key:
                    pick, pick_key = i, kv
            in_a[pick] = True
            s, t = t, pick
            wp = w[pick]
            for i in active:
                if not in_a[i]:
                    key[i] = key[i] + wp[i]
        phase_val = key[t]
        side = tuple(sorted(members[t]))
        if best_val is None or phase_val < best_val or (phase_val == best_val and side < best_side):
            best_val, best_side = phase_val, side
        members[s].extend(members[t])
        ws, wt_row = w[s], w[t]
        for i in active:
            if i != s and i != t:
                ws[i] = ws[i] + wt_row[i]
                w[i][s] = ws[i]
        active.remove(t)
    return best_val, frozenset(best_side)


def global_min_cut(
    g: CollapsedGraph, subset: Optional[Iterable[int]] = None
) -> tuple[Fraction, frozenset[int]]:
    """Minimum cut value and one achieving side of g restricted to `subset`.

    Value 0 with a smallest-vertex component as the side when disconnected.
    """
    verts = sorted(subset) if subset is not None else list(range(1, g.n + 1))
    if len(verts) < 2:
        raise ValueError("min cut needs at least 2 vertices")
    vset = set(verts)
    for v in verts:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex id {v} out of range [1,{g.n}]")
    inner = (p for p in g.weights if p[0] in vset and p[1] in vset)
    blocks = UnionFind(verts, inner).groups()
    if len(blocks) > 1:
        return Fraction(0), blocks[0]
    val, side = _stoer_wagner(verts, g.adjacency())
    return Fraction(val), side


def pair_strengths(n: int, pair_weights: Mapping[tuple[int, int], object]) -> dict:
    """Strengths for every vertex pair that ever shares a connected block.

    Works for any exact numeric weight type (ints for grid arithmetic,
    Fractions for the public API).  The positive pairs are split into
    connected components once; each component is then peeled with
    Stoer-Wagner, every pair of a block taking the largest min-cut value of
    any block containing it.  Pairs across different components are simply
    absent, their strength is 0.
    """
    adj: dict[int, dict[int, object]] = {}
    pairs = []
    for (u, v), w in pair_weights.items():
        if w <= 0:
            continue
        adj.setdefault(u, {})[v] = w
        adj.setdefault(v, {})[u] = w
        pairs.append((u, v))
    strengths: dict[tuple[int, int], object] = {}
    # both sides of a min cut of a connected graph are connected, so only
    # the first split, into components, needs UnionFind
    stack = [sorted(c) for c in UnionFind(range(1, n + 1), pairs).groups()]
    while stack:
        block = stack.pop()
        if len(block) < 2:
            continue
        val, side = _stoer_wagner(block, adj)
        for u, v in itertools.combinations(block, 2):
            cur = strengths.get((u, v))
            if cur is None or val > cur:
                strengths[(u, v)] = val
        stack.append(sorted(side))
        stack.append(sorted(set(block) - side))
    return strengths


@dataclass(frozen=True)
class StrengthTable:
    n: int
    pair_strength: Mapping[tuple[int, int], Fraction]
    pair_weight: Mapping[tuple[int, int], Fraction]

    def strength(self, u: int, v: int) -> Fraction:
        p = (u, v) if u < v else (v, u)
        return self.pair_strength.get(p, Fraction(0))

    def positive_pairs(self) -> Iterable[tuple[tuple[int, int], Fraction]]:
        return self.pair_weight.items()

    def distinct_strength_count(self) -> int:
        return len({self.pair_strength[p] for p in self.pair_weight})

    def strength_weight_sum(self) -> Fraction:
        """Sum of weight/strength over positive pairs; at most n-1."""
        total = Fraction(0)
        for p, w in self.pair_weight.items():
            total += Fraction(w, 1) / self.pair_strength[p]
        return total


def strength_table_from_pairs(n: int, weights: Mapping[tuple[int, int], Fraction]) -> StrengthTable:
    pos = {p: w for p, w in weights.items() if w > 0}
    raw = pair_strengths(n, pos)
    table = {p: Fraction(v) for p, v in raw.items()}
    return StrengthTable(n, table, pos)


def edge_strengths(g: WeightedMultigraph) -> StrengthTable:
    return strength_table_from_pairs(g.n, dict(collapse(g).weights))


def k_strong_components(table: StrengthTable, k) -> list[frozenset[int]]:
    """Partition of all vertices by the positive pairs of strength >= k."""
    k = as_weight(k)
    if k <= 0:
        raise ValueError("strength threshold must be positive")
    strong = (p for p in table.pair_weight if table.pair_strength[p] >= k)
    return UnionFind(range(1, table.n + 1), strong).groups()


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def _brute_mincut_all_subsets(n: int, pairs: list[tuple[int, Fraction]]) -> dict[int, Fraction]:
    """Min cut of every induced subgraph, by enumerating all bipartitions."""
    memo: dict[int, Fraction] = {}
    for xmask in range(1, 1 << n):
        if xmask & (xmask - 1) == 0:
            continue  # singletons have no cuts
        low = xmask & -xmask
        inside = [(pm, w) for pm, w in pairs if pm & xmask == pm]
        best = None
        s = (xmask - 1) & xmask
        while s:
            if s & low and s != xmask:
                inv = xmask ^ s
                total = Fraction(0)
                for pm, w in inside:
                    if pm & s and pm & inv:
                        total += w
                if best is None or total < best:
                    best = total
            s = (s - 1) & xmask
        memo[xmask] = best if best is not None else Fraction(0)
    return memo


def brute_force_strengths(g: WeightedMultigraph) -> dict[tuple[int, int], Fraction]:
    """All pair strengths by exhaustive subset and cut enumeration, n <= 16."""
    if g.n > 16:
        raise ValueError("brute force limited to n <= 16")
    cg = collapse(g)
    pairs = [((1 << (u - 1)) | (1 << (v - 1)), w) for (u, v), w in cg.weights.items()]
    memo = _brute_mincut_all_subsets(g.n, pairs)
    out: dict[tuple[int, int], Fraction] = {}
    for u, v in itertools.combinations(range(1, g.n + 1), 2):
        pm = (1 << (u - 1)) | (1 << (v - 1))
        best = Fraction(0)
        for xmask, val in memo.items():
            if xmask & pm == pm and val > best:
                best = val
        out[(u, v)] = best
    return out


def brute_force_strength(g: WeightedMultigraph, u: int, v: int) -> Fraction:
    if g.n > 16:
        raise ValueError("brute force limited to n <= 16")
    if u == v or min(u, v) < 1 or max(u, v) > g.n:
        raise ValueError("need two distinct in-range vertices")
    cg = collapse(g)
    pairs = [((1 << (a - 1)) | (1 << (b - 1)), w) for (a, b), w in cg.weights.items()]
    pm = (1 << (u - 1)) | (1 << (v - 1))
    best = Fraction(0)
    for xmask, val in _brute_mincut_all_subsets(g.n, pairs).items():
        if xmask & pm == pm and val > best:
            best = val
    return best
