"""Edge strengths of a weighted multigraph, its strong components, and a
brute-force strength oracle.

A weighted multigraph is a 2-uniform `WeightedHypergraph`; `collapse` sums
its parallel edges into pair weights, the form everything here works on.

The strength of an edge is the largest min-cut value among all induced
subgraphs containing it.  It is computed by peeling: find a global min cut
of each connected component with Stoer-Wagner, split along it, recurse.  A
pair's strength is the largest cut value on the chain of blocks from its
component down to the block whose cut separates it.

`StrengthTree` keeps the tree of blocks across the balance loop's unit
moves.  A move changes each cut by at most 1, so a block's old min cut stays
a min cut when its new value equals a lower bound on every new cut: the old
value, or, if the pair that loses the unit lies in the block, the smaller of
that and one less than the largest cut value on that pair's chain from the
block down.  Otherwise Stoer-Wagner runs on the block again, and its subtree
is peeled again if it finds a lighter cut.  The whole graph is peeled again
when a pair empties or a new pair joins two components.  A brute-force oracle
over all vertex subsets and all cuts backs the fast path at small n.

`StrengthTree.changed` collects the pairs whose strength took a new value or
was dropped, until its owner clears it: exactly where the strengths differ
from those at the last clear, so a caller can re-examine only what they feed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .hypergraph import WeightedHypergraph, as_weight


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


def collapse(h: WeightedHypergraph) -> dict[tuple[int, int], Fraction]:
    """The pair weights of a 2-uniform hypergraph: parallel edges summed."""
    sums: dict[tuple[int, int], Fraction] = {}
    for e in h.edges:
        if e.size != 2:
            raise ValueError(f"a weighted multigraph needs 2-vertex edges, got {e.vertices}")
        sums[e.vertices] = sums.get(e.vertices, Fraction(0)) + e.weight
    return sums


def _adjacency(n: int, pair_weights: Mapping[tuple[int, int], object]) -> dict[int, dict]:
    """Symmetric adjacency rows of vertices 1..n over the positive pairs."""
    adj: dict[int, dict] = {v: {} for v in range(1, n + 1)}
    for (u, v), w in pair_weights.items():
        if w > 0:
            adj[u][v] = adj[v][u] = w
    return adj


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


class _Block:
    """A peel-tree node: a connected block, one min cut, the child blocks."""

    __slots__ = ("verts", "val", "side", "rest", "kids")

    def __init__(self, verts: frozenset[int]):
        self.verts = verts


class StrengthTree:
    """Strengths of the pairs inside each component, for any exact weight
    type, kept with their peel tree; `shift` updates them in place."""

    def __init__(self, n: int, pair_weights: Mapping[tuple[int, int], object]):
        self.adj = _adjacency(n, pair_weights)
        self.strengths: dict[tuple[int, int], object] = {}
        self.changed: set[tuple[int, int]] = set()
        self._peel()

    def _peel(self) -> None:
        # both sides of a min cut of a connected graph are connected, so only
        # the first split, into components, needs UnionFind
        pairs = ((u, v) for u, row in self.adj.items() for v, w in row.items() if u < v and w)
        groups = UnionFind(self.adj, pairs).groups()
        comp = self.comp = {v: i for i, g in enumerate(groups) for v in g}
        self.roots = [_Block(g) for g in groups]
        for root in self.roots:
            if len(root.verts) > 1:
                self._grow(root)
                self._label(root, 0)
        # labelling covers every pair inside a component; drop the rest
        for p in [p for p in self.strengths if comp[p[0]] != comp[p[1]]]:
            del self.strengths[p]
            self.changed.add(p)

    def _grow(self, node: _Block, cut=None) -> None:
        """Peel node's block, along `cut` if given, and every block below."""
        stack = [(node, cut)]
        while stack:
            node, cut = stack.pop()
            node.val, node.side = cut or _stoer_wagner(node.verts, self.adj)
            node.rest = node.verts - node.side
            node.kids = [_Block(part) for part in (node.side, node.rest) if len(part) > 1]
            stack.extend((kid, None) for kid in node.kids)

    def _cross(self, node: _Block, strength) -> None:
        s, changed = self.strengths, self.changed
        for u in node.side:
            for v in node.rest:
                p = (u, v) if u < v else (v, u)
                if s.get(p) != strength:
                    s[p] = strength
                    changed.add(p)

    def _label(self, node: _Block, top) -> None:
        """Strengths of the pairs under node, whose ancestors' largest cut is top."""
        stack = [(node, top)]
        while stack:
            node, top = stack.pop()
            top = max(top, node.val)
            self._cross(node, top)
            stack.extend((kid, top) for kid in node.kids)

    def shift(self, src: tuple[int, int], dst: tuple[int, int]) -> None:
        """Move one unit of weight from pair src to pair dst, keeping each
        block's cut that still meets the certificate in the module docstring."""
        adj = self.adj
        (a, b), (c, d) = src, dst
        joins = not adj[c].get(d) and self.comp[c] != self.comp[d]
        adj[a][b] = adj[b][a] = adj[a][b] - 1
        adj[c][d] = adj[d][c] = adj[c].get(d, 0) + 1
        if joins or not adj[a][b]:
            self._peel()
            return
        # Every old cut of a block B crossing src also cuts each block below
        # B that holds src, so it weighed at least the largest cut value k
        # among them: after the move no cut of B is below min(val, k - 1).
        chain = [self.roots[self.comp[a]]]
        while (a in chain[-1].side) == (b in chain[-1].side):
            chain.append(next(kid for kid in chain[-1].kids if a in kid.verts))
        bound, k = {}, 0
        for node in reversed(chain):
            k = max(k, node.val)
            bound[node] = min(node.val, k - 1)
        stack = [(self.roots[i], 0, 0) for i in {self.comp[a], self.comp[c]}]
        while stack:
            node, old_top, new_top = stack.pop()
            verts, side = node.verts, node.side
            has_src = a in verts and b in verts
            has_dst = c in verts and d in verts
            if not (has_src or has_dst):
                if old_top != new_top:
                    self._label(node, new_top)
                continue
            old = node.val
            val = (old - (has_src and (a in side) != (b in side))
                   + (has_dst and (c in side) != (d in side)))
            if val != bound.get(node, old):
                cut = _stoer_wagner(verts, adj)
                if cut[0] != val:
                    self._grow(node, cut)
                    self._label(node, new_top)
                    continue
            node.val = val
            old_top, new_top = max(old_top, old), max(new_top, val)
            if old_top != new_top:
                self._cross(node, new_top)
            stack.extend((kid, old_top, new_top) for kid in node.kids)


def pair_strengths(n: int, pair_weights: Mapping[tuple[int, int], object]) -> dict:
    """Strengths for every vertex pair that ever shares a connected block."""
    return StrengthTree(n, pair_weights).strengths


@dataclass(frozen=True)
class StrengthTable:
    n: int
    pair_strength: Mapping[tuple[int, int], Fraction]
    pair_weight: Mapping[tuple[int, int], Fraction]

    def strength(self, u: int, v: int) -> Fraction:
        p = (u, v) if u < v else (v, u)
        return self.pair_strength.get(p, Fraction(0))

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


def edge_strengths(h: WeightedHypergraph) -> StrengthTable:
    """Pair strengths of the weighted multigraph given as the 2-uniform h."""
    return strength_table_from_pairs(h.n, collapse(h))


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


def brute_force_strengths(h: WeightedHypergraph) -> dict[tuple[int, int], Fraction]:
    """All pair strengths of the 2-uniform h by exhaustive subset and cut
    enumeration, n <= 16."""
    if h.n > 16:
        raise ValueError("brute force limited to n <= 16")
    pairs = [((1 << (u - 1)) | (1 << (v - 1)), w) for (u, v), w in collapse(h).items()]
    memo = _brute_mincut_all_subsets(h.n, pairs)
    out: dict[tuple[int, int], Fraction] = {}
    for u, v in itertools.combinations(range(1, h.n + 1), 2):
        pm = (1 << (u - 1)) | (1 << (v - 1))
        best = Fraction(0)
        for xmask, val in memo.items():
            if xmask & pm == pm and val > best:
                best = val
        out[(u, v)] = best
    return out
