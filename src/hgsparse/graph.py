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
moves.  A move takes one unit from pair src to pair dst, so each cut changes
by at most 1, and the cuts of a block B whose stored min cut had value λ fall
into three classes:

- crossing dst only: they gain 1, so they are now at least λ+1;
- crossing src (alone or with dst): each old one also cut every block below
  B that holds src, so it weighed at least the largest cut value k on that
  chain and is now at least k-1;
- crossing neither pair: unchanged, so at least μ, the min cut of B with the
  endpoints of each pair that lies inside B merged (none when the merge
  leaves one vertex).

The stored cut stays a min cut, with no new Stoer-Wagner run, when its new
value is at most every bound that applies; μ is only needed when that value
is λ+1.  μ is computed on demand and cached per block while consecutive moves
keep the same (src, dst), since those moves leave the third class alone; the
cache is dropped when the pair changes or the tree is peeled again, and child
blocks made by a new peel start without one.  Otherwise Stoer-Wagner runs on
the block again, and its subtree is peeled again if it finds a lighter cut.
The whole graph is peeled again when a pair empties or a new pair joins two
components.  A brute-force oracle over all vertex subsets and all cuts backs
the fast path at small n.

Repeated moves between one (src, dst) make every value a line in the number
j of units moved.  The stored cut of a block B moves by σ_B per unit: +1
when it crosses dst only, -1 when it crosses src only, 0 otherwise.  So at
state j its value is λ(j) = λ + σ_B·j, the chain bound is k(j), the max of
the lines of the src-holding blocks from B down, and μ does not move.  The
move from state j to j+1 keeps B's cut without Stoer-Wagner when
λ(j+1) <= k(j) - 1 (B holds src and σ_B >= 0) and λ(j+1) <= μ (σ_B = +1);
the dst-only bound λ(j) + 1 never binds.  The src-class bound is defined
once, in `_src_class`, as lines in j: it holds while some src-holding block
K from B down has λ_K(j) - λ_B(j+1) > 0.  A strength is the running max of
the lines on its root-to-block path.  `StrengthTree.horizon` plans: it
solves these comparisons of lines in closed form for T, the number of units
that keep every kept cut certified and every strength on one line, with src
never emptying.  `shift(src, dst, units)` with units - 1 <= T is one walk:
it sets each cut to λ(units), tests the bounds only for the move from state
units - 1, the src-class bound by the lines of `_src_class` at that state,
and writes each strength that moves from its old value to its new one.

`StrengthTree.changed` collects the pairs whose strength took a new value or
was dropped, until its owner clears it.  A strength is written only when it
differs from the one stored, so after one shift from a clear set `changed`
is exactly where the strengths differ, and a caller can re-examine only what
they feed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .hypergraph import WeightedHypergraph, as_weight, weight_sum

_ZERO = Fraction(0)  # the strength of a pair that shares no block


class UnionFind:
    """Connected components: disjoint sets over `ids`, with the vertices of
    each of `vertex_sets` (an edge; a pair is a 2-set) joined into one.

    Every vertex of every set must lie in `ids`.  Joining stops once one
    set is left, so a stray id in a later set is not caught."""

    __slots__ = ("parent", "rank")

    def __init__(self, ids: Iterable[int], vertex_sets: Iterable[Sequence[int]] = ()):
        self.parent = {i: i for i in ids}
        self.rank = {i: 0 for i in self.parent}
        sets = len(self.parent)
        for verts in vertex_sets:
            first = verts[0]
            for v in verts[1:]:
                sets -= self.union(first, v)
            if sets == 1:
                break

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
    """The pair weights of a 2-uniform hypergraph: parallel edges summed by
    `weight_sum`, pairs in order of first appearance."""
    parallel: dict[tuple[int, int], list[Fraction]] = {}
    for e in h.edges:
        if e.size != 2:
            raise ValueError(f"a weighted multigraph needs 2-vertex edges, got {e.vertices}")
        parallel.setdefault(e.vertices, []).append(e.weight)
    return {pair: weight_sum(ws) for pair, ws in parallel.items()}


def _adjacency(n: int, pair_weights: Mapping[tuple[int, int], object]) -> dict[int, dict]:
    """Symmetric adjacency rows of vertices 1..n over the positive pairs."""
    adj: dict[int, dict] = {v: {} for v in range(1, n + 1)}
    for (u, v), w in pair_weights.items():
        if w > 0:
            adj[u][v] = adj[v][u] = w
    return adj


def _stoer_wagner(vertices: Sequence[int], adj) -> tuple[object, frozenset[int]]:
    """Exact global min cut of a connected graph on >= 2 vertices: its value
    and the side of the first cut-of-the-phase that attains it.

    Ties in the maximum-adjacency scan go to the smallest node id, so the
    result is deterministic for a given input.  Which minimum cut's side is
    returned is not otherwise promised.
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
    best_val = best_side = None
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
        if best_val is None or key[t] < best_val:
            best_val, best_side = key[t], frozenset(members[t])
        members[s].extend(members[t])
        ws, wt_row = w[s], w[t]
        for i in active:
            if i != s and i != t:
                ws[i] = ws[i] + wt_row[i]
                w[i][s] = ws[i]
        active.remove(t)
    return best_val, best_side


def _merged_min_cut(verts: frozenset[int], adj, pairs: Iterable[tuple[int, int]]):
    """Min cut of the block `verts` over the cuts that separate no pair of
    `pairs` lying inside it: Stoer-Wagner with each such pair's endpoints
    merged.  None when the merge leaves one vertex, so there is no such cut."""
    find = UnionFind(verts, [p for p in pairs if p[0] in verts and p[1] in verts]).find
    merged: dict[int, dict] = {}
    for u in verts:
        ru = find(u)
        row = merged.setdefault(ru, {})
        for v, w in adj[u].items():
            rv = find(v) if v in verts else ru
            if rv != ru:
                row[rv] = row.get(rv, 0) + w
    return _stoer_wagner(merged, merged)[0] if len(merged) > 1 else None


def first_fail(c, s, strict: bool = False):
    """The least state j >= 0 at which the line c + s·j is no longer >= 0
    (> 0 when strict); inf when it never fails."""
    if c < 0 or (strict and c == 0):
        return 0
    if s >= 0:
        return math.inf
    return -(c // s) if strict else c // -s + 1


def _first_all_fail(lines):
    """The least state j >= 0 at which no line c + s·j of `lines` is > 0.
    Each line is > 0 on one run of states, from 0 when it falls and up to
    the end when it rises, so the union has at most one gap."""
    last_held, first_risen = -1, math.inf
    for c, s in lines:
        fail = first_fail(c, s, strict=True)
        if fail == math.inf:
            return fail
        last_held = max(last_held, fail - 1)
        if s > 0:
            first_risen = min(first_risen, -c // s + 1)
    return last_held + 1 if last_held + 1 < first_risen else math.inf


def _max_line(f, g):
    """The larger of the lines f and g, each (value now, slope), just after
    now, and the last state through which it stays the larger."""
    if g > f:
        f, g = g, f
    if g[1] <= f[1]:
        return f, math.inf
    return f, (f[0] - g[0]) // (g[1] - f[1])


def _sigma(node, src: tuple[int, int], dst: tuple[int, int]) -> int:
    """σ: how much node's stored cut gains per unit moved from src to dst,
    counting a pair only when both its ends are in the block."""
    (a, b), (c, d), verts, side = src, dst, node.verts, node.side
    return ((c in verts and d in verts and (c in side) != (d in side))
            - (a in verts and b in verts and (a in side) != (b in side)))


def _src_class(chain: list[_Block], src: tuple[int, int], dst: tuple[int, int]):
    """The src-class bound of moves from src to dst, as (block, lines) for
    each block of src's `chain` whose cut does not lose (σ >= 0): the move
    from state j to j + 1 keeps the block's cut, against the cuts crossing
    src, while some line c + s·j of its lines is > 0, that is while some
    block at or below it on the chain has λ_kid(j) > λ(j + 1).  Blocks come
    from the bottom of the chain up, since the bound of a bottom block whose
    cut crosses both pairs never holds, and a plan can stop there."""
    lam = [(node.val, _sigma(node, src, dst)) for node in chain]
    for i in reversed(range(len(chain))):
        val, s = lam[i]
        if s >= 0:
            yield chain[i], [(v - val - s, t - s) for v, t in lam[i:]]


def _across(node) -> list[tuple[int, int]]:
    """The pairs that node's stored cut separates."""
    return [(u, v) if u < v else (v, u) for u in node.side for v in node.rest]


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
        # μ per block, for moves from _pair[0] to _pair[1]
        self._pair, self._mu = None, {}
        # ((src, dst), horizon(src, dst)) until the next shift
        self._planned = None
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

    def shift(self, src: tuple[int, int], dst: tuple[int, int], units: int = 1) -> None:
        """Move `units` units of weight from pair src to pair dst, at most
        `horizon(src, dst)[0] + 1`, in one walk.  Each block's stored cut value
        goes from λ to λ + σ·units.  The horizon certified the first units - 1
        moves, so the class bounds in the module docstring are tested only for
        the last: a block whose cut they cannot keep runs Stoer-Wagner again,
        and its subtree is peeled again if that finds a lighter cut.  μ is
        cached per block until the pair changes or the tree is peeled again.
        Strengths go from their old values to their new ones directly, so a
        pair joins `changed` only when its strength differs.  A batch reuses
        the horizon its caller planned from this state."""
        if units < 1 or (units > 1 and units - 1 > self.horizon(src, dst)[0]):
            raise ValueError(f"cannot move {units} units from {src} to {dst} in one shift")
        self._planned = None
        adj = self.adj
        (a, b), (c, d) = src, dst
        joins = not adj[c].get(d) and self.comp[c] != self.comp[d]
        adj[a][b] = adj[b][a] = adj[a][b] - units
        adj[c][d] = adj[d][c] = adj[c].get(d, 0) + units
        if joins or not adj[a][b]:
            self._peel()
            return
        self._use_pair(src, dst)
        # the chain blocks whose `_src_class` lines are all <= 0 at units - 1
        src_fails = {node for node, lines in _src_class(self._chain(a, b), src, dst)
                     if all(c + s * (units - 1) <= 0 for c, s in lines)}
        stack = [(self.roots[i], 0, 0) for i in {self.comp[a], self.comp[c]}]
        while stack:
            node, old_top, new_top = stack.pop()
            verts = node.verts
            if not ((a in verts and b in verts) or (c in verts and d in verts)):
                if old_top != new_top:
                    self._label(node, new_top)
                continue
            old, sigma = node.val, _sigma(node, src, dst)
            val = old + sigma * units
            # dst-only cuts are now >= λ(j) + 1 >= val, so only the src class
            # and, when the cut gains, the neither class (>= μ) bind
            if node in src_fails or (sigma > 0 and val > self._neither_min(node)):
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

    def horizon(self, src: tuple[int, int], dst: tuple[int, int]) -> tuple[int, dict]:
        """(T, slopes) for moves from pair src to pair dst: T successive unit
        moves keep every stored cut without Stoer-Wagner and every strength
        on one line, with src never emptying, and after j <= T of them the
        strength of pair p is its strength now plus slopes.get(p, 0) * j.
        Integer weights.  Planned once per state: the result is kept until
        the next shift."""
        if self._planned is None or self._planned[0] != (src, dst):
            self._planned = ((src, dst), self._plan(src, dst))
        return self._planned[1]

    def _plan(self, src: tuple[int, int], dst: tuple[int, int]) -> tuple[int, dict]:
        adj = self.adj
        (a, b), (c, d) = src, dst
        if not adj[c].get(d) and self.comp[c] != self.comp[d]:
            return 0, {}
        chain = self._chain(a, b)
        # src must not empty, and each chain block whose cut does not lose
        # must keep its src-class bound
        certified = adj[a][b] - 1
        for _, lines in _src_class(chain, src, dst):
            if not certified:
                break
            certified = min(certified, _first_all_fail(lines))
        if not certified:
            return 0, {}
        self._use_pair(src, dst)
        on_chain = set(chain)
        # (block, slope) for each block whose cut's pairs have a moving strength
        moving = []
        stack = [(self.roots[i], (0, 0)) for i in {self.comp[a], self.comp[c]}]
        while stack and certified:
            node, top = stack.pop()
            if not (top[1] or node in on_chain or (c in node.verts and d in node.verts)):
                continue
            val, s = node.val, _sigma(node, src, dst)
            if s > 0:
                certified = min(certified, self._neither_min(node) - val)
            top, lasts = _max_line(top, (val, s))
            certified = min(certified, lasts)
            if top[1]:
                moving.append((node, top[1]))
            stack.extend((kid, top) for kid in node.kids)
        if not certified:
            return 0, {}
        return certified, {p: slope for node, slope in moving for p in _across(node)}

    def _chain(self, a: int, b: int) -> list[_Block]:
        """The blocks holding both a and b, from the root down to the block
        whose cut separates them."""
        chain = [self.roots[self.comp[a]]]
        while (a in chain[-1].side) == (b in chain[-1].side):
            chain.append(next(kid for kid in chain[-1].kids if a in kid.verts))
        return chain

    def _use_pair(self, src: tuple[int, int], dst: tuple[int, int]) -> None:
        if self._pair != (src, dst):
            self._pair, self._mu = (src, dst), {}

    def _neither_min(self, node: _Block):
        """μ: the least cut of node's block that crosses neither the current
        src nor dst (inf when there is none), computed once and cached."""
        if node not in self._mu:
            mu = _merged_min_cut(node.verts, self.adj, self._pair)
            self._mu[node] = math.inf if mu is None else mu
        return self._mu[node]


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
        return self.pair_strength.get(p, _ZERO)

    def distinct_strength_count(self) -> int:
        return len({self.pair_strength[p] for p in self.pair_weight})

    def strength_weight_sum(self) -> Fraction:
        """Sum of weight/strength over positive pairs; at most n-1."""
        return weight_sum(Fraction(w, 1) / self.pair_strength[p]
                          for p, w in self.pair_weight.items())


def edge_strengths(h: WeightedHypergraph) -> StrengthTable:
    """Pair strengths of the weighted multigraph given as the 2-uniform h."""
    weights = collapse(h)  # every pair weight is positive
    strengths = {p: Fraction(v) for p, v in pair_strengths(h.n, weights).items()}
    return StrengthTable(h.n, strengths, weights)


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
                total = weight_sum(w for pm, w in inside if pm & s and pm & inv)
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
