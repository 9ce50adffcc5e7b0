"""Arbitrary-ratio weights and streaming, by bucketing and merge-and-reduce.

The direct weighted sparsifier expands edges into unit copies, which is
hopeless when weights span many orders of magnitude.  Here edges are split
into geometric weight buckets (ratio alpha = 10 n^2 / eps^3), buckets of the
same parity are far enough apart that each can be handled with the ones
above it contracted to supervertices, and the two parity results are
unioned.  Dropping an edge buried inside a supervertex is safe: any cut
separating its endpoints already pays for much heavier contracted edges.

The streaming wrapper buffers edges per level and re-sparsifies on overflow;
each element passes through at most levels+1 sparsifications, so running the
inner stages at eps/(2 log2(m/n)) keeps the composed error within eps.

An edge passes through a stage as the same `HyperEdge` object whenever the
stage leaves its vertex set and weight unchanged: contraction when its image
is its own vertex set, the per-component relabel when the component is
already supervertices 1..k, the restore when the sampler's edge already has
the original vertex set, and the flush fold when no parallel edge joins it.
So a flush builds new edges only for what it changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .graph import UnionFind
from .hypergraph import HyperEdge, WeightedHypergraph, as_weight
from .seeds import child_seed
from .sparsify import SparsifierResult, check_d, check_epsilon, sparsify_weighted

EVEN = "even"
ODD = "odd"


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class WeightBuckets:
    alpha: Fraction
    w0: Fraction
    buckets: Mapping[int, tuple[int, ...]]

    def parity_indices(self, parity: str) -> list[int]:
        want = 0 if parity == EVEN else 1
        return sorted(i for i in self.buckets if i % 2 == want)


def bucket_by_weight(h: WeightedHypergraph, epsilon: float) -> WeightBuckets:
    """Partition edges by weight into half-open geometric buckets
    [w0 alpha^(i-1), w0 alpha^i), i >= 1, with exact rational compares."""
    check_epsilon(epsilon)
    eps = as_weight(epsilon)
    alpha = Fraction(10 * h.n * h.n) / (eps * eps * eps)
    if h.m == 0:
        return WeightBuckets(alpha, Fraction(0), {})
    w0 = min(e.weight for e in h.edges)
    first_bound = w0 * alpha
    buckets: dict[int, list[int]] = {}
    for idx, e in enumerate(h.edges):
        i = 1
        bound = first_bound
        while e.weight >= bound:
            bound *= alpha
            i += 1
        buckets.setdefault(i, []).append(idx)
    return WeightBuckets(alpha, w0, {i: tuple(v) for i, v in buckets.items()})


@dataclass(frozen=True)
class ContractionMap:
    supervertex: tuple[int, ...]  # original vertex v -> supervertex id, 1-based
    n_super: int

    def image(self, vertices: Iterable[int]) -> tuple[int, ...]:
        return tuple(sorted({self.supervertex[v - 1] for v in vertices}))


def contract_components(
    n: int, higher: Sequence[HyperEdge], lower: Sequence[HyperEdge]
) -> tuple[WeightedHypergraph, ContractionMap, tuple[int, ...]]:
    """Contract the connected components spanned by `higher` (isolated
    vertices stay their own component, numbered by smallest member) and map
    `lower` through; edges collapsing into one supervertex are dropped, and
    an edge whose image is its own vertex set is kept as the same object.
    Returns the contracted hypergraph, the map, and the surviving indices
    into `lower`.
    """
    groups = UnionFind(range(1, n + 1), (e.vertices for e in higher)).groups()
    sv = [0] * n
    for sid, grp in enumerate(groups, start=1):
        for v in grp:
            sv[v - 1] = sid
    cmap = ContractionMap(tuple(sv), len(groups))
    kept: list[HyperEdge] = []
    origin: list[int] = []
    for idx, e in enumerate(lower):
        img = cmap.image(e.vertices)
        if len(img) < 2:
            continue
        kept.append(e if img == e.vertices else HyperEdge(img, e.weight))
        origin.append(idx)
    return WeightedHypergraph(cmap.n_super, tuple(kept)), cmap, tuple(origin)


@dataclass(frozen=True)
class BucketReport:
    parity: str
    index: int
    weight_in: Fraction
    weight_out: Fraction
    n_super_before: int
    n_super_after: int
    delta: int
    comp_sizes: tuple[int, ...]


def sparsify_parity(
    h: WeightedHypergraph,
    buckets: WeightBuckets,
    parity: str,
    epsilon: float,
    d: int = 1,
    seed: int = 0,
    copy_cap: int = 10**6,
) -> tuple[list[HyperEdge], list[int], list[BucketReport]]:
    """Sparsify one parity class of `buckets` (the weight buckets of `h`),
    heaviest bucket first, contracting all same-parity buckets above the
    current one.  Per bucket, each connected component of the contracted
    hypergraph is sparsified at eps/2 on its own and restored through the
    contraction map.

    Hard checks: the supervertex counts telescope (total shrink at most n-1)
    and each bucket's restored weight stays within 3x its input weight.
    """
    if parity not in (EVEN, ODD):
        raise ValueError("parity must be 'even' or 'odd'")
    indices = buckets.parity_indices(parity)
    out_edges: list[HyperEdge] = []
    out_origin: list[int] = []
    reports: list[BucketReport] = []
    higher: list[HyperEdge] = []
    prev_after: Optional[int] = None
    total_delta = 0
    for i in reversed(indices):
        bucket_edges = [h.edges[j] for j in buckets.buckets[i]]
        bucket_origin = list(buckets.buckets[i])
        contracted, cmap, kept = contract_components(h.n, higher, bucket_edges)
        if prev_after is not None and cmap.n_super != prev_after:
            raise PipelineError(
                f"supervertex count {cmap.n_super} does not match the "
                f"previous bucket's component count {prev_after}"
            )
        comps = UnionFind(range(1, contracted.n + 1),
                          (e.vertices for e in contracted.edges)).groups()
        comp_sizes = tuple(len(c) for c in comps)
        after = len(comps)
        delta = cmap.n_super - after
        total_delta += delta
        weight_in = sum((e.weight for e in bucket_edges), Fraction(0))
        weight_out = Fraction(0)
        comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
        comp_edges: list[list[int]] = [[] for _ in comps]
        for k, e in enumerate(contracted.edges):
            comp_edges[comp_of[e.vertices[0]]].append(k)
        for comp, edge_ids in zip(comps, comp_edges):
            if not edge_ids:
                continue
            if max(comp) == len(comp):  # already supervertices 1..k
                sub_edges = tuple(contracted.edges[k] for k in edge_ids)
            else:
                relabel = {v: t for t, v in enumerate(sorted(comp), start=1)}
                sub_edges = tuple(
                    HyperEdge(tuple(relabel[v] for v in contracted.edges[k].vertices),
                              contracted.edges[k].weight)
                    for k in edge_ids
                )
            sub = WeightedHypergraph(len(comp), sub_edges)
            res = sparsify_weighted(
                sub, epsilon / 2, d=d,
                seed=child_seed(seed, parity, i, min(comp)),
                copy_cap=copy_cap,
            )
            for pos, w_edge in zip(res.origin, res.hypergraph.edges):
                orig_idx = bucket_origin[kept[edge_ids[pos]]]
                vs = h.edges[orig_idx].vertices
                out_edges.append(w_edge if w_edge.vertices == vs else HyperEdge(vs, w_edge.weight))
                out_origin.append(orig_idx)
                weight_out += w_edge.weight
        if weight_out > 3 * weight_in:
            raise PipelineError(
                f"bucket {i} restored weight {weight_out} exceeds 3x input {weight_in}"
            )
        reports.append(BucketReport(parity, i, weight_in, weight_out,
                                    cmap.n_super, after, delta, comp_sizes))
        higher.extend(bucket_edges)
        prev_after = after
    if total_delta > h.n - 1 and indices:
        raise PipelineError(f"supervertex shrink {total_delta} exceeds n-1")
    return out_edges, out_origin, reports


def fast_sparsify(
    h: WeightedHypergraph, epsilon: float, d: int = 1, seed: int = 0,
    copy_cap: int = 10**6,
) -> SparsifierResult:
    """Union of the two parity-class sparsifiers; handles arbitrary weight
    ratios at the price of a constant-factor error increase."""
    check_d(d)
    buckets = bucket_by_weight(h, epsilon)
    edges: list[HyperEdge] = []
    origin: list[int] = []
    reports: list[BucketReport] = []
    for parity in (EVEN, ODD):
        p_edges, p_origin, p_reports = sparsify_parity(
            h, buckets, parity, epsilon, d, seed, copy_cap=copy_cap)
        edges.extend(p_edges)
        origin.extend(p_origin)
        reports.extend(p_reports)
    order = sorted(range(len(edges)), key=lambda t: origin[t])
    out = WeightedHypergraph(h.n, tuple(edges[t] for t in order))
    return SparsifierResult(
        hypergraph=out,
        plan=None,
        seed=seed,
        m_in=h.m,
        m_out=out.m,
        sum_p=None,
        origin=tuple(origin[t] for t in order),
        notes={"bucket_reports": tuple(reports),
               "alpha": buckets.alpha},
    )


class StreamState:
    """Merge-and-reduce buffers.

    Level 0 accumulates raw edges up to the capacity, then sparsifies the
    batch at eps_inner and promotes the compacted result (parallel vertex
    sets folded together) as one sketch.  A level above 0 holds at most two
    sketches: when the second arrives, their union is sparsified once and
    the output moves up a level.  Each edge therefore passes through at
    most levels+1 sparsifications, never more, no matter how little the
    sparsifier compresses.
    """

    def __init__(self, n: int, m_bound: int, epsilon: float, d: int = 1,
                 seed: int = 0, capacity: Optional[int] = None,
                 copy_cap: int = 10**6):
        if n < 1 or m_bound < 1:
            raise ValueError("need n >= 1 and m_bound >= 1")
        check_epsilon(epsilon)
        check_d(d)
        self.n = n
        self.m_bound = m_bound
        self.epsilon = epsilon
        self.d = d
        self.seed = seed
        self.copy_cap = copy_cap
        self.log_ratio = max(1.0, math.log2(m_bound / n))
        self.eps_inner = epsilon / (2 * self.log_ratio)
        if capacity is None:
            capacity = 4 * n * max(1, math.ceil(self.log_ratio))
        if capacity < 4:
            raise ValueError("capacity must be at least 4")
        self.capacity = capacity
        self.raw: list[HyperEdge] = []
        self.sketches: list[list[list[HyperEdge]]] = []
        self.edges_seen = 0
        self.flushes = 0
        self.max_flush_out = 0
        self.high_water = 0

    def _note_memory(self) -> None:
        stored = len(self.raw) + sum(len(sk) for lvl in self.sketches for sk in lvl)
        if stored > self.high_water:
            self.high_water = stored
            bound = self.memory_bound()
            if stored > bound:
                raise PipelineError(f"stored {stored} edges, over the budget {bound:.1f}")

    def memory_bound(self) -> float:
        return 2 * self.log_ratio * self.log_ratio * self.capacity

    def push(self, edge: HyperEdge) -> None:
        if self.edges_seen >= self.m_bound:
            raise ValueError(f"stream exceeds the declared bound m={self.m_bound}")
        self.edges_seen += 1
        self.raw.append(edge)
        self._note_memory()
        if len(self.raw) >= self.capacity:
            batch, self.raw = self.raw, []
            self._place(1, self._sparsify_batch(batch))

    def _sparsify_batch(self, edges: list[HyperEdge]) -> list[HyperEdge]:
        self.flushes += 1
        res = fast_sparsify(
            WeightedHypergraph(self.n, tuple(edges)),
            self.eps_inner, self.d, child_seed(self.seed, "flush", self.flushes),
            copy_cap=self.copy_cap,
        )
        parallel: dict[tuple[int, ...], list[HyperEdge]] = {}
        for e in res.hypergraph.edges:
            parallel.setdefault(e.vertices, []).append(e)
        out = [es[0] if len(es) == 1 else HyperEdge(vs, sum(e.weight for e in es))
               for vs, es in sorted(parallel.items())]
        self.max_flush_out = max(self.max_flush_out, len(out))
        return out

    def _place(self, level: int, sketch: list[HyperEdge]) -> None:
        while True:
            if level > len(self.sketches):
                self.sketches.append([])
            slot = self.sketches[level - 1]
            slot.append(sketch)
            self._note_memory()
            if len(slot) < 2:
                return
            merged = slot[0] + slot[1]
            slot.clear()
            sketch = self._sparsify_batch(merged)
            level += 1

    def finish(self) -> SparsifierResult:
        union = list(self.raw)
        for lvl in self.sketches:
            for sk in lvl:
                union.extend(sk)
        final = fast_sparsify(
            WeightedHypergraph(self.n, tuple(union)),
            self.eps_inner, self.d, child_seed(self.seed, "final"),
            copy_cap=self.copy_cap,
        )
        notes = dict(final.notes)
        notes.update(
            high_water=self.high_water,
            capacity=self.capacity,
            eps_inner=self.eps_inner,
            levels=len(self.sketches) + 1,
            flushes=self.flushes,
            max_flush_out=self.max_flush_out,
            memory_bound=self.memory_bound(),
            edges_seen=self.edges_seen,
        )
        return SparsifierResult(
            hypergraph=final.hypergraph,
            plan=None,
            seed=self.seed,
            m_in=self.edges_seen,
            m_out=final.m_out,
            sum_p=None,
            origin=(),
            notes=notes,
        )


def stream_sparsify(
    edges: Iterable[HyperEdge],
    n: int,
    m_bound: int,
    epsilon: float,
    d: int = 1,
    seed: int = 0,
    capacity: Optional[int] = None,
    copy_cap: int = 10**6,
) -> SparsifierResult:
    state = StreamState(n, m_bound, epsilon, d, seed, capacity, copy_cap)
    for e in edges:
        state.push(e)
    return state.finish()
