"""Arbitrary-ratio weights and streaming, by bucketing and merge-and-reduce.

The direct weighted sparsifier counts each edge in unit copies of the
minimum weight, so its work below p = 1 grows with the weight ratio.  Here edges
are split into geometric weight buckets (ratio alpha = 10 n^2 / eps^3),
buckets of the same parity are far enough apart that each can be handled
with the ones above it contracted to supervertices, and the two parity
results are unioned.  Dropping an edge buried inside a supervertex is safe:
any cut separating its endpoints pays for much heavier contracted edges.

The streaming wrapper buffers edges per level and re-sparsifies on overflow;
each element passes through at most levels+1 sparsifications, so running the
inner stages at eps/(2 log2(m/n)) keeps the composed error within eps.

An edge passes through a stage as the same `HyperEdge` object whenever the
stage leaves its vertex set and weight unchanged: the contraction map
(supervertices, then each component relabelled to 1..size) when its final
image is its own vertex set, the restore when the sampler's edge already has
the original vertex set, and the stream's fold when no parallel edge joins it.
So a flush builds new edges only for what it changes, unchecked.

The stream folds parallel edges before each sparsification, not after: a
fold preserves every cut exactly, so each flush sparsifies distinct vertex
sets only.  `fast_sparsify` emits at most one edge per input edge, restored
to that edge's vertex set, so its output needs no second fold, and the
stream's output holds at most one edge per vertex set.

Weights are summed and compared as ints per denominator: `weight_sum` adds
the numerators of each denominator, merges the denominators by integer gcd
steps and normalizes once, so the bucket weights and the stream's fold build
one `Fraction` per sum and make no `Fraction` add; `min_weight` compares
the numerators, so both minimum weights take one `Fraction` compare per
distinct denominator, not one per edge; `bucket_by_weight` tests each bound
by integer cross-multiplication.  At p = 1 the denominator
of every output weight of one `sparsify_weighted` call divides the numerator
of its scale, so a bucket holds few distinct denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .graph import UnionFind
from .hypergraph import (HyperEdge, WeightedHypergraph, as_weight, min_weight,
                         vertex_range_message, weight_sum)
from .seeds import child_seed
from .sparsify import SparsifierResult, check_d, check_epsilon, sparsify_weighted

EVEN = "even"
ODD = "odd"


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class WeightBuckets:
    alpha: Fraction
    buckets: Mapping[int, tuple[int, ...]]


def bucket_by_weight(h: WeightedHypergraph, epsilon: float) -> WeightBuckets:
    """Partition edges by weight into half-open geometric buckets
    [w0 alpha^(i-1), w0 alpha^i), i >= 1, with exact compares: w >= bn/bd
    as the integer compare w.numerator * bd >= bn * w.denominator."""
    check_epsilon(epsilon)
    eps = as_weight(epsilon)
    alpha = Fraction(10 * h.n * h.n) / (eps * eps * eps)
    if h.m == 0:
        return WeightBuckets(alpha, {})
    w0 = min_weight(e.weight for e in h.edges)
    an, ad = alpha.numerator, alpha.denominator
    # bounds[i] = w0 alpha^(i+1) as an unreduced (numerator, denominator)
    bounds = [(w0.numerator * an, w0.denominator * ad)]
    buckets: dict[int, list[int]] = {}
    for idx, e in enumerate(h.edges):
        wn, wd = e.weight.numerator, e.weight.denominator
        i = 0
        while wn * bounds[i][1] >= bounds[i][0] * wd:
            i += 1
            if i == len(bounds):
                bn, bd = bounds[-1]
                bounds.append((bn * an, bd * ad))
        buckets.setdefault(i + 1, []).append(idx)
    return WeightBuckets(alpha, {i: tuple(v) for i, v in buckets.items()})


def contract_components(
    n: int, higher: Sequence[HyperEdge], lower: Sequence[HyperEdge]
) -> tuple[int, list[tuple[int, WeightedHypergraph, tuple[int, ...]]]]:
    """Map `lower` onto the samplers' vertices.  The components spanned by
    `higher` become supervertices 1..k in order of smallest member (an
    isolated vertex is its own; with no `higher` edge, k = n).  Edges inside
    one supervertex are dropped, and the rest split into the connected
    components of their images, each relabelled to 1..size.  Returns k and,
    per component in order of smallest supervertex, (that supervertex, the
    component's hypergraph, each edge's index into `lower`); a lone
    supervertex has no edges.  An edge whose final image is its own vertex
    set is kept as the same object.
    """
    k = n
    if higher:
        groups = UnionFind(range(1, n + 1), (e.vertices for e in higher)).groups()
        k = len(groups)
        supervertex = {v: sid for sid, grp in enumerate(groups, start=1) for v in grp}
        images = {}
        for idx, e in enumerate(lower):
            img = tuple(sorted({supervertex[v] for v in e.vertices}))
            if len(img) > 1:
                images[idx] = img
    else:
        images = {idx: e.vertices for idx, e in enumerate(lower)}
    comps = UnionFind(range(1, k + 1), images.values()).groups()
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    members: list[list[int]] = [[] for _ in comps]
    for idx, img in images.items():
        members[comp_of[img[0]]].append(idx)
    out = []
    for comp, idxs in zip(comps, members):
        # a component already on supervertices 1..size needs no relabel
        rank = None if max(comp) == len(comp) else {
            v: t for t, v in enumerate(sorted(comp), start=1)}
        edges = []
        for idx in idxs:
            e, img = lower[idx], images[idx]
            if rank is not None:
                img = tuple(rank[v] for v in img)
            edges.append(e if img == e.vertices else HyperEdge.trusted(img, e.weight))
        out.append((min(comp), WeightedHypergraph.trusted(len(comp), tuple(edges)), tuple(idxs)))
    return k, out


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


def fast_sparsify(
    h: WeightedHypergraph, epsilon: float, d: int = 1, seed: int = 0
) -> SparsifierResult:
    """Union of the two parity-class sparsifiers; handles arbitrary weight
    ratios at the price of a constant-factor error increase.

    Each parity class of the weight buckets is sparsified heaviest bucket
    first, with all same-parity buckets above the current one contracted
    away.  Per bucket, each connected component of the contracted bucket is
    sparsified at eps/2 on its own and restored to the original vertex
    sets; the output lists the kept edges in input order.

    Hard checks, raising `PipelineError`: the supervertex counts telescope
    (each bucket's count equals the component count of the bucket above,
    and the total shrink per parity is at most n-1), and each bucket's
    restored weight stays within 3x its input weight.  A bucket whose unit
    copies exceed `sparsify.COPY_LIMIT` below p = 1 still raises
    `ValueError`.
    """
    check_d(d)
    buckets = bucket_by_weight(h, epsilon)
    restored: dict[int, HyperEdge] = {}
    reports: list[BucketReport] = []
    for parity, rem in ((EVEN, 0), (ODD, 1)):
        higher: list[HyperEdge] = []
        prev_after: Optional[int] = None
        total_delta = 0
        for i in sorted((i for i in buckets.buckets if i % 2 == rem), reverse=True):
            bucket = buckets.buckets[i]
            lower = [h.edges[j] for j in bucket]
            k, comps = contract_components(h.n, higher, lower)
            if prev_after is not None and k != prev_after:
                raise PipelineError(f"supervertex count {k} does not match the previous "
                                    f"bucket's component count {prev_after}")
            after = len(comps)
            total_delta += k - after
            weight_in = weight_sum(e.weight for e in lower)
            for low, sub, idxs in comps:
                if not sub.m:
                    continue
                res = sparsify_weighted(sub, epsilon / 2, d=d,
                                        seed=child_seed(seed, parity, i, low))
                for pos, w_edge in zip(res.origin, res.hypergraph.edges):
                    j = bucket[idxs[pos]]
                    vs = h.edges[j].vertices
                    restored[j] = (w_edge if w_edge.vertices == vs
                                   else HyperEdge.trusted(vs, w_edge.weight))
            weight_out = weight_sum(restored[j].weight for j in bucket if j in restored)
            if weight_out > 3 * weight_in:
                raise PipelineError(
                    f"bucket {i} restored weight {weight_out} exceeds 3x input {weight_in}"
                )
            reports.append(BucketReport(parity, i, weight_in, weight_out, k, after,
                                        k - after, tuple(sub.n for _, sub, _ in comps)))
            higher.extend(lower)
            prev_after = after
        if total_delta > h.n - 1:
            raise PipelineError(f"supervertex shrink {total_delta} exceeds n-1")
    origin = tuple(sorted(restored))
    out = WeightedHypergraph.trusted(h.n, tuple(restored[j] for j in origin))
    return SparsifierResult(
        hypergraph=out,
        plan=None,
        seed=seed,
        m_in=h.m,
        m_out=out.m,
        sum_p=None,
        origin=origin,
        notes={"bucket_reports": tuple(reports),
               "alpha": buckets.alpha},
    )


class StreamState:
    """Merge-and-reduce buffers.

    Level 0 accumulates raw edges up to the capacity, then folds the batch
    (parallel vertex sets summed into one edge), sparsifies it at eps_inner
    and promotes the result as one sketch.  A level above 0 holds at most
    two sketches: when the second arrives, their union is folded and
    sparsified once and the output moves up a level.  `finish` folds the
    union of all that is left before the final sparsification, so every
    sketch and the output hold at most one edge per vertex set.  Each edge
    therefore passes through at most levels+1 sparsifications, never more,
    no matter how little the sparsifier compresses.
    """

    def __init__(self, n: int, m_bound: int, epsilon: float, d: int = 1,
                 seed: int = 0, capacity: Optional[int] = None):
        if n < 1 or m_bound < 1:
            raise ValueError("need n >= 1 and m_bound >= 1")
        check_epsilon(epsilon)
        check_d(d)
        self.n = n
        self.m_bound = m_bound
        self.epsilon = epsilon
        self.d = d
        self.seed = seed
        # log2 of the float quotient, unless it overflows or underflows to
        # 0.0 (log2 then raises); log2 takes an int of any size
        try:
            log_ratio = math.log2(m_bound / n)
        except (OverflowError, ValueError):
            log_ratio = math.log2(m_bound) - math.log2(n)
        self.log_ratio = max(1.0, log_ratio)
        self.eps_inner = epsilon / (2 * self.log_ratio)
        too_large = "capacity"  # what the overflow message names
        if capacity is None:
            capacity = 4 * n * max(1, math.ceil(self.log_ratio))
            too_large = "n"
        if capacity < 4:
            raise ValueError("capacity must be at least 4")
        self.capacity = capacity
        try:
            bound = self.memory_bound()
        except OverflowError:  # an int capacity past float range
            bound = math.inf
        if bound == math.inf:
            raise ValueError(f"{too_large} is too large: the memory bound overflows a float")
        self.raw: list[HyperEdge] = []
        self.sketches: list[list[list[HyperEdge]]] = []
        self.sketched = 0  # edges held in self.sketches, kept by _place
        self.edges_seen = 0
        self.flushes = 0
        self.max_flush_out = 0
        self.high_water = 0

    def _note_memory(self) -> None:
        stored = len(self.raw) + self.sketched
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
        # checked here, not at the flush, which would lose the whole batch
        vs = edge.vertices
        if vs[0] < 1 or vs[-1] > self.n:
            raise ValueError(vertex_range_message(vs, self.n))
        self.edges_seen += 1
        self.raw.append(edge)
        self._note_memory()
        if len(self.raw) >= self.capacity:
            batch, self.raw = self.raw, []
            self._place(1, self._sparsify_batch(batch))

    def _fold_and_sparsify(self, edges: Iterable[HyperEdge], *path) -> SparsifierResult:
        """fast_sparsify of `edges` with parallel edges summed first, one edge
        per vertex set in sorted order (a lone edge stays the same object)."""
        parallel: dict[tuple[int, ...], list[HyperEdge]] = {}
        for e in edges:
            parallel.setdefault(e.vertices, []).append(e)
        folded = tuple(es[0] if len(es) == 1 else HyperEdge.trusted(vs, weight_sum(
            e.weight for e in es)) for vs, es in sorted(parallel.items()))
        return fast_sparsify(WeightedHypergraph.trusted(self.n, folded), self.eps_inner,
                             self.d, child_seed(self.seed, *path))

    def _sparsify_batch(self, edges: list[HyperEdge]) -> list[HyperEdge]:
        self.flushes += 1
        out = list(self._fold_and_sparsify(edges, "flush", self.flushes).hypergraph.edges)
        self.max_flush_out = max(self.max_flush_out, len(out))
        return out

    def _place(self, level: int, sketch: list[HyperEdge]) -> None:
        while True:
            if level > len(self.sketches):
                self.sketches.append([])
            slot = self.sketches[level - 1]
            slot.append(sketch)
            self.sketched += len(sketch)
            self._note_memory()
            if len(slot) < 2:
                return
            merged = slot[0] + slot[1]
            slot.clear()
            self.sketched -= len(merged)
            sketch = self._sparsify_batch(merged)
            level += 1

    def finish(self) -> SparsifierResult:
        union = list(self.raw)
        for lvl in self.sketches:
            for sk in lvl:
                union.extend(sk)
        final = self._fold_and_sparsify(union, "final")
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
) -> SparsifierResult:
    state = StreamState(n, m_bound, epsilon, d, seed, capacity)
    for e in edges:
        state.push(e)
    return state.finish()
