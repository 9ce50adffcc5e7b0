"""Slow oracles that only the tests read: an exact global min cut, the
survivor-connectivity audit of a sampling plan, a seeded concentration batch,
a contraction map that rebuilds every edge and splits and relabels its
components in plain passes, cut weights by a per-edge `Fraction`
loop, a weight formatter that strips factors of 2 one at a time, weight
bucketing and copy counts by `Fraction` compares, a bitmask builder for
`Cut`, the heavy-core family of instances, the balance loop one unit per pick
with its per-iteration record, the src-class bound of a peel tree by a
running max, the balance state's grouping one copy at a
time, the per-copy strength views of a balanced assignment, the weighted
reduction expanded into its unit copies, the sampler one unit copy at a
time (by `randrange`, and by the bitwise draws of the library), exact bounds
on the law of an edge's kept count under the library's draws, the mean
cut error by a running sum, exact sums by one `Fraction` per denominator,
the edge-line parser by `Fraction(tok)` on every weight, connected
components that read every vertex set, and parallel edges summed by one
`Fraction` add per edge.

The library keeps what its samplers, pipeline, CLI and demos run; these
recompute from first principles and back the fast paths at small scale.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Iterator, Optional, Sequence
from unittest import mock

from hgsparse import (
    BalanceError,
    Cut,
    HyperEdge,
    ParseError,
    QualityReport,
    SamplingPlan,
    UnionFind,
    WeightBuckets,
    WeightedHypergraph,
    all_cuts_report,
    as_weight,
    child_seed,
    collapse,
    find_max_bad,
    init_weights,
    sparsify_unweighted,
    sparsify_weighted,
    transfer_step,
)
from hgsparse import sparsify
from hgsparse.balance import BadEdge, BalanceState
from hgsparse.graph import _adjacency, _sigma, _stoer_wagner
from hgsparse.sparsify import check_epsilon


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


def single_steps(state: BalanceState) -> Iterator[BadEdge]:
    """The balance loop one unit per pick, as the paper states it: each
    `find_max_bad` pick moves one delta of the picked group in a
    `transfer_step`.  Yields each pick after its transfer, and raises
    BalanceError at a pick made at or past `state.iteration_cap`, as
    `run_balance` does."""
    while (bad := find_max_bad(state)) is not None:
        if state.iterations >= state.iteration_cap:
            raise BalanceError(f"iteration cap {state.iteration_cap} exceeded")
        transfer_step(state, bad.group_key, bad.f_min, bad.f_max)
        yield bad


def src_class_fails(chain, src: tuple[int, int], dst: tuple[int, int], j: int) -> dict:
    """Per block of src's chain, whether the src-class bound fails for the
    move from state j to j + 1, by a running max kept apart from the lines
    of `graph._src_class`: the block's new value λ(j + 1) reaches k(j), the
    largest λ_K(j) of the blocks K from it down."""
    fails, k = {}, 0
    for node in reversed(chain):
        sigma = _sigma(node, src, dst)
        k = max(k, node.val + sigma * j)
        fails[node] = node.val + sigma * (j + 1) >= k
    return fails


def strength_histogram(state: BalanceState) -> tuple[int, ...]:
    """Per interval j, the positively weighted pairs with strength in
    (K_{j-1}, K_j]; raises BalanceError on a strength outside [K_0, K_ell]."""
    hist = [0] * (state.ell + 1)
    for p, u in state.pair_units.items():
        if u > 0:
            hist[state.interval_index(state.strengths[p])] += 1
    return tuple(hist)


def weight_above(state: BalanceState) -> tuple[int, ...]:
    """Per level j, the units on pairs with strength > K_j."""
    return tuple(sum(u for p, u in state.pair_units.items()
                     if u > 0 and state.strengths[p] > kj)
                 for kj in state.K_units)


def traced_balance(h: WeightedHypergraph, gamma: int = 2
                   ) -> tuple[BalanceState, list[tuple]]:
    """The one-unit loop to a gamma-balanced assignment, with a record
    (ind, hist, weight_gt) after each transfer: the pick's interval index,
    `strength_histogram` and `weight_above`.  The potential argument says
    that once a pick has index <= i, weight_gt[i - 1] never increases."""
    state = init_weights(h, gamma)
    records = [(bad.ind, strength_histogram(state), weight_above(state))
               for bad in single_steps(state)]
    return state, records


def group_copies_loop(h: WeightedHypergraph
                      ) -> dict[tuple[int, ...], tuple[list[int], list[int], list[int]]]:
    """`BalanceState`'s groups one copy at a time: per vertex set, in
    first-seen order, its copies, the slot units of a copy at init (n^2 // q
    per slot for q slots, at least 2, and one more on the first n^2 % q
    slots), and those units summed copy by copy.  Checks each copy's weight,
    raising `check_unweighted`'s ValueError on the first that is not 1."""
    groups: dict[tuple[int, ...], tuple[list[int], list[int], list[int]]] = {}
    total = h.n * h.n
    for idx, e in enumerate(h.edges):
        if e.weight != 1:
            raise ValueError("balancing expects an unweighted multi-hypergraph")
        q = len(e.vertices) * (len(e.vertices) - 1) // 2
        base = max(2, total // q)
        units = [base + 1 if i < total - q * base else base for i in range(q)]
        copies, _, agg = groups.setdefault(e.vertices, ([], units, [0] * q))
        copies.append(idx)
        agg[:] = [a + u for a, u in zip(agg, units)]
    return groups


def group_copy_units(g) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(copy, units) for each copy of a balance state's group: its runs
    expanded, in copy order, the units as a tuple."""
    units = itertools.chain.from_iterable(itertools.repeat(tuple(u), count)
                                          for count, u in g.runs)
    return zip(itertools.chain.from_iterable(g.spans), units)


def copy_units(state: BalanceState) -> dict[int, tuple[int, ...]]:
    """Every copy's slot units, the state's runs expanded."""
    return dict(itertools.chain.from_iterable(map(group_copy_units, state.groups.values())))


def kappa_by_copy(state: BalanceState) -> list[Fraction]:
    """Weakest clique slot strength per copy: its group's, the least
    strength over all its slots (0 for a pair with no strength)."""
    out = [Fraction(0)] * sum(state.counts)
    for g in state.groups.values():
        kappa = min(state.strengths.get(p, 0) * state.delta for p in g.slots)
        for c, _ in group_copy_units(g):
            out[c] = kappa
    return out


def kappa_max_by_copy(state: BalanceState) -> list[Fraction]:
    """Strongest positively weighted slot strength per copy."""
    out = [Fraction(0)] * sum(state.counts)
    for g in state.groups.values():
        slot_strengths = [state.strengths.get(p, 0) * state.delta for p in g.slots]
        for c, units in group_copy_units(g):
            out[c] = max(s for s, u in zip(slot_strengths, units) if u > 0)
    return out


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


def check_same_component(assignment: BalanceState, plan: SamplingPlan) -> bool:
    """For every threshold rho * 2^i with survivors, the strong pairs must
    connect each surviving copy internally.

    Survivors at level i are copies with kappa >= rho * 2^i, taken per input
    edge, whose copies share one group; the pair graph keeps positively
    weighted slots of strength >= the same threshold.  Each surviving copy's
    vertex set has to land inside one component of that graph, else
    sampling could disconnect what the plan treats as strongly connected.
    """
    h = assignment.hypergraph
    if assignment.counts != plan.counts:
        raise ValueError("plan does not match the assignment's hypergraph")
    strengths, delta = assignment.strengths, assignment.delta
    positive = [p for p, u in assignment.collapsed_units().items() if u > 0]
    per_group = assignment.kappa_by_group()
    kappa = [per_group[e.vertices] for e in h.edges]
    kappa_top = max(kappa, default=Fraction(0))
    i = 0
    while True:
        threshold = plan.rho * (1 << i)
        if threshold > kappa_top:
            return True  # E_{>=i} empty here and for every larger i
        survivors = [j for j in range(h.m) if kappa[j] >= threshold]
        if not survivors:
            return True
        uf = UnionFind(range(1, h.n + 1),
                       (p for p in positive if strengths[p] * delta >= threshold))
        for j in survivors:
            verts = h.edges[j].vertices
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


def rebuild_contract_components(
    n: int, higher: Sequence[HyperEdge], lower: Sequence[HyperEdge]
) -> tuple[WeightedHypergraph, tuple[int, ...]]:
    """The contraction half of `pipeline.contract_components`, as it was
    before it passed unchanged edges through: the hypergraph on the k
    supervertices and the surviving indices into `lower`, every surviving
    edge built anew from its image, through a vertex-to-supervertex dict."""
    groups = UnionFind(range(1, n + 1), (e.vertices for e in higher)).groups()
    supervertex = {v: sid for sid, grp in enumerate(groups, start=1) for v in grp}
    kept: list[HyperEdge] = []
    origin: list[int] = []
    for idx, e in enumerate(lower):
        img = tuple(sorted({supervertex[v] for v in e.vertices}))
        if len(img) < 2:
            continue
        kept.append(HyperEdge(img, e.weight))
        origin.append(idx)
    return WeightedHypergraph(len(groups), tuple(kept)), tuple(origin)


def rebuild_component_map(
    n: int, higher: Sequence[HyperEdge], lower: Sequence[HyperEdge]
) -> tuple[int, list[tuple[int, WeightedHypergraph, tuple[int, ...]]]]:
    """`pipeline.contract_components` in plain passes: `rebuild_contract_components`,
    then its edges split by `components_full_join`, and each component
    relabelled to 1..size by position in its sorted vertex list.  Every edge
    is built anew."""
    contracted, kept = rebuild_contract_components(n, higher, lower)
    out = []
    for comp in components_full_join(range(1, contracted.n + 1),
                                     (e.vertices for e in contracted.edges)):
        order = sorted(comp)
        edges, idxs = [], []
        for e, idx in zip(contracted.edges, kept):
            if e.vertices[0] in comp:
                edges.append(HyperEdge(tuple(order.index(v) + 1 for v in e.vertices), e.weight))
                idxs.append(idx)
        out.append((order[0], WeightedHypergraph(len(order), tuple(edges)), tuple(idxs)))
    return contracted.n, out


def cut_weight_loop(h: WeightedHypergraph, cut: Cut) -> Fraction:
    """`hypergraph.cut_weight` by one `Fraction` add per crossing edge, as
    it was before it summed through `weight_sum`."""
    if cut.n != h.n:
        raise ValueError("cut and hypergraph disagree on vertex count")
    inv = ((1 << h.n) - 1) ^ cut.mask
    total = Fraction(0)
    for e in h.edges:
        em = e.mask()
        if em & cut.mask and em & inv:
            total += e.weight
    return total


def weight_sum_by_fractions(ws: Iterable[Fraction]) -> Fraction:
    """`hypergraph.weight_sum` as it was before it merged the denominators
    by integer gcd steps: the int sum of each denominator's numerators made
    a `Fraction`, and those added."""
    by_den: dict[int, int] = {}
    for w in ws:
        d = w.denominator
        by_den[d] = by_den.get(d, 0) + w.numerator
    if not by_den:
        return Fraction(0)
    first, *rest = (Fraction(n, d) for d, n in by_den.items())
    return sum(rest, first)


def sum_parallel_loop(edges: Iterable[HyperEdge]) -> dict[tuple[int, ...], Fraction]:
    """Each vertex set's total weight by one `Fraction` add per edge, the
    sets in order of first appearance: `graph.collapse` as it was before it
    summed through `weight_sum`, for edges of any size."""
    sums: dict[tuple[int, ...], Fraction] = {}
    for e in edges:
        sums[e.vertices] = sums.get(e.vertices, Fraction(0)) + e.weight
    return sums


def parse_edge_line_by_fraction(lineno: int, toks: Sequence[str], n: int, fmt: int
                                ) -> HyperEdge:
    """`hypergraph.parse_edge_line` as it was before integer weight tokens
    skipped `Fraction`'s string parser: `Fraction(tok)` on every weight, and
    a range check on every vertex."""
    if fmt == 1:
        if len(toks) < 2:
            raise ParseError(lineno, "weighted edge line needs a weight and vertices")
        try:
            w = Fraction(toks[0])
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"bad weight {toks[0]!r}") from None
        vtoks = toks[1:]
    else:
        w = Fraction(1)
        vtoks = toks
    try:
        verts = sorted({int(t) for t in vtoks})
    except ValueError:
        raise ParseError(lineno, "bad vertex id") from None
    for v in verts:
        if not 1 <= v <= n:
            raise ParseError(lineno, f"vertex id {v} out of range [1,{n}]")
    if len(verts) < 2:
        raise ParseError(lineno, "hyperedge has fewer than 2 distinct vertices")
    if w.numerator <= 0:
        raise ParseError(lineno, f"non-positive weight {toks[0]}")
    return HyperEdge(tuple(verts), w)


def components_full_join(ids: Iterable[int], vertex_sets: Iterable[Sequence[int]]
                         ) -> list[frozenset[int]]:
    """`graph.UnionFind(ids, vertex_sets).groups()` by merging whole label
    sets, reading every vertex set to the end."""
    comp = {i: frozenset((i,)) for i in ids}
    for verts in vertex_sets:
        merged = frozenset().union(*(comp[v] for v in verts))
        for v in merged:
            comp[v] = merged
    return sorted(set(comp.values()), key=min)


def format_weight_loop(w: Fraction) -> str:
    """`hypergraph.format_weight` with the factors of 2 divided out one at a
    time, as it was before it read them off the lowest set bit."""
    if w.denominator == 1:
        return str(w.numerator)
    den = w.denominator
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{w.numerator}/{w.denominator}"
    k = max(twos, fives)
    scaled = w.numerator * 10**k // w.denominator
    digits = str(abs(scaled)).rjust(k + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def bucket_by_weight_loop(h: WeightedHypergraph, epsilon: float) -> WeightBuckets:
    """`pipeline.bucket_by_weight` as it was before it compared on integers:
    `min` over the weights, and a `Fraction` bound multiplied by alpha until
    it passes each edge's weight."""
    check_epsilon(epsilon)
    eps = as_weight(epsilon)
    alpha = Fraction(10 * h.n * h.n) / (eps * eps * eps)
    if h.m == 0:
        return WeightBuckets(alpha, {})
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
    return WeightBuckets(alpha, {i: tuple(v) for i, v in buckets.items()})


def copy_counts_loop(h: WeightedHypergraph, epsilon: float) -> tuple[Fraction, list[int]]:
    """`sparsify.copy_counts` by `Fraction` arithmetic: `min` over the
    weights, then each count as the floor of the `Fraction` scale * w."""
    if h.m == 0:
        return Fraction(1), []
    eps = as_weight(epsilon)
    w_min = min(e.weight for e in h.edges)
    scale = (3 / eps) / w_min
    return scale, [int(scale * e.weight) for e in h.edges]


def expand_copies(
    h: WeightedHypergraph, counts: Sequence[int]
) -> tuple[WeightedHypergraph, tuple[int, ...]]:
    """Edge j of h as counts[j] unit-weight copies, in edge order, as the
    weighted reduction built them before balancing read counts.  Returns the
    copies and, per copy, the index of its input edge."""
    edges: list[HyperEdge] = []
    origin: list[int] = []
    for j, (e, c) in enumerate(zip(h.edges, counts)):
        unit = e if e.weight == 1 else HyperEdge(e.vertices, Fraction(1))
        edges.extend([unit] * c)
        origin.extend([j] * c)
    return WeightedHypergraph(h.n, tuple(edges)), tuple(origin)


def sample_per_copy(
    h: WeightedHypergraph, plan: SamplingPlan, seed: int
) -> list[tuple[int, HyperEdge]]:
    """`sparsify.sample_sparsifier` one unit copy at a time, as it was before
    it walked input edges: edge j expands to plan.counts[j] copies, each
    holding p = plan.p[j]; a copy with p = a/D < 1 is kept when
    `randrange(D) < a`, a kept copy weighs w/p (w when p = 1), and the kept
    copies of each input edge are folded by one `Fraction` add per copy.
    Returns (input edge, folded edge) per input edge with a kept copy."""
    rng = random.Random(seed)
    copies = [(j, e, pe) for j, (e, count, pe) in enumerate(zip(h.edges, plan.counts, plan.p))
              for _ in range(count)]
    kept = [(j, e if pe >= 1 else HyperEdge(e.vertices, e.weight / pe))
            for j, e, pe in copies
            if pe >= 1 or rng.randrange(pe.denominator) < pe.numerator]
    folded: dict[int, Fraction] = {}
    for j, e in kept:
        folded[j] = folded.get(j, Fraction(0)) + e.weight
    return [(j, HyperEdge(h.edges[j].vertices, w)) for j, w in folded.items()]


def sample_bitwise_per_copy(
    h: WeightedHypergraph, plan: SamplingPlan, seed: int
) -> list[tuple[int, HyperEdge]]:
    """`sparsify.sample_sparsifier`'s draws one unit copy at a time: edge j
    expands to plan.counts[j] copies holding p = plan.p[j].  At p < 1 each
    copy reads its own uniform U one binary digit per round: in round i,
    bit t of `getrandbits(len(undecided))` is the i-th digit of the t-th
    undecided copy, which is kept when it is below p's i-th digit
    floor(p 2^i) mod 2, dropped when above it, and undecided when equal.
    The rounds stop when no copy is undecided or p 2^i is an integer, whose
    later digits are all 0.  A kept copy weighs w/p (w when p = 1), and the
    kept copies of each input edge are folded by one `Fraction` add per
    copy.  Returns (input edge, folded edge) per input edge with a kept
    copy."""
    getrandbits = random.Random(seed).getrandbits
    out = []
    for j, (e, count, pe) in enumerate(zip(h.edges, plan.counts, plan.p)):
        copies = range(count)
        if pe >= 1:
            kept = list(copies)
        else:
            kept, undecided, i = [], list(copies), 0
            while undecided and (pe * 2**i).denominator != 1:
                i += 1
                digit = math.floor(pe * 2**i) % 2
                bits = getrandbits(len(undecided))
                still = []
                for t, c in enumerate(undecided):
                    bit = bits >> t & 1
                    if bit < digit:
                        kept.append(c)
                    elif bit == digit:
                        still.append(c)
                undecided = still
        total = Fraction(0)
        for _ in kept:
            total += e.weight if pe >= 1 else e.weight / pe
        if kept:
            out.append((j, HyperEdge(e.vertices, total)))
    return out


class _FirstDrawStub:
    """Stands in for `random.Random`: the first `getrandbits(u)` returns
    `first` one-bits and every later one u one-bits, each u recorded."""

    def __init__(self, first: int):
        self.first, self.calls = first, []

    def getrandbits(self, u: int) -> int:
        ones = u if self.calls else self.first
        self.calls.append(u)
        if len(self.calls) > 10**4:
            raise RuntimeError("an edge drew all-one bits 10^4 times without stopping")
        return (1 << ones) - 1


def bitwise_law(n: int, p: Fraction, depth: int) -> tuple[dict[int, Fraction], Fraction]:
    """Exact bounds on the law of the kept count of one edge of n copies at
    0 < p < 1 under `sparsify.sample_sparsifier`'s draws: (lower,
    undecided), lower[k] the probability that the edge keeps k copies within
    `depth` draws and undecided the probability that it needs more, so
    P(kept = k) lies in [lower[k], lower[k] + undecided].

    The chain is over (kept so far, undecided copies u, remainder), and each
    level branches over the count j of one-bits in `getrandbits(u)`, with
    weight C(u, j) / 2^u.  Its steps are read off the library: between
    draws the edge's loop carries only the three, and the remainder stands
    for p's unread digits, q = p 2^i mod 1 after i draws, so from (k, u) it
    runs as a fresh edge of u copies at q, plus k.  Such an edge whose first
    draw has j one-bits either stops, keeping what it returns, or asks next
    for u' bits; then k grows by its kept count when every later draw is all
    ones, less that of an edge of u' copies at 2q mod 1 under all-one draws
    alone."""
    unit = WeightedHypergraph(2, (HyperEdge((1, 2)),))
    stub = _FirstDrawStub(0)
    probes: dict[tuple[int, Fraction, int], tuple[int, list[int]]] = {}

    def probe(u: int, q: Fraction, first: int) -> tuple[int, list[int]]:
        """The kept count and draw sizes of an edge of u copies at q."""
        if (u, q, first) not in probes:
            stub.first, stub.calls = first, []
            plan = SamplingPlan(0.5, 2, 1, Fraction(1), 2, (u,), (q,))
            res = sparsify.sample_sparsifier(unit, plan, 0)
            kept = res.hypergraph.edges[0].weight * q if res.m_out else 0
            probes[u, q, first] = int(kept), stub.calls
        return probes[u, q, first]

    # masses are integers over 2^(n * level): C(u, j) / 2^u is
    # C(u, j) 2^(n - u) / 2^n with u <= n
    lower: dict[int, int] = {}
    states, q = {n: {0: 1}}, p
    with mock.patch.object(sparsify, "random", SimpleNamespace(Random=lambda seed: stub)):
        for _ in range(depth):
            lower = {k: m << n for k, m in lower.items()}
            nxt: dict[int, dict[int, int]] = {}
            for u, masses in states.items():
                for j in range(u + 1):
                    weight = math.comb(u, j) << (n - u)
                    kept, calls = probe(u, q, j)
                    if len(calls) < 2:
                        step, row = kept, lower
                    else:
                        step = kept - probe(calls[1], 2 * q % 1, calls[1])[0]
                        row = nxt.setdefault(calls[1], {})
                    for k, m in masses.items():
                        row[k + step] = row.get(k + step, 0) + m * weight
            states, q = nxt, 2 * q % 1
    scale = 1 << (n * depth)
    undecided = sum(m for masses in states.values() for m in masses.values())
    return {k: Fraction(m, scale) for k, m in lower.items()}, Fraction(undecided, scale)


def mean_rel_error_loop(report: QualityReport):
    """The mean of a report's per-cut errors by one running `Fraction` sum,
    as `verify.all_cuts_report` took it before it summed pairwise.  Needs
    every record (no record cap)."""
    errs = [r.rel_err for r in report.records]
    if math.inf in errs:
        return math.inf
    total = Fraction(0)
    for err in errs:
        total += err
    return total / len(errs) if errs else Fraction(0)
