"""Weight buckets, contraction, the parity pipeline, and streaming."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bucket_cases, fraction_builds, fraction_op_counts
from hgsparse import (
    Cut,
    HyperEdge,
    PipelineError,
    StreamState,
    UnionFind,
    WeightedHypergraph,
    all_cuts_report,
    bucket_by_weight,
    child_seed,
    contract_components,
    copy_counts,
    cut_weight,
    fast_sparsify,
    gen_random,
    sparsify_weighted,
    stream_sparsify,
)
from hgsparse import pipeline, sparsify
from hgsparse.pipeline import EVEN, ODD
from oracles import bucket_by_weight_loop, mask_of, rebuild_component_map, sum_parallel_loop


@st.composite
def edge_lists(draw, n: int, max_edges: int) -> list[HyperEdge]:
    sets = st.sets(st.integers(1, n), min_size=2, max_size=min(n, 4))
    weights = st.builds(Fraction, st.integers(1, 50), st.integers(1, 8))
    return [HyperEdge(tuple(sorted(draw(sets))), draw(weights))
            for _ in range(draw(st.integers(0, max_edges)))]


def fold(h: WeightedHypergraph) -> WeightedHypergraph:
    """h with each vertex set's edges summed into one, sorted by vertex set."""
    return WeightedHypergraph(h.n, tuple(
        HyperEdge(vs, w) for vs, w in sorted(sum_parallel_loop(h.edges).items())))


@st.composite
def parallel_streams(draw, n_range=(3, 7), max_edges=40) -> tuple[int, list[HyperEdge]]:
    """Edges over a few vertex sets, so parallel edges are common, with
    integer or p/q weights."""
    n = draw(st.integers(*n_range))
    sets = st.sets(st.integers(1, n), min_size=2, max_size=min(n, 4))
    pool = [tuple(sorted(vs)) for vs in draw(st.lists(sets, min_size=1, max_size=8))]
    weights = st.one_of(st.builds(Fraction, st.integers(1, 20)),
                        st.builds(Fraction, st.integers(1, 50), st.integers(1, 8)))
    return n, [HyperEdge(draw(st.sampled_from(pool)), draw(weights))
               for _ in range(draw(st.integers(1, max_edges)))]


def record_fast_sparsify(monkeypatch) -> list[WeightedHypergraph]:
    """Patch the stream's `fast_sparsify` to log the hypergraph of each call."""
    fed: list[WeightedHypergraph] = []
    real = pipeline.fast_sparsify

    def logged(h, *args, **kwargs):
        fed.append(h)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(pipeline, "fast_sparsify", logged)
    return fed


def two_alpha_pair(light: list[HyperEdge]) -> WeightedHypergraph:
    """(1, 2) at 2 alpha, alpha = 10 n^2 / eps^3 at n = 3 and eps = 0.133,
    then the `light` edges: below 3 alpha, so one bucket, whose reduction
    at eps/2 needs over a million unit copies."""
    alpha = Fraction(10 * 3 * 3) / Fraction(0.133) ** 3
    return WeightedHypergraph(3, (HyperEdge((1, 2), 2 * alpha), *light))


def heavy_light(n=4, ratio=None):
    """Spanning path of heavy edges two buckets above a single light edge."""
    alpha = Fraction(10 * n * n) / Fraction(1, 2) ** 3
    w = ratio if ratio is not None else alpha * alpha + 1
    heavy = [HyperEdge((i, i + 1), w) for i in range(1, n)]
    return WeightedHypergraph(n, tuple([HyperEdge((1, n))] + heavy))


class TestBucketByWeight:
    def test_uniform_single_bucket(self):
        h = WeightedHypergraph(3, (HyperEdge((1, 2)), HyperEdge((2, 3))))
        b = bucket_by_weight(h, 0.5)
        assert b.alpha == Fraction(10 * 9) / Fraction(1, 8)
        assert b.buckets == {1: (0, 1)}
        assert [i for i in b.buckets if i % 2 == 0] == []

    def test_boundaries_exact(self):
        # n=2, eps=1 gives alpha=40; the bucket is half-open on the right
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 1),
                                   HyperEdge((1, 2), 39),
                                   HyperEdge((1, 2), 40),
                                   HyperEdge((1, 2), 1600)))
        b = bucket_by_weight(h, 1.0)
        assert b.alpha == 40
        assert b.buckets == {1: (0, 1), 2: (2,), 3: (3,)}
        assert sorted(i for i in b.buckets if i % 2 == 0) == [2]
        assert sorted(i for i in b.buckets if i % 2 == 1) == [1, 3]

    def test_empty_and_validation(self):
        assert bucket_by_weight(WeightedHypergraph(2, ()), 0.5).buckets == {}
        with pytest.raises(ValueError):
            bucket_by_weight(WeightedHypergraph(2, ()), 0.0)

    @given(bucket_cases())
    def test_matches_fraction_loop(self, case):
        # alpha and every bucket, on weights at and 1/q beside w0 alpha^k
        h, eps = case
        assert bucket_by_weight(h, eps) == bucket_by_weight_loop(h, eps)


def edge_view(comps):
    """The components of a contraction map with each edge as (vertices, weight)."""
    return [(low, sub.n, [(e.vertices, e.weight) for e in sub.edges], idxs)
            for low, sub, idxs in comps]


class TestContractComponents:
    def test_identity_when_no_higher(self):
        # {1, 3} and {2, 4, 5} are already their own components
        lower = (HyperEdge((1, 3)), HyperEdge((2, 4, 5)))
        k, comps = contract_components(5, (), lower)
        assert k == 5
        assert edge_view(comps) == [(1, 2, [((1, 2), 1)], (0,)),
                                    (2, 3, [((1, 2, 3), 1)], (1,))]
        lower = (HyperEdge((1, 2)), HyperEdge((2, 3)))
        k, comps = contract_components(4, (), lower)
        assert [(low, sub.n, idxs) for low, sub, idxs in comps] == [(1, 3, (0, 1)),
                                                                    (4, 1, ())]
        assert comps[0][1].edges == lower and comps[1][1].edges == ()

    def test_collapse_and_drop(self):
        higher = (HyperEdge((1, 2)), HyperEdge((3, 4)))
        lower = (HyperEdge((1, 3)), HyperEdge((1, 2)), HyperEdge((2, 4)))
        k, comps = contract_components(4, higher, lower)
        # (1,2) lives inside supervertex 1 and is dropped
        assert k == 2
        assert edge_view(comps) == [(1, 2, [((1, 2), 1), ((1, 2), 1)], (0, 2))]

    def test_isolated_vertices_numbered_by_smallest(self):
        # supervertices 1..4 are {1}, {2, 4}, {3}, {5}
        lower = tuple(HyperEdge(vs) for vs in ((1, 2), (2, 3), (4, 5), (2, 4), (1, 5)))
        k, comps = contract_components(5, (HyperEdge((2, 4)),), lower)
        assert k == 4
        assert edge_view(comps) == [
            (1, 4, [((1, 2), 1), ((2, 3), 1), ((2, 4), 1), ((1, 4), 1)], (0, 1, 2, 4))]

    def test_components_relabelled_in_supervertex_order(self):
        # supervertices {1}, {2, 3}, {4}, {5}, {6}; images (2, 4), (4, 5), (2, 5)
        # join 2, 4 and 5, relabelled 1, 2 and 3; 1 and 3 are left alone
        lower = tuple(HyperEdge(vs, w) for vs, w in (((2, 5), 2), ((5, 6), 3), ((3, 6), 4)))
        k, comps = contract_components(6, (HyperEdge((2, 3)),), lower)
        assert k == 5
        assert edge_view(comps) == [(1, 1, [], ()),
                                    (2, 3, [((1, 2), 2), ((2, 3), 3), ((1, 3), 4)], (0, 1, 2)),
                                    (3, 1, [], ())]

    @pytest.mark.parametrize("with_higher", [False, True])
    @given(data=st.data())
    def test_matches_rebuilding_oracle(self, with_higher, data):
        n = data.draw(st.integers(2, 8))
        higher = data.draw(edge_lists(n, 4)) if with_higher else []
        lower = data.draw(edge_lists(n, 10))
        k, comps = contract_components(n, higher, lower)
        want_k, want = rebuild_component_map(n, higher, lower)
        assert k == want_k
        assert edge_view(comps) == edge_view(want)
        # an edge whose vertex set maps to itself is passed through
        for _, sub, idxs in comps:
            for e, idx in zip(sub.edges, idxs):
                assert (e is lower[idx]) == (e.vertices == lower[idx].vertices)

    def test_cut_weights_preserved_under_lifting(self):
        # every supervertex cut lifts to an original cut of equal lower weight;
        # the sparser inputs split into several components, some relabelled
        for seed, m_lower, m_higher in [(s, 10, 3) for s in range(8)] + \
                [(s, 3, 2) for s in range(8)]:
            h = gen_random(6, m_lower, 3, weighted=True, w_max=5, seed=seed)
            higher = gen_random(6, m_higher, 2, seed=seed + 100).edges
            k, comps = contract_components(6, higher, h.edges)
            # supervertices are numbered in order of smallest member
            groups = UnionFind(range(1, 7), (e.vertices for e in higher)).groups()
            supervertex = {v: sid for sid, grp in enumerate(groups, start=1) for v in grp}
            assert k == len(groups)
            # each component's vertices 1..size are its supervertices in order
            members = [sorted({supervertex[v] for j in idxs for v in h.edges[j].vertices}
                              or {low}) for low, _, idxs in comps]
            assert sorted(s for sub in members for s in sub) == list(range(1, k + 1))
            for mask in range(1, (1 << k) - 1):
                local = [mask_of(t for t, s in enumerate(sup, start=1) if mask >> (s - 1) & 1)
                         for sup in members]
                # a component on one side of the cut adds nothing
                w_sup = sum(cut_weight(sub, Cut(sub.n, lm)) for (_, sub, _), lm in
                            zip(comps, local) if 0 < lm < (1 << sub.n) - 1)
                side = [v for v in range(1, 7) if mask >> (supervertex[v] - 1) & 1]
                w_orig = cut_weight(h, Cut(6, mask_of(side)))
                assert w_sup == w_orig


class TestSparsifyParity:
    """One parity class of `fast_sparsify`'s buckets, heaviest bucket first."""

    def test_single_bucket_matches_direct_call(self):
        h = gen_random(5, 9, 2, seed=3)
        res = fast_sparsify(h, 0.5, seed=7)
        direct = sparsify_weighted(h, 0.25, seed=child_seed(7, ODD, 1, 1))
        assert [(e.vertices, e.weight) for e in res.hypergraph.edges] == \
            [(e.vertices, e.weight) for e in direct.hypergraph.edges]
        assert res.origin == direct.origin
        reports = res.notes["bucket_reports"]
        assert len(reports) == 1 and reports[0].index == 1

    def test_other_parity_empty(self):
        h = gen_random(5, 9, 2, seed=3)
        reports = fast_sparsify(h, 0.5, seed=7).notes["bucket_reports"]
        assert [r.parity for r in reports] == [ODD]

    def test_heavy_contracts_light_away(self):
        h = heavy_light()
        res = fast_sparsify(h, 0.5, seed=1)
        # the spanning heavy path collapses everything: the light edge dies
        assert res.origin == (1, 2, 3)
        reports = res.notes["bucket_reports"]
        assert [(r.parity, r.index) for r in reports] == [(ODD, 3), (ODD, 1)]
        by_index = {r.index: r for r in reports}
        assert by_index[3].delta == 3 and by_index[3].n_super_before == 4
        assert by_index[1].n_super_before == 1 and by_index[1].delta == 0
        assert by_index[1].weight_out == 0
        assert sum(r.delta for r in reports) <= h.n - 1
        for r in reports:
            assert r.weight_out <= 3 * r.weight_in


class TestFastSparsify:
    def test_single_edge_verbatim(self):
        h = WeightedHypergraph(3, (HyperEdge((1, 2, 3), 5),))
        res = fast_sparsify(h, 0.5, seed=2)
        assert [(e.vertices, e.weight) for e in res.hypergraph.edges] == \
            [((1, 2, 3), Fraction(5))]
        assert res.origin == (0,)

    def test_validation(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2)),))
        for eps in (0.0, 1.5):
            with pytest.raises(ValueError):
                fast_sparsify(h, eps)

    def test_d_checked_on_every_input(self):
        for h in (WeightedHypergraph(3, ()), heavy_light()):
            with pytest.raises(ValueError, match="d must be a nonnegative integer"):
                fast_sparsify(h, 0.5, d=-1)

    def test_heavy_light_quality(self):
        h = heavy_light()
        for seed in range(3):
            res = fast_sparsify(h, 0.5, seed=seed)
            rep = all_cuts_report(h, res.hypergraph, 0.5)
            assert rep.passed, rep.max_rel_error

    def test_one_bucket_over_the_copy_limit(self):
        # every copy is kept at the theoretical rho, so the count is no limit
        h = two_alpha_pair([HyperEdge((1, 3), 3)])
        assert bucket_by_weight(h, 0.133).buckets == {1: (0, 1)}
        assert sum(copy_counts(h, 0.133 / 2)[1]) == 1150569 > sparsify.COPY_LIMIT
        res = fast_sparsify(h, 0.133)
        assert res.m_out == 2 and all_cuts_report(h, res.hypergraph, 0.133).passed

    def test_copy_limit_reaches_the_pipeline(self):
        # ten parallel heavy edges in one bucket: 1,200,024 copies at eps/2
        # = 1/8 against a theoretical rho near 3.7e5, so below p = 1
        h = WeightedHypergraph(3, (HyperEdge((1, 2)), *[HyperEdge((1, 3), 5000)] * 10))
        assert bucket_by_weight(h, 0.25).buckets == {1: tuple(range(11))}
        with pytest.raises(ValueError, match="^sampling needs 1200024 unit copies at rho "):
            fast_sparsify(h, 0.25)

    def test_origin_sorted_and_reports_collected(self):
        h = heavy_light()
        res = fast_sparsify(h, 0.5, seed=0)
        assert res.origin == tuple(sorted(res.origin))
        assert len(res.notes["bucket_reports"]) == 2
        assert res.notes["alpha"] == Fraction(10 * 16) / Fraction(1, 8)


class TestHardChecks:
    """The pipeline's bounds raise, with their messages, when broken."""

    def test_restored_weight_over_3x_raises(self, monkeypatch):
        real = pipeline.sparsify_weighted

        def heavier(sub, *args, **kwargs):
            res = real(sub, *args, **kwargs)
            edges = tuple(HyperEdge(e.vertices, 4 * e.weight) for e in res.hypergraph.edges)
            return dataclasses.replace(res, hypergraph=WeightedHypergraph(sub.n, edges))

        monkeypatch.setattr(pipeline, "sparsify_weighted", heavier)
        h = WeightedHypergraph(3, (HyperEdge((1, 2)), HyperEdge((2, 3)), HyperEdge((1, 3))))
        with pytest.raises(PipelineError, match=r"^bucket 1 restored weight 12 exceeds 3x input 3$"):
            fast_sparsify(h, 0.5)

    def test_shrink_past_n_minus_1_raises(self, monkeypatch):
        real = pipeline.contract_components

        def padded(n, higher, lower):
            k, comps = real(n, higher, lower)
            # n more supervertices, joined to the first component by a copy
            # of its first edge
            (low, sub, idxs), *rest = comps
            extra = tuple(range(sub.n + 1, sub.n + n + 1))
            first = sub.edges[0]
            edges = sub.edges + (HyperEdge(first.vertices + extra, first.weight),)
            return k + n, [(low, WeightedHypergraph(sub.n + n, edges), idxs + idxs[:1]), *rest]

        monkeypatch.setattr(pipeline, "contract_components", padded)
        h = WeightedHypergraph(3, (HyperEdge((1, 2)), HyperEdge((2, 3))))
        with pytest.raises(PipelineError, match=r"^supervertex shrink 5 exceeds n-1$"):
            fast_sparsify(h, 0.5)

    def test_supervertex_count_must_telescope(self, monkeypatch):
        real = pipeline.contract_components

        def one_more(n, higher, lower):
            k, comps = real(n, higher, lower)
            # the second bucket of a parity is the first with a heavier one
            return (k + 1 if higher else k), comps

        monkeypatch.setattr(pipeline, "contract_components", one_more)
        # buckets 3 (the heavy path, one component) and 1, both odd
        with pytest.raises(PipelineError, match=r"^supervertex count 2 does not match the "
                           r"previous bucket's component count 1$"):
            fast_sparsify(heavy_light(), 0.5)


class TestStreaming:
    def test_short_stream_equals_one_shot(self):
        h = gen_random(5, 10, 3, seed=4)
        res = stream_sparsify(iter(h.edges), 5, 100, 0.5, seed=6)
        direct = fast_sparsify(
            fold(h), res.notes["eps_inner"], 1, child_seed(6, "final"))
        assert [(e.vertices, e.weight) for e in res.hypergraph.edges] == \
            [(e.vertices, e.weight) for e in direct.hypergraph.edges]
        assert res.notes["flushes"] == 0 and res.notes["levels"] == 1

    def test_heavy_pair_then_unit_edges(self, monkeypatch):
        # eps_inner of 11 edges over 3 vertices at eps 0.5 is near 0.133, so
        # the flushes after the first hold a bucket over the copy limit
        h = two_alpha_pair([HyperEdge((1, 3))] * 10)
        fed = record_fast_sparsify(monkeypatch)
        res = stream_sparsify(iter(h.edges), 3, 11, 0.5, capacity=4)
        assert res.notes["flushes"] == 3 and round(res.notes["eps_inner"], 3) == 0.133
        assert max(sum(copy_counts(f, res.notes["eps_inner"] / 2)[1]) for f in fed) == 1147367
        assert all_cuts_report(h, res.hypergraph, 0.5).passed

    def test_eps_inner_floor(self):
        s = StreamState(8, 8, 0.5)
        assert s.log_ratio == 1.0 and s.eps_inner == 0.25

    def test_bound_enforced(self):
        s = StreamState(3, 2, 0.5)
        s.push(HyperEdge((1, 2)))
        s.push(HyperEdge((2, 3)))
        with pytest.raises(ValueError, match="declared bound"):
            s.push(HyperEdge((1, 3)))

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamState(3, 100, 0.5, capacity=3)
        with pytest.raises(ValueError):
            StreamState(0, 100, 0.5)
        with pytest.raises(ValueError):
            StreamState(3, 100, 1.5)

    def test_log_ratio_past_float_range(self):
        # m_bound / n underflows to 0.0 and overflows a float; the int logs
        # take over, and the float quotient stays in every other case
        assert StreamState(10**400, 5, 0.5, capacity=4).log_ratio == 1.0
        assert StreamState(3, 10**400, 0.5).log_ratio == math.log2(10**400) - math.log2(3)
        assert StreamState(6, 40, 0.5).log_ratio == math.log2(40 / 6)

    def test_d_checked_before_any_edge(self):
        with pytest.raises(ValueError, match="d must be a nonnegative integer"):
            StreamState(3, 100, 0.5, d=-1)
        with pytest.raises(ValueError, match="d must be a nonnegative integer"):
            stream_sparsify([], 3, 5, 0.5, d=-1)

    def test_multilevel_quality_and_memory(self):
        h = gen_random(6, 120, 3, seed=12)
        res = stream_sparsify(iter(h.edges), 6, 120, 0.5, seed=9, capacity=16)
        notes = res.notes
        assert notes["flushes"] > 2 and notes["levels"] >= 2
        assert notes["high_water"] <= notes["memory_bound"]
        assert notes["edges_seen"] == 120
        rep = all_cuts_report(h, res.hypergraph, 0.5)
        assert rep.passed, rep.max_rel_error
        again = stream_sparsify(iter(h.edges), 6, 120, 0.5, seed=9, capacity=16)
        assert [(e.vertices, e.weight) for e in again.hypergraph.edges] == \
            [(e.vertices, e.weight) for e in res.hypergraph.edges]

    def test_flush_folds_parallel_sets(self):
        edges = tuple(HyperEdge((1, 2)) for _ in range(8))
        s = StreamState(2, 100, 0.5, capacity=4)
        for e in edges:
            s.push(e)
        # two flushed sketches at level 1 merged into one at level 2
        stored = [sk for lvl in s.sketches for sk in lvl]
        assert sum(len(sk) for sk in stored) == 1
        total = sum(e.weight for sk in stored for e in sk)
        # two compounded flushes at eps_inner, each within (1 +- eps_inner)
        band = (1 + s.eps_inner) ** 2
        assert 8 / band <= total <= 8 * band


class TestStreamFold:
    """Parallel edges are folded before every sparsification, never after."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_flush_sparsifies_distinct_sets(self, data):
        n, edges = data.draw(parallel_streams())
        capacity = data.draw(st.integers(4, 12))
        if data.draw(st.booleans()):
            # one heavy pair a bucket above every other weight, folded or not
            eps_inner = StreamState(n, len(edges) + 1, 0.5).eps_inner
            alpha = bucket_by_weight(WeightedHypergraph(n, ()), eps_inner).alpha
            heavy = HyperEdge((1, 2), 2 * alpha * sum(e.weight for e in edges))
            edges.insert(data.draw(st.integers(0, len(edges))), heavy)
        distinct = len({e.vertices for e in edges})
        with pytest.MonkeyPatch.context() as mp:
            fed = record_fast_sparsify(mp)
            res = stream_sparsify(iter(edges), n, len(edges), 0.5, seed=3, capacity=capacity)
        assert len(fed) == res.notes["flushes"] + 1
        assert sum(h.m for h in fed) <= (res.notes["flushes"] + 1) * distinct
        for h in fed:
            assert len({e.vertices for e in h.edges}) == h.m
        out_sets = [e.vertices for e in res.hypergraph.edges]
        assert len(set(out_sets)) == len(out_sets) == res.m_out <= distinct

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fold_preserves_every_cut(self, data):
        n, edges = data.draw(parallel_streams(n_range=(2, 8), max_edges=30))
        h = WeightedHypergraph(n, tuple(edges))
        with pytest.MonkeyPatch.context() as mp:
            fed = record_fast_sparsify(mp)
            # a capacity above the edge count: the one call is finish's
            stream_sparsify(iter(edges), n, len(edges), 0.5, capacity=len(edges) + 4)
        (folded,) = fed
        for mask in range(1, 1 << (n - 1)):
            cut = Cut(n, mask)
            assert cut_weight(folded, cut) == cut_weight(h, cut)
        assert [(e.vertices, e.weight) for e in folded.edges] == \
            [(e.vertices, e.weight) for e in fold(h).edges]
        # a lone edge passes through as the same object
        lone = [e for e in edges if sum(f.vertices == e.vertices for f in edges) == 1]
        assert all(any(f is e for f in folded.edges) for e in lone)


class TestStreamMemoryCheck:
    def test_bound_raises_at_offending_push(self, monkeypatch):
        monkeypatch.setattr(StreamState, "memory_bound", lambda self: 2.5)
        s = StreamState(3, 100, 0.5, capacity=8)
        s.push(HyperEdge((1, 2)))
        s.push(HyperEdge((2, 3)))
        with pytest.raises(PipelineError, match="over the budget 2.5"):
            s.push(HyperEdge((1, 3)))
        assert s.edges_seen == 3 and s.high_water == 3


class TestStreamPush:
    def test_out_of_range_vertex_raises_at_the_push(self):
        s = StreamState(3, 100, 0.5, capacity=8)
        s.push(HyperEdge((1, 2)))
        with pytest.raises(ValueError, match=r"^vertex id 5 out of range \[1,3\]$"):
            s.push(HyperEdge((1, 5)))
        assert s.edges_seen == 1 and s.raw == [HyperEdge((1, 2))]
        # the batch is intact: the next pushes fill it and flush it
        for _ in range(7):
            s.push(HyperEdge((2, 3)))
        assert s.flushes == 1 and s.raw == [] and s.edges_seen == 8


class RecountingState(StreamState):
    """A stream state that recounts its stored edges at every memory check."""

    recount_max = 0

    def _note_memory(self):
        recount = sum(len(sk) for lvl in self.sketches for sk in lvl)
        assert self.sketched == recount
        self.recount_max = max(self.recount_max, len(self.raw) + recount)
        super()._note_memory()


class TestStoredCount:
    def test_running_count_matches_a_recount(self):
        h = gen_random(6, 120, 3, seed=12)
        s = RecountingState(6, 120, 0.5, seed=9, capacity=16)
        for e in h.edges:
            s.push(e)
            assert s.sketched == sum(len(sk) for lvl in s.sketches for sk in lvl)
        assert s.flushes > 2 and len(s.sketches) >= 2
        assert s.high_water == s.recount_max


class TestFractionOps:
    def test_fast_sparsify_ops_do_not_grow_with_edges(self, monkeypatch):
        # weights over the denominators 1, 3 and 7 in two components and
        # three buckets; doubling every edge keeps the denominators, so the
        # Fraction compares must stay as they are, and every sum is made in
        # ints with no Fraction add
        w = Fraction(10 * 16) / Fraction(1, 8) + 1
        light = [((1, 2), 1), ((1, 2), Fraction(4, 3)), ((2, 3), Fraction(9, 7)),
                 ((3, 4), Fraction(5, 3)), ((1, 3, 4), 2)]
        heavy = [((1, 2), w), ((3, 4), w * Fraction(4, 3)), ((2, 3), w * w)]
        h = WeightedHypergraph(4, tuple(HyperEdge(vs, x) for vs, x in light + heavy))
        base = fraction_op_counts(monkeypatch, lambda: fast_sparsify(h, 0.5))
        twice = WeightedHypergraph(4, h.edges * 2)
        doubled = fraction_op_counts(monkeypatch, lambda: fast_sparsify(twice, 0.5))
        assert len(fast_sparsify(h, 0.5).notes["bucket_reports"]) == 3
        assert base["__add__"] == base["__radd__"] == 0 and doubled == base

    def test_keep_all_weights_do_not_grow_with_edges(self, monkeypatch):
        # at the theoretical rho every copy is kept and edge j's weight is
        # counts[j] / scale; doubling the edges at the same weights keeps the
        # distinct counts, so the Fractions built must stay as they are
        light = [((1, 2), 1), ((2, 3), Fraction(5, 3)), ((1, 3, 4), 2), ((3, 4), Fraction(7, 2))]
        h = WeightedHypergraph(4, tuple(HyperEdge(vs, Fraction(x)) for vs, x in light))
        twice = WeightedHypergraph(4, h.edges * 2)
        res = sparsify_weighted(twice, 0.5)
        assert res.plan.rho >= res.notes["reduced_copies"] and res.hypergraph == twice
        built = [fraction_builds(monkeypatch, lambda g=g: sparsify_weighted(g, 0.5))
                 for g in (h, twice)]
        assert 0 < built[0] == built[1]
