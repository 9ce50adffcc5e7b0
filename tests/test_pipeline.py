"""Weight buckets, contraction, the parity pipeline, and streaming."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgsparse import (
    Cut,
    HyperEdge,
    PipelineError,
    StreamState,
    WeightedHypergraph,
    all_cuts_report,
    bucket_by_weight,
    child_seed,
    contract_components,
    cut_weight,
    fast_sparsify,
    gen_random,
    sparsify_parity,
    sparsify_weighted,
    stream_sparsify,
)
from hgsparse.pipeline import EVEN, ODD
from oracles import mask_of, rebuild_contract_components


@st.composite
def edge_lists(draw, n: int, max_edges: int) -> list[HyperEdge]:
    sets = st.sets(st.integers(1, n), min_size=2, max_size=min(n, 4))
    weights = st.builds(Fraction, st.integers(1, 50), st.integers(1, 8))
    return [HyperEdge(tuple(sorted(draw(sets))), draw(weights))
            for _ in range(draw(st.integers(0, max_edges)))]


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
        assert b.parity_indices(ODD) == [1] and b.parity_indices(EVEN) == []

    def test_boundaries_exact(self):
        # n=2, eps=1 gives alpha=40; the bucket is half-open on the right
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 1),
                                   HyperEdge((1, 2), 39),
                                   HyperEdge((1, 2), 40),
                                   HyperEdge((1, 2), 1600)))
        b = bucket_by_weight(h, 1.0)
        assert b.alpha == 40 and b.w0 == 1
        assert b.buckets == {1: (0, 1), 2: (2,), 3: (3,)}
        assert b.parity_indices(EVEN) == [2]
        assert b.parity_indices(ODD) == [1, 3]

    def test_empty_and_validation(self):
        assert bucket_by_weight(WeightedHypergraph(2, ()), 0.5).buckets == {}
        with pytest.raises(ValueError):
            bucket_by_weight(WeightedHypergraph(2, ()), 0.0)


class TestContractComponents:
    def test_identity_when_no_higher(self):
        lower = (HyperEdge((1, 3)), HyperEdge((2, 4, 5)))
        contracted, cmap, kept = contract_components(5, (), lower)
        assert cmap.n_super == 5 and cmap.supervertex == (1, 2, 3, 4, 5)
        assert contracted.edges == lower and kept == (0, 1)

    def test_collapse_and_drop(self):
        higher = (HyperEdge((1, 2)), HyperEdge((3, 4)))
        lower = (HyperEdge((1, 3)), HyperEdge((1, 2)), HyperEdge((2, 4)))
        contracted, cmap, kept = contract_components(4, higher, lower)
        assert cmap.supervertex == (1, 1, 2, 2) and cmap.n_super == 2
        # (1,2) lives inside supervertex 1 and is dropped
        assert kept == (0, 2)
        assert [e.vertices for e in contracted.edges] == [(1, 2), (1, 2)]

    def test_isolated_vertices_numbered_by_smallest(self):
        contracted, cmap, _ = contract_components(5, (HyperEdge((2, 4)),), ())
        assert cmap.supervertex == (1, 2, 3, 2, 4)
        assert contracted.n == 4

    @pytest.mark.parametrize("with_higher", [False, True])
    @given(data=st.data())
    def test_matches_rebuilding_oracle(self, with_higher, data):
        n = data.draw(st.integers(2, 8))
        higher = data.draw(edge_lists(n, 4)) if with_higher else []
        lower = data.draw(edge_lists(n, 10))
        contracted, cmap, kept = contract_components(n, higher, lower)
        want, want_cmap, want_kept = rebuild_contract_components(n, higher, lower)
        assert (cmap, kept, contracted.n) == (want_cmap, want_kept, want.n)
        assert [(e.vertices, e.weight) for e in contracted.edges] == \
            [(e.vertices, e.weight) for e in want.edges]
        # an edge whose vertex set maps to itself is passed through
        for e, idx in zip(contracted.edges, kept):
            assert (e is lower[idx]) == (e.vertices == lower[idx].vertices)
        if not higher:
            assert all(e is lower[idx] for e, idx in zip(contracted.edges, kept))

    def test_cut_weights_preserved_under_lifting(self):
        # every contracted cut lifts to an original cut of equal lower weight
        for seed in range(8):
            h = gen_random(6, 10, 3, weighted=True, w_max=5, seed=seed)
            higher = gen_random(6, 3, 2, seed=seed + 100).edges
            contracted, cmap, kept = contract_components(6, higher, h.edges)
            if contracted.n < 2:
                continue
            for mask in range(1, 1 << (contracted.n - 1), 2):
                csup = Cut(contracted.n, mask)
                side = [v for v in range(1, 7)
                        if mask >> (cmap.supervertex[v - 1] - 1) & 1]
                w_sup = cut_weight(contracted, csup)
                w_orig = cut_weight(h, Cut(6, mask_of(side)))
                assert w_sup == w_orig


class TestSparsifyParity:
    def test_single_bucket_matches_direct_call(self):
        h = gen_random(5, 9, 2, seed=3)
        edges, origin, reports = sparsify_parity(
            h, bucket_by_weight(h, 0.5), ODD, 0.5, seed=7)
        direct = sparsify_weighted(h, 0.25, seed=child_seed(7, ODD, 1, 1))
        assert [(e.vertices, e.weight) for e in edges] == \
            [(e.vertices, e.weight) for e in direct.hypergraph.edges]
        assert tuple(origin) == direct.origin
        assert len(reports) == 1 and reports[0].index == 1

    def test_other_parity_empty(self):
        h = gen_random(5, 9, 2, seed=3)
        edges, origin, reports = sparsify_parity(
            h, bucket_by_weight(h, 0.5), EVEN, 0.5, seed=7)
        assert edges == [] and origin == [] and reports == []

    def test_bad_parity(self):
        h = gen_random(3, 2, 2, seed=0)
        with pytest.raises(ValueError):
            sparsify_parity(h, bucket_by_weight(h, 0.5), "both", 0.5)

    def test_heavy_contracts_light_away(self):
        h = heavy_light()
        edges, origin, reports = sparsify_parity(
            h, bucket_by_weight(h, 0.5), ODD, 0.5, seed=1)
        # the spanning heavy path collapses everything: the light edge dies
        assert 0 not in origin
        assert sorted(origin) == [1, 2, 3]
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

    def test_origin_sorted_and_reports_collected(self):
        h = heavy_light()
        res = fast_sparsify(h, 0.5, seed=0)
        assert res.origin == tuple(sorted(res.origin))
        assert len(res.notes["bucket_reports"]) == 2
        assert res.notes["alpha"] == Fraction(10 * 16) / Fraction(1, 8)


class TestStreaming:
    def test_short_stream_equals_one_shot(self):
        h = gen_random(5, 10, 3, seed=4)
        res = stream_sparsify(iter(h.edges), 5, 100, 0.5, seed=6)
        direct = fast_sparsify(
            h, res.notes["eps_inner"], 1, child_seed(6, "final"))
        assert [(e.vertices, e.weight) for e in res.hypergraph.edges] == \
            [(e.vertices, e.weight) for e in direct.hypergraph.edges]
        assert res.notes["flushes"] == 0 and res.notes["levels"] == 1

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


class TestStreamMemoryCheck:
    def test_bound_raises_at_offending_push(self, monkeypatch):
        monkeypatch.setattr(StreamState, "memory_bound", lambda self: 2.5)
        s = StreamState(3, 100, 0.5, capacity=8)
        s.push(HyperEdge((1, 2)))
        s.push(HyperEdge((2, 3)))
        with pytest.raises(PipelineError, match="over the budget 2.5"):
            s.push(HyperEdge((1, 3)))
        assert s.edges_seen == 3 and s.high_water == 3
