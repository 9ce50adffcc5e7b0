"""Weighted multigraphs given as 2-uniform hypergraphs: collapse of parallel
edges, min cuts, strengths, and the brute-force oracle."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgsparse import (
    HyperEdge,
    UnionFind,
    WeightedHypergraph,
    brute_force_strengths,
    collapse,
    edge_strengths,
    k_strong_components,
    pair_strengths,
    strength_table_from_pairs,
)
from hgsparse.graph import StrengthTree
from conftest import mg, random_multigraph
from oracles import global_min_cut

TRIANGLE = [(1, 2, 1), (2, 3, 1), (1, 3, 1)]
# two unit triangles joined by one bridge edge
BRIDGED = [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1), (3, 4, 1)]


class TestCollapse:
    def test_parallel_sum(self):
        g = mg(2, [(1, 2, Fraction(1, 2)), (2, 1, Fraction(1, 2))])
        assert collapse(g) == {(1, 2): Fraction(1)}

    def test_zero_filtered(self):
        assert strength_table_from_pairs(2, {(1, 2): Fraction(0)}).pair_weight == {}

    def test_k3_thirds(self):
        g = mg(3, [(u, v, Fraction(1, 3)) for u, v, _ in TRIANGLE])
        assert collapse(g) == {(1, 2): Fraction(1, 3), (2, 3): Fraction(1, 3),
                               (1, 3): Fraction(1, 3)}

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            HyperEdge((2, 2))

    @pytest.mark.parametrize("read", [collapse, edge_strengths, global_min_cut,
                                      brute_force_strengths])
    def test_hyperedge_rejected(self, read):
        h = WeightedHypergraph(3, (HyperEdge((1, 2)), HyperEdge((1, 2, 3))))
        with pytest.raises(ValueError, match="2-vertex edges"):
            read(h)


class TestGlobalMinCut:
    def test_path_bridge(self):
        val, side = global_min_cut(mg(3, [(1, 2, 1), (2, 3, 1)]))
        assert val == 1

    def test_triangle(self):
        val, _ = global_min_cut(mg(3, TRIANGLE))
        assert val == 2

    def test_disconnected(self):
        val, side = global_min_cut(WeightedHypergraph(2, ()))
        assert val == 0 and side == frozenset({1})

    def test_too_small(self):
        with pytest.raises(ValueError):
            global_min_cut(mg(3, TRIANGLE), subset=[1])

    def test_subset_restriction(self):
        val, side = global_min_cut(mg(6, BRIDGED), subset=[1, 2, 3])
        assert val == 2

    def test_deterministic_tiebreak(self):
        # C4: many cuts achieve 2; the contraction order pins one side
        g = mg(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])
        assert global_min_cut(g) == (Fraction(2), frozenset({2, 3, 4}))

    def test_exact_over_brute(self):
        for seed in range(10):
            g = random_multigraph(6, 10, seed)
            val, side = global_min_cut(g)
            weights = collapse(g)
            # brute force over all proper subsets containing vertex 1
            best = None
            for r in range(1, 6):
                for sub in itertools.combinations(range(2, 7), r):
                    s = {1, *sub} if r < 5 else set(sub)
                    total = Fraction(0)
                    for (u, v), w in weights.items():
                        if (u in s) != (v in s):
                            total += w
                    best = total if best is None or total < best else best
            assert val == best


class TestEdgeStrengths:
    def test_triangle_all_two(self):
        t = edge_strengths(mg(3, TRIANGLE))
        for p in [(1, 2), (2, 3), (1, 3)]:
            assert t.strength(*p) == 2

    def test_bridged_triangles(self):
        t = edge_strengths(mg(6, BRIDGED))
        assert t.strength(3, 4) == 1
        for p in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]:
            assert t.strength(*p) == 2

    def test_single_heavy_edge(self):
        t = edge_strengths(mg(2, [(1, 2, 5)]))
        assert t.strength(1, 2) == 5

    def test_zero_weight_edge_inherits_pair(self):
        t = strength_table_from_pairs(3, {(1, 2): Fraction(3), (1, 3): Fraction(0),
                                          (2, 3): Fraction(1)})
        # the zero pair carries no weight and leaves pair (1,2) at weight 3
        assert t.strength(1, 2) == 3
        assert (1, 3) not in t.pair_weight

    def test_absent_pair_strength_zero(self):
        t = edge_strengths(mg(4, [(1, 2, 1)]))
        assert t.strength(3, 4) == 0

    def test_oracle_equivalence_quick(self):
        for seed in range(20):
            g = random_multigraph(6, 9, seed)
            fast = edge_strengths(g)
            slow = brute_force_strengths(g)
            for (u, v), w in collapse(g).items():
                assert fast.strength(u, v) == slow[(u, v)], (seed, u, v)

    def test_brute_force_single(self):
        assert brute_force_strengths(mg(3, TRIANGLE))[(1, 2)] == 2
        with pytest.raises(ValueError):
            brute_force_strengths(WeightedHypergraph(17, ()))


class TestStrengthTable:
    def test_distinct_count_bound(self):
        # at most n-1 distinct strength values on positive pairs
        for seed in range(10):
            g = random_multigraph(7, 12, seed)
            t = edge_strengths(g)
            assert t.distinct_strength_count() <= g.n - 1

    def test_weight_over_strength_bound(self):
        for seed in range(10):
            g = random_multigraph(7, 12, seed)
            t = edge_strengths(g)
            assert t.strength_weight_sum() <= g.n - 1

    def test_strength_at_least_component_mincut(self):
        for seed in range(8):
            g = random_multigraph(6, 10, seed)
            weights = collapse(g)
            if not weights:
                continue
            t = edge_strengths(g)
            val, _ = global_min_cut(g)
            for p in weights:
                assert t.strength(*p) >= val

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_bounds_hold_on_arbitrary_graphs(self, n, data):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        triples = []
        for _ in range(data.draw(st.integers(0, 12))):
            u, v = data.draw(st.sampled_from(pairs))
            w = Fraction(data.draw(st.integers(1, 24)),
                         data.draw(st.integers(1, 6)))
            triples.append((u, v, w))
        t = edge_strengths(mg(n, triples))
        assert t.distinct_strength_count() <= n - 1
        assert t.strength_weight_sum() <= n - 1


def shift_and_check(n, weights, moves):
    """Apply unit moves (src, dst) to a StrengthTree of `weights`.  After
    every move its strengths must equal a fresh peel, and for n <= 7 the
    brute-force oracle, and `changed` must name exactly the pairs whose
    strength differs from before the move.  Returns how many moves emptied
    a pair and how many joined two components."""
    weights = dict(weights)
    tree = StrengthTree(n, weights)
    assert tree.changed == set(tree.strengths)
    emptied = joined = 0
    for src, dst in moves:
        before = dict(tree.strengths)
        tree.changed.clear()
        weights[src] -= 1
        weights[dst] = weights.get(dst, 0) + 1
        emptied += weights[src] == 0
        joined += weights[dst] == 1 and dst not in before
        tree.shift(src, dst)
        assert tree.strengths == pair_strengths(n, weights), (src, dst)
        after = tree.strengths
        assert tree.changed == {p for p in before.keys() | after.keys()
                                if before.get(p) != after.get(p)}, (src, dst)
        if n <= 7:
            g = mg(n, [(u, v, w) for (u, v), w in weights.items() if w])
            slow = {p: s for p, s in brute_force_strengths(g).items() if s}
            assert tree.strengths == slow, (src, dst)
    return emptied, joined


class TestStrengthTree:
    def test_construction_is_pair_strengths(self):
        weights = {(1, 2): 3, (2, 3): 1, (1, 3): 1, (4, 5): 2, (5, 6): 0}
        tree = StrengthTree(6, weights)
        assert tree.strengths == pair_strengths(6, weights) == {
            (1, 2): 3, (1, 3): 2, (2, 3): 2, (4, 5): 2}

    def test_empty_then_join(self):
        # the bridge (3, 4) empties, splitting the graph, and is refilled;
        # then (4, 5) empties while (1, 6) opens inside the component
        weights = {(u, v): w for u, v, w in BRIDGED}
        moves = [((3, 4), (1, 2)), ((1, 2), (3, 4)), ((4, 5), (1, 6))]
        assert shift_and_check(6, weights, moves) == (2, 1)

    @given(st.integers(3, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unit_moves_match_fresh_peel(self, n, data):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        weights = {p: data.draw(st.integers(0, 4)) for p in pairs}
        moves = []
        for _ in range(data.draw(st.integers(1, 25))):
            positive = [p for p in pairs if weights[p] > 0]
            if not positive:
                break
            src = data.draw(st.sampled_from(positive))
            dst = data.draw(st.sampled_from([p for p in pairs if p != src]))
            weights[src] -= 1
            weights[dst] += 1
            moves.append((src, dst))
        for src, dst in reversed(moves):
            weights[src] += 1
            weights[dst] -= 1
        shift_and_check(n, weights, moves)


class TestKStrongComponents:
    def test_bridged_split(self):
        t = edge_strengths(mg(6, BRIDGED))
        assert k_strong_components(t, 2) == [frozenset({1, 2, 3}), frozenset({4, 5, 6})]

    def test_min_strength_whole_components(self):
        t = edge_strengths(mg(6, BRIDGED))
        assert k_strong_components(t, 1) == [frozenset(range(1, 7))]

    def test_above_max_all_singletons(self):
        t = edge_strengths(mg(6, BRIDGED))
        assert k_strong_components(t, 3) == [frozenset({v}) for v in range(1, 7)]

    def test_nonpositive_k_rejected(self):
        t = edge_strengths(mg(3, TRIANGLE))
        with pytest.raises(ValueError):
            k_strong_components(t, 0)

    def test_refinement(self):
        # the k'-strong partition refines the k-strong partition for k' >= k
        for seed in range(10):
            g = random_multigraph(7, 12, seed)
            t = edge_strengths(g)
            values = sorted({t.strength(*p) for p in t.pair_weight})
            prev = None
            for k in values:
                parts = k_strong_components(t, k)
                if prev is not None:
                    for block in parts:
                        assert any(block <= big for big in prev)
                prev = parts


class TestWeightIncreaseMonotonicity:
    def _strengths(self, n, pairs):
        return strength_table_from_pairs(n, pairs).pair_strength

    def test_delta_increase_bounds_quick(self):
        import random as _random

        for seed in range(30):
            rng = _random.Random(seed)
            g = random_multigraph(6, 9, seed)
            pairs = collapse(g)
            if not pairs:
                continue
            f = sorted(pairs)[rng.randrange(len(pairs))]
            delta = Fraction(1, rng.randint(1, 9))
            before = self._strengths(6, pairs)
            bumped = dict(pairs)
            bumped[f] += delta
            after = self._strengths(6, bumped)
            keys = set(before) | set(after)
            z = Fraction(0)
            for p in keys:
                old, new = before.get(p, z), after.get(p, z)
                assert old <= new <= old + delta, (seed, p)
                if new > old:
                    assert before.get(p, z) >= before.get(f, z)
                    assert new <= after.get(f, z)


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(range(1, 5))
        assert uf.union(1, 2)
        assert not uf.union(2, 1)
        uf.union(3, 4)
        assert uf.find(1) == uf.find(2)
        assert uf.find(1) != uf.find(3)
        assert uf.groups() == [frozenset({1, 2}), frozenset({3, 4})]
