"""Weighted multigraphs given as 2-uniform hypergraphs: collapse of parallel
edges, min cuts, strengths, and the brute-force oracle."""

import itertools
import sys
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
    run_balance,
)
from hgsparse import balance, graph
from hgsparse.graph import StrengthTree, _merged_min_cut, _stoer_wagner
from conftest import mg, random_hypergraph, random_multigraph
from oracles import (components_full_join, global_min_cut, heavy_core, src_class_fails,
                     sum_parallel_loop)

TRIANGLE = [(1, 2, 1), (2, 3, 1), (1, 3, 1)]
# two unit triangles joined by one bridge edge
BRIDGED = [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1), (3, 4, 1)]


class TestCollapse:
    def test_parallel_sum(self):
        g = mg(2, [(1, 2, Fraction(1, 2)), (2, 1, Fraction(1, 2))])
        assert collapse(g) == {(1, 2): Fraction(1)}

    def test_k3_thirds(self):
        g = mg(3, [(u, v, Fraction(1, 3)) for u, v, _ in TRIANGLE])
        assert collapse(g) == {(1, 2): Fraction(1, 3), (2, 3): Fraction(1, 3),
                               (1, 3): Fraction(1, 3)}

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_add_oracle(self, n, data):
        # mixed denominators, many parallel pairs; keys in first-appearance
        # order, which the strength routines and Stoer-Wagner inputs follow
        pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        weight = st.one_of(st.builds(Fraction, st.integers(1, 30)),
                           st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**4)))
        triples = data.draw(st.lists(st.tuples(pair, weight), max_size=30))
        g = mg(n, [(u, v, w) for (u, v), w in triples])
        got = collapse(g)
        want = sum_parallel_loop(g.edges)
        assert list(got.items()) == list(want.items())
        assert all(type(w) is Fraction for w in got.values())

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
        t = edge_strengths(mg(3, [(1, 2, 3), (2, 3, 1)]))
        # the absent pair (1,3) carries no weight and leaves pair (1,2) at weight 3
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
    brute-force oracle, `changed` must name exactly the pairs whose
    strength differs from before the move, and every block must pass
    `check_blocks`.  Returns how many moves emptied a pair and how many
    joined two components."""
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
        check_blocks(tree)
        if n <= 7:
            g = mg(n, [(u, v, w) for (u, v), w in weights.items() if w])
            slow = {p: s for p, s in brute_force_strengths(g).items() if s}
            assert tree.strengths == slow, (src, dst)
    return emptied, joined


def check_blocks(tree):
    """Every block's stored value is the weight of its stored cut at the
    tree's current weights and the block's min cut, and its kids are the
    sides of that cut with more than one vertex."""
    adj = tree.adj
    for node in blocks_of(tree):
        assert node.side | node.rest == node.verts and not node.side & node.rest
        assert node.val == sum(adj[u].get(v, 0) for u in node.side for v in node.rest)
        assert node.val == _stoer_wagner(node.verts, adj)[0]
        assert [kid.verts for kid in node.kids] == [
            part for part in (node.side, node.rest) if len(part) > 1]


def blocks_of(tree):
    """Every block of the peel tree with a cut, parents before children."""
    out, stack = [], [r for r in tree.roots if len(r.verts) > 1]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.kids)
    return out


def brute_neither_min(verts, adj, pairs):
    """Least cut of the block `verts` that separates no pair of `pairs` lying
    inside it, by enumerating its bipartitions; None when every one does."""
    inside = [p for p in pairs if p[0] in verts and p[1] in verts]
    first, *others = sorted(verts)
    best = None
    for r in range(len(others) + 1):
        for side in map(set, itertools.combinations(others, r)):
            rest = verts - side  # holds first, so neither side is empty
            if not side or any((u in side) != (v in side) for u, v in inside):
                continue
            value = sum(adj[u].get(v, 0) for u in side for v in rest)
            if best is None or value < best:
                best = value
    return best


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

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_phase_runs_match_fresh_peel(self, n, data):
        # the balance loop moves many units between one (src, dst) before the
        # pair changes: runs of 1-10 equal moves reuse each block's cached
        # minimum over the cuts crossing neither pair, and pair changes,
        # empties and joins in between must drop it
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        weights = {p: data.draw(st.integers(0, 4)) for p in pairs}
        left, moves = dict(weights), []
        for _ in range(data.draw(st.integers(1, 8))):
            positive = [p for p in pairs if left[p] > 0]
            if not positive:
                break
            src = data.draw(st.sampled_from(positive))
            dst = data.draw(st.sampled_from([p for p in pairs if p != src]))
            run = min(data.draw(st.integers(1, 10)), left[src])
            left[src] -= run
            left[dst] += run
            moves += [(src, dst)] * run
        shift_and_check(n, weights, moves)

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_batched_shift_follows_the_horizon(self, n, data):
        # after each j <= T units the strengths lie on the horizon's lines,
        # as a fresh peel finds them, and each of those units keeps every
        # stored cut without Stoer-Wagner; shift(src, dst, t) for t <= T + 1
        # equals t single shifts and a fresh peel, with `changed` their diff
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        top = data.draw(st.sampled_from([4, 20]))
        weights = {p: data.draw(st.integers(0, top)) for p in pairs}
        positive = [p for p in pairs if weights[p]]
        if not positive:
            return
        src = data.draw(st.sampled_from(positive))
        dst = data.draw(st.sampled_from([p for p in pairs if p != src]))
        tree = StrengthTree(n, weights)
        certified, slopes = tree.horizon(src, dst)
        assert 0 <= certified < weights[src] and set(slopes) <= set(tree.strengths)
        now, moved = dict(tree.strengths), dict(weights)
        for j in range(certified + 1):
            assert pair_strengths(n, moved) == {p: v + slopes.get(p, 0) * j for p, v in now.items()}
            moved[src] -= 1
            moved[dst] += 1
        real = graph._stoer_wagner

        def shift_callers(tree, units):
            """tree.shift(src, dst, units), then the caller of each
            Stoer-Wagner run it made and `check_blocks`."""
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graph, "_stoer_wagner",
                           lambda *args: calls.append(sys._getframe(1).f_code.co_name) or real(*args))
                tree.shift(src, dst, units)
            check_blocks(tree)
            return calls

        # a certified move runs Stoer-Wagner only for μ, never on a block
        for _ in range(certified):
            assert "shift" not in shift_callers(tree, 1)
        for t in range(1, certified + 2):
            batched, single = StrengthTree(n, weights), StrengthTree(n, weights)
            batched.changed.clear()
            callers = shift_callers(batched, t)
            if t <= certified:
                assert "shift" not in callers
            for _ in range(t):
                single.shift(src, dst)
            check_blocks(single)
            moved = dict(weights)
            moved[src] -= t
            moved[dst] += t
            assert batched.strengths == single.strengths == pair_strengths(n, moved)
            assert batched.changed == {p for p in now.keys() | batched.strengths.keys()
                                       if now.get(p) != batched.strengths.get(p)}

    def test_horizon_ends_at_a_bend(self):
        # (1, 3) and (2, 3) rise with the cut {3} until it meets the falling
        # (1, 2) after 3 units; the 4th makes all three strengths 6
        weights = {(1, 2): 9, (1, 3): 1, (2, 3): 1}
        tree = StrengthTree(3, weights)
        assert tree.horizon((1, 2), (1, 3)) == (3, {(1, 2): -1, (1, 3): 1, (2, 3): 1})
        for units in (5, 0, -1):
            with pytest.raises(ValueError):
                StrengthTree(3, weights).shift((1, 2), (1, 3), units)
        tree.shift((1, 2), (1, 3), 4)
        assert tree.strengths == {(1, 2): 6, (1, 3): 6, (2, 3): 6}

    def test_pair_change_drops_cached_mu(self):
        # a star at 4.  The first move keeps the root's cut {3}, which
        # crosses dst (2, 3), and caches 7 as the least cut crossing neither
        # (1, 4) nor (2, 3).  For the next pair, cut {1} crosses neither and
        # weighs 3, below the kept cut's new 4: a stale 7 would keep {3}
        weights = {(1, 4): 4, (2, 4): 5, (3, 4): 2, (2, 3): 0}
        shift_and_check(4, weights, [((1, 4), (2, 3)), ((2, 4), (3, 4))])

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_merged_min_cut_is_brute_force(self, n, data):
        # μ, the minimum over a block's cuts that cross neither the src nor
        # the dst pair, on blocks holding dst alone and blocks holding both
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        tree = StrengthTree(n, {p: data.draw(st.integers(0, 4)) for p in pairs})
        blocks = blocks_of(tree)
        if not blocks:
            return
        block = data.draw(st.sampled_from(blocks))
        verts = block.verts
        inside = [p for p in pairs if p[0] in verts and p[1] in verts]
        dst = data.draw(st.sampled_from(inside))
        both = data.draw(st.booleans())
        srcs = [p for p in pairs if p != dst and (p in inside) == both]
        if not srcs:
            return
        src = data.draw(st.sampled_from(srcs))
        mu = _merged_min_cut(verts, tree.adj, (src, dst))
        assert mu == brute_neither_min(verts, tree.adj, (src, dst))

    def test_merged_min_cut_empty_class(self):
        adj = StrengthTree(3, {(1, 2): 9, (1, 3): 1, (2, 3): 1}).adj
        assert _merged_min_cut(frozenset({1, 2}), adj, [(1, 2), (1, 3)]) is None
        assert _merged_min_cut(frozenset({1, 2, 3}), adj, [(1, 2), (1, 3)]) is None
        assert _merged_min_cut(frozenset({1, 2, 3}), adj, [(1, 2), (4, 5)]) == 2

    def test_empty_class_binds_nothing(self, monkeypatch):
        # merging both pairs leaves the triangle one vertex, so no cut crosses
        # neither: the stored cut {3}, which gains each unit moved onto
        # (1, 3), stays certified by the heavy (1, 2) alone
        calls = []
        real = graph._stoer_wagner

        def counted(*args):
            calls.append(1)
            return real(*args)

        weights = {(1, 2): 9, (1, 3): 1, (2, 3): 1}
        monkeypatch.setattr(graph, "_stoer_wagner", counted)
        tree = StrengthTree(3, weights)
        built = len(calls)
        for _ in range(3):
            tree.shift((1, 2), (1, 3))
        assert len(calls) == built
        monkeypatch.undo()
        assert shift_and_check(3, weights, [((1, 2), (1, 3))] * 3) == (0, 0)
        assert tree.strengths == {(1, 2): 6, (1, 3): 5, (2, 3): 5}


    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_src_class_lines_match_the_running_max(self, data):
        # at every transfer of a balance run, and at any state j of its
        # moves, the src-class lines fail on exactly the chain blocks where
        # the running max does
        heavy = data.draw(st.booleans())
        if heavy:
            h = heavy_core(data.draw(st.integers(6, 12)))
        else:
            h = random_hypergraph(data.draw(st.integers(4, 8)), data.draw(st.integers(6, 24)),
                                  4, data.draw(st.integers(0, 10**6)))
        js = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
        real, transfers = balance.transfer_step, []

        def checked(state, key, f_min, f_max, units=1):
            chain = state.tree._chain(*f_max)
            lines = dict(graph._src_class(chain, f_max, f_min))
            for j in js + [units - 1]:
                assert src_class_fails(chain, f_max, f_min, j) == {
                    node: node in lines and all(c + s * j <= 0 for c, s in lines[node])
                    for node in chain}
            transfers.append(units)
            real(state, key, f_min, f_max, units)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(balance, "transfer_step", checked)
            run_balance(h)
        assert transfers or not heavy


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
        return edge_strengths(mg(n, [(u, v, w) for (u, v), w in pairs.items()])).pair_strength

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

    def test_joining_stops_at_one_set(self):
        joins = []

        class Counted(UnionFind):
            def union(self, a, b):
                joins.append((a, b))
                return super().union(a, b)

        # one set is left after (3, 4); the sets after it are not read
        sets = [(1, 2), (2, 3), (3, 4), (1, 4), (2, 3, 4)]
        assert Counted(range(1, 5), sets).groups() == [frozenset({1, 2, 3, 4})]
        assert joins == [(1, 2), (2, 3), (3, 4)]
        assert UnionFind(range(1, 5), sets).groups() == components_full_join(range(1, 5), sets)

    @given(st.integers(1, 7), st.data())
    def test_groups_match_a_full_join(self, n, data):
        sets = data.draw(st.lists(
            st.lists(st.integers(1, n), min_size=1, max_size=4), max_size=10))
        ids = range(1, n + 1)
        assert UnionFind(ids, sets).groups() == components_full_join(ids, sets)
