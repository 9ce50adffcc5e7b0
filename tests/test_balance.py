"""Balancing loop: init scheme, bad-edge selection, transfers, invariants.

The two-cluster instance used throughout: 12 parallel edges {1,2} next to a
single {1,2,3}, which leaves vertex 3 hanging off two weak pairs.  At init
the spanning copy's strong slot sits five intervals above its weak ones, so
it is bad and the loop has real work to do.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgsparse import (
    BalanceError,
    HyperEdge,
    WeightedHypergraph,
    edge_strengths,
    find_max_bad,
    format_trace_line,
    gen_sunflower,
    init_weights,
    is_balanced,
    pair_strengths,
    run_balance,
    transfer_step,
)
from hgsparse import balance, graph
from hgsparse.balance import AssignmentGroup, BadEdge, BalancedAssignment
from conftest import BALANCE_INSTANCES, random_hypergraph, two_cluster


def units_of(assignment):
    return {
        (g.key, c): tuple(g.units_for(c))
        for g in assignment.groups
        for c in g.copies
    }


def reference_balance(h, gamma=2):
    """The transfer loop from its definition, one copy at a time: strengths
    from a fresh `edge_strengths` of the collapsed units, the pick a bad copy
    of highest interval index, ties to the smallest group key, then to the
    smallest copy index holding the strongest positively weighted slot of
    that group.  Returns (iterations, {(key, copy): units})."""
    n, total = h.n, h.n * h.n
    slots = [list(itertools.combinations(e.vertices, 2)) for e in h.edges]
    units = []
    for s in slots:
        base = max(2, total // len(s))
        rem = total - len(s) * base
        units.append([base + 1 if i < rem else base for i in range(len(s))])

    def strengths():
        return edge_strengths(WeightedHypergraph(n, tuple(
            HyperEdge((u, v), w)
            for s, us in zip(slots, units) for (u, v), w in zip(s, us) if w)))

    table = strengths()
    every = [table.strength(u, v) for s in slots for u, v in s]
    levels = [min(every)]
    while levels[-1] <= max(every):
        levels.append(levels[-1] * gamma)
    iterations = 0
    while True:
        bad = []
        for c, (s, us) in enumerate(zip(slots, units)):
            st_c = [table.strength(u, v) for u, v in s]
            k_max = max(x for x, u in zip(st_c, us) if u > 0)
            ind = next(j for j, k in enumerate(levels) if k_max <= k)
            if ind > 0 and min(st_c) < levels[ind - 1]:
                bad.append((-ind, h.edges[c].vertices))
        if not bad:
            return iterations, {(e.vertices, c): tuple(us)
                                for c, (e, us) in enumerate(zip(h.edges, units))}
        key = min(bad)[1]
        group = [c for c, e in enumerate(h.edges) if e.vertices == key]
        st_g = [table.strength(u, v) for u, v in slots[group[0]]]
        held = [i for i in range(len(st_g)) if any(units[c][i] > 0 for c in group)]
        i_max = max(held, key=lambda i: (st_g[i], -i))
        i_min = min(range(len(st_g)), key=lambda i: (st_g[i], i))
        copy = next(c for c in group if units[c][i_max] > 0)
        units[copy][i_max] -= 1
        units[copy][i_min] += 1
        iterations += 1
        table = strengths()


def scan_max_bad(state):
    """`find_max_bad` as a scan over every group, with no cached verdicts:
    the bad copy of highest index, ties to the smallest group key, then to
    the smallest copy holding the group's strongest positive slot."""
    best = None
    for key in state.sorted_keys:
        g = state.groups[key]
        k_min = f_min = k_max = s_star = None
        for i, p in enumerate(g.slots):
            s = state.strengths.get(p, 0)
            if k_min is None or s < k_min:
                k_min, f_min = s, p
            if g.agg_units[i] > 0 and (k_max is None or s > k_max):
                k_max, s_star = s, i
        ind = state.interval_index(k_max)
        if ind == 0 or k_min >= state.K_units[ind - 1]:
            continue
        if best is not None and ind <= best.ind:
            continue
        copy = g.smallest_positive_holder(s_star)
        best = BadEdge(copy, key, ind, f_min, g.slots[s_star], k_min, k_max)
    return best


def pick_outcome(pick, state):
    """The pick, or the message of the BalanceError raised instead."""
    try:
        return pick(state)
    except BalanceError as exc:
        return str(exc)


def drive_against_scan(h, data, steps):
    """Transfers chosen by the loop's own pick or, when the data says so, any
    unit move of any copy (which can empty a pair or join two components).
    After every transfer the cached pick must equal the full scan."""
    st_ = init_weights(h)
    assert find_max_bad(st_) == scan_max_bad(st_)
    for _ in range(steps):
        bad = pick_outcome(scan_max_bad, st_)
        if isinstance(bad, BadEdge) and data.draw(st.booleans()):
            transfer_step(st_, bad.copy, bad.f_min, bad.f_max)
        else:
            key = data.draw(st.sampled_from(st_.sorted_keys))
            g = st_.groups[key]
            if len(g.slots) < 2:
                continue
            copy = data.draw(st.sampled_from(g.copies))
            units = g.units_for(copy)
            i_max = data.draw(st.sampled_from([i for i, u in enumerate(units) if u > 0]))
            i_min = data.draw(st.sampled_from([i for i in range(len(units)) if i != i_max]))
            transfer_step(st_, copy, g.slots[i_min], g.slots[i_max])
        assert pick_outcome(scan_max_bad, st_) == pick_outcome(find_max_bad, st_)


def drains_parallel_copy(assignment):
    """Some copy with a parallel twin holds zero units on a slot."""
    return any(0 in u for g in assignment.groups if len(g.copies) > 1
               for u in g.overrides.values())


class TestInit:
    def test_uniform_when_divisible(self):
        st = init_weights(WeightedHypergraph(3, (HyperEdge((1, 2, 3)),)))
        assert st.groups[(1, 2, 3)].default_units == [3, 3, 3]
        assert st.delta == Fraction(1, 9)

    def test_remainder_to_first_slots(self):
        st = init_weights(WeightedHypergraph(4, (HyperEdge((1, 2, 3)),)))
        assert st.groups[(1, 2, 3)].default_units == [6, 5, 5]

    def test_slot_sums_and_floor(self):
        for n, key in [(5, (1, 2, 3, 4)), (6, (1, 3, 5)), (4, (1, 2))]:
            st = init_weights(WeightedHypergraph(n, (HyperEdge(key),)))
            g = st.groups[key]
            assert sum(g.default_units) == n * n
            assert all(u >= 2 for u in g.default_units)

    def test_k0_and_ell_single_triangle(self):
        st = init_weights(WeightedHypergraph(3, (HyperEdge((1, 2, 3)),)))
        # all pairs carry 1/3, the triangle's min cut is 2/3
        assert st.k0_units == 6 and st.k0_units * st.delta == Fraction(2, 3)
        assert st.ell == 1
        assert st.K_units == [6, 12]

    def test_gamma_validation(self):
        h = WeightedHypergraph(3, (HyperEdge((1, 2, 3)),))
        with pytest.raises(ValueError):
            init_weights(h, 1)
        with pytest.raises(ValueError):
            init_weights(h, 2.5)

    def test_weighted_input_rejected(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2), Fraction(1, 2)),))
        with pytest.raises(ValueError):
            init_weights(h, 2)


class TestFindMaxBad:
    def test_single_edge_uniform_is_fine(self):
        st = init_weights(WeightedHypergraph(3, (HyperEdge((1, 2, 3)),)))
        assert find_max_bad(st) is None

    def test_two_cluster_pick(self):
        st = init_weights(two_cluster())
        assert st.K_units == [6, 12, 24, 48, 96, 192] and st.ell == 5
        assert st.strengths == {(1, 2): 111, (1, 3): 6, (2, 3): 6}
        bad = find_max_bad(st)
        assert bad is not None
        assert bad.copy == 12 and bad.group_key == (1, 2, 3)
        assert bad.ind == 5
        assert bad.f_min == (1, 3) and bad.f_max == (1, 2)
        assert bad.k_min == 6 and bad.k_max == 111

    def test_adjacent_intervals_not_bad(self):
        # badness needs a >= 2-interval gap; a single hyperedge plus one
        # parallel pair keeps every strength within one gamma factor
        h = WeightedHypergraph(3, (HyperEdge((1, 2, 3)), HyperEdge((1, 2))))
        st = init_weights(h)
        ratio = max(st.strengths.values()) / min(st.strengths.values())
        assert ratio <= st.gamma
        assert find_max_bad(st) is None

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_cached_pick_matches_scan(self, n, data):
        edges = []
        for _ in range(data.draw(st.integers(1, 8))):
            size = data.draw(st.integers(2, n))
            verts = tuple(sorted(data.draw(
                st.sets(st.integers(1, n), min_size=size, max_size=size))))
            edges += [HyperEdge(verts)] * data.draw(st.integers(1, 3))
        drive_against_scan(WeightedHypergraph(n, tuple(edges)), data, 40)

    @given(st.integers(4, 6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_cached_pick_matches_scan_on_skewed_shape(self, n, data):
        verts = st.integers(1, n)
        edges = []
        for _ in range(data.draw(st.integers(3, 10))):
            size = data.draw(st.integers(2, min(4, n)))
            edges.append(HyperEdge(tuple(sorted(data.draw(
                st.sets(verts, min_size=size, max_size=size))))))
        for _ in range(data.draw(st.integers(1, 3))):
            pair = tuple(sorted(data.draw(st.sets(verts, min_size=2, max_size=2))))
            edges += [HyperEdge(pair)] * data.draw(st.integers(5, 40))
        h = WeightedHypergraph(n, tuple(data.draw(st.permutations(edges))))
        drive_against_scan(h, data, 60)

    def test_cached_pick_across_split_and_join(self):
        # draining (1, 3) and then (2, 3) isolates vertex 3, which peels the
        # whole graph; one unit back on (1, 3) joins it again
        h = WeightedHypergraph(3, (HyperEdge((1, 2, 3)),) + (HyperEdge((1, 2)),) * 4)
        st_ = init_weights(h)
        moves = [((1, 3), (1, 2))] * 3 + [((2, 3), (1, 2))] * 3 + [((1, 2), (1, 3))]
        for src, dst in moves:
            transfer_step(st_, 0, dst, src)
            assert find_max_bad(st_) == scan_max_bad(st_)
            if st_.iterations == 6:
                assert (1, 3) not in st_.strengths and (2, 3) not in st_.strengths
        assert st_.strengths[(1, 3)] == st_.strengths[(2, 3)] == 1

    def test_cached_pick_after_drain_without_strength_change(self):
        # the min cut of {1,2,3} isolates vertex 1, so moving the spanning
        # copy's units from (1,2) to (1,3) keeps its value while the other
        # cuts stay heavier: no strength changes, and only the mover's own
        # slot weights change the pick, once its strongest slot (1,2) empties
        h = WeightedHypergraph(4, (HyperEdge((1, 2, 3, 4)),) + (HyperEdge((1, 2)),) * 2
                               + (HyperEdge((1, 3)),) * 2 + (HyperEdge((2, 3)),) * 3)
        st_ = init_weights(h)
        before = dict(st_.strengths)
        assert find_max_bad(st_).f_max == (1, 2)
        for _ in range(3):
            transfer_step(st_, 0, (1, 3), (1, 2))
            assert st_.tree.changed == set() and st_.strengths == before
            assert find_max_bad(st_) == scan_max_bad(st_)
        assert find_max_bad(st_).f_max == (1, 3)


class TestTransferStep:
    def test_moves_one_unit(self):
        st = init_weights(WeightedHypergraph(4, (HyperEdge((1, 2, 3)),)))
        g = st.groups[(1, 2, 3)]
        assert g.units_for(0) == [6, 5, 5]
        transfer_step(st, 0, (1, 3), (1, 2))
        assert g.units_for(0) == [5, 6, 5]
        assert sum(g.units_for(0)) == 16
        assert st.iterations == 1

    def test_conservation_and_floor(self):
        st = init_weights(two_cluster())
        total_before = sum(st.pair_units.values())
        seen = 0
        while True:
            bad = find_max_bad(st)
            if bad is None:
                break
            transfer_step(st, bad.copy, bad.f_min, bad.f_max)
            seen += 1
            assert sum(st.pair_units.values()) == total_before
            # no positive pair ever drops below K0
            for p, u in st.pair_units.items():
                if u > 0:
                    assert st.strengths[p] >= st.k0_units
            assert seen < 1000
        assert seen == 3

    def test_strength_increase_lands_below_pick_level(self):
        # a pair whose strength rises during an iteration at index i must end
        # with interval index < i
        for h in [two_cluster(), two_cluster(6), random_hypergraph(6, 12, 4, 5)]:
            st = init_weights(h)
            while True:
                bad = find_max_bad(st)
                if bad is None:
                    break
                before = dict(st.strengths)
                transfer_step(st, bad.copy, bad.f_min, bad.f_max)
                for p, v in st.strengths.items():
                    if v > before.get(p, 0):
                        assert st.interval_index(v) < bad.ind, (h.m, p)


class TestRunBalance:
    def test_single_edge_zero_iterations(self):
        for key, n in [((1, 2, 3), 3), ((1, 2, 3, 4), 6), ((2, 5), 5)]:
            a = run_balance(WeightedHypergraph(n, (HyperEdge(key),)))
            assert a.iterations == 0

    def test_sunflower_balanced(self):
        a = run_balance(gen_sunflower(3))
        rep = is_balanced(a)
        assert rep.ok and rep.checked_copies == 3

    def test_parallel_copies_balanced(self):
        h = WeightedHypergraph(4, (HyperEdge((1, 2, 3)),) * 4)
        a = run_balance(h)
        assert a.iterations == 0
        kappas = a.kappa_by_copy()
        kmaxes = a.kappa_max_by_copy()
        assert kappas == kmaxes

    def test_two_cluster_run(self):
        a = run_balance(two_cluster())
        assert a.iterations == 3
        assert is_balanced(a).ok

    def test_iteration_cap(self):
        with pytest.raises(BalanceError):
            run_balance(two_cluster(), iteration_cap=1)

    def test_termination_bound(self):
        for seed in range(8):
            h = random_hypergraph(7, 14, 4, seed)
            a = run_balance(h)
            assert a.iterations <= h.m * a.ell * h.n * h.n
            assert is_balanced(a).ok

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_always_terminates_balanced(self, n, data):
        edges = []
        for _ in range(data.draw(st.integers(1, 8))):
            size = data.draw(st.integers(2, n))
            verts = tuple(sorted(data.draw(
                st.sets(st.integers(1, n), min_size=size, max_size=size))))
            edges.append(HyperEdge(verts))
            if data.draw(st.booleans()):
                edges.append(HyperEdge(verts))
        h = WeightedHypergraph(n, tuple(edges))
        a = run_balance(h)
        assert a.iterations <= h.m * a.ell * n * n
        assert is_balanced(a).ok

    def test_empty_hypergraph(self):
        a = run_balance(WeightedHypergraph(3, ()))
        assert a.iterations == 0 and a.groups == ()

    def test_trace_records(self):
        trace = []
        a = run_balance(two_cluster(), trace=trace)
        assert len(trace) == a.iterations == 3
        assert [r.index for r in trace] == [1, 2, 3]
        for r in trace:
            assert len(r.hist) == a.ell + 1
            assert len(r.weight_gt) == a.ell + 1
            line = format_trace_line(r)
            assert f"iter={r.index}" in line and "fmax=" in line

    def test_monotone_weight_above(self):
        # once an iteration picks ind <= i, units on pairs stronger than
        # K_{i-1} never increase again
        for h in [two_cluster(), two_cluster(20), random_hypergraph(7, 16, 4, 11)]:
            trace = []
            a = run_balance(h, trace=trace)
            for i in range(1, a.ell + 1):
                started = False
                prev = None
                for rec in trace:
                    if not started and rec.ind <= i:
                        started = True
                    if started:
                        w = rec.weight_gt[i - 1]
                        assert prev is None or w <= prev
                        prev = w

    def test_trace_does_not_change_result(self):
        # a traced run records one pick per transfer; recording must not
        # change where the loop ends
        for h in BALANCE_INSTANCES:
            fast = run_balance(h)
            trace = []
            slow = run_balance(h, trace=trace)
            assert fast.iterations == slow.iterations == len(trace)
            assert units_of(fast) == units_of(slow)
            assert fast.strengths.pair_strength == slow.strengths.pair_strength
            assert fast.k0 == slow.k0 and fast.ell == slow.ell

    def test_matches_reference_loop(self):
        drained = False
        for h in BALANCE_INSTANCES:
            a = run_balance(h)
            assert reference_balance(h) == (a.iterations, units_of(a))
            drained = drained or drains_parallel_copy(a)
        assert drained

    @given(st.integers(3, 5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_when_parallel_copies_drain(self, n, data):
        # a few parallel copies of a hyperedge next to many copies of one of
        # its pairs: transfers empty the strong slot copy by copy
        key = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=3))))
        pair = tuple(sorted(data.draw(st.sets(st.sampled_from(key),
                                              min_size=2, max_size=2))))
        edges = ([HyperEdge(key)] * data.draw(st.integers(2, 4))
                 + [HyperEdge(pair)] * data.draw(st.integers(4, 30)))
        for _ in range(data.draw(st.integers(0, 3))):
            verts = data.draw(st.sets(st.integers(1, n), min_size=2))
            edges.append(HyperEdge(tuple(sorted(verts))))
        h = WeightedHypergraph(n, tuple(data.draw(st.permutations(edges))))
        a = run_balance(h)
        assert reference_balance(h) == (a.iterations, units_of(a))

    @given(st.integers(4, 6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_on_skewed_shape(self, n, data):
        # the benchmark's shape: light 2-4-edges plus a few heavy parallel
        # pairs, so strengths move on every transfer of the loop
        verts = st.integers(1, n)
        edges = []
        for _ in range(data.draw(st.integers(3, 10))):
            size = data.draw(st.integers(2, min(4, n)))
            edges.append(HyperEdge(tuple(sorted(data.draw(
                st.sets(verts, min_size=size, max_size=size))))))
        for _ in range(data.draw(st.integers(1, 3))):
            pair = tuple(sorted(data.draw(st.sets(verts, min_size=2, max_size=2))))
            edges += [HyperEdge(pair)] * data.draw(st.integers(5, 40))
        h = WeightedHypergraph(n, tuple(data.draw(st.permutations(edges))))
        a = run_balance(h)
        assert reference_balance(h) == (a.iterations, units_of(a))
        fresh = pair_strengths(n, a.collapsed_units())
        assert a.strengths.pair_strength == {p: v * a.delta for p, v in fresh.items()}

    def test_about_one_stoer_wagner_per_transfer(self, monkeypatch):
        # the peel tree re-runs Stoer-Wagner only where a cut loses its
        # certificate; re-running it on every block the move touches stays
        # exact but costs over 3 calls per transfer here
        h = WeightedHypergraph(6, random_hypergraph(6, 12, 4, 0).edges
                               + (HyperEdge((1, 2)),) * 30 + (HyperEdge((3, 5)),) * 20)
        calls = []
        real = graph._stoer_wagner

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(graph, "_stoer_wagner", counted)
        init_weights(h)
        built = len(calls)
        a = run_balance(h)
        assert a.iterations > 100
        assert len(calls) - 2 * built <= 2 * a.iterations
        assert reference_balance(h) == (a.iterations, units_of(a))

    def test_pick_reexamines_few_groups(self, monkeypatch):
        # a transfer changes the strengths of a few pairs, so a pick
        # re-examines only the groups holding them, not all of them
        h = WeightedHypergraph(8, random_hypergraph(8, 40, 3, 1).edges
                               + (HyperEdge((1, 2)),) * 30 + (HyperEdge((3, 5)),) * 20)
        groups = len(init_weights(h).groups)
        examined, picks = [], []
        real_index, real_pick = balance.BalanceState.interval_index, balance.find_max_bad

        def counted_index(state, value):
            examined.append(1)
            return real_index(state, value)

        def counted_pick(state):
            picks.append(1)
            return real_pick(state)

        monkeypatch.setattr(balance.BalanceState, "interval_index", counted_index)
        monkeypatch.setattr(balance, "find_max_bad", counted_pick)
        a = run_balance(h)
        assert groups >= 30 and a.iterations > 100
        assert len(picks) == a.iterations + 1
        assert len(examined) <= len(picks) * groups / 2
        assert reference_balance(h) == (a.iterations, units_of(a))


class TestIsBalanced:
    def test_two_cluster_init_flagged(self):
        st = init_weights(two_cluster())
        rep = is_balanced(st.snapshot())
        assert not rep.ok
        (v,) = rep.violations
        assert v.copy == 12 and v.kind == "gamma-ratio"
        assert v.kappa == Fraction(2, 3) and v.kappa_max == Fraction(37, 3)

    def test_weight_sum_violation(self):
        a = run_balance(WeightedHypergraph(3, (HyperEdge((1, 2, 3)),)))
        g = a.groups[0]
        broken = AssignmentGroup(
            key=g.key, slots=g.slots, copies=g.copies,
            default_units=(g.default_units[0] - 1,) + g.default_units[1:],
            overrides={},
        )
        fake = BalancedAssignment(
            hypergraph=a.hypergraph, gamma=a.gamma, delta=a.delta,
            units_per_copy=a.units_per_copy, groups=(broken,),
            strengths=a.strengths, iterations=a.iterations, k0=a.k0, ell=a.ell,
        )
        rep = is_balanced(fake)
        assert not rep.ok
        assert any(v.kind == "weight-sum" for v in rep.violations)

    def test_respects_gamma_argument(self):
        st = init_weights(two_cluster())
        snap = st.snapshot()
        assert not is_balanced(snap, gamma=2).ok
        assert is_balanced(snap, gamma=100).ok


class TestAssignmentViews:
    def test_collapsed_matches_groups(self):
        a = run_balance(two_cluster())
        total = a.collapsed_units()
        assert sum(total.values()) == a.hypergraph.m * a.units_per_copy

    def test_group_for(self):
        a = run_balance(two_cluster())
        assert a.group_for((1, 2)).key == (1, 2)
        with pytest.raises(KeyError):
            a.group_for((1, 3))

    def test_kappa_views(self):
        a = run_balance(two_cluster())
        per_group = a.kappa_by_group()
        per_copy = a.kappa_by_copy()
        for g in a.groups:
            for c in g.copies:
                assert per_copy[c] == per_group[g.key]
        for lo, hi in zip(per_copy, a.kappa_max_by_copy()):
            assert lo <= hi <= a.gamma * lo
