"""Balancing loop: init scheme, bad-edge selection, transfers, invariants.

The two-cluster instance used throughout: 12 parallel edges {1,2} next to a
single {1,2,3}, which leaves vertex 3 hanging off two weak pairs.  At init
the spanning copy's strong slot sits five intervals above its weak ones, so
it is bad and the loop has real work to do.
"""

import itertools
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgsparse import (
    BalanceError,
    HyperEdge,
    WeightedHypergraph,
    copy_counts,
    edge_strengths,
    find_max_bad,
    gen_random,
    gen_sunflower,
    init_weights,
    is_balanced,
    pair_strengths,
    run_balance,
    sparsify_weighted,
    transfer_step,
)
from hgsparse import balance, graph
from hgsparse.balance import BadEdge
from conftest import BALANCE_INSTANCES, fraction_builds, random_hypergraph, two_cluster
from oracles import (copy_units, expand_copies, group_copies_loop, group_copy_units, heavy_core,
                     kappa_by_copy, kappa_max_by_copy, single_steps, traced_balance)


def units_of(state):
    return {(g.key, c): units for g in state.groups.values() for c, units in group_copy_units(g)}


def first_holder_units(g, slot):
    """The units on `slot` of the first copy of a balance state's group `g`
    that holds some, the copy a pick of that slot starts at."""
    i = g.slot_index[slot]
    return next(units[i] for _, units in g.runs if units[i] > 0)


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


def outcome(state):
    """What a balance run decides: its iterations, every copy's units, each
    group's runs, and the strengths, copied off the state."""
    return (state.iterations, units_of(state),
            [(key, [(count, tuple(u)) for count, u in g.runs]) for key, g in state.groups.items()],
            dict(state.strengths))


def single_step_balance(h, gamma=2, iteration_cap=None):
    """The loop one unit per pick (`oracles.single_steps`).  Returns the
    run's `outcome`, or the message of the BalanceError it raised and the
    iterations made by then."""
    state = balance.init_weights(h, gamma)
    try:
        for _ in single_steps(state, iteration_cap):
            pass
    except BalanceError as exc:
        return str(exc), state.iterations
    return outcome(state)


def batched_balance(h, gamma=2, iteration_cap=None):
    """`run_balance`, reported as `single_step_balance` reports its run."""
    states = []
    init = balance.init_weights

    def kept(*args):
        states.append(init(*args))
        return states[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(balance, "init_weights", kept)
        try:
            return outcome(run_balance(h, gamma, iteration_cap))
        except BalanceError as exc:
            return str(exc), states[0].iterations


def record_batches(mp):
    """Patch the transfer step to log each batch as (units, whether it drew
    on more than one copy, whether src emptied, whether dst joined two
    components)."""
    log = []
    transfer = balance.transfer_step

    def logged(state, key, f_min, f_max, units=1):
        g, tree = state.groups[key], state.tree
        spans = units > first_holder_units(g, f_max)
        joins = not state.pair_units.get(f_min) and tree.comp[f_min[0]] != tree.comp[f_min[1]]
        transfer(state, key, f_min, f_max, units)
        log.append((units, spans, not state.pair_units[f_max], joins))

    mp.setattr(balance, "transfer_step", logged)
    return log


def scan_max_bad(state):
    """`find_max_bad` as a scan over every group, with no cached verdicts:
    the bad group of highest index, ties to the smallest group key, labelled
    by the smallest copy holding the group's strongest positive slot."""
    best = None
    for key in sorted(state.groups):
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
        copy = g.holder(s_star)
        best = BadEdge(copy, key, ind, f_min, g.slots[s_star], k_min, k_max)
    return best


def pick_outcome(pick, state):
    """The pick, or the message of the BalanceError raised instead."""
    try:
        return pick(state)
    except BalanceError as exc:
        return str(exc)


def drive_against_scan(h, data, steps):
    """Transfers chosen by the loop's own pick or, when the data says so, a
    unit move of any group from any slot it holds units on to any other
    (which can empty a pair or join two components).  After every transfer
    the cached pick must equal the full scan."""
    st_ = init_weights(h)
    assert find_max_bad(st_) == scan_max_bad(st_)
    for _ in range(steps):
        bad = pick_outcome(scan_max_bad, st_)
        if isinstance(bad, BadEdge) and data.draw(st.booleans()):
            transfer_step(st_, bad.group_key, bad.f_min, bad.f_max)
        else:
            key = data.draw(st.sampled_from(list(st_.groups)))
            g = st_.groups[key]
            if len(g.slots) < 2:
                continue
            i_max = data.draw(st.sampled_from([i for i, u in enumerate(g.agg_units) if u > 0]))
            i_min = data.draw(st.sampled_from([i for i in range(len(g.slots)) if i != i_max]))
            transfer_step(st_, key, g.slots[i_min], g.slots[i_max])
        assert pick_outcome(scan_max_bad, st_) == pick_outcome(find_max_bad, st_)


def drains_parallel_copy(assignment):
    """Some copy with a parallel twin holds zero units on a slot."""
    return any(0 in u for g in assignment.groups.values() if sum(map(len, g.spans)) > 1
               for _, u in g.runs)


@st.composite
def counted_edges(draw):
    """A multi-hypergraph and a copy count per edge, with vertex sets that
    recur, not always next to each other; now and then one edge of weight 2
    sits among them."""
    n = draw(st.integers(2, 5))
    vertex_set = st.lists(st.integers(1, n), min_size=2, unique=True).map(
        lambda vs: tuple(sorted(vs)))
    sets = draw(st.lists(vertex_set, min_size=1, max_size=3))
    edges = [HyperEdge(draw(st.sampled_from(sets))) for _ in range(draw(st.integers(0, 6)))]
    if edges and draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(edges) - 1))
        edges.insert(at, HyperEdge(edges[at].vertices, Fraction(2)))
    counts = draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
    return WeightedHypergraph(n, tuple(edges)), counts


E12, E13 = HyperEdge((1, 2)), HyperEdge((1, 3))


class TestInit:
    def test_uniform_when_divisible(self):
        st = init_weights(WeightedHypergraph(3, (HyperEdge((1, 2, 3)),)))
        assert st.groups[(1, 2, 3)].runs == [[1, [3, 3, 3]]]
        assert st.delta == Fraction(1, 9)

    def test_remainder_to_first_slots(self):
        st = init_weights(WeightedHypergraph(4, (HyperEdge((1, 2, 3)),)))
        assert st.groups[(1, 2, 3)].runs == [[1, [6, 5, 5]]]

    def test_slot_sums_and_floor(self):
        for n, key in [(5, (1, 2, 3, 4)), (6, (1, 3, 5)), (4, (1, 2))]:
            st = init_weights(WeightedHypergraph(n, (HyperEdge(key),)))
            ((_, units),) = st.groups[key].runs
            assert sum(units) == n * n
            assert all(u >= 2 for u in units)

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

    @given(counted_edges())
    @example((WeightedHypergraph(3, (E12, E12, E13, E12)), [1, 2, 1, 3]))  # parallel copies apart
    @example((WeightedHypergraph(3, (E12, HyperEdge((1, 2), Fraction(2)), E12)), [2, 1, 1]))
    @settings(max_examples=80, deadline=None)
    def test_groups_match_the_per_copy_loop(self, case):
        # the state groups edge j as counts[j] copies; it must give the
        # groups, copies and units of grouping the expanded copies one by
        # one, in key order, each group one run, and reject an edge of weight
        # other than 1 wherever it sits, with the same text
        h, counts = case
        copies = WeightedHypergraph(h.n, tuple(
            e for e, count in zip(h.edges, counts) for _ in range(count)))
        try:
            want = group_copies_loop(copies)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                init_weights(h, counts=counts)
            return
        state = init_weights(h, counts=counts)
        got = {key: (list(itertools.chain.from_iterable(g.spans)), g.runs, g.agg_units)
               for key, g in state.groups.items()}
        assert list(got.items()) == [(key, (ids, [[len(ids), units]], agg))
                                     for key, (ids, units, agg) in sorted(want.items())]

    @pytest.mark.parametrize("counts", [[1, 0], [2, -1], [1], [1, 1, 1]],
                             ids=["zero", "negative", "short", "long"])
    def test_counts_checked(self, counts):
        h = WeightedHypergraph(3, (E12, E13))
        with pytest.raises(ValueError, match="counts must give each edge a count of at least 1"):
            init_weights(h, counts=counts)


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
            transfer_step(st_, (1, 2, 3), dst, src)
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
            transfer_step(st_, (1, 2, 3, 4), (1, 3), (1, 2))
            assert st_.tree.changed == set() and st_.strengths == before
            assert find_max_bad(st_) == scan_max_bad(st_)
        assert find_max_bad(st_).f_max == (1, 3)

    def test_pair_out_of_range_raises_as_the_scan(self):
        # a 2-vertex group gets no verdict, but its strength is still
        # range-checked: a patched range leaves the pair (1, 2) out alone or
        # first in key order, or puts the spanning group first; in `tail`
        # the spanning group (k_max 10) comes before the pair (3, 4) (32)
        h = WeightedHypergraph(3, tuple(HyperEdge(e) for e in [(1, 2, 3), (1, 2)] + [(2, 3)] * 4))
        tail = WeightedHypergraph(4, tuple(HyperEdge(e) for e in [(1, 2, 3)] + [(3, 4)] * 2))
        assert init_weights(h).strengths == {(1, 2): 15, (1, 3): 15, (2, 3): 39}
        assert init_weights(tail).strengths[(3, 4)] == 32
        for g, k0, top, strength in [(h, 16, 60, 15), (h, 16, 38, 15), (h, 15, 38, 39),
                                     (tail, 11, 31, 10)]:
            st_ = init_weights(g)
            st_.k0_units, st_.K_units[-1] = k0, top
            message = f"strength {strength} left the tracked range [{k0}, {top}]"
            assert pick_outcome(scan_max_bad, st_) == pick_outcome(find_max_bad, st_) == message
        # after a transfer, only the pairs whose strength changed are checked
        st_ = init_weights(h)
        bad = find_max_bad(st_)
        transfer_step(st_, bad.group_key, bad.f_min, bad.f_max)
        assert st_.strengths[(1, 2)] == 16 and st_.dirty_pair_groups == set()
        st_.k0_units = 17
        message = "strength 16 left the tracked range [17, 60]"
        assert pick_outcome(scan_max_bad, st_) == pick_outcome(find_max_bad, st_) == message


class TestTransferStep:
    def test_moves_one_unit(self):
        st = init_weights(WeightedHypergraph(4, (HyperEdge((1, 2, 3)),)))
        g = st.groups[(1, 2, 3)]
        assert g.runs == [[1, [6, 5, 5]]]
        transfer_step(st, (1, 2, 3), (1, 3), (1, 2))
        assert g.runs == [[1, [5, 6, 5]]]
        assert st.iterations == 1

    @given(st.lists(st.integers(1, 5), min_size=3, max_size=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_runs_match_moving_copy_by_copy(self, counts, data):
        # transfers of up to all the units a group holds on a slot: one
        # transfer of `units` must leave the runs, pair units and strengths
        # of `units` one-unit transfers, and the runs, expanded, must be the
        # units of taking from the group's copies in copy order
        h = WeightedHypergraph(4, (HyperEdge((1, 2, 3)), HyperEdge((1, 2)), HyperEdge((1, 2, 3))))
        key = (1, 2, 3)
        batched, stepped = init_weights(h, counts=counts), init_weights(h, counts=counts)
        g = batched.groups[key]
        ids = list(itertools.chain.from_iterable(g.spans))
        model = {c: list(u) for c, u in copy_units(batched).items()}
        for _ in range(data.draw(st.integers(1, 6))):
            i_max = data.draw(st.sampled_from([i for i, u in enumerate(g.agg_units) if u > 0]))
            i_min = data.draw(st.sampled_from([i for i in range(3) if i != i_max]))
            f_min, f_max = g.slots[i_min], g.slots[i_max]
            most = min(g.agg_units[i_max], batched.tree.horizon(f_max, f_min)[0] + 1)
            left = units = data.draw(st.integers(1, most))
            transfer_step(batched, key, f_min, f_max, units)
            for _ in range(units):
                transfer_step(stepped, key, f_min, f_max)
            for c in ids:
                take = min(model[c][i_max], left)
                model[c][i_max] -= take
                model[c][i_min] += take
                left -= take
            assert outcome(batched) == outcome(stepped)
            assert batched.pair_units == stepped.pair_units
            assert copy_units(batched) == {c: tuple(u) for c, u in model.items()}

    def test_moving_more_than_the_group_holds_raises(self):
        state = init_weights(WeightedHypergraph(4, (HyperEdge((1, 2, 3)),) * 2))
        assert state.groups[(1, 2, 3)].agg_units == [12, 10, 10]
        with pytest.raises(BalanceError, match=r"^group \(1, 2, 3\) holds fewer than 13 units"):
            transfer_step(state, (1, 2, 3), (1, 3), (1, 2), 13)

    def test_conservation_and_floor(self):
        st = init_weights(two_cluster())
        total_before = sum(st.pair_units.values())
        seen = 0
        while True:
            bad = find_max_bad(st)
            if bad is None:
                break
            transfer_step(st, bad.group_key, bad.f_min, bad.f_max)
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
                transfer_step(st, bad.group_key, bad.f_min, bad.f_max)
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
        assert kappa_by_copy(a) == kappa_max_by_copy(a)

    def test_two_cluster_run(self):
        a = run_balance(two_cluster())
        assert a.iterations == 3
        assert is_balanced(a).ok

    def test_iteration_cap(self):
        with pytest.raises(BalanceError):
            run_balance(two_cluster(), iteration_cap=1)

    def test_graph_does_no_verdict_work(self, monkeypatch):
        # every group of a 2-uniform input is a pair, which is never bad, so
        # the loop only range-checks strengths: no extremes, no batch plan
        h = gen_random(8, 30, 2, seed=4)
        calls = []
        extremes, lasts = balance._Group.extremes, balance._verdict_lasts
        monkeypatch.setattr(balance._Group, "extremes",
                            lambda *args: calls.append("extremes") or extremes(*args))
        monkeypatch.setattr(balance, "_verdict_lasts",
                            lambda *args: calls.append("lasts") or lasts(*args))
        a = run_balance(h)
        monkeypatch.undo()
        assert h.m == 30 and all(len(key) == 2 for key in a.groups)
        assert a.iterations == 0 and calls == []
        assert outcome(a) == single_step_balance(h)

    def test_builds_only_delta(self, monkeypatch):
        # the loop's weights and strengths stay integers on the delta grid,
        # and run_balance returns them as they are: its one Fraction is
        # delta, not one per pair strength and pair weight (163 here)
        h = heavy_core(14)
        assert fraction_builds(monkeypatch, lambda: run_balance(h)) == 1

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
        assert a.iterations == 0 and a.groups == {}

    def test_monotone_weight_above(self):
        # once an iteration picks ind <= i, units on pairs stronger than
        # K_{i-1} never increase again
        for h in [two_cluster(), two_cluster(20), random_hypergraph(7, 16, 4, 11)]:
            a, records = traced_balance(h)
            assert len(records) == a.iterations
            for i in range(1, a.ell + 1):
                started = False
                prev = None
                for ind, _, weight_gt in records:
                    if not started and ind <= i:
                        started = True
                    if started:
                        w = weight_gt[i - 1]
                        assert prev is None or w <= prev
                        prev = w

    def test_trace_does_not_change_result(self):
        # run_balance ends where stepping one unit per pick, as a trace of
        # the paper's loop does, ends
        for h in BALANCE_INSTANCES:
            assert batched_balance(h) == single_step_balance(h)

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
        assert a.strengths == fresh

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

    def test_shift_certifies_phases_without_stoer_wagner(self, monkeypatch):
        # light edges plus two heavy pairs: the loop moves long runs of units
        # between the same two pairs, and each block's kept cut is certified
        # by its class bounds, with the minimum over the cuts crossing neither
        # pair computed once per block and run; re-running Stoer-Wagner to
        # confirm the kept cut costs one call per transfer here
        light = random_hypergraph(8, 30, 3, 1).edges
        h = WeightedHypergraph(8, tuple(e for i, e in enumerate(light) for _ in range(i % 4 + 1))
                               + (HyperEdge((1, 2)),) * 90 + (HyperEdge((3, 5)),) * 60)
        calls = []
        real = graph._stoer_wagner

        def counted(*args):
            calls.append(sys._getframe(1).f_code.co_name)
            return real(*args)

        monkeypatch.setattr(graph, "_stoer_wagner", counted)
        a = run_balance(h)
        assert a.iterations > 100
        assert calls.count("shift") + calls.count("_merged_min_cut") <= a.iterations / 20
        monkeypatch.undo()
        assert reference_balance(h) == (a.iterations, units_of(a))

    def test_pick_reexamines_few_groups(self, monkeypatch):
        # a transfer changes the strengths of a few pairs, so a pick
        # re-examines only the groups holding them, not all of them
        h = WeightedHypergraph(8, random_hypergraph(8, 40, 3, 1).edges
                               + (HyperEdge((1, 2)),) * 30 + (HyperEdge((3, 5)),) * 20)
        groups = len(init_weights(h).groups)
        examined, picks, transfers = [], [], []
        real_index, real_pick = balance.BalanceState.interval_index, balance.find_max_bad
        real_transfer = balance.transfer_step

        def counted_index(state, value):
            examined.append(1)
            return real_index(state, value)

        def counted_pick(state):
            picks.append(1)
            return real_pick(state)

        def counted_transfer(*args):
            transfers.append(1)
            return real_transfer(*args)

        monkeypatch.setattr(balance.BalanceState, "interval_index", counted_index)
        monkeypatch.setattr(balance, "find_max_bad", counted_pick)
        monkeypatch.setattr(balance, "transfer_step", counted_transfer)
        a = run_balance(h)
        assert groups >= 30 and a.iterations > 100
        assert len(picks) == len(transfers) + 1
        assert len(examined) <= len(picks) * groups / 2
        assert reference_balance(h) == (a.iterations, units_of(a))


class TestBatches:
    """`run_balance` moves all units of a pick in one `transfer_step`; the
    single-step loop and `reference_balance` are its oracles."""

    @given(st.integers(3, 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_single_step_loop(self, n, data):
        # parallel copies of a few hyperedges next to heavy pairs, with an
        # iteration cap that can fall inside a batch
        verts = st.integers(1, n)
        edges = []
        for _ in range(data.draw(st.integers(1, 5))):
            size = data.draw(st.integers(2, n))
            edge = HyperEdge(tuple(sorted(data.draw(st.sets(verts, min_size=size, max_size=size)))))
            edges += [edge] * data.draw(st.integers(1, 4))
        for _ in range(data.draw(st.integers(0, 2))):
            pair = tuple(sorted(data.draw(st.sets(verts, min_size=2, max_size=2))))
            edges += [HyperEdge(pair)] * data.draw(st.integers(3, 30))
        h = WeightedHypergraph(n, tuple(data.draw(st.permutations(edges))))
        cap = data.draw(st.none() | st.integers(0, 80))
        slow = single_step_balance(h, iteration_cap=cap)
        assert batched_balance(h, iteration_cap=cap) == slow
        if cap is None:
            assert reference_balance(h) == slow[:2]

    def test_batches_span_holders_and_empty_src(self, monkeypatch):
        # one batch drains several parallel copies; another empties its src
        # pair on the last unit, which peels the tree again
        spans = WeightedHypergraph(4, tuple(HyperEdge(e) for e in [
            (2, 4), (1, 3, 4), (1, 4), (1, 3, 4), (1, 4)]))
        empties = WeightedHypergraph(6, tuple(HyperEdge(e) for e in [
            (3, 5), (1, 2, 3, 4, 6), (3, 5), (1, 2, 4, 5), (3, 5), (1, 2, 4, 5),
            (3, 5), (1, 2, 4, 5), (3, 5), (3, 5)]))
        for h, case in [(spans, 1), (empties, 2)]:
            slow = single_step_balance(h)
            log = record_batches(monkeypatch)
            assert batched_balance(h) == slow
            monkeypatch.undo()
            assert any(batch[0] > 1 and batch[case] for batch in log), log
            assert reference_balance(h) == slow[:2]

    def test_batches_from_a_split_state(self, monkeypatch):
        # vertex 3 cut off by moving every unit of (1, 3) and (2, 3) onto
        # (1, 2): the first transfer joins two components again
        real = balance.init_weights

        def split(h, gamma, counts=None):
            state = real(h, gamma, counts)
            for f_max in [(1, 3)] * 3 + [(2, 3)] * 3:
                transfer_step(state, h.edges[-1].vertices, (1, 2), f_max)
            return state

        monkeypatch.setattr(balance, "init_weights", split)
        h = two_cluster()
        slow = single_step_balance(h)
        log = record_batches(monkeypatch)
        assert batched_balance(h) == slow
        assert slow[0] > 6 and log[0] == (1, False, False, True)

    def test_strongest_held_slot_changes_mid_pick(self):
        # a group's strongest held slot is overtaken before any other part
        # of its verdict flips, so only the s_star comparisons end the batch
        h = WeightedHypergraph(8, tuple(HyperEdge(e) for e in [
            (1, 6, 7), (1, 6), (1, 3, 4, 6, 8), (1, 3, 4, 6, 8), (1, 6, 7), (1, 3),
            (1, 3, 4, 6, 8), (1, 3), (1, 6, 7), (1, 3, 4, 6, 8), (1, 3), (1, 6)]))
        slow = single_step_balance(h)
        assert batched_balance(h) == slow
        assert reference_balance(h) == slow[:2]

    def test_pair_crossing_a_level_ends_no_batch(self, monkeypatch):
        # the pick moves (2, 3) -> (1, 2) three times; after the first unit
        # the pair group (1, 2) goes from K_0 into interval 1, which cannot
        # make it bad, so the three units move in one transfer, not 1 + 2
        h = WeightedHypergraph(3, tuple(HyperEdge(e) for e in [(1, 2, 3), (1, 2)] + [(2, 3)] * 4))
        st_ = init_weights(h)
        steps = single_steps(st_)
        indices = [st_.interval_index(st_.strengths[(1, 2)])]
        for bad in steps:
            indices.append(st_.interval_index(st_.strengths[(1, 2)]))
            assert (bad.group_key, bad.f_max, bad.f_min) == ((1, 2, 3), (2, 3), (1, 2))
        assert indices == [0, 1, 1, 1]
        slow = single_step_balance(h)
        log = record_batches(monkeypatch)
        assert batched_balance(h) == slow and slow[0] == 3
        assert [batch[0] for batch in log] == [3]

    def test_batch_stops_where_a_pair_leaves_the_range(self, monkeypatch):
        # the lower end of the tracked range raised to 110, with the levels
        # K_j kept: the pair group (1, 2) falls by one per unit from 111 and
        # leaves the range at state 2, where no verdict flips
        real = balance.init_weights

        def raised(h, gamma, counts=None):
            state = real(h, gamma, counts)
            state.k0_units = 110
            return state

        monkeypatch.setattr(balance, "init_weights", raised)
        h = two_cluster()
        st_ = balance.init_weights(h, 2)
        bad = find_max_bad(st_)
        assert st_.strengths[(1, 2)] == 111 and bad.f_max == (1, 2)
        assert balance._batch_length(st_, bad, 100) == 2
        assert batched_balance(h) == single_step_balance(h) \
            == ("strength 109 left the tracked range [110, 192]", 2)

    def test_found_case_instance(self):
        # blocks holding src whose stored cut crosses neither pair at k = λ
        # certify no unit, so their picks move one unit each
        h = WeightedHypergraph(8, random_hypergraph(8, 40, 3, 1).edges
                               + (HyperEdge((1, 2)),) * 30 + (HyperEdge((3, 5)),) * 20)
        slow = single_step_balance(h)
        assert batched_balance(h) == slow and slow[0] == 242

    def test_cap_inside_a_batch(self, monkeypatch):
        light = random_hypergraph(8, 30, 3, 1).edges
        h = WeightedHypergraph(8, light + (HyperEdge((1, 2)),) * 90 + (HyperEdge((3, 5)),) * 60)
        log = record_batches(monkeypatch)
        done = run_balance(h).iterations
        monkeypatch.undo()
        longest = max(range(len(log)), key=lambda i: log[i][0])
        cap = sum(batch[0] for batch in log[:longest]) + log[longest][0] // 2
        assert 0 < cap < done and log[longest][0] > 10
        assert batched_balance(h, iteration_cap=cap) == single_step_balance(h, iteration_cap=cap) \
            == (f"iteration cap {cap} exceeded", cap)

    def test_strength_leaving_the_range_raises_alike(self, monkeypatch):
        # levels rebuilt from the least k_max of any group, so a falling
        # strong slot leaves the tracked range mid-run
        real = balance.init_weights

        def narrowed(h, gamma, counts=None):
            state = real(h, gamma, counts)
            tops = [max(state.strengths[p] for p, u in zip(g.slots, g.agg_units) if u > 0)
                    for g in state.groups.values()]
            state.K_units = [min(tops)]
            while state.K_units[-1] < max(tops):
                state.K_units.append(state.K_units[-1] * gamma)
            state.k0_units, state.ell = state.K_units[0], len(state.K_units) - 1
            return state

        monkeypatch.setattr(balance, "init_weights", narrowed)
        h = WeightedHypergraph(5, tuple(HyperEdge(e) for e in
                                        [(1, 3, 4, 5)] * 4 + [(1, 4)] * 19 + [(1, 2)] * 8))
        slow = single_step_balance(h)
        log = record_batches(monkeypatch)
        assert batched_balance(h) == slow == ("strength 50 left the tracked range [200, 800]", 16)
        assert max(log)[0] > 1

    def test_long_phases_take_few_transfers(self, monkeypatch):
        # the shape of the benchmark's smoke `skewed`: light edges plus two
        # heavy pairs, where the one-unit loop repeats each pick hundreds of
        # times; batching that fell back to one unit per call would fail here
        rng = random.Random("skewed/2")
        edges = []
        for sizes, weights, count in [((2, 3), (1, 4), 30), ((2, 2), (60, 120), 2)]:
            for _ in range(count):
                verts = tuple(sorted(rng.sample(range(1, 9), rng.randint(*sizes))))
                edges.append(HyperEdge(verts, Fraction(rng.randint(*weights))))
        h = WeightedHypergraph(8, tuple(edges))
        calls = []
        real = balance.transfer_step
        monkeypatch.setattr(balance, "transfer_step", lambda *args: calls.append(1) or real(*args))
        res = sparsify_weighted(h, 0.5, seed=5, rho_override=Fraction(5))
        iterations = res.notes["balance_iterations"]
        assert iterations > 500 and len(calls) <= iterations / 10

    def test_a_batched_pick_plans_once(self, monkeypatch):
        # `_batch_length` plans each pick with `horizon`; the shift that
        # moves the batch checks its length against that plan, not a new one
        light = random_hypergraph(8, 30, 3, 1).edges
        h = WeightedHypergraph(8, light + (HyperEdge((1, 2)),) * 90 + (HyperEdge((3, 5)),) * 60)
        plans, log = [], []
        real_plan, real_transfer = graph.StrengthTree._plan, balance.transfer_step

        def counted_plan(tree, src, dst):
            plans.append((src, dst))
            return real_plan(tree, src, dst)

        def logged_transfer(state, copy, f_min, f_max, units=1):
            real_transfer(state, copy, f_min, f_max, units)
            log.append((units, tuple(plans), (f_max, f_min)))
            plans.clear()

        monkeypatch.setattr(graph.StrengthTree, "_plan", counted_plan)
        monkeypatch.setattr(balance, "transfer_step", logged_transfer)
        run_balance(h)
        batched = [(planned, pick) for units, planned, pick in log if units > 1]
        assert len(batched) > 5 and all(planned == (pick,) for planned, pick in batched)
        assert all(len(planned) <= 1 for _, planned, _ in log)

    @pytest.mark.parametrize("n, transfers", [(10, 340), (14, 1029)])
    def test_heavy_core_matches_single_step_loop(self, n, transfers):
        h = heavy_core(n)
        slow = single_step_balance(h)
        assert batched_balance(h) == slow and slow[0] == transfers

    @pytest.mark.parametrize("n", [14, 16])
    def test_heavy_core_balancing_meets_the_size_budget(self, n):
        # uniform clique weights overshoot gamma * (n - 1) copies' worth of
        # 1/kappa; the balanced weights meet it (31.2 > 26 >= 10.5 at n = 14,
        # 40.3 > 30 >= 12.0 at n = 16)
        h = heavy_core(n)
        uniform = sum(1 / k for k in kappa_by_copy(init_weights(h)))
        balanced = sum(1 / k for k in kappa_by_copy(run_balance(h)))
        assert uniform > 2 * (n - 1) >= balanced


class TestCounts:
    """`run_balance(h, counts=c)` reads edge j as c[j] copies; the oracle is
    the same loop on `expand_copies(h, c)`, one edge per copy."""

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_expanded_copies(self, n, data):
        # a hyperedge twice, at places apart, next to one of its pairs with
        # up to 20 copies, so the loop drains the hyperedge's copies in part
        # and whole, across input edges; plus a few other edges
        verts = st.integers(1, n)
        key = tuple(sorted(data.draw(st.sets(verts, min_size=3, max_size=5))))
        pair = tuple(sorted(data.draw(st.sets(st.sampled_from(key), min_size=2, max_size=2))))
        others = data.draw(st.lists(st.sets(verts, min_size=2, max_size=4).map(
            lambda vs: tuple(sorted(vs))), max_size=3))
        extra = data.draw(st.lists(st.sampled_from([key, pair, *others]), max_size=4))
        edges = data.draw(st.permutations([key, pair, key, *extra]))
        h = WeightedHypergraph(n, tuple(HyperEdge(vs) for vs in edges))
        counts = [data.draw(st.integers(4, 20) if vs == pair else st.integers(1, 4))
                  for vs in edges]
        copies = expand_copies(h, counts)[0]
        got, want = run_balance(h, counts=counts), run_balance(copies)
        assert got.counts == tuple(counts) and want.counts == (1,) * sum(counts)
        assert copy_units(got) == copy_units(want)
        assert (got.iterations, got.k0_units, got.ell, got.strengths) == (
            want.iterations, want.k0_units, want.ell, want.strengths)
        assert is_balanced(got) == is_balanced(want)
        assert is_balanced(got).checked_copies == sum(counts)
        assert list(single_steps(init_weights(h, counts=counts))) == list(
            single_steps(init_weights(copies)))

    def test_state_does_not_grow_with_copies(self, monkeypatch):
        # the shape of the benchmark's `skewed`: light edges plus heavy pairs,
        # whose picks do not depend on the scale of the counts; a million
        # times the copies takes the same transfers and leaves the same runs
        rng = random.Random("skewed/3")
        edges = []
        for sizes, weights, count in [((2, 3), (1, 4), 80), ((2, 2), (500, 1000), 3)]:
            for _ in range(count):
                verts = tuple(sorted(rng.sample(range(1, 11), rng.randint(*sizes))))
                edges.append(HyperEdge(verts, Fraction(rng.randint(*weights))))
        h = WeightedHypergraph(10, tuple(edges))
        unit = WeightedHypergraph(10, tuple(HyperEdge(e.vertices) for e in edges))
        counts = copy_counts(h, 0.5)[1]
        calls = []
        real = balance.transfer_step
        monkeypatch.setattr(balance, "transfer_step", lambda *args: calls.append(1) or real(*args))
        seen = []
        for scale in (1, 10**6):
            calls.clear()
            a = run_balance(unit, counts=[c * scale for c in counts])
            runs = sum(len(g.runs) for g in a.groups.values())
            assert runs <= len(a.groups) + 2 * len(calls)
            seen.append((runs, len(calls)))
        assert seen[0] == seen[1] and seen[0][1] > 5


class TestIsBalanced:
    def test_two_cluster_init_flagged(self):
        st = init_weights(two_cluster())
        rep = is_balanced(st)
        assert not rep.ok
        (v,) = rep.violations
        assert v.copy == 12 and v.kind == "gamma-ratio"
        assert v.kappa == Fraction(2, 3) and v.kappa_max == Fraction(37, 3)

    def test_weight_sum_violation(self):
        a = run_balance(WeightedHypergraph(3, (HyperEdge((1, 2, 3)),)))
        (g,) = a.groups.values()
        ((count, units),) = g.runs
        g.runs = [[count, [units[0] - 1] + units[1:]]]
        rep = is_balanced(a)
        assert not rep.ok
        assert any(v.kind == "weight-sum" for v in rep.violations)

    def test_trusts_neither_strengths_nor_tree(self):
        a = run_balance(two_cluster())
        want = is_balanced(a)
        a.strengths, a.tree = {}, None
        assert want.ok and is_balanced(a) == want

    def test_respects_gamma_argument(self):
        st = init_weights(two_cluster())
        assert not is_balanced(st, gamma=2).ok
        assert is_balanced(st, gamma=100).ok


class TestAssignmentViews:
    def test_collapsed_matches_groups(self):
        a = run_balance(two_cluster())
        total = a.collapsed_units()
        assert sum(total.values()) == a.hypergraph.m * a.units_per_copy

    def test_kappa_views(self):
        a = run_balance(two_cluster())
        per_group = a.kappa_by_group()
        per_copy = kappa_by_copy(a)
        for g in a.groups.values():
            for c, _ in group_copy_units(g):
                assert per_copy[c] == per_group[g.key]
        for lo, hi in zip(per_copy, kappa_max_by_copy(a)):
            assert lo <= hi <= a.gamma * lo
