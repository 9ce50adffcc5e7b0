"""Balanced clique-expansion weights for unweighted multi-hypergraphs.

Each hyperedge copy spreads one unit of weight over the vertex pairs of its
clique, on a grid of delta = 1/n^2.  A copy is bad when some pair of its
clique is much weaker than its strongest positively weighted pair; the loop
repeatedly moves one delta from the strongest positive slot of a worst bad
copy to its weakest slot until the strength spread of every copy is within a
factor gamma.  All arithmetic is exact: weights are integer multiples of
delta and strengths of integer-weight graphs are integers, so the loop
terminates by a potential argument rather than by tolerance.

Edge j of the input stands for counts[j] copies (one by default), numbered
from sum(counts[:j]).  Copies with the same vertex set behave identically up
to which slots are positive, so they are grouped, and the loop works by
group: a group keeps its copies' slot vectors as runs (count, units) in copy
order, the maximal stretches of copies with equal units.  A group starts as
one run of the init units, and a transfer takes from the group's copies in
copy order, splitting at most the runs it drains.  So the state grows with
the groups and the transfers, not with the copies, and badness is decided by
inspecting only the strongest positively weighted slot of the group.  Copy
ids only label output: the first holder of a pick (`BadEdge.copy`) and the
copies of a violation.

Strengths live in one `StrengthTree`, built from the initial weights, which
also keeps the units of each pair; each transfer shifts all of its units
there in one `StrengthTree.shift`, a single walk of the tree's blocks (see
`transfer_step`).

A group's verdict (bad or not; its index, weakest and strongest slots) is a
function of its slots' strengths, its aggregate slot units and the fixed
levels K_j alone.  So after a transfer only the group that moved the unit and
the groups holding a pair whose strength changed can change verdict;
`find_max_bad` re-examines just those and keeps every group's verdict in one
record (`BalanceState.verdicts`), which gives exactly the pick of a scan over
every group.  Batch planning reads the same record.  A 2-vertex group has no
choice: its one slot is both its weakest and its strongest held slot, with
K_{ind-1} < k_min = k_max, so it is never bad and gets no verdict.  Its
strength is only checked against the tracked range [K_0, K_ell], and it
bounds a batch only where that strength would leave the range.

A pick is repeated for many units in a row, so the loop moves them in one
`transfer_step`.  While the tree certifies the moves (`StrengthTree.horizon`),
every slot strength is a line in the number j of units moved, and so are the
picked group's aggregate units on f_max (-1 per unit) and f_min (+1).  A
verdict holds while each of its comparisons of two lines does: every other
slot against f_min and against s_star, the held units of s_star against 0,
k_max against K_{ind-1} and K_ind, and k_min against K_{ind-1}.  Each flips at
most once, at a state read off in closed form.  The batch ends at the first
state at which any group's verdict would flip or a 2-vertex group's strength
would leave the tracked range, at the horizon plus one, or at the iteration
cap, whichever comes first, so the iterations, the units of every copy and
the strengths are those of moving one unit per pick.

`run_balance` returns the loop's final `BalanceState` itself: its runs are
the assignment and its strengths stay integers on the delta grid.  The
sampler needs one number per group from it, kappa, which
`BalanceState.kappa_by_group` builds as one Fraction of the integer minimum
of the group's slot strengths; a run builds no other Fraction but delta.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .graph import StrengthTree, first_fail, pair_strengths
from .hypergraph import WeightedHypergraph

Pair = tuple[int, int]


class BalanceError(RuntimeError):
    pass


class _Group:
    __slots__ = ("key", "slots", "slot_index", "spans", "runs", "agg_units")

    def __init__(self, key: tuple[int, ...], units_per_copy: int, spans: list[range]):
        self.key = key
        self.slots = list(itertools.combinations(key, 2))
        self.slot_index = {p: i for i, p in enumerate(self.slots)}
        self.spans = spans  # the group's copy ids, as ranges in copy order
        q = len(self.slots)
        base = max(2, units_per_copy // q)
        rem = units_per_copy - q * base
        if rem < 0:
            raise BalanceError(f"slot count {q} too large for the delta grid")
        units = [base + 1 if i < rem else base for i in range(q)]
        copies = sum(map(len, spans))
        self.runs = [[copies, units]]  # [count, units] in copy order
        self.agg_units = [u * copies for u in units]

    def holder(self, slot_i: int) -> int:
        """The first copy holding weight on the slot: the first of the first
        run that does."""
        pos = 0
        for count, units in self.runs:
            if units[slot_i] > 0:
                return _copy_at(self.spans, pos)
            pos += count
        raise BalanceError("slot has positive total weight but no holder")

    def extremes(self, strengths: Mapping[Pair, int]) -> tuple[int, int, int, int]:
        """The slot choice of the verdict, in one pass: (i_min, k_min, i_max,
        k_max) for the first weakest slot and the first strongest slot the
        group holds units on."""
        k_min = k_max = i_min = i_max = None
        for i, (p, u) in enumerate(zip(self.slots, self.agg_units)):
            s = strengths.get(p, 0)
            if k_min is None or s < k_min:
                k_min, i_min = s, i
            if u > 0 and (k_max is None or s > k_max):
                k_max, i_max = s, i
        return i_min, k_min, i_max, k_max


def _copy_at(spans, pos: int) -> int:
    """The copy id at position pos of a group whose copy ids are `spans`."""
    for span in spans:
        if pos < len(span):
            return span[pos]
        pos -= len(span)


def _moved(units: list[int], i_from: int, i_to: int, k: int) -> list[int]:
    return [u - k * (i == i_from) + k * (i == i_to) for i, u in enumerate(units)]


@dataclass(frozen=True)
class BadEdge:
    """A pick: the bad group `group_key` of interval index `ind`, its weakest
    slot f_min and its strongest held slot f_max with their strengths; `copy`
    labels the group's first copy holding units on f_max."""
    copy: int
    group_key: tuple[int, ...]
    ind: int
    f_min: Pair
    f_max: Pair
    k_min: int
    k_max: int


def check_gamma(gamma: int) -> None:
    if not isinstance(gamma, int) or gamma < 2:
        raise ValueError("gamma must be an integer >= 2")


def check_unweighted(h: WeightedHypergraph) -> None:
    if not h.is_unweighted():
        raise ValueError("balancing expects an unweighted multi-hypergraph")


class BalanceState:
    """Mutable loop state; all weights live on the integer delta grid."""

    def __init__(self, h: WeightedHypergraph, gamma: int,
                 counts: Optional[Sequence[int]] = None):
        check_gamma(gamma)
        check_unweighted(h)
        counts = (1,) * h.m if counts is None else tuple(counts)
        if len(counts) != h.m or min(counts, default=1) < 1:
            raise ValueError("counts must give each edge a count of at least 1")
        self.hypergraph = h
        self.counts = counts
        self.n = h.n
        self.gamma = gamma
        self.units_per_copy = h.n * h.n
        self.delta = Fraction(1, self.units_per_copy)
        self.iterations = 0

        starts = list(itertools.accumulate(counts, initial=0))
        self.copies = starts[-1]
        spans: dict[tuple[int, ...], list[range]] = {}
        for e, start, stop in zip(h.edges, starts, starts[1:]):
            spans.setdefault(e.vertices, []).append(range(start, stop))
        # in key order, the order `is_balanced` checks and `hgsparse balance` prints
        self.groups: dict[tuple[int, ...], _Group] = {
            key: _Group(key, self.units_per_copy, spans[key]) for key in sorted(spans)
        }

        # a 2-vertex group is keyed by its one pair; `groups_of` lists, per
        # pair, the groups of 3 or more vertices holding it
        self.pair_groups: set[Pair] = {key for key in self.groups if len(key) == 2}
        pair_units: dict[Pair, int] = {}
        self.groups_of: dict[Pair, list[tuple[int, ...]]] = {}
        for key, g in self.groups.items():
            for p, agg in zip(g.slots, g.agg_units):
                pair_units[p] = pair_units.get(p, 0) + agg
                if key not in self.pair_groups:
                    self.groups_of.setdefault(p, []).append(key)
        self.tree = StrengthTree(self.n, pair_units)
        self.strengths: dict[Pair, int] = self.tree.strengths
        # find_max_bad's record: dirty groups, verdicts (i_min, k_min, i_max, k_max, ind), bad
        # ones; and the dirty 2-vertex groups, which only need a range check
        self.dirty = set(self.groups) - self.pair_groups
        self.verdicts: dict[tuple[int, ...], tuple[int, int, int, int, int]] = {}
        self.bad: set[tuple[int, ...]] = set()
        self.dirty_pair_groups = set(self.pair_groups)

        if not self.groups:
            self.k0_units = 0
            self.ell = 0
            self.K_units = [0]
            return
        slot_strengths = [self.strengths[p] for g in self.groups.values() for p in g.slots]
        self.k0_units = min(slot_strengths)
        top = max(slot_strengths)
        self.ell = 1
        cur = self.k0_units * gamma
        while cur <= top:
            cur *= gamma
            self.ell += 1
        self.K_units = [self.k0_units * gamma**j for j in range(self.ell + 1)]

    @property
    def pair_units(self) -> dict[Pair, int]:
        """The units on each pair that ever held some, read off the tree."""
        return {(u, v): w for u, row in self.tree.adj.items() for v, w in row.items() if u < v}

    def interval_index(self, value: int) -> int:
        """0 for value == K_0, else the j with K_{j-1} < value <= K_j."""
        if value < self.k0_units or value > self.K_units[-1]:
            raise BalanceError(
                f"strength {value} left the tracked range "
                f"[{self.k0_units}, {self.K_units[-1]}]"
            )
        return bisect_left(self.K_units, value)

    def collapsed_units(self) -> dict[Pair, int]:
        """The units on each pair, summed over every group's runs; a pair
        with none is left out."""
        total: dict[Pair, int] = {}
        for g in self.groups.values():
            for i, p in enumerate(g.slots):
                agg = sum(count * units[i] for count, units in g.runs)
                if agg:
                    total[p] = total.get(p, 0) + agg
        return total

    def kappa_by_group(self) -> dict[tuple[int, ...], Fraction]:
        """Weakest clique slot strength per group (all slots, zero or not):
        the integer minimum of its slots' strengths (0 for a pair with no
        strength), as one Fraction on the delta grid."""
        get, units = self.strengths.get, self.units_per_copy
        return {key: Fraction(min(get(p, 0) for p in g.slots), units)
                for key, g in self.groups.items()}


def init_weights(h: WeightedHypergraph, gamma: int = 2,
                 counts: Optional[Sequence[int]] = None) -> BalanceState:
    """Spread each copy's unit weight nearly uniformly over its clique slots,
    reading edge j of h as counts[j] copies (one each by default).

    Every slot gets at least 2 delta so that a single transfer can never
    make a freshly initialized slot negative or empty.
    """
    return BalanceState(h, gamma, counts)


def find_max_bad(state: BalanceState) -> Optional[BadEdge]:
    """A bad group of maximal interval index, or None when balanced.

    Per group only the strongest positively weighted slot needs checking:
    the weakest slot is shared by all copies of the group, and the copies
    holding weight on the strongest slot realize the group's largest index.
    Ties go to the smallest group key.

    Only dirty groups are examined: those a transfer moved a unit in, and
    those holding a pair in the tree's `changed` set.  Every other group's
    inputs, so its cached verdict, are as at its last examination.  A
    2-vertex group is never bad, so a dirty one is only range-checked; when
    one is out of range, the error names the first dirty group out of range
    in key order, as a pass over every dirty group would.
    """
    dirty, bad, verdicts, pairs = state.dirty, state.bad, state.verdicts, state.dirty_pair_groups
    changed = state.tree.changed
    for p in changed:
        dirty.update(state.groups_of.get(p, ()))
    pairs |= changed & state.pair_groups
    changed.clear()
    if pairs:
        tops = [state.strengths[p] for p in pairs]
        if min(tops) < state.k0_units or max(tops) > state.K_units[-1]:
            # raise for the first dirty group out of range, as a pass over all would
            for key in sorted(dirty | pairs):
                state.interval_index(state.strengths[key] if key in pairs
                                     else state.groups[key].extremes(state.strengths)[3])
        pairs.clear()
    for key in sorted(dirty):
        i_min, k_min, s_star, k_max = extremes = state.groups[key].extremes(state.strengths)
        ind = state.interval_index(k_max)
        verdicts[key] = (*extremes, ind)
        if ind == 0 or k_min >= state.K_units[ind - 1]:
            bad.discard(key)
        else:
            bad.add(key)
    dirty.clear()
    if not bad:
        return None
    key = min(bad, key=lambda k: (-verdicts[k][4], k))
    i_min, k_min, s_star, k_max, ind = verdicts[key]
    g = state.groups[key]
    return BadEdge(g.holder(s_star), key, ind, g.slots[i_min], g.slots[s_star],
                   k_min, k_max)


def transfer_step(state: BalanceState, key: tuple[int, ...], f_min: Pair, f_max: Pair,
                  units: int = 1) -> None:
    """Move `units` deltas from f_max to f_min within group `key`: from its
    copies in copy order, each giving what it holds on f_max, which are the
    copies the loop would pick one unit at a time.  A run of copies with
    equal units gives held * count at once, and only the run where the move
    ends is split; the group's runs are rebuilt with equal neighbours merged.
    The strength tree shifts the same units in one call, which needs `units`
    at most its certified horizon + 1, and updates `state.strengths` in
    place."""
    g = state.groups[key]
    i_min, i_max = g.slot_index[f_min], g.slot_index[f_max]
    left, pieces = units, []
    for count, u in g.runs:
        # `whole` copies give all they hold on f_max and the next gives `part`
        held = u[i_max]
        whole, part = divmod(left, held) if held * count > left else (count, 0)
        some = int(part > 0)
        pieces += [[whole, _moved(u, i_max, i_min, held)],
                   [some, _moved(u, i_max, i_min, part)], [count - whole - some, u]]
        left -= whole * held + part
    if left:
        raise BalanceError(f"group {key} holds fewer than {units} units on slot {f_max}")
    g.runs = [[sum(count for count, _ in same), u] for u, same in
              itertools.groupby((run for run in pieces if run[0]), key=lambda run: run[1])]
    g.agg_units[i_max] -= units
    g.agg_units[i_min] += units
    state.iterations += units
    state.dirty.add(key)
    state.tree.shift(f_max, f_min, units)


def _batch_length(state: BalanceState, bad: BadEdge, room: int) -> int:
    """How many units the loop moves for the pick `bad`: the first state
    j >= 1 at which some group's verdict would differ from now, or a moving
    2-vertex group's strength would leave the tracked range, with at most
    the tree's certified horizon + 1 and `room` units.  Only the picked group
    and the groups holding a pair whose strength moves can change verdict."""
    certified, slopes = state.tree.horizon(bad.f_max, bad.f_min)
    units = min(certified + 1, room)
    if units > 1:
        keys = {bad.group_key}.union(*(state.groups_of.get(p, ()) for p in slopes))
        for key in keys:
            units = min(units, _verdict_lasts(state, state.groups[key], slopes, bad))
        low, high = state.k0_units, state.K_units[-1]
        for p in slopes.keys() & state.pair_groups:
            k, s = state.strengths[p], slopes[p]
            units = min(units, first_fail(k - low, s), first_fail(high - k, -s))
    return units


def _verdict_lasts(state: BalanceState, g: _Group, slopes: Mapping[Pair, int],
                   bad: BadEdge):
    """The first state j >= 1 at which g's verdict (bad or not, ind, f_min,
    s_star, k_max in range) would differ from now, when each slot strength
    moves by its slope per unit and the picked group moves units from f_max
    to f_min; inf when it never does.  g's verdict now is find_max_bad's."""
    f, k_min, top, k_max, ind = state.verdicts[g.key]
    slope = [slopes.get(p, 0) for p in g.slots]
    moves = {}  # the slots whose aggregate units move: the picked group's
    if g.key == bad.group_key:
        moves = {g.slot_index[bad.f_max]: -1, g.slot_index[bad.f_min]: 1}
    # find_max_bad's choices now, each kept while every other slot stays on
    # its side; a slot on f_min's (s_star's) slope keeps it, as f_min is the
    # first weakest slot and s_star the first strongest held one
    s_min, s_max = slope[f], slope[top]
    stays = [(g.agg_units[top], moves.get(top, 0), True)]
    for i, s in enumerate(slope):
        if s != s_min:
            stays.append((state.strengths.get(g.slots[i], 0) - k_min, s - s_min, i < f))
        if s != s_max and (g.agg_units[i] > 0 or moves.get(i, 0) > 0):
            stays.append((k_max - state.strengths.get(g.slots[i], 0), s_max - s, i < top))
    levels = state.K_units
    below = levels[max(ind - 1, 0)]
    stays.append((levels[ind] - k_max, -s_max, False))
    stays.append((k_max - below, s_max, ind > 0))
    if ind > 0:
        stays.append((below - k_min, -s_min, True) if k_min < below
                     else (k_min - below, s_min, False))
    return min(itertools.starmap(first_fail, stays))


def run_balance(
    h: WeightedHypergraph,
    gamma: int = 2,
    iteration_cap: Optional[int] = None,
    counts: Optional[Sequence[int]] = None,
) -> BalanceState:
    """Run the transfer loop to a gamma-balanced assignment, reading edge j
    of h as counts[j] copies (one each by default), and return the loop's
    final state: its runs are the assignment, its `strengths` the integer
    pair strengths on the delta grid, and `kappa_by_group` gives each
    group's kappa.

    Each pick moves `_batch_length` units in one `transfer_step`: as many as
    the one-unit loop would move before any pick could change, so the
    iterations and the final weights are those of moving one unit per pick.
    To step one unit at a time, call `find_max_bad` and `transfer_step` on
    an `init_weights` state.  The loop provably needs at most m*ell*n^2
    transfers, m the copy count; the default cap is twice that, and hitting
    it raises since it would mean a logic error, not an unlucky input.
    """
    state = init_weights(h, gamma, counts)
    if iteration_cap is None:
        iteration_cap = 2 * state.copies * state.ell * state.units_per_copy
    while True:
        bad = find_max_bad(state)
        if bad is None:
            break
        if state.iterations >= iteration_cap:
            raise BalanceError(f"iteration cap {iteration_cap} exceeded")
        units = _batch_length(state, bad, iteration_cap - state.iterations)
        transfer_step(state, bad.group_key, bad.f_min, bad.f_max, units)
    return state


@dataclass(frozen=True)
class Violation:
    """A condition broken by the `count` copies of a run, from `copy` on."""
    copy: int
    kind: str
    kappa: Fraction
    kappa_max: Fraction
    weight_sum: Fraction
    count: int


@dataclass(frozen=True)
class BalanceReport:
    ok: bool
    violations: tuple[Violation, ...]
    checked_copies: int


def is_balanced(state: BalanceState, gamma: Optional[int] = None) -> BalanceReport:
    """Check both conditions on the runs of a balance state: each copy's
    slots sum to exactly 1, and its strength spread is within gamma.  It
    re-derives everything from the runs, strengths by a fresh
    `pair_strengths` of their collapsed units, and trusts neither the
    state's `strengths` nor its tree.  A run of copies with equal units is
    checked once and weighs its count.
    """
    if gamma is None:
        gamma = state.gamma
    units_per_copy = state.units_per_copy
    fresh = pair_strengths(state.n, state.collapsed_units())
    violations: list[Violation] = []
    checked = 0
    d = state.delta
    for g in state.groups.values():
        slot_strengths = [fresh.get(p, 0) for p in g.slots]
        kappa = min(slot_strengths)
        pos = 0
        for count, units in g.runs:
            total = sum(units)
            kmax = max((s for s, u in zip(slot_strengths, units) if u > 0), default=0)
            for kind, broken in (("weight-sum", total != units_per_copy),
                                 ("gamma-ratio", kmax > gamma * kappa)):
                if broken:
                    violations.append(Violation(_copy_at(g.spans, pos), kind, kappa * d,
                                                kmax * d, total * d, count))
            pos += count
        checked += pos
    violations.sort(key=lambda v: (v.copy, v.kind))
    return BalanceReport(not violations, tuple(violations), checked)
