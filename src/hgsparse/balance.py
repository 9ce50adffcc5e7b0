"""Balanced clique-expansion weights for unweighted multi-hypergraphs.

Each hyperedge copy spreads one unit of weight over the vertex pairs of its
clique, on a grid of delta = 1/n^2.  A copy is bad when some pair of its
clique is much weaker than its strongest positively weighted pair; the loop
repeatedly moves one delta from the strongest positive slot of a worst bad
copy to its weakest slot until the strength spread of every copy is within a
factor gamma.  All arithmetic is exact: weights are integer multiples of
delta and strengths of integer-weight graphs are integers, so the loop
terminates by a potential argument rather than by tolerance.

Copies with the same vertex set behave identically up to which slots are
positive, so they are grouped: per group we keep one shared slot vector for
untouched copies plus overrides for touched ones, and badness is decided by
inspecting only the strongest positively weighted slot of the group.

Strengths live in one `StrengthTree`, built from the initial weights; each
transfer shifts its unit there (see `transfer_step`).

A group's verdict (bad or not; its index, weakest and strongest slots) is a
function of its slots' strengths, its aggregate slot units and the fixed
levels K_j alone.  So after a transfer only the group that moved the unit and
the groups holding a pair whose strength changed can change verdict;
`find_max_bad` re-examines just those and caches the rest, which gives
exactly the pick of a scan over every group.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .graph import StrengthTable, StrengthTree, pair_strengths
from .hypergraph import WeightedHypergraph

Pair = tuple[int, int]


class BalanceError(RuntimeError):
    pass


class _Group:
    __slots__ = ("key", "slots", "slot_index", "copies", "default_units",
                 "overrides", "agg_units")

    def __init__(self, key: tuple[int, ...], units_total: int, copies: list[int]):
        self.key = key
        self.slots = list(itertools.combinations(key, 2))
        self.slot_index = {p: i for i, p in enumerate(self.slots)}
        self.copies = copies
        q = len(self.slots)
        base = max(2, units_total // q)
        rem = units_total - q * base
        if rem < 0:
            raise BalanceError(f"slot count {q} too large for the delta grid")
        self.default_units = [base + 1 if i < rem else base for i in range(q)]
        self.overrides: dict[int, list[int]] = {}
        self.agg_units = [u * len(copies) for u in self.default_units]

    def units_for(self, copy: int) -> list[int]:
        got = self.overrides.get(copy)
        return got if got is not None else self.default_units

    def smallest_positive_holder(self, slot_i: int) -> int:
        for c in self.copies:
            if self.units_for(c)[slot_i] > 0:
                return c
        raise BalanceError("slot has positive total weight but no holder")


@dataclass(frozen=True)
class BadEdge:
    copy: int
    group_key: tuple[int, ...]
    ind: int
    f_min: Pair
    f_max: Pair
    k_min: int
    k_max: int


@dataclass(frozen=True)
class IterationRecord:
    index: int
    group_key: tuple[int, ...]
    copy: int
    ind: int
    f_min: Pair
    f_max: Pair
    hist: tuple[int, ...]
    weight_gt: tuple[int, ...]


def format_trace_line(rec: IterationRecord) -> str:
    hist = ",".join(f"{j}:{c}" for j, c in enumerate(rec.hist))
    return (f"iter={rec.index} group={rec.group_key} copy={rec.copy} ind={rec.ind} "
            f"fmin={rec.f_min} fmax={rec.f_max} hist=[{hist}]")


def check_gamma(gamma: int) -> None:
    if not isinstance(gamma, int) or gamma < 2:
        raise ValueError("gamma must be an integer >= 2")


def check_unweighted(h: WeightedHypergraph) -> None:
    if not h.is_unweighted():
        raise ValueError("balancing expects an unweighted multi-hypergraph")


class BalanceState:
    """Mutable loop state; all weights live on the integer delta grid."""

    def __init__(self, h: WeightedHypergraph, gamma: int):
        check_gamma(gamma)
        check_unweighted(h)
        self.hypergraph = h
        self.n = h.n
        self.m = h.m
        self.gamma = gamma
        self.units_total = h.n * h.n
        self.delta = Fraction(1, self.units_total)
        self.iterations = 0

        per_key: dict[tuple[int, ...], list[int]] = {}
        for idx, e in enumerate(h.edges):
            per_key.setdefault(e.vertices, []).append(idx)
        self.groups: dict[tuple[int, ...], _Group] = {
            key: _Group(key, self.units_total, copies) for key, copies in per_key.items()
        }
        self.sorted_keys = sorted(self.groups)

        self.pair_units: dict[Pair, int] = {}
        for g in self.groups.values():
            for p, agg in zip(g.slots, g.agg_units):
                self.pair_units[p] = self.pair_units.get(p, 0) + agg
        self.tree = StrengthTree(self.n, self.pair_units)
        self.strengths: dict[Pair, int] = self.tree.strengths
        self.groups_of: dict[Pair, list[tuple[int, ...]]] = {}
        for key in self.sorted_keys:
            for p in self.groups[key].slots:
                self.groups_of.setdefault(p, []).append(key)
        # find_max_bad's cache: groups to re-examine, and the bad verdicts
        self.dirty = set(self.groups)
        self.bad: dict[tuple[int, ...], tuple] = {}

        if self.m == 0:
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

    def interval_index(self, value: int) -> int:
        """0 for value == K_0, else the j with K_{j-1} < value <= K_j."""
        if value < self.k0_units or value > self.K_units[-1]:
            raise BalanceError(
                f"strength {value} left the tracked range "
                f"[{self.k0_units}, {self.K_units[-1]}]"
            )
        return bisect_left(self.K_units, value)

    def strength_histogram(self) -> tuple[int, ...]:
        hist = [0] * (self.ell + 1)
        for p, u in self.pair_units.items():
            if u > 0:
                hist[self.interval_index(self.strengths[p])] += 1
        return tuple(hist)

    def weight_above(self) -> tuple[int, ...]:
        """Per level j, total units on pairs with strength > K_j."""
        out = []
        for kj in self.K_units:
            total = 0
            for p, u in self.pair_units.items():
                if u > 0 and self.strengths[p] > kj:
                    total += u
            out.append(total)
        return tuple(out)

    def snapshot(self) -> "BalancedAssignment":
        groups = tuple(
            AssignmentGroup(
                key=g.key,
                slots=tuple(g.slots),
                copies=tuple(g.copies),
                default_units=tuple(g.default_units),
                overrides={c: tuple(u) for c, u in g.overrides.items()},
            )
            for g in (self.groups[k] for k in self.sorted_keys)
        )
        d = self.delta
        table = StrengthTable(
            self.n,
            {p: v * d for p, v in self.strengths.items()},
            {p: u * d for p, u in self.pair_units.items() if u > 0},
        )
        return BalancedAssignment(
            hypergraph=self.hypergraph,
            gamma=self.gamma,
            delta=d,
            units_per_copy=self.units_total,
            groups=groups,
            strengths=table,
            iterations=self.iterations,
            k0=self.k0_units * d,
            ell=self.ell,
        )


def init_weights(h: WeightedHypergraph, gamma: int = 2) -> BalanceState:
    """Spread each copy's unit weight nearly uniformly over its clique slots.

    Every slot gets at least 2 delta so that a single transfer can never
    make a freshly initialized slot negative or empty.
    """
    return BalanceState(h, gamma)


def find_max_bad(state: BalanceState) -> Optional[BadEdge]:
    """A bad copy of maximal interval index, or None when balanced.

    Per group only the strongest positively weighted slot needs checking:
    the weakest slot is shared by all copies of the group, and the copy
    holding weight on the strongest slot realizes the group's largest index.
    Ties go to the smallest group key, then the smallest copy index holding
    the inspected slot.

    Only dirty groups are examined: those a transfer moved a unit in, and
    those holding a pair in the tree's `changed` set.  Every other group's
    inputs, so its cached verdict, are as at its last examination.
    """
    strengths, dirty, bad = state.strengths, state.dirty, state.bad
    for p in state.tree.changed:
        dirty.update(state.groups_of.get(p, ()))
    state.tree.changed.clear()
    for key in sorted(dirty):
        g = state.groups[key]
        k_min = f_min = k_max = s_star = None
        for i, p in enumerate(g.slots):
            s = strengths.get(p, 0)
            if k_min is None or s < k_min:
                k_min, f_min = s, p
            if g.agg_units[i] > 0 and (k_max is None or s > k_max):
                k_max, s_star = s, i
        ind = state.interval_index(k_max)
        if ind == 0 or k_min >= state.K_units[ind - 1]:
            bad.pop(key, None)
        else:
            bad[key] = (ind, f_min, s_star, k_min, k_max)
    dirty.clear()
    if not bad:
        return None
    key = min(bad, key=lambda k: (-bad[k][0], k))
    ind, f_min, s_star, k_min, k_max = bad[key]
    g = state.groups[key]
    return BadEdge(g.smallest_positive_holder(s_star), key, ind, f_min, g.slots[s_star],
                   k_min, k_max)


def transfer_step(state: BalanceState, copy: int, f_min: Pair, f_max: Pair) -> None:
    """Move one delta of the copy's weight from f_max to f_min.  The strength
    tree shifts the same unit and updates `state.strengths` in place: only
    blocks whose old min cut loses its certificate run Stoer-Wagner again, and
    the whole graph is peeled again only when f_max empties or f_min joins two
    components."""
    g = state.groups[state.hypergraph.edges[copy].vertices]
    i_min = g.slot_index[f_min]
    i_max = g.slot_index[f_max]
    units = g.overrides.get(copy)
    if units is None:
        units = list(g.default_units)
        g.overrides[copy] = units
    if units[i_max] < 1:
        raise BalanceError(f"copy {copy} holds no weight on slot {f_max}")
    units[i_max] -= 1
    units[i_min] += 1
    g.agg_units[i_max] -= 1
    g.agg_units[i_min] += 1
    state.pair_units[f_max] -= 1
    state.pair_units[f_min] = state.pair_units.get(f_min, 0) + 1
    state.iterations += 1
    state.dirty.add(g.key)
    state.tree.shift(f_max, f_min)


def run_balance(
    h: WeightedHypergraph,
    gamma: int = 2,
    iteration_cap: Optional[int] = None,
    trace: Optional[list] = None,
) -> "BalancedAssignment":
    """Run the transfer loop to a gamma-balanced assignment.

    The loop provably needs at most m*ell*n^2 transfers; the default cap is
    twice that, and hitting it raises since it would mean a logic error, not
    an unlucky input.
    """
    state = init_weights(h, gamma)
    if iteration_cap is None:
        iteration_cap = 2 * state.m * state.ell * state.units_total
    while True:
        bad = find_max_bad(state)
        if bad is None:
            break
        if state.iterations >= iteration_cap:
            raise BalanceError(f"iteration cap {iteration_cap} exceeded")
        transfer_step(state, bad.copy, bad.f_min, bad.f_max)
        if trace is not None:
            trace.append(IterationRecord(
                index=state.iterations,
                group_key=bad.group_key,
                copy=bad.copy,
                ind=bad.ind,
                f_min=bad.f_min,
                f_max=bad.f_max,
                hist=state.strength_histogram(),
                weight_gt=state.weight_above(),
            ))
    return state.snapshot()


@dataclass(frozen=True)
class AssignmentGroup:
    key: tuple[int, ...]
    slots: tuple[Pair, ...]
    copies: tuple[int, ...]
    default_units: tuple[int, ...]
    overrides: Mapping[int, tuple[int, ...]]

    def units_for(self, copy: int) -> tuple[int, ...]:
        return self.overrides.get(copy, self.default_units)


@dataclass(frozen=True)
class BalancedAssignment:
    hypergraph: WeightedHypergraph
    gamma: int
    delta: Fraction
    units_per_copy: int
    groups: tuple[AssignmentGroup, ...]
    strengths: StrengthTable
    iterations: int
    k0: Fraction
    ell: int

    def group_for(self, key: tuple[int, ...]) -> AssignmentGroup:
        for g in self.groups:
            if g.key == key:
                return g
        raise KeyError(key)

    def collapsed_units(self) -> dict[Pair, int]:
        total: dict[Pair, int] = {}
        for g in self.groups:
            shared = len(g.copies) - len(g.overrides)
            for i, p in enumerate(g.slots):
                agg = shared * g.default_units[i]
                for units in g.overrides.values():
                    agg += units[i]
                if agg:
                    total[p] = total.get(p, 0) + agg
        return total

    def kappa_by_group(self) -> dict[tuple[int, ...], Fraction]:
        """Weakest clique slot strength per group (all slots, zero or not)."""
        out = {}
        for g in self.groups:
            out[g.key] = min(self.strengths.strength(u, v) for u, v in g.slots)
        return out

    def kappa_by_copy(self) -> list[Fraction]:
        per_group = self.kappa_by_group()
        out = [Fraction(0)] * self.hypergraph.m
        for g in self.groups:
            for c in g.copies:
                out[c] = per_group[g.key]
        return out

    def kappa_max_by_copy(self) -> list[Fraction]:
        """Strongest positively weighted slot per copy."""
        out = [Fraction(0)] * self.hypergraph.m
        for g in self.groups:
            slot_strengths = [self.strengths.strength(u, v) for u, v in g.slots]
            default_max = max(s for s, u in zip(slot_strengths, g.default_units) if u > 0)
            for c in g.copies:
                units = g.overrides.get(c)
                if units is None:
                    out[c] = default_max
                else:
                    out[c] = max(s for s, u in zip(slot_strengths, units) if u > 0)
        return out


@dataclass(frozen=True)
class Violation:
    copy: int
    kind: str
    kappa: Fraction
    kappa_max: Fraction
    weight_sum: Fraction


@dataclass(frozen=True)
class BalanceReport:
    ok: bool
    violations: tuple[Violation, ...]
    checked_copies: int


def is_balanced(assignment: BalancedAssignment, gamma: Optional[int] = None) -> BalanceReport:
    """Re-derive strengths from the stored weights and check both conditions:
    each copy's slots sum to exactly 1, and its strength spread is within
    gamma.  Does not trust the strengths cached on the assignment.
    """
    if gamma is None:
        gamma = assignment.gamma
    n = assignment.hypergraph.n
    units_total = assignment.units_per_copy
    fresh = pair_strengths(n, assignment.collapsed_units())
    violations: list[Violation] = []
    checked = 0
    d = assignment.delta
    for g in assignment.groups:
        slot_strengths = [fresh.get(p, 0) for p in g.slots]
        kappa = min(slot_strengths)
        default_sum = sum(g.default_units)
        default_max = max(
            (s for s, u in zip(slot_strengths, g.default_units) if u > 0), default=0
        )
        for c in g.copies:
            checked += 1
            units = g.overrides.get(c)
            if units is None:
                total, kmax = default_sum, default_max
            else:
                total = sum(units)
                kmax = max((s for s, u in zip(slot_strengths, units) if u > 0), default=0)
            if total != units_total:
                violations.append(Violation(c, "weight-sum", kappa * d, kmax * d, total * d))
            if kmax > gamma * kappa:
                violations.append(Violation(c, "gamma-ratio", kappa * d, kmax * d, total * d))
    violations.sort(key=lambda v: (v.copy, v.kind))
    return BalanceReport(not violations, tuple(violations), checked)
