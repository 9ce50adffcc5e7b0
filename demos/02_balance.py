"""Watching the balancing loop work.

Twelve parallel edges on {1,2} sit next to a single spanning edge {1,2,3}.
The spanning edge starts with uniform clique weights, but its (1,2) slot is
backed by the parallel cluster and lands five geometric intervals above its
weak slots, so the edge is flagged and the loop moves weight one grid unit
at a time from the strong slot to a weak one.  Three transfers suffice.
"""

from hgsparse import (
    HyperEdge,
    WeightedHypergraph,
    find_max_bad,
    init_weights,
    is_balanced,
    transfer_step,
)

h = WeightedHypergraph(
    3, tuple(HyperEdge((1, 2)) for _ in range(12)) + (HyperEdge((1, 2, 3)),))

# the loop one unit per pick: find a worst bad group, move one delta from its
# strongest positively weighted slot to its weakest slot
state = init_weights(h, gamma=2)
print(f"n={h.n} m={h.m} grid delta={state.delta} levels ell={state.ell} "
      f"K0={state.k0_units * state.delta}")
print()
while (bad := find_max_bad(state)) is not None:
    transfer_step(state, bad.group_key, bad.f_min, bad.f_max)
    # positively weighted pairs per strength interval (K_{j-1}, K_j]
    hist = [0] * (state.ell + 1)
    for pair, units in state.pair_units.items():
        if units > 0:
            hist[state.interval_index(state.strengths[pair])] += 1
    print(f"iter={state.iterations} group={bad.group_key} copy={bad.copy} "
          f"ind={bad.ind} fmin={bad.f_min} fmax={bad.f_max} "
          f"hist=[{','.join(f'{j}:{c}' for j, c in enumerate(hist))}]")
print()

spanning = state.groups[(1, 2, 3)]
((_, units),) = spanning.runs  # the spanning edge is one copy
print("final clique weights of the spanning edge:")
for pair, u in zip(spanning.slots, units):
    print(f"  slot {pair}: {u} units = {u * state.delta}")

report = is_balanced(state)
kappa = state.kappa_by_group()[spanning.key]
kappa_max = max(state.strengths[pair]
                for pair, u in zip(spanning.slots, units) if u > 0) * state.delta
print()
print(f"balanced={report.ok} checked={report.checked_copies} "
      f"violations={len(report.violations)}")
print(f"spanning copy: kappa={kappa} kappa_max={kappa_max} "
      f"ratio within gamma={state.gamma}")
