"""Edge strengths on a small weighted multigraph (a 2-uniform hypergraph).

Two triangles joined by a single bridge.  The bridge can only ever sit in a
subgraph whose minimum cut is the bridge itself, so its strength stays at its
own weight, while each triangle supports its edges at strength 2.  The
brute-force oracle recomputes everything by subset enumeration; the two
answers agree exactly because all arithmetic is rational.
"""

from hgsparse import (
    HyperEdge,
    WeightedHypergraph,
    brute_force_strengths,
    edge_strengths,
    k_strong_components,
)

pairs = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)]
g = WeightedHypergraph(6, tuple(HyperEdge((u, v)) for u, v in pairs))

table = edge_strengths(g)
brute = brute_force_strengths(g)

print("pair  strength  brute")
for u, v in pairs:
    k = table.strength(u, v)
    print(f"{u}-{v}   {k!s:>6}    {brute[(u, v)]!s:>5}")
    assert k == brute[(u, v)]

print()
print(f"distinct strengths: {table.distinct_strength_count()} (bound n-1 = {g.n - 1})")
print(f"sum w/k = {table.strength_weight_sum()} (bound n-1 = {g.n - 1})")

print()
print("strong components as the threshold rises (they only ever refine):")
for k in (1, 2, 3):
    comps = [sorted(c) for c in k_strong_components(table, k)]
    print(f"  k={k}: {comps}")
