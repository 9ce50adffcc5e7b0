"""One pass over an edge stream with merge-and-reduce buffers.

Raw edges fill a fixed-capacity buffer; each full buffer has its parallel
edges summed, is sparsified at a tightened inner epsilon and is promoted one
level, and two sketches on the same level merge into one a level higher.  Memory therefore stays within
2 log2^2(m/n) times the buffer size no matter how long the stream runs; the
final answer is one more sparsification of everything still buffered.
"""

import math
import random
from fractions import Fraction

from hgsparse import HyperEdge, WeightedHypergraph, all_cuts_report, stream_sparsify

n, m = 10, 2000
rng = random.Random(7)
edges = []
for _ in range(m):
    verts = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(2, 3))))
    edges.append(HyperEdge(verts, Fraction(rng.randint(1, 4))))

res = stream_sparsify(iter(edges), n, m, epsilon=0.5, seed=11)
notes = res.notes
print(f"stream of {m} edges, n={n}, eps=0.5 "
      f"(inner eps {notes['eps_inner']:.4f}, capacity {notes['capacity']})")
print(f"flushes={notes['flushes']} levels={notes['levels']} "
      f"largest single sketch={notes['max_flush_out']}")
print(f"high water {notes['high_water']} stored edges, "
      f"bound {notes['memory_bound']:.0f}")

folded = {}
for e in edges:
    folded[e.vertices] = folded.get(e.vertices, Fraction(0)) + e.weight
whole = WeightedHypergraph(n, tuple(HyperEdge(v, w) for v, w in sorted(folded.items())))
rep = all_cuts_report(whole, res.hypergraph, 0.5)
print(f"final size {res.m_out}, max error over all {rep.cuts_checked} cuts: "
      f"{float(rep.max_rel_error):.4f}")

ratio = math.log2(m / n)
print(f"stored/bound ratio: {notes['high_water'] / (2 * ratio * ratio * notes['capacity']):.3f}")
