"""Strength sampling at desk scale, and why the sunflower keeps everything.

At realistic sizes the theoretical oversampling rate rho is far above every
strength, so all keep probabilities clamp to one and the sparsifier is the
input itself: correct, just not smaller.  Forcing rho down with an override
makes the sampler actually drop edges; the exhaustive cut report then shows
the realized error against the doubled-epsilon yardstick.
"""

from hgsparse import (
    all_cuts_report,
    gen_random,
    gen_sunflower,
    make_plan,
    report_text,
    run_balance,
    sparsify_unweighted,
)

h = gen_random(8, 30, 3, seed=5)
res = sparsify_unweighted(h, 0.5, d=1, seed=0)
assignment = run_balance(h)
kappas = assignment.kappa_by_copy()
print(f"theoretical rho ~ {float(res.plan.rho):.0f}, "
      f"max strength {float(max(kappas)):.1f}")
print(f"kept {res.m_out}/{res.m_in} edges (all p=1, output is the input)")
print()

rho = min(kappas) / 2
plan = make_plan(assignment, 0.5, 1, rho_override=rho)
from hgsparse import sample_sparsifier

sampled = sample_sparsifier(h, plan, seed=0)
print(f"override rho={rho}: kept {sampled.m_out}/{sampled.m_in} "
      f"(expected {float(sampled.sum_p):.1f})")
rep = all_cuts_report(h, sampled.hypergraph, 1.0, seed=0)
print(report_text(rep))

flower = gen_sunflower(8)
kept = sparsify_unweighted(flower, 0.5, seed=3)
print(f"sunflower n=8: every petal is its own weak cut, so all "
      f"{kept.m_out}/{kept.m_in} edges survive any sound sampling")
assert kept.hypergraph == flower
