"""Strength-proportional sampling of hyperedges.

Both samplers share one core, which reads edge j as counts[j] unit copies of
weight 1/scale: one copy per edge at scale 1 for `sparsify_unweighted`; for
`sparsify_weighted`, the minimum weight is rescaled to 3/eps and each edge is
rounded down to whole copies (the Benczur-Karger reduction), sampled at eps/3.
Each copy is kept with probability p = min(1, rho/kappa_e), where kappa_e is
its weakest clique slot strength under a gamma-balanced assignment and rho
grows like gamma^2 log(n)/eps^2; the constant 0.38 in rho comes from the
Chernoff bound used in the analysis.  The draw is an exact Bernoulli(p) on
the rational p, and a copy with p = 1 is kept without a draw.  When rho is at
least the copy count m', p = 1 on every copy, and nothing is expanded,
balanced or drawn.  The kept copies of edge j fold into one edge of weight
sum(1/p)/scale, so every cut is preserved in expectation.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .balance import BalancedAssignment, check_gamma, check_unweighted, run_balance
from .hypergraph import HyperEdge, WeightedHypergraph, as_weight, serialize_hypergraph
from .seeds import RNG_ID

CHERNOFF_CONSTANT = 0.38
RHO_FACTOR = 8


class SamplingError(RuntimeError):
    """A sampling plan broke a bound the analysis proves."""


def check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")


def check_d(d: int) -> None:
    if not isinstance(d, int) or d < 0:
        raise ValueError("d must be a nonnegative integer")


def theoretical_rho(n: int, epsilon: float, gamma: int, d: int) -> Fraction:
    """rho = 8 (d+6) gamma^2 ln(n) / (0.38 eps^2), captured exactly.

    The natural log keeps the failure probability at O(n^-d); the value is
    frozen into an exact Fraction so downstream size inequalities can be
    checked without rounding.
    """
    if n < 1:
        raise ValueError("n must be positive")
    try:
        value = (RHO_FACTOR * (d + 6) * gamma * gamma * math.log(n)
                 / (CHERNOFF_CONSTANT * epsilon * epsilon))
    except (OverflowError, ZeroDivisionError):  # gamma past float range, eps^2 underflows to 0
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("rho is not a finite float: epsilon is too small, or gamma or d too large")
    return Fraction(value)


def plan_rho(
    n: int, epsilon: float, gamma: int, d: int, rho_override=None
) -> tuple[Fraction, bool]:
    """The plan's rho, and whether it came from `rho_override`."""
    if rho_override is None:
        return theoretical_rho(n, epsilon, gamma, d), False
    rho = as_weight(rho_override)
    if rho <= 0:
        raise ValueError("rho override must be positive")
    return rho, True


@dataclass(frozen=True)
class SamplingPlan:
    """Per-copy keep probabilities p = min(1, rho/kappa), indexed by unit
    copy in the sampler core's copy order.

    `make_plan` reads each copy's strength kappa off a balanced assignment;
    the plan keeps only p.  When rho is at least the copy count m', the core
    skips balancing: no strength can exceed the total copy weight m', so
    p = 1 on every copy.
    """

    epsilon: float
    gamma: int
    d: int
    rho: Fraction
    n: int
    p: tuple[Fraction, ...]
    overridden: bool = False

    def sum_p(self) -> Fraction:
        # make_plan shares one p object per group of parallel copies, so sum
        # by run length rather than hashing every copy's Fraction
        runs = (list(run) for _, run in itertools.groupby(self.p, id))
        return sum((run[0] * len(run) for run in runs), Fraction(0))

    def size_budget(self) -> Fraction:
        """Exact upper bound rho * gamma * (n - 1) on the expected size."""
        return self.rho * self.gamma * (self.n - 1)


@dataclass(frozen=True)
class SparsifierResult:
    hypergraph: WeightedHypergraph
    plan: Optional[SamplingPlan]
    seed: int
    m_in: int
    m_out: int
    sum_p: Optional[Fraction]
    origin: tuple[int, ...]
    notes: Mapping[str, object] = field(default_factory=dict)


def make_plan(
    assignment: BalancedAssignment,
    epsilon: float,
    d: int = 1,
    rho_override=None,
) -> SamplingPlan:
    """p = min(1, rho/kappa) for every copy, where kappa is the weakest clique
    slot strength of the copy's group.  All copies of a group share one p
    object, which `SamplingPlan.sum_p` relies on."""
    check_epsilon(epsilon)
    check_d(d)
    n = assignment.hypergraph.n
    rho, overridden = plan_rho(n, epsilon, assignment.gamma, d, rho_override)
    one = Fraction(1)
    per_group = assignment.kappa_by_group()
    p = [one] * assignment.hypergraph.m
    for g in assignment.groups:
        gp = min(one, rho / per_group[g.key])
        for c in g.copies:
            p[c] = gp
    return SamplingPlan(epsilon, assignment.gamma, d, rho, n, tuple(p), overridden)


def sample_sparsifier(h: WeightedHypergraph, plan: SamplingPlan, seed: int) -> SparsifierResult:
    """Keep copy c with probability exactly p = plan.p[c]; a kept copy gets
    weight w/p.  Identical (hypergraph, plan, seed) gives identical output.

    A copy with p < 1 is kept when `randrange(p.denominator)` falls below
    `p.numerator`: one RNG call per such copy, in copy order.  A copy with
    p = 1 is kept without touching the RNG."""
    if h.m != len(plan.p):
        raise ValueError("plan does not match the hypergraph edge count")
    draw = random.Random(seed).randrange
    kept: list[HyperEdge] = []
    origin: list[int] = []
    for idx, (e, pe) in enumerate(zip(h.edges, plan.p)):
        num, den = pe.numerator, pe.denominator
        if num >= den:  # p >= 1; an int compare is half the cost of a Fraction one
            kept.append(e)
        elif draw(den) < num:
            kept.append(HyperEdge(e.vertices, e.weight / pe))
        else:
            continue
        origin.append(idx)
    out = WeightedHypergraph(h.n, tuple(kept))
    return SparsifierResult(
        hypergraph=out,
        plan=plan,
        seed=seed,
        m_in=h.m,
        m_out=len(kept),
        sum_p=plan.sum_p(),
        origin=tuple(origin),
        notes={"rng": RNG_ID},
    )


def copy_counts(
    h: WeightedHypergraph, epsilon: float, copy_cap: int = 10**6
) -> tuple[Fraction, list[int]]:
    """The scale that lifts the minimum weight of h to 3/eps, and each
    edge's unit-copy count floor(scale * w).  Raises when the counts sum
    past copy_cap.

    Rounding loses less than one copy per edge against a scaled weight of at
    least 3/eps, so the copies are a (1 +- eps/3) proxy for the input.
    """
    if h.m == 0:
        return Fraction(1), []
    eps = as_weight(epsilon)
    w_min = min(e.weight for e in h.edges)
    scale = (3 / eps) / w_min
    # floor(scale * w) on integers: both terms are positive
    sn, sd = scale.numerator, scale.denominator
    counts = [sn * e.weight.numerator // (sd * e.weight.denominator) for e in h.edges]
    total = sum(counts)
    if total > copy_cap:
        raise ValueError(
            f"reduction needs {total} copies, over the cap {copy_cap}; "
            "the weight spread is too large for direct reduction, use the bucketed pipeline"
        )
    return scale, counts


def reduce_weighted(
    h: WeightedHypergraph, counts: Sequence[int]
) -> tuple[WeightedHypergraph, tuple[int, ...]]:
    """Expand edge j of h into counts[j] unit-weight copies, in edge order.
    Returns the copies and, per copy, the index of its input edge."""
    edges: list[HyperEdge] = []
    origin: list[int] = []
    for j, (e, c) in enumerate(zip(h.edges, counts)):
        unit = e if e.weight == 1 else HyperEdge(e.vertices, Fraction(1))
        edges.extend([unit] * c)
        origin.extend([j] * c)
    return WeightedHypergraph(h.n, tuple(edges)), tuple(origin)


def _sparsify_copies(
    h: WeightedHypergraph,
    scale: Fraction,
    counts: Sequence[int],
    epsilon: float,
    gamma: int,
    d: int,
    seed: int,
    rho_override,
    notes: Mapping[str, object],
) -> SparsifierResult:
    """The sampler core: edge j of h stands for counts[j] unit copies of
    weight 1/scale.  The kept copies of edge j fold back into one edge of
    weight sum(1/p) / scale; edges with no kept copy are dropped."""
    notes = {"rng": RNG_ID, **notes}
    # checked before the empty return, so a bad rho raises on every input
    rho, overridden = plan_rho(h.n, epsilon, gamma, d, rho_override)
    if h.m == 0:
        return SparsifierResult(h, None, seed, 0, 0, Fraction(0), (), notes)
    copies = sum(counts)
    # Every copy spreads weight 1 over its clique, so no strength exceeds the
    # total copy weight m' = copies: rho >= m' makes p = 1 on every copy, and
    # nothing needs expanding, balancing or drawing.
    keep_all = rho >= copies
    if keep_all:
        # edge j keeps all counts[j] copies: weight counts[j] / scale
        sn, sd = scale.numerator, scale.denominator
        weights = {j: Fraction(c * sd, sn) for j, c in enumerate(counts)}
        notes["balance_iterations"] = 0
    else:
        unit, origin = reduce_weighted(h, counts)
        assignment = run_balance(unit, gamma)
        plan = make_plan(assignment, epsilon, d, rho_override)
        sample = sample_sparsifier(unit, plan, seed)
        sum_p = sample.sum_p
        # p <= rho/kappa and sum(1/kappa) <= gamma (n-1) on a balanced assignment
        if sum_p > plan.size_budget():
            raise SamplingError(f"expected size {sum_p} exceeds rho*gamma*(n-1) = "
                                f"{plan.size_budget()}")
        notes["balance_iterations"] = assignment.iterations
        # copies are in edge order, so the sums are too
        sums = {}
        for c, e in zip(sample.origin, sample.hypergraph.edges):
            sums[origin[c]] = sums.get(origin[c], 0) + e.weight
        weights = {j: w / scale for j, w in sums.items()}
    out = WeightedHypergraph(h.n, tuple(
        HyperEdge(h.edges[j].vertices, w) for j, w in weights.items()))
    if keep_all:
        # after the output edges: built first, the m'-long p tuple would be
        # rescanned by the garbage collector all through the edge loop
        sum_p = Fraction(copies)
        plan = SamplingPlan(epsilon, gamma, d, rho, h.n, (Fraction(1),) * copies, overridden)
    return SparsifierResult(out, plan, seed, h.m, out.m, sum_p, tuple(weights), notes)


def sparsify_unweighted(
    h: WeightedHypergraph,
    epsilon: float,
    gamma: int = 2,
    d: int = 1,
    seed: int = 0,
    rho_override=None,
) -> SparsifierResult:
    """Balance, plan, sample.  With the theoretical rho all cuts land within
    (1 +- 2 eps) of the input with probability 1 - O(n^-d)."""
    check_epsilon(epsilon)
    check_gamma(gamma)
    check_d(d)
    check_unweighted(h)
    return _sparsify_copies(h, Fraction(1), [1] * h.m, epsilon, gamma, d, seed,
                            rho_override, {})


def sparsify_weighted(
    h: WeightedHypergraph,
    epsilon: float,
    d: int = 1,
    seed: int = 0,
    gamma: int = 2,
    rho_override=None,
    copy_cap: int = 10**6,
) -> SparsifierResult:
    """Weighted entry point: round to unit copies, sample those at eps/3,
    and fold the kept copies of each input edge back together with the
    rescaling undone.  The two eps/3 stages compose to within (1 +- eps)."""
    check_epsilon(epsilon)
    check_gamma(gamma)
    check_d(d)
    scale, counts = copy_counts(h, epsilon, copy_cap)
    return _sparsify_copies(h, scale, counts, epsilon / 3, gamma, d, seed, rho_override,
                            {"scale": scale, "reduced_copies": sum(counts)})


def result_metadata(result: SparsifierResult) -> str:
    """Sidecar text: one key=value per line, exact values, fixed order."""
    lines = [
        f"n={result.hypergraph.n}",
        f"m_in={result.m_in}",
        f"m_out={result.m_out}",
        f"seed={result.seed}",
    ]
    if result.plan is not None:
        lines += [
            f"epsilon={result.plan.epsilon!r}",
            f"gamma={result.plan.gamma}",
            f"d={result.plan.d}",
            f"rho={result.plan.rho}",
            f"rho_overridden={int(result.plan.overridden)}",
        ]
    if result.sum_p is not None:
        lines.append(f"sum_p={result.sum_p}")
    for key in sorted(result.notes):
        val = result.notes[key]
        if isinstance(val, Fraction):
            val = str(val)
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def save_result(result: SparsifierResult, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_hypergraph(result.hypergraph))
    with open(path + ".meta", "w") as fh:
        fh.write(result_metadata(result))
