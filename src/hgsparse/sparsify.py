"""Strength-proportional sampling of hyperedges.

Both samplers share one core, which reads edge j as counts[j] unit copies of
weight 1/scale: one copy per edge at scale 1 for `sparsify_unweighted`; for
`sparsify_weighted`, the minimum weight is rescaled to 3/eps and each edge is
rounded down to whole copies (the Benczur-Karger reduction), sampled at eps/3.
Each copy is kept with probability p = min(1, rho/kappa_e), where kappa_e is
its weakest clique slot strength under a gamma-balanced assignment and rho
grows like gamma^2 log(n)/eps^2; the constant 0.38 in rho comes from the
Chernoff bound used in the analysis.  When rho is at least the copy count
m', p = 1 on every copy, and nothing is expanded, balanced or drawn.

Nothing is expanded per copy: balancing reads edge j as counts[j] copies
(its groups keep runs of copies with equal units), all copies of edge j lie
in one group, so the plan holds counts[j] and one p per edge, and the
sampler draws edge j's kept count k, an exact Binomial(counts[j], p), in
O(log counts[j]) draws and emits one edge of weight k/(p * scale), so every
cut is preserved in expectation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .balance import BalanceState, check_gamma, check_unweighted, run_balance
from .hypergraph import (
    HyperEdge,
    WeightedHypergraph,
    as_weight,
    denominator_sum,
    min_weight,
    serialize_hypergraph,
)
from .seeds import RNG_ID

CHERNOFF_CONSTANT = 0.38
RHO_FACTOR = 8
# Below p = 1, balancing and the draws grow with a weighted call's unit copies
COPY_LIMIT = 10**6


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
    """Input edge j stands for counts[j] unit copies, each kept with
    probability p[j] = min(1, rho/kappa).

    `make_plan` reads each edge's strength kappa off `run_balance`'s final
    state, one per balance group; the plan keeps only p.  When rho is at
    least the copy count m', the core skips balancing: no strength can
    exceed the total copy weight m', so p = 1 on every copy.
    """

    epsilon: float
    gamma: int
    d: int
    rho: Fraction
    n: int
    counts: tuple[int, ...]
    p: tuple[Fraction, ...]
    overridden: bool = False

    def sum_p(self) -> Fraction:
        """The expected kept copies, sum(counts[j] * p[j]), as ints per denominator."""
        by_den: dict[int, int] = {}
        for count, pe in zip(self.counts, self.p):
            by_den[pe.denominator] = by_den.get(pe.denominator, 0) + count * pe.numerator
        return denominator_sum(by_den)

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
    assignment: BalanceState,
    epsilon: float,
    d: int = 1,
    rho_override=None,
) -> SamplingPlan:
    """p = min(1, rho/kappa) per edge j of the balanced hypergraph, which
    stands for assignment.counts[j] copies, where kappa is the weakest clique
    slot strength of the edge's group.  `assignment` is `run_balance`'s final
    state, and kappa is read once per group with `kappa_by_group`.  All edges
    of a group share one p object."""
    check_epsilon(epsilon)
    check_d(d)
    h = assignment.hypergraph
    rho, overridden = plan_rho(h.n, epsilon, assignment.gamma, d, rho_override)
    one, rn, rd = Fraction(1), rho.numerator, rho.denominator
    per_group = {}
    for key, kappa in assignment.kappa_by_group().items():
        # min(1, rho/kappa) by an int compare; kappa = 0 fails as rho / kappa does
        num, den = rn * kappa.denominator, rd * kappa.numerator
        per_group[key] = one if num >= den > 0 else Fraction(num, den) if den else rho / kappa
    p = tuple(per_group[e.vertices] for e in h.edges)
    return SamplingPlan(epsilon, assignment.gamma, d, rho, h.n, assignment.counts, p,
                        overridden)


def sample_sparsifier(h: WeightedHypergraph, plan: SamplingPlan, seed: int) -> SparsifierResult:
    """Edge j of h stands for plan.counts[j] copies of itself, each kept with
    probability exactly p = plan.p[j]; its k kept copies become one edge of
    weight k * w / p, one Fraction from the ints of w and p, and an edge
    with none is dropped.  Identical (hypergraph, plan, seed) gives
    identical output.

    At p = a/D < 1 a copy is kept when its uniform U is below p, read one
    binary digit at a time (Knuth-Yao) for the edge's u undecided copies at
    once: `getrandbits(u)` holds the next bit of each, against p's next digit
    by long division.  Edges draw in edge order; p = 1 draws nothing."""
    if not h.m == len(plan.p) == len(plan.counts):
        raise ValueError("plan does not match the hypergraph edge count")
    getrandbits = random.Random(seed).getrandbits
    kept: list[HyperEdge] = []
    origin: list[int] = []
    for j, (e, count, pe) in enumerate(zip(h.edges, plan.counts, plan.p)):
        num, den = pe.numerator, pe.denominator
        if num >= den:  # p >= 1; checked, as a caller's plan may hold a count of 0
            kept.append(HyperEdge(e.vertices, count * e.weight))
            origin.append(j)
            continue
        k, u, r = 0, count, num  # kept and undecided copies, remainder of p
        while u and r:  # r = 0: p's later digits are 0, so the rest have U >= p
            r <<= 1
            ones = getrandbits(u).bit_count()
            if r >= den:  # p's digit is 1: the copies with a 0 are below p
                r, k, u = r - den, k + u - ones, ones
            else:  # p's digit is 0: the copies with a 1 are above p
                u -= ones
        if k:  # then 0 < p < 1, so the weight is positive
            kept.append(HyperEdge.trusted(e.vertices, Fraction(
                k * e.weight.numerator * den, e.weight.denominator * num)))
            origin.append(j)
    out = WeightedHypergraph.trusted(h.n, tuple(kept))
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


def copy_counts(h: WeightedHypergraph, epsilon: float) -> tuple[Fraction, list[int]]:
    """The scale that lifts the minimum weight of h to 3/eps, and each
    edge's unit-copy count floor(scale * w).

    Rounding loses less than one copy per edge against a scaled weight of at
    least 3/eps, so the copies are a (1 +- eps/3) proxy for the input.
    """
    if h.m == 0:
        return Fraction(1), []
    eps = as_weight(epsilon)
    w_min = min_weight(e.weight for e in h.edges)
    scale = (3 / eps) / w_min
    # floor(scale * w) on integers: both terms are positive
    sn, sd = scale.numerator, scale.denominator
    counts = [sn * e.weight.numerator // (sd * e.weight.denominator) for e in h.edges]
    return scale, counts


def reduce_weighted(h: WeightedHypergraph) -> WeightedHypergraph:
    """Each edge of h at unit weight, in edge order: the unit copy that
    `run_balance(..., counts=counts)` reads counts[j] times for edge j."""
    one = Fraction(1)
    return WeightedHypergraph.trusted(h.n, tuple(
        e if e.weight == 1 else HyperEdge.trusted(e.vertices, one) for e in h.edges))


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
    weight 1/scale.  The k kept copies of edge j become one edge of weight
    k / (p * scale); edges with no kept copy are dropped."""
    notes = {"rng": RNG_ID, **notes}
    # checked before the empty return, so a bad rho raises on every input
    rho, overridden = plan_rho(h.n, epsilon, gamma, d, rho_override)
    if h.m == 0:
        return SparsifierResult(h, None, seed, 0, 0, Fraction(0), (), notes)
    copies = sum(counts)
    # Every copy spreads weight 1 over its clique, so no strength exceeds the
    # total copy weight m' = copies: rho >= m' makes p = 1 on every copy, and
    # nothing needs expanding, balancing or drawing.
    if rho >= copies:
        # edge j keeps all counts[j] copies: weight counts[j] / scale, one
        # Fraction per distinct count
        sn, sd = scale.numerator, scale.denominator
        per_count = {c: Fraction(c * sd, sn) for c in set(counts)}
        out = WeightedHypergraph.trusted(h.n, tuple(
            HyperEdge.trusted(e.vertices, per_count[c]) for e, c in zip(h.edges, counts)))
        plan = SamplingPlan(epsilon, gamma, d, rho, h.n, tuple(counts),
                            (Fraction(1),) * h.m, overridden)
        notes["balance_iterations"] = 0
        return SparsifierResult(out, plan, seed, h.m, out.m, Fraction(copies),
                                tuple(range(h.m)), notes)
    # one copy per edge (an unweighted input) costs no more than the edges
    if copies > max(COPY_LIMIT, h.m):
        raise ValueError(
            f"sampling needs {copies} unit copies at rho {rho}, over the limit {COPY_LIMIT} "
            "for balancing and drawing; a rho of at least the copy count keeps every copy")
    assignment = run_balance(reduce_weighted(h), gamma, counts=counts)
    plan = make_plan(assignment, epsilon, d, rho_override)
    copy_weight = 1 / scale
    sample = sample_sparsifier(WeightedHypergraph.trusted(h.n, tuple(
        HyperEdge.trusted(e.vertices, copy_weight) for e in h.edges)), plan, seed)
    # p <= rho/kappa and sum(1/kappa) <= gamma (n-1) on a balanced assignment
    if sample.sum_p > plan.size_budget():
        raise SamplingError(f"expected size {sample.sum_p} exceeds rho*gamma*(n-1) = "
                            f"{plan.size_budget()}")
    notes["balance_iterations"] = assignment.iterations
    return SparsifierResult(sample.hypergraph, plan, seed, h.m, sample.m_out, sample.sum_p,
                            sample.origin, notes)


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
) -> SparsifierResult:
    """Weighted entry point: round to unit copies, sample those at eps/3,
    and fold the kept copies of each input edge back together with the
    rescaling undone.  The two eps/3 stages compose to within (1 +- eps)."""
    check_epsilon(epsilon)
    check_gamma(gamma)
    check_d(d)
    scale, counts = copy_counts(h, epsilon)
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
