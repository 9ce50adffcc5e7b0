"""Strength-proportional sampling of hyperedges.

Given a gamma-balanced clique assignment, each copy is kept independently
with probability min(1, rho/kappa_e), where kappa_e is the weakest clique
slot strength of the copy and rho grows like gamma^2 log(n)/eps^2.  Kept
copies are reweighted by 1/p so every cut is preserved in expectation; the
concentration constant 0.38 in rho comes from the Chernoff bound used in
the analysis.  Weighted inputs are first rescaled and expanded into unit
copies so the unweighted sampler applies.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .balance import BalancedAssignment, check_gamma, check_unweighted, run_balance
from .hypergraph import HyperEdge, WeightedHypergraph, as_weight, serialize_hypergraph
from .seeds import RNG_ID

CHERNOFF_CONSTANT = 0.38
RHO_FACTOR = 8


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
    value = RHO_FACTOR * (d + 6) * gamma * gamma * math.log(n) / (CHERNOFF_CONSTANT * epsilon * epsilon)
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
    """Per-copy strengths kappa and keep probabilities p = min(1, rho/kappa).

    When rho is at least the copy count m', balancing is skipped: no strength
    can exceed the total copy weight m', so p = 1 on every copy, and kappa
    holds that bound m' rather than each copy's strength.
    """

    epsilon: float
    gamma: int
    d: int
    rho: Fraction
    n: int
    kappa: tuple[Fraction, ...]
    p: tuple[Fraction, ...]
    overridden: bool = False

    def sum_p(self) -> Fraction:
        # p takes one value per group of parallel copies; sum by multiplicity
        return sum((v * c for v, c in Counter(self.p).items()), Fraction(0))

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
    check_epsilon(epsilon)
    check_d(d)
    n = assignment.hypergraph.n
    rho, overridden = plan_rho(n, epsilon, assignment.gamma, d, rho_override)
    # kappa is shared by all copies of a group, so divide once per group
    one = Fraction(1)
    per_group = assignment.kappa_by_group()
    p_group = {key: min(one, rho / k) for key, k in per_group.items()}
    m = assignment.hypergraph.m
    kappa = [Fraction(0)] * m
    p = [Fraction(0)] * m
    for g in assignment.groups:
        gk, gp = per_group[g.key], p_group[g.key]
        for c in g.copies:
            kappa[c] = gk
            p[c] = gp
    return SamplingPlan(epsilon, assignment.gamma, d, rho, n, tuple(kappa), tuple(p), overridden)


def sample_sparsifier(h: WeightedHypergraph, plan: SamplingPlan, seed: int) -> SparsifierResult:
    """One independent draw per copy, in edge order; kept copies get weight
    w/p.  Identical (hypergraph, plan, seed) gives identical output."""
    if h.m != len(plan.p):
        raise ValueError("plan does not match the hypergraph edge count")
    rng = random.Random(seed)
    kept: list[HyperEdge] = []
    origin: list[int] = []
    certain = [pe >= 1 for pe in plan.p]
    for idx, e in enumerate(h.edges):
        u = rng.random()
        if certain[idx]:
            kept.append(e)
            origin.append(idx)
        elif u < plan.p[idx]:
            kept.append(HyperEdge(e.vertices, e.weight / plan.p[idx]))
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
    """The scale that lifts the minimum weight of a nonempty h to 3/eps,
    and each edge's unit-copy count floor(scale * w).  Raises when the
    counts sum past copy_cap."""
    eps = as_weight(epsilon)
    w_min = min(e.weight for e in h.edges)
    scale = (3 / eps) / w_min
    counts = [int(scale * e.weight) for e in h.edges]
    total = sum(counts)
    if total > copy_cap:
        raise ValueError(
            f"reduction needs {total} copies, over the cap {copy_cap}; "
            "the weight spread is too large for direct reduction, use the bucketed pipeline"
        )
    return scale, counts


def reduce_weighted(
    h: WeightedHypergraph, epsilon: float, copy_cap: int = 10**6
) -> tuple[WeightedHypergraph, Fraction, tuple[int, ...]]:
    """Rescale so the minimum weight is 3/eps, then expand each edge into
    floor(scaled weight) unit copies.

    Rounding loses less than one copy per edge against a scaled weight of at
    least 3/eps, so the expansion is a (1 +- eps/3) proxy for the input.
    Returns (unweighted hypergraph, scale, copy -> input edge index).
    """
    check_epsilon(epsilon)
    if h.m == 0:
        return WeightedHypergraph(h.n, ()), Fraction(1), ()
    scale, counts = copy_counts(h, epsilon, copy_cap)
    edges: list[HyperEdge] = []
    origin: list[int] = []
    for j, (e, c) in enumerate(zip(h.edges, counts)):
        unit = HyperEdge(e.vertices, Fraction(1))
        edges.extend([unit] * c)
        origin.extend([j] * c)
    return WeightedHypergraph(h.n, tuple(edges)), scale, tuple(origin)


def _keep_every_edge(
    h: WeightedHypergraph,
    copies: int,
    epsilon: float,
    gamma: int,
    d: int,
    seed: int,
    rho: Fraction,
    overridden: bool,
    notes: Mapping[str, object],
) -> SparsifierResult:
    """The sparsifier when rho >= copies, the unit-copy count behind h.

    Every copy spreads weight 1 over its clique, so no strength exceeds the
    total copy weight `copies`, and p = min(1, rho/kappa) is 1 on every
    copy: h is its own sparsifier, and nothing needs balancing or drawing.
    """
    bound = Fraction(copies)
    plan = SamplingPlan(epsilon, gamma, d, rho, h.n, (bound,) * copies,
                        (Fraction(1),) * copies, overridden)
    return SparsifierResult(h, plan, seed, h.m, h.m, bound, tuple(range(h.m)),
                            {"rng": RNG_ID, "balance_iterations": 0, **notes})


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
    if h.m == 0:
        return SparsifierResult(h, None, seed, 0, 0, Fraction(0), (), {"rng": RNG_ID})
    check_unweighted(h)
    rho, overridden = plan_rho(h.n, epsilon, gamma, d, rho_override)
    if rho >= h.m:
        return _keep_every_edge(h, h.m, epsilon, gamma, d, seed, rho, overridden, {})
    assignment = run_balance(h, gamma)
    plan = make_plan(assignment, epsilon, d, rho_override)
    result = sample_sparsifier(h, plan, seed)
    notes = dict(result.notes)
    notes["balance_iterations"] = assignment.iterations
    return SparsifierResult(
        result.hypergraph, plan, seed, result.m_in, result.m_out,
        result.sum_p, result.origin, notes,
    )


def sparsify_weighted(
    h: WeightedHypergraph,
    epsilon: float,
    d: int = 1,
    seed: int = 0,
    gamma: int = 2,
    rho_override=None,
    copy_cap: int = 10**6,
) -> SparsifierResult:
    """Weighted entry point: reduce to unit copies, sparsify those at eps/3,
    then fold sampled copies of the same input edge back together and undo
    the rescaling.  The two eps/3 stages compose to within (1 +- eps)."""
    check_epsilon(epsilon)
    check_gamma(gamma)
    check_d(d)
    if h.m > 0:
        scale, per_edge = copy_counts(h, epsilon, copy_cap)
        copies = sum(per_edge)
        rho, overridden = plan_rho(h.n, epsilon / 3, gamma, d, rho_override)
        if rho >= copies:
            rounded = WeightedHypergraph(h.n, tuple(
                HyperEdge(e.vertices, Fraction(c) / scale) for e, c in zip(h.edges, per_edge)))
            return _keep_every_edge(rounded, copies, epsilon / 3, gamma, d, seed, rho,
                                   overridden, {"scale": scale, "reduced_copies": copies})
    reduced, scale, origin = reduce_weighted(h, epsilon, copy_cap)
    inner = sparsify_unweighted(reduced, epsilon / 3, gamma, d, seed, rho_override)
    counts: dict[int, int] = {}
    p_of: dict[int, Fraction] = {}
    for copy_idx in inner.origin:
        j = origin[copy_idx]
        counts[j] = counts.get(j, 0) + 1
        p_of[j] = inner.plan.p[copy_idx]
    kept_edges = []
    kept_origin = []
    for j in sorted(counts):
        w = Fraction(counts[j]) / (p_of[j] * scale)
        kept_edges.append(HyperEdge(h.edges[j].vertices, w))
        kept_origin.append(j)
    notes = dict(inner.notes)
    notes["scale"] = scale
    notes["reduced_copies"] = reduced.m
    return SparsifierResult(
        hypergraph=WeightedHypergraph(h.n, tuple(kept_edges)),
        plan=inner.plan,
        seed=seed,
        m_in=h.m,
        m_out=len(kept_edges),
        sum_p=inner.sum_p,
        origin=tuple(kept_origin),
        notes=notes,
    )


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
