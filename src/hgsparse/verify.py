"""Brute-force quality checks: exhaustive cut comparison and plan audits.

Everything here recomputes from first principles: cut weights by direct
enumeration, component structure from the weights actually stored on an
assignment.  Errors are exact rationals; the only float is the infinity
reported when a sparsifier invents weight on a cut the input does not have.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

from .balance import BalancedAssignment
from .graph import UnionFind
from .hypergraph import WeightedHypergraph
from .seeds import child_seed
from .sparsify import SamplingPlan, sparsify_unweighted, sparsify_weighted

EXHAUSTIVE_LIMIT = 20


@dataclass(frozen=True)
class CutRecord:
    """One compared cut; cut_id is the bitmask of the side containing vertex 1."""

    cut_id: int
    true_w: Fraction
    hat_w: Fraction
    rel_err: object  # Fraction, or math.inf when true_w == 0 < hat_w


@dataclass(frozen=True)
class QualityReport:
    n: int
    m_in: int
    m_out: int
    records: tuple[CutRecord, ...]
    cuts_checked: int
    exhaustive: bool
    max_rel_error: object
    mean_rel_error: object
    epsilon_target: float
    passed: bool
    seed: Optional[int] = None
    rho: Optional[Fraction] = None


def _canonical_cuts_exhaustive(n: int):
    # every unordered 2-cut exactly once: side containing vertex 1, proper
    full = (1 << n) - 1
    for mask in range(1, full, 2):
        yield mask


def _canonical_cuts_sampled(n: int, count: int, seed: int):
    full = (1 << n) - 1
    rng = random.Random(child_seed(seed, "cut-sample"))
    for _ in range(count):
        mask = rng.randrange(1, full)
        if not mask & 1:
            mask ^= full
        yield mask


def all_cuts_report(
    h: WeightedHypergraph,
    h_hat: WeightedHypergraph,
    epsilon_target: float,
    exhaustive_limit: int = EXHAUSTIVE_LIMIT,
    sample_count: Optional[int] = None,
    record_cap: Optional[int] = None,
    seed: Optional[int] = None,
    rho: Optional[Fraction] = None,
) -> QualityReport:
    """Compare every cut (or a uniform sample of cuts above the exhaustive
    limit) of h_hat against h.

    Relative error per cut is |hat - true| / true, exactly; a cut where both
    weights vanish counts as error 0, and a zero input cut carrying sparsifier
    weight is an unconditional failure (infinite error).  Enumeration streams
    over cut masks, nothing is materialized.
    """
    if h.n != h_hat.n:
        raise ValueError("hypergraphs disagree on vertex count")
    if not epsilon_target >= 0:  # also rejects NaN
        raise ValueError("epsilon target must be nonnegative")
    n = h.n
    if n <= exhaustive_limit:
        cuts = _canonical_cuts_exhaustive(n)
        exhaustive = True
    else:
        if sample_count is None or sample_count < 1:
            raise ValueError(
                f"n={n} is over the exhaustive limit {exhaustive_limit}; "
                "supply a positive cut sample count"
            )
        cuts = _canonical_cuts_sampled(n, sample_count, seed or 0)
        exhaustive = False

    true_pairs = [(e.mask(), e.weight) for e in h.edges]
    hat_pairs = [(e.mask(), e.weight) for e in h_hat.edges]
    full = (1 << n) - 1
    zero = Fraction(0)

    records: list[CutRecord] = []
    checked = 0
    max_err = zero
    err_sum = zero
    saw_inf = False
    for mask in cuts:
        inv = full ^ mask
        tw = zero
        for em, w in true_pairs:
            if em & mask and em & inv:
                tw += w
        hw = zero
        for em, w in hat_pairs:
            if em & mask and em & inv:
                hw += w
        if tw == 0:
            err = zero if hw == 0 else math.inf
        else:
            err = abs(hw - tw) / tw
        checked += 1
        if err == math.inf:
            saw_inf = True
        elif err > max_err:
            max_err = err
        err_sum += 0 if err == math.inf else err
        if record_cap is None or len(records) < record_cap:
            records.append(CutRecord(mask, tw, hw, err))

    if saw_inf:
        max_err = math.inf
        mean = math.inf
    else:
        mean = err_sum / checked if checked else zero
    passed = (not saw_inf) and max_err <= epsilon_target
    return QualityReport(
        n=n,
        m_in=h.m,
        m_out=h_hat.m,
        records=tuple(records),
        cuts_checked=checked,
        exhaustive=exhaustive,
        max_rel_error=max_err,
        mean_rel_error=mean,
        epsilon_target=epsilon_target,
        passed=passed,
        seed=seed,
        rho=rho,
    )


def _err_str(e) -> str:
    return "inf" if e == math.inf else str(e)


def report_text(report: QualityReport) -> str:
    """Plain key=value block, one line each, fixed order.

    max_rel_error is printed exactly.  The exact mean over all cuts can
    have a denominator past Python's int-to-str digit limit, so
    mean_rel_error is rounded to 17 significant digits; in decimal, not
    float, so a mean above the float range still prints.
    """
    mean = report.mean_rel_error
    if mean != math.inf:
        with localcontext() as ctx:
            ctx.prec = 17
            mean = f"{Decimal(mean.numerator) / Decimal(mean.denominator):.17g}"
    lines = [
        f"n={report.n}",
        f"m_in={report.m_in}",
        f"m_out={report.m_out}",
        f"cuts_checked={report.cuts_checked}",
        f"exhaustive={int(report.exhaustive)}",
        f"max_rel_error={_err_str(report.max_rel_error)}",
        f"mean_rel_error={mean}",
        f"epsilon_target={report.epsilon_target!r}",
        f"pass={int(report.passed)}",
    ]
    if report.seed is not None:
        lines.append(f"seed={report.seed}")
    if report.rho is not None:
        lines.append(f"rho={report.rho}")
    return "\n".join(lines) + "\n"


def report_csv(report: QualityReport) -> str:
    lines = ["cut_id,true_w,hat_w,rel_err"]
    for r in report.records:
        lines.append(f"{r.cut_id},{r.true_w},{r.hat_w},{_err_str(r.rel_err)}")
    return "\n".join(lines) + "\n"


def check_same_component(assignment: BalancedAssignment, plan: SamplingPlan) -> bool:
    """For every threshold rho * 2^i with survivors, the strong pairs must
    connect each surviving copy internally.

    Survivors at level i are copies with kappa >= rho * 2^i; the pair graph
    keeps positively weighted slots of strength >= the same threshold.  Each
    surviving copy's vertex set has to land inside one component of that
    graph, else sampling could disconnect what the plan treats as strongly
    connected.
    """
    h = assignment.hypergraph
    if h.m != len(plan.kappa):
        raise ValueError("plan does not match the assignment's hypergraph")
    table = assignment.strengths
    positive = [p for p, u in assignment.collapsed_units().items() if u > 0]
    kappa_top = max(plan.kappa, default=Fraction(0))
    i = 0
    while True:
        threshold = plan.rho * (1 << i)
        if threshold > kappa_top:
            return True  # E_{>=i} empty here and for every larger i
        survivors = [c for c in range(h.m) if plan.kappa[c] >= threshold]
        if not survivors:
            return True
        uf = UnionFind(range(1, h.n + 1),
                       (p for p in positive if table.strength(*p) >= threshold))
        for c in survivors:
            verts = h.edges[c].vertices
            root = uf.find(verts[0])
            if any(uf.find(v) != root for v in verts[1:]):
                return False
        i += 1


def expected_size_check(plan: SamplingPlan) -> bool:
    """Exact rational check that the expected kept-copy count stays under
    rho * gamma * (n - 1)."""
    return plan.sum_p() <= plan.size_budget()


@dataclass(frozen=True)
class ConcentrationSummary:
    failure_count: int
    reports: tuple[QualityReport, ...]


def concentration_trial(
    h: WeightedHypergraph,
    epsilon: float,
    d: int,
    trials: int,
    seed: int,
    gamma: int = 2,
    rho_override=None,
) -> ConcentrationSummary:
    """Sparsify end to end `trials` times under derived seeds and count the
    runs whose worst cut error exceeds 2 * epsilon.

    With the theoretical rho the per-run failure probability is O(n^-d), so
    a desk-scale batch should come back clean; shrinking rho via the
    override makes failures visible on purpose.
    """
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    reports: list[QualityReport] = []
    failures = 0
    target = 2 * epsilon
    unweighted = h.is_unweighted()
    for t in range(trials):
        run_seed = child_seed(seed, "trial", t)
        if unweighted:
            res = sparsify_unweighted(
                h, epsilon, gamma=gamma, d=d, seed=run_seed, rho_override=rho_override
            )
        else:
            res = sparsify_weighted(
                h, epsilon, d=d, seed=run_seed, gamma=gamma, rho_override=rho_override
            )
        rep = all_cuts_report(
            h, res.hypergraph, target,
            seed=run_seed,
            rho=res.plan.rho if res.plan is not None else None,
        )
        reports.append(rep)
        if not rep.passed:
            failures += 1
    return ConcentrationSummary(failures, tuple(reports))
