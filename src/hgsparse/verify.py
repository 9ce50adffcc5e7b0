"""Brute-force quality checks: every cut of a sparsifier against its input.

Cut weights are recomputed by direct enumeration, over all cuts up to an
exhaustive limit and over a seeded uniform sample above it.  The weights of a
cut's crossing edges are summed by `weight_sum`, as ints normalized once.
Errors are exact rationals, and the mean adds them pairwise, since they
rarely share a denominator; the only float is the infinity reported when a
sparsifier invents weight on a cut the input does not have.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

from .hypergraph import WeightedHypergraph, weight_sum
from .seeds import child_seed

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
    full = (1 << n) - 1
    if n <= exhaustive_limit:
        # every unordered 2-cut exactly once: side containing vertex 1, proper
        cuts = range(1, full, 2)
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
    zero = Fraction(0)

    records: list[CutRecord] = []
    checked = 0
    max_err = zero
    # (terms, sum) of partial sums of the finite errors, terms strictly
    # decreasing: equal-sized partials merge, so operands grow together and
    # no running denominator grows with every cut
    partials: list[tuple[int, Fraction]] = []
    saw_inf = False
    for mask in cuts:
        inv = full ^ mask
        tw = weight_sum(w for em, w in true_pairs if em & mask and em & inv)
        hw = weight_sum(w for em, w in hat_pairs if em & mask and em & inv)
        if tw == 0:
            err = zero if hw == 0 else math.inf
        else:
            err = abs(hw - tw) / tw
        checked += 1
        if err == math.inf:
            saw_inf = True
        else:
            if err > max_err:
                max_err = err
            terms, total = 1, err
            while partials and partials[-1][0] == terms:
                terms, total = 2 * terms, partials.pop()[1] + total
            partials.append((terms, total))
        if record_cap is None or len(records) < record_cap:
            records.append(CutRecord(mask, tw, hw, err))

    if saw_inf:
        max_err = math.inf
        mean = math.inf
    else:
        mean = sum((t for _, t in partials), zero) / checked if checked else zero
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
    return "\n".join(lines) + "\n"


def report_csv(report: QualityReport) -> str:
    lines = ["cut_id,true_w,hat_w,rel_err"]
    for r in report.records:
        lines.append(f"{r.cut_id},{r.true_w},{r.hat_w},{_err_str(r.rel_err)}")
    return "\n".join(lines) + "\n"
