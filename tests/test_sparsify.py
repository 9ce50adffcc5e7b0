"""Sampling plans, the sampler, and the weighted reduction."""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BALANCE_INSTANCES
from hgsparse import sparsify
from hgsparse import (
    Cut,
    HyperEdge,
    SamplingError,
    SamplingPlan,
    SparsifierResult,
    WeightedHypergraph,
    copy_counts,
    cut_weight,
    gen_footnote_graph,
    gen_random,
    gen_sunflower,
    make_plan,
    parse_hypergraph,
    reduce_weighted,
    result_metadata,
    run_balance,
    sample_sparsifier,
    save_result,
    sparsify_unweighted,
    sparsify_weighted,
    theoretical_rho,
)
from oracles import mask_of


def edges_of(h):
    return [(e.vertices, e.weight) for e in h.edges]


class StubRandom:
    """Stands in for `random.Random`: `randrange(k)` records k and returns
    the next of the given outcomes."""

    def __init__(self, outcomes):
        self.outcomes = iter(outcomes)
        self.calls = []

    def randrange(self, k):
        self.calls.append(k)
        return next(self.outcomes)


class TestTheoreticalRho:
    def test_formula_value(self):
        rho = theoretical_rho(16, 1.0, 2, 1)
        independent = 8 * (1 + 6) * 2 * 2 * math.log(16) / (0.38 * 1.0 * 1.0)
        assert abs(float(rho) - independent) < 1e-9
        assert abs(float(rho) - 1634.3) < 0.5

    def test_scaling(self):
        assert theoretical_rho(10, 0.5, 2, 1) == 4 * theoretical_rho(10, 1.0, 2, 1)
        assert theoretical_rho(10, 1.0, 4, 1) == 4 * theoretical_rho(10, 1.0, 2, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            theoretical_rho(0, 0.5, 2, 1)

    @pytest.mark.parametrize("epsilon,gamma", [(1e-200, 2), (1e-160, 2), (0.5, 10**200)],
                             ids=["eps_squared_underflows", "rho_overflows", "gamma_overflows"])
    def test_not_finite(self, epsilon, gamma):
        with pytest.raises(ValueError, match="rho is not a finite float"):
            theoretical_rho(5, epsilon, gamma, 1)

    def test_tiny_epsilon_in_sampler(self):
        with pytest.raises(ValueError, match="rho is not a finite float"):
            sparsify_unweighted(gen_sunflower(3), 1e-160)


class TestMakePlan:
    def test_p_one_when_kappa_small(self):
        a = run_balance(gen_sunflower(4))
        plan = make_plan(a, 0.5, 1)
        assert all(p == 1 for p in plan.p)
        assert not plan.overridden

    def test_override(self):
        a = run_balance(WeightedHypergraph(3, (HyperEdge((1, 2, 3)),)))
        plan = make_plan(a, 0.5, 1, rho_override=Fraction(1, 3))
        # kappa = 2/3, so p = (1/3)/(2/3) = 1/2
        assert plan.p == (Fraction(1, 2),)
        assert plan.overridden and plan.rho == Fraction(1, 3)

    def test_validation(self):
        a = run_balance(gen_sunflower(2))
        with pytest.raises(ValueError):
            make_plan(a, 0.0, 1)
        with pytest.raises(ValueError):
            make_plan(a, 1.5, 1)
        with pytest.raises(ValueError):
            make_plan(a, 0.5, -1)
        with pytest.raises(ValueError):
            make_plan(a, 0.5, 1, rho_override=0)

    def test_size_budget_inequality(self):
        for seed in range(6):
            h = gen_random(7, 15, 4, seed=seed)
            a = run_balance(h)
            for rho in (None, Fraction(1, 2), Fraction(3)):
                plan = make_plan(a, 0.5, 1, rho_override=rho)
                assert plan.sum_p() <= plan.size_budget()


class TestSampleSparsifier:
    def test_p_one_identity(self):
        h = gen_sunflower(5)
        plan = make_plan(run_balance(h), 0.5, 1)
        res = sample_sparsifier(h, plan, seed=9)
        assert edges_of(res.hypergraph) == edges_of(h)
        assert res.origin == tuple(range(h.m))
        assert res.sum_p == plan.sum_p()

    def test_deterministic_in_seed(self):
        h = WeightedHypergraph(3, (HyperEdge((1, 2, 3)),) * 8)
        plan = make_plan(run_balance(h), 0.5, 1, rho_override=Fraction(2))
        assert 0 < plan.p[0] < 1
        a = sample_sparsifier(h, plan, seed=3)
        b = sample_sparsifier(h, plan, seed=3)
        assert edges_of(a.hypergraph) == edges_of(b.hypergraph)
        outs = {sample_sparsifier(h, plan, seed=s).m_out for s in range(30)}
        assert len(outs) > 1  # seeds actually matter

    def test_kept_weight_is_inverse_p(self):
        h = WeightedHypergraph(3, (HyperEdge((1, 2, 3)),) * 8)
        plan = make_plan(run_balance(h), 0.5, 1, rho_override=Fraction(2))
        res = sample_sparsifier(h, plan, seed=1)
        for idx, e in zip(res.origin, res.hypergraph.edges):
            assert e.weight * plan.p[idx] == h.edges[idx].weight

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(2, 7), Fraction(2**60 + 1, 2**61 + 3)],
                             ids=["one_third", "two_sevenths", "denominator_past_2_53"])
    def test_each_draw_outcome_keeps_below_the_numerator(self, monkeypatch, p):
        # randrange(den) is uniform over 0..den-1, and exactly the outcomes
        # below the numerator keep the copy, so it is kept with probability
        # exactly p; a denominator past 2^53 is checked at its boundary
        if p.denominator < 100:
            outcomes = range(p.denominator)
        else:
            outcomes = (0, p.numerator - 1, p.numerator, p.denominator - 1)
        stub = StubRandom(outcomes)
        monkeypatch.setattr(sparsify, "random", SimpleNamespace(Random=lambda seed: stub))
        h = WeightedHypergraph(2, (HyperEdge((1, 2), Fraction(3, 2)),))
        plan = SamplingPlan(0.5, 2, 1, Fraction(1), 2, (p,))
        kept = [u for u in outcomes if sample_sparsifier(h, plan, seed=0).m_out]
        assert stub.calls == [p.denominator] * len(outcomes)
        assert kept == [u for u in outcomes if u < p.numerator]
        if p.denominator < 100:
            assert len(kept) == p.numerator

    def test_one_draw_per_copy_below_one(self, monkeypatch):
        # one randrange per p < 1 copy, in copy order, each with its own
        # denominator; p = 1 copies draw nothing; kept weights are exactly w/p
        ps = (Fraction(1, 3), Fraction(1), Fraction(2, 7), Fraction(1), Fraction(5, 11),
              Fraction(1, 3))
        stub = StubRandom(itertools.repeat(0))  # every copy is kept
        monkeypatch.setattr(sparsify, "random", SimpleNamespace(Random=lambda seed: stub))
        h = WeightedHypergraph(3, tuple(HyperEdge((1, 2, 3), Fraction(k, 2)) for k in range(1, 7)))
        res = sample_sparsifier(h, SamplingPlan(0.5, 2, 1, Fraction(1), 3, ps), seed=0)
        assert stub.calls == [3, 7, 11, 3]
        assert res.origin == tuple(range(6))
        assert [e.weight for e in res.hypergraph.edges] == [
            e.weight / pe for e, pe in zip(h.edges, ps)]

    @given(st.lists(st.tuples(st.fractions(Fraction(1, 10**20), 1), st.integers(1, 6),
                              st.fractions(Fraction(1, 4), 4)), min_size=1, max_size=8),
           st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_copy_randrange_draws(self, runs, seed):
        # runs of copies sharing one p object, as make_plan builds them, and
        # p values with denominators far past 2^53
        edges, p = [], []
        for pe, count, w in runs:
            edges += [HyperEdge((1, 2), w)] * count
            p += [pe] * count
        h = WeightedHypergraph(2, tuple(edges))
        plan = SamplingPlan(0.5, 2, 1, Fraction(1), 2, tuple(p))
        rng = random.Random(seed)
        kept = [(idx, e if pe >= 1 else HyperEdge(e.vertices, e.weight / pe))
                for idx, (e, pe) in enumerate(zip(edges, p))
                if pe >= 1 or rng.randrange(pe.denominator) < pe.numerator]
        res = sample_sparsifier(h, plan, seed)
        assert list(zip(res.origin, res.hypergraph.edges)) == kept
        assert res.sum_p == plan.sum_p() == sum(p)

    def test_plan_mismatch(self):
        h = gen_sunflower(2)
        plan = make_plan(run_balance(h), 0.5, 1)
        with pytest.raises(ValueError):
            sample_sparsifier(gen_sunflower(3), plan, seed=0)

    def test_unbiased_fixed_cut(self):
        # 6 parallel pairs, p forced to 1/2: kept weight doubles, so the cut
        # estimate is unbiased with per-edge variance 1
        h = WeightedHypergraph(2, (HyperEdge((1, 2)),) * 6)
        plan = make_plan(run_balance(h), 0.5, 1, rho_override=Fraction(3))
        assert set(plan.p) == {Fraction(1, 2)}
        cut = Cut(2, mask_of([1]))
        true = cut_weight(h, cut)
        n_trials = 2000
        total = Fraction(0)
        sq = Fraction(0)
        for s in range(n_trials):
            w = cut_weight(sample_sparsifier(h, plan, seed=s).hypergraph, cut)
            total += w
            sq += w * w
        mean = total / n_trials
        var = sq / n_trials - mean * mean
        se = math.sqrt(float(var) / n_trials)
        assert abs(float(mean - true)) <= 3 * se + 1e-12


class TestReduceWeighted:
    def test_single_edge(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 7),))
        scale, counts = copy_counts(h, 1.0)
        reduced, origin = reduce_weighted(h, counts)
        assert scale == Fraction(3, 7)
        assert reduced.m == 3 and origin == (0, 0, 0)
        assert reduced.is_unweighted()

    def test_equal_weights_equal_copies(self):
        h = WeightedHypergraph(3, (HyperEdge((1, 2), 5), HyperEdge((2, 3), 5)))
        reduced, origin = reduce_weighted(h, copy_counts(h, 0.5)[1])
        assert origin.count(0) == origin.count(1) == 6

    def test_copy_count_within_band(self):
        for seed in range(6):
            h = gen_random(6, 8, 3, weighted=True, w_max=40, seed=seed)
            eps = 0.5
            scale, counts = copy_counts(h, eps)
            reduced, origin = reduce_weighted(h, counts)
            eps_f = Fraction(1, 2)
            for j, e in enumerate(h.edges):
                c = origin.count(j)
                target = scale * e.weight
                assert (1 - eps_f / 3) * target <= c <= (1 + eps_f / 3) * target

    def test_cap_error_mentions_pipeline(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 10**6), HyperEdge((1, 2), 1)))
        with pytest.raises(ValueError, match="bucketed pipeline"):
            copy_counts(h, 1.0, copy_cap=100)

    def test_empty(self):
        h = WeightedHypergraph(3, ())
        assert copy_counts(h, 0.5) == (1, [])
        reduced, origin = reduce_weighted(h, [])
        assert reduced.m == 0 and origin == ()


class TestSparsifyUnweighted:
    def test_sunflower_verbatim(self):
        h = gen_sunflower(8)
        res = sparsify_unweighted(h, 0.5, seed=4)
        assert edges_of(res.hypergraph) == edges_of(h)
        assert all(p == 1 for p in res.plan.p)

    def test_empty(self):
        res = sparsify_unweighted(WeightedHypergraph(4, ()), 0.5)
        assert res.m_out == 0 and res.plan is None

    def test_weighted_rejected(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 2),))
        with pytest.raises(ValueError):
            sparsify_unweighted(h, 0.5)

    def test_notes_carry_balance_iterations(self):
        res = sparsify_unweighted(gen_sunflower(3), 0.5)
        assert "balance_iterations" in res.notes
        assert res.notes["rng"] == "mt19937"


@pytest.mark.parametrize("sparsify,notes", [
    (sparsify_unweighted, {"rng": "mt19937"}),
    (sparsify_weighted, {"rng": "mt19937", "scale": Fraction(1), "reduced_copies": 0}),
], ids=["unweighted", "weighted"])
def test_empty_result_pinned(sparsify, notes):
    empty = WeightedHypergraph(4, ())
    assert sparsify(empty, 0.5, seed=3) == SparsifierResult(
        empty, None, 3, 0, 0, Fraction(0), (), notes)


@pytest.mark.parametrize("sparsify", [sparsify_unweighted, sparsify_weighted])
@pytest.mark.parametrize("h", [WeightedHypergraph(3, ()), gen_sunflower(3)],
                         ids=["empty", "sunflower"])
class TestParametersChecked:
    """Bad parameters raise on every input, the empty hypergraph included."""

    def test_gamma(self, sparsify, h):
        for gamma in (1, 0, 2.0):
            with pytest.raises(ValueError, match="gamma must be an integer >= 2"):
                sparsify(h, 0.5, gamma=gamma)

    def test_d(self, sparsify, h):
        for d in (-1, 1.0):
            with pytest.raises(ValueError, match="d must be a nonnegative integer"):
                sparsify(h, 0.5, d=d)

    def test_epsilon(self, sparsify, h):
        for eps in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\]"):
                sparsify(h, eps)


class TestSparsifyWeighted:
    def test_footnote_quality(self):
        from hgsparse import all_cuts_report

        h = gen_footnote_graph(6)
        for seed in range(3):
            res = sparsify_weighted(h, 0.5, seed=seed)
            rep = all_cuts_report(h, res.hypergraph, 0.5)
            assert rep.passed, rep.max_rel_error

    def test_equal_weights_match_parallel_copies(self):
        # equal weights reduce to the same copy count per edge, which is the
        # parallel-copy unweighted instance up to the 1/scale reweighting
        h = WeightedHypergraph(3, (HyperEdge((1, 2), 2), HyperEdge((2, 3), 2)))
        res = sparsify_weighted(h, 0.5, seed=5)
        reduced, _ = reduce_weighted(h, copy_counts(h, 0.5)[1])
        inner = sparsify_unweighted(reduced, 0.5 / 3, seed=5)
        merged = {}
        for idx in inner.origin:
            j = 0 if idx < reduced.m // 2 else 1
            merged[j] = merged.get(j, 0) + 1
        assert res.m_out == len(merged)

    def test_cap_propagates(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 10**6), HyperEdge((1, 2), 1)))
        with pytest.raises(ValueError, match="copies"):
            sparsify_weighted(h, 0.5, copy_cap=1000)

    def test_merge_restores_scale(self):
        # with all p=1 the output equals the floor-rounded weights exactly
        h = WeightedHypergraph(3, (HyperEdge((1, 2), Fraction(3, 2)),
                                   HyperEdge((2, 3), Fraction(15, 4))))
        res = sparsify_weighted(h, 0.5, seed=0)
        assert res.plan is not None and all(p == 1 for p in res.plan.p)
        scale, counts = copy_counts(h, 0.5)
        reduced, origin = reduce_weighted(h, counts)
        for (verts, w), e in zip(edges_of(res.hypergraph), h.edges):
            count = sum(1 for j in origin if h.edges[j].vertices == verts)
            assert w == Fraction(count) / scale
            assert abs(w - e.weight) <= e.weight / 2


class TestSizeBudget:
    def test_inflated_plan_raises(self, inflate_p):
        h = gen_random(5, 20, 3, seed=1)
        for res in (sparsify_unweighted(h, 0.5, rho_override=1),
                    sparsify_weighted(h, 0.5, rho_override=1)):
            assert res.plan.sum_p() <= res.plan.size_budget()
        inflate_p()
        with pytest.raises(SamplingError, match="exceeds"):
            sparsify_unweighted(h, 0.5, rho_override=1)
        with pytest.raises(SamplingError, match="exceeds"):
            sparsify_weighted(h, 0.5, rho_override=1)


def slow_unweighted(h, epsilon, gamma, d, seed, rho_override):
    """sparsify_unweighted without the p = 1 shortcut."""
    assignment = run_balance(h, gamma)
    plan = make_plan(assignment, epsilon, d, rho_override)
    return sample_sparsifier(h, plan, seed), assignment


def slow_weighted(h, epsilon, gamma, d, seed, rho_override):
    """sparsify_weighted without the p = 1 shortcut: expand, balance, plan,
    sample, then fold the kept copies of each input edge."""
    scale, counts = copy_counts(h, epsilon)
    reduced, origin = reduce_weighted(h, counts)
    inner, assignment = slow_unweighted(reduced, epsilon / 3, gamma, d, seed, rho_override)
    kept = {}
    for idx in inner.origin:
        j = origin[idx]
        kept[j] = kept.get(j, 0) + Fraction(1) / inner.plan.p[idx]
    edges = tuple(HyperEdge(h.edges[j].vertices, w / scale) for j, w in sorted(kept.items()))
    return (WeightedHypergraph(h.n, edges), tuple(sorted(kept)), inner.sum_p, inner.plan,
            assignment)


def balance_runs(sparsify_fn, *args, **kwargs):
    """The result of sparsify_fn and how many times it ran the balance loop,
    which the p = 1 shortcut skips."""
    with mock.patch.object(sparsify, "run_balance", wraps=run_balance) as spy:
        res = sparsify_fn(*args, **kwargs)
    return res, spy.call_count


@st.composite
def small_hypergraphs(draw, weighted):
    n = draw(st.integers(2, 5))
    edges = []
    for _ in range(draw(st.integers(1, 4) if weighted else st.integers(2, 8))):
        verts = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=2, max_size=4))))
        w = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2))) if weighted else 1
        edges.append(HyperEdge(verts, w))
    return WeightedHypergraph(n, tuple(edges))


class TestKeepEveryEdgeShortcut:
    """rho >= m' (the unit-copy count) forces p = 1 on every copy, so both
    samplers return without balancing; the slow path is the oracle."""

    @given(small_hypergraphs(weighted=True), st.sampled_from([1.0, 0.5]),
           st.sampled_from(["theory", "m'", "m'-1"]), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_weighted_matches_slow_path(self, h, eps, which, seed):
        copies = sum(copy_counts(h, eps)[1])
        rho = {"theory": None, "m'": copies, "m'-1": copies - 1}[which]
        res, balanced = balance_runs(sparsify_weighted, h, eps, seed=seed, rho_override=rho)
        out, origin, sum_p, plan, assignment = slow_weighted(h, eps, 2, 1, seed, rho)
        assert res.hypergraph == out
        assert res.origin == origin
        assert (res.m_in, res.m_out) == (h.m, len(origin))
        assert res.sum_p == sum_p
        assert (res.plan.rho, res.plan.p) == (plan.rho, plan.p)
        assert res.notes["reduced_copies"] == copies
        assert max(assignment.kappa_by_copy()) <= copies
        fired = plan.rho >= copies
        assert fired == (which != "m'-1")
        if fired:
            assert res.notes["balance_iterations"] == 0 and balanced == 0
        else:
            assert res.notes["balance_iterations"] == assignment.iterations and balanced == 1

    @given(small_hypergraphs(weighted=False), st.sampled_from([1.0, 0.5]),
           st.sampled_from(["theory", "m", "m-1"]), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_unweighted_matches_slow_path(self, h, eps, which, seed):
        rho = {"theory": None, "m": h.m, "m-1": h.m - 1}[which]
        res, balanced = balance_runs(sparsify_unweighted, h, eps, seed=seed, rho_override=rho)
        slow, assignment = slow_unweighted(h, eps, 2, 1, seed, rho)
        assert max(assignment.kappa_by_copy()) <= h.m
        assert res.hypergraph == slow.hypergraph
        assert res.origin == slow.origin
        assert (res.m_in, res.m_out, res.sum_p) == (slow.m_in, slow.m_out, slow.sum_p)
        assert (res.plan.rho, res.plan.p) == (slow.plan.rho, slow.plan.p)
        if slow.plan.rho >= h.m:
            assert res.hypergraph == h
            assert res.notes["balance_iterations"] == 0 and balanced == 0
        else:
            assert res.notes["balance_iterations"] == assignment.iterations and balanced == 1

    def test_no_strength_exceeds_copy_count(self):
        for h in BALANCE_INSTANCES:
            assert max(run_balance(h).kappa_by_copy()) <= h.m

    def test_sunflower_skips_balancing(self):
        res, balanced = balance_runs(sparsify_unweighted, gen_sunflower(5), 0.5)
        assert balanced == 0 and res.notes["balance_iterations"] == 0
        assert sample_sparsifier(gen_sunflower(5), res.plan, 0).hypergraph == res.hypergraph

    def test_copy_cap_still_checked(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 10**6), HyperEdge((1, 2), 1)))
        with pytest.raises(ValueError, match="use the bucketed pipeline"):
            sparsify_weighted(h, 0.5, copy_cap=1000, rho_override=10**12)

    def test_weighted_input_still_rejected(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 2),))
        with pytest.raises(ValueError, match="balancing expects an unweighted multi-hypergraph"):
            sparsify_unweighted(h, 0.5, rho_override=10**6)

    @pytest.mark.parametrize("sparsify", [sparsify_unweighted, sparsify_weighted])
    def test_rho_override_still_checked(self, sparsify):
        # at the theoretical rho, gen_sunflower(3) takes the shortcut; the
        # empty input returns before any copy is planned
        assert balance_runs(sparsify, gen_sunflower(3), 0.5)[1] == 0
        for h in (WeightedHypergraph(3, ()), gen_sunflower(3)):
            for rho in (0, -1, Fraction(-1, 2)):
                with pytest.raises(ValueError, match="rho override must be positive"):
                    sparsify(h, 0.5, rho_override=rho)
            with pytest.raises(ValueError, match="abc"):
                sparsify(h, 0.5, rho_override="abc")

    @pytest.mark.parametrize("sparsify", [sparsify_unweighted, sparsify_weighted])
    def test_within_size_budget(self, sparsify):
        for h in (gen_sunflower(4), gen_random(6, 10, 3, seed=2)):
            res, balanced = balance_runs(sparsify, h, 0.5)
            assert balanced == 0
            assert res.plan.sum_p() <= res.plan.size_budget()


class TestResultSerialization:
    def test_metadata_fields(self):
        res = sparsify_unweighted(gen_sunflower(3), 0.5, seed=2)
        meta = result_metadata(res)
        for key in ("n=6", "m_in=3", "m_out=3", "seed=2", "epsilon=0.5",
                    "gamma=2", "d=1", "rho=", "rho_overridden=0", "sum_p="):
            assert key in meta

    def test_save_result_round_trip(self, tmp_path):
        res = sparsify_unweighted(gen_sunflower(3), 0.5, seed=2)
        path = tmp_path / "out.hg"
        save_result(res, str(path))
        back = parse_hypergraph(path.read_text())
        assert edges_of(back) == edges_of(res.hypergraph)
        assert (tmp_path / "out.hg.meta").read_text() == result_metadata(res)
