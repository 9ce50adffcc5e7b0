"""Sampling plans, the sampler, and the weighted reduction."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import BALANCE_INSTANCES, bucket_cases, fraction_builds
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
from oracles import (
    bitwise_law,
    copy_counts_loop,
    expand_copies,
    kappa_by_copy,
    mask_of,
    sample_bitwise_per_copy,
    sample_per_copy,
)


def edges_of(h):
    return [(e.vertices, e.weight) for e in h.edges]


class StubRandom:
    """Stands in for `random.Random`: `getrandbits(k)` records k and returns
    the next of the given outcomes."""

    def __init__(self, outcomes):
        self.outcomes = iter(outcomes)
        self.calls = []

    def getrandbits(self, k):
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

    @pytest.mark.parametrize("h", BALANCE_INSTANCES + [
        WeightedHypergraph(3, (HyperEdge((1, 2)),) * 3 + (HyperEdge((1, 3)), HyperEdge((1, 2))))])
    def test_matches_per_copy_kappa(self, h):
        # groups whose copies are one stretch of indices and groups whose
        # copies lie apart; each copy gets min(1, rho/kappa) of its group,
        # one shared object per group
        a = run_balance(h)
        for rho in (None, Fraction(1, 2), min(a.kappa_by_group().values()) * 3):
            plan = make_plan(a, 0.5, 1, rho_override=rho)
            assert plan.p == tuple(min(1, plan.rho / k) for k in kappa_by_copy(a))
            assert all(len({id(plan.p[c]) for c in itertools.chain.from_iterable(g.spans)}) == 1
                       for g in a.groups.values())

    def test_counts_map_input_edges_to_groups(self):
        # an input edge's p is its copies' p on the expanded copies, and the
        # expected sizes agree
        for seed in range(4):
            h = gen_random(6, 8, 3, weighted=True, w_max=5, seed=seed)
            counts = copy_counts(h, 0.5)[1]
            a = run_balance(reduce_weighted(h), counts=counts)
            expanded = run_balance(expand_copies(h, counts)[0])
            for rho in (None, Fraction(2)):
                per_copy = make_plan(expanded, 0.5, 1, rho_override=rho)
                plan = make_plan(a, 0.5, 1, rho_override=rho)
                starts = [sum(counts[:j]) for j in range(h.m)]
                assert plan.counts == tuple(counts)
                assert plan.p == tuple(per_copy.p[c] for c in starts)
                assert plan.sum_p() == per_copy.sum_p()

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

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(2, 7), Fraction(2**60 + 1, 2**61 + 3),
                                   Fraction(3, 8)],
                             ids=["one_third", "two_sevenths", "denominator_past_2_53",
                                  "three_eighths"])
    def test_each_draw_outcome_keeps_below_the_numerator(self, monkeypatch, p):
        # one copy reads its U one bit per draw, getrandbits(1), against p's
        # binary digits: after i - 1 bits equal to p's digits, a bit below
        # p's i-th digit keeps it and a bit above drops it, so it is kept
        # exactly when U < p.  A dyadic p stops after its last 1 digit, with
        # the copy dropped, since the U that is left is >= p.  A denominator
        # past 2^53 is read to depths past float precision
        digits = [math.floor(p * 2**i) % 2 for i in range(1, 71)]
        dyadic_depth = next((i for i in range(71) if (p * 2**i).denominator == 1), None)
        monkeypatch.setattr(sparsify, "random", SimpleNamespace(Random=lambda seed: stub))
        h = WeightedHypergraph(2, (HyperEdge((1, 2), Fraction(3, 2)),))
        plan = SamplingPlan(0.5, 2, 1, Fraction(1), 2, (1,), (p,))
        for i in range(1, (dyadic_depth or 70) + 1):
            stub = StubRandom(digits[:i - 1] + [1 - digits[i - 1]])
            res = sample_sparsifier(h, plan, seed=0)
            assert stub.calls == [1] * i
            assert next(stub.outcomes, None) is None
            assert res.m_out == digits[i - 1]
        if dyadic_depth is not None:
            stub = StubRandom(digits[:dyadic_depth])
            assert sample_sparsifier(h, plan, seed=0).m_out == 0
            assert stub.calls == [1] * dyadic_depth

    def test_one_draw_per_copy_below_one(self, monkeypatch):
        # each p < 1 edge draws getrandbits(u) for its u undecided copies,
        # one draw per binary digit of p, in edge order, and only the count
        # of one-bits matters: on a 1 digit the copies with a 0 are kept, on
        # a 0 digit the copies with a 1 are dropped.  p = 1 edges draw
        # nothing; a dyadic p stops once its digits run out; an edge's k kept
        # copies weigh exactly k * w / p, and an edge that keeps none is
        # dropped
        ps = (Fraction(1, 3), Fraction(1), Fraction(2, 7), Fraction(1), Fraction(5, 11),
              Fraction(1, 3), Fraction(3, 4))
        counts = (2, 3, 1, 1, 2, 1, 3)
        # 1/3 = 0.0101..., 2/7 = 0.010010..., 5/11 = 0.0111010001..., 3/4 = 0.11
        outcomes = [0b00, 0b00,  # edge 0: both equal, then both below a 1: k = 2
                    0, 1, 0, 0, 0,  # edge 2: four digits equal, then below a 1: k = 1
                    0b10, 1, 0,  # edge 4: one above a 0, one equal to 0.01, then below: k = 1
                    1,  # edge 5: above a 0: k = 0
                    0b110, 0b11]  # edge 6: one below a 1, two equal to 0.11: k = 1
        stub = StubRandom(outcomes)
        monkeypatch.setattr(sparsify, "random", SimpleNamespace(Random=lambda seed: stub))
        h = WeightedHypergraph(3, tuple(HyperEdge((1, 2, 3), Fraction(k, 2)) for k in range(1, 8)))
        res = sample_sparsifier(h, SamplingPlan(0.5, 2, 1, Fraction(1), 3, counts, ps), seed=0)
        assert stub.calls == [2, 2, 1, 1, 1, 1, 1, 2, 1, 1, 1, 3, 2]
        assert next(stub.outcomes, None) is None
        assert res.origin == (0, 1, 2, 3, 4, 6)
        assert (res.m_in, res.m_out) == (7, 6)
        assert [e.weight for e in res.hypergraph.edges] == [
            k * h.edges[j].weight / ps[j] for k, j in zip((2, 3, 1, 1, 1, 1), res.origin)]

    @given(st.lists(st.tuples(st.fractions(Fraction(1, 10**20), 1), st.integers(1, 40),
                              st.fractions(Fraction(1, 4), 4)), min_size=1, max_size=8),
           st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_copy_randrange_draws(self, runs, seed):
        # (p, count, w) per input edge, with p denominators far past 2^53:
        # the oracle expands every edge into its copies, reads each copy's
        # own bits of the same draws and folds the kept copies of each edge
        # by Fraction adds.  The per-copy randrange stream is no longer the
        # sampler's; its law is, which `TestBitwiseLaw` checks exactly
        ps, counts, weights = zip(*runs)
        h = WeightedHypergraph(2, tuple(HyperEdge((1, 2), w) for w in weights))
        plan = SamplingPlan(0.5, 2, 1, Fraction(1), 2, counts, ps)
        res = sample_bitwise_per_copy(h, plan, seed)
        out = sample_sparsifier(h, plan, seed)
        assert list(zip(out.origin, out.hypergraph.edges)) == res
        assert (out.m_in, out.m_out) == (h.m, len(res))
        assert out.sum_p == plan.sum_p() == sum(c * pe for c, pe in zip(counts, ps))

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


def hyperedge_builds(monkeypatch, call) -> int:
    """How many `HyperEdge`s `call()` constructs, checked or trusted."""
    count = 0
    real, real_trusted = HyperEdge.__post_init__, HyperEdge.trusted

    def counted(self):
        nonlocal count
        count += 1
        real(self)

    def counted_trusted(vertices, weight):
        nonlocal count
        count += 1
        return real_trusted(vertices, weight)
    monkeypatch.setattr(HyperEdge, "__post_init__", counted)
    monkeypatch.setattr(HyperEdge, "trusted", counted_trusted)
    try:
        call()
    finally:
        monkeypatch.undo()
    return count


class TestSamplerOps:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_work_per_run_does_not_grow_with_copies(self, monkeypatch, seed):
        # four input edges, three with p < 1 and one with p = 1; each edge's
        # kept copies become one edge, so doubling every edge's copy count
        # keeps the HyperEdges and Fractions built as they are
        ps = (Fraction(9, 10), Fraction(5, 7), Fraction(1), Fraction(3, 4))
        h = WeightedHypergraph(5, tuple(HyperEdge((1, i + 2), Fraction(1, i + 1))
                                        for i in range(len(ps))))
        built = []
        for copies in (8, 16):
            plan = SamplingPlan(0.5, 2, 1, Fraction(1), 5, (copies,) * len(ps), ps)
            res = sample_sparsifier(h, plan, seed)
            assert list(zip(res.origin, res.hypergraph.edges)) == sample_bitwise_per_copy(
                h, plan, seed)
            # every edge keeps a copy, and some copy is dropped
            assert res.origin == (0, 1, 2, 3)
            assert sum(e.weight * pe / f.weight
                       for e, pe, f in zip(res.hypergraph.edges, ps, h.edges)) < sum(plan.counts)
            assert hyperedge_builds(monkeypatch, lambda: sample_sparsifier(h, plan, seed)) == 4
            built.append(fraction_builds(monkeypatch, lambda: sample_sparsifier(h, plan, seed)))
        assert 0 < built[0] == built[1]

    def test_caller_plan_with_no_copies(self):
        # the output is built unchecked below p = 1 only; at p = 1 a count of
        # 0 still reaches the edge check, and below p = 1 it keeps nothing
        h = WeightedHypergraph(3, (HyperEdge((1, 2)), HyperEdge((2, 3), Fraction(2, 3))))
        plan = SamplingPlan(0.5, 2, 1, Fraction(1), 3, (0, 4), (Fraction(1), Fraction(1, 2)))
        with pytest.raises(ValueError, match="^hyperedge weight must be positive$"):
            sample_sparsifier(h, plan, 0)
        plan = dataclasses.replace(plan, counts=(4, 0), p=(Fraction(1), Fraction(1, 2)))
        assert sample_sparsifier(h, plan, 0).hypergraph.edges == (HyperEdge((1, 2), 4),)

    @pytest.mark.parametrize("rho", [Fraction(3, 2), Fraction(7), None])
    def test_zero_kappa_fails_as_fraction_division(self, rho):
        # kappa = 0 fails in make_plan as rho / kappa does
        a = run_balance(gen_sunflower(2))
        a.strengths.clear()
        with pytest.raises(ZeroDivisionError) as got:
            make_plan(a, 0.5, rho_override=rho)
        rho = make_plan(run_balance(gen_sunflower(2)), 0.5, rho_override=rho).rho
        with pytest.raises(ZeroDivisionError) as want:
            rho / Fraction(0)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(5, 7), Fraction(3, 8),
                                   Fraction(2**60 + 1, 2**61 + 3)])
    def test_draws_grow_with_log_count(self, monkeypatch, p):
        # each draw decides about half the undecided copies, whatever p's
        # digit, so one edge of 10 to 10^7 copies takes O(log count) draws
        class Counted:
            def __init__(self, seed):
                self.rng, self.calls = random.Random(seed), 0

            def getrandbits(self, k):
                self.calls += 1
                return self.rng.getrandbits(k)

        made = []

        def counted(seed):
            made.append(Counted(seed))
            return made[-1]

        monkeypatch.setattr(sparsify, "random", SimpleNamespace(Random=counted))
        h = WeightedHypergraph(2, (HyperEdge((1, 2)),))
        for count in (10, 10**3, 10**6, 10**7):
            for seed in (0, 1):
                res = sample_sparsifier(h, SamplingPlan(0.5, 2, 1, Fraction(1), 2, (count,), (p,)),
                                        seed)
                assert 1 <= made[-1].calls <= 64
                if count >= 10**3:
                    k = res.hypergraph.edges[0].weight * p
                    assert abs(k - count * p) < 6 * math.sqrt(count * p * (1 - p))


class TestBitwiseLaw:
    """The law of an edge's kept count under the sampler's bitwise draws is
    Binomial(count, p), the law of the per-copy `randrange` draws."""

    def test_bounds_hold_the_binomial(self):
        # every n <= 6 and p = a/D with D <= 9, to 40 draws: the undecided
        # mass is below 6 * 2^-40, so the bracket pins every P(kept = k)
        for n in range(1, 7):
            for den in range(2, 10):
                for num in range(1, den):
                    p = Fraction(num, den)
                    lower, undecided = bitwise_law(n, p, 40)
                    assert sum(lower.values()) + undecided == 1
                    assert undecided < Fraction(6, 2**40)
                    for k in range(n + 1):
                        law = math.comb(n, k) * p**k * (1 - p)**(n - k)
                        assert lower.get(k, 0) <= law <= lower.get(k, 0) + undecided, (n, p, k)

    def test_binomial_is_the_per_copy_law(self, monkeypatch):
        # `sample_per_copy` keeps a copy when randrange(D) < a: over every
        # outcome of its n draws, each of weight D^-n, it keeps k copies
        # with probability C(n, k) p^k (1 - p)^(n - k)
        h = WeightedHypergraph(2, (HyperEdge((1, 2)),))
        for n in range(1, 4):
            for den in range(2, 6):
                for num in range(1, den):
                    p = Fraction(num, den)
                    plan = SamplingPlan(0.5, 2, 1, Fraction(1), 2, (n,), (p,))
                    law = [Fraction(0)] * (n + 1)
                    for draws in itertools.product(range(p.denominator), repeat=n):
                        stub = SimpleNamespace(randrange=lambda bound, it=iter(draws): next(it))
                        monkeypatch.setattr(oracles, "random",
                                            SimpleNamespace(Random=lambda seed: stub))
                        kept = sample_per_copy(h, plan, 0)
                        k = int(kept[0][1].weight * p) if kept else 0
                        law[k] += Fraction(1, p.denominator**n)
                    assert law == [math.comb(n, k) * p**k * (1 - p)**(n - k)
                                   for k in range(n + 1)]


class TestReduceWeighted:
    """`copy_counts`, and the unit copies it stands for, expanded by
    `expand_copies`; `reduce_weighted` keeps one unit edge per input edge."""

    def test_one_unit_edge_per_input_edge(self):
        e = HyperEdge((1, 2))
        h = WeightedHypergraph(3, (e, HyperEdge((2, 3), Fraction(7, 2)), e))
        unit = reduce_weighted(h)
        assert [f.vertices for f in unit.edges] == [f.vertices for f in h.edges]
        assert unit.is_unweighted() and unit.edges[0] is unit.edges[2] is e

    def test_single_edge(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 7),))
        scale, counts = copy_counts(h, 1.0)
        reduced, origin = expand_copies(h, counts)
        assert scale == Fraction(3, 7)
        assert reduced.m == 3 and origin == (0, 0, 0)
        assert reduced.is_unweighted()

    def test_equal_weights_equal_copies(self):
        h = WeightedHypergraph(3, (HyperEdge((1, 2), 5), HyperEdge((2, 3), 5)))
        reduced, origin = expand_copies(h, copy_counts(h, 0.5)[1])
        assert origin.count(0) == origin.count(1) == 6

    def test_copy_count_within_band(self):
        for seed in range(6):
            h = gen_random(6, 8, 3, weighted=True, w_max=40, seed=seed)
            eps = 0.5
            scale, counts = copy_counts(h, eps)
            reduced, origin = expand_copies(h, counts)
            eps_f = Fraction(1, 2)
            for j, e in enumerate(h.edges):
                c = origin.count(j)
                target = scale * e.weight
                assert (1 - eps_f / 3) * target <= c <= (1 + eps_f / 3) * target

    def test_counts_have_no_limit(self):
        # the copy limit applies where copies are balanced and drawn, not here
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 10**6), HyperEdge((1, 2), 1)))
        assert copy_counts(h, 1.0) == (3, [3 * 10**6, 3])

    def test_empty(self):
        h = WeightedHypergraph(3, ())
        assert copy_counts(h, 0.5) == (1, [])
        reduced, origin = expand_copies(h, [])
        assert reduced.m == 0 and origin == ()
        assert reduce_weighted(h) == h

    @given(bucket_cases())
    def test_matches_fraction_loop(self, case):
        # the scale and every count
        h, eps = case
        assert copy_counts(h, eps) == copy_counts_loop(h, eps)


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
        reduced, _ = expand_copies(h, copy_counts(h, 0.5)[1])
        inner = sparsify_unweighted(reduced, 0.5 / 3, seed=5)
        merged = {}
        for idx in inner.origin:
            j = 0 if idx < reduced.m // 2 else 1
            merged[j] = merged.get(j, 0) + 1
        assert res.m_out == len(merged)

    def test_fold_matches_per_copy_sums_on_shared_edges(self):
        # adjacent input edges that are one object reduce to one run of
        # copies; each input edge still weighs its own kept copies' summed
        # weight, as it does when the inputs are equal but distinct objects:
        # the oracle balances the unit copies and folds each copy it keeps
        e, f = HyperEdge((1, 2)), HyperEdge((2, 3), Fraction(3, 2))
        shared = WeightedHypergraph(3, (e, e, f, f, e))
        distinct = WeightedHypergraph(3, tuple(HyperEdge(x.vertices, x.weight)
                                               for x in shared.edges))
        dropped = set()
        for seed in range(6):
            res = sparsify_weighted(shared, 0.5, seed=seed, rho_override=Fraction(2))
            assert res == sparsify_weighted(distinct, 0.5, seed=seed, rho_override=Fraction(2))
            out, origin, _, plan, _ = slow_weighted(shared, 0.5, 2, 1, seed, Fraction(2))
            assert all(p < 1 for p in plan.p)
            assert (res.hypergraph, res.origin) == (out, origin)
            dropped |= set(range(shared.m)) - set(res.origin)
        assert dropped

    def test_cap_propagates(self):
        # 6,000,006 copies, one short of keeping every copy: the error names
        # the copy count, rho and the limit, and points to no other entry point
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 10**6), HyperEdge((1, 2), 1)))
        with pytest.raises(ValueError) as err:
            sparsify_weighted(h, 0.5, rho_override=6000005)
        assert str(err.value) == (
            "sampling needs 6000006 unit copies at rho 6000005, over the limit 1000000 "
            "for balancing and drawing; a rho of at least the copy count keeps every copy")

    def test_merge_restores_scale(self):
        # with all p=1 the output equals the floor-rounded weights exactly
        h = WeightedHypergraph(3, (HyperEdge((1, 2), Fraction(3, 2)),
                                   HyperEdge((2, 3), Fraction(15, 4))))
        res = sparsify_weighted(h, 0.5, seed=0)
        assert res.plan is not None and all(p == 1 for p in res.plan.p)
        scale, counts = copy_counts(h, 0.5)
        reduced, origin = expand_copies(h, counts)
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
    """sparsify_weighted without the p = 1 shortcut: expand into unit
    copies, balance and plan them, give each input edge its first copy's p,
    then decide every unit copy of weight 1/scale on its own bits of the
    sampler's draws and fold the kept copies of each input edge."""
    scale, counts = copy_counts(h, epsilon)
    reduced, _ = expand_copies(h, counts)
    assignment = run_balance(reduced, gamma)
    per_copy = make_plan(assignment, epsilon / 3, d, rho_override)
    starts = itertools.accumulate(counts, initial=0)
    plan = dataclasses.replace(per_copy, counts=tuple(counts),
                               p=tuple(per_copy.p[s] for s, _ in zip(starts, counts)))
    units = WeightedHypergraph(h.n, tuple(HyperEdge(e.vertices, 1 / scale) for e in h.edges))
    kept = sample_bitwise_per_copy(units, plan, seed)
    out = WeightedHypergraph(h.n, tuple(e for _, e in kept))
    return out, tuple(j for j, _ in kept), plan.sum_p(), plan, assignment


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
        assert (res.plan.rho, res.plan.counts, res.plan.p) == (plan.rho, plan.counts, plan.p)
        assert res.notes["reduced_copies"] == copies
        assert max(assignment.kappa_by_group().values()) <= copies
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
        assert max(assignment.kappa_by_group().values()) <= h.m
        assert res.hypergraph == slow.hypergraph
        assert res.origin == slow.origin
        assert (res.m_in, res.m_out, res.sum_p) == (slow.m_in, slow.m_out, slow.sum_p)
        assert (res.plan.rho, res.plan.counts, res.plan.p) == (
            slow.plan.rho, slow.plan.counts, slow.plan.p)
        if slow.plan.rho >= h.m:
            assert res.hypergraph == h
            assert res.notes["balance_iterations"] == 0 and balanced == 0
        else:
            assert res.notes["balance_iterations"] == assignment.iterations and balanced == 1

    def test_plan_holds_one_entry_per_input_edge(self):
        # 6,006 unit copies of two input edges, all kept
        h = WeightedHypergraph(3, (HyperEdge((1, 2), 1000), HyperEdge((2, 3), 1)))
        res, balanced = balance_runs(sparsify_weighted, h, 0.5)
        assert balanced == 0 and res.notes["reduced_copies"] == 6006
        assert res.plan.counts == (6000, 6) and res.plan.p == (1, 1)
        assert res.sum_p == res.plan.sum_p() == 6006

    def test_no_strength_exceeds_copy_count(self):
        for h in BALANCE_INSTANCES:
            assert max(run_balance(h).kappa_by_group().values()) <= h.m

    def test_sunflower_skips_balancing(self):
        res, balanced = balance_runs(sparsify_unweighted, gen_sunflower(5), 0.5)
        assert balanced == 0 and res.notes["balance_iterations"] == 0
        assert sample_sparsifier(gen_sunflower(5), res.plan, 0).hypergraph == res.hypergraph

    def test_copy_limit_only_below_p_1(self):
        # 6,000,006 copies: kept whole at rho >= the copy count, refused below
        # it before the balance loop runs
        h = WeightedHypergraph(2, (HyperEdge((1, 2), 10**6), HyperEdge((1, 2), 1)))
        res, balanced = balance_runs(sparsify_weighted, h, 0.5, rho_override=10**12)
        assert balanced == 0 and res.sum_p == res.notes["reduced_copies"] == 6000006
        assert res.hypergraph == h
        for rho in (None, 6000005):
            with mock.patch.object(sparsify, "run_balance") as spy:
                with pytest.raises(ValueError, match="^sampling needs 6000006 unit copies"):
                    sparsify_weighted(h, 0.5, rho_override=rho)
            spy.assert_not_called()

    def test_unweighted_input_has_no_copy_limit(self, monkeypatch):
        # one copy per edge: the limit bounds only a weighted input's copies
        monkeypatch.setattr(sparsify, "COPY_LIMIT", 5)
        h = gen_random(5, 20, 3, seed=1)
        res, balanced = balance_runs(sparsify_unweighted, h, 0.5, rho_override=1)
        assert balanced == 1 and res.m_out < h.m
        with pytest.raises(ValueError, match="over the limit 5 "):
            sparsify_weighted(h, 0.5, rho_override=1)

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
