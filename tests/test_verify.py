"""Cut-enumeration reports, and the test oracles built on them: the plan
audits and the concentration batch."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_op_counts
from hgsparse import (
    Cut,
    HyperEdge,
    SamplingPlan,
    WeightedHypergraph,
    all_cuts_report,
    cut_weight,
    edge_strengths,
    gen_footnote_graph,
    gen_random,
    gen_sunflower,
    init_weights,
    make_plan,
    report_csv,
    report_text,
    run_balance,
)
from oracles import (
    check_same_component,
    concentration_trial,
    cut_weight_loop,
    mean_rel_error_loop,
)


def doubled(h):
    return WeightedHypergraph(
        h.n, tuple(HyperEdge(e.vertices, 2 * e.weight) for e in h.edges))


class TestAllCutsReport:
    def test_identity_is_exact(self):
        h = gen_random(6, 12, 3, weighted=True, w_max=4, seed=0)
        rep = all_cuts_report(h, h, 0.0)
        assert rep.passed and rep.max_rel_error == 0 and rep.mean_rel_error == 0
        assert rep.cuts_checked == 2 ** 5 - 1 and rep.exhaustive

    def test_doubled_weights(self):
        h = gen_random(5, 8, 3, seed=1)
        rep = all_cuts_report(h, doubled(h), 0.5)
        assert rep.max_rel_error == 1 and not rep.passed
        assert all_cuts_report(h, doubled(h), 1.0).passed

    def test_zero_zero_counts_as_zero(self):
        h = WeightedHypergraph(4, (HyperEdge((1, 2)), HyperEdge((3, 4))))
        rep = all_cuts_report(h, h, 0.0)
        # the {1,2}|{3,4} cut crosses nothing on either side
        assert rep.passed
        quiet = [r for r in rep.records if r.true_w == 0]
        assert quiet and all(r.rel_err == 0 for r in quiet)

    def test_invented_weight_is_infinite(self):
        h = WeightedHypergraph(4, (HyperEdge((1, 2)),))
        hat = WeightedHypergraph(4, (HyperEdge((1, 2)), HyperEdge((3, 4))))
        rep = all_cuts_report(h, hat, 100.0)
        assert rep.max_rel_error == math.inf
        assert rep.mean_rel_error == math.inf
        assert not rep.passed

    def test_validation(self):
        h = WeightedHypergraph(3, (HyperEdge((1, 2)),))
        with pytest.raises(ValueError):
            all_cuts_report(h, WeightedHypergraph(4, ()), 0.5)
        with pytest.raises(ValueError):
            all_cuts_report(h, h, -0.5)

    def test_sampled_path(self):
        h = gen_random(6, 10, 3, seed=2)
        rep = all_cuts_report(h, h, 0.0, exhaustive_limit=4,
                              sample_count=40, seed=5)
        assert not rep.exhaustive and rep.cuts_checked == 40
        assert rep.passed
        full = (1 << 6) - 1
        for r in rep.records:
            assert r.cut_id % 2 == 1 and 0 < r.cut_id < full
        again = all_cuts_report(h, h, 0.0, exhaustive_limit=4,
                                sample_count=40, seed=5)
        assert [r.cut_id for r in again.records] == \
            [r.cut_id for r in rep.records]

    def test_sampled_needs_count(self):
        h = gen_random(6, 10, 3, seed=2)
        with pytest.raises(ValueError, match="sample count"):
            all_cuts_report(h, h, 0.0, exhaustive_limit=4)

    def test_record_cap_truncates_but_scans_all(self):
        h = gen_random(4, 6, 2, seed=3)
        rep = all_cuts_report(h, doubled(h), 0.5, record_cap=3)
        assert rep.cuts_checked == 7 and len(rep.records) == 3
        assert [r.cut_id for r in rep.records] == [1, 3, 5]
        assert rep.max_rel_error == 1


@st.composite
def mixed_denominator_pairs(draw) -> tuple[WeightedHypergraph, WeightedHypergraph]:
    """(h, h_hat) on n <= 8 vertices, each edge weighted k/d with d one of 1,
    2, 3, 7 and 12, so a cut's crossing weights mix denominators."""
    n = draw(st.integers(2, 8))
    vertices = st.lists(st.integers(1, n), min_size=2, max_size=n, unique=True)
    weight = st.builds(Fraction, st.integers(1, 40), st.sampled_from([1, 2, 3, 7, 12]))
    edge = st.builds(HyperEdge, vertices.map(lambda vs: tuple(sorted(vs))), weight)
    h, h_hat = (WeightedHypergraph(n, tuple(draw(st.lists(edge, max_size=12))))
                for _ in range(2))
    return h, h_hat


class TestExactSums:
    @settings(max_examples=60, deadline=None)
    @given(mixed_denominator_pairs())
    def test_sums_equal_the_fraction_loop(self, pair):
        h, h_hat = pair
        rep = all_cuts_report(h, h_hat, 1.0)
        assert len(rep.records) == 2 ** (h.n - 1) - 1
        for r in rep.records:
            cut = Cut(h.n, r.cut_id)
            assert cut_weight(h, cut) == r.true_w == cut_weight_loop(h, cut)
            assert cut_weight(h_hat, cut) == r.hat_w == cut_weight_loop(h_hat, cut)
        # each edge cut down to its first two vertices: a multigraph with
        # the same mixed weights
        g = WeightedHypergraph(h.n, tuple(HyperEdge(e.vertices[:2], e.weight) for e in h.edges))
        table = edge_strengths(g)
        loop = Fraction(0)
        for p, w in table.pair_weight.items():
            loop += w / table.pair_strength[p]
        assert table.strength_weight_sum() == loop

    @settings(max_examples=60, deadline=None)
    @given(mixed_denominator_pairs(), st.data())
    def test_mean_equals_the_running_sum(self, pair, data):
        # a reweighted subset of h's edges has only finite cut errors; the
        # pair's unrelated h_hat often has an infinite one
        h, other = pair
        factor = st.sampled_from([Fraction(1, 2), 1, Fraction(5, 3), 3])
        subset = WeightedHypergraph(h.n, tuple(
            HyperEdge(e.vertices, e.weight * data.draw(factor))
            for e in h.edges if data.draw(st.booleans())))
        for h_hat in (subset, other):
            rep = all_cuts_report(h, h_hat, 1.0)
            assert rep.mean_rel_error == mean_rel_error_loop(rep)

    def test_adds_do_not_grow_with_edges(self, monkeypatch):
        # weights over the denominators 1, 3 and 7; doubling every edge of
        # both hypergraphs keeps the denominators and every relative error,
        # so the Fraction adds and compares must stay as they are
        edges = [((1, 2), 1), ((2, 3), Fraction(4, 3)), ((3, 4, 5), Fraction(9, 7)),
                 ((1, 5), Fraction(5, 3)), ((1, 3, 4), 2), ((2, 4), Fraction(3, 7))]
        h = WeightedHypergraph(5, tuple(HyperEdge(vs, w) for vs, w in edges))
        h_hat = doubled(WeightedHypergraph(5, h.edges[::2]))
        base = fraction_op_counts(monkeypatch, lambda: all_cuts_report(h, h_hat, 1.0))
        twice = [WeightedHypergraph(5, g.edges * 2) for g in (h, h_hat)]
        again = fraction_op_counts(monkeypatch, lambda: all_cuts_report(*twice, 1.0))
        assert base["__add__"] > 0 and again == base


class TestReportFormats:
    def test_text_frozen(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2)),))
        rep = all_cuts_report(h, h, 0.5)
        assert report_text(rep) == (
            "n=2\nm_in=1\nm_out=1\ncuts_checked=1\nexhaustive=1\n"
            "max_rel_error=0\nmean_rel_error=0\nepsilon_target=0.5\npass=1\n"
        )

    def test_text_optional_lines(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2)),))
        rep = all_cuts_report(h, h, 0.5, seed=7)
        text = report_text(rep)
        assert text.endswith("pass=1\nseed=7\n")

    def test_csv_frozen(self):
        h = WeightedHypergraph(2, (HyperEdge((1, 2)),))
        assert report_csv(all_cuts_report(h, doubled(h), 2.0)) == (
            "cut_id,true_w,hat_w,rel_err\n1,1,2,1\n"
        )

    def test_inf_rendering(self):
        h = WeightedHypergraph(4, (HyperEdge((1, 2)),))
        hat = WeightedHypergraph(4, (HyperEdge((3, 4)),))
        text = report_text(all_cuts_report(h, hat, 0.5))
        assert "max_rel_error=inf" in text and "pass=0" in text


class TestCheckSameComponent:
    def test_theoretical_rho_vacuous(self):
        h = gen_sunflower(4)
        a = run_balance(h)
        assert check_same_component(a, make_plan(a, 0.5, 1))

    def test_override_levels_still_connected(self):
        h = WeightedHypergraph(
            3, tuple(HyperEdge((1, 2)) for _ in range(12)) + (HyperEdge((1, 2, 3)),))
        a = run_balance(h)
        plan = make_plan(a, 0.5, 1, rho_override=Fraction(1, 2))
        assert check_same_component(a, plan)

    def test_corpus(self):
        for seed in range(5):
            h = gen_random(6, 10, 3, seed=seed)
            a = run_balance(h)
            for rho in (None, Fraction(1, 4)):
                assert check_same_component(a, make_plan(a, 0.5, 1, rho_override=rho))

    def test_detects_disconnection(self):
        # every slot wrongly credited as strong, but weight on one slot: the
        # surviving copy spans {1,2,3} but the strong pairs only join {1,2}
        h = WeightedHypergraph(3, (HyperEdge((1, 2, 3)),))
        bad = init_weights(h)
        group = bad.groups[(1, 2, 3)]
        assert group.slots == [(1, 2), (1, 3), (2, 3)] and bad.delta == Fraction(1, 9)
        group.runs = [[1, [9, 0, 0]]]
        bad.strengths = dict.fromkeys(group.slots, 36)  # strength 4 on every slot
        plan = SamplingPlan(
            epsilon=0.5, gamma=2, d=1, rho=Fraction(1), n=3,
            counts=(1,), p=(Fraction(1),), overridden=True,
        )
        assert check_same_component(bad, plan) is False

    def test_plan_mismatch(self):
        a = run_balance(gen_sunflower(3))
        other = make_plan(run_balance(
            WeightedHypergraph(3, (HyperEdge((1, 2, 3)),))), 0.5, 1)
        with pytest.raises(ValueError):
            check_same_component(a, other)


class TestExpectedSize:
    def test_real_plans_pass(self):
        for seed in range(4):
            h = gen_random(7, 12, 3, seed=seed)
            plan = make_plan(run_balance(h), 0.5, 1)
            assert plan.sum_p() <= plan.size_budget()

    def test_fabricated_overrun_fails(self):
        plan = SamplingPlan(
            epsilon=0.5, gamma=2, d=1, rho=Fraction(1, 100), n=2,
            counts=(5,), p=(Fraction(1),), overridden=True,
        )
        # sum_p = 5 but the budget is only gamma * rho * (n-1) = 1/50
        assert plan.sum_p() > plan.size_budget()


class TestConcentrationTrial:
    def test_zero_trials(self):
        s = concentration_trial(gen_sunflower(3), 0.5, 1, 0, seed=0)
        assert s.failure_count == 0 and s.reports == ()

    def test_theoretical_rho_clean(self):
        h = gen_random(5, 8, 3, seed=1)
        s = concentration_trial(h, 0.5, 1, 3, seed=4)
        assert s.failure_count == 0 and len(s.reports) == 3
        assert all(r.passed for r in s.reports)

    def test_weighted_dispatch_clean(self):
        s = concentration_trial(gen_footnote_graph(5), 0.5, 1, 2, seed=4)
        assert s.failure_count == 0

    def test_tiny_rho_forces_failures(self):
        h = WeightedHypergraph(2, tuple(HyperEdge((1, 2)) for _ in range(8)))
        s = concentration_trial(h, 0.25, 1, 3, seed=0,
                                rho_override=Fraction(1, 100))
        assert s.failure_count == 3
        assert all(not r.passed for r in s.reports)

    def test_negative_trials(self):
        with pytest.raises(ValueError):
            concentration_trial(gen_sunflower(2), 0.5, 1, -1, seed=0)
