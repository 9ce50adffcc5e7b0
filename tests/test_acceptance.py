"""End-to-end acceptance batch, one test per numbered criterion.

Run with -v for the per-criterion pass/fail lines; each test also prints a
one-line summary with the measured quantities when it passes.  Everything is
seeded, exact where the statement is exact, and sized to finish on a desk
machine.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import mg, random_multigraph
from hgsparse import (
    Cut,
    HyperEdge,
    WeightedHypergraph,
    all_cuts_report,
    brute_force_strengths,
    child_seed,
    cut_weight,
    edge_strengths,
    gen_example,
    gen_footnote_graph,
    gen_random,
    gen_sunflower,
    is_balanced,
    make_plan,
    run_balance,
    sample_sparsifier,
    sparsify_unweighted,
    sparsify_weighted,
    stream_sparsify,
)
from oracles import check_same_component, mask_of, traced_balance
from hgsparse.graph import collapse


def clustered_hypergraph(seed):
    """Parallel pairs inside a small cluster plus a few spanning hyperedges;
    the spread between cluster and spanning strengths forces transfers."""
    rng = random.Random(("skew", seed).__repr__())
    n = rng.randint(5, 10)
    k = rng.randint(2, n - 3)
    edges = []
    for _ in range(rng.randint(8, 20)):
        u, v = rng.sample(range(1, k + 1), 2) if k > 2 else (1, 2)
        edges.append(HyperEdge(tuple(sorted((u, v)))))
    for _ in range(rng.randint(2, 6)):
        size = rng.randint(3, min(5, n))
        edges.append(HyperEdge(tuple(sorted(rng.sample(range(1, n + 1), size)))))
    return WeightedHypergraph(n, tuple(edges))


@pytest.fixture(scope="module")
def corpus():
    """Named families plus seeded random instances, all with n <= 12."""
    instances = [(f"sunflower-{n}", gen_sunflower(n)) for n in range(2, 7)]
    instances += [(f"example1-{n}", gen_example("example1", n, 2)) for n in (3, 4)]
    instances += [(f"example2-{n}", gen_example("example2", n, 1)) for n in (4, 6)]
    for seed in range(8):
        n = 4 + seed % 7
        instances.append((f"random-{seed}", gen_random(n, 6 + 2 * seed, 4, seed=seed)))
    for seed in range(4):
        instances.append((f"clustered-{seed}", clustered_hypergraph(seed)))
    return instances


@pytest.fixture(scope="module")
def balanced_corpus(corpus):
    return [(label, h, run_balance(h)) for label, h in corpus]


def test_01_strength_matches_brute_force():
    t0 = time.monotonic()
    instances = 0
    for seed in range(100):
        n = 4 + seed % 5
        m = 6 + seed % 9
        g = random_multigraph(n, m, seed)
        table = edge_strengths(g)
        brute = brute_force_strengths(g)
        for pair in collapse(g):
            assert table.strength(*pair) == brute[pair]
        instances += 1
    dt = time.monotonic() - t0
    assert instances >= 100 and dt < 60
    print(f"[PASS] criterion 1: {instances} weighted multigraphs (n<=8), "
          f"strengths exactly equal brute force, {dt:.1f}s")


def test_02_distinct_strengths_and_weight_ratio_bounds(balanced_corpus):
    tables = []
    for label, h, assignment in balanced_corpus:
        if h.m:
            # the balanced clique weights, as the multigraph they make
            clique = mg(h.n, [(u, v, units * assignment.delta)
                              for (u, v), units in assignment.collapsed_units().items()])
            tables.append((label, h.n, edge_strengths(clique)))
    for n in range(5, 13):
        h = gen_footnote_graph(n)
        pairs = {}
        for e in h.edges:
            verts = e.vertices
            npairs = len(verts) * (len(verts) - 1) // 2
            share = e.weight / npairs
            for i, u in enumerate(verts):
                for v in verts[i + 1:]:
                    pairs[(u, v)] = pairs.get((u, v), Fraction(0)) + share
        clique = mg(n, [(u, v, w) for (u, v), w in pairs.items()])
        tables.append((f"footnote-{n}", n, edge_strengths(clique)))
    for seed in range(10):
        n = 5 + seed % 8
        g = random_multigraph(n, 8 + seed, seed)
        tables.append((f"multigraph-{seed}", n, edge_strengths(g)))
    for label, n, table in tables:
        assert table.distinct_strength_count() <= n - 1, label
        assert table.strength_weight_sum() <= n - 1, label
    print(f"[PASS] criterion 2: {len(tables)} instances (n<=12), distinct "
          f"strengths and sum w/k both within n-1 exactly")


def test_03_strength_monotonicity_under_weight_increase():
    triples = 0
    for seed in range(200):
        rng = random.Random(("lift", seed).__repr__())
        n = rng.randint(4, 7)
        g = random_multigraph(n, rng.randint(6, 14), seed)
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        while v == u:
            v = rng.randint(1, n)
        f = (min(u, v), max(u, v))
        delta = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        before = edge_strengths(g)
        after = edge_strengths(
            WeightedHypergraph(n, g.edges + (HyperEdge(f, delta),)))
        f_old = before.strength(*f)
        f_new = after.strength(*f)
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                k_old = before.strength(a, b)
                k_new = after.strength(a, b)
                assert k_old <= k_new <= k_old + delta
                if k_new > k_old:
                    assert k_old >= f_old and k_new <= f_new
        triples += 1
    assert triples >= 200
    print(f"[PASS] criterion 3: {triples} (graph, pair, delta) triples, "
          f"exact monotone strength updates, zero violations")


def test_04_balance_terminates_and_invariants_hold():
    t0 = time.monotonic()
    total_iters = 0
    instances = 0
    for seed in range(50):
        if seed % 2:
            h = clustered_hypergraph(1000 + seed)
        else:
            h = gen_random(4 + seed % 7, 8 + (5 * seed) % 33,
                           2 + seed % 3, seed=seed)
        assert h.n <= 10 and h.m <= 40
        a, records = traced_balance(h, gamma=2)
        batched = run_balance(h, gamma=2)
        assert (batched.iterations, batched.k0_units, batched.ell, batched.strengths) == (
            a.iterations, a.k0_units, a.ell, a.strengths)
        assert ({key: g.runs for key, g in batched.groups.items()}
                == {key: g.runs for key, g in a.groups.items()})
        assert a.iterations == len(records) <= h.m * a.ell * h.n * h.n
        assert is_balanced(a).ok
        k_top = a.k0_units * 2 ** a.ell
        for p in a.collapsed_units():
            assert a.k0_units <= a.strengths[p] <= k_top
        for _, hist, _ in records:
            # hist indexes strengths into [K0, K0*gamma^ell]; building it
            # would have raised on any strength outside that range
            assert len(hist) == a.ell + 1 and sum(hist) >= 1
        for i in range(1, a.ell + 1):
            started = False
            prev = None
            for ind, _, weight_gt in records:
                if not started and ind <= i:
                    started = True
                if started:
                    w = weight_gt[i - 1]
                    assert prev is None or w <= prev
                    prev = w
        total_iters += a.iterations
        instances += 1
    dt = time.monotonic() - t0
    assert instances >= 50 and dt < 600
    assert total_iters > 0  # the corpus actually exercises the loop
    print(f"[PASS] criterion 4: {instances} unweighted hypergraphs balanced, "
          f"{total_iters} total transfers, all invariants at every boundary, "
          f"{dt:.1f}s")


def test_05_expected_size_within_budget(balanced_corpus):
    plans = 0
    for label, h, assignment in balanced_corpus:
        if h.m == 0:
            continue
        kappas = assignment.kappa_by_group().values()
        overrides = [None, min(kappas) / 2, Fraction(1, 3)]
        for eps in (0.25, 1.0):
            for rho in overrides:
                plan = make_plan(assignment, eps, 1, rho_override=rho)
                assert plan.sum_p() <= plan.size_budget(), (label, eps, rho)
                plans += 1
    for seed in range(5):
        h = gen_random(6, 10, 3, weighted=True, w_max=50, seed=seed)
        res = sparsify_weighted(h, 0.5, seed=seed)
        assert res.plan.sum_p() <= res.plan.size_budget()
        plans += 1
    print(f"[PASS] criterion 5: sum p <= rho*gamma*(n-1) exactly on "
          f"{plans} plans")


def test_06_sampled_cuts_concentrate_and_unbiased():
    # concentration: 50 seeded runs, every cut of every run inside (1 +- 2eps)
    eps = 0.5
    for seed in range(50):
        h = gen_random(10, 20 + seed % 21, 4, seed=seed)
        res = sparsify_unweighted(h, eps, d=1, seed=child_seed(999, "c6", seed))
        rep = all_cuts_report(h, res.hypergraph, 2 * eps)
        assert rep.cuts_checked == 511 and rep.passed, (seed, rep.max_rel_error)

    # unbiasedness of one fixed cut, 10^4 seeds; the override pushes every
    # keep probability strictly below one so the estimator actually varies
    h = gen_random(10, 30, 4, seed=1234)
    assignment = run_balance(h)
    kappas = assignment.kappa_by_group().values()
    plan = make_plan(assignment, eps, 1, rho_override=min(kappas) / 2)
    assert all(p < 1 for p in plan.p)
    cut = Cut(10, mask_of(range(1, 6)))
    true_w = cut_weight(h, cut)
    assert true_w > 0
    n_trials = 10**4
    total = Fraction(0)
    sq = Fraction(0)
    for s in range(n_trials):
        w = cut_weight(sample_sparsifier(h, plan, seed=s).hypergraph, cut)
        total += w
        sq += w * w
    mean = total / n_trials
    var = (sq / n_trials - mean * mean) * n_trials / (n_trials - 1)
    se = math.sqrt(float(var) / n_trials)
    gap = abs(float(mean - true_w))
    assert gap <= 3 * se
    print(f"[PASS] criterion 6: 50/50 runs with all 511 cuts inside (1+-1.0); "
          f"fixed-cut mean off by {gap:.4f} <= 3*SE={3 * se:.4f} over 10^4 draws")


def test_07_sunflower_kept_verbatim():
    for n in range(2, 11):
        h = gen_sunflower(n)
        res = sparsify_unweighted(h, 0.5, d=1, seed=n)
        assert all(p == 1 for p in res.plan.p)
        assert res.hypergraph == h
    print("[PASS] criterion 7: sunflower n=2..10 returned verbatim, all p=1")


def test_08_footnote_min_cut_exact():
    for n in range(5, 13):
        h = gen_footnote_graph(n)
        pairs = [(e.mask(), e.weight) for e in h.edges]
        full = (1 << n) - 1
        best = None
        for mask in range(1, full, 2):
            inv = full ^ mask
            w = sum((wt for em, wt in pairs if em & mask and em & inv),
                    Fraction(0))
            if best is None or w < best:
                best = w
        assert best == 1 + Fraction(n - 1, n * n), n
    print("[PASS] criterion 8: footnote min cut equals 1+(n-1)/n^2 exactly "
          "for n=5..12")


def test_09_weighted_instances_within_epsilon():
    eps = 0.5
    worst = 0.0
    for seed in range(20):
        if seed % 2 == 0:
            h = gen_footnote_graph(5 + (seed // 2) % 6)
        else:
            h = gen_random(4 + seed % 7, 8 + seed % 7, 3, weighted=True,
                           w_max=1000, seed=seed)
        res = sparsify_weighted(h, eps, seed=child_seed(4242, "c9", seed))
        rep = all_cuts_report(h, res.hypergraph, eps)
        assert rep.passed, (seed, rep.max_rel_error)
        worst = max(worst, float(rep.max_rel_error))
    print(f"[PASS] criterion 9: 20 weighted instances (W<=10^3, n<=10), "
          f"worst exhaustive cut error {worst:.4f} <= {eps}")


def far_bucket_instance(seed):
    """Light connected layer at weight ~1 plus a heavy cluster ~10^9."""
    rng = random.Random(("far", seed).__repr__())
    edges = [HyperEdge((i, i + 1)) for i in range(1, 10)]
    for _ in range(6):
        size = rng.randint(2, 3)
        verts = tuple(sorted(rng.sample(range(1, 11), size)))
        edges.append(HyperEdge(verts, Fraction(rng.randint(1, 4))))
    cluster = sorted(rng.sample(range(1, 11), 6))
    for a, b in zip(cluster, cluster[1:]):
        edges.append(HyperEdge((a, b), Fraction(10**9 * rng.randint(1, 4))))
    return WeightedHypergraph(10, tuple(edges))


def test_10_bucketed_pipeline_quality_and_accounting():
    from hgsparse import fast_sparsify

    eps = 0.5
    worst = 0.0
    for seed in range(20):
        h = far_bucket_instance(seed)
        weights = sorted(e.weight for e in h.edges)
        assert weights[-1] / weights[0] >= 10**9
        res = fast_sparsify(h, eps, seed=child_seed(77, "c10", seed))
        rep = all_cuts_report(h, res.hypergraph, eps)
        assert rep.passed, (seed, rep.max_rel_error)
        worst = max(worst, float(rep.max_rel_error))
        reports = res.notes["bucket_reports"]
        assert reports
        for r in reports:
            assert r.weight_out <= 3 * r.weight_in
        for parity in ("even", "odd"):
            deltas = [r.delta for r in reports if r.parity == parity]
            assert sum(deltas) <= h.n - 1
    print(f"[PASS] criterion 10: 20 instances at weight ratio >= 10^9, worst "
          f"cut error {worst:.4f} <= {eps}; 3x bucket weight and supervertex "
          f"telescoping asserted")


def stream_instance(n, m, seed):
    rng = random.Random(("stream", n, m, seed).__repr__())
    edges = []
    for _ in range(m):
        size = rng.randint(2, 3)
        verts = tuple(sorted(rng.sample(range(1, n + 1), size)))
        edges.append(HyperEdge(verts, Fraction(rng.randint(1, 4))))
    return edges


def test_11_streaming_quality_and_memory():
    eps = 0.5
    t0 = time.monotonic()
    for m in (1500, 10**4):
        edges = stream_instance(10, m, seed=11)
        res = stream_sparsify(iter(edges), 10, m, eps, seed=11)
        # the run itself hard-asserts high_water <= 2*log2^2(m/n)*capacity
        folded = {}
        for e in edges:
            folded[e.vertices] = folded.get(e.vertices, Fraction(0)) + e.weight
        whole = WeightedHypergraph(
            10, tuple(HyperEdge(vs, w) for vs, w in sorted(folded.items())))
        rep = all_cuts_report(whole, res.hypergraph, eps)
        assert rep.passed, (m, rep.max_rel_error)
        log_ratio = math.log2(m / 10)
        f_measured = res.notes["max_flush_out"]
        assert f_measured > 0
        assert res.notes["high_water"] <= 2 * log_ratio * log_ratio * f_measured
        if m == 10**4:
            summary = (f"m=10^4: err {float(rep.max_rel_error):.4f}, "
                       f"high water {res.notes['high_water']} <= "
                       f"{2 * log_ratio * log_ratio * f_measured:.0f} "
                       f"(f={f_measured})")
    dt = time.monotonic() - t0
    print(f"[PASS] criterion 11: {summary}, {dt:.1f}s")


def test_12_survivor_components_connected(balanced_corpus):
    checked = 0
    for label, h, assignment in balanced_corpus:
        if h.m == 0:
            continue
        kappas = assignment.kappa_by_group().values()
        for rho in (None, min(kappas), min(kappas) / 2):
            plan = make_plan(assignment, 0.5, 1, rho_override=rho)
            assert check_same_component(assignment, plan), (label, rho)
            checked += 1
    print(f"[PASS] criterion 12: survivor components connected for "
          f"{checked} plans over every balanced assignment in the corpus")
