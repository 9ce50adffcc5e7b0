"""Data model, file format, generators, and cut evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgsparse import (
    Cut,
    HyperEdge,
    ParseError,
    StreamState,
    WeightedHypergraph,
    as_weight,
    cut_weight,
    fast_sparsify,
    format_weight,
    gen_example,
    gen_footnote_graph,
    gen_random,
    gen_sunflower,
    parse_hypergraph,
    serialize_hypergraph,
    sparsify_weighted,
    stream_sparsify,
)
from conftest import fraction_builds, fraction_op_counts
from hgsparse import hypergraph
from hgsparse.hypergraph import min_weight, parse_edge_line, weight_sum
from oracles import (
    format_weight_loop,
    mask_of,
    parse_edge_line_by_fraction,
    weight_sum_by_fractions,
)


class SubFraction(Fraction):
    """A Fraction subclass, which HyperEdge keeps without converting."""


# a few shared denominators next to many distinct large ones, and integers
WEIGHT_LISTS = st.lists(st.builds(
    Fraction, st.integers(1, 10**30),
    st.sampled_from([1, 3, 2**64 + 13]) | st.integers(1, 2**100)), max_size=30)

# 0 to 60 terms over powers of 2, small primes and random 61-bit ints
MIXED_DENOMINATORS = st.lists(st.builds(
    Fraction, st.integers(-10**20, 10**20),
    st.integers(0, 64).map(lambda k: 2**k) | st.sampled_from([3, 5, 7, 11, 13])
    | st.integers(2**60, 2**61 - 1)), max_size=60)

# each one parses alike in both weight parsers, or fails alike; \u0663 is an
# Arabic-Indic 3 and \uff11\uff12 a full-width 12
WEIGHT_TOKENS = ["007", "+3", "-0", "3_0", "\u0663", "\uff11\uff12", "1e3", "3/4",
                 "1/0", "nan", "inf", "0", "12", "2.5", "-2", "0x10", "\u0663/4", ""]
# n = 5: in range; out of range below, above (two ids, the lower one named)
# or both; too few distinct ids; not a number
VERTEX_TOKENS = [["1", "2"], ["5", "3", "1"], ["0", "3"], ["3", "7", "6"], ["-1", "9", "7"],
                 ["3", "3"], ["x", "2"], ["2"]]


def parse_outcome(parse, toks, n, fmt):
    """The edge a line parser returns, or the line and message it raises."""
    try:
        return parse(7, toks, n, fmt)
    except ParseError as ex:
        return ex.line, str(ex)


class TestWeightArithmetic:
    @given(WEIGHT_LISTS)
    def test_sum_matches_fraction_sum(self, ws):
        total = weight_sum(iter(ws))
        assert type(total) is Fraction and total == sum(ws, Fraction(0))

    @given(WEIGHT_LISTS.filter(bool))
    def test_min_is_the_same_object_as_min(self, ws):
        assert min_weight(iter(ws)) is min(ws)

    def test_no_fraction_add_and_one_build(self, monkeypatch):
        # none, one and many distinct denominators, coprime or not, are all
        # merged in ints and normalized once
        dens = [3, 3, 2, 2**61 - 1, 10**30, 7, 12, 1]
        for k in range(len(dens) + 1):
            ws = [Fraction(j + 2, d) for j, d in enumerate(dens[:k])]
            ops = fraction_op_counts(monkeypatch, lambda: weight_sum(ws))
            assert ops["__add__"] == ops["__radd__"] == 0
            assert fraction_builds(monkeypatch, lambda: weight_sum(ws)) == 1
            assert weight_sum(ws) == sum(ws, Fraction(0))

    @given(MIXED_DENOMINATORS)
    def test_sum_matches_the_per_denominator_oracle(self, ws):
        total = weight_sum(ws)
        assert type(total) is Fraction
        assert total == weight_sum_by_fractions(ws) == sum(ws, Fraction(0))

    @pytest.mark.parametrize("text, want", [
        ("0.1", Fraction(1, 10)), ("-2.50", Fraction(-5, 2)), ("1e-3", Fraction(1, 1000)),
        ("3/4", Fraction(3, 4)), (" 7/14 ", Fraction(1, 2)), ("-6/4", Fraction(-3, 2)),
        ("12", Fraction(12)), ("123456789.000000000123", Fraction(123456789000000000123, 10**12)),
    ])
    def test_strings_parse_exactly(self, text, want):
        got = as_weight(text)
        assert type(got) is Fraction and got == want == Fraction(str(text))

    def test_empty(self):
        assert weight_sum([]) == 0 and type(weight_sum([])) is Fraction
        for least in (min, min_weight):
            with pytest.raises(ValueError, match="empty sequence"):
                least([])


class TestHyperEdge:
    def test_sorted_distinct_required(self):
        for vertices, message in [
            ((2, 1), "hyperedge vertices must be strictly increasing"),
            ((1, 1), "hyperedge vertices must be strictly increasing"),
            ((1, 3, 2), "hyperedge vertices must be strictly increasing"),
            ((3,), "hyperedge needs at least 2 distinct vertices"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                HyperEdge(vertices)
        # the vertex checks come first
        with pytest.raises(ValueError, match="strictly increasing"):
            HyperEdge((2, 1), 0)

    def test_positive_weight_required(self):
        for weight in (0, "0", Fraction(0, 7), -0.0, Fraction(-1, 3), "-2.5",
                       SubFraction(-1, 3)):
            with pytest.raises(ValueError, match="^hyperedge weight must be positive$"):
                HyperEdge((1, 2), weight)

    def test_weight_made_exact(self):
        assert HyperEdge((2, 4), "2.5").weight == Fraction(5, 2)
        assert HyperEdge((2, 4), 0.5).weight == Fraction(1, 2)
        w = SubFraction(1, 3)
        assert HyperEdge((2, 4), w).weight is w

    def test_mask(self):
        assert HyperEdge((1, 3)).mask() == 0b101


class TestParse:
    def test_basic_weighted(self):
        h = parse_hypergraph("2 3 1\n1.0 1 2 3\n2.5 1 3\n")
        assert h.n == 3 and h.m == 2
        assert h.edges[0].vertices == (1, 2, 3) and h.edges[0].weight == 1
        assert h.edges[1].vertices == (1, 3) and h.edges[1].weight == Fraction(5, 2)

    def test_dedup_and_sort(self):
        h = parse_hypergraph("1 4 1\n1 4 4 2\n")
        assert h.edges[0].vertices == (2, 4)
        assert h.edges[0].weight == 1

    @pytest.mark.parametrize("tok", WEIGHT_TOKENS)
    def test_weight_tokens_match_the_fraction_parser(self, tok):
        for verts in VERTEX_TOKENS:
            assert (parse_outcome(parse_edge_line, [tok, *verts], 5, 1)
                    == parse_outcome(parse_edge_line_by_fraction, [tok, *verts], 5, 1))

    @given(st.lists(st.text("0123456789+-_/.e\u0663", min_size=1, max_size=6)
                    | st.integers(-2, 8).map(str), min_size=1, max_size=5),
           st.integers(1, 6), st.sampled_from([0, 1]))
    def test_lines_match_the_fraction_parser(self, toks, n, fmt):
        assert (parse_outcome(parse_edge_line, toks, n, fmt)
                == parse_outcome(parse_edge_line_by_fraction, toks, n, fmt))

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError) as ex:
            parse_hypergraph("1 3 1\n1 2 5\n")
        assert ex.value.line == 2
        assert "vertex id 5 out of range [1,3]" in str(ex.value)

    def test_nonpositive_weight_line(self):
        for weight in ("0", "-1", "0/5", "-0.0", "-1/3"):
            with pytest.raises(ParseError) as ex:
                parse_hypergraph(f"2 3 1\n% comment\n1 1 2\n{weight} 2 3\n")
            assert ex.value.line == 4
            assert str(ex.value) == f"line 4: non-positive weight {weight}"

    def test_unweighted_format(self):
        h = parse_hypergraph("2 4 0\n1 2\n3 4 1\n")
        assert h.m == 2
        assert all(e.weight == 1 for e in h.edges)
        assert h.edges[1].vertices == (1, 3, 4)

    def test_comments_and_blanks(self):
        h = parse_hypergraph("% header comment\n1 3 1\n\n% mid\n2 1 2\n")
        assert h.m == 1 and h.edges[0].weight == 2

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_hypergraph("3 1\n")
        with pytest.raises(ParseError):
            parse_hypergraph("a b c\n")
        with pytest.raises(ParseError):
            parse_hypergraph("1 3 7\n1 1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_hypergraph("2 3 1\n1 1 2\n")
        with pytest.raises(ParseError):
            parse_hypergraph("1 3 1\n1 1 2\n1 1 3\n")

    def test_singleton_edge_rejected(self):
        with pytest.raises(ParseError):
            parse_hypergraph("1 3 0\n2 2\n")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ParseError):
            parse_hypergraph("1 3 1\n0 1 2\n")
        with pytest.raises(ParseError):
            parse_hypergraph("1 3 1\n-2 1 2\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_hypergraph("")


class TestSerialize:
    def test_single_unit_edge(self):
        h = WeightedHypergraph(3, (HyperEdge((1, 2, 3)),))
        assert serialize_hypergraph(h) == "1 3 1\n1 1 2 3\n"

    def test_empty_edges(self):
        assert serialize_hypergraph(WeightedHypergraph(5, ())) == "0 5 1\n"

    def test_round_trip_generators(self):
        for h in (gen_sunflower(4), gen_footnote_graph(5),
                  gen_example("example1", 3, 2), gen_random(6, 9, 4, True, 7, seed=3)):
            back = parse_hypergraph(serialize_hypergraph(h))
            assert back.n == h.n
            assert [(e.vertices, e.weight) for e in back.edges] == \
                   [(e.vertices, e.weight) for e in h.edges]

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_arbitrary_rationals(self, n, data):
        edges = []
        for _ in range(data.draw(st.integers(0, 8))):
            size = data.draw(st.integers(2, n))
            verts = tuple(sorted(data.draw(
                st.sets(st.integers(1, n), min_size=size, max_size=size))))
            w = Fraction(data.draw(st.integers(1, 400)),
                         data.draw(st.integers(1, 64)))
            edges.append(HyperEdge(verts, w))
        h = WeightedHypergraph(n, tuple(edges))
        assert parse_hypergraph(serialize_hypergraph(h)) == h

    # k = 1 (a decimal weight, where the factor counts matter) most often
    @given(st.integers(-10**12, 10**12).filter(bool), st.integers(0, 300),
           st.integers(0, 40), st.sampled_from([1, 1, 1, 3, 7, 9, 11]))
    def test_format_weight_matches_division_loop(self, num, twos, fives, k):
        w = Fraction(num, 2**twos * 5**fives * k)
        assert format_weight(w) == format_weight_loop(w)
        assert Fraction(format_weight(w)) == w

    def test_format_weight_exact(self):
        assert format_weight(Fraction(5, 2)) == "2.5"
        assert format_weight(Fraction(1, 3)) == "1/3"
        assert format_weight(Fraction(7)) == "7"
        assert format_weight(Fraction(1, 100)) == "0.01"
        for w in (Fraction(5, 2), Fraction(1, 3), Fraction(-3, 8), Fraction(123, 625)):
            assert Fraction(format_weight(w)) == w


class TestCut:
    def test_bounds(self):
        with pytest.raises(ValueError):
            Cut(3, 0)
        with pytest.raises(ValueError):
            Cut(3, 0b111)

    def test_cut_weight_sunflower_petal(self):
        h = gen_sunflower(2)
        assert cut_weight(h, Cut(4, mask_of([1]))) == 1

    def test_cut_weight_no_crossing(self):
        h = WeightedHypergraph(4, (HyperEdge((1, 2)),))
        assert cut_weight(h, Cut(4, mask_of([1, 2]))) == 0

    def test_footnote_half_cut(self):
        h = gen_footnote_graph(10)
        assert cut_weight(h, Cut(10, mask_of(range(1, 6)))) == 1 + Fraction(25, 100)

    @given(st.integers(2, 7), st.integers(0, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_complement_symmetry(self, n, m, data):
        h = gen_random(n, m, 4, weighted=True, w_max=5,
                       seed=data.draw(st.integers(0, 999)))
        mask = data.draw(st.integers(1, (1 << n) - 2))
        assert cut_weight(h, Cut(n, mask)) == cut_weight(h, Cut(n, ((1 << n) - 1) ^ mask))


class TestGenerators:
    def test_sunflower_small(self):
        h = gen_sunflower(2)
        assert h.n == 4
        assert [e.vertices for e in h.edges] == [(1, 3, 4), (2, 3, 4)]
        assert all(e.weight == 1 for e in h.edges)

    def test_sunflower_n1(self):
        h = gen_sunflower(1)
        assert h.n == 2 and h.edges[0].vertices == (1, 2)

    def test_sunflower_petal_cuts(self):
        h = gen_sunflower(10)
        assert cut_weight(h, Cut(20, mask_of([3]))) == 1
        assert sum(e.weight for e in h.edges) == 10
        for i in range(1, 11):
            assert cut_weight(h, Cut(20, mask_of([i]))) == 1

    def test_sunflower_invalid(self):
        with pytest.raises(ValueError):
            gen_sunflower(0)

    def test_footnote_structure(self):
        h = gen_footnote_graph(3)
        assert h.n == 3 and h.m == 4
        assert h.edges[0].vertices == (1, 2, 3) and h.edges[0].weight == 1
        assert all(e.size == 2 and e.weight == Fraction(1, 9) for e in h.edges[1:])
        with pytest.raises(ValueError):
            gen_footnote_graph(2)

    def test_example1_counts(self):
        h = gen_example("example1", 3, 2)
        assert h.m == 9
        assert all(e.size == 2 for e in h.edges)
        assert h.n == 6

    def test_example2_counts_and_edges(self):
        import math

        h = gen_example("example2", 8, 2)
        assert h.m == 2 + 2 * math.comb(8, 4)
        assert h.edges[0].vertices == (1, 2, 3, 9)
        assert h.edges[1].vertices == (1, 2, 9, 10)

    def test_example_caps_and_validation(self):
        with pytest.raises(ValueError):
            gen_example("example1", 200, 4)  # 262,680,000 edges, refused before any is built
        with pytest.raises(ValueError):
            gen_example("example2", 4, 2)  # needs 2r <= n/2
        with pytest.raises(ValueError):
            gen_example("nope", 4, 2)

    def test_edge_limit(self, monkeypatch):
        monkeypatch.setattr(hypergraph, "EDGE_LIMIT", 6)
        assert gen_sunflower(6).m == gen_random(3, 6, 2).m == 6
        for build, count in ((lambda: gen_sunflower(7), 7), (lambda: gen_random(3, 7, 2), 7),
                             (lambda: gen_footnote_graph(4), 7),
                             (lambda: gen_example("example1", 3, 2), 9),
                             (lambda: gen_example("example2", 4, 1), 14)):
            with pytest.raises(ValueError, match=rf"^edge count {count} exceeds the limit 6$"):
                build()

    def test_entry_limit(self, monkeypatch):
        # each family's vertex-entry count, built at the limit and refused one
        # below it; random's count is exact when every edge has r_max vertices
        for build, entries in ((lambda: gen_sunflower(4), 20),
                               (lambda: gen_footnote_graph(4), 16),
                               (lambda: gen_example("example1", 3, 2), 18),
                               (lambda: gen_example("example2", 4, 1), 28),
                               (lambda: gen_random(3, 7, 2), 14)):
            monkeypatch.setattr(hypergraph, "ENTRY_LIMIT", entries)
            assert sum(e.size for e in build().edges) == entries
            monkeypatch.setattr(hypergraph, "ENTRY_LIMIT", entries - 1)
            with pytest.raises(ValueError,
                               match=rf"^{entries} vertex entries exceed the limit {entries - 1}$"):
                build()
        # random bounds each edge by min(r_max, n) vertices
        monkeypatch.setattr(hypergraph, "ENTRY_LIMIT", 15)
        assert sum(e.size for e in gen_random(3, 5, 9).edges) <= 15
        monkeypatch.setattr(hypergraph, "ENTRY_LIMIT", 14)
        with pytest.raises(ValueError, match=r"^15 vertex entries exceed the limit 14$"):
            gen_random(3, 5, 9)
        # the edge count is checked first
        monkeypatch.setattr(hypergraph, "EDGE_LIMIT", 6)
        with pytest.raises(ValueError, match=r"^edge count 7 exceeds the limit 6$"):
            gen_sunflower(7)

    def test_random_deterministic(self):
        a = gen_random(6, 10, 4, weighted=True, w_max=5, seed=7)
        b = gen_random(6, 10, 4, weighted=True, w_max=5, seed=7)
        assert [(e.vertices, e.weight) for e in a.edges] == \
               [(e.vertices, e.weight) for e in b.edges]
        c = gen_random(6, 10, 4, weighted=True, w_max=5, seed=8)
        assert [(e.vertices, e.weight) for e in a.edges] != \
               [(e.vertices, e.weight) for e in c.edges]

    def test_random_unweighted_and_sizes(self):
        h = gen_random(6, 10, 4, seed=7)
        assert all(e.weight == 1 for e in h.edges)
        assert all(2 <= e.size <= 4 for e in h.edges)


class TestHypergraphType:
    def test_vertex_range_enforced(self):
        with pytest.raises(ValueError):
            WeightedHypergraph(2, (HyperEdge((1, 3)),))

    @pytest.mark.parametrize("verts,bad", [((1, 12, 15), 12), ((0, 3, 12), 0)])
    def test_first_bad_vertex_named_on_every_path(self, verts, bad):
        message = f"vertex id {bad} out of range [1,10]"
        line = " ".join(map(str, verts))
        with pytest.raises(ParseError) as parsed:
            parse_hypergraph(f"1 10 1\n1 {line}\n")
        assert str(parsed.value) == f"line 2: {message}"
        with pytest.raises(ValueError) as built:
            WeightedHypergraph(10, (HyperEdge(verts),))
        assert str(built.value) == message
        with pytest.raises(ValueError) as pushed:
            StreamState(10, 5, 0.5).push(HyperEdge(verts))
        assert str(pushed.value) == message

    def test_isolated_vertices_allowed(self):
        h = WeightedHypergraph(9, (HyperEdge((1, 2)),))
        assert h.n == 9

    def test_total_weight(self):
        h = WeightedHypergraph(3, (HyperEdge((1, 2), Fraction(1, 2)),
                                   HyperEdge((1, 2), Fraction(3, 2))))
        assert sum(e.weight for e in h.edges) == 2
        assert not h.is_unweighted()


class TestRoundTripExtremes:
    @given(st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_huge_and_long_decimal_weights(self, n, data):
        # denominators 2^a 5^b print as long decimals, others as huge p/q
        edges = []
        for _ in range(data.draw(st.integers(0, 6))):
            size = data.draw(st.integers(2, n))
            verts = tuple(sorted(data.draw(
                st.sets(st.integers(1, n), min_size=size, max_size=size))))
            den = (2 ** data.draw(st.integers(0, 80)) * 5 ** data.draw(st.integers(0, 80))
                   * data.draw(st.sampled_from([1, 3, 10**9 + 7])))
            w = Fraction(data.draw(st.integers(1, 10**40)), den)
            edges.append(HyperEdge(verts, w))
        h = WeightedHypergraph(n, tuple(edges))
        assert parse_hypergraph(serialize_hypergraph(h)) == h


def checked_trusted(fired):
    """Stand-ins for the two trusted constructors that build through the
    checked ones, and first test the rest of the stated precondition: a
    tuple of vertices and a Fraction weight, a tuple of HyperEdges.  A
    failed check is recorded in `fired` and raised."""
    def guarded(build, precondition):
        def make(*args):
            try:
                if not precondition(*args):
                    raise ValueError(f"precondition broken by {args!r}")
                return build(*args)
            except ValueError as exc:
                fired.append(exc)
                raise
        return make
    edge = guarded(HyperEdge, lambda vs, w: type(vs) is tuple and isinstance(w, Fraction))
    hypergraph = guarded(WeightedHypergraph, lambda n, edges: type(edges) is tuple and all(
        isinstance(e, HyperEdge) for e in edges))
    return edge, hypergraph


@st.composite
def weighted_inputs(draw):
    n = draw(st.integers(2, 6))
    edges = []
    for _ in range(draw(st.integers(1, 10))):
        size = draw(st.integers(2, min(n, 4)))
        verts = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=size, max_size=size))))
        w = draw(st.integers(1, 9) | st.builds(Fraction, st.integers(1, 60), st.integers(1, 7)))
        edges.append(HyperEdge(verts, Fraction(w)))
    return WeightedHypergraph(n, tuple(edges))


def outcome(call):
    """What `call()` returns, or the type and message of what it raises."""
    try:
        res = call()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return res.hypergraph, res.origin, res.sum_p, res.plan, res.notes


class TestTrustedBuilds:
    """Internal builds skip the checks; built through the checked
    constructors instead, every run gives the same output and no check
    fires."""

    @given(weighted_inputs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_trusted_builds_equal_checked_builds(self, h, data):
        seed = data.draw(st.integers(0, 2**32))
        rho = data.draw(st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(5)]))
        capacity = data.draw(st.integers(max(4, h.n), h.n + 8))
        calls = [
            lambda: sparsify_weighted(h, 0.5, seed=seed, rho_override=rho),
            lambda: fast_sparsify(h, 0.5, seed=seed),
            lambda: stream_sparsify(iter(h.edges), h.n, h.m, 0.5, seed=seed, capacity=capacity),
        ]
        want = [outcome(call) for call in calls]
        # below p = 1: rho is under the copy count, so the sampler draws
        assert want[0][3].rho < sum(want[0][3].counts)
        fired = []
        edge, hypergraph = checked_trusted(fired)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(HyperEdge, "trusted", edge)
            mp.setattr(WeightedHypergraph, "trusted", hypergraph)
            got = [outcome(call) for call in calls]
        assert fired == []
        assert got == want

    def test_the_oracle_sees_a_bad_build(self):
        fired = []
        edge, hypergraph = checked_trusted(fired)
        for build in (lambda: edge((2, 1), Fraction(1)), lambda: edge((1, 2), Fraction(0)),
                      lambda: edge([1, 2], Fraction(1)), lambda: edge((1, 2), 1),
                      lambda: hypergraph(2, (HyperEdge((1, 3)),)),
                      lambda: hypergraph(3, [HyperEdge((1, 3))])):
            with pytest.raises(ValueError):
                build()
        assert len(fired) == 6
