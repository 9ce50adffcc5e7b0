"""Data model, file format, generators, and cut evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgsparse import (
    Cut,
    HyperEdge,
    ParseError,
    WeightedHypergraph,
    cut_weight,
    format_weight,
    gen_example,
    gen_footnote_graph,
    gen_random,
    gen_sunflower,
    parse_hypergraph,
    serialize_hypergraph,
)
from oracles import format_weight_loop, mask_of


class SubFraction(Fraction):
    """A Fraction subclass, which HyperEdge keeps without converting."""


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

    def test_bytes_accepted(self):
        h = parse_hypergraph(b"1 2 0\n1 2\n")
        assert h.m == 1


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
            gen_example("example1", 10, 6, edge_cap=10)
        with pytest.raises(ValueError):
            gen_example("example2", 4, 2)  # needs 2r <= n/2
        with pytest.raises(ValueError):
            gen_example("nope", 4, 2)

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
