"""Weighted multi-hypergraphs: data model, file format, generators, cuts.

Vertices are integers 1..n.  Hyperedges are sorted tuples of at least two
distinct vertices with an exact positive rational weight.  Parallel edges
(same vertex set) are allowed and kept as separate entries.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

Weight = Fraction


class ParseError(ValueError):
    """Raised on malformed hypergraph files; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


def as_weight(value) -> Fraction:
    """Convert ints, floats, strings, or Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(value)
    return Fraction(str(value)) if isinstance(value, str) else Fraction(value)


@dataclass(frozen=True)
class HyperEdge:
    vertices: tuple[int, ...]
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        # both checks run at C speed: a pairwise map, and an int compare (a
        # Fraction's denominator is always positive)
        vs = self.vertices
        if len(vs) < 2:
            raise ValueError("hyperedge needs at least 2 distinct vertices")
        if not all(map(operator.lt, vs, vs[1:])):
            raise ValueError("hyperedge vertices must be strictly increasing")
        w = self.weight
        if not isinstance(w, Fraction):
            w = as_weight(w)
            object.__setattr__(self, "weight", w)
        if w.numerator <= 0:
            raise ValueError("hyperedge weight must be positive")

    @property
    def size(self) -> int:
        return len(self.vertices)

    def mask(self) -> int:
        m = 0
        for v in self.vertices:
            m |= 1 << (v - 1)
        return m


@dataclass(frozen=True)
class WeightedHypergraph:
    n: int
    edges: tuple[HyperEdge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        if not isinstance(self.edges, tuple):
            object.__setattr__(self, "edges", tuple(self.edges))
        for e in self.edges:
            if e.vertices[0] < 1 or e.vertices[-1] > self.n:
                raise ValueError(
                    f"vertex id {e.vertices[0] if e.vertices[0] < 1 else e.vertices[-1]}"
                    f" out of range [1,{self.n}]"
                )

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_unweighted(self) -> bool:
        return all(e.weight == 1 for e in self.edges)


@dataclass(frozen=True)
class Cut:
    """One side S of a 2-cut, encoded as a bitmask (bit v-1 set iff v in S)."""

    n: int
    mask: int

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.mask <= 0 or self.mask >= full:
            raise ValueError("cut side must be a nonempty proper vertex subset")


def cut_weight(h: WeightedHypergraph, cut: Cut) -> Fraction:
    if cut.n != h.n:
        raise ValueError("cut and hypergraph disagree on vertex count")
    full = (1 << h.n) - 1
    inv = full ^ cut.mask
    total = Fraction(0)
    for e in h.edges:
        em = e.mask()
        if em & cut.mask and em & inv:
            total += e.weight
    return total


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------
#
# Line 1: "<m> <n> <fmt>" with fmt 1 (weighted) or 0 (unweighted).  Then m
# edge lines, "<weight> <v1> ... <vk>" when weighted, "<v1> ... <vk>"
# otherwise.  Lines starting with '%' are comments.  Weights are decimal
# strings when exact in decimal, "p/q" otherwise, so that round trips are
# lossless.


def format_weight(w: Fraction) -> str:
    if w.denominator == 1:
        return str(w.numerator)
    den = w.denominator
    twos = (den & -den).bit_length() - 1  # the lowest set bit
    den >>= twos
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{w.numerator}/{w.denominator}"
    k = max(twos, fives)
    scaled = w.numerator * 10**k // w.denominator
    digits = str(abs(scaled)).rjust(k + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def serialize_hypergraph(h: WeightedHypergraph) -> str:
    # always the weighted format; the unweighted one is accepted on input only
    lines = [f"{h.m} {h.n} 1"]
    for e in h.edges:
        verts = " ".join(str(v) for v in e.vertices)
        lines.append(f"{format_weight(e.weight)} {verts}")
    return "\n".join(lines) + "\n"


def content_lines(source) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, tokens) of every line that is neither blank
    nor a '%' comment.

    `source` is the whole text (str, or ASCII bytes) or an iterable of text
    lines such as an open file, which is read one line at a time.  Either
    way lines are numbered as `str.splitlines()` numbers the whole text.
    """
    if isinstance(source, bytes):
        source = source.decode("ascii")
    if isinstance(source, str):
        source = (source,)
    lines = (line for chunk in source for line in chunk.splitlines())
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("%"):
            yield lineno, line.split()


def parse_edge_line(lineno: int, toks: Sequence[str], n: int, fmt: int) -> HyperEdge:
    """One edge line, "<weight> <v1> ..." when fmt is 1, "<v1> ..." when 0."""
    if fmt == 1:
        if len(toks) < 2:
            raise ParseError(lineno, "weighted edge line needs a weight and vertices")
        try:
            w = Fraction(toks[0])
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"bad weight {toks[0]!r}") from None
        vtoks = toks[1:]
    else:
        w = Fraction(1)
        vtoks = toks
    try:
        verts = sorted({int(t) for t in vtoks})
    except ValueError:
        raise ParseError(lineno, "bad vertex id") from None
    for v in verts:
        if not 1 <= v <= n:
            raise ParseError(lineno, f"vertex id {v} out of range [1,{n}]")
    if len(verts) < 2:
        raise ParseError(lineno, "hyperedge has fewer than 2 distinct vertices")
    if w.numerator <= 0:
        raise ParseError(lineno, f"non-positive weight {toks[0]}")
    return HyperEdge(tuple(verts), w)


def parse_hypergraph(text) -> WeightedHypergraph:
    header = None
    header_line = 0
    edges: list[HyperEdge] = []
    m = n = fmt = 0
    for lineno, toks in content_lines(text):
        if header is None:
            if len(toks) != 3:
                raise ParseError(lineno, "malformed header, expected '<m> <n> <fmt>'")
            try:
                m, n, fmt = (int(t) for t in toks)
            except ValueError:
                raise ParseError(lineno, "malformed header, expected three integers") from None
            if n < 1 or m < 0 or fmt not in (0, 1):
                raise ParseError(lineno, f"malformed header values m={m} n={n} fmt={fmt}")
            header = (m, n, fmt)
            header_line = lineno
            continue
        if len(edges) >= m:
            raise ParseError(lineno, f"more than {m} edge lines")
        edges.append(parse_edge_line(lineno, toks, n, fmt))
    if header is None:
        raise ParseError(1, "empty input, expected a header line")
    if len(edges) != m:
        raise ParseError(header_line, f"expected {m} edge lines, found {len(edges)}")
    return WeightedHypergraph(n, tuple(edges))


# ---------------------------------------------------------------------------
# named generators
# ---------------------------------------------------------------------------


def gen_sunflower(n: int) -> WeightedHypergraph:
    """n petal edges sharing a common core of n vertices.

    Vertex v_i (i <= n) appears only in edge i, so cutting off {v_i} costs
    exactly 1; the instance is the standard witness that no reweighting of a
    single edge can stand in for several parallel petals.
    """
    if n < 1:
        raise ValueError("sunflower needs n >= 1")
    core = tuple(range(n + 1, 2 * n + 1))
    edges = tuple(HyperEdge((i,) + core) for i in range(1, n + 1))
    return WeightedHypergraph(2 * n, edges)


def gen_footnote_graph(n: int) -> WeightedHypergraph:
    """One unit hyperedge over all n vertices plus all pairs at weight 1/n^2."""
    if n < 3:
        raise ValueError("footnote graph needs n >= 3")
    w = Fraction(1, n * n)
    edges = [HyperEdge(tuple(range(1, n + 1)))]
    for u, v in itertools.combinations(range(1, n + 1), 2):
        edges.append(HyperEdge((u, v), w))
    return WeightedHypergraph(n, tuple(edges))


def check_edge_count(count: int, edge_cap: int) -> None:
    """Refuse to build a hypergraph of more than edge_cap edges."""
    if count > edge_cap:
        raise ValueError(f"edge count {count} exceeds cap {edge_cap}")


def gen_example(which: str, n: int, r: int, edge_cap: int = 10**6) -> WeightedHypergraph:
    """Two structured families on 2n vertices used as sampling stress tests."""
    if which == "example1":
        if r < 2 or r - 1 > n or n < 1:
            raise ValueError(f"example1 needs 2 <= r <= n+1, got n={n} r={r}")
        count = n * math.comb(n, r - 1)
        check_edge_count(count, edge_cap)
        second = range(n + 1, 2 * n + 1)
        edges = []
        for i in range(1, n + 1):
            for rest in itertools.combinations(second, r - 1):
                edges.append(HyperEdge((i,) + rest))
        return WeightedHypergraph(2 * n, tuple(edges))
    if which == "example2":
        if r < 1 or 4 * r > n:
            raise ValueError(f"example2 needs 1 <= r and 2r <= n/2, got n={n} r={r}")
        count = 2 + 2 * math.comb(n, 2 * r)
        check_edge_count(count, edge_cap)
        e0 = HyperEdge(tuple(range(1, 2 * r)) + (n + 1,))
        e1 = HyperEdge(tuple(range(1, r + 1)) + tuple(range(n + 1, n + r + 1)))
        edges = [e0, e1]
        for half in (range(1, n + 1), range(n + 1, 2 * n + 1)):
            for sub in itertools.combinations(half, 2 * r):
                edges.append(HyperEdge(sub))
        return WeightedHypergraph(2 * n, tuple(edges))
    raise ValueError(f"unknown example family {which!r}")


def gen_random(
    n: int,
    m: int,
    r_max: int,
    weighted: bool = False,
    w_max: int = 1,
    seed: int = 0,
    edge_cap: int = 10**6,
) -> WeightedHypergraph:
    """Random multi-hypergraph, deterministic in the seed."""
    if n < 2:
        raise ValueError("random hypergraph needs n >= 2")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    if weighted and w_max < 1:
        raise ValueError("w_max must be at least 1")
    check_edge_count(m, edge_cap)
    rng = random.Random(seed)
    top = min(r_max, n)
    edges = []
    for _ in range(m):
        size = rng.randint(2, top)
        verts = tuple(sorted(rng.sample(range(1, n + 1), size)))
        w = Fraction(rng.uniform(1.0, float(w_max))) if weighted else Fraction(1)
        edges.append(HyperEdge(verts, w))
    return WeightedHypergraph(n, tuple(edges))
