"""Weighted multi-hypergraphs: data model, file format, generators, cuts.

Vertices are integers 1..n.  Hyperedges are sorted tuples of at least two
distinct vertices with an exact positive rational weight.  Parallel edges
(same vertex set) are allowed and kept as separate entries.

Every public constructor, the parser and the generators check these rules;
what the library builds from checked parts (contraction, restore, fold, the
sampler's copies and output) skips the checks through the `trusted` builds.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence


class ParseError(ValueError):
    """Raised on malformed hypergraph files; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def as_weight(value) -> Fraction:
    """Convert ints, floats, strings, or Fractions to an exact Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


def weight_sum(ws: Iterable[Fraction]) -> Fraction:
    """sum(ws, Fraction(0)) exactly: the numerators of each denominator are
    added as ints, then merged by `denominator_sum`."""
    by_den: dict[int, int] = {}
    for w in ws:
        d = w.denominator
        by_den[d] = by_den.get(d, 0) + w.numerator
    return denominator_sum(by_den)


def denominator_sum(by_den: Mapping[int, int]) -> Fraction:
    """The exact sum of num/d over the items d: num, merged into one running
    num/den by integer gcd steps, with one Fraction built at the end."""
    num, den = 0, 1
    for d, n in by_den.items():
        g = math.gcd(den, d)
        scale = d // g
        num, den = num * scale + n * (den // g), den * scale
    return Fraction(num, den)


def min_weight(ws: Iterable[Fraction]) -> Fraction:
    """min(ws): the least of each denominator by an int compare, then one
    Fraction compare per distinct denominator.  Returns the same object as
    min, and raises ValueError like min when ws is empty."""
    by_den: dict[int, Fraction] = {}
    for w in ws:
        d = w.denominator
        least = by_den.get(d)
        if least is None or w.numerator < least.numerator:
            by_den[d] = w
    if not by_den:
        raise ValueError("min_weight() arg is an empty sequence")
    return min(by_den.values())


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

    @classmethod
    def trusted(cls, vertices: tuple[int, ...], weight: Fraction) -> "HyperEdge":
        """Unchecked: needs a strictly increasing tuple of >= 2 ints, a positive Fraction."""
        e = object.__new__(cls)
        d = e.__dict__  # frozen blocks setattr, not the instance dict
        d["vertices"], d["weight"] = vertices, weight
        return e

    @property
    def size(self) -> int:
        return len(self.vertices)

    def mask(self) -> int:
        m = 0
        for v in self.vertices:
            m |= 1 << (v - 1)
        return m


def vertex_range_message(vertices: Sequence[int], n: int) -> str:
    """The error for an edge with a vertex outside 1..n, naming the first such
    vertex.  Callers test the range first; this runs only on a bad edge."""
    v = next(v for v in vertices if not 1 <= v <= n)
    return f"vertex id {v} out of range [1,{n}]"


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
                raise ValueError(vertex_range_message(e.vertices, self.n))

    @classmethod
    def trusted(cls, n: int, edges: tuple[HyperEdge, ...]) -> "WeightedHypergraph":
        """Unchecked: needs n >= 1 and a tuple of edges that lie within 1..n."""
        h = object.__new__(cls)
        d = h.__dict__
        d["n"], d["edges"] = n, edges
        return h

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
    inv = ((1 << h.n) - 1) ^ cut.mask
    return weight_sum(e.weight for e in h.edges if (em := e.mask()) & cut.mask and em & inv)


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


def content_lines(source: str | Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, tokens) of every line that is neither blank
    nor a '%' comment.

    `source` is the whole text as one str, or an iterable of text lines
    such as an open text file, which is read one line at a time.  Either
    way lines are numbered as `str.splitlines()` numbers the whole text.
    """
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
        tok = toks[0]
        try:
            # int parses a decimal token faster than Fraction's regex does;
            # isdecimal keeps out "+3" and "3_0", which int also accepts
            w = Fraction(int(tok)) if tok.isdecimal() else Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise ParseError(lineno, f"bad weight {tok!r}") from None
        vtoks = toks[1:]
    else:
        w = Fraction(1)
        vtoks = toks
    try:
        verts = sorted({int(t) for t in vtoks})
    except ValueError:
        raise ParseError(lineno, "bad vertex id") from None
    if verts[0] < 1 or verts[-1] > n:
        raise ParseError(lineno, vertex_range_message(verts, n))
    if len(verts) < 2:
        raise ParseError(lineno, "hyperedge has fewer than 2 distinct vertices")
    if w.numerator <= 0:
        raise ParseError(lineno, f"non-positive weight {toks[0]}")
    return HyperEdge.trusted(tuple(verts), w)


def parse_hypergraph(text: str | Iterable[str]) -> WeightedHypergraph:
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
    return WeightedHypergraph.trusted(n, tuple(edges))  # each line checked its range


# ---------------------------------------------------------------------------
# named generators
# ---------------------------------------------------------------------------

EDGE_LIMIT = 10**6  # checked by each generator after its arguments, before any edge is built
ENTRY_LIMIT = 10**7  # the same for the vertex entries, the sum of |e| over the edges


def _check_size(count: int, entries: int) -> None:
    if count > EDGE_LIMIT:
        raise ValueError(f"edge count {count} exceeds the limit {EDGE_LIMIT}")
    if entries > ENTRY_LIMIT:
        raise ValueError(f"{entries} vertex entries exceed the limit {ENTRY_LIMIT}")


def gen_sunflower(n: int) -> WeightedHypergraph:
    """n petal edges sharing a common core of n vertices.

    Vertex v_i (i <= n) appears only in edge i, so cutting off {v_i} costs
    exactly 1; the instance is the standard witness that no reweighting of a
    single edge can stand in for several parallel petals.
    """
    if n < 1:
        raise ValueError("sunflower needs n >= 1")
    _check_size(n, n * (n + 1))
    core = tuple(range(n + 1, 2 * n + 1))
    edges = tuple(HyperEdge((i,) + core) for i in range(1, n + 1))
    return WeightedHypergraph(2 * n, edges)


def gen_footnote_graph(n: int) -> WeightedHypergraph:
    """One unit hyperedge over all n vertices plus all pairs at weight 1/n^2."""
    if n < 3:
        raise ValueError("footnote graph needs n >= 3")
    _check_size(1 + n * (n - 1) // 2, n * n)
    w = Fraction(1, n * n)
    edges = [HyperEdge(tuple(range(1, n + 1)))]
    for u, v in itertools.combinations(range(1, n + 1), 2):
        edges.append(HyperEdge((u, v), w))
    return WeightedHypergraph(n, tuple(edges))


def gen_example(which: str, n: int, r: int) -> WeightedHypergraph:
    """Two structured families on 2n vertices used as sampling stress tests."""
    if which == "example1":
        if r < 2 or r - 1 > n or n < 1:
            raise ValueError(f"example1 needs 2 <= r <= n+1, got n={n} r={r}")
        count = n * math.comb(n, r - 1)
        _check_size(count, r * count)
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
        _check_size(count, 2 * r * count)
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
) -> WeightedHypergraph:
    """Random multi-hypergraph, deterministic in the seed."""
    if n < 2:
        raise ValueError("random hypergraph needs n >= 2")
    if n > sys.maxsize:  # random.sample takes a range no longer than this
        raise ValueError("n must fit in a machine index")
    if m < 0:
        raise ValueError("edge count must be nonnegative")
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    if weighted and w_max < 1:
        raise ValueError("w_max must be at least 1")
    if weighted and w_max > sys.float_info.max:  # weights are drawn as floats
        raise ValueError("w_max must fit in a float")
    top = min(r_max, n)
    _check_size(m, m * top)  # at most top vertices per edge
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        size = rng.randint(2, top)
        verts = tuple(sorted(rng.sample(range(1, n + 1), size)))
        w = Fraction(rng.uniform(1.0, float(w_max))) if weighted else Fraction(1)
        edges.append(HyperEdge(verts, w))
    return WeightedHypergraph(n, tuple(edges))
