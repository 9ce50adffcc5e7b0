"""The three workloads: inputs, the timed call, and the output checks.

Every workload has a fixed shape: its hypergraph is drawn once from a
constant label, and `--seed` only relabels the vertices and picks the
sampler seed.  Runs with different seeds therefore do the same amount of
work, so their timings can be compared, while no run can lean on one
fixed input.  Why each workload exists is in README.md.

A workload object is used in this order: `setup()` and one warm-up `op()`
(timed together as set-up), `prepare_checks()` (untimed oracle work), then
any number of timed `op()` calls, each followed by an untimed `collect()`
and `check()`.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Optional

import hgsparse
from hgsparse import cli

# Sizes: "full" is what the benchmark measures, "smoke" is the reduced size
# that the smoke mode runs with every check on.
STREAM_SIZES = {
    "full": dict(base="stream/0", n=10, m=1500),
    "smoke": dict(base="stream/0", n=10, m=240),
}
# skewed's rho is 25 rather than 100 so that about 20 input edges are
# expected to vanish per op (at 100, 1 to 6 depending on the draw): "at least
# one edge is dropped" must hold for every sampler seed, not only lucky ones.
SKEWED_SIZES = {
    "full": dict(base="skewed/3", n=10, light=80, heavy=3, heavy_w=(500, 1000), rho=25),
    "smoke": dict(base="skewed/2", n=8, light=30, heavy=2, heavy_w=(60, 120), rho=5),
}
VERIFY_SIZES = {
    "full": dict(base=14, n=14, m=120, rho=10),
    "smoke": dict(base=14, n=10, m=40, rho=10),
}
EPSILON = 0.5


def _permutation(label: str, n: int) -> list[int]:
    perm = list(range(1, n + 1))
    random.Random(label).shuffle(perm)
    return perm


def _relabel(edges, perm) -> hgsparse.WeightedHypergraph:
    return hgsparse.WeightedHypergraph(len(perm), tuple(
        hgsparse.HyperEdge(tuple(sorted(perm[v - 1] for v in e.vertices)), e.weight)
        for e in edges))


def _random_edges(rng: random.Random, n: int, m: int, sizes, weights):
    """The shape of the acceptance tests' stream instances."""
    edges = []
    for _ in range(m):
        size = rng.randint(*sizes)
        verts = tuple(sorted(rng.sample(range(1, n + 1), size)))
        edges.append(hgsparse.HyperEdge(verts, Fraction(rng.randint(*weights))))
    return edges


def count_p_below_one(p) -> int:
    """Copies with p < 1.  make_plan shares one Fraction object per group of
    parallel copies, so comparing each distinct object once is exact and
    avoids 10^5 Fraction compares."""
    per_object: dict[int, list] = {}
    for value in p:
        slot = per_object.get(id(value))
        if slot is None:
            per_object[id(value)] = [value, 1]
        else:
            slot[1] += 1
    return sum(c for value, c in per_object.values() if value < 1)


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.dispatch(argv)
    return rc, out.getvalue(), err.getvalue()


class Workload:
    name = ""
    # the hgsparse command line or call that one op makes, for failure notes
    command = ""

    def __init__(self, workdir: Path, seed: int, size: str):
        self.workdir = workdir
        self.seed = seed
        self.size = size
        self.sampler_seed = random.Random(f"sampler/{self.name}/{seed}").getrandbits(63)
        workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        pass

    def op(self):
        raise NotImplementedError

    def collect(self, raw):
        return raw

    def check(self, got) -> Optional[str]:
        """None when the op's output is correct, else the reason."""
        raise NotImplementedError

    def pipeline_counts(self, got) -> dict:
        return {}


class Stream(Workload):
    """`hgsparse stream` on an edge-line file, at the theoretical rho."""

    name = "stream"

    def setup(self) -> None:
        cfg = STREAM_SIZES[self.size]
        self.n, self.m = cfg["n"], cfg["m"]
        base = _random_edges(random.Random(cfg["base"]), self.n, self.m, (2, 3), (1, 4))
        self.input = _relabel(base, _permutation(f"stream/{self.seed}", self.n))
        self.in_path = self.workdir / "edges.txt"
        self.out_path = self.workdir / "out.hg"
        self.in_path.write_text("".join(
            f"{e.weight} {' '.join(map(str, e.vertices))}\n" for e in self.input.edges))
        self.argv = ["stream", "-i", str(self.in_path), "-o", str(self.out_path),
                     "--n", str(self.n), "--m-bound", str(self.m),
                     "-e", str(EPSILON), "--seed", str(self.sampler_seed)]
        self.command = "hgsparse " + " ".join(self.argv)

    def prepare_checks(self) -> None:
        folded: dict[tuple[int, ...], Fraction] = {}
        for e in self.input.edges:
            folded[e.vertices] = folded.get(e.vertices, Fraction(0)) + e.weight
        self.folded = hgsparse.WeightedHypergraph(self.n, tuple(
            hgsparse.HyperEdge(vs, w) for vs, w in sorted(folded.items())))
        self._verdicts: dict[str, Optional[str]] = {}

    def op(self):
        return _call_cli(self.argv)

    def collect(self, raw):
        rc, _, err = raw
        got = {"rc": rc, "stderr": err, "text": None, "meta": {}}
        if rc == 0:
            got["text"] = self.out_path.read_text()
            meta = Path(str(self.out_path) + ".meta").read_text()
            got["meta"] = dict(line.split("=", 1) for line in meta.splitlines())
        return got

    def check(self, got) -> Optional[str]:
        if got["rc"] != 0:
            return f"exit {got['rc']}: {got['stderr'].strip()}"
        meta = got["meta"]
        if not int(meta["high_water"]) <= float(meta["memory_bound"]):
            return f"high_water {meta['high_water']} > memory_bound {meta['memory_bound']}"
        text = got["text"]
        if text not in self._verdicts:
            rep = hgsparse.all_cuts_report(
                self.folded, hgsparse.parse_hypergraph(text), EPSILON)
            self._verdicts[text] = None if rep.passed else (
                f"max cut error {float(rep.max_rel_error):.4g} over eps {EPSILON}")
        if len(self._verdicts) > 1:
            return "repeat ops gave different outputs"
        return self._verdicts[text]

    def pipeline_counts(self, got) -> dict:
        meta = got["meta"]
        return {
            "pipeline.flushes": int(meta.get("flushes", 0)),
            "pipeline.max_flush_out": int(meta.get("max_flush_out", 0)),
            "pipeline.high_water": int(meta.get("high_water", 0)),
            "pipeline.memory_bound": float(meta.get("memory_bound", 0)),
        }


class Skewed(Workload):
    """`sparsify_weighted` with a rho_override low enough that every copy
    has p < 1, on light random edges plus a few very heavy pairs."""

    name = "skewed"

    def setup(self) -> None:
        cfg = SKEWED_SIZES[self.size]
        n = cfg["n"]
        rng = random.Random(cfg["base"])
        base = _random_edges(rng, n, cfg["light"], (2, 3), (1, 4))
        base += _random_edges(rng, n, cfg["heavy"], (2, 2), cfg["heavy_w"])
        self.input = _relabel(base, _permutation(f"skewed/{self.seed}", n))
        self.rho = Fraction(cfg["rho"])
        self.command = (f"sparsify_weighted(h, {EPSILON}, seed={self.sampler_seed}, "
                        f"rho_override={self.rho})")

    def prepare_checks(self) -> None:
        self.input_sets = {e.vertices for e in self.input.edges}
        self.first = None

    def op(self):
        return hgsparse.sparsify_weighted(
            self.input, EPSILON, seed=self.sampler_seed, rho_override=self.rho)

    def check(self, res) -> Optional[str]:
        if not res.sum_p <= res.plan.size_budget():
            return f"sum_p {res.sum_p} over the budget {res.plan.size_budget()}"
        stray = [e.vertices for e in res.hypergraph.edges
                 if e.vertices not in self.input_sets]
        if stray:
            return f"kept vertex set {stray[0]} is not an input vertex set"
        if count_p_below_one(res.plan.p) != len(res.plan.p):
            return "some copy has p = 1, so this is not the p < 1 regime"
        if len(set(res.origin)) == self.input.m:
            return "no input edge was dropped"
        if self.first is None:
            self.first = res.hypergraph
        elif res.hypergraph != self.first:
            return "repeat ops gave different outputs"
        return None


class Verify(Workload):
    """`hgsparse verify` of a weighted random hypergraph against a
    sparsifier of it that dropped edges."""

    name = "verify"

    def setup(self) -> None:
        cfg = VERIFY_SIZES[self.size]
        n = cfg["n"]
        base = hgsparse.gen_random(n, cfg["m"], 4, weighted=True, w_max=4, seed=cfg["base"])
        self.input = _relabel(base.edges, _permutation(f"verify/{self.seed}", n))
        self.sparsifier = hgsparse.sparsify_weighted(
            self.input, EPSILON, seed=self.sampler_seed,
            rho_override=Fraction(cfg["rho"])).hypergraph
        a, b = self.workdir / "in.hg", self.workdir / "out.hg"
        a.write_text(hgsparse.serialize_hypergraph(self.input))
        b.write_text(hgsparse.serialize_hypergraph(self.sparsifier))
        self.argv = ["verify", "-a", str(a), "-b", str(b), "-e", "1"]
        self.command = "hgsparse " + " ".join(self.argv)

    def prepare_checks(self) -> None:
        """The exact max relative cut error, from cut_weight alone."""
        n, h, h_hat = self.input.n, self.input, self.sparsifier
        worst = Fraction(0)
        for mask in range(1, (1 << n) - 1, 2):
            cut = hgsparse.Cut(n, mask)
            true_w, hat_w = hgsparse.cut_weight(h, cut), hgsparse.cut_weight(h_hat, cut)
            if true_w == 0:
                if hat_w != 0:
                    worst = math.inf
                    break
                continue
            worst = max(worst, abs(hat_w - true_w) / true_w)
        self.expected_max = worst
        self.dropped = self.input.m - self.sparsifier.m

    def op(self):
        return _call_cli(self.argv)

    def check(self, got) -> Optional[str]:
        rc, out, err = got
        if rc not in (0, 1):
            return f"exit {rc}: {err.strip()}"
        if self.dropped < 1:
            return "the sparsifier kept every edge"
        fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
        printed = fields.get("max_rel_error")
        if printed is None:
            return "the report has no max_rel_error line"
        value = math.inf if printed == "inf" else Fraction(printed)
        if value != self.expected_max:
            return f"max_rel_error {printed} differs from the recomputed {self.expected_max}"
        if rc != (0 if value <= 1 else 1):
            return f"exit {rc} does not match max_rel_error {printed} against -e 1"
        return None


WORKLOADS = {w.name: w for w in (Stream, Skewed, Verify)}
