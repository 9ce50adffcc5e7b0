"""Seeded CLI outputs frozen as files.

`sparsify` runs at seeds 1 and 7 on three inputs, at the theoretical rho
(every copy has p = 1) and at `--rho-override 3` (balanced and sampled),
plus one `pipeline` run and two `stream` runs.  `pipeline_spread` puts two
heavy pairs one bucket above random edges.  `stream_spread` streams light
edges with heavy pairs two buckets above them, so that its flushes contract
the pairs and relabel the light components.  Each case writes its output and
`.meta` sidecar, which must match `tests/golden/<case>.hg{,.meta}` byte for
byte.  The stdout of each script in `demos/` must match
`tests/golden/demo_<name>.txt`.

A change that moves seeded outputs on purpose regenerates the files with
`PYTHONPATH=src python tests/test_golden.py`, which prints the name of each
file that changed, and says so in CHANGES.md.
"""

import contextlib
import io
import runpy
from fractions import Fraction
from pathlib import Path

import pytest

from hgsparse import HyperEdge, WeightedHypergraph, gen_footnote_graph, gen_random, gen_sunflower
from hgsparse.cli import dispatch
from hgsparse.hypergraph import serialize_hypergraph

GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))

WEIGHTED = gen_random(6, 12, 3, weighted=True, w_max=4, seed=3)


def edge_lines(h: WeightedHypergraph) -> str:
    """A stream input: the serialized edge lines without the header."""
    return "".join(serialize_hypergraph(h).splitlines(keepends=True)[1:])


def spread_stream() -> str:
    """Light edges of weight below 10^-4, with a heavy pair of weight 10^5
    after every second one.  At -e 1 each flush puts the pairs two buckets,
    one parity step, above the light edges."""
    light = gen_random(6, 16, 3, weighted=True, w_max=4, seed=5).edges
    heavy = (HyperEdge((1, 2), Fraction(10**5)), HyperEdge((3, 4), Fraction(10**5)))
    edges = []
    for k, e in enumerate(light):
        edges.append(HyperEdge(e.vertices, e.weight / 40000))
        if k % 2:
            edges.append(heavy[k // 2 % 2])
    return edge_lines(WeightedHypergraph(6, tuple(edges)))

INPUTS = {
    "sunflower": serialize_hypergraph(gen_sunflower(4)),
    "footnote": serialize_hypergraph(gen_footnote_graph(5)),
    "weighted": serialize_hypergraph(WEIGHTED),
    # two heavy pairs put a second weight bucket above the random edges
    "spread": serialize_hypergraph(WeightedHypergraph(6, WEIGHTED.edges + (
        HyperEdge((1, 2), Fraction(10**5)), HyperEdge((3, 4), Fraction(10**5))))),
    "stream": edge_lines(gen_random(6, 40, 3, weighted=True, w_max=4, seed=5)),
    "stream_spread": spread_stream(),
}

CASES = [
    (f"sparsify_{name}_seed{seed}{rho_tag}", name,
     ["sparsify", "-e", "0.5", "--seed", str(seed)] + rho_args)
    for name in ("sunflower", "footnote", "weighted")
    for seed in (1, 7)
    for rho_tag, rho_args in (("", []), ("_rho3", ["--rho-override", "3"]))
] + [
    ("pipeline_spread_seed1", "spread", ["pipeline", "-e", "0.5", "--seed", "1"]),
    ("stream_seed1", "stream",
     ["stream", "--n", "6", "--m-bound", "40", "--capacity", "8", "-e", "0.5", "--seed", "1"]),
    ("stream_spread_seed1", "stream_spread",
     ["stream", "--n", "6", "--m-bound", "24", "--capacity", "4", "-e", "1", "--seed", "1"]),
]


def run_case(input_name: str, argv: list[str], workdir: Path, out: Path) -> None:
    """Run one case, writing `out` and `out.meta`; stdout and stderr must
    stay empty."""
    src = workdir / f"{input_name}.in"
    src.write_text(INPUTS[input_name])
    code = dispatch(argv + ["-i", str(src), "-o", str(out)])
    assert code == 0, (argv, code)


@pytest.mark.parametrize("case,input_name,argv", CASES, ids=[c[0] for c in CASES])
def test_output_frozen(tmp_path, capsys, case, input_name, argv):
    out = tmp_path / "out.hg"
    run_case(input_name, argv, tmp_path, out)
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == (GOLDEN / f"{case}.hg").read_bytes()
    assert Path(f"{out}.meta").read_bytes() == (GOLDEN / f"{case}.hg.meta").read_bytes()


def demo_stdout(demo: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_frozen(capsys, demo):
    assert demo_stdout(demo) == (GOLDEN / f"demo_{demo.stem}.txt").read_text()
    assert capsys.readouterr() == ("", "")


def golden_meta(case: str) -> dict[str, str]:
    lines = (GOLDEN / f"{case}.hg.meta").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


def test_cases_cover_both_sampler_paths():
    # the theoretical rho keeps every copy (sum_p = m'); rho 3 samples copies
    # at p < 1, and on the sunflower it balances first
    for name in ("sunflower", "footnote", "weighted"):
        kept = golden_meta(f"sparsify_{name}_seed1")
        sampled = golden_meta(f"sparsify_{name}_seed1_rho3")
        assert kept["sum_p"] == kept["reduced_copies"]
        assert Fraction(sampled["sum_p"]) < int(sampled["reduced_copies"])
    assert golden_meta("sparsify_sunflower_seed1_rho3")["balance_iterations"] != "0"


def regenerate() -> None:
    """Rewrite the golden files, printing the name of each one whose bytes
    changed."""
    import tempfile

    def put(name: str, data: bytes) -> None:
        path = GOLDEN / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
            print(name)

    with tempfile.TemporaryDirectory() as tmp:
        for case, input_name, argv in CASES:
            out = Path(tmp) / f"{case}.hg"
            run_case(input_name, argv, Path(tmp), out)
            put(out.name, out.read_bytes())
            put(f"{out.name}.meta", Path(f"{out}.meta").read_bytes())
    for demo in DEMOS:
        put(f"demo_{demo.stem}.txt", demo_stdout(demo).encode())


if __name__ == "__main__":
    regenerate()
