"""Seeded CLI outputs frozen as files.

`sparsify` runs at seeds 1 and 7 on three inputs, at the theoretical rho
(every copy has p = 1) and at `--rho-override 3` (balanced and sampled),
plus one `pipeline` and one `stream` run.  Each case writes its output and
`.meta` sidecar, which must match `tests/golden/<case>.hg{,.meta}` byte for
byte.

A change that moves seeded outputs on purpose regenerates the files with
`PYTHONPATH=src python tests/test_golden.py` and says so in CHANGES.md.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from hgsparse import HyperEdge, WeightedHypergraph, gen_footnote_graph, gen_random, gen_sunflower
from hgsparse.cli import dispatch
from hgsparse.hypergraph import serialize_hypergraph

GOLDEN = Path(__file__).parent / "golden"

WEIGHTED = gen_random(6, 12, 3, weighted=True, w_max=4, seed=3)
INPUTS = {
    "sunflower": serialize_hypergraph(gen_sunflower(4)),
    "footnote": serialize_hypergraph(gen_footnote_graph(5)),
    "weighted": serialize_hypergraph(WEIGHTED),
    # two heavy pairs put a second weight bucket above the random edges
    "spread": serialize_hypergraph(WeightedHypergraph(6, WEIGHTED.edges + (
        HyperEdge((1, 2), Fraction(10**5)), HyperEdge((3, 4), Fraction(10**5))))),
    # stream input: edge lines without the header
    "stream": "".join(serialize_hypergraph(gen_random(6, 40, 3, weighted=True, w_max=4, seed=5))
                      .splitlines(keepends=True)[1:]),
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
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case, input_name, argv in CASES:
            run_case(input_name, argv, Path(tmp), GOLDEN / f"{case}.hg")


if __name__ == "__main__":
    regenerate()
