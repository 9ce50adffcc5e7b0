"""Command-line surface: flags, exit codes, and frozen help text."""

import io
import itertools
import shutil
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgsparse import (
    HyperEdge,
    ParseError,
    WeightedHypergraph,
    edge_strengths,
    gen_footnote_graph,
    gen_random,
    gen_sunflower,
    parse_hypergraph,
    sparsify_weighted,
)
from hgsparse.cli import dispatch
from hgsparse.hypergraph import serialize_hypergraph

GOLDEN = Path(__file__).parent / "golden"

HELP_CASES = [
    ("help_main.txt", ["--help"]),
    ("help_gen.txt", ["gen", "--help"]),
    ("help_sparsify.txt", ["sparsify", "--help"]),
    ("help_pipeline.txt", ["pipeline", "--help"]),
    ("help_stream.txt", ["stream", "--help"]),
    ("help_strengths.txt", ["strengths", "--help"]),
    ("help_balance.txt", ["balance", "--help"]),
    ("help_verify.txt", ["verify", "--help"]),
]


def write_hg(path, h):
    path.write_text(serialize_hypergraph(h))
    return str(path)


@pytest.mark.parametrize("golden,argv", HELP_CASES, ids=[c[0] for c in HELP_CASES])
def test_help_frozen(capsys, golden, argv):
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


class TestGen:
    def test_sunflower_stdout(self, capsys):
        assert dispatch(["gen", "sunflower", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert parse_hypergraph(out) == gen_sunflower(3)

    def test_random_to_file(self, tmp_path, capsys):
        out = tmp_path / "r.hg"
        argv = ["gen", "random", "--n", "5", "--m", "8", "--r-max", "3",
                "--seed", "2", "-o", str(out)]
        assert dispatch(argv) == 0
        assert parse_hypergraph(out.read_text()) == gen_random(5, 8, 3, seed=2)

    def test_unknown_family(self, capsys):
        assert dispatch(["gen", "torus", "--n", "3"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_edge_cap(self, capsys):
        for argv, count in ((["random", "--n", "3", "--m", "20"], 20),
                            (["footnote", "--n", "10"], 46), (["sunflower", "--n", "10"], 10)):
            assert dispatch(["gen"] + argv + ["--edge-cap", "5"]) == 2
            assert capsys.readouterr() == ("", f"error: edge count {count} exceeds cap 5\n")
        # a family's own argument check still comes first
        for argv, message in ((["footnote", "--n", "2"], "footnote graph needs n >= 3"),
                              (["sunflower", "--n", "0"], "sunflower needs n >= 1")):
            assert dispatch(["gen"] + argv + ["--edge-cap", "1"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


class TestSparsify:
    def test_round_trip_reproducible(self, tmp_path, capsys):
        src = write_hg(tmp_path / "in.hg", gen_footnote_graph(5))
        out = tmp_path / "out.hg"
        argv = ["sparsify", "-i", src, "-e", "0.5", "--seed", "3",
                "-o", str(out)]
        assert dispatch(argv) == 0
        first = out.read_bytes()
        meta = (tmp_path / "out.hg.meta").read_text()
        # the plan runs at epsilon/3 after the unit-copy reduction
        assert "seed=3" in meta and "epsilon=0.16666666666666666" in meta
        parse_hypergraph(out.read_text())  # well-formed
        assert dispatch(argv) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "out.hg.meta").read_text() == meta

    def test_stdout_mode(self, tmp_path, capsys):
        src = write_hg(tmp_path / "in.hg", gen_sunflower(3))
        assert dispatch(["sparsify", "-i", src, "-e", "0.5"]) == 0
        h = parse_hypergraph(capsys.readouterr().out)
        assert h == gen_sunflower(3)  # all p=1 at this scale

    def test_epsilon_out_of_range(self, tmp_path, capsys):
        src = write_hg(tmp_path / "in.hg", gen_sunflower(3))
        assert dispatch(["sparsify", "-i", src, "-e", "1.5"]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_rho_override_forms(self, tmp_path, capsys):
        src = write_hg(tmp_path / "in.hg", gen_sunflower(3))
        assert dispatch(["sparsify", "-i", src, "-e", "0.5",
                         "--rho-override", "7/2"]) == 0
        capsys.readouterr()
        for bad in ("0", "-1", "abc"):
            assert dispatch(["sparsify", "-i", src, "-e", "0.5",
                             "--rho-override", bad]) == 2
            capsys.readouterr()

    def test_tiny_epsilon_exits_2(self, tmp_path, capsys):
        # past the copy cap check, rho at eps/3 overflows a float
        src = tmp_path / "in.hg"
        src.write_text("2 3 1\n1 1 2\n1 2 3\n")
        assert dispatch(["sparsify", "-i", str(src), "-e", "1e-160",
                         "--edge-cap", str(10**200)]) == 2
        assert capsys.readouterr().err.startswith("error: rho is not a finite float")

    def test_size_budget_violation_exits_1(self, tmp_path, capsys, inflate_p):
        src = write_hg(tmp_path / "in.hg", gen_random(5, 20, 3, seed=1))
        argv = ["sparsify", "-i", src, "-e", "0.5", "--rho-override", "1"]
        assert dispatch(argv) == 0
        capsys.readouterr()
        inflate_p()
        assert dispatch(argv) == 1
        assert "check failed: expected size" in capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        assert dispatch(["sparsify", "-i", str(tmp_path / "nope.hg"),
                         "-e", "0.5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.hg"
        bad.write_text("1 3 1\n1 5 9\n")
        assert dispatch(["sparsify", "-i", str(bad), "-e", "0.5"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert dispatch(["sparsify", "--frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert dispatch([]) == 2


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        src = write_hg(tmp_path / "in.hg", gen_footnote_graph(5))
        out = tmp_path / "out.hg"
        assert dispatch(["pipeline", "-i", src, "-e", "0.5", "--seed", "1",
                         "-o", str(out)]) == 0
        parse_hypergraph(out.read_text())
        assert "m_in=" in (tmp_path / "out.hg.meta").read_text()

    def test_rejects_rho_override(self, tmp_path, capsys):
        src = write_hg(tmp_path / "in.hg", gen_sunflower(3))
        assert dispatch(["pipeline", "-i", src, "-e", "0.5",
                         "--rho-override", "2"]) == 2
        assert "rho override" in capsys.readouterr().err


class TestStream:
    def test_stdin_weighted(self, monkeypatch, capsys):
        lines = "% incoming edges\n1 1 2\n2 2 3\n1/2 1 3\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert dispatch(["stream", "--n", "3", "--m-bound", "10",
                         "-e", "0.5"]) == 0
        h = parse_hypergraph(capsys.readouterr().out)
        assert h.n == 3 and h.m == 3

    def test_fmt_zero(self, tmp_path, capsys):
        src = tmp_path / "edges.txt"
        src.write_text("1 2\n2 3\n1 3\n")
        assert dispatch(["stream", "-i", str(src), "--n", "3",
                         "--m-bound", "3", "--fmt", "0", "-e", "0.5"]) == 0
        assert parse_hypergraph(capsys.readouterr().out).m == 3

    def test_over_bound(self, tmp_path, capsys):
        src = tmp_path / "edges.txt"
        src.write_text("1 1 2\n1 2 3\n")
        assert dispatch(["stream", "-i", str(src), "--n", "3",
                         "--m-bound", "1", "-e", "0.5"]) == 2
        assert "declared bound" in capsys.readouterr().err

    def test_bad_line_reported_with_number(self, tmp_path, capsys):
        src = tmp_path / "edges.txt"
        src.write_text("1 1 2\n1 1 9\n")
        assert dispatch(["stream", "-i", str(src), "--n", "3",
                         "--m-bound", "5", "-e", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "out of range" in err

    def test_capacity_floor(self, tmp_path, capsys):
        src = tmp_path / "edges.txt"
        src.write_text("1 1 2\n")
        assert dispatch(["stream", "-i", str(src), "--n", "3",
                         "--m-bound", "5", "-e", "0.5", "--capacity", "3"]) == 2


class LineStdin:
    """A stdin that hands out its lines one at a time and refuses read()."""

    def __init__(self, text):
        self.lines = io.StringIO(text).readlines()
        self.taken = 0

    def __iter__(self):
        for line in self.lines:
            self.taken += 1
            yield line

    def read(self, *args):
        raise AssertionError("read() loads the whole stream at once")


class TestLazyStream:
    ARGV = ["stream", "--n", "3", "--m-bound", "20", "-e", "0.5"]

    def test_sparsifies_line_by_line(self, monkeypatch, tmp_path, capsys):
        text = "% incoming edges\n1 1 2\n2 2 3\x0c1/2 1 3\n\n3 1 2 3\u20281 2 3\n"
        src = tmp_path / "edges.txt"
        src.write_text(text)
        assert dispatch(self.ARGV + ["-i", str(src)]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", LineStdin(text))
        assert dispatch(self.ARGV) == 0
        assert capsys.readouterr().out == from_file
        assert parse_hypergraph(from_file).m == 5

    def test_stops_at_first_bad_line(self, monkeypatch, capsys):
        # line 4 by str.splitlines(), inside the third physical line
        text = "1 1 2\n1 2 3\n1 1 3\x1c1 1 9\x0c1 2 3\n1 1 2\n1 1 2\n"
        assert text.splitlines()[3] == "1 1 9"
        stdin = LineStdin(text)
        monkeypatch.setattr("sys.stdin", stdin)
        assert dispatch(self.ARGV) == 2
        assert capsys.readouterr().err == "error: line 4: vertex id 9 out of range [1,3]\n"
        assert stdin.taken == 3


def raw_stdin(data):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


class TestExitCodeFuzz:
    @staticmethod
    def argv(cmd, path):
        if cmd == "stream":
            return ["stream", "-i", path, "--n", "3", "--m-bound", "5"]
        return [cmd, "-i", path]

    @pytest.mark.parametrize("eps", ["inf", "nan", "-0"])
    @pytest.mark.parametrize("cmd", ["sparsify", "pipeline", "stream"])
    def test_bad_epsilon(self, tmp_path, capsys, cmd, eps):
        src = tmp_path / "in.txt"
        src.write_text("1 1 2\n" if cmd == "stream" else "1 3 1\n1 1 2\n")
        assert dispatch(self.argv(cmd, str(src)) + ["-e", eps]) == 2
        assert capsys.readouterr().err.startswith("error: epsilon must be in (0, 1]")

    @pytest.mark.parametrize("data", [b"\xff\xfe\x80\x81", b"1 3 1\n1 1 2\n\xc3\x28 1 2\n"])
    @pytest.mark.parametrize("argv", [
        ["sparsify", "-e", "0.5"],
        ["pipeline", "-e", "0.5"],
        ["stream", "--n", "3", "--m-bound", "5", "-e", "0.5"],
        ["strengths"],
        ["balance"],
        ["verify", "-a", "-", "-e", "0.5"],
    ], ids=lambda a: a[0])
    def test_non_utf8_stdin(self, monkeypatch, tmp_path, capsys, argv, data):
        if argv[0] == "verify":
            argv = argv + ["-b", write_hg(tmp_path / "b.hg", gen_sunflower(2))]
        monkeypatch.setattr("sys.stdin", raw_stdin(data))
        assert dispatch(argv) == 2
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte ")


class UntouchedStdin:
    """A stdin that fails the test if anything reads it."""

    def __iter__(self):
        raise AssertionError("stdin was read")

    def read(self, *args):
        raise AssertionError("stdin was read")

    readline = read


class TestFlagChecks:
    # every command that takes the flag, with the rest of a valid argv
    SEED = [["gen", "sunflower", "--n", "3"], ["sparsify", "-e", "0.5"],
            ["pipeline", "-e", "0.5"], ["stream", "--n", "3", "--m-bound", "5", "-e", "0.5"],
            ["verify", "-a", "-", "-b", "-", "-e", "0.5"]]
    GAMMA = [["sparsify", "-e", "0.5"], ["strengths"], ["balance"]]
    D = [["sparsify", "-e", "0.5"], ["pipeline", "-e", "0.5"],
         ["stream", "--n", "3", "--m-bound", "5", "-e", "0.5"]]
    EDGE_CAP = [["gen", "sunflower", "--n", "3"]] + D

    CASES = ([(argv + ["--seed", v], "argument --seed: seed must fit in 64 unsigned bits")
              for argv in SEED for v in ("-1", str(2**64))]
             + [(argv + ["-g", "1"], "argument -g/--gamma: gamma must be an integer >= 2")
                for argv in GAMMA]
             + [(argv + ["-d", "-1"], "argument -d: d must be nonnegative") for argv in D]
             + [(argv + ["--edge-cap", "0"], "argument --edge-cap: edge cap must be positive")
                for argv in EDGE_CAP])

    @pytest.mark.parametrize("argv,message", CASES, ids=[" ".join(a) for a, _ in CASES])
    def test_bad_value_exits_2_before_reading(self, monkeypatch, capsys, argv, message):
        monkeypatch.setattr("sys.stdin", UntouchedStdin())
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: hgsparse ")
        assert err.endswith(f"hgsparse {argv[0]}: error: {message}\n")

    @pytest.mark.parametrize("argv", [["sparsify"], ["pipeline"],
                                      ["stream", "--n", "3", "--m-bound", "5"]],
                             ids=lambda a: a[0])
    def test_bad_epsilon_exits_2_before_reading(self, monkeypatch, capsys, argv):
        monkeypatch.setattr("sys.stdin", UntouchedStdin())
        assert dispatch(argv + ["-e", "2"]) == 2
        assert capsys.readouterr().err == "error: epsilon must be in (0, 1]\n"

    def test_non_integer_keeps_the_argparse_message(self, capsys):
        assert dispatch(["sparsify", "-e", "0.5", "--seed", "x"]) == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --seed: invalid int value: 'x'\n")

    @pytest.mark.parametrize("argv", [["pipeline", "-e", "0.5"],
                                      ["stream", "--n", "3", "--m-bound", "5", "-e", "0.5"]],
                             ids=lambda a: a[0])
    def test_pipeline_and_stream_take_no_gamma(self, monkeypatch, capsys, argv):
        monkeypatch.setattr("sys.stdin", UntouchedStdin())
        assert dispatch(argv + ["-g", "2"]) == 2
        assert "unrecognized arguments: -g 2" in capsys.readouterr().err

    def test_strengths_gamma_checked_on_2_uniform_input(self, tmp_path, capsys):
        src = tmp_path / "tri.hg"
        src.write_text("3 3 0\n1 2\n2 3\n1 3\n")
        assert dispatch(["strengths", "-i", str(src), "-g", "1"]) == 2
        assert "gamma must be an integer >= 2" in capsys.readouterr().err


class TestStrengths:
    def test_multigraph_direct(self, tmp_path, capsys):
        src = tmp_path / "tri.hg"
        src.write_text("3 3 0\n1 2\n2 3\n1 3\n")
        assert dispatch(["strengths", "-i", str(src)]) == 0
        out = capsys.readouterr().out
        assert "1 2 1 2\n" in out and "distinct_strengths=1" in out

    @given(st.integers(2, 6), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_2_uniform_prints_edge_strengths(self, n, weighted, data):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        weight = st.fractions(1, 12, max_denominator=4) if weighted else st.just(1)
        edges = data.draw(st.lists(st.builds(HyperEdge, st.sampled_from(pairs), weight),
                                   max_size=10))
        text = serialize_hypergraph(WeightedHypergraph(n, tuple(edges)))
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out):
            assert dispatch(["strengths"]) == 0
        rows = [line.split() for line in out.getvalue().splitlines() if line[0] != "%"]
        printed = {(int(u), int(v)): (Fraction(w), Fraction(k)) for u, v, w, k in rows}
        table = edge_strengths(parse_hypergraph(text))
        assert printed == {p: (w, table.strength(*p)) for p, w in table.pair_weight.items()}

    def test_unit_hypergraph_balanced(self, tmp_path, capsys):
        src = tmp_path / "he.hg"
        src.write_text("1 3 0\n1 2 3\n")
        assert dispatch(["strengths", "-i", str(src)]) == 0
        assert capsys.readouterr().out == (
            "% u v weight strength\n"
            "1 2 1/3 2/3\n1 3 1/3 2/3\n2 3 1/3 2/3\n"
            "% distinct_strengths=1 weight_over_strength=1.5 n_minus_1=2\n"
        )

    def test_weighted_hyperedges_rejected(self, tmp_path, capsys):
        src = tmp_path / "w.hg"
        src.write_text("1 3 1\n2 1 2 3\n")
        assert dispatch(["strengths", "-i", str(src)]) == 2
        assert "2-uniform" in capsys.readouterr().err


class TestBalance:
    def test_unit_triangle_edge(self, tmp_path, capsys):
        src = tmp_path / "he.hg"
        src.write_text("1 3 0\n1 2 3\n")
        assert dispatch(["balance", "-i", str(src)]) == 0
        out = capsys.readouterr().out
        assert "group=1,2,3" in out
        assert "copy=0 units=3,3,3" in out
        assert "balanced=1 checked=1 violations=0" in out

    def test_output_file(self, tmp_path, capsys):
        src = write_hg(tmp_path / "in.hg", gen_sunflower(2))
        out = tmp_path / "bal.txt"
        assert dispatch(["balance", "-i", src, "-o", str(out)]) == 0
        assert "balanced=1" in out.read_text()


class TestVerify:
    def test_pass_and_fail(self, tmp_path, capsys):
        a = write_hg(tmp_path / "a.hg", gen_footnote_graph(5))
        dbl = parse_hypergraph(Path(a).read_text())
        from hgsparse import HyperEdge, WeightedHypergraph
        b_h = WeightedHypergraph(
            dbl.n, tuple(HyperEdge(e.vertices, 2 * e.weight) for e in dbl.edges))
        b = write_hg(tmp_path / "b.hg", b_h)
        assert dispatch(["verify", "-a", a, "-b", a, "-e", "0.0"]) == 0
        assert "pass=1" in capsys.readouterr().out
        assert dispatch(["verify", "-a", a, "-b", b, "-e", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "pass=0" in out and "max_rel_error=1" in out

    def test_csv_output(self, tmp_path, capsys):
        a = write_hg(tmp_path / "a.hg", gen_sunflower(2))
        csv = tmp_path / "cuts.csv"
        assert dispatch(["verify", "-a", a, "-b", a, "-e", "0.1",
                         "--csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "cut_id,true_w,hat_w,rel_err"
        assert len(lines) == 1 + (2 ** 3 - 1)

    def test_records_kept_only_for_csv(self, tmp_path, monkeypatch, capsys):
        import hgsparse.cli as cli

        original, reports = cli.all_cuts_report, []

        def recording(*args, **kwargs):
            reports.append(original(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "all_cuts_report", recording)
        a = write_hg(tmp_path / "a.hg", gen_sunflower(2))
        assert dispatch(["verify", "-a", a, "-b", a, "-e", "0.1"]) == 0
        plain = capsys.readouterr().out
        assert reports[-1].records == () and reports[-1].cuts_checked == 7
        csv = tmp_path / "cuts.csv"
        assert dispatch(["verify", "-a", a, "-b", a, "-e", "0.1", "--csv", str(csv)]) == 0
        assert capsys.readouterr().out == plain
        assert len(reports[-1].records) == 7
        assert len(csv.read_text().splitlines()) == 1 + 7

    def test_negative_epsilon(self, tmp_path, capsys):
        a = write_hg(tmp_path / "a.hg", gen_sunflower(2))
        assert dispatch(["verify", "-a", a, "-b", a, "-e", "-1"]) == 2

    def test_sampled_needs_count(self, tmp_path, capsys):
        a = write_hg(tmp_path / "a.hg", gen_sunflower(2))
        assert dispatch(["verify", "-a", a, "-b", a, "-e", "0.1",
                         "--exhaustive-limit", "2"]) == 2
        capsys.readouterr()
        assert dispatch(["verify", "-a", a, "-b", a, "-e", "0.1",
                         "--exhaustive-limit", "2", "--cut-samples", "5"]) == 0
        assert "cuts_checked=5" in capsys.readouterr().out


@pytest.mark.skipif(shutil.which("hgsparse") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["hgsparse", "gen", "sunflower", "--n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert parse_hypergraph(proc.stdout) == gen_sunflower(2)


class TestVerifyReports:
    def test_sampled_sparsifier_verifies(self, tmp_path, capsys):
        # the exact mean error over 2047 cuts has a denominator past
        # Python's int-to-str digit limit; printing it once exited 2
        h = gen_random(12, 80, 4, weighted=True, w_max=4, seed=3)
        res = sparsify_weighted(h, 0.5, rho_override=10, seed=1)
        assert res.m_out < h.m
        a = write_hg(tmp_path / "a.hg", h)
        b = write_hg(tmp_path / "b.hg", res.hypergraph)
        assert dispatch(["verify", "-a", a, "-b", b, "-e", "1"]) != 2
        lines = capsys.readouterr().out.splitlines()
        (max_line,) = [x for x in lines if x.startswith("max_rel_error=")]
        (mean_line,) = [x for x in lines if x.startswith("mean_rel_error=")]
        assert Fraction(max_line.split("=")[1]) > 0
        assert 0 < float(mean_line.split("=")[1]) < 1

    def test_nan_target_is_usage_error(self, tmp_path, capsys):
        a = write_hg(tmp_path / "a.hg", gen_sunflower(2))
        assert dispatch(["verify", "-a", a, "-b", a, "-e", "nan"]) == 2
        assert "nonnegative" in capsys.readouterr().err


# tokens for edge lines: valid pieces, garbage, non-ASCII, zero and negative
# weights, 1/0, huge rationals, and vertex ids out of range
TOKENS = st.one_of(
    st.sampled_from(["1", "2", "3", "1/2", "2.5", "0", "-1", "-2/3", "1/0",
                     "nan", "x", "é", "١", "1_0", "10" * 12 + "/7"]),
    st.integers(-1, 6).map(str),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
            min_size=1, max_size=3),
)


@st.composite
def edge_lines(draw, n, fmt):
    def line(w, vs):
        return " ".join(([w] if fmt == 1 else []) + [str(v) for v in vs])

    weights = st.sampled_from(["1", "2", "1/2", "3.5"])
    valid = st.builds(line, weights, st.lists(st.integers(1, n), min_size=2,
                                              max_size=3, unique=True))
    # singletons, repeated or out-of-range ids, bad or non-positive weights
    near = st.builds(line, weights | st.sampled_from(["0", "-1", "-2/3", "1/0"]),
                     st.lists(st.integers(-1, n + 1), min_size=1, max_size=3))
    garbage = st.lists(TOKENS, max_size=4).map(" ".join)
    line_st = st.one_of(valid, valid, near, garbage, st.just("% comment"))
    return draw(st.lists(line_st, min_size=1, max_size=6))


class TestOneParser:
    @given(st.integers(3, 5), st.sampled_from([0, 1]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_stream_and_file_parse_alike(self, n, fmt, data):
        lines = data.draw(edge_lines(n, fmt))
        m = sum(1 for x in lines if x.strip() and not x.strip().startswith("%"))
        body = "".join(x + "\n" for x in lines)
        try:
            parse_hypergraph(f"{m} {n} {fmt}\n" + body)
            expected = None
        except ParseError as exc:
            expected = exc
        out, err = io.StringIO(), io.StringIO()
        # a comment in place of the header keeps the line numbers aligned
        with mock.patch("sys.stdin", io.StringIO("%\n" + body)), \
                redirect_stdout(out), redirect_stderr(err):
            code = dispatch(["stream", "--n", str(n), "--m-bound", str(max(m, 1)),
                             "--fmt", str(fmt), "-e", "1"])
        if expected is None:
            assert code == 0, err.getvalue()
        else:
            assert code == 2
            assert err.getvalue() == f"error: {expected}\n"
            assert str(expected).startswith(f"line {expected.line}: ")


def test_verify_mean_above_float_range(tmp_path, capsys):
    a = tmp_path / "a.hg"
    a.write_text("1 2 1\n1 1 2\n")
    b = tmp_path / "b.hg"
    b.write_text(f"1 2 1\n{10**400} 1 2\n")
    assert dispatch(["verify", "-a", str(a), "-b", str(b), "-e", "1"]) == 1
    out = capsys.readouterr().out
    assert f"max_rel_error={10**400 - 1}\n" in out
    assert "mean_rel_error=1.0000000000000000e+400\n" in out
