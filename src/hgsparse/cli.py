"""Command line front end.

Subcommands cover generation, the direct sparsifier, the bucketed pipeline,
streaming from stdin, strength/balance dumps, and cut-by-cut verification.
Every run is deterministic in its flags: identical argv gives byte-identical
output files, and all randomness flows from --seed.

Exit codes: 0 success, 1 a verification or runtime check failed, 2 bad
usage, unreadable input, or out-of-range parameters.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import sys
from fractions import Fraction
from typing import Optional

from .balance import BalanceError, is_balanced, run_balance
from .graph import edge_strengths
from .hypergraph import (
    EDGE_LIMIT,
    ENTRY_LIMIT,
    HyperEdge,
    ParseError,
    WeightedHypergraph,
    content_lines,
    format_weight,
    gen_example,
    gen_footnote_graph,
    gen_random,
    gen_sunflower,
    parse_edge_line,
    parse_hypergraph,
    serialize_hypergraph,
)
from .pipeline import PipelineError, fast_sparsify, stream_sparsify
from .sparsify import SamplingError, SparsifierResult, check_epsilon, save_result, sparsify_weighted
from .verify import EXHAUSTIVE_LIMIT, all_cuts_report, report_csv, report_text


def _int_type(ok, message: str):
    """An argparse type: an int for which `ok` holds, else `message`."""

    def parse(text: str) -> int:
        value = int(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = "int"  # a non-integer still reads "invalid int value"
    return parse


_seed = _int_type(lambda v: 0 <= v < 2**64, "seed must fit in 64 unsigned bits")
_gamma = _int_type(lambda v: v >= 2, "gamma must be an integer >= 2")
_d = _int_type(lambda v: v >= 0, "d must be nonnegative")


def _fmt(prog: str) -> argparse.HelpFormatter:
    # fixed width keeps --help output independent of the terminal
    return argparse.HelpFormatter(prog, width=78)


def _open_text(path: Optional[str]):
    """The input as an open text file, stdin when `path` is None or '-'."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(path)


def _read_hypergraph(path: Optional[str]) -> WeightedHypergraph:
    with _open_text(path) as fh:
        return parse_hypergraph(fh)


def _write_text(text: str, path: Optional[str]) -> None:
    """Write `text` to `path`, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_result(res: SparsifierResult, output: Optional[str]) -> None:
    if output:
        save_result(res, output)
    else:
        _write_text(serialize_hypergraph(res.hypergraph), None)


def _parse_rho(text: Optional[str]) -> Optional[Fraction]:
    if text is None:
        return None
    try:
        rho = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rho override {text!r}") from None
    if rho <= 0:
        raise ValueError("rho override must be positive")
    return rho


def _add_common(p: argparse.ArgumentParser, *, gamma: bool) -> None:
    # not an argparse type: each command checks -e before it reads input, so
    # the message stays "error: epsilon must be in (0, 1]"
    p.add_argument("-e", "--epsilon", type=float, required=True,
                   help="approximation parameter in (0, 1]")
    if gamma:
        p.add_argument("-g", "--gamma", type=_gamma, default=2,
                       help="balance ratio, integer >= 2 (default 2)")
    p.add_argument("-d", type=_d, default=1, dest="d",
                   help="failure exponent, error probability O(n^-d) (default 1)")
    p.add_argument("--seed", type=_seed, default=0,
                   help="master seed; all randomness derives from it (default 0)")
    p.add_argument("--rho-override", default=None, metavar="RHO",
                   help="replace the theoretical sampling rate (rational or decimal)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgsparse",
        formatter_class=_fmt,
        description="Cut sparsifiers for weighted multi-hypergraphs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    p = sub.add_parser("gen", formatter_class=_fmt,
                       help="generate a named hypergraph family",
                       description="Write a named hypergraph family to a file "
                                   f"or stdout.  A family of more than {EDGE_LIMIT} "
                                   f"edges or {ENTRY_LIMIT} vertex entries is refused.")
    p.add_argument("family",
                   choices=["sunflower", "footnote", "example1", "example2", "random"])
    p.add_argument("--n", type=int, required=True, help="family size parameter")
    p.add_argument("--r", type=int, default=2,
                   help="edge size parameter for example1/example2 (default 2)")
    p.add_argument("--m", type=int, default=0,
                   help="edge count for the random family (default 0)")
    p.add_argument("--r-max", type=int, default=3,
                   help="largest random edge size (default 3)")
    p.add_argument("--weighted", action="store_true",
                   help="random family: draw weights uniformly from [1, w-max]")
    p.add_argument("--w-max", type=int, default=1,
                   help="largest random weight (default 1)")
    p.add_argument("--seed", type=_seed, default=0, help="random family seed")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sparsify", formatter_class=_fmt,
                       help="sparsify via unit-copy counts and strength sampling",
                       description="Direct sparsifier: rescale weights to "
                                   "unit-copy counts, balance, sample.")
    p.add_argument("-i", "--input", default=None, help="input path (default stdin)")
    p.add_argument("-o", "--output", default=None,
                   help="output path; writes a .meta sidecar too (default stdout)")
    _add_common(p, gamma=True)
    p.set_defaults(func=cmd_sparsify)

    p = sub.add_parser("pipeline", formatter_class=_fmt,
                       help="sparsify arbitrary weight ratios via weight buckets",
                       description="Bucketed pipeline: split edges into "
                                   "geometric weight buckets, sparsify each "
                                   "parity class under contraction, union.")
    p.add_argument("-i", "--input", default=None, help="input path (default stdin)")
    p.add_argument("-o", "--output", default=None,
                   help="output path; writes a .meta sidecar too (default stdout)")
    _add_common(p, gamma=False)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("stream", formatter_class=_fmt,
                       help="sparsify an insertion-only edge stream",
                       description="Read edge lines (no header) from stdin or "
                                   "-i, maintaining merge-and-reduce buffers "
                                   "sized by --n and --m-bound.")
    p.add_argument("-i", "--input", default=None,
                   help="edge line source (default stdin)")
    p.add_argument("-o", "--output", default=None,
                   help="output path; writes a .meta sidecar too (default stdout)")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--m-bound", type=int, required=True,
                   help="declared upper bound on the stream length")
    p.add_argument("--fmt", type=int, choices=[0, 1], default=1,
                   help="edge line format: 1 weighted '<w> <v1> ...', "
                        "0 unweighted '<v1> ...' (default 1)")
    p.add_argument("--capacity", type=int, default=None,
                   help="level-0 buffer size (default 4*n*ceil(log2(m/n)))")
    _add_common(p, gamma=False)
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("strengths", formatter_class=_fmt,
                       help="dump pair strengths of the clique expansion",
                       description="Print one line per positive vertex pair: "
                                   "u v weight strength.  Multigraph inputs "
                                   "(all edges of size 2) are used as-is; "
                                   "larger unit-weight edges get the balanced "
                                   "clique weights.")
    p.add_argument("-i", "--input", default=None, help="input path (default stdin)")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.add_argument("-g", "--gamma", type=_gamma, default=2,
                   help="balance ratio for non-2-uniform inputs (default 2)")
    p.set_defaults(func=cmd_strengths)

    p = sub.add_parser("balance", formatter_class=_fmt,
                       help="run the balancing loop and dump the assignment",
                       description="Balance an unweighted multi-hypergraph and "
                                   "print the per-copy clique weights plus the "
                                   "re-derived balance report.")
    p.add_argument("-i", "--input", default=None, help="input path (default stdin)")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.add_argument("-g", "--gamma", type=_gamma, default=2,
                   help="balance ratio, integer >= 2 (default 2)")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("verify", formatter_class=_fmt,
                       help="compare all cuts of two hypergraphs",
                       description="Exhaustive (n <= limit) or sampled cut "
                                   "comparison; prints a key=value report and "
                                   "exits 1 when the error exceeds the target.")
    p.add_argument("-a", required=True, metavar="FILE", help="reference hypergraph")
    p.add_argument("-b", required=True, metavar="FILE", help="candidate hypergraph")
    p.add_argument("-e", "--epsilon", type=float, required=True,
                   help="largest allowed relative cut error (>= 0)")
    p.add_argument("--exhaustive-limit", type=int, default=EXHAUSTIVE_LIMIT,
                   help="enumerate all cuts up to this n (default 20)")
    p.add_argument("--cut-samples", type=int, default=None,
                   help="random cut count above the exhaustive limit")
    p.add_argument("--seed", type=_seed, default=0, help="cut sampling seed")
    p.add_argument("--csv", default=None, metavar="FILE",
                   help="also write per-cut records as CSV")
    p.set_defaults(func=cmd_verify)

    return parser


def cmd_gen(args) -> int:
    fam, n = args.family, args.n
    if fam == "sunflower":
        h = gen_sunflower(n)
    elif fam == "footnote":
        h = gen_footnote_graph(n)
    elif fam in ("example1", "example2"):
        h = gen_example(fam, n, args.r)
    else:
        h = gen_random(n, args.m, args.r_max, weighted=args.weighted,
                       w_max=args.w_max, seed=args.seed)
    _write_text(serialize_hypergraph(h), args.output)
    return 0


def cmd_sparsify(args) -> int:
    rho = _parse_rho(args.rho_override)
    check_epsilon(args.epsilon)
    h = _read_hypergraph(args.input)
    res = sparsify_weighted(h, args.epsilon, d=args.d, seed=args.seed,
                            gamma=args.gamma, rho_override=rho)
    _emit_result(res, args.output)
    return 0


def cmd_pipeline(args) -> int:
    rho = _parse_rho(args.rho_override)
    check_epsilon(args.epsilon)
    if rho is not None:
        raise ValueError("the bucketed pipeline does not take a rho override")
    h = _read_hypergraph(args.input)
    res = fast_sparsify(h, args.epsilon, args.d, args.seed)
    _emit_result(res, args.output)
    return 0


def cmd_stream(args) -> int:
    rho = _parse_rho(args.rho_override)
    check_epsilon(args.epsilon)
    if rho is not None:
        raise ValueError("the streaming wrapper does not take a rho override")
    with _open_text(args.input) as fh:
        edges = (parse_edge_line(lineno, toks, args.n, args.fmt)
                 for lineno, toks in content_lines(fh))
        res = stream_sparsify(edges, args.n, args.m_bound, args.epsilon, args.d, args.seed,
                              args.capacity)
    _emit_result(res, args.output)
    return 0


def cmd_strengths(args) -> int:
    h = _read_hypergraph(args.input)
    if not all(e.size == 2 for e in h.edges):
        if not h.is_unweighted():
            raise ValueError(
                "strengths needs a 2-uniform input or unit weights; weighted "
                "hyperedges have no canonical clique weights before balancing"
            )
        # the balanced clique weights, as the multigraph they make
        state = run_balance(h, args.gamma)
        h = WeightedHypergraph(h.n, tuple(HyperEdge(p, u * state.delta)
                                          for p, u in state.collapsed_units().items()))
    table = edge_strengths(h)
    lines = ["% u v weight strength"]
    for (u, v), w in sorted(table.pair_weight.items()):
        lines.append(f"{u} {v} {format_weight(w)} {format_weight(table.strength(u, v))}")
    lines.append(f"% distinct_strengths={table.distinct_strength_count()}"
                 f" weight_over_strength={format_weight(table.strength_weight_sum())}"
                 f" n_minus_1={h.n - 1}")
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def cmd_balance(args) -> int:
    state = run_balance(_read_hypergraph(args.input), args.gamma)
    report = is_balanced(state)
    lines = [
        f"n={state.hypergraph.n} m={state.hypergraph.m}"
        f" gamma={state.gamma} delta={state.delta}"
        f" iterations={state.iterations}"
        f" k0={state.k0_units * state.delta} ell={state.ell}"
    ]
    for g in state.groups.values():
        slots = ";".join(f"{u},{v}" for u, v in g.slots)
        lines.append(f"group={','.join(map(str, g.key))} slots={slots}")
        copies = itertools.chain.from_iterable(g.spans)
        for count, units in g.runs:  # one line per copy, in copy order
            text = ",".join(map(str, units))
            lines += [f"copy={c} units={text}" for c in itertools.islice(copies, count)]
    lines.append(f"balanced={int(report.ok)} checked={report.checked_copies}"
                 f" violations={sum(v.count for v in report.violations)}")
    _write_text("\n".join(lines) + "\n", args.output)
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    rep = all_cuts_report(
        _read_hypergraph(args.a), _read_hypergraph(args.b), args.epsilon,
        exhaustive_limit=args.exhaustive_limit,
        sample_count=args.cut_samples,
        record_cap=None if args.csv else 0,  # only the CSV reads per-cut records
        seed=args.seed,
    )
    sys.stdout.write(report_text(rep))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report_csv(rep))
    return 0 if rep.passed else 1


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:  # argparse handles --help and usage errors
        code = ex.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ValueError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BalanceError, PipelineError, SamplingError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
