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
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .balance import BalanceError, is_balanced, run_balance
from .graph import strength_table_from_pairs
from .hypergraph import (
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
from .pipeline import PipelineError, StreamState, fast_sparsify
from .sparsify import SparsifierResult, save_result, sparsify_weighted
from .verify import EXHAUSTIVE_LIMIT, all_cuts_report, report_csv, report_text

DEFAULT_EDGE_CAP = 10**6


@dataclass(frozen=True)
class RunConfig:
    """Validated common knobs shared by the subcommands.

    The verify threshold is deliberately not `epsilon`: sparsification
    requires epsilon in (0, 1], while a verification target may be 0 (exact
    match) or above 1.
    """

    subcommand: str
    input: Optional[str] = None
    output: Optional[str] = None
    epsilon: Optional[float] = None
    gamma: int = 2
    d: int = 1
    seed: int = 0
    rho_override: Optional[Fraction] = None
    exhaustive_limit: int = EXHAUSTIVE_LIMIT
    edge_cap: int = DEFAULT_EDGE_CAP

    def __post_init__(self):
        if self.epsilon is not None and not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if not isinstance(self.gamma, int) or self.gamma < 2:
            raise ValueError("gamma must be an integer >= 2")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.d < 0:
            raise ValueError("d must be nonnegative")
        if self.edge_cap < 1:
            raise ValueError("edge cap must be positive")


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


def _emit_result(res: SparsifierResult, output: Optional[str]) -> None:
    if output:
        save_result(res, output)
    else:
        sys.stdout.write(serialize_hypergraph(res.hypergraph))


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


def _add_common(p: argparse.ArgumentParser, *, epsilon: bool = True) -> None:
    if epsilon:
        p.add_argument("-e", "--epsilon", type=float, required=True,
                       help="approximation parameter in (0, 1]")
    p.add_argument("-g", "--gamma", type=int, default=2,
                   help="balance ratio, integer >= 2 (default 2)")
    p.add_argument("-d", type=int, default=1, dest="d",
                   help="failure exponent, error probability O(n^-d) (default 1)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; all randomness derives from it (default 0)")
    p.add_argument("--rho-override", default=None, metavar="RHO",
                   help="replace the theoretical sampling rate (rational or decimal)")
    p.add_argument("--edge-cap", type=int, default=DEFAULT_EDGE_CAP,
                   help="limit on generated edges / expanded unit copies "
                        "(default 1000000)")


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
                                   "or stdout.")
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
    p.add_argument("--seed", type=int, default=0, help="random family seed")
    p.add_argument("--edge-cap", type=int, default=DEFAULT_EDGE_CAP,
                   help="refuse families with more edges than this")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sparsify", formatter_class=_fmt,
                       help="sparsify via unit-copy expansion and strength sampling",
                       description="Direct sparsifier: rescale weights, expand "
                                   "into unit copies, balance, sample.")
    p.add_argument("-i", "--input", default=None, help="input path (default stdin)")
    p.add_argument("-o", "--output", default=None,
                   help="output path; writes a .meta sidecar too (default stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_sparsify)

    p = sub.add_parser("pipeline", formatter_class=_fmt,
                       help="sparsify arbitrary weight ratios via weight buckets",
                       description="Bucketed pipeline: split edges into "
                                   "geometric weight buckets, sparsify each "
                                   "parity class under contraction, union.")
    p.add_argument("-i", "--input", default=None, help="input path (default stdin)")
    p.add_argument("-o", "--output", default=None,
                   help="output path; writes a .meta sidecar too (default stdout)")
    _add_common(p)
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
    _add_common(p)
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
    p.add_argument("-g", "--gamma", type=int, default=2,
                   help="balance ratio for non-2-uniform inputs (default 2)")
    p.set_defaults(func=cmd_strengths)

    p = sub.add_parser("balance", formatter_class=_fmt,
                       help="run the balancing loop and dump the assignment",
                       description="Balance an unweighted multi-hypergraph and "
                                   "print the per-copy clique weights plus the "
                                   "re-derived balance report.")
    p.add_argument("-i", "--input", default=None, help="input path (default stdin)")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.add_argument("-g", "--gamma", type=int, default=2,
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
    p.add_argument("--seed", type=int, default=0, help="cut sampling seed")
    p.add_argument("--csv", default=None, metavar="FILE",
                   help="also write per-cut records as CSV")
    p.set_defaults(func=cmd_verify)

    return parser


def cmd_gen(args) -> int:
    cfg = RunConfig("gen", output=args.output, seed=args.seed,
                    edge_cap=args.edge_cap)
    fam = args.family
    if fam == "sunflower":
        h = gen_sunflower(args.n)
    elif fam == "footnote":
        h = gen_footnote_graph(args.n)
    elif fam in ("example1", "example2"):
        h = gen_example(fam, args.n, args.r, edge_cap=cfg.edge_cap)
    else:
        if args.m > cfg.edge_cap:
            raise ValueError(f"edge count {args.m} exceeds cap {cfg.edge_cap}")
        h = gen_random(args.n, args.m, args.r_max, weighted=args.weighted,
                       w_max=args.w_max, seed=cfg.seed)
    text = serialize_hypergraph(h)
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_sparsify(args) -> int:
    cfg = RunConfig("sparsify", input=args.input, output=args.output,
                    epsilon=args.epsilon, gamma=args.gamma, d=args.d,
                    seed=args.seed, rho_override=_parse_rho(args.rho_override),
                    edge_cap=args.edge_cap)
    h = _read_hypergraph(cfg.input)
    res = sparsify_weighted(h, cfg.epsilon, d=cfg.d, seed=cfg.seed,
                            gamma=cfg.gamma, rho_override=cfg.rho_override,
                            copy_cap=cfg.edge_cap)
    _emit_result(res, cfg.output)
    return 0


def cmd_pipeline(args) -> int:
    cfg = RunConfig("pipeline", input=args.input, output=args.output,
                    epsilon=args.epsilon, gamma=args.gamma, d=args.d,
                    seed=args.seed, rho_override=_parse_rho(args.rho_override),
                    edge_cap=args.edge_cap)
    if cfg.rho_override is not None:
        raise ValueError("the bucketed pipeline does not take a rho override")
    h = _read_hypergraph(cfg.input)
    res = fast_sparsify(h, cfg.epsilon, cfg.d, cfg.seed, copy_cap=cfg.edge_cap)
    _emit_result(res, cfg.output)
    return 0


def cmd_stream(args) -> int:
    cfg = RunConfig("stream", input=args.input, output=args.output,
                    epsilon=args.epsilon, gamma=args.gamma, d=args.d,
                    seed=args.seed, rho_override=_parse_rho(args.rho_override),
                    edge_cap=args.edge_cap)
    if cfg.rho_override is not None:
        raise ValueError("the streaming wrapper does not take a rho override")
    with _open_text(cfg.input) as fh:
        state = StreamState(args.n, args.m_bound, cfg.epsilon, cfg.d, cfg.seed,
                            args.capacity, copy_cap=cfg.edge_cap)
        for lineno, toks in content_lines(fh):
            state.push(parse_edge_line(lineno, toks, args.n, args.fmt))
    res = state.finish()
    _emit_result(res, cfg.output)
    return 0


def cmd_strengths(args) -> int:
    h = _read_hypergraph(args.input)
    if all(e.size == 2 for e in h.edges):
        pairs: dict = {}
        for e in h.edges:
            p = (e.vertices[0], e.vertices[1])
            pairs[p] = pairs.get(p, Fraction(0)) + e.weight
        table = strength_table_from_pairs(h.n, pairs)
    elif h.is_unweighted():
        table = run_balance(h, args.gamma).strengths
    else:
        raise ValueError(
            "strengths needs a 2-uniform input or unit weights; weighted "
            "hyperedges have no canonical clique weights before balancing"
        )
    lines = ["% u v weight strength"]
    for (u, v), w in sorted(table.positive_pairs()):
        lines.append(f"{u} {v} {format_weight(w)} {format_weight(table.strength(u, v))}")
    lines.append(f"% distinct_strengths={table.distinct_strength_count()}"
                 f" weight_over_strength={format_weight(table.strength_weight_sum())}"
                 f" n_minus_1={h.n - 1}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_balance(args) -> int:
    cfg = RunConfig("balance", input=args.input, output=args.output,
                    gamma=args.gamma)
    h = _read_hypergraph(cfg.input)
    assignment = run_balance(h, cfg.gamma)
    report = is_balanced(assignment)
    lines = [
        f"n={assignment.hypergraph.n} m={assignment.hypergraph.m}"
        f" gamma={assignment.gamma} delta={assignment.delta}"
        f" iterations={assignment.iterations}"
        f" k0={assignment.k0} ell={assignment.ell}"
    ]
    for g in assignment.groups:
        slots = ";".join(f"{u},{v}" for u, v in g.slots)
        lines.append(f"group={','.join(map(str, g.key))} slots={slots}")
        for c in g.copies:
            units = ",".join(map(str, g.units_for(c)))
            lines.append(f"copy={c} units={units}")
    lines.append(f"balanced={int(report.ok)} checked={report.checked_copies}"
                 f" violations={len(report.violations)}")
    text = "\n".join(lines) + "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    rep = all_cuts_report(
        _read_hypergraph(args.a), _read_hypergraph(args.b), args.epsilon,
        exhaustive_limit=args.exhaustive_limit,
        sample_count=args.cut_samples,
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
    except (BalanceError, PipelineError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
