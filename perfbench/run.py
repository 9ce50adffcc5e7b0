"""hgsparse benchmark: whole calls timed untraced, layers timed in a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all           # stream, skewed, verify
    python3 perfbench/run.py --workload all --smoke   # reduced size, one op each

One process runs one workload with a single caller in a closed loop: the
next op starts when the previous one has returned.  `--trace 0` reports the
end-to-end metrics of BENCHMARK.json; `--trace 1` alternates untraced and
traced ops and reports its per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The program is imported from this checkout's src/ and nowhere
else.  Scratch files go to .perfbench_work/ and are removed on exit.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900
# each proved bound, printed beside the value it bounds
BOUNDS = (
    ("balance.iterations", "balance.iteration_cap"),
    ("sparsify.sum_p", "sparsify.size_budget"),
    ("pipeline.high_water", "pipeline.memory_bound"),
)


def load_program() -> None:
    package = SRC / "hgsparse"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no hgsparse sources at {package}")
    sys.path.insert(0, str(SRC))
    import hgsparse
    if Path(hgsparse.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported hgsparse from {hgsparse.__file__}, not {package}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """Identifies the measured code where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hgsparse").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> str:
    return (f"python={platform.python_version()} git_sha={git_sha()} "
            f"src_sha256={src_digest()} nproc={len(os.sched_getaffinity(0))} "
            f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} smoke={int(args.smoke)}")


Op = collections.namedtuple("Op", "seconds traced error")

# per-layer counts that come from return values and the .meta sidecar
COUNTS = (
    "sparsify.unit_copies", "sparsify.kept_copies", "sparsify.copies_p_lt1",
    "sparsify.sum_p", "sparsify.size_budget", "balance.iterations",
    "balance.iteration_cap", "verify.cuts_checked", "pipeline.flushes",
    "pipeline.max_flush_out", "pipeline.high_water", "pipeline.memory_bound",
)


def add_result_counts(results, counts: dict, bounds_ok: dict) -> None:
    """Fold the kept return values of one traced op into the counts."""
    from workloads import count_p_below_one

    for name, res in results:
        if name == "sparsify.sample_sparsifier":
            budget = res.plan.size_budget()
            counts["sparsify.unit_copies"] += res.m_in
            counts["sparsify.kept_copies"] += res.m_out
            counts["sparsify.copies_p_lt1"] += count_p_below_one(res.plan.p)
            counts["sparsify.sum_p"] += res.sum_p
            counts["sparsify.size_budget"] += budget
            bounds_ok["sparsify.sum_p"] &= res.sum_p <= budget
        elif name == "balance.run_balance":
            # run_balance's default cap: twice the proved m * ell * n^2
            cap = 2 * res.hypergraph.m * res.ell * res.units_per_copy
            counts["balance.iterations"] += res.iterations
            counts["balance.iteration_cap"] += cap
            bounds_ok["balance.iterations"] &= res.iterations <= cap
        elif name == "verify.all_cuts_report":
            counts["verify.cuts_checked"] += res.cuts_checked


def set_up(args, workdir: Path):
    """Build the workload, with one warm-up op, once per set-up repeat.
    Returns the last workload and every set-up's time."""
    from workloads import WORKLOADS

    size = "smoke" if args.smoke else "full"
    repeats = 1 if args.smoke or args.trace else SETUP_REPEATS
    setup_s = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        wl = WORKLOADS[args.workload](workdir, args.seed, size)
        wl.setup()
        if not args.smoke:
            try:
                wl.op()  # warm-up; a failing op is counted by the timed ops
            except Exception:
                pass
        setup_s.append(time.perf_counter() - t0)
    wl.prepare_checks()
    return wl, setup_s


def run_ops(args, wl, tracer):
    """The closed loop.  Every op is timed and checked, failed or not; with a
    tracer, every second op is traced and its counts are collected."""
    counts = dict.fromkeys(COUNTS, 0)
    bounds_ok = {measured: True for measured, _ in BOUNDS}
    min_ops = 2 if tracer else 1  # a traced run needs one op of each kind
    ops: list[Op] = []
    start = time.perf_counter()
    while len(ops) < min_ops or (
            not args.smoke and time.perf_counter() - start < args.seconds):
        traced = tracer is not None and len(ops) % 2 == 1
        call = tracer.root(wl.op) if traced else wl.op
        gc.collect()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            raw, error = call(), None
        except Exception as exc:  # a failing op is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if traced:
            tracer.remove()
        got = None
        if error is None:
            try:
                got = wl.collect(raw)
                error = wl.check(got)
            except Exception as exc:
                error = f"output check raised {type(exc).__name__}: {exc}"
        if traced:
            add_result_counts(tracer.results, counts, bounds_ok)
            tracer.results.clear()
            if got is not None:
                meta = wl.pipeline_counts(got)
                for key, value in meta.items():
                    counts[key] += value
                bounds_ok["pipeline.high_water"] &= (
                    meta.get("pipeline.high_water", 0)
                    <= meta.get("pipeline.memory_bound", 0))
        ops.append(Op(seconds, traced, error))
    return ops, counts, bounds_ok


def layer_values(tracer, ops, counts, bounds_ok, lines) -> dict:
    """Per-op layer metrics of the traced ops; prints shares and bounds."""
    from tracer import OP

    n = sum(op.traced for op in ops)
    values = {k: v / n for k, v in counts.items()}
    totals = tracer.totals()
    for name, (calls, s, self_s) in totals.items():
        values[f"{name}.calls"] = calls / n
        values[f"{name}.s"] = s / n
        values[f"{name}.self_s"] = self_s / n
    values["balance.batched_units"] = (
        values["balance.iterations"] - values.get("balance.transfer_step.calls", 0))
    plain = statistics.median(op.seconds for op in ops if not op.traced)
    with_trace = statistics.median(op.seconds for op in ops if op.traced)
    values["trace.op_s_p50_untraced"] = plain
    values["trace.op_s_p50_traced"] = with_trace
    values["trace.overhead_s"] = with_trace - plain

    op_s = values[f"{OP}.s"]
    lines.append(f"# layers over {n} traced ops: seconds per op, share of the op")
    for name, (_, s, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"#   {name:32s} s={s / n:.4f} ({s / n / op_s:6.1%})"
                     f" self_s={self_s / n:.4f} ({self_s / n / op_s:6.1%})")
    for measured, bound in BOUNDS:
        verdict = ("holds on every call" if bounds_ok[measured] else "VIOLATED"
                   ) if values[bound] else "not exercised"
        lines.append(f"# bound {measured}={float(values[measured]):.6g} <= "
                     f"{bound}={float(values[bound]):.6g}: {verdict}")
    return values


def measure(args, spec) -> dict:
    from tracer import Tracer

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl, setup_s = set_up(args, workdir)
        tracer = Tracer() if args.trace else None
        ops, counts, bounds_ok = run_ops(args, wl, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = [op for op in ops if op.error]

    lines: list[str] = []
    if tracer:
        values = layer_values(tracer, ops, counts, bounds_ok, lines)
        wanted = spec["per_layer"]
    else:
        values = {
            "op_s_p50": statistics.median(op.seconds for op in ops),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_s),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0)), "unit": m["unit"]}
               for m in wanted}
    notes = {"op_s_p50": f" (median of {len(ops)} ops)",
             "setup_s": f" (median of {len(setup_s)} set-ups)"}
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}{notes.get(name, '')}")
    lines.append("# op seconds: " + " ".join(
        f"{op.seconds:.3f}{'t' if op.traced else ''}" for op in ops))
    lines.append(f"ops_failed_frac {len(failed) / len(ops):.6g} "
                 f"({len(failed)} of {len(ops)} ops)")
    reasons = collections.Counter(op.error for op in failed)
    for reason, count in reasons.items():
        lines.append(f"# failed x{count}: {wl.command}: {reason}")
    print("\n".join(lines))
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def run_all(args, names) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> None:
    load_program()
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced size, one op (two when traced), all checks on")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    print(f"# perfbench {environment(args)}", flush=True)
    if args.workload == "all":
        result = run_all(args, list(WORKLOADS))
    else:
        result = measure(args, spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
