"""The benchmark's own tests: every workload once at the smoke size.

Each run is a separate process, as the benchmark is run for real.  The
stream and skewed workloads must pass every output check; verify is only
required to report its op consistently, since whether `hgsparse verify`
succeeds is what the benchmark measures, not what it assumes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["stream", "skewed", "verify"])
def test_smoke(workload, trace):
    proc = run(["--workload", workload, "--seed", "5", "--smoke", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 1 + trace
    assert result["correct"] == (result["failed"] == 0)
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    if workload != "verify":
        assert result["correct"], proc.stdout
    if trace and workload == "skewed":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["sparsify.copies_p_lt1"] == metrics["sparsify.unit_copies"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(["--workload", "stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
