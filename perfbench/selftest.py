"""Self-test of the benchmark harness.

Runs every workload at its smallest size (``--size smoke``), traced and
untraced, and checks that each run exits 0, passes its correctness checks
and emits exactly the metrics BENCHMARK.json names.  It also checks that the
generators are deterministic and that the benchmark fails, without printing
a result, when the program's sources are missing.

Usage (from the repository root): python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import nisyn.cli  # noqa: E402

import workloads  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(workload: str, trace: int, spec: dict) -> None:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 2, result
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names, sorted(
        set(result["metrics"]) ^ set(names))
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values()), result
    print(f"ok: {workload} trace={trace} emits {len(names)} metrics")


def check_generators() -> None:
    for workload, generate in workloads.GENERATORS.items():
        for seed in (0, 1, 17):
            assert generate(nisyn.cli, seed, "full") == \
                generate(nisyn.cli, seed, "full"), (workload, seed)
        if workload != "example":
            assert generate(nisyn.cli, 0, "full") != generate(nisyn.cli, 1, "full")
    print("ok: generators are deterministic per seed")


def check_fails_without_sources() -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(Path(tmp), "example", 0)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok: fails without printing a result when src/ is missing")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_generators()
    check_fails_without_sources()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_metrics(workload, trace, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
