"""nisyn benchmark: one command, named workloads, checked results.

Usage (from the repository root):

    python3 perfbench/run.py --workload example --seed 1 --seconds 33 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see BENCHMARK.json and perfbench/README.md).  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; every metric is also printed by name with its unit above it.

The operations run in a separate measurement process (worker.py), so its
peak RSS is the workload's alone; set-up time is the median of several
fresh interpreters (probe.py).  The gated times, ``setup_s`` and
``norm_wall_s``, are taken at the reference host speed (hostspeed.py);
the raw wall times are printed next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
IMPORT_MODULES = ("nisyn", "nisyn.expr", "nisyn.lyapunov", "nisyn.synthesis",
                  "nisyn.uncertainty", "nisyn.sim", "nisyn.scenario",
                  "nisyn.cli", "numpy", "scipy.linalg", "scipy.stats")


class BenchmarkError(Exception):
    pass


def _child(argv: list, timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"{' '.join(argv)} exited with {proc.returncode}")
    return proc


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out[parts[2].strip()] = int(parts[1]) * 1e-6
    return out


def setup_metrics(scenario: Path, traced: bool) -> dict:
    """Median over fresh interpreters of import nisyn.cli + load scenario;
    the traced run reads per-module import times from -X importtime."""
    flags = ["-X", "importtime"] if traced else []
    probes, imports = [], []
    for _ in range(SETUP_PROBES):
        proc = _child([*flags, str(HERE / "probe.py"), str(scenario)])
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        imports.append(parse_importtime(proc.stderr))
    if not traced:
        return {"setup_s": statistics.median(p["setup_s"] for p in probes),
                "raw_setup_s": statistics.median(p["raw_setup_s"] for p in probes)}
    return {f"setup.import_s.{name}":
            statistics.median(run.get(name, 0.0) for run in imports)
            for name in IMPORT_MODULES}


def _percentile_line(walls: list) -> str:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(walls)
    if n < 11:
        return f"no percentile (needs >= 11 operations, have {n})"
    pct = 100 * (n - 10) // n
    value = statistics.quantiles(walls, n=100, method="inclusive")[pct - 1]
    return f"p{pct} {value:.4f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="smoke: the smallest scenarios, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nisyn" / "__init__.py").is_file():
        print("error: src/nisyn not found next to perfbench/", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"trace-{args.workload}-{args.seed}.json"
    try:
        _child([str(HERE / "worker.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size,
                "--workdir", str(workdir), "--spans", str(spans),
                "--result", str(workdir / "result.json")])
        # the worker is the only child reaped so far
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        with open(workdir / "result.json") as fh:
            result = json.load(fh)
        setup = setup_metrics(workdir / "scenario.json", bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    failed = sum(1 for op in ops if op["problems"])
    walls = [op["wall_s"] for op in ops]
    if args.trace:
        values = {**result["layers"], **setup}
    else:
        norm_walls = [op["norm_wall_s"] for op in ops]
        values = {"setup_s": setup["setup_s"],
                  "norm_wall_s": statistics.median(norm_walls),
                  "peak_rss_mb": peak_rss_mb,
                  "ok_ratio": (len(ops) - failed) / len(ops)}
        print(f"wall_s: median {statistics.median(walls):.4f} s over {len(ops)} "
              f"operations ({', '.join(f'{w:.3f}' for w in walls)}); "
              f"{_percentile_line(walls)}")
        print(f"norm_wall_s (at reference host speed): "
              f"{', '.join(f'{w:.3f}' for w in norm_walls)}")
        print(f"raw setup_s: median {setup['raw_setup_s']:.4f} s")
        print(f"failed_ratio: {failed}/{len(ops)} = {failed / len(ops):g}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    if args.trace:
        print("self time per traced operation: " + ", ".join(
            f"{layer} {s:.4f} s"
            for layer, s in sorted(result["self_s_by_layer"].items())))
        print(f"spans with parent links and self times: {spans.relative_to(ROOT)}")
    problems = [p for op in ops for p in op["problems"]]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
