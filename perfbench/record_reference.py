"""Record the key numbers every checked operation is compared against.

Runs each scenario a seed can select (every workload, size and variant)
once through the same operation the benchmark times, and writes
``perfbench/reference.json``.  Run it only on the commit whose outputs are
the reference (the seed commit); a later commit that changes outputs
beyond the stated tolerance is what the benchmark exists to catch.

Usage: python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import nisyn.cli  # noqa: E402

import workloads  # noqa: E402


def record(workload: str, size: str, seed: int, scratch: Path) -> dict:
    data = workloads.GENERATORS[workload](nisyn.cli, seed, size)
    path = scratch / f"{workload}-{size}-{seed}.json"
    path.write_text(json.dumps(data))
    out_dir = scratch / f"{workload}-{size}-{seed}"
    stages, _ = workloads.run_operation(nisyn.cli, workload, path, out_dir, 1)
    failed = [name for name, rep in stages.items() if not rep.get("passed")]
    if failed:
        raise SystemExit(f"{workload}/{size}/{seed}: {failed} did not pass")
    entry = {"keys": workloads.key_numbers(stages, out_dir)}
    if workload == "example":
        entry["laws"] = stages["synthesize"]["laws"]
    return entry


def main() -> int:
    reference = {"tolerance": {"rtol": workloads.RTOL, "atol": workloads.ATOL}}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for workload in workloads.WORKLOADS:
            variants = 1 if workload == "example" else workloads.VARIANTS
            for size in workloads.SIZES:
                table = reference.setdefault(workload, {}).setdefault(size, {})
                for variant in range(variants):
                    table[str(variant)] = record(workload, size, variant,
                                                 Path(tmp))
                    print(f"recorded {workload}/{size}/{variant}", flush=True)
    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
