#!/usr/bin/env python3
"""Run the full pipeline (analyze, synthesize, verify, simulate) on the
bundled example scenario and write all artifacts to an output directory.

Equivalent to `nisyn reproduce-example`; exits 1 if any check fails and 2,
with one `error:` line, on a usage or scenario error such as a `--dt` that
is not a finite positive number.
"""

import argparse
import sys
from pathlib import Path

from nisyn.cli import _USAGE_ERRORS, bundled_scenario_path, run_reproduce
from nisyn.scenario import load_scenario, override


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out-reproduce", help="output directory")
    parser.add_argument("--dt", type=float, default=None, help="step override")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    try:
        scn = load_scenario(bundled_scenario_path())
        if args.dt is not None:
            override(scn, "simulation", "dt", args.dt, "--dt")
        report = run_reproduce(scn, Path(args.out), jobs=args.jobs)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for stage, rep in report["stages"].items():
        print(f"{stage}: {'PASS' if rep.get('passed') else 'FAIL'}")
    if report["passed"]:
        print(f"all stages passed; artifacts in {args.out}/")
        return 0
    print("pipeline failed; inspect the reports")
    return 1


if __name__ == "__main__":
    sys.exit(main())
