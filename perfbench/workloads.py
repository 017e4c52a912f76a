"""Seeded workload generators, operations and correctness checks.

Each workload turns a seed into one scenario dict; the program under test
only ever sees that scenario (written to a JSON file and read back through
``nisyn.cli.load_scenario``).  An operation runs the scenario through the
public ``nisyn.cli`` stage functions, and ``key_numbers`` pulls the values
that ``reference.json`` pins from its reports and CSV files.

Generated workloads draw from a pool of ``VARIANTS`` scenarios
(``seed % VARIANTS``) so that every scenario a seed can produce has key
numbers recorded at the seed commit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("example", "sweep", "wide")
SIZES = ("full", "smoke")
VARIANTS = 16

# Key numbers must match the recorded ones to |got - want| <= ATOL + RTOL*|want|.
# Re-associated float arithmetic (a batched or fused evaluator) moves values
# by ~1e-14 relative; finite-difference residuals divide V differences by dt,
# so their absolute error stays below ~1e-9.  A changed law or step moves
# them by far more than this tolerance.
RTOL = 1e-6
ATOL = 1e-7

# Per-workload micro-timing sizes: positivity points for pd_points_per_s.
PD_POINTS = {"example": 20000, "sweep": 20000, "wide": 2000}


def variant_of(workload: str, seed: int) -> int:
    """Index of the scenario a seed selects (0 for the bundled example)."""
    return 0 if workload == "example" else seed % VARIANTS


def _rng(workload: str, variant: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), variant])


def _bundled(nisyn_cli) -> dict:
    with open(nisyn_cli.bundled_scenario_path()) as fh:
        return json.load(fh)


def _round(x: float) -> float:
    return float(f"{x:.3f}")


def example_scenario(nisyn_cli, seed: int, size: str) -> dict:
    """The bundled example; the seed only sets the positivity sampler."""
    data = _bundled(nisyn_cli)
    data["verification"]["pd_seed"] = int(seed)
    if size == "smoke":
        data["simulation"]["t_end"] = 0.2
        data["verification"]["samples"] = 500
        # a 0.2 s run cannot settle; convergence is checked at full size
        data["verification"]["convergence_threshold"] = 100.0
        data["verification"]["nominal_convergence_threshold"] = 100.0
    return data


def _signal_catalog(rng: np.random.Generator, p: int) -> list:
    """K = 8 signals: zero, one step, three multisines, three bandlimited."""
    signals = [
        {"kind": "zero"},
        {"kind": "step",
         "amplitude": [_round(a) for a in rng.uniform(0.05, 0.25, p)],
         "start_time": 0.0},
    ]
    for _ in range(3):
        signals.append({
            "kind": "multisine",
            "amplitudes": [[_round(a) for a in rng.uniform(0.02, 0.15, 2)]
                           for _ in range(p)],
            "frequencies": [[_round(f) for f in rng.uniform(0.1, 1.5, 2)]
                            for _ in range(p)],
            "seed": int(rng.integers(1, 10_000)),
        })
    for _ in range(3):
        signals.append({
            "kind": "bandlimited",
            "amplitude": _round(rng.uniform(0.05, 0.25)),
            "cutoff": _round(rng.uniform(0.5, 2.0)),
            "components": int(rng.integers(4, 11)),
            "seed": int(rng.integers(1, 10_000)),
        })
    return signals


def sweep_scenario(nisyn_cli, seed: int, size: str) -> dict:
    """Bundled plant, no uncertainty, a general-form block and a seeded
    catalog of eight signals with a small positivity sample."""
    variant = variant_of("sweep", seed)
    rng = _rng("sweep", variant)
    data = _bundled(nisyn_cli)
    del data["uncertainty"]
    del data["regression"]
    catalog = _signal_catalog(rng, 2)
    ver = data["verification"]
    ver["input_signals"] = catalog
    ver["samples"] = 2000
    ver["pd_seed"] = int(rng.integers(1, 100_000))
    ver["sampling_box"] = ver["sampling_box"][:4]
    data["simulation"]["input"] = catalog[-1]
    # upper-triangular gain with a diagonal bounded away from zero, so the
    # applied-input transform is invertible at every state
    a, b, c, d = (_round(x) for x in rng.uniform(0.5, 2.0, 4))
    data["general_form"] = {
        "j1": [f"{_round(rng.uniform(-1, 1))}*xi2 + z1*xi1"],
        "j2": [f"{_round(rng.uniform(-1, 1))}*xi1^3"],
        "l1": [[f"{a} + {b}*xi1^2", f"{_round(rng.uniform(-1, 1))}*xi2"]],
        "l2": [["0", f"{c} + {d}*xi3^2"]],
    }
    data["name"] = f"sweep-{variant}"
    if size == "smoke":
        data["simulation"]["t_end"] = 0.2
        ver["samples"] = 200
        ver["input_signals"] = catalog[:1] + catalog[5:6]
    return data


def wide_scenario(nisyn_cli, seed: int, size: str) -> dict:
    """Generated plant with m = 4, p1 = 1, p2 = 2 and no uncertainty.

    A11 is block-diagonal: a rotation block (imaginary-axis eigenvalues, so
    the certificate takes the marginal path) and a coupled Hurwitz 2x2 block.
    A randomly rotated A11 is avoided on purpose: it can make P so
    ill-conditioned that integration fails.
    """
    variant = variant_of("wide", seed)
    rng = _rng("wide", variant)
    omega = _round(rng.uniform(0.5, 1.5))
    a, d = (_round(x) for x in rng.uniform(0.8, 2.0, 2))
    b, c = (_round(x) for x in rng.uniform(0.1, 0.6, 2) * rng.choice([-1, 1], 2))
    a11 = [[0.0, omega, 0.0, 0.0],
           [-omega, 0.0, 0.0, 0.0],
           [0.0, 0.0, -a, b],
           [0.0, 0.0, c, -d]]
    # the monomials are fixed and every coefficient is nonzero, so all
    # variants build expressions of the same shape and cost the same
    p_rows = [" + ".join(f"{_round(k)}*{mono}" for k, mono in zip(
                  rng.uniform(0.2, 1.0, 3) * rng.choice([-1, 1], 3), row))
              for row in WIDE_MONOMIALS]
    c1, c2 = (_round(x) for x in rng.uniform(0.5, 1.5, 2))
    data = {
        "name": f"wide-{variant}",
        "plant": {"m": 4, "p1": 1, "p2": 2, "A11": a11, "p": p_rows},
        "spec": {"P": "auto", "V2": f"xi1^(4/3) + {c1}*xi2_1^2 + {c2}*xi2_2^2",
                 "lambda": 1.0, "target": "OSNI"},
        "simulation": {
            "x0": [_round(x) for x in rng.uniform(-0.5, 0.5, 9)],
            "dt": 0.001, "t_end": 0.5, "input": {"kind": "zero"},
            "seed": int(rng.integers(1, 100_000)),
        },
        "verification": {"dissipation_tol": 0.001, "samples": 3000,
                         "pd_seed": int(rng.integers(1, 100_000))},
    }
    if size == "smoke":
        data["simulation"]["t_end"] = 0.05
        data["verification"]["samples"] = 200
    return data


WIDE_MONOMIALS = (
    ("xi1^2*xi2_1", "xi2_2^3", "xi1*xi2_1*xi2_2"),
    ("xi1^3", "xi2_1^2*xi2_2", "xi1*xi2_2^2"),
    ("xi2_1^3", "xi1^2*xi2_2", "xi1*xi2_1^2"),
    ("xi2_2^2*xi2_1", "xi1^2*xi2_2", "xi2_1^3"),
)

GENERATORS = {"example": example_scenario, "sweep": sweep_scenario,
              "wide": wide_scenario}


def run_operation(nisyn_cli, workload: str, scenario_path: Path,
                  out_dir: Path, jobs: int) -> tuple:
    """One closed-loop operation: load the scenario, run the stages.

    Returns the stage reports by name and, for ``sweep``, the wall time of
    its ``run_verify`` call.  ``jobs`` only applies to ``sweep``.
    """
    scn = nisyn_cli.load_scenario(scenario_path)
    if workload == "sweep":
        start = time.perf_counter()
        verify = nisyn_cli.run_verify(scn, jobs=jobs)
        verify_s = time.perf_counter() - start
        simulate = nisyn_cli.run_simulate(scn, out_dir)
        return {"verify": verify, "simulate": simulate}, {"verify_s": verify_s}
    return nisyn_cli.run_reproduce(scn, out_dir, jobs=1)["stages"], {}


# --- key numbers and checks --------------------------------------------------

def _last_row(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: float(v) for name, v in zip(rows[0], rows[-1])}


def _pd_points(stages: dict) -> int:
    total = 0
    for report in stages.values():
        for entry in _walk(report):
            if "points_checked" in entry:
                total += int(entry["points_checked"])
    return total


def _walk(node):
    if isinstance(node, dict):
        yield node
        for value in node.values():
            yield from _walk(value)
    elif isinstance(node, list):
        for value in node:
            yield from _walk(value)


def key_numbers(stages: dict, out_dir: Path) -> dict:
    """Values pinned against the seed commit: residuals per check, W at the
    end, positivity points, the final trajectory row and applied input."""
    keys: dict = {}
    checks = stages["verify"]["checks"]
    for group in ("closed_loop_dissipation", "uncertainty_dissipation"):
        for entry in checks.get(group, []):
            keys[f"{group}/{entry['label']}/ni"] = entry["max_residual_ni"]
            keys[f"{group}/{entry['label']}/osni"] = entry["max_residual_osni"]
    if "w_decrease" in checks:
        keys["w_decrease/w_end"] = checks["w_decrease"]["w_end"]
        keys["w_decrease/max_strong_residual"] = \
            checks["w_decrease"]["max_strong_residual"]
    for name, key in (("storage_positive_definite", "pd/V"),
                      ("uncertainty_storage_positive_definite", "pd/Vsigma"),
                      ("composite_storage_positive_definite", "pd/W")):
        if name in checks:
            keys[key] = checks[name]["points_checked"]
    keys["pd/total"] = _pd_points(stages)
    for name, value in _last_row(out_dir / "trajectory.csv").items():
        keys[f"trajectory_end/{name}"] = value
    applied = out_dir / "applied_inputs.csv"
    if applied.exists():
        for name, value in _last_row(applied).items():
            keys[f"applied_end/{name}"] = value
    return keys


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_operation(workload: str, stages: dict, keys: dict,
                    reference: dict | None) -> list:
    """Return the list of failed checks for one operation (empty = pass)."""
    problems = [f"{name} report did not pass"
                for name, rep in stages.items() if not rep.get("passed")]
    if reference is None:
        return problems + ["no recorded reference for this scenario"]
    if workload == "example":
        laws = stages["synthesize"]["laws"]
        if laws != reference["laws"]:
            problems.append(f"law strings changed: {laws}")
    want = reference["keys"]
    if set(keys) != set(want):
        problems.append(f"key set differs: {sorted(set(keys) ^ set(want))}")
    for name in sorted(set(keys) & set(want)):
        got, exp = keys[name], want[name]
        if isinstance(exp, int) and not isinstance(exp, bool):
            ok = got == exp
        else:
            ok = math.isfinite(got) and abs(got - exp) <= ATOL + RTOL * abs(exp)
        if not ok:
            problems.append(f"{name}: got {got!r}, recorded {exp!r}")
    return problems


def reference_entry(reference: dict, workload: str, size: str,
                    seed: int) -> dict | None:
    table = reference.get(workload, {}).get(size, {})
    return table.get(str(variant_of(workload, seed)))
