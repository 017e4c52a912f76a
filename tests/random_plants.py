"""Seeded random plants in normal form, run end to end.

The paper's theorem covers every normal form of relative degree <= 2, so
the pipeline is run over a seeded family of them.  Seed s draws from
``default_rng(s)`` a plant of kind ("hurwitz", "marginal", "unstable")[s % 3]:

- m in 1..4 internal states; p1 and p2 in 0..2, with p1 = 1 when both are 0.
- hurwitz: A11 = T diag(-U(0.3, 2)) T^-1, with T = N(0, 1)^(m x m) + 2 I.
- unstable: the same, with a first eigenvalue of U(0.05, 1).
- marginal (m >= 2; None for m = 1): a rotation block with frequency
  U(0.5, 1.5) beside diag(-U(0.3, 2)), under the orthogonal Q of the QR
  of N(0, 1)^(m x m).  Rounding then moves the rotation's eigenvalues off
  the imaginary axis by about 1e-6 to 1e-3, to either side.
- Every entry of A11 is rounded to 3 significant digits.  Each row of p
  has 1-3 monomials of degree 1-3 in the outputs, with coefficients
  U(-1, 1) to 3 significant digits, written without exponent notation
  (the expression grammar has none).
- P = "auto", a random target, lambda ~ U(0.2, 2), the default V2,
  x0 ~ U(-0.5, 0.5), dt = 1e-3.

Run as a script, it passes seeds 0-149 at t_end = 1 and 2000 samples
through ``run_reproduce`` and prints the count of each outcome:

    PYTHONPATH=src python tests/random_plants.py

It exits 1 when a run ends in an exception, one of ``cli._USAGE_ERRORS``
(a "usage error": a plant that analyze accepts but a later stage cannot
build) or any other.
"""

from __future__ import annotations

import collections
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from typing import Optional

import numpy as np

import nisyn.cli as cli
from nisyn.scenario import scenario_from_dict
from nisyn.synthesis import block_names

KINDS = ("hurwitz", "marginal", "unstable")


def _digits(x: float) -> float:
    return float(f"{x:.3g}")


def _literal(x: float) -> str:
    """``x`` to 3 significant digits, without exponent notation."""
    return np.format_float_positional(x, precision=3, unique=False,
                                      fractional=False, trim="-")


def _a11(rng, kind: str, m: int) -> np.ndarray:
    rates = -rng.uniform(0.3, 2.0, m)
    if kind == "marginal":
        omega = rng.uniform(0.5, 1.5)
        block = np.diag(np.concatenate([[0.0, 0.0], rates[2:]]))
        block[0, 1], block[1, 0] = omega, -omega
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        return q @ block @ q.T
    if kind == "unstable":
        rates[0] = rng.uniform(0.05, 1.0)
    t = rng.normal(size=(m, m)) + 2.0 * np.eye(m)
    return t @ np.diag(rates) @ np.linalg.inv(t)


def _monomial(rng, outputs: tuple) -> str:
    powers = collections.Counter(
        outputs[i] for i in rng.integers(len(outputs), size=rng.integers(1, 4)))
    return "*".join(name if k == 1 else f"{name}^{k}"
                    for name, k in sorted(powers.items()))


def random_plant_scenario(seed: int, t_end: float = 1.0,
                          samples: int = 2000) -> Optional[dict]:
    """Seed ``seed``'s scenario as a dict; None for a marginal kind at m = 1."""
    rng = np.random.default_rng(seed)
    kind = KINDS[seed % 3]
    m = int(rng.integers(1, 5))
    p1, p2 = (int(v) for v in rng.integers(0, 3, 2))
    p1 = 1 if p1 == p2 == 0 else p1
    if kind == "marginal" and m == 1:
        return None
    a11 = [[_digits(v) for v in row] for row in _a11(rng, kind, m)]
    outputs = block_names("xi1", p1) + block_names("xi2", p2)
    p_rows = [" + ".join(f"{_literal(rng.uniform(-1.0, 1.0))}*"
                         f"{_monomial(rng, outputs)}"
                         for _ in range(rng.integers(1, 4)))
              for _ in range(m)]
    return {
        "name": f"random-{kind}-{seed}",
        "plant": {"m": m, "p1": p1, "p2": p2, "A11": a11, "p": p_rows},
        "spec": {"P": "auto", "V2": "default",
                 "lambda": _digits(rng.uniform(0.2, 2.0)),
                 "target": str(rng.choice(["NI", "OSNI"]))},
        "simulation": {
            "x0": [_digits(v) for v in rng.uniform(-0.5, 0.5, m + p1 + 2 * p2)],
            "dt": 1e-3, "t_end": t_end, "seed": seed,
        },
        "verification": {"samples": samples, "pd_seed": seed},
    }


def run_seed(seed: int, out_dir: Path, t_end: float = 1.0,
             samples: int = 2000) -> tuple:
    """``(outcome, report)`` of seed ``seed`` through ``run_reproduce``.  The
    outcome is "skipped", "refused" (analyze finds no equivalence), "pass",
    "FAIL" (a later stage fails) or "usage error" (one of
    ``cli._USAGE_ERRORS``, with no report); any other exception propagates."""
    data = random_plant_scenario(seed, t_end, samples)
    if data is None:
        return "skipped", None
    try:
        report = cli.run_reproduce(scenario_from_dict(data), out_dir)
    except cli._USAGE_ERRORS:
        return "usage error", None
    if report["passed"]:
        return "pass", report
    if not report["stages"]["analyze"]["equivalent"]:
        return "refused", report
    return "FAIL", report


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)  # diverging runs warn
    outcomes = collections.defaultdict(list)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(150):
            try:
                outcome, _ = run_seed(seed, Path(tmp))
            except Exception:
                traceback.print_exc()
                outcome = "traceback"
            outcomes[(KINDS[seed % 3], outcome)].append(seed)
    print("150 random plants, t_end 1, 2000 samples:")
    for (kind, outcome), seeds in sorted(outcomes.items()):
        print(f"  {kind:9} {outcome:12} {len(seeds):4}  seeds "
              + " ".join(map(str, seeds)))
    totals = collections.Counter()
    for (_, outcome), seeds in outcomes.items():
        totals[outcome] += len(seeds)
    print("  total: " + ", ".join(f"{n} {o}" for o, n in sorted(totals.items())))
    return 1 if totals["traceback"] or totals["usage error"] else 0


if __name__ == "__main__":
    sys.exit(main())
