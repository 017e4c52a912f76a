"""The pipeline over seeded random plants in normal form (random_plants.py):
no run ends in a traceback, each seed ends in its pinned outcome, and
analyze's verdict agrees with an exact Routh-Hurwitz oracle on the rational
A11."""

import math
from fractions import Fraction

import numpy as np
import pytest

import random_plants
from random_plants import random_plant_scenario, run_seed


def _charpoly(a: list) -> list:
    """The coefficients of det(sI - a), highest power first, by the
    Faddeev-LeVerrier recursion in exact arithmetic."""
    n = len(a)
    coeffs = [Fraction(1)]
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][j] * m[j][c] for j in range(n))
              + (coeffs[-1] if i == c else 0) for c in range(n)]
             for i in range(n)]
        trace = sum(a[i][j] * m[j][i] for i in range(n) for j in range(n))
        coeffs.append(-trace / k)
    return coeffs


def _roots_right_of(a: list, shift: Fraction):
    """The number of eigenvalues of ``a`` with real part above ``shift``: the
    sign changes down the first column of the Routh array of
    det(sI - (a - shift I)).  None when that column holds a 0."""
    n = len(a)
    coeffs = _charpoly([[a[i][j] - (shift if i == j else 0) for j in range(n)]
                        for i in range(n)])
    width = (len(coeffs) + 1) // 2
    rows = [r + [Fraction(0)] * (width - len(r))
            for r in (coeffs[0::2], coeffs[1::2])]
    while len(rows) < len(coeffs):
        up, low = rows[-2], rows[-1]
        if low[0] == 0:
            return None
        rows.append([(low[0] * up[i + 1] - up[0] * low[i + 1]) / low[0]
                     for i in range(width - 1)] + [Fraction(0)])
    first = [r[0] for r in rows]
    if 0 in first:
        return None
    return sum((x < 0) != (y < 0) for x, y in zip(first, first[1:]))


def _hurwitz(a11: list):
    """True when every eigenvalue of the rational ``a11`` has real part
    below -delta, False when one has real part above delta, and None when
    one lies within delta = 1e-6 * |a11|_F of the imaginary axis."""
    a = [[Fraction(v) for v in row] for row in a11]
    delta = Fraction(1e-6 * math.sqrt(sum(v * v for row in a11 for v in row)))
    right_of_minus, right_of_plus = (_roots_right_of(a, s) for s in (-delta, delta))
    if right_of_minus is None or right_of_minus != right_of_plus:
        return None
    return right_of_minus == 0


@pytest.mark.parametrize("a, roots", [
    ([[-1.0]], 0), ([[0.5]], 1), ([[1.0, 0.0], [0.0, -2.0]], 1),
    ([[-1.0, 5.0], [0.0, -2.0]], 0), ([[0.1, 1.0], [-1.0, 0.1]], 2),
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-6.0, -11.0, -6.0]], 0),  # -1, -2, -3
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [6.0, -11.0, 6.0]], 3),  # 1, 2, 3
])
def test_the_routh_oracle_counts_the_right_half_plane_roots(a, roots):
    a = [[Fraction(v) for v in row] for row in a]
    assert _roots_right_of(a, Fraction(0)) == roots


def test_the_routh_oracle_agrees_with_the_eigenvalues_of_random_matrices():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = np.round(rng.normal(size=(4, 4)), 3)
        count = _roots_right_of([[Fraction(v) for v in row] for row in a.tolist()],
                                Fraction(0))
        assert count == int(np.sum(np.linalg.eigvals(a).real > 0))
    # a rotation under rounding is within delta of the axis
    assert _hurwitz([[0.0, 1.0], [-1.0, 0.0]]) is None


def _failures(report: dict) -> set:
    """What a FAIL failed: ``(stage, "diverged" or "failed")`` for each stage
    but verify that fails, and ``(check, label, "diverged" or "residual")``
    for each failing entry of verify."""
    def how(entry, other):
        return "diverged" if "diverged_at_step" in entry else other

    stages = report["stages"]
    out = {(stage, how(body, "failed")) for stage, body in stages.items()
           if stage != "verify" and not body["passed"]}
    for check, body in stages["verify"]["checks"].items():
        out |= {(check, entry.get("label"), how(entry, "residual"))
                for entry in (body if isinstance(body, list) else [body])
                if not entry["passed"]}
    return out


# The outcome of seeds 0-29 at t_end 0.2 and 500 samples, with what each FAIL
# failed.  Every FAIL is a marginal plant whose P = "auto" has cond(P)
# between 4e3 and 1.4e4.  Under each of the three catalog signals, either
# the loop's finite-difference dissipation residual exceeds tol (seeds 10,
# 22 and 25) or its RK4 run diverges, as simulate's does (seeds 16 and 28).
# A better conditioned P (ROADMAP item 14) or an exact residual (item 2)
# turns these into passes, and this table changes with them.
_SIGNALS = ("0-zero", "1-step", "2-multisine")
_RESIDUAL = {("closed_loop_dissipation", label, "residual") for label in _SIGNALS}
_DIVERGED = {("closed_loop_dissipation", label, "diverged")
             for label in _SIGNALS} | {("simulate", "diverged")}
_FAILS = {10: _RESIDUAL, 16: _DIVERGED, 22: _RESIDUAL, 25: _RESIDUAL,
          28: _DIVERGED}
_REFUSED = {2, 4, 5, 7, 8, 11, 13, 14, 17, 19, 20, 23, 26, 29}


def _pinned(seed: int) -> tuple:
    if seed in _FAILS:
        return "FAIL", _FAILS[seed]
    return ("refused" if seed in _REFUSED else "pass"), None


@pytest.mark.parametrize("seed", range(30))
def test_a_random_plant_runs_end_to_end_and_analyze_agrees_with_the_oracle(
        seed, tmp_path):
    outcome, report = run_seed(seed, tmp_path, t_end=0.2, samples=500)
    failed = _failures(report) if outcome == "FAIL" else None
    assert (outcome, failed) == _pinned(seed)
    if report is None:
        pytest.skip(f"{outcome}: no report to check")
    hurwitz = _hurwitz(random_plant_scenario(seed)["plant"]["A11"])
    if hurwitz is None:
        pytest.skip("an eigenvalue of A11 lies on the imaginary axis, up to "
                    "1e-6 |A11|")
    assert report["stages"]["analyze"]["equivalent"] is hurwitz


@pytest.mark.parametrize("outcome, status", [
    ("pass", 0), ("refused", 0), ("FAIL", 0), ("usage error", 1)])
def test_the_script_fails_on_a_usage_error(monkeypatch, capsys, outcome, status):
    # a usage error means that a plant analyze accepts cannot be built
    monkeypatch.setattr(random_plants, "run_seed",
                        lambda seed, out_dir: (outcome, None))
    assert random_plants.main() == status
    assert capsys.readouterr().out.endswith(f"total: 150 {outcome}\n")
