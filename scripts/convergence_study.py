#!/usr/bin/env python3
"""Convergence calibration for the bundled interconnection example.

Simulates the uncertain closed loop from the documented initial state and
tabulates the joint and nominal-block state norms over time.  The slowest
component is the cubic-lag uncertainty state, which decays like t^(-1/2)
once the fast modes are gone; this study is what pins the verification
thresholds (0.05 nominal, 0.08 joint at t = 10 s) in the bundled scenario.

The run is the interconnection run of `nisyn simulate` on the bundled
scenario, with `--dt` and `--t-end` applied as the CLI applies them.
Exits 1 if the run diverges and 2, with one `error:` line, on a usage or
scenario error such as a `--dt` that is not a finite positive number or a
horizon of fewer than 3 samples.
"""

import argparse
import sys

import numpy as np

from nisyn.cli import _USAGE_ERRORS, Pipeline, _apply_overrides, \
    bundled_scenario_path
from nisyn.scenario import load_scenario
from nisyn.sim import IntegrationError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-end", type=float, default=None, dest="t_end",
                        help="horizon override (scenario: 10 s)")
    parser.add_argument("--dt", type=float, default=None,
                        help="step override (scenario: 1e-3 s)")
    args = parser.parse_args()

    try:
        scn = _apply_overrides(load_scenario(bundled_scenario_path()), args)
        pipe = Pipeline(scn)
        traj = pipe.interconnection_run
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if isinstance(traj, IntegrationError):
        print(f"the interconnection run failed: {traj}", file=sys.stderr)
        return 1
    dt, t_end = scn.simulation.dt, scn.simulation.t_end
    n = pipe.plant.n_states
    joint = np.linalg.norm(traj.states, axis=1)
    nominal = np.linalg.norm(traj.states[:, :n], axis=1)
    print(f"{'t':>6}  {'|joint|':>10}  {'|nominal|':>10}  {'W':>12}")
    for t in np.linspace(0.0, t_end, 11):
        k = int(round(t / dt))
        print(f"{t:6.1f}  {joint[k]:10.4f}  {nominal[k]:10.4f}  {traj.W[k]:12.6f}")
    print(f"\nfinal joint norm   = {joint[-1]:.6f}")
    print(f"final nominal norm = {nominal[-1]:.6f}")
    print(f"slow tail state xs1 = {traj.states[-1, n]:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
