"""Command-line entry point.

Subcommands: analyze, synthesize, simulate, verify, reproduce-example.
Every subcommand writes a machine-readable JSON report (schema_version 1)
under the output directory.  Exit codes: 0 all requested checks passed,
1 a check failed or a run diverged, 2 usage or scenario errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .expr import ExprError, compile_exprs, parse_expr, to_string
from .lyapunov import (
    StabilityError, classify_stability, sampled_positive_definite,
)
from .scenario import (
    Scenario, ScenarioError, build_general_form, build_plant,
    build_uncertainty, check_bounds, input_catalog, load_scenario, override,
    resolve_synthesis_spec, sampling_box,
)
from .sim import (
    IntegrationError, check_dissipation, check_w_decrease,
    convergence_metrics, signal_from_spec, simulate_closed_loop,
    simulate_interconnection, simulate_uncertainty, write_columns_csv,
    write_trajectory_csv,
)
from .synthesis import (
    SynthesisError, reduce_general_form, storage_value, synthesize,
)
from .uncertainty import Interconnection, UncertaintyError, composite_storage

SCHEMA_VERSION = 1

_USAGE_ERRORS = (ScenarioError, ExprError, SynthesisError, UncertaintyError,
                 StabilityError, ValueError, OSError)


def bundled_scenario_path() -> Path:
    return Path(resources.files("nisyn") / "scenarios" / "example.json")


def _report(command: str, **fields) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "command": command}
    out.update(fields)
    return out


def _write_report(report: dict, out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _apply_overrides(scn: Scenario, args) -> Scenario:
    for option, block, name in (("dt", "simulation", "dt"),
                                ("t_end", "simulation", "t_end"),
                                ("seed", "simulation", "seed"),
                                ("tol", "verification", "dissipation_tol")):
        value = getattr(args, option, None)
        if value is not None:
            override(scn, block, name, value, "--" + option.replace("_", "-"))
    return scn


# --- pipeline -------------------------------------------------------------------

class Pipeline:
    """One scenario's chain, built on first use and shared by every stage:
    plant -> stability verdict -> spec -> closed loop -> uncertainty ->
    interconnection.  Of the trajectories it keeps only the two that more
    than one stage reads: the interconnection run and the closed-loop run
    under ``simulation.input``.  The scenario's field bounds are checked
    when the pipeline is built, so they hold for a scenario made in code."""

    def __init__(self, scn: Scenario):
        check_bounds(scn)
        self.scn = scn

    @cached_property
    def plant(self):
        return build_plant(self.scn)

    @cached_property
    def verdict(self):
        return classify_stability(self.plant.a11)

    @cached_property
    def spec(self):
        return resolve_synthesis_spec(self.scn, self.plant)

    @cached_property
    def closed_loop(self):
        return synthesize(self.plant, self.spec)

    @cached_property
    def uncertainty(self):
        return build_uncertainty(self.scn)

    @cached_property
    def interconnection(self):
        return Interconnection(self.closed_loop, self.uncertainty)

    @cached_property
    def general_form(self):
        return build_general_form(self.scn, self.plant)

    @cached_property
    def signals(self) -> list:
        return input_catalog(self.scn, self.plant.n_outputs)

    @cached_property
    def x0(self) -> np.ndarray:
        x0 = np.asarray(self.scn.simulation.x0, dtype=float)
        if x0.shape != (self.plant.n_states,):
            raise ScenarioError(
                f"x0 must have {self.plant.n_states} entries, got {x0.size}")
        return x0

    @cached_property
    def interconnection_run(self):
        sim = self.scn.simulation
        return simulate_interconnection(self.interconnection, self.x0,
                                        self.scn.uncertainty.x_sigma0,
                                        sim.t_end, sim.dt)

    @cached_property
    def input_run(self):
        return self._closed_loop_run(self.scn.simulation.input)

    def _closed_loop_run(self, signal_spec: dict):
        sim = self.scn.simulation
        signal = signal_from_spec(signal_spec, self.plant.n_outputs, sim.seed)
        return simulate_closed_loop(self.closed_loop, self.x0, sim.t_end,
                                    sim.dt, signal=signal)

    def signal_check(self, block: str, spec: dict) -> dict:
        """Dissipation report of the synthesized loop (``block`` is
        "closed_loop") or of the uncertainty ("uncertainty") under one
        catalog signal.  The loop passes on the inequality of its target, the
        uncertainty on OSNI; a run that diverges gives a failed entry."""
        sim = self.scn.simulation
        tol = self.scn.verification.dissipation_tol
        try:
            if block == "closed_loop":
                cl = self.closed_loop
                traj = (self.input_run if spec == sim.input
                        else self._closed_loop_run(spec))
                rep = check_dissipation(traj, lambda s: storage_value(s, cl),
                                        cl.epsilon, tol)
                passed = (rep.osni_pass if self.scn.spec.target == "OSNI"
                          else rep.ni_pass)
            else:
                unc = self.uncertainty
                signal = signal_from_spec(spec, unc.n_outputs, sim.seed)
                traj = simulate_uncertainty(unc, self.scn.uncertainty.x_sigma0,
                                            sim.t_end, sim.dt, signal=signal)
                rep = check_dissipation(traj, unc.storage, unc.epsilon_sigma,
                                        tol)
                passed = rep.osni_pass
        except IntegrationError as err:
            return _diverged(err)
        return {**rep.as_dict(), "passed": passed}


def _diverged(err: IntegrationError) -> dict:
    """Report fields of a run that diverged or reached a non-finite state."""
    return {"passed": False, "error": str(err), "diverged_at_step": err.step,
            "last_state": [float(v) for v in err.last_state]}


def _positivity(check) -> dict:
    return {"passed": check.passed, "points_checked": check.points_checked,
            "witness": check.witness}


# --- analyze ------------------------------------------------------------------

def run_analyze(scn: Scenario | Pipeline) -> dict:
    pipe = scn if isinstance(scn, Pipeline) else Pipeline(scn)
    verdict = pipe.verdict
    equivalent = bool(verdict.det_nonzero and verdict.lyapunov_stable)
    return _report(
        "analyze",
        classification=verdict.classification.value,
        equivalent=equivalent,
        det_nonzero=verdict.det_nonzero,
        tol=verdict.tol,
        eigenvalues=[{"re": v.real, "im": v.imag} for v in verdict.eigenvalues],
        critical_eigenvalues=[
            {"re": c.value.real, "im": c.value.imag,
             "algebraic_multiplicity": c.algebraic_multiplicity,
             "geometric_multiplicity": c.geometric_multiplicity}
            for c in verdict.critical],
        hypotheses={
            "det_A11_nonzero": verdict.det_nonzero,
            "A11_lyapunov_stable": verdict.lyapunov_stable,
        },
        passed=equivalent,
    )


# --- synthesize -----------------------------------------------------------------

def _check_law_regression(closed_loop, regression, seed: int) -> dict:
    plant = closed_loop.plant
    names = plant.state_names
    expected_u1 = [parse_expr(t, names) for t in regression.u1]
    expected_u2 = [parse_expr(t, names) for t in regression.u2]
    if len(expected_u1) != plant.p1 or len(expected_u2) != plant.p2:
        raise ScenarioError("regression block dimensions do not match the plant")
    states = np.random.default_rng(seed).uniform(-2.0, 2.0, (100, plant.n_states))
    got = compile_exprs(closed_loop.u1_laws + closed_loop.u2_laws, names)(states)
    want = compile_exprs(expected_u1 + expected_u2, names)(states)
    max_rel = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)),
                           initial=0.0))
    return {"max_relative_error": max_rel, "passed": bool(max_rel <= 1e-9)}


def run_synthesize(scn: Scenario | Pipeline) -> dict:
    pipe = scn if isinstance(scn, Pipeline) else Pipeline(scn)
    analyze = run_analyze(pipe)
    if not analyze["equivalent"]:
        return _report("synthesize", equivalent=False, analyze=analyze,
                       passed=False)
    scn, plant, spec = pipe.scn, pipe.plant, pipe.spec
    closed_loop, ver = pipe.closed_loop, scn.verification

    # V2 positivity on the output slice of the sampling box
    y_box = sampling_box(scn, plant.n_states)[plant.m:plant.m + plant.n_outputs]
    v2_fn = compile_exprs([spec.v2], plant.y_names)
    v2_check = sampled_positive_definite(
        lambda y: v2_fn(y)[:, 0], y_box, ver.samples, ver.pd_seed)

    report = _report(
        "synthesize",
        equivalent=True,
        laws=closed_loop.law_strings(),
        storage=to_string(closed_loop.storage_expr),
        epsilon=closed_loop.epsilon,
        **{"lambda": closed_loop.spec.lam},
        p_matrix=[list(map(float, row)) for row in spec.p_matrix],
        v2_positive_definite=_positivity(v2_check),
    )
    passed = v2_check.passed
    if scn.regression is not None:
        reg = _check_law_regression(closed_loop, scn.regression,
                                    scn.simulation.seed)
        report["law_regression"] = reg
        passed = passed and reg["passed"]
    report["passed"] = bool(passed)
    return report


# --- simulate -------------------------------------------------------------------

def run_simulate(scn: Scenario | Pipeline, out_dir: Path) -> dict:
    pipe = scn if isinstance(scn, Pipeline) else Pipeline(scn)
    plant, closed_loop, unc = pipe.plant, pipe.closed_loop, pipe.uncertainty
    sim, ver = pipe.scn.simulation, pipe.scn.verification
    try:
        traj = pipe.interconnection_run if unc is not None else pipe.input_run
    except IntegrationError as err:
        return _report("simulate", **_diverged(err))
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "trajectory.csv"
    write_trajectory_csv(traj, csv_path)
    metrics = convergence_metrics(traj, ver.convergence_threshold,
                                  ver.settle_window)
    report = _report(
        "simulate",
        trajectory_csv=str(csv_path),
        samples=traj.n_samples,
        dt=sim.dt,
        t_end=sim.t_end,
        interconnected=unc is not None,
        convergence=metrics.as_dict(),
        passed=True,
    )
    if unc is not None:
        report["final_nominal_norm"] = float(
            np.linalg.norm(traj.states[-1, :plant.n_states]))
    gform = pipe.general_form
    if gform is not None and unc is None:
        report["applied_inputs_csv"] = str(
            _write_applied_inputs(gform, plant, closed_loop, traj, out_dir))
    return report


def _write_applied_inputs(gform, plant, closed_loop, traj, out_dir: Path) -> Path:
    """Map the total normal-form input along the trajectory through the
    general-form transform and export the inputs to apply upstream."""
    # the xi1' and xi3' rows of the loop's field are v + law
    rates = closed_loop._rhs_fn(np.column_stack([traj.states, traj.inputs]))
    total = rates[:, np.r_[plant.m:plant.m + plant.p1,
                           plant.n_states - plant.p2:plant.n_states]]
    applied = reduce_general_form(gform, plant, traj.states)(total)
    path = out_dir / "applied_inputs.csv"
    write_columns_csv(path, ["t"] + [f"ut{i + 1}" for i in range(plant.n_outputs)],
                      [traj.t, applied])
    return path


# --- verify ---------------------------------------------------------------------

def _pooled_signal_check(scn: Scenario, block: str, spec: dict) -> dict:
    """Pool task: builds the worker process's own pipeline."""
    return Pipeline(scn).signal_check(block, spec)


def _signal_checks(pipe: Pipeline, block: str, jobs: int) -> list:
    """One report entry per catalog signal.  Runs in a process pool of at
    most one worker per signal and per CPU when that is more than one; the
    pool module is imported only then, since it loads ``logging``."""
    signals = pipe.signals
    workers = min(jobs, len(signals), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_pooled_signal_check, pipe.scn, block, s)
                       for s in signals]
            results = [f.result() for f in futures]
    else:
        results = [pipe.signal_check(block, s) for s in signals]
    return [{"signal": sig, "label": f"{i}-{sig.get('kind', 'unknown')}", **rep}
            for i, (sig, rep) in enumerate(zip(signals, results))]


def run_verify(scn: Scenario | Pipeline, jobs: int = 1) -> dict:
    pipe = scn if isinstance(scn, Pipeline) else Pipeline(scn)
    analyze = run_analyze(pipe)
    if not analyze["equivalent"]:
        return _report("verify", equivalent=False, analyze=analyze, passed=False)
    scn, closed_loop, unc = pipe.scn, pipe.closed_loop, pipe.uncertainty
    pipe.x0  # a malformed x0 is a usage error before any check runs
    ver, sim = scn.verification, scn.simulation
    w_tol = ver.w_decrease_tol if ver.w_decrease_tol is not None else 10.0 * sim.dt
    n_plant = pipe.plant.n_states
    checks: dict = {}

    # storage positivity on the plant box
    checks["storage_positive_definite"] = _positivity(sampled_positive_definite(
        lambda x: storage_value(x, closed_loop), sampling_box(scn, n_plant),
        ver.samples, ver.pd_seed))

    # closed-loop dissipation over the input catalog
    checks["closed_loop_dissipation"] = _signal_checks(pipe, "closed_loop", jobs)

    if unc is not None:
        checks["uncertainty_dissipation"] = _signal_checks(
            pipe, "uncertainty", jobs)
        ic = pipe.interconnection
        joint_box = sampling_box(scn, ic.n_states)
        checks["uncertainty_storage_positive_definite"] = _positivity(
            sampled_positive_definite(unc.storage, joint_box[n_plant:],
                                      ver.samples, ver.pd_seed))
        checks["composite_storage_positive_definite"] = _positivity(
            sampled_positive_definite(lambda s: composite_storage(s, ic),
                                      joint_box, ver.samples, ver.pd_seed))
        try:
            traj = pipe.interconnection_run
        except IntegrationError as err:
            checks["w_decrease"] = checks["convergence"] = _diverged(err)
        else:
            checks["w_decrease"] = check_w_decrease(traj, w_tol).as_dict()
            conv = convergence_metrics(traj, ver.convergence_threshold,
                                       ver.settle_window).as_dict()
            conv["passed"] = bool(conv["final_norm"] <= ver.convergence_threshold)
            if ver.nominal_convergence_threshold is not None:
                nominal = float(np.linalg.norm(traj.states[-1, :n_plant]))
                conv["final_nominal_norm"] = nominal
                conv["nominal_threshold"] = ver.nominal_convergence_threshold
                conv["passed"] = bool(conv["passed"] and
                                      nominal <= ver.nominal_convergence_threshold)
            checks["convergence"] = conv

    all_passed = all(
        all(e["passed"] for e in c) if isinstance(c, list) else c["passed"]
        for c in checks.values())
    return _report("verify", equivalent=True, target=scn.spec.target,
                   dissipation_tol=ver.dissipation_tol, w_decrease_tol=w_tol,
                   checks=checks, passed=bool(all_passed))


# --- reproduce-example ------------------------------------------------------------

def run_reproduce(scn: Scenario, out_dir: Path, jobs: int = 1) -> dict:
    pipe = Pipeline(scn)
    stages = {"analyze": run_analyze(pipe)}
    if stages["analyze"]["passed"]:
        stages["synthesize"] = run_synthesize(pipe)
        stages["verify"] = run_verify(pipe, jobs=jobs)
        stages["simulate"] = run_simulate(pipe, out_dir)
    return _report("reproduce-example", stages=stages,
                   passed=all(s["passed"] for s in stages.values()))


# --- argument parsing ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nisyn",
        description="Synthesis and certification of negative imaginary "
                    "state feedback loops from scenario files.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        if scenario_required:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        else:
            p.add_argument("--scenario", help="scenario JSON file "
                                              "(default: bundled example)")
        p.add_argument("--out", default="nisyn-out", help="output directory")
        p.add_argument("--dt", type=float, help="override simulation step")
        p.add_argument("--t-end", type=float, dest="t_end",
                       help="override simulation horizon")
        p.add_argument("--seed", type=int, help="override scenario seed")
        p.add_argument("--tol", type=float, help="override dissipation tolerance")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for verification signals")

    common(sub.add_parser("analyze", help="equivalence verdict for the plant"))
    common(sub.add_parser("synthesize", help="construct storage and feedback laws"))
    common(sub.add_parser("simulate", help="run the loop or interconnection"))
    common(sub.add_parser("verify", help="certify dissipation and decrease"))
    common(sub.add_parser("reproduce-example",
                          help="full pipeline on the bundled example"),
           scenario_required=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        if args.command == "reproduce-example" and args.scenario is None:
            scn = load_scenario(bundled_scenario_path())
        else:
            scn = load_scenario(args.scenario)
        scn = _apply_overrides(scn, args)

        if args.command == "analyze":
            report = run_analyze(scn)
            name = "analyze.json"
        elif args.command == "synthesize":
            report = run_synthesize(scn)
            name = "synthesize.json"
        elif args.command == "simulate":
            report = run_simulate(scn, out_dir)
            name = "simulate.json"
        elif args.command == "verify":
            report = run_verify(scn, jobs=args.jobs)
            name = "verify.json"
        else:
            report = run_reproduce(scn, out_dir, jobs=args.jobs)
            name = "reproduce.json"
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    path = _write_report(report, out_dir, name)
    _print_summary(report)
    print(f"report written to {path}")
    return 0 if report.get("passed") else 1


def _print_summary(report: dict) -> None:
    command = report.get("command", "?")
    status = "PASS" if report.get("passed") else "FAIL"
    if command == "analyze":
        verdict = "EQUIVALENT" if report["equivalent"] else "NOT EQUIVALENT"
        print(f"analyze: {verdict} (A11 is {report['classification']}, "
              f"det nonzero: {report['det_nonzero']})")
    elif command == "synthesize":
        if report.get("equivalent"):
            for i, law in enumerate(report["laws"]["u1"]):
                print(f"u1[{i + 1}] = v{i + 1} + ({law})")
            p1 = len(report["laws"]["u1"])
            for i, law in enumerate(report["laws"]["u2"]):
                print(f"u2[{i + 1}] = v{p1 + i + 1} + ({law})")
            print(f"epsilon = {report['epsilon']}")
        else:
            print("synthesize: plant is not state feedback equivalent; "
                  "see the analyze section of the report")
    elif command == "verify" and "checks" in report:
        for key, value in report["checks"].items():
            if isinstance(value, list):
                for entry in value:
                    print(f"verify[{key}/{entry['label']}]: "
                          f"{'PASS' if entry['passed'] else 'FAIL'}")
            else:
                print(f"verify[{key}]: {'PASS' if value['passed'] else 'FAIL'}")
    print(f"{command}: {status}")


if __name__ == "__main__":
    sys.exit(main())
