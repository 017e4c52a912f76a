"""Measurement process for one benchmark run (started by run.py).

Runs closed-loop operations of one workload for the given time, checks each
result, and writes a JSON summary to ``--result``.  With ``--trace 1`` it
alternates untraced and traced operations and adds the isolated
micro-timings; the per-layer numbers come from the traced operations.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import time
import timeit
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import nisyn.cli  # noqa: E402
from nisyn import expr as nexpr  # noqa: E402
from nisyn.lyapunov import sampled_positive_definite  # noqa: E402
from nisyn.scenario import (  # noqa: E402
    build_plant, build_uncertainty, resolve_synthesis_spec, sampling_box,
)
from nisyn.synthesis import closed_loop_rhs, storage_value, synthesize  # noqa: E402
from nisyn.uncertainty import (  # noqa: E402
    Interconnection, composite_storage, interconnection_rhs,
)

import workloads  # noqa: E402
from hostspeed import SpeedClock  # noqa: E402
from tracing import Tracer  # noqa: E402

SWEEP_JOBS = 2
COUNTS = ("sim.steps", "sim.csv_bytes", "synthesis.synthesize_calls",
          "lyapunov.pd_points")


class Runner:
    """Runs and checks operations on one generated scenario."""

    def __init__(self, workload: str, seed: int, size: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        data = workloads.GENERATORS[workload](nisyn.cli, seed, size)
        self.scenario_path = workdir / "scenario.json"
        with open(self.scenario_path, "w") as fh:
            json.dump(data, fh, indent=2)
        with open(HERE / "reference.json") as fh:
            self.reference = workloads.reference_entry(
                json.load(fh), workload, size, seed)
        self.digest = None
        self.ops = []

    def run(self, jobs: int, tracer: Tracer | None = None,
            clock: SpeedClock | None = None) -> None:
        index = len(self.ops)
        out_dir = self.workdir / f"op{index}"
        # free the previous operation's garbage now, so neither this
        # operation's time nor the peak RSS depends on when gc last ran
        gc.collect()
        if tracer is not None:
            tracer.op, tracer.enabled = index, True
        if clock is not None:
            clock.start()
        start = time.perf_counter()
        try:
            stages, stage_walls = workloads.run_operation(
                nisyn.cli, self.workload, self.scenario_path, out_dir, jobs)
            problems = []
        except Exception as err:  # a failed operation is counted, not fatal
            stages, stage_walls = None, {}
            problems = [f"{type(err).__name__}: {err}"]
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        op = {"index": index, "jobs": jobs, "traced": tracer is not None,
              "wall_s": wall, **stage_walls}
        if clock is not None:
            op["wall_s"], op["norm_wall_s"] = clock.stop()
        if not problems:
            try:
                problems = self._check(stages, out_dir, op)
            except (OSError, KeyError, ValueError) as err:  # outputs missing
                problems = [f"outputs could not be checked: {err!r}"]
        op["problems"] = problems
        for problem in op["problems"]:
            print(f"operation {index} failed: {problem}", file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.ops.append(op)

    def _check(self, stages: dict, out_dir: Path, op: dict) -> list:
        keys = workloads.key_numbers(stages, out_dir)
        problems = workloads.check_operation(
            self.workload, stages, keys, self.reference)
        digest = workloads.file_digest(out_dir / "trajectory.csv")
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("trajectory.csv differs from the run's first one")
        op["pd_points"] = keys["pd/total"]
        op["csv_bytes"] = sum(
            p.stat().st_size for p in out_dir.glob("*.csv"))
        return problems


def measure_plain(runner: Runner, seconds: float, jobs: int) -> None:
    """Closed loop, one client: start the next operation while the median
    operation still fits in the time left; always at least two.  Each
    operation is also timed at the reference host speed (hostspeed.py)."""
    clock = SpeedClock()
    start = time.perf_counter()
    while True:
        runner.run(jobs, clock=clock)
        walls = [op["wall_s"] for op in runner.ops]
        elapsed = time.perf_counter() - start
        if len(walls) >= 2 and elapsed + statistics.median(walls) > seconds:
            return


def measure_traced(runner: Runner, seconds: float, tracer: Tracer) -> None:
    """Cycles of untraced and traced operations at the traced job count;
    ``sweep`` adds an untraced operation at the pool size for
    cli.jobs_efficiency.  Spans from pool workers would be lost, so traced
    operations run at jobs=1."""
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        if runner.workload == "sweep":
            runner.run(SWEEP_JOBS)
        runner.run(1)
        runner.run(1, tracer)
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            return


# --- per-layer numbers --------------------------------------------------------

def _sum(spans, *names, key="duration_s"):
    return sum(s[key] for s in spans if s["name"] in names)


def layer_metrics(runner: Runner, spans: list) -> dict:
    """Median over traced operations of each layer's per-operation total."""
    per_op = []
    for op in runner.ops:
        if not op["traced"] or op["problems"]:
            continue
        mine = [s for s in spans if s["op"] == op["index"]]
        steps = sum(s.get("steps", 0) for s in mine)
        integrate = _sum(mine, "sim.integrate")
        simulate = ("sim.simulate_closed_loop", "sim.simulate_uncertainty",
                    "sim.simulate_interconnection")
        per_op.append({
            "sim.integrate_s": integrate,
            "sim.steps": steps,
            "sim.steps_per_s": steps / integrate if integrate else 0.0,
            "sim.record_s": _sum(mine, *simulate, key="self_s"),
            "sim.check_s": _sum(mine, "sim.check_dissipation",
                                "sim.check_w_decrease"),
            "sim.csv_s": _sum(mine, "sim.write_trajectory_csv"),
            "sim.csv_bytes": op["csv_bytes"],
            "synthesis.synthesize_s": _sum(mine, "synthesis.synthesize"),
            "synthesis.synthesize_calls": sum(
                1 for s in mine if s["name"] == "synthesis.synthesize"),
            "lyapunov.pd_s": _sum(mine, "lyapunov.sampled_positive_definite"),
            "lyapunov.pd_points": op["pd_points"],
            "lyapunov.certificate_s": _sum(mine, "lyapunov.lyapunov_certificate"),
            "expr.compile_s": _sum(mine, "expr.compile_exprs"),
            "scenario.load_s": _sum(mine, "scenario.load_scenario"),
            "scenario.build_s": _sum(
                mine, "scenario.build_plant", "scenario.resolve_synthesis_spec",
                "scenario.build_uncertainty", "scenario.build_general_form"),
            "cli.analyze_s": _sum(mine, "cli.run_analyze"),
            "cli.synthesize_s": _sum(mine, "cli.run_synthesize"),
            "cli.verify_s": _sum(mine, "cli.run_verify"),
            "cli.simulate_s": _sum(mine, "cli.run_simulate"),
        })
    if not per_op:
        return {}
    medians = {name: statistics.median(op[name] for op in per_op)
               for name in per_op[0]}
    for name in COUNTS:  # exact and identical in every operation
        medians[name] = int(medians[name])
    return medians


def self_time_by_layer(runner: Runner, spans: list) -> dict:
    """Self time per layer, averaged over the traced operations."""
    traced = sum(1 for op in runner.ops if op["traced"])
    out: dict = {}
    for span in spans:
        layer = span["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + span["self_s"] / traced
    return out


def _op_walls(runner: Runner, jobs: int, traced: bool) -> list:
    return [op["wall_s"] for op in runner.ops
            if op["jobs"] == jobs and op["traced"] == traced
            and not op["problems"]]


def _verify_walls(runner: Runner, jobs: int) -> list:
    """run_verify wall of each untraced, passing sweep operation."""
    return [op["verify_s"] for op in runner.ops
            if op["jobs"] == jobs and not op["traced"] and not op["problems"]]


def per_call_us(fn, target_s: float = 0.05, repeats: int = 5) -> float:
    """Median per-call time in microseconds after a warm-up."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()  # also warms up
    number = max(1, int(number * target_s / 0.2))
    return statistics.median(timer.repeat(repeats, number)) / number * 1e6


def count_nodes(e) -> int:
    if isinstance(e, (nexpr.Var, nexpr.Const)):
        return 1
    if isinstance(e, nexpr.Neg):
        return 1 + count_nodes(e.child)
    if isinstance(e, nexpr.Sum):
        return 1 + sum(count_nodes(t) for t in e.terms)
    if isinstance(e, nexpr.Product):
        return 1 + sum(count_nodes(f) for f in e.factors)
    if isinstance(e, nexpr.Pow):
        return 1 + count_nodes(e.base)
    raise TypeError(f"not an expression node: {e!r}")


def micro_timings(runner: Runner) -> dict:
    """Isolated timings at the scenario's initial state and sampling box."""
    scn = nisyn.cli.load_scenario(runner.scenario_path)
    plant = build_plant(scn)
    cl = synthesize(plant, resolve_synthesis_spec(scn, plant))
    x = np.asarray(scn.simulation.x0, dtype=float)
    v = np.full(plant.n_outputs, 0.1)
    exprs = [cl.storage_expr, *cl.u1_laws, *cl.u2_laws]
    compiled = nexpr.compile_exprs(exprs, plant.state_names)
    binding = dict(zip(plant.state_names, x))
    out = {
        "synthesis.rhs_us": per_call_us(lambda: closed_loop_rhs(x, v, cl)),
        "expr.eval_us": per_call_us(lambda: compiled(x)),
        "expr.tree_eval_us": per_call_us(
            lambda: [nexpr.evaluate(e, binding) for e in exprs]),
        "expr.law_nodes": sum(count_nodes(e) for e in exprs),
        "uncertainty.rhs_us": 0.0,
        "uncertainty.w_us": 0.0,
    }
    unc = build_uncertainty(scn)
    if unc is not None:
        ic = Interconnection(cl, unc)
        joint = np.concatenate([x, np.full(unc.n_sigma, 0.5)])
        out["uncertainty.rhs_us"] = per_call_us(
            lambda: interconnection_rhs(joint, ic))
        out["uncertainty.w_us"] = per_call_us(
            lambda: composite_storage(joint, ic))
    box = sampling_box(scn, plant.n_states)
    points = workloads.PD_POINTS[runner.workload]

    def pd():
        return sampled_positive_definite(
            lambda s: storage_value(s, cl), box, points, 1)

    pd()  # warm-up
    times = []
    for _ in range(3):
        start = time.perf_counter()
        result = pd()
        times.append(time.perf_counter() - start)
    out["lyapunov.pd_points_per_s"] = result.points_checked / statistics.median(times)
    return out


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in (ROOT / "src" / "nisyn").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.size, args.workdir)
    result: dict = {}
    if not args.trace:
        # one process: a pool as wide as this 2-vCPU host's core count
        # times the scheduler and the neighbours more than the program
        measure_plain(runner, args.seconds, 1)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            measure_traced(runner, args.seconds, tracer)
        finally:
            tracer.uninstall()
        spans = tracer.with_self_times()
        layers = layer_metrics(runner, spans)
        layers.update(micro_timings(runner))
        layers["package.src_lines"] = src_lines()
        traced = _op_walls(runner, 1, True)
        plain = _op_walls(runner, 1, False)
        layers["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(plain)
                                      if traced and plain else 0.0)
        layers["cli.jobs_efficiency"] = 0.0
        if args.workload == "sweep":
            serial = _verify_walls(runner, 1)
            pooled = _verify_walls(runner, SWEEP_JOBS)
            if serial and pooled:
                layers["cli.jobs_efficiency"] = statistics.median(serial) / (
                    SWEEP_JOBS * statistics.median(pooled))
        result["layers"] = layers
        result["self_s_by_layer"] = self_time_by_layer(runner, spans)
        if args.spans is not None:
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "self_s_by_layer": result["self_s_by_layer"],
                           "spans": spans}, fh)
    result["ops"] = [{k: op[k] for k in ("index", "jobs", "traced", "wall_s",
                                         "norm_wall_s", "problems") if k in op}
                     for op in runner.ops]
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
