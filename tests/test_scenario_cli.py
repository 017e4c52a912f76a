"""Scenario round-trips, builders, CLI subcommands and exit codes."""

import concurrent.futures
import json
import os
import subprocess
import sys
from concurrent.futures import Future

import numpy as np
import pytest

import nisyn.cli
from nisyn.cli import (
    bundled_scenario_path, main, run_analyze, run_reproduce, run_simulate,
    run_synthesize, run_verify,
)
from nisyn.scenario import (
    RegressionBlock, ScenarioError, SpecBlock, VerificationBlock, build_plant,
    check_bounds, default_input_catalog, load_scenario, resolve_synthesis_spec, sampling_box,
    scenario_from_dict, save_scenario,
)

MINIMAL = {
    "plant": {"m": 1, "p1": 1, "p2": 1, "A11": [[-1.0]], "p": ["xi1^2*xi2"]},
    "simulation": {"x0": [3.0, 1.0, -1.0, 2.0]},
}


def _fast_scenario(**overrides) -> dict:
    """Bundled example trimmed for test speed; the short horizon cannot
    converge, so the convergence thresholds are relaxed here (the full-length
    thresholds are exercised by the acceptance suite)."""
    data = json.loads(bundled_scenario_path().read_text())
    data["simulation"]["t_end"] = 1.0
    data["verification"]["samples"] = 2000
    data["verification"]["convergence_threshold"] = 5.0
    data["verification"]["nominal_convergence_threshold"] = 5.0
    data.update(overrides)
    return data


# --- scenario round trips -----------------------------------------------------

def test_bundled_scenario_round_trip(tmp_path):
    scn = load_scenario(bundled_scenario_path())
    path = tmp_path / "copy.json"
    save_scenario(scn, path)
    assert load_scenario(path) == scn


def test_minimal_scenario_round_trip(tmp_path):
    scn = scenario_from_dict(MINIMAL)
    path = tmp_path / "m.json"
    save_scenario(scn, path)
    again = load_scenario(path)
    assert again == scn
    # defaults resolved
    assert again.spec.p_matrix == "auto"
    assert again.spec.v2 == "default"
    assert again.simulation.dt == 1e-3
    assert again.simulation.t_end == 10.0


def test_scenario_rejects_missing_blocks():
    with pytest.raises(ScenarioError, match="plant"):
        scenario_from_dict({"simulation": {"x0": [0.0]}})
    with pytest.raises(ScenarioError, match="x0"):
        scenario_from_dict({"plant": MINIMAL["plant"], "simulation": {}})


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ScenarioError, match="JSON"):
        load_scenario(path)


def test_minimal_scenario_takes_the_block_defaults():
    scn = scenario_from_dict(MINIMAL)
    assert scn.spec == SpecBlock()
    assert scn.verification == VerificationBlock()
    assert scn.verification.nominal_convergence_threshold is None
    assert scn.general_form is None and scn.uncertainty is None
    assert scn.regression is None
    assert scn.name == ""


def test_optional_blocks_may_be_null():
    data = dict(MINIMAL, general_form=None, uncertainty=None, regression=None)
    assert scenario_from_dict(data) == scenario_from_dict(MINIMAL)


def test_uncertainty_initial_state_defaults_to_zeros():
    data = _fast_scenario()
    del data["uncertainty"]["x_sigma0"]
    assert scenario_from_dict(data).uncertainty.x_sigma0 == [0.0, 0.0]


def test_regression_block_is_declared():
    scn = load_scenario(bundled_scenario_path())
    assert isinstance(scn.regression, RegressionBlock)
    assert scn.regression.u2 == ["2*z1*xi1^2 - 2*xi1^4*xi2 - 2*xi2 - xi3"]


NON_OBJECT_BLOCKS = {
    "plant": [], "spec": "auto", "general_form": [1], "uncertainty": 2.0,
    "simulation": None, "verification": [], "regression": [],
}


@pytest.mark.parametrize("block", sorted(NON_OBJECT_BLOCKS))
def test_block_that_is_not_an_object_is_rejected(block):
    data = _fast_scenario(**{block: NON_OBJECT_BLOCKS[block]})
    with pytest.raises(ScenarioError, match=f"^{block} block must be a JSON object$"):
        scenario_from_dict(data)


@pytest.mark.parametrize("block, key, value, kind", [
    ("simulation", "x0", "3120", "array"),
    ("plant", "p", "0", "array"),
    ("simulation", "input", [], "object"),
    ("verification", "input_signals", {"kind": "zero"}, "array"),
])
def test_field_of_the_wrong_json_type_is_rejected(block, key, value, kind):
    data = _fast_scenario()
    data[block][key] = value
    with pytest.raises(ScenarioError, match=f"field '{key}' must be a JSON {kind}"):
        scenario_from_dict(data)


@pytest.mark.parametrize("block, key, value", [
    ("plant", "m", 1.9),
    ("plant", "p2", True),
    ("simulation", "seed", 2.5),
    ("verification", "samples", float("inf")),
])
def test_int_field_rejects_fractions_and_booleans(block, key, value):
    data = _fast_scenario()
    data[block][key] = value
    with pytest.raises(ScenarioError, match=f"field '{key}' must be an integer"):
        scenario_from_dict(data)


@pytest.mark.parametrize("block, key", [("simulation", "seed"),
                                        ("verification", "pd_seed"),
                                        ("verification", "samples")])
def test_main_rejects_a_negative_seed_or_sample_count(tmp_path, capsys, block, key):
    data = _fast_scenario()
    data[block][key] = -1
    path = _write(tmp_path, data)
    assert main(["analyze", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        f"error: field {key!r} of the {block} block must be at least 0, got -1\n"


def test_main_rejects_a_negative_seed_override(tmp_path, capsys):
    path = _write(tmp_path, _fast_scenario())
    assert main(["verify", "--scenario", path, "--out", str(tmp_path / "o"),
                 "--seed", "-3"]) == 2
    assert capsys.readouterr().err == \
        "error: --seed overrides simulation.seed and must be at least 0, got -3\n"


def test_zero_seeds_load():
    data = _fast_scenario()
    data["simulation"]["seed"] = 0
    data["verification"]["pd_seed"] = 0
    scn = scenario_from_dict(data)
    assert (scn.simulation.seed, scn.verification.pd_seed) == (0, 0)


def test_float_field_beyond_the_float_range_is_rejected():
    data = _fast_scenario()
    data["simulation"]["dt"] = 10 ** 400
    with pytest.raises(ScenarioError, match="int too large to convert to float"):
        scenario_from_dict(data)


def test_int_field_accepts_an_integral_float():
    data = _fast_scenario()
    data["plant"]["m"] = 1.0
    assert scenario_from_dict(data).plant.m == 1


@pytest.mark.parametrize("block, key, value, message", [
    ("simulation", "t_end", True, "field 't_end' must be a number, got True"),
    ("simulation", "dt", "0.01", "field 'dt' must be a number, got '0.01'"),
    ("plant", "m", "1", "field 'm' must be an integer, got '1'"),
    ("spec", "V2", 5, "field 'V2' must be a string, got 5"),
])
def test_number_and_string_fields_take_only_their_json_type(block, key, value,
                                                            message):
    data = _fast_scenario()
    data[block][key] = value
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert str(err.value) == message


def test_main_rejects_fractional_int_field(tmp_path, capsys):
    data = _fast_scenario()
    data["plant"]["m"] = 1.9
    path = _write(tmp_path, data)
    assert main(["analyze", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "error: field 'm' must be an integer, got 1.9\n"


def test_a_pipeline_checks_the_bounds_of_a_scenario_changed_in_code():
    scn = scenario_from_dict(_fast_scenario())
    ver = scn.verification
    ver.dissipation_tol = ver.convergence_threshold = float("inf")
    ver.nominal_convergence_threshold = float("inf")
    with pytest.raises(ScenarioError) as err:
        run_verify(scn)
    assert str(err.value) == \
        "field 'dissipation_tol' of the verification block must be a finite " \
        "number, got inf"
    scn = scenario_from_dict(_fast_scenario())
    scn.simulation.dt = -1.0
    with pytest.raises(ScenarioError, match="^field 'dt' of the simulation "
                                            "block must be positive, got -1.0$"):
        nisyn.cli.Pipeline(scn)


@pytest.mark.parametrize("block, name, value, message", [
    ("simulation", "dt", "0.01", "field 'dt' must be a number, got '0.01'"),
    ("plant", "m", "1", "field 'm' must be an integer, got '1'"),
    # nothing is coerced in code: 1.0 stays a float, not the integer 1
    ("plant", "m", 1.0, "field 'm' must be an integer, got 1.0"),
    ("simulation", "t_end", True, "field 't_end' must be a number, got True"),
    ("simulation", "dt", None, "field 'dt' must be a number, got None"),
])
def test_a_pipeline_checks_the_json_types_of_a_scenario_changed_in_code(
        block, name, value, message):
    scn = scenario_from_dict(_fast_scenario())
    setattr(getattr(scn, block), name, value)
    with pytest.raises(ScenarioError) as err:
        run_verify(scn)
    assert str(err.value) == message


@pytest.mark.parametrize("block, run, kind", [
    ("simulation", run_verify, "SimulationBlock"),
    ("verification", run_verify, "VerificationBlock"),
    ("plant", run_analyze, "PlantBlock"),
])
def test_a_pipeline_refuses_a_required_block_replaced_in_code(block, run, kind):
    scn = scenario_from_dict(_fast_scenario())
    setattr(scn, block, None)
    with pytest.raises(ScenarioError) as err:
        run(scn)
    assert str(err.value) == \
        f"the {block} block must be of type {kind}, got None"


@pytest.mark.parametrize("command, block, kind", [
    ("verify", "simulation", "SimulationBlock"),
    ("verify", "verification", "VerificationBlock"),
    ("analyze", "plant", "PlantBlock"),
])
def test_main_refuses_a_required_block_replaced_in_code(
        tmp_path, capsys, monkeypatch, command, block, kind):
    def load(path):
        scn = scenario_from_dict(_fast_scenario())
        setattr(scn, block, None)
        return scn
    monkeypatch.setattr(nisyn.cli, "load_scenario", load)
    out = tmp_path / "o"
    assert main([command, "--scenario", "unused.json", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: the {block} block must be of type {kind}, got None\n"
    assert not out.exists()


def test_a_pipeline_refuses_an_optional_block_of_another_type():
    scn = scenario_from_dict(_fast_scenario())
    scn.uncertainty = {"n_sigma": 1}
    with pytest.raises(ScenarioError) as err:
        nisyn.cli.Pipeline(scn)
    assert str(err.value) == "the uncertainty block must be of type " \
        "UncertaintyBlock, got {'n_sigma': 1}"


@pytest.mark.parametrize("block", ["general_form", "uncertainty", "regression"])
def test_optional_blocks_set_to_none_in_code_stay_valid(block):
    scn = scenario_from_dict(_fast_scenario())
    setattr(scn, block, None)
    check_bounds(scn)
    assert run_analyze(scn)["passed"]


def test_numpy_scalars_in_code_pass_only_as_python_numbers(tmp_path):
    # np.float64 is a float, so it is a number and runs as the float does;
    # np.int64 and np.float32 are not Python numbers and would not save as
    # JSON, so they are refused as a string would be
    want = scenario_from_dict(_fast_scenario())
    got = scenario_from_dict(_fast_scenario())
    got.simulation.dt = np.float64(want.simulation.dt)
    assert run_simulate(want, tmp_path / "want")["passed"]
    assert run_simulate(got, tmp_path / "got")["passed"]
    assert (tmp_path / "got" / "trajectory.csv").read_bytes() == \
        (tmp_path / "want" / "trajectory.csv").read_bytes()
    for name, value, kind in (("seed", np.int64(3), "an integer"),
                              ("dt", np.float32(0.01), "a number")):
        scn = scenario_from_dict(_fast_scenario())
        setattr(scn.simulation, name, value)
        with pytest.raises(ScenarioError) as err:
            nisyn.cli.Pipeline(scn)
        assert str(err.value) == f"field {name!r} must be {kind}, got {value!r}"


def test_scenario_that_is_not_an_object_is_rejected():
    with pytest.raises(ScenarioError, match="scenario block must be a JSON object"):
        scenario_from_dict([MINIMAL])


# --- builders -------------------------------------------------------------------

def test_build_plant_shape_mismatch():
    data = dict(MINIMAL, plant={"m": 2, "p1": 1, "p2": 1,
                                "A11": [[-1.0]], "p": ["0", "0"]})
    with pytest.raises(ScenarioError, match="shape"):
        build_plant(scenario_from_dict(data))


def test_build_plant_bad_expression():
    data = dict(MINIMAL, plant={"m": 1, "p1": 1, "p2": 1,
                                "A11": [[-1.0]], "p": ["xi9"]})
    with pytest.raises(ScenarioError, match="undeclared"):
        build_plant(scenario_from_dict(data))


def test_resolve_spec_auto_p_and_default_v2():
    scn = scenario_from_dict(MINIMAL)
    plant = build_plant(scn)
    spec = resolve_synthesis_spec(scn, plant)
    # auto certificate for A11 = -1 solves -2P = -1
    assert spec.p_matrix == pytest.approx(np.array([[0.5]]))
    assert spec.lam == 1.0  # OSNI default
    from nisyn.expr import to_string
    assert to_string(spec.v2) == "xi1^2 + xi2^2"


def test_resolve_spec_target_rules():
    data = dict(MINIMAL, spec={"target": "NI"})
    scn = scenario_from_dict(data)
    plant = build_plant(scn)
    assert resolve_synthesis_spec(scn, plant).lam == 0.0

    data = dict(MINIMAL, spec={"target": "OSNI", "lambda": 0.0})
    scn = scenario_from_dict(data)
    with pytest.raises(ScenarioError, match="lambda"):
        resolve_synthesis_spec(scn, build_plant(scn))

    data = dict(MINIMAL, spec={"target": "SPR"})
    scn = scenario_from_dict(data)
    with pytest.raises(ScenarioError, match="target"):
        resolve_synthesis_spec(scn, build_plant(scn))


def test_sampling_box_defaults_and_validation():
    scn = scenario_from_dict(MINIMAL)
    box = sampling_box(scn, 4)
    assert box.shape == (4, 2)
    assert np.all(box[:, 0] == -2.0)
    data = dict(MINIMAL, verification={"sampling_box": [[-1.0, 1.0]]})
    scn = scenario_from_dict(data)
    with pytest.raises(ScenarioError, match="covers"):
        sampling_box(scn, 4)


def test_default_input_catalog_kinds():
    kinds = [s["kind"] for s in default_input_catalog(2, seed=1)]
    assert kinds == ["zero", "step", "multisine"]


# --- command functions ------------------------------------------------------------

def test_analyze_marginal_plant_equivalent():
    data = dict(MINIMAL)
    data["plant"] = {"m": 2, "p1": 1, "p2": 1,
                     "A11": [[0.0, 1.0], [-1.0, 0.0]],
                     "p": ["xi1^2*xi2", "0"]}
    data["simulation"] = {"x0": [0.0, 0.0, 0.0, 0.0, 0.0]}
    report = run_analyze(scenario_from_dict(data))
    assert report["equivalent"]
    assert report["classification"] == "MarginallyStable"


def test_analyze_jordan_block_not_equivalent():
    data = dict(MINIMAL)
    data["plant"] = {"m": 2, "p1": 1, "p2": 1,
                     "A11": [[0.0, 1.0], [0.0, 0.0]],
                     "p": ["0", "0"]}
    report = run_analyze(scenario_from_dict(data))
    assert not report["equivalent"]
    assert report["classification"] == "Unstable"
    assert not report["hypotheses"]["det_A11_nonzero"]


def test_synthesize_rejects_nonequivalent():
    data = dict(MINIMAL)
    data["plant"] = {"m": 1, "p1": 1, "p2": 1, "A11": [[1.0]], "p": ["0"]}
    report = run_synthesize(scenario_from_dict(data))
    assert not report["passed"]
    assert "analyze" in report


def test_synthesize_regression_pass():
    report = run_synthesize(scenario_from_dict(_fast_scenario()))
    assert report["passed"]
    assert report["law_regression"]["passed"]
    assert report["law_regression"]["max_relative_error"] <= 1e-9


def test_synthesize_auto_certificate_scales_laws():
    # with P resolved automatically to 1/2, the quadratic part of each law
    # halves relative to the P = 1 regression forms
    data = _fast_scenario()
    data["spec"] = {"P": "auto", "V2": "xi1^(4/3)+xi2^2", "lambda": 1.0}
    del data["regression"]
    scn = scenario_from_dict(data)
    plant = build_plant(scn)
    spec = resolve_synthesis_spec(scn, plant)
    assert spec.p_matrix == pytest.approx(np.array([[0.5]]))
    from nisyn.expr import evaluate, parse_expr
    from nisyn.synthesis import synthesize
    cl = synthesize(plant, spec)
    names = plant.state_names
    u1_oracle = parse_expr("2*z1*xi1*xi2 - 2*xi1^3*xi2^2 - 4/3*xi1^(1/3)", names)
    u2_oracle = parse_expr("z1*xi1^2 - xi1^4*xi2 - 2*xi2 - xi3", names)
    rng = np.random.default_rng(8)
    for _ in range(50):
        b = dict(zip(names, rng.uniform(-2, 2, size=4)))
        assert evaluate(cl.u1_laws[0], b) == pytest.approx(
            evaluate(u1_oracle, b), rel=1e-9, abs=1e-12)
        assert evaluate(cl.u2_laws[0], b) == pytest.approx(
            evaluate(u2_oracle, b), rel=1e-9, abs=1e-12)


def test_synthesize_catches_semidefinite_v2():
    data = _fast_scenario()
    data["spec"]["V2"] = "xi1^2"  # vanishes along xi2: not positive definite
    report = run_synthesize(scenario_from_dict(data))
    assert not report["passed"]
    assert not report["v2_positive_definite"]["passed"]


def test_simulate_general_form_applied_inputs(tmp_path):
    # with gains l = diag(2, 1) and drift j = (xi2, 0), the applied input
    # is ut1 = (u1 - xi2)/2, ut2 = u2 along the trajectory
    data = _fast_scenario()
    del data["uncertainty"]
    del data["regression"]
    data["simulation"]["t_end"] = 0.05
    data["general_form"] = {
        "j1": ["xi2"], "j2": ["0"],
        "l1": [["2", "0"]], "l2": [["0", "1"]],
    }
    report = run_simulate(scenario_from_dict(data), tmp_path)
    assert report["passed"]
    applied = (tmp_path / "applied_inputs.csv").read_text().splitlines()
    assert applied[0] == "t,ut1,ut2"
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    # reconstruct the oracle from the trajectory rows: columns are
    # t,z1,xi1,xi2,xi3,v1,v2,V,residual
    from nisyn.expr import evaluate, parse_expr
    from nisyn.synthesis import synthesize as _synth
    scn = scenario_from_dict(data)
    plant = build_plant(scn)
    cl = _synth(plant, resolve_synthesis_spec(scn, plant))
    names = plant.state_names
    for row_t, row_a in list(zip(traj[1:], applied[1:]))[::7]:
        t, z1, xi1, xi2, xi3, v1, v2, *_ = map(float, row_t.split(","))
        _, ut1, ut2 = map(float, row_a.split(","))
        b = dict(zip(names, (z1, xi1, xi2, xi3)))
        u1 = v1 + evaluate(cl.u1_laws[0], b)
        u2 = v2 + evaluate(cl.u2_laws[0], b)
        assert ut1 == pytest.approx((u1 - xi2) / 2.0, rel=1e-12, abs=1e-12)
        assert ut2 == pytest.approx(u2, rel=1e-12, abs=1e-12)


def test_simulate_writes_artifacts(tmp_path):
    data = _fast_scenario()
    report = run_simulate(scenario_from_dict(data), tmp_path)
    assert report["passed"]
    assert (tmp_path / "trajectory.csv").exists()
    assert report["interconnected"]


def test_simulate_divergence_reported(tmp_path):
    data = _fast_scenario()
    del data["uncertainty"]
    del data["regression"]
    # large positive step drives xi2 far; tiny blow-up bound via huge step
    data["plant"]["p"] = ["xi1^2*xi2"]
    data["spec"] = {"P": [[1.0]], "V2": "xi1^2+xi2^2", "lambda": 1.0}
    data["simulation"]["input"] = {"kind": "step", "amplitude": [5e5, 5e5]}
    data["simulation"]["t_end"] = 5.0
    report = run_simulate(scenario_from_dict(data), tmp_path)
    assert not report["passed"]
    assert "diverged_at_step" in report


def test_verify_fast_scenario_passes():
    report = run_verify(scenario_from_dict(_fast_scenario()))
    assert report["passed"]
    checks = report["checks"]
    assert all(c["passed"] for c in checks["closed_loop_dissipation"])
    assert checks["w_decrease"]["passed"]
    assert checks["uncertainty_storage_positive_definite"]["passed"]
    assert "schema_version" in report


DEGENERATE_P1 = {
    "plant": {"m": 1, "p1": 0, "p2": 1, "A11": [[-2.0]], "p": ["xi2^3"]},
    "spec": {"P": "auto", "V2": "default", "lambda": 1.0, "target": "OSNI"},
    "simulation": {"x0": [1.0, 0.8, -0.3], "dt": 0.001, "t_end": 2.0, "seed": 3},
    "verification": {
        "dissipation_tol": 0.001, "samples": 3000, "pd_seed": 1,
        "input_signals": [
            {"kind": "zero"},
            {"kind": "step", "amplitude": [0.2]},
            {"kind": "multisine", "amplitudes": [[0.15, 0.05]],
             "frequencies": [[0.3, 0.8]], "seed": 4},
        ],
    },
}


def test_degenerate_relative_degree_two_only_pipeline():
    # p1 = 0: every output has relative degree two and there is no u1 law
    scn = scenario_from_dict(DEGENERATE_P1)
    synth = run_synthesize(scn)
    assert synth["passed"]
    assert synth["laws"]["u1"] == []
    assert len(synth["laws"]["u2"]) == 1
    report = run_verify(scn)
    assert report["passed"]


VECTOR_MARGINAL = {
    "name": "vector-marginal",
    "plant": {
        "m": 2, "p1": 2, "p2": 1,
        "A11": [[0.0, 2.0], [-2.0, 0.0]],
        "p": ["xi1_1*xi2", "xi1_2^3"],
    },
    "spec": {"P": "auto", "V2": "default", "lambda": 1.0, "target": "OSNI"},
    "simulation": {
        "x0": [1.0, 0.5, 0.5, -0.5, 1.0, 0.0],
        "dt": 0.001, "t_end": 2.0, "input": {"kind": "zero"}, "seed": 11,
    },
    "verification": {
        "dissipation_tol": 0.001, "samples": 3000, "pd_seed": 5,
        "input_signals": [
            {"kind": "zero"},
            {"kind": "step", "amplitude": [0.2, -0.1, 0.15], "start_time": 0.0},
            {"kind": "multisine",
             "amplitudes": [[0.15, 0.05]] * 3,
             "frequencies": [[0.3, 0.8]] * 3, "seed": 13},
        ],
    },
}


def test_vector_marginal_plant_pipeline(tmp_path):
    # vector blocks with indexed names and a marginally stable internal
    # matrix, driven through the whole pipeline with an auto certificate
    scn = scenario_from_dict(VECTOR_MARGINAL)
    analyze = run_analyze(scn)
    assert analyze["equivalent"]
    assert analyze["classification"] == "MarginallyStable"

    synth = run_synthesize(scn)
    assert synth["passed"]
    assert len(synth["laws"]["u1"]) == 2
    assert len(synth["laws"]["u2"]) == 1
    # the rotation block admits the identity certificate
    assert np.asarray(synth["p_matrix"]) == pytest.approx(np.eye(2), abs=1e-9)

    verify = run_verify(scn)
    assert verify["passed"]

    sim_report = run_simulate(scn, tmp_path)
    assert sim_report["passed"]
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,z1,z2,xi1_1,xi1_2,xi2,xi3,v1,v2,v3,V,residual"


def test_verify_ni_target_with_zero_lambda():
    # lambda = 0 still yields a nonlinear NI loop; the NI-target verify
    # gates on the plain dissipation inequality
    data = _fast_scenario()
    data["spec"]["target"] = "NI"
    data["spec"]["lambda"] = 0.0
    del data["regression"]
    report = run_verify(scenario_from_dict(data))
    assert report["target"] == "NI"
    assert report["passed"]
    for entry in report["checks"]["closed_loop_dissipation"]:
        assert entry["ni_pass"]
        assert entry["epsilon"] == 0.0


def test_main_verify_rejects_bad_tolerance(tmp_path):
    path = _write(tmp_path, _fast_scenario())
    assert main(["verify", "--scenario", path, "--out", str(tmp_path / "o"),
                 "--tol", "-1"]) == 2


def test_verify_jobs_parallel_matches_serial():
    data = _fast_scenario()
    serial = run_verify(scenario_from_dict(data), jobs=1)
    parallel = run_verify(scenario_from_dict(data), jobs=2)
    assert serial["checks"]["closed_loop_dissipation"] == \
        parallel["checks"]["closed_loop_dissipation"]


class _RecordingPool:
    """Stand-in for the process pool: records its size, runs tasks inline."""
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("cpus, jobs, sizes", [
    (2, 64, [2, 2]),      # capped by the CPU count
    (16, 64, [3, 3]),     # capped by the three catalog signals
    (None, 4, []),        # unknown CPU count: one process, no pool
])
def test_verify_pool_size_is_capped(monkeypatch, cpus, jobs, sizes):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    data = _fast_scenario()
    data["simulation"]["t_end"] = 0.2
    report = run_verify(scenario_from_dict(data), jobs=jobs)
    assert report["passed"]
    assert _RecordingPool.sizes == sizes


def test_reproduce_builds_once_and_matches_simulate(tmp_path, monkeypatch):
    calls = {"synthesize": 0, "simulate_interconnection": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(nisyn.cli, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(nisyn.cli, name, counted)
    data = _fast_scenario()
    assert run_reproduce(scenario_from_dict(data), tmp_path / "r")["passed"]
    assert calls == {"synthesize": 1, "simulate_interconnection": 1}
    # the shared interconnection run exports exactly what simulate alone does
    assert run_simulate(scenario_from_dict(data), tmp_path / "s")["passed"]
    assert (tmp_path / "r" / "trajectory.csv").read_bytes() == \
        (tmp_path / "s" / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_main_verify_diverging_signal_fails_with_report(tmp_path, monkeypatch,
                                                        jobs):
    # at jobs=2 the pool must carry the failed runs back to the report
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    data = _fast_scenario()
    data["verification"]["input_signals"] = [
        {"kind": "zero"}, {"kind": "step", "amplitude": [5e5, 5e5]}]
    path = _write(tmp_path, data)
    out = tmp_path / "o"
    assert main(["verify", "--scenario", path, "--out", str(out),
                 "--jobs", str(jobs)]) == 1
    checks = json.loads((out / "verify.json").read_text())["checks"]
    for group, n_states in (("closed_loop_dissipation", 4),
                            ("uncertainty_dissipation", 2)):
        calm, diverged = checks[group]
        assert calm["passed"] and "error" not in calm
        assert not diverged["passed"]
        assert "exceeded blow-up bound" in diverged["error"]
        assert diverged["diverged_at_step"] == 1
        assert len(diverged["last_state"]) == n_states
    assert checks["w_decrease"]["passed"]


def test_main_reproduce_diverging_interconnection_fails_with_report(tmp_path):
    data = _fast_scenario()
    data["simulation"]["x0"] = [2e6, 0.0, 0.0, 0.0]
    path = _write(tmp_path, data)
    out = tmp_path / "o"
    assert main(["reproduce-example", "--scenario", path,
                 "--out", str(out)]) == 1
    stages = json.loads((out / "reproduce.json").read_text())["stages"]
    checks = stages["verify"]["checks"]
    for key in ("w_decrease", "convergence"):
        assert not checks[key]["passed"]
        assert checks[key]["diverged_at_step"] == 1
    assert stages["simulate"]["diverged_at_step"] == 1
    assert not (out / "trajectory.csv").exists()


# --- main() exit codes ---------------------------------------------------------

def _write(tmp_path, data, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_main_analyze_exit_codes(tmp_path):
    ok = _write(tmp_path, _fast_scenario())
    assert main(["analyze", "--scenario", ok, "--out", str(tmp_path / "o1")]) == 0

    bad = dict(_fast_scenario())
    bad["plant"] = {"m": 2, "p1": 1, "p2": 1,
                    "A11": [[0.0, 1.0], [0.0, 0.0]], "p": ["0", "0"]}
    bad["simulation"]["x0"] = [0.0] * 5
    path = _write(tmp_path, bad, "bad.json")
    assert main(["analyze", "--scenario", path, "--out", str(tmp_path / "o2")]) == 1

    assert main(["analyze", "--scenario", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o3")]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["analyze", "--scenario", str(broken),
                 "--out", str(tmp_path / "o4")]) == 2


@pytest.mark.parametrize("field, value, message", [
    ("components", 0, "error: signal field 'components' must be at least 1, got 0"),
    ("seed", 1.5, "error: signal field 'seed' must be an integer, got 1.5"),
    ("cutoff", float("nan"), "error: signal field 'cutoff' must be a finite number, got nan"),
])
def test_main_simulate_rejects_a_bad_bandlimited_input(tmp_path, capsys, field,
                                                       value, message):
    data = _fast_scenario()
    del data["uncertainty"]
    del data["regression"]
    data["simulation"]["t_end"] = 0.1
    data["simulation"]["input"] = {"kind": "bandlimited", "amplitude": 0.2,
                                   "cutoff": 1.0, "components": 4, "seed": 3,
                                   field: value}
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", _write(tmp_path, data),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("signal, message", [
    ({"kind": "step", "amplitude": [0.2, 0.2], "start_time": float("nan")},
     "error: signal field 'start_time' must be a finite number, got nan"),
    ({"kind": "step", "amplitude": [0.2, 0.2], "start_time": "soon"},
     "error: signal field 'start_time' must be a finite number, got 'soon'"),
    ({"kind": "multisine", "amplitudes": [[0.1, 0.2], [0.1, float("nan")]],
      "frequencies": [[0.3, 0.8], [0.3, 0.8]], "seed": 4},
     "error: signal field 'amplitudes' must be an array of 2 equal-length rows "
     "of numbers, all finite, got [[0.1, 0.2], [0.1, nan]]"),
    ({"kind": "multisine", "amplitudes": [[0.1, 0.2], [0.1, 0.2]],
      "frequencies": [[float("nan"), 0.8], [0.3, 0.8]], "seed": 4},
     "error: signal field 'frequencies' must be an array of 2 equal-length rows "
     "of numbers, all finite, got [[nan, 0.8], [0.3, 0.8]]"),
])
def test_main_simulate_rejects_a_bad_step_or_multisine(tmp_path, capsys, signal,
                                                       message):
    # at the parent a NaN start_time ran with an all-zero input (exit 0) and a
    # NaN amplitude or frequency was reported as a diverged run (exit 1)
    data = _fast_scenario()
    del data["uncertainty"]
    del data["regression"]
    data["simulation"]["t_end"] = 0.1
    data["simulation"]["input"] = signal
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", _write(tmp_path, data),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (out / "trajectory.csv").exists()


def test_main_report_files_have_schema_version(tmp_path):
    ok = _write(tmp_path, _fast_scenario())
    out = tmp_path / "rep"
    assert main(["analyze", "--scenario", ok, "--out", str(out)]) == 0
    data = json.loads((out / "analyze.json").read_text())
    assert data["schema_version"] == 1


def test_main_simulate_determinism(tmp_path):
    scn = _write(tmp_path, _fast_scenario())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", scn, "--out", str(out_a)]) == 0
    assert main(["simulate", "--scenario", scn, "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == \
        (out_b / "trajectory.csv").read_bytes()


def test_main_dt_override(tmp_path):
    scn = _write(tmp_path, _fast_scenario())
    out = tmp_path / "dt"
    assert main(["simulate", "--scenario", scn, "--out", str(out),
                 "--dt", "0.002"]) == 0
    report = json.loads((out / "simulate.json").read_text())
    assert report["dt"] == 0.002


@pytest.mark.parametrize("block, key, value, problem", [
    ("simulation", "t_end", float("inf"), "must be a finite number, got inf"),
    ("simulation", "t_end", float("nan"), "must be a finite number, got nan"),
    ("simulation", "t_end", 0, "must be positive, got 0.0"),
    ("simulation", "t_end", -1.0, "must be positive, got -1.0"),
    ("simulation", "dt", float("nan"), "must be a finite number, got nan"),
    ("simulation", "dt", float("-inf"), "must be a finite number, got -inf"),
    ("simulation", "dt", 0.0, "must be positive, got 0.0"),
    ("verification", "settle_window", float("inf"),
     "must be a finite number, got inf"),
    ("verification", "settle_window", float("nan"),
     "must be a finite number, got nan"),
    ("verification", "settle_window", -1.0, "must be at least 0, got -1.0"),
])
def test_main_simulate_rejects_a_bad_time_field(tmp_path, capsys, block, key,
                                                value, problem):
    data = _fast_scenario()
    data[block][key] = value
    path = _write(tmp_path, data)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        f"error: field {key!r} of the {block} block {problem}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, problem", [
    ("--t-end", "inf", "simulation.t_end and must be a finite number, got inf"),
    ("--t-end", "-2", "simulation.t_end and must be positive, got -2.0"),
    ("--dt", "nan", "simulation.dt and must be a finite number, got nan"),
    ("--dt", "0", "simulation.dt and must be positive, got 0.0"),
])
def test_main_simulate_rejects_a_bad_time_override(tmp_path, capsys, flag, value,
                                                   problem):
    path = _write(tmp_path, _fast_scenario())
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "o"),
                 flag, value]) == 2
    assert capsys.readouterr().err == f"error: {flag} overrides {problem}\n"


_VERIFY_BOUNDS = [
    (key, value, problem)
    for key in ("dissipation_tol", "w_decrease_tol", "convergence_threshold",
                "nominal_convergence_threshold")
    for value, problem in ((float("inf"), "must be a finite number, got inf"),
                           (float("nan"), "must be a finite number, got nan"),
                           (0, "must be positive, got 0.0"),
                           (-1, "must be positive, got -1.0"))]


@pytest.mark.parametrize("key, value, problem", _VERIFY_BOUNDS)
def test_a_bad_verification_tolerance_or_threshold_exits_2(tmp_path, capsys, key,
                                                          value, problem):
    data = _fast_scenario()
    data["verification"][key] = value
    message = f"field {key!r} of the verification block {problem}"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert str(err.value) == message
    path = _write(tmp_path, data)
    assert main(["verify", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value, problem", [
    ("inf", "must be a finite number, got inf"),
    ("nan", "must be a finite number, got nan"),
    ("0", "must be positive, got 0.0"),
    ("-1", "must be positive, got -1.0"),
])
def test_main_verify_rejects_a_bad_tol_override(tmp_path, capsys, value, problem):
    path = _write(tmp_path, _fast_scenario())
    assert main(["verify", "--scenario", path, "--out", str(tmp_path / "o"),
                 "--tol", value]) == 2
    assert capsys.readouterr().err == \
        f"error: --tol overrides verification.dissipation_tol and {problem}\n"


def test_absent_optional_verification_thresholds_load_as_none():
    data = _fast_scenario()
    data["verification"]["w_decrease_tol"] = None
    data["verification"]["nominal_convergence_threshold"] = None
    ver = scenario_from_dict(data).verification
    assert ver.w_decrease_tol is None and ver.nominal_convergence_threshold is None


def test_zero_settle_window_loads():
    data = _fast_scenario()
    data["verification"]["settle_window"] = 0
    assert scenario_from_dict(data).verification.settle_window == 0.0


def test_main_writes_report_with_failure_witness(tmp_path):
    # a failing positivity check must still serialize cleanly to JSON
    data = _fast_scenario()
    data["spec"]["V2"] = "xi1^2"
    path = _write(tmp_path, data, "semidef.json")
    out = tmp_path / "w"
    assert main(["synthesize", "--scenario", path, "--out", str(out)]) == 1
    report = json.loads((out / "synthesize.json").read_text())
    assert report["v2_positive_definite"]["witness"] is not None


@pytest.mark.parametrize("command, block, key, value, message", [
    ("synthesize", "spec", "lambda", float("inf"),
     "field 'lambda' of the spec block must be a finite number, got inf"),
    ("synthesize", "spec", "lambda", float("nan"),
     "field 'lambda' of the spec block must be a finite number, got nan"),
    ("synthesize", "spec", "lambda", -1.0,
     "field 'lambda' of the spec block must be at least 0, got -1.0"),
    ("verify", "uncertainty", "epsilon_sigma", float("inf"),
     "field 'epsilon_sigma' of the uncertainty block must be a finite number, "
     "got inf"),
    ("verify", "uncertainty", "epsilon_sigma", 0,
     "field 'epsilon_sigma' of the uncertainty block must be positive, got 0.0"),
])
def test_main_rejects_lambda_and_epsilon_sigma_out_of_bounds(
        tmp_path, capsys, command, block, key, value, message):
    data = _fast_scenario()
    data[block][key] = value
    assert main([command, "--scenario", _write(tmp_path, data),
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_main_reproduce_tampered_scenario_fails(tmp_path):
    tampered = _fast_scenario()
    tampered["regression"]["u1"] = ["4*z1*xi1*xi2 - 4*xi1^3*xi2^2 + 4/3*xi1^(1/3)"]
    path = _write(tmp_path, tampered, "tampered.json")
    code = main(["reproduce-example", "--scenario", path,
                 "--out", str(tmp_path / "rt")])
    assert code == 1


def test_console_script_entry_point(tmp_path):
    scn = _write(tmp_path, _fast_scenario())
    # the subprocess finds the nisyn under test whether or not it is installed
    src = os.path.dirname(os.path.dirname(nisyn.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "nisyn.cli", "analyze", "--scenario", scn,
         "--out", str(tmp_path / "cs")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "EQUIVALENT" in proc.stdout


@pytest.mark.parametrize("dt, message", [
    ("nan", "must be a finite number, got nan"),
    ("-0.01", "must be positive, got -0.01"),
])
def test_reproduce_script_rejects_a_bad_dt(tmp_path, dt, message):
    src = os.path.dirname(os.path.dirname(nisyn.cli.__file__))
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                          "reproduce_example.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, script, "--dt", dt, "--out", str(tmp_path / "r")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == f"error: --dt overrides simulation.dt and {message}\n"
    assert not (tmp_path / "r").exists()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(nisyn.cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nisyn.cli; print(sorted(m for m in "
         "sys.modules if m.startswith('scipy.stats')))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"


def _src_env() -> dict:
    src = os.path.dirname(os.path.dirname(nisyn.cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_importing_the_cli_loads_neither_scipy_nor_the_process_pool():
    # scipy.linalg is imported by the P = "auto" certificate only, and
    # concurrent.futures by verify at --jobs > 1 only
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nisyn.cli; print(sorted(m for m in "
         "sys.modules if m.startswith(('scipy', 'concurrent'))))"],
        capture_output=True, text=True, env=_src_env(), check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("data", [DEGENERATE_P1, VECTOR_MARGINAL],
                         ids=["hurwitz", "marginal"])
def test_main_verify_auto_certificate_in_a_fresh_interpreter(tmp_path, data):
    # in this process scipy may already be loaded; a fresh one shows that
    # the certificate's own imports work
    data = json.loads(json.dumps(data))
    data["simulation"]["t_end"] = 0.5
    path = _write(tmp_path, data)
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "nisyn.cli", "verify", "--scenario", path,
         "--out", str(out)], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "verify.json").read_text())["passed"]


def test_main_synthesize_refuses_an_ill_conditioned_a11(tmp_path, capsys):
    # analyze calls this plant equivalent (both eigenvalues are -1), but
    # A11 is one rounding from singular, so synthesis refuses A11^-1
    data = {"plant": {"m": 2, "p1": 1, "p2": 1,
                      "A11": [[-1.0, 1e8], [0.0, -1.0]],
                      "p": ["xi1^2", "xi2^2"]},
            "spec": {"P": [[1.0, 0.0], [0.0, 1.0]]},
            "simulation": {"x0": [0.0, 0.0, 1.0, 0.0, 0.0]}}
    path = _write(tmp_path, data)
    out = str(tmp_path / "o")
    assert main(["analyze", "--scenario", path, "--out", out]) == 0
    capsys.readouterr()
    assert main(["synthesize", "--scenario", path, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: A11 is singular or numerically singular: sigma_min = "
        "1.000e-08, sigma_max = 1.000e+08\n")


@pytest.mark.parametrize("command", ["synthesize", "simulate", "verify",
                                     "reproduce-example"])
def test_main_rejects_law_singular_at_origin(tmp_path, capsys, command):
    # V2 = xi1^(2/3) gives u1 a term in xi1^(-1/3), unbounded near y = 0
    data = _fast_scenario()
    data["spec"]["V2"] = "xi1^(2/3)+xi2^2"
    path = _write(tmp_path, data)
    out = tmp_path / "o"
    assert main([command, "--scenario", path, "--out", str(out)]) == 2
    assert "u1[1] contains xi1^(-1/3)" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


def test_main_simulate_singular_gain_mid_run_writes_no_applied_inputs(
        tmp_path, capsys):
    # cond(diag(1, 1e-9*xi1)) = 1e9/|xi1| is fine at xi1(0) = 1 and passes
    # 1e10 once xi1 decays below 0.1, about 0.2 s into the run
    data = _fast_scenario()
    del data["uncertainty"]
    del data["regression"]
    data["general_form"] = {
        "j1": ["0"], "j2": ["0"],
        "l1": [["1", "0"]], "l2": [["0", "1/1000000000*xi1"]],
    }
    path = _write(tmp_path, data)
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", path, "--out", str(out)]) == 2
    assert "ill-conditioned" in capsys.readouterr().err
    assert not (out / "applied_inputs.csv").exists()


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_main_simulate_non_finite_gain_exits_2(tmp_path, capsys):
    # 1 + xi1^(-1) - xi1^(-1) is nan at xi1(0) = 0, where SVD cannot converge
    data = _fast_scenario()
    del data["uncertainty"]
    del data["regression"]
    data["simulation"]["x0"] = [3.0, 0.0, -1.0, 2.0]
    data["general_form"] = {
        "j1": ["0"], "j2": ["0"],
        "l1": [["1 + xi1^(-1) - xi1^(-1)", "0"]], "l2": [["0", "1"]],
    }
    path = _write(tmp_path, data)
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", path, "--out", str(out)]) == 2
    assert "not finite at state z1=3, xi1=0" in capsys.readouterr().err
    assert not (out / "applied_inputs.csv").exists()


@pytest.mark.parametrize("block", ["verification", "regression"])
def test_main_rejects_block_that_is_not_an_object(tmp_path, capsys, block):
    path = _write(tmp_path, _fast_scenario(**{block: []}))
    assert main(["verify", "--scenario", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        f"error: {block} block must be a JSON object\n"
