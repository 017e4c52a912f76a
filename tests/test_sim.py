"""Integrator, dissipation checkers, convergence metrics, CSV export."""

import csv
import dis
import math
import re
import warnings

import numpy as np
import pytest

import nisyn.sim as sim
from nisyn.expr import compile_exprs, parse_expr
from nisyn.scenario import ScenarioError, signal_from_spec
from nisyn.sim import (
    DivergenceError, IntegrationError, Trajectory, bandlimited_signal,
    check_dissipation, check_w_decrease, convergence_metrics, integrate,
    multisine_signal, simulate, simulate_closed_loop, simulate_interconnection,
    simulate_uncertainty, step_signal, write_columns_csv,
    write_trajectory_csv, zero_signal,
)
from nisyn.synthesis import SynthesisSpec, storage_value, synthesize
from nisyn.uncertainty import Interconnection, OsniUncertainty
from test_synthesis import random_plant_and_spec

XS = ("xs1", "xs2")
US = ("us1", "us2")


def _example_unc():
    return OsniUncertainty(
        n_sigma=2,
        f_sigma=(parse_expr("-xs1^3+us1", XS + US),
                 parse_expr("-xs2+us2", XS + US)),
        h_sigma=(parse_expr("xs1", XS), parse_expr("xs2", XS)),
        v_sigma=parse_expr("1/4*xs1^4+1/2*xs2^2", XS),
        epsilon_sigma=1.0,
    )


X0 = np.array([3.0, 1.0, -1.0, 2.0])


def _field(exprs, names):
    return compile_exprs([parse_expr(e, names) for e in exprs], names)


_DECAY = _field(["-x"], ["x"])  # x' = -x
_GROWTH = _field(["x"], ["x"])  # x' = x


def _zero_field(n):
    names = [f"x{i + 1}" for i in range(n)]
    return _field(["0"] * n, names)


# --- integrator ---------------------------------------------------------------

def test_zero_field_constant():
    traj = integrate(_zero_field(2), [2.0, -1.0], 1.0, 0.1)
    assert np.all(traj.states == np.array([2.0, -1.0]))
    assert traj.t[0] == 0.0 and traj.t[-1] == pytest.approx(1.0)
    assert np.all(np.diff(traj.t) > 0)


def test_exponential_oracle():
    traj = integrate(_DECAY, [1.0], 1.0, 1e-3)
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-9


def test_rotation_energy_conservation():
    dt = 1e-2
    traj = integrate(_field(["x2", "-x1"], ["x1", "x2"]), [1.0, 0.0], 10.0, dt)
    norms = np.linalg.norm(traj.states, axis=1)
    # RK4 drift per unit time is O(dt^4)
    assert abs(norms[-1] - 1.0) <= 100 * dt ** 4 * 10


def test_rk4_order_against_exponential():
    errors = []
    for dt in (0.1, 0.05, 0.025):
        traj = integrate(_DECAY, [1.0], 1.0, dt)
        errors.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
    for a, b in zip(errors, errors[1:]):
        assert 12.0 <= a / b <= 20.0


def test_nan_abort():
    # x' = -1 off 0; the fourth stage of step 4 reaches 0, where the redo
    # on numpy scalars gives inf - inf
    field = _field(["x^(-1) - x^(-1) - 1"], ["x"])
    with pytest.warns(RuntimeWarning):
        with pytest.raises(IntegrationError) as err:
            integrate(field, [0.5], 1.0, 0.125)
    assert not isinstance(err.value, DivergenceError)
    assert err.value.step == 4
    assert err.value.last_state.tolist() == [0.125]


def test_blowup_guard():
    with pytest.raises(DivergenceError) as err:
        integrate(_GROWTH, [1.0], 100.0, 0.1, blowup_norm=1e3)
    assert err.value.step > 0


def test_integrate_validation():
    with pytest.raises(ValueError):
        integrate(_GROWTH, [1.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(_GROWTH, [1.0], 0.05, 0.1)


@pytest.mark.parametrize("rhs", [lambda x, u: -x, np.negative, None])
def test_integrate_takes_only_a_compiled_field(rhs):
    calls = []
    with pytest.raises(TypeError, match=re.escape(
            f"integrate takes a compile_exprs field, got {rhs!r}")):
        integrate(rhs, [1.0], 1.0, 0.1, input_fn=lambda t: calls.append(t))
    assert calls == []  # refused before the input is sampled


def test_zoh_input_recorded():
    sig = step_signal([1.0], start_time=0.5)
    traj = integrate(_field(["u1 - x"], ["x", "u1"]), [0.0], 1.0, 0.25,
                     input_fn=sig)
    assert traj.inputs[:2] == pytest.approx(np.zeros((2, 1)))
    assert traj.inputs[2:] == pytest.approx(np.ones((3, 1)))


@pytest.mark.parametrize("signal, shape", [
    (lambda t: np.zeros(2), (2,)),               # one time's input
    (lambda t: np.zeros(len(t)), (12,)),         # p = 1 without its axis
    (lambda t: np.zeros((11, 1)), (11, 1)),      # one row short
    (lambda t: np.zeros((len(t), 1, 1)), (12, 1, 1)),
    (lambda t: 0.0, ()),
])
def test_integrate_rejects_an_input_of_the_wrong_shape(signal, shape):
    with pytest.raises(ValueError, match=re.escape(f"input_fn gave shape {shape}")):
        integrate(_DECAY, [1.0], 1.1, 0.1, input_fn=signal)


def test_integrate_samples_the_input_once_on_the_grid():
    calls = []

    def signal(t):
        calls.append(np.array(t))
        return np.column_stack([t, -t])

    traj = integrate(_field(["u1 - x"], ["x", "u1", "u2"]), [0.0], 1.0, 0.1,
                     input_fn=signal)
    assert len(calls) == 1
    assert calls[0].tobytes() == np.array([k * 0.1 for k in range(11)]).tobytes()
    assert traj.t.tobytes() == calls[0].tobytes()
    assert traj.inputs.shape == (11, 2) and traj.input_names == ("u1", "u2")
    assert integrate(_DECAY, [1.0], 1.0, 0.1).inputs.shape == (11, 0)


def test_an_input_array_in_any_layout_integrates_to_the_same_bytes():
    field = _field(["x2", "-x1 - x2 + u1*u2", "u1 - x3"],
                   ["x1", "x2", "x3", "u1", "u2"])
    signal = multisine_signal([[0.3, 0.1], [0.2, 0.4]], [[0.5, 1.3], [0.8, 2.1]],
                              seed=8)
    layouts = {
        "C": signal,
        "Fortran": lambda t: np.asfortranarray(signal(t)),
        # every other column of u1 u1 u2 u2
        "strided": lambda t: np.repeat(signal(t), 2, axis=1)[:, ::2],
    }
    runs = {name: integrate(field, [0.5, -0.5, 0.1], 1.0, 1e-2, input_fn=fn)
            for name, fn in layouts.items()}
    assert runs["C"].inputs.flags.c_contiguous
    assert not runs["Fortran"].inputs.flags.c_contiguous
    assert not runs["strided"].inputs.flags.c_contiguous
    for traj in runs.values():
        assert traj.inputs.tobytes() == runs["C"].inputs.tobytes()
        assert traj.states.tobytes() == runs["C"].states.tobytes()


def _rk4_on_arrays(field, x0, t_end, dt, signal):
    """The array form of the RK4 step, with the field on numpy float64
    scalars: the reference the list loop must match bit for bit."""
    x = np.array(x0, dtype=float)
    states = [x]
    for k in range(int(round(t_end / dt))):
        u = np.atleast_1d(np.asarray(signal(k * dt), dtype=float))
        rhs = lambda s: np.array(field.point(np.concatenate([s, u])), dtype=float)
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.array(states)


def _loops_for_identity(example_cl):
    rng = np.random.default_rng(77)
    catalog_multisine = multisine_signal([[0.2, 0.1], [0.2, 0.1]],
                                         [[0.4, 0.9], [0.4, 0.9]], seed=7)
    ic = Interconnection(example_cl, _example_unc())
    yield ic._rhs_fn, np.concatenate([X0, [0.5, -0.5]]), zero_signal(0)
    yield example_cl._rhs_fn, X0, catalog_multisine
    yield _example_unc()._rhs_fn, np.array([0.5, -0.5]), catalog_multisine
    for _ in range(10):
        plant, spec = random_plant_and_spec(rng)
        cl = synthesize(plant, spec)
        p = plant.n_outputs
        signal = multisine_signal(rng.uniform(0, 0.3, (p, 2)),
                                  rng.uniform(0.2, 2.0, (p, 2)), seed=int(rng.integers(99)))
        yield cl._rhs_fn, rng.uniform(-1, 1, plant.n_states), signal


def test_list_loop_matches_the_array_loop_bit_for_bit(example_cl):
    for field, x0, signal in _loops_for_identity(example_cl):
        n = len(x0)
        want = _rk4_on_arrays(field, x0, 1.0, 1e-2, signal)
        got = integrate(field, x0, 1.0, 1e-2, input_fn=signal).states
        assert got.shape == (101, n)
        assert got.tobytes() == want.tobytes()


def test_integrate_float_failures_give_integration_error():
    # 1/0 raises on Python floats: the step is redone on numpy scalars
    field = compile_exprs([parse_expr("x^(-1)", ["x"])], ["x"])
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        with pytest.raises(IntegrationError, match="non-finite") as err:
            integrate(field, [0.0], 1.0, 0.1, blowup_norm=np.inf)
    assert not isinstance(err.value, DivergenceError)
    assert err.value.step == 1
    # a cube is a product of Python floats, which reaches inf without
    # raising: no step is redone, and numpy warns of nothing
    field = compile_exprs([parse_expr("-xs1^3", ["xs1"])], ["xs1"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="non-finite") as err:
            integrate(field, [1e120], 1.0, 0.1, blowup_norm=np.inf)
        assert not isinstance(err.value, DivergenceError)
        assert err.value.step == 1
        with pytest.raises(IntegrationError, match="non-finite") as err:
            simulate_uncertainty(_example_unc(), [1e120, 0.0], 1.0, 0.1)
        assert err.value.step == 1


_GENERATED = [
    # n = 1, p = 0
    (["-x - 1/3*x^3"], ["x"], [0.7], zero_signal(0)),
    # n = 2, p = 3
    (["x2 + u1*u3", "-x1 - x2 + u2 - x1^3 + u3"], ["x1", "x2", "u1", "u2", "u3"],
     [0.3, -0.8], multisine_signal([[0.2, 0.1], [0.3, 0.1], [0.1, 0.2]],
                                   [[0.4, 0.9], [1.1, 0.3], [0.7, 2.0]], seed=3)),
    # n = 3, p = 4
    (["x2", "x3 - x1*u4", "-x1 - x2 - x3 + u1 + u2*u3"],
     ["x1", "x2", "x3", "u1", "u2", "u3", "u4"], [1.0, 0.0, -0.5],
     multisine_signal(np.full((4, 1), 0.3), [[0.5], [0.8], [1.3], [2.1]], seed=5)),
    # every stage is -0.0, and -0.0 + sixth * (sum of the stages) keeps the sign
    # only if that sum is -0.0 too
    (["x"], ["x"], [-0.0], zero_signal(0)),
    # rational powers, inlined as conditional expressions in the loop: an odd
    # numerator whose base crosses zero
    (["x2", "-x1^(1/3) - x2"], ["x1", "x2"], [0.3, -0.8], zero_signal(0)),
    # an even numerator whose base crosses zero
    (["x2", "-x1 - x1^(2/3)*x2 + u1"], ["x1", "x2", "u1"], [-0.2, 0.6],
     multisine_signal([[0.3, 0.2]], [[0.7, 1.9]], seed=4)),
    # a negative exponent on a compound base bounded away from 0
    (["(x1^2 + 1)^(-1/3) - x2", "x1 - x2"], ["x1", "x2"], [-0.4, 0.5],
     zero_signal(0)),
    # a compound base (bound to a local) that crosses zero
    (["x2 - (x1 - x2)^(5/3)", "-x1 + u1"], ["x1", "x2", "u1"], [0.2, 0.5],
     multisine_signal([[0.4]], [[1.1]], seed=6)),
    # a base that starts at -0.0, which is not below 0: each stage is +0.0,
    # so the first step leaves -0.0 for +0.0
    (["x^(1/3)"], ["x"], [-0.0], zero_signal(0)),
    # ... and one that leaves zero at 0.5
    (["-x1^(1/3) + u1"], ["x1", "u1"], [-0.0], step_signal([0.2], 0.5)),
]


@pytest.mark.parametrize("exprs, names, x0, signal", _GENERATED)
def test_generated_loop_matches_the_array_loop_bit_for_bit(exprs, names, x0, signal):
    field = _field(exprs, names)
    want = _rk4_on_arrays(field, x0, 1.0, 1e-2, signal)
    n = len(x0)
    input_fn = None if len(names) == n else signal
    got = integrate(field, x0, 1.0, 1e-2, input_fn=input_fn).states
    assert got.shape == (101, n)
    assert got.tobytes() == want.tobytes()


def test_no_loop_of_a_compiled_field_calls_a_function_for_a_rational_power(
        example_cl, monkeypatch):
    fields = [(example_cl._rhs_fn, X0, 2), (_example_unc()._rhs_fn, [0.5, -0.5], 2),
              (Interconnection(example_cl, _example_unc())._rhs_fn,
               np.concatenate([X0, [0.5, -0.5]]), 0)]
    fields += [(_field(exprs, names), x0, len(names) - len(x0))
               for exprs, names, x0, _ in _GENERATED]
    for bound in (sim._UNROLL_CHARS, -1):  # four copies, then one
        monkeypatch.setattr(sim, "_UNROLL_CHARS", bound)
        for field, x0, p in fields:
            monkeypatch.setattr(field, "rk4", None)
            names = sim._inlined_loop(field, len(x0), p).__code__.co_names
            assert "_rp" not in names and "_float_root" not in names
    assert not hasattr(sim, "_float_root")


def _integer_powers_and_abs(loop) -> list:
    """The instructions of ``loop`` that load ``abs`` or run ``**`` with an
    integer exponent (every exponent in a generated loop is a constant)."""
    found, previous = [], None
    for ins in dis.get_instructions(loop):
        power = ins.opname == "BINARY_POWER" or (
            ins.opname == "BINARY_OP" and ins.argrepr == "**")
        if ins.argval == "abs" or (power and not isinstance(previous.argval, float)):
            found.append(ins)
        previous = ins
    return found


def test_the_bundled_loops_run_no_integer_power_and_no_abs(monkeypatch):
    from nisyn.cli import Pipeline, bundled_scenario_path
    from nisyn.scenario import load_scenario
    pipe = Pipeline(load_scenario(bundled_scenario_path()))
    systems = (pipe.closed_loop, pipe.uncertainty, pipe.interconnection)
    for bound in (sim._UNROLL_CHARS, -1):  # four copies, then one
        monkeypatch.setattr(sim, "_UNROLL_CHARS", bound)
        for system in systems:
            field = system._rhs_fn
            monkeypatch.setattr(field, "rk4", None)
            loop = sim._inlined_loop(field, len(system.state_names),
                                     len(system.input_names))
            assert _integer_powers_and_abs(loop) == []
    # the check finds both in a body that keeps ** and abs (one copy of it,
    # in the loop over the stages)
    field = _field(["x^3 + x^(1/3)"], ["x"])
    field.roots = ("((_x0)**3) + abs(_x0) ** 0.3333333333333333",)
    assert len(_integer_powers_and_abs(sim._inlined_loop(field, 1, 0))) == 2


@pytest.mark.parametrize("rhs", [
    _field(["x1"], ["x1", "x2"]),
    _field(["x1", "x2", "x1"], ["x1", "x2"]),
])
def test_a_field_with_the_wrong_number_of_values_is_a_value_error(rhs):
    with pytest.raises(ValueError):
        integrate(rhs, [1.0, 2.0], 1.0, 0.1)


@pytest.mark.parametrize("exprs, names, signal", [
    (["x1", "x2"], ["x1", "x2", "u1"], None),  # one variable too many
    (["x1", "x2"], ["x1", "x2"], step_signal([1.0])),  # one too few
    (["x1", "x2", "u1"], ["x1", "x2", "u1"], step_signal([1.0])),  # 3 values
    (["x1"], ["x1", "x2", "u1"], step_signal([1.0])),  # 1 value
])
def test_a_field_of_the_wrong_size_is_a_value_error_before_its_loop_is_built(
        exprs, names, signal):
    field = _field(exprs, names)
    with pytest.raises(ValueError, match="but the run has 2 states and"):
        integrate(field, [1.0, 2.0], 1.0, 0.1, input_fn=signal)
    assert field.rk4 is None


_RETRIED = [
    # 1/(1/x) is x on floats except at 0, where floats raise and numpy
    # scalars give 1/inf = 0: the first step is retried, the rest resumes
    (["(x^(-1))^(-1) + 1"], ["x"], [0.0], zero_signal(0)),
    (["(x1^(-1))^(-1) + u1", "x1 - x2^(1/3)"], ["x1", "x2", "u1"], [0.0, 0.5],
     multisine_signal([[0.3, 0.1]], [[0.5, 1.3]], seed=2)),
]


@pytest.mark.parametrize("exprs, names, x0, signal", _RETRIED)
def test_a_float_failure_retries_one_step_on_numpy_scalars_and_resumes(
        exprs, names, x0, signal):
    field = _field(exprs, names)
    input_fn = None if len(names) == len(x0) else signal
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        got = integrate(field, x0, 2.0, 0.1, input_fn=input_fn).states
    with np.errstate(divide="ignore"):
        want = _rk4_on_arrays(field, x0, 2.0, 0.1, signal)
    assert np.isfinite(want).all() and want[-1, 0] > 0.2  # x1 left 0
    assert got.tobytes() == want.tobytes()
    assert field.rk4 is not None


def _first_failure(field, x0, t_end, dt, bound):
    """(step, last good state) of the first state of the array-form RK4 run
    that is non-finite or whose norm exceeds ``bound``."""
    with np.errstate(all="ignore"):
        states = _rk4_on_arrays(field, x0, t_end, dt, zero_signal(0))
        norms = np.hypot.reduce(states, axis=1)
    step = int(np.flatnonzero(~np.isfinite(norms) | (norms > bound))[0])
    return step, states[step - 1]


_FAILURES = [
    (_field(["x^3 - x^3 + 1"], ["x"]), [1e120], 1.0, 0.1, np.inf,
     IntegrationError, 1),
    (_field(["x"], ["x"]), [1.0], 100.0, 0.1, 1e3, DivergenceError, 70),
    (_field(["x1", "2*x2"], ["x1", "x2"]), [1.0, -1.0], 100.0, 0.01, 1e5,
     DivergenceError, 576),
    # x reaches 0 exactly in the fourth stage of step 8: floats raise, and
    # the retry on numpy scalars gives inf - inf
    (_field(["x^(-1) - x^(-1) - 1"], ["x"]), [1.0], 2.0, 0.125, 1e6,
     IntegrationError, 8),
    (_field(["x^(-1/3) - x^(-1/3) - 1"], ["x"]), [1.0], 2.0, 0.125, np.inf,
     IntegrationError, 8),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rhs, x0, t_end, dt, bound, cls, step", _FAILURES)
def test_failures_keep_their_class_step_and_last_state(rhs, x0, t_end, dt, bound,
                                                       cls, step):
    with pytest.raises(IntegrationError) as err:
        integrate(rhs, x0, t_end, dt, blowup_norm=bound)
    assert type(err.value) is cls
    assert err.value.step == step
    want_step, want_state = _first_failure(rhs, x0, t_end, dt, bound)
    assert err.value.step == want_step
    assert err.value.last_state.tobytes() == want_state.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_loop_over_the_stages_passes_the_unrolled_loops_checks(example_cl,
                                                                   monkeypatch):
    """Every field built with one copy of its body in a loop over the stages,
    the form of a long body, through the checks of the four-copy form."""
    monkeypatch.setattr(sim, "_UNROLL_CHARS", -1)
    for case in _FAILURES:
        monkeypatch.setattr(case[0], "rk4", None)
        test_failures_keep_their_class_step_and_last_state(*case)
    monkeypatch.setattr(example_cl._rhs_fn, "rk4", None)
    test_list_loop_matches_the_array_loop_bit_for_bit(example_cl)
    for case in _GENERATED:
        test_generated_loop_matches_the_array_loop_bit_for_bit(*case)
    for case in _RETRIED:
        test_a_float_failure_retries_one_step_on_numpy_scalars_and_resumes(*case)
    assert example_cl._rhs_fn.rk4.__code__.co_varnames.count("passes") == 1


def test_an_overflowing_norm_of_finite_states_under_an_infinite_bound_runs_on():
    x0 = [1.5e308, 1.5e308]  # finite, but hypot(x0) is inf
    rhs = _zero_field(2)
    traj = integrate(rhs, x0, 1.0, 0.1, blowup_norm=np.inf)
    assert traj.states.shape == (11, 2)
    assert np.all(traj.states == np.array(x0))
    with pytest.raises(DivergenceError) as err:
        integrate(rhs, x0, 1.0, 0.1)
    assert err.value.step == 1


def test_a_body_longer_than_the_bound_runs_in_a_loop_over_the_stages(monkeypatch):
    field = _field(["x2", "-x1 - x2^3 + x1^(1/3)*u1"], ["x1", "x2", "u1"])
    size = sum(map(len, field.body + field.roots))
    for bound, copies in ((size, 4), (size - 1, 1)):
        monkeypatch.setattr(sim, "_UNROLL_CHARS", bound)
        monkeypatch.setattr(field, "rk4", None)
        integrate(field, [1.0, 0.0], 0.5, 0.1, input_fn=step_signal([0.5]))
        # x1^(1/3) compares its base with 0 once in each copy of the body
        signs = [i for i in dis.get_instructions(field.rk4)
                 if i.opname == "COMPARE_OP" and i.argrepr == "<"]
        assert len(signs) == copies


def test_a_field_builds_its_loop_once_and_shares_it_with_no_other_field(monkeypatch):
    a = _field(["-x1 + u1", "x1 - x2"], ["x1", "x2", "u1"])
    signal = step_signal([0.5])
    first = integrate(a, [1.0, 0.0], 0.5, 0.1, input_fn=signal).states
    loop = a.rk4
    assert loop is not None
    monkeypatch.setattr(sim, "compile", None, raising=False)  # a build would fail
    again = integrate(a, [1.0, 0.0], 0.5, 0.1, input_fn=signal).states
    assert a.rk4 is loop and again.tobytes() == first.tobytes()
    monkeypatch.undo()
    b = _field(["x2", "-x1 - x2^3 + u1"], ["x1", "x2", "u1"])
    integrate(b, [1.0, 0.0], 0.5, 0.1, input_fn=signal)
    assert b.rk4 is not loop  # no loop is shared across fields


@pytest.mark.parametrize("exprs, names, x0, signal", _RETRIED)
def test_a_redone_step_resumes_the_loop_on_python_floats(monkeypatch, exprs,
                                                         names, x0, signal):
    field = _field(exprs, names)
    input_fn = None if len(names) == len(x0) else signal
    sim._inlined_loop(field, len(x0), len(names) - len(x0))
    loop, resumed = field.rk4, []

    def spy(states, inputs, x, k0, *rest):
        if k0 > 0:
            resumed.append((k0, {type(v) for v in x}))
        return loop(states, inputs, x, k0, *rest)

    monkeypatch.setattr(field, "rk4", spy)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        integrate(field, x0, 2.0, 0.1, input_fn=input_fn)
    assert resumed == [(1, {float})]


def test_a_step_redone_after_the_first_resumes_on_python_floats(monkeypatch):
    """x' = 1 + (x^(-1))^(-1) - x is 1 on floats except at x = 0, where
    floats raise: from some multiple of -dt a stage reaches 0 exactly in a
    step k >= 1, which is redone, and the loop resumes at k + 1."""
    dt, n_steps = 0.1, 20
    field = _field(["1 + (x^(-1))^(-1) - x"], ["x"])
    loop, calls = sim._inlined_loop(field, 1, 0), []

    def spy(states, inputs, x, k0, *rest):
        k, out = loop(states, inputs, x, k0, *rest)
        calls.append((k0, {type(v) for v in x}, k, out is None))
        return k, out

    monkeypatch.setattr(field, "rk4", spy)
    for j in range(1, 20):
        calls.clear()
        x0 = [-j * dt]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always", RuntimeWarning)
            got = integrate(field, x0, n_steps * dt, dt).states
        _, _, k, raised = calls[0]
        if raised and k >= 1:
            break
    else:
        pytest.fail("no x0 on the grid reaches 0 in a step after the first")
    assert any("divide by zero" in str(w.message) for w in record)
    # a state that lands on 0 makes the next step raise too
    assert (k + 1, {float}) in [call[:2] for call in calls]
    assert calls[-1][1:] == ({float}, n_steps, False)
    with np.errstate(divide="ignore"):
        want = _rk4_on_arrays(field, x0, n_steps * dt, dt, zero_signal(0))
    assert np.isfinite(want).all()
    assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_redone_step_reads_its_input_as_a_numpy_scalar():
    """u1 = 0 makes u1^(-1) raise on floats; the redo reads u1 from the
    float64 array, so it gives inf, not a second ZeroDivisionError."""
    field = _field(["-x + u1^(-1)"], ["x", "u1"])
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        with pytest.raises(IntegrationError, match="non-finite") as err:
            integrate(field, [1.0], 1.0, 0.1, input_fn=zero_signal(1))
    assert type(err.value) is IntegrationError
    assert err.value.step == 1
    assert err.value.last_state.tolist() == [1.0]


@pytest.mark.parametrize("x0, signal, error", [
    (X0[:3], None, "ClosedLoopSystem takes a point (4,) or a stack (N, 4) of "
                   "states, got shape (3,)"),
    (np.zeros((2, 4)), None, "x0 must be one state (n,), got shape (2, 4)"),
    (X0, step_signal([0.1, 0.1, 0.1]),
     "the field maps 6 values to 4, but the run has 4 states and 3 inputs"),
])
def test_simulate_closed_loop_checks_lengths_first(example_cl, x0, signal, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        simulate_closed_loop(example_cl, x0, 0.1, 1e-2, signal=signal)


@pytest.mark.parametrize("xs0, signal, error", [
    ([0.0, 0.0, 0.0], None,
     "OsniUncertainty takes a point (2,) or a stack (N, 2) of states, got "
     "shape (3,)"),
    ([0.0, 0.0], step_signal([0.1]),
     "the field maps 4 values to 2, but the run has 2 states and 1 inputs"),
])
def test_simulate_uncertainty_checks_lengths_first(xs0, signal, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        simulate_uncertainty(_example_unc(), xs0, 0.1, 1e-2, signal=signal)


@pytest.mark.parametrize("x0, xs0, error", [
    (X0[:3], [0.0, 0.0],
     "Interconnection takes the loop's 4 states first, got shape (3,)"),
    (X0, [0.0],
     "Interconnection takes a point (6,) or a stack (N, 6) of states, got "
     "shape (5,)"),
    (X0[:3], [0.0, 0.0, 0.0],  # the joint width, split 3 + 3
     "Interconnection takes the loop's 4 states first, got shape (3,)"),
])
def test_simulate_interconnection_checks_lengths_first(example_cl, x0, xs0, error):
    ic = Interconnection(example_cl, _example_unc())
    with pytest.raises(ValueError, match=re.escape(error)):
        simulate_interconnection(ic, x0, xs0, 0.1, 1e-2)


def test_every_entry_point_refuses_a_wrong_width(example_cl):
    unc = _example_unc()
    for system in (example_cl, unc, Interconnection(example_cl, unc)):
        n, p = len(system.state_names), len(system.input_names)
        name = type(system).__name__

        def takes(k, what, shape):
            return re.escape(f"{name} takes a point ({k},) or a stack (N, {k}) "
                             f"of {what}, got shape {shape}")

        for bad in (np.zeros(n - 1), np.zeros((3, n + 1))):
            for method in (system.storage, system.output, system.rhs):
                with pytest.raises(ValueError, match=takes(n, "states", bad.shape)):
                    method(bad)
        # one input too many, at a point and on a stack
        for x in (np.zeros(n), np.zeros((3, n))):
            u = np.zeros(x.shape[:-1] + (p + 1,))
            with pytest.raises(ValueError, match=takes(
                    n + p, "states and inputs", x.shape[:-1] + (n + p + 1,))):
                system.rhs(x, u)
        # a run checks the widths of its initial state and of its stack of
        # inputs before the first step
        with pytest.raises(ValueError, match=takes(n, "states", (n - 1,))):
            simulate(system, np.zeros(n - 1), 0.1, 1e-2)
        with pytest.raises(ValueError, match=re.escape(
                f"the field maps {n + p} values to {n}, but the run has "
                f"{n} states and {p + 1} inputs")):
            simulate(system, np.zeros(n), 0.1, 1e-2, signal=zero_signal(p + 1))
        with pytest.raises(ValueError, match=re.escape(
                f"x0 must be one state (n,), got shape (2, {n})")):
            simulate(system, np.zeros((2, n)), 0.1, 1e-2)


# --- one simulate and one residual for every Dissipative system ----------------

def _bundled_pipeline():
    from nisyn.cli import Pipeline, bundled_scenario_path
    from nisyn.scenario import load_scenario
    return Pipeline(load_scenario(bundled_scenario_path()))


def _catalog_multisine(pipe):
    spec = next(s for s in pipe.scn.verification.input_signals
                if s["kind"] == "multisine")
    return signal_from_spec(spec, 2, pipe.scn.simulation.seed)


def _rate(values, dt):
    return np.gradient(values, dt, axis=0, edge_order=2)


def test_each_residual_is_its_former_formula_bit_for_bit():
    """The bundled loop under the catalog multisine, its uncertainty and
    their interconnection: simulate's one residual equals, bit for bit, the
    formula that each system had of its own, recomputed from the records."""
    pipe = _bundled_pipeline()
    cl, unc, signal = pipe.closed_loop, pipe.uncertainty, _catalog_multisine(pipe)
    xs0 = pipe.scn.uncertainty.x_sigma0
    runs = [(simulate_closed_loop(cl, pipe.x0, 2.0, 1e-3, signal=signal), cl.epsilon),
            (simulate_uncertainty(unc, xs0, 2.0, 1e-3, signal=signal),
             unc.epsilon_sigma)]
    for traj, epsilon in runs:
        vdot, ydot = _rate(traj.V, traj.dt), _rate(traj.outputs, traj.dt)
        want = (vdot - np.sum(traj.inputs * ydot, axis=1)
                + epsilon * np.sum(ydot * ydot, axis=1))
        assert np.array_equal(traj.residual, want)
    m, p = cl.plant.m, cl.plant.n_outputs
    assert np.array_equal(runs[0][0].outputs, runs[0][0].states[:, m:m + p])
    traj = simulate_interconnection(pipe.interconnection, pipe.x0, xs0, 2.0, 1e-3)
    wdot = _rate(traj.W, traj.dt)
    ydot, hdot = _rate(traj.outputs, traj.dt), _rate(traj.inputs, traj.dt)
    want = (wdot + cl.epsilon * np.sum(ydot * ydot, axis=1)
            + unc.epsilon_sigma * np.sum(hdot * hdot, axis=1))
    assert np.array_equal(traj.residual, want)


def _gradient_template():
    """xs' = -grad Vs + us, ys = xs with Vs = xs1^2/2 + xs1^4/4 + xs2^2: OSNI
    with eps_s = 1 identically, since Vs' - us.ys' + |ys'|^2 =
    grad.(us - grad) - us.(us - grad) + |us - grad|^2 = 0."""
    return OsniUncertainty(
        n_sigma=2,
        f_sigma=(parse_expr("-xs1 - xs1^3 + us1", XS + US),
                 parse_expr("-2*xs2 + us2", XS + US)),
        h_sigma=(parse_expr("xs1", XS), parse_expr("xs2", XS)),
        v_sigma=parse_expr("1/2*xs1^2 + 1/4*xs1^4 + xs2^2", XS),
        epsilon_sigma=1.0,
    )


@pytest.mark.parametrize("signal, order, bound", [
    # a zero-order-hold input changes by O(dt) at each sample, which a
    # central difference straddles: first order
    ("multisine", 1, 0.2),
    # under a constant input the differences are second order
    ("step", 2, 5.0),
])
def test_the_gradient_template_residual_is_finite_difference_error(signal,
                                                                   order, bound):
    unc = _gradient_template()
    u = (_catalog_multisine(_bundled_pipeline()) if signal == "multisine"
         else step_signal([0.2, 0.2]))
    peaks = []
    for dt in (2e-3, 1e-3):
        traj = sim.simulate(unc, [0.5, -0.5], 5.0, dt, signal=u)
        peaks.append(float(np.abs(traj.residual).max()))
        assert peaks[-1] <= bound * dt ** order
    assert 0.9 * 2 ** order <= peaks[0] / peaks[1] <= 1.1 * 2 ** order


def test_the_gradient_template_identity_in_sympy():
    sp = pytest.importorskip("sympy")
    from test_expr import _to_sympy
    unc = _gradient_template()
    xs = [sp.Symbol(n, real=True) for n in XS]
    us = [sp.Symbol(n, real=True) for n in US]
    f = [_to_sympy(e, sp) for e in unc.f_sigma]
    vs = _to_sympy(unc.v_sigma, sp)
    ydot = [sum(sp.diff(_to_sympy(h, sp), x) * fi for x, fi in zip(xs, f))
            for h in unc.h_sigma]
    residual = (sum(sp.diff(vs, x) * fi for x, fi in zip(xs, f))
                - sum(u * yd for u, yd in zip(us, ydot))
                + unc.epsilon_sigma * sum(yd ** 2 for yd in ydot))
    assert sp.expand(residual) == 0


@pytest.mark.parametrize("t_end, samples", [(0.0014, 2), (0.001, 2)])
def test_simulate_needs_three_samples_for_the_residual(example_cl, t_end, samples):
    with pytest.raises(ValueError) as err:
        sim.simulate(example_cl, X0, t_end, 1e-3)
    assert str(err.value) == (
        f"t_end = {t_end!r} with dt = 0.001 gives {samples} samples, but the "
        "finite-difference residual needs at least 3")
    assert sim.simulate(example_cl, X0, 0.002, 1e-3).n_samples == 3


# --- closed-loop / uncertainty / interconnection simulation -------------------

def test_closed_loop_zero_input_dissipation(example_cl):
    traj = simulate_closed_loop(example_cl, X0, 10.0, 1e-3)
    rep = check_dissipation(traj, epsilon=example_cl.epsilon, tol=1e-3)
    assert rep.osni_pass and rep.ni_pass
    assert rep.max_residual_osni <= 1e-3


def test_closed_loop_multisine_dissipation(example_cl):
    sig = multisine_signal([[0.2, 0.1], [0.2, 0.1]],
                           [[0.4, 0.9], [0.4, 0.9]], seed=7)
    traj = simulate_closed_loop(example_cl, X0, 10.0, 1e-3, signal=sig)
    rep = check_dissipation(traj, epsilon=1.0, tol=1e-3)
    assert rep.osni_pass
    # equality-tight storage: NI residual is negative but close to zero
    assert rep.max_residual_ni <= 0.0


def test_uncertainty_dissipation():
    unc = _example_unc()
    sig = step_signal([0.2, 0.2])
    traj = simulate_uncertainty(unc, np.zeros(2), 10.0, 1e-3, signal=sig)
    rep = check_dissipation(traj, epsilon=1.0, tol=1e-3)
    assert rep.osni_pass


def test_interconnection_w_decrease(example_cl):
    ic = Interconnection(example_cl, _example_unc())
    traj = simulate_interconnection(ic, X0, np.zeros(2), 10.0, 1e-3)
    rep = check_w_decrease(traj, tol=1e-2)
    assert rep.passed and rep.monotone
    assert rep.w_end <= rep.w_start
    assert rep.max_strong_residual <= 1e-3
    # composite storage stays nonnegative along the run
    assert traj.W.min() >= -1e-12


def test_w_decrease_needs_recorded_w(example_cl):
    # a closed-loop run carries V but no composite storage W
    traj = simulate_closed_loop(example_cl, X0, 0.1, 1e-3)
    with pytest.raises(ValueError, match="simulate_interconnection"):
        check_w_decrease(traj, tol=1e-2)


def test_interconnection_zero_state(example_cl):
    ic = Interconnection(example_cl, _example_unc())
    traj = simulate_interconnection(ic, np.zeros(4), np.zeros(2), 1.0, 1e-3)
    rep = check_w_decrease(traj, tol=1e-6)
    assert rep.passed
    assert abs(rep.max_wdot) <= 1e-9


def test_mutation_flipped_uncertainty_output_fails_w_decrease(example_cl):
    # flipping the sign of the uncertainty output breaks the cross-term
    # cancellation in the composite storage rate
    flipped = OsniUncertainty(
        n_sigma=2,
        f_sigma=(parse_expr("-xs1^3+us1", XS + US),
                 parse_expr("-xs2+us2", XS + US)),
        h_sigma=(parse_expr("-xs1", XS), parse_expr("-xs2", XS)),
        v_sigma=parse_expr("1/4*xs1^4+1/2*xs2^2", XS),
        epsilon_sigma=1.0,
    )
    ic = Interconnection(example_cl, flipped)
    traj = simulate_interconnection(ic, X0, np.zeros(2), 10.0, 1e-3)
    rep = check_w_decrease(traj, tol=1e-2)
    assert not rep.passed
    assert rep.max_wdot > 0.1


def test_mutation_dropped_damping_fails_osni(example_plant):
    # synthesizing with lambda = 0 drops the damping term; the OSNI check
    # at epsilon = 1 must then fail while the NI check still passes
    v2 = parse_expr("xi1^(4/3)+xi2^2", ["xi1", "xi2"])
    cl0 = synthesize(example_plant, SynthesisSpec([[1.0]], v2, lam=0.0))
    traj = simulate_closed_loop(cl0, X0, 10.0, 1e-3)
    rep = check_dissipation(traj, epsilon=1.0, tol=1e-3)
    assert not rep.osni_pass
    assert rep.ni_pass


def test_mutation_sign_flip_fails_ni(example_cl, example_plant):
    # flipping the sign of the gradient feedback destroys the NI property
    from nisyn.expr import Neg, fold_constants
    from nisyn.synthesis import ClosedLoopSystem

    flipped = ClosedLoopSystem(
        plant=example_plant,
        spec=example_cl.spec,
        storage_expr=example_cl.storage_expr,
        grad_xi1=example_cl.grad_xi1,
        grad_xi2=example_cl.grad_xi2,
        u1_laws=tuple(fold_constants(Neg(e)) for e in example_cl.u1_laws),
        u2_laws=example_cl.u2_laws,
        epsilon=example_cl.epsilon,
    )
    traj = simulate_closed_loop(flipped, X0, 0.05, 1e-3)
    rep = check_dissipation(traj, epsilon=0.0, tol=1e-3)
    assert not rep.ni_pass
    assert rep.max_residual_ni > 1.0


def test_residual_tolerance_scales_with_dt(example_cl):
    # a passing scenario stays passing at dt/10 with a five-fold tighter bound
    for dt, tol in ((1e-3, 1e-3), (1e-4, 2e-4)):
        traj = simulate_closed_loop(example_cl, X0, 2.0, dt)
        rep = check_dissipation(traj, epsilon=1.0, tol=tol)
        assert rep.osni_pass


def test_check_dissipation_short_trajectory(example_cl):
    traj = simulate_closed_loop(example_cl, X0, 2e-3, 1e-3)
    assert traj.n_samples == 3
    with pytest.raises(ValueError):
        check_dissipation(
            Trajectory(t=traj.t[:2], states=traj.states[:2], inputs=traj.inputs[:2],
                       state_names=traj.state_names, input_names=traj.input_names,
                       outputs=traj.outputs[:2], V=traj.V[:2]),
            1.0, 1e-3)


# --- convergence metrics -------------------------------------------------------

def test_convergence_zero_trajectory():
    traj = integrate(_zero_field(3), np.zeros(3), 1.0, 0.1)
    m = convergence_metrics(traj, threshold=0.05, window=0.5)
    assert m.final_norm == 0.0
    assert m.settled_time == 0.0


def test_convergence_exponential_settle_time():
    traj = integrate(_DECAY, [1.0], 10.0, 1e-3)
    threshold = 0.01
    m = convergence_metrics(traj, threshold=threshold, window=1.0)
    assert m.settled_time == pytest.approx(math.log(1.0 / threshold), abs=2e-3)
    assert m.final_norm == pytest.approx(math.exp(-10.0), rel=1e-6)


def test_convergence_never_settles():
    traj = integrate(_zero_field(1), [1.0], 1.0, 0.1)
    m = convergence_metrics(traj, threshold=0.5, window=0.5)
    assert m.settled_time is None


def _settled_by_slices(traj, threshold, window):
    """The settle search as a loop of window slices: the reference."""
    below = np.linalg.norm(traj.states, axis=1) < threshold
    w_steps = int(round(window / traj.dt))
    for i in range(len(below) - w_steps):
        if below[i:i + w_steps + 1].all():
            return float(traj.t[i])
    return None


def test_settle_search_matches_the_slice_loop_on_random_runs():
    rng = np.random.default_rng(11)
    dt = 0.1
    for _ in range(200):
        n = int(rng.integers(2, 40))
        p_below = rng.choice([0.3, 0.8, 0.97, 1.0])
        norms = np.where(rng.random(n) < p_below, 0.0, 1.0)
        traj = Trajectory(t=np.arange(n) * dt, states=norms[:, None],
                          inputs=np.zeros((n, 0)), state_names=("x1",),
                          input_names=())
        for w_steps in {0, 1, int(rng.integers(0, n)), n - 1, n, n + 1, 3 * n}:
            window = w_steps * dt
            got = convergence_metrics(traj, 0.5, window).settled_time
            assert got == _settled_by_slices(traj, 0.5, window)


def test_convergence_window_longer_than_any_run_never_settles():
    traj = integrate(_zero_field(2), np.zeros(2), 1.0, 0.1)
    assert convergence_metrics(traj, 0.5, 1.0).settled_time == 0.0
    for window in (1.1, 1e300, math.inf):
        assert convergence_metrics(traj, 0.5, window).settled_time is None


@pytest.mark.parametrize("window", [-1.0, -0.01, math.nan])
def test_convergence_rejects_a_negative_window(window):
    traj = integrate(_zero_field(2), np.zeros(2), 1.0, 0.1)
    with pytest.raises(ValueError, match="window must be at least 0"):
        convergence_metrics(traj, 0.5, window)


# --- signals -------------------------------------------------------------------

def test_signal_catalog_shapes():
    for spec in ({"kind": "zero"},
                 {"kind": "step", "amplitude": [0.1, -0.2]},
                 {"kind": "multisine", "amplitudes": [[0.1], [0.1]],
                  "frequencies": [[0.5], [0.7]], "seed": 3},
                 {"kind": "bandlimited", "amplitude": 0.2, "cutoff": 1.0,
                  "components": 4, "seed": 9}):
        sig = signal_from_spec(spec, p=2)
        out = sig(0.3)
        assert out.shape == (2,)


def test_signal_determinism():
    a = multisine_signal([[0.1, 0.2]], [[0.3, 0.9]], seed=11)
    b = multisine_signal([[0.1, 0.2]], [[0.3, 0.9]], seed=11)
    ts = np.linspace(0, 5, 50)
    assert all(a(t) == b(t) for t in ts)
    c = bandlimited_signal(2, 0.5, 2.0, 6, seed=4)
    d = bandlimited_signal(2, 0.5, 2.0, 6, seed=4)
    assert all(np.array_equal(c(t), d(t)) for t in ts)


def _grid_signals():
    yield "zero", zero_signal(3)
    yield "step on a grid point", step_signal([0.2, -0.3], start_time=2.5)
    yield "step between grid points", step_signal([0.2, -0.3], start_time=2.5005)
    rng = np.random.default_rng(5)
    for c in (2, 8, 10):  # 8 and up reach numpy's pairwise-sum block
        yield f"multisine {c}", multisine_signal(
            rng.uniform(0.0, 0.3, (2, c)), rng.uniform(0.1, 2.0, (2, c)), seed=c)
        yield f"bandlimited {c}", bandlimited_signal(3, 0.2, 1.5, c, seed=c)


@pytest.mark.parametrize("name, signal", list(_grid_signals()))
def test_signal_on_the_grid_matches_its_scalar_calls_bit_for_bit(name, signal):
    dt = 1e-3
    grid = signal(np.arange(10001) * dt)
    scalar = np.array([signal(k * dt) for k in range(10001)])
    assert grid.shape == scalar.shape == (10001, scalar.shape[1])
    assert grid.tobytes() == scalar.tobytes()


def test_step_switches_at_its_start_time():
    t = np.array([2.499, 2.5, 2.5005, 2.501])
    assert step_signal([1.0], 2.5)(t)[:, 0].tolist() == [0.0, 1.0, 1.0, 1.0]
    assert step_signal([1.0], 2.5005)(t)[:, 0].tolist() == [0.0, 0.0, 1.0, 1.0]


def test_signal_spec_validation():
    for spec in ({"kind": "nope"}, {"kind": ["step"]}, 3, {"amplitude": [0.1]}):
        with pytest.raises(ScenarioError, match=re.escape(
                "an input signal must be a JSON object whose 'kind' is one of "
                f"('zero', 'step', 'multisine', 'bandlimited'), got {spec!r}")):
            signal_from_spec(spec, p=2)
    with pytest.raises(ScenarioError, match=re.escape(
            "step signal block is missing required field 'amplitude'")):
        signal_from_spec({"kind": "step"}, p=2)
    with pytest.raises(ScenarioError, match=re.escape(
            "field 'amplitudes' of the multisine signal block must be a list "
            "of 2 equal-length rows of numbers, got [[0.1]]")):
        signal_from_spec({"kind": "multisine", "amplitudes": [[0.1]],
                          "frequencies": [[0.5]]}, p=2)


_BANDLIMITED = {"kind": "bandlimited", "amplitude": 0.2, "cutoff": 1.0,
                "components": 4, "seed": 9}
_IN_BANDLIMITED = "of the bandlimited signal block"


@pytest.mark.parametrize("overrides, message", [
    ({"components": 0}, f"field 'components' {_IN_BANDLIMITED} must be at least 1, "
                        "got 0"),
    ({"components": -3}, f"field 'components' {_IN_BANDLIMITED} must be at least "
                         "1, got -3"),
    ({"components": 2.5}, "field 'components' must be an integer, got 2.5"),
    ({"components": True}, "field 'components' must be an integer, got True"),
    ({"seed": 1.5}, "field 'seed' must be an integer, got 1.5"),
    ({"seed": False}, "field 'seed' must be an integer, got False"),
    ({"seed": -1}, f"field 'seed' {_IN_BANDLIMITED} must be at least 0, got -1"),
    ({"cutoff": float("nan")},
     f"field 'cutoff' {_IN_BANDLIMITED} must be a finite number, got nan"),
    ({"cutoff": float("inf")},
     f"field 'cutoff' {_IN_BANDLIMITED} must be a finite number, got inf"),
    ({"cutoff": 0.0}, f"field 'cutoff' {_IN_BANDLIMITED} must be positive, got 0.0"),
    ({"cutoff": -1.0}, f"field 'cutoff' {_IN_BANDLIMITED} must be positive, "
                       "got -1.0"),
    ({"cutoff": "1.0"}, "field 'cutoff' must be a number, got '1.0'"),
    ({"amplitude": float("nan")},
     f"field 'amplitude' {_IN_BANDLIMITED} must be a finite number, got nan"),
    ({"amplitude": float("-inf")},
     f"field 'amplitude' {_IN_BANDLIMITED} must be a finite number, got -inf"),
])
def test_bandlimited_spec_rejects_bad_fields(overrides, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        signal_from_spec({**_BANDLIMITED, **overrides}, p=2)


_STEP = {"kind": "step", "amplitude": [0.2, -0.1], "start_time": 0.5}
_MULTISINE = {"kind": "multisine", "amplitudes": [[0.1, 0.2], [0.1, 0.2]],
              "frequencies": [[0.5, 0.9], [0.7, 1.1]], "seed": 3}
_IN_STEP = "of the step signal block"
_IN_MULTISINE = "of the multisine signal block"


@pytest.mark.parametrize("spec, message", [
    ({**_STEP, "start_time": float("nan")},
     f"field 'start_time' {_IN_STEP} must be a finite number, got nan"),
    ({**_STEP, "start_time": float("inf")},
     f"field 'start_time' {_IN_STEP} must be a finite number, got inf"),
    ({**_STEP, "start_time": "soon"},
     "field 'start_time' must be a number, got 'soon'"),
    ({**_STEP, "start_time": None}, "field 'start_time' must be a number, got None"),
    ({**_STEP, "start_time": 10 ** 400},
     f"field 'start_time' {_IN_STEP} must be a finite number, got an int too "
     "large to convert to float"),
    ({**_STEP, "amplitude": [0.2, float("nan")]},
     f"field 'amplitude' {_IN_STEP} must hold finite numbers, got [0.2, nan]"),
    ({**_STEP, "amplitude": [0.2]},
     f"field 'amplitude' {_IN_STEP} must be a list of 2 numbers, got [0.2]"),
    ({**_STEP, "amplitude": 0.2}, "field 'amplitude' must be a JSON array, got 0.2"),
    ({**_STEP, "amplitude": [[0.2], [0.1]]},
     f"field 'amplitude' {_IN_STEP} must be a list of numbers, got [[0.2], [0.1]]"),
    ({**_STEP, "amplitude": [0.2, True]},
     f"field 'amplitude' {_IN_STEP} must be a list of numbers, got [0.2, True]"),
    ({**_STEP, "amplitude": [0.2, 10 ** 400]},
     f"field 'amplitude' {_IN_STEP} must hold finite numbers, got an int too "
     "large to convert to float"),
    ({**_MULTISINE, "amplitudes": [[0.1, float("nan")], [0.1, 0.2]]},
     f"field 'amplitudes' {_IN_MULTISINE} must hold finite numbers, "
     "got [[0.1, nan], [0.1, 0.2]]"),
    ({**_MULTISINE, "frequencies": [[0.5, 0.9], [float("inf"), 1.1]]},
     f"field 'frequencies' {_IN_MULTISINE} must hold finite numbers, "
     "got [[0.5, 0.9], [inf, 1.1]]"),
    ({**_MULTISINE, "amplitudes": [[0.1, 0.2], [0.1]]},
     f"field 'amplitudes' {_IN_MULTISINE} must be a list of equal-length rows "
     "of numbers, got [[0.1, 0.2], [0.1]]"),
    ({**_MULTISINE, "amplitudes": [0.1, 0.2]},
     f"field 'amplitudes' {_IN_MULTISINE} must be a list of equal-length rows "
     "of numbers, got [0.1, 0.2]"),
    ({**_MULTISINE, "frequencies": [["0.5", 0.9], [0.7, 1.1]]},
     f"field 'frequencies' {_IN_MULTISINE} must be a list of equal-length rows "
     "of numbers, got [['0.5', 0.9], [0.7, 1.1]]"),
    ({**_MULTISINE, "frequencies": [[0.5, 0.9, 1.3], [0.7, 1.1, 1.3]]},
     f"field 'frequencies' {_IN_MULTISINE} must be a list of 2 rows of 2 "
     "numbers, got [[0.5, 0.9, 1.3], [0.7, 1.1, 1.3]]"),
    ({"kind": "multisine", "frequencies": [[0.5], [0.7]]},
     "multisine signal block is missing required field 'amplitudes'"),
])
def test_step_and_multisine_specs_reject_bad_fields(spec, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        signal_from_spec(spec, p=2)


def test_step_and_multisine_specs_build_their_signals():
    t = np.linspace(0.0, 3.0, 7)
    assert signal_from_spec(_STEP, p=2)(t).tobytes() == \
        step_signal([0.2, -0.1], 0.5)(t).tobytes()
    assert signal_from_spec({**_STEP, "start_time": 1}, p=2)(t).tobytes() == \
        step_signal([0.2, -0.1], 1.0)(t).tobytes()
    assert signal_from_spec(_MULTISINE, p=2)(t).tobytes() == multisine_signal(
        _MULTISINE["amplitudes"], _MULTISINE["frequencies"], seed=3)(t).tobytes()


def test_multisine_spec_seed_is_an_integer():
    spec = {"kind": "multisine", "amplitudes": [[0.1], [0.1]],
            "frequencies": [[0.5], [0.7]]}
    with pytest.raises(ScenarioError, match=re.escape(
            "field 'seed' must be an integer, got 1.5")):
        signal_from_spec({**spec, "seed": 1.5}, p=2)
    t = np.linspace(0.0, 3.0, 7)
    assert np.array_equal(signal_from_spec({**spec, "seed": 3.0}, p=2)(t),
                          signal_from_spec({**spec, "seed": 3}, p=2)(t))
    assert np.array_equal(signal_from_spec(spec, p=2, default_seed=3)(t),
                          signal_from_spec({**spec, "seed": 3}, p=2)(t))
    # a null seed is the default seed too
    assert np.array_equal(signal_from_spec({**spec, "seed": None}, p=2,
                                           default_seed=3)(t),
                          signal_from_spec({**spec, "seed": 3}, p=2)(t))


def test_bandlimited_spec_accepts_integral_floats():
    t = np.linspace(0.0, 3.0, 7)
    want = signal_from_spec(_BANDLIMITED, p=2)(t)
    got = signal_from_spec({**_BANDLIMITED, "components": 4.0, "seed": 9.0,
                            "cutoff": 1}, p=2)(t)
    assert got.tobytes() == want.tobytes()
    assert np.any(want != 0.0)


# --- CSV export ------------------------------------------------------------------

def test_csv_export_and_determinism(tmp_path, example_cl):
    traj = simulate_closed_loop(example_cl, X0, 0.1, 1e-2)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_trajectory_csv(traj, path_a)
    traj2 = simulate_closed_loop(example_cl, X0, 0.1, 1e-2)
    write_trajectory_csv(traj2, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text().splitlines()[0]
    assert header == "t,z1,xi1,xi2,xi3,v1,v2,V,residual"


def test_csv_round_trip_values(tmp_path, example_cl):
    traj = simulate_closed_loop(example_cl, X0, 0.05, 1e-2)
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    rows = path.read_text().splitlines()[1:]
    parsed = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert parsed[:, 1:5] == pytest.approx(traj.states)  # exact repr round-trip
    assert np.all(parsed[:, 1:5] == traj.states)


def test_write_columns_csv_bytes(tmp_path):
    path = tmp_path / "c.csv"
    write_columns_csv(path, ["t", "a", "b"],
                      [np.array([0.0, 0.1]), np.array([[1 / 3, -2.0], [1e-20, 5.0]])])
    assert path.read_bytes() == (b"t,a,b\r\n0.0,0.3333333333333333,-2.0\r\n"
                                 b"0.1,1e-20,5.0\r\n")


def _csv_writer_reference(path, header, columns):
    """The row-at-a-time csv.writer export the block writer must equal."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.column_stack(columns):
            writer.writerow([repr(v) for v in row.tolist()])


@pytest.mark.parametrize("n_rows", [0, 1, 255, 256, 257, 1025, 2500])
def test_write_columns_csv_matches_csv_writer_bytes(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-300, 5e-324, -5e-324,
               1.7976931348623157e308, 1 / 3, -2.0, 1e16, 123456789.125]
    scale = 10.0 ** rng.integers(-20, 20, (n_rows, 3))
    values = rng.standard_normal((n_rows, 3)) * scale
    flat = values.reshape(-1)
    flat[:len(special)] = special[:flat.size]
    header = ["t", "a", "b,c", 'd"e']
    columns = [np.arange(n_rows) * 1e-3, values]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_columns_csv(got, header, columns)
    _csv_writer_reference(want, header, columns)
    assert got.read_bytes() == want.read_bytes()


def test_csv_interconnection_header(tmp_path, example_cl):
    ic = Interconnection(example_cl, _example_unc())
    traj = simulate_interconnection(ic, X0, np.zeros(2), 0.1, 1e-2)
    path = tmp_path / "ic.csv"
    write_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,z1,xi1,xi2,xi3,xs1,xs2,w1,w2,V,W,Vsigma,residual"


def test_zero_run_identically_zero_csv(tmp_path, example_cl):
    traj = simulate_closed_loop(example_cl, np.zeros(4), 0.05, 1e-2)
    path = tmp_path / "z.csv"
    write_trajectory_csv(traj, path)
    body = path.read_text().splitlines()[1:]
    for row in body:
        for value in row.split(",")[1:]:
            assert float(value) == 0.0


def test_check_dissipation_reads_the_recorded_storage(example_cl):
    from dataclasses import replace

    traj = simulate_closed_loop(example_cl, X0, 0.5, 1e-2)
    rep = check_dissipation(traj, epsilon=1.0, tol=1e-3)
    assert rep.osni_pass and rep.ni_pass
    # the OSNI residual at the loop's own epsilon is the one simulate recorded
    assert rep.max_residual_osni == traj.residual.max()
    # a V record that rises by 100 t adds 100 to V' at every sample
    edited = check_dissipation(replace(traj, V=traj.V + 100.0 * traj.t),
                               epsilon=1.0, tol=1e-3)
    assert not edited.osni_pass and not edited.ni_pass
    assert edited.max_residual_ni == pytest.approx(rep.max_residual_ni + 100.0)
    with pytest.raises(ValueError, match="no recorded storage V"):
        check_dissipation(replace(traj, V=None), epsilon=1.0, tol=1e-3)


def test_check_dissipation_takes_each_weights_residual_bit_for_bit(example_cl):
    from dataclasses import replace

    traj = simulate_closed_loop(example_cl, X0, 0.5, 1e-2)
    n, width = traj.n_samples, traj.outputs.shape[1]
    nan_v = traj.V.copy()
    nan_v[5] = np.nan
    # V falls everywhere but at sample k, where V' = (-0.0 - 0.0) / (2 dt);
    # with zero outputs the NI residual's maximum is then -0.0 + 0.0 * 0.0
    k = n // 2
    zero_v = (k - np.arange(n)) * 1.0
    zero_v[k - 1], zero_v[k + 1] = 0.0, -0.0
    cases = (traj, replace(traj, V=nan_v),
             replace(traj, V=zero_v, outputs=np.zeros_like(traj.outputs)),
             replace(traj, outputs=np.full_like(traj.outputs, np.inf)))
    got, want = [], []
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf
        for edited in cases:
            rep = check_dissipation(edited, epsilon=0.7, tol=1e-3)
            got += [rep.max_residual_ni, rep.max_residual_osni]
            want += [sim._dissipation_residual(
                edited.t, edited.V, edited.inputs, edited.outputs,
                ((width, w),)).max() for w in (0.0, 0.7)]
    assert [np.float64(v).tobytes() for v in got] == \
        [np.float64(v).tobytes() for v in want]
    assert np.signbit(sim._supply_residual(
        cases[2].t, cases[2].V, cases[2].inputs, cases[2].outputs)[0].max())
    assert got[4] == 0.0 and not np.signbit(got[4])


def test_recorded_columns_match_one_point_evaluation(example_cl):
    ic = Interconnection(example_cl, _example_unc())
    traj = simulate_interconnection(ic, X0, np.array([0.5, -0.5]), 0.2, 1e-2)
    from nisyn.uncertainty import composite_storage
    unc = ic.uncertainty
    for k in (0, 7, traj.n_samples - 1):
        s = traj.states[k]
        assert traj.V[k] == pytest.approx(storage_value(s[:4], example_cl),
                                          rel=1e-12, abs=1e-12)
        assert traj.v_sigma[k] == pytest.approx(unc.storage(s[4:]), rel=1e-12)
        assert traj.W[k] == pytest.approx(composite_storage(s, ic),
                                          rel=1e-12, abs=1e-12)
        assert traj.inputs[k] == pytest.approx(unc.output(s[4:]), rel=1e-12)


@pytest.mark.parametrize("cls", [IntegrationError, DivergenceError])
def test_integration_errors_survive_pickling(cls):
    import pickle
    err = cls("boom", 3, np.array([1.0, -2.0]))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err) == "boom (step 3)"
    assert back.step == 3
    assert (back.last_state == err.last_state).all()
