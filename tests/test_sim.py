"""Integrator, dissipation checkers, convergence metrics, CSV export."""

import csv
import math
import re

import numpy as np
import pytest

from nisyn.expr import compile_exprs, parse_expr
from nisyn.sim import (
    DivergenceError, IntegrationError, Trajectory, bandlimited_signal,
    check_dissipation, check_w_decrease, convergence_metrics, integrate,
    multisine_signal, signal_from_spec, simulate_closed_loop,
    simulate_interconnection, simulate_uncertainty, step_signal,
    write_columns_csv, write_trajectory_csv, zero_signal,
)
from nisyn.synthesis import SynthesisError, SynthesisSpec, storage_value, synthesize
from nisyn.uncertainty import Interconnection, OsniUncertainty, UncertaintyError
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


# --- integrator ---------------------------------------------------------------

def test_zero_field_constant():
    traj = integrate(lambda x, u: np.zeros_like(x), [2.0, -1.0], 1.0, 0.1)
    assert np.all(traj.states == np.array([2.0, -1.0]))
    assert traj.t[0] == 0.0 and traj.t[-1] == pytest.approx(1.0)
    assert np.all(np.diff(traj.t) > 0)


def test_exponential_oracle():
    traj = integrate(lambda x, u: -x, [1.0], 1.0, 1e-3)
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) <= 1e-9


def test_rotation_energy_conservation():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    dt = 1e-2
    traj = integrate(lambda x, u: a @ x, [1.0, 0.0], 10.0, dt)
    norms = np.linalg.norm(traj.states, axis=1)
    # RK4 drift per unit time is O(dt^4)
    assert abs(norms[-1] - 1.0) <= 100 * dt ** 4 * 10


def test_rk4_order_against_exponential():
    errors = []
    for dt in (0.1, 0.05, 0.025):
        traj = integrate(lambda x, u: -x, [1.0], 1.0, dt)
        errors.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
    for a, b in zip(errors, errors[1:]):
        assert 12.0 <= a / b <= 20.0


def test_nan_abort():
    def rhs(x, u):
        return np.array([np.nan]) if x[0] > 0.5 else np.array([1.0])

    with pytest.raises(IntegrationError) as err:
        integrate(rhs, [0.49], 1.0, 0.1)
    assert not isinstance(err.value, DivergenceError)
    assert err.value.step >= 1
    assert np.isfinite(err.value.last_state).all()


def test_blowup_guard():
    with pytest.raises(DivergenceError) as err:
        integrate(lambda x, u: x, [1.0], 100.0, 0.1, blowup_norm=1e3)
    assert err.value.step > 0


def test_integrate_validation():
    with pytest.raises(ValueError):
        integrate(lambda x, u: x, [1.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda x, u: x, [1.0], 0.05, 0.1)


def test_zoh_input_recorded():
    sig = step_signal([1.0], start_time=0.5)
    traj = integrate(lambda x, u: u - x, [0.0], 1.0, 0.25, input_fn=sig)
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
        integrate(lambda x, u: -x, [1.0], 1.1, 0.1, input_fn=signal)


def test_integrate_samples_the_input_once_on_the_grid():
    calls = []

    def signal(t):
        calls.append(np.array(t))
        return np.column_stack([t, -t])

    traj = integrate(lambda x, u: u[:1] - x, [0.0], 1.0, 0.1, input_fn=signal)
    assert len(calls) == 1
    assert calls[0].tobytes() == np.array([k * 0.1 for k in range(11)]).tobytes()
    assert traj.t.tobytes() == calls[0].tobytes()
    assert traj.inputs.shape == (11, 2) and traj.input_names == ("u1", "u2")
    assert integrate(lambda x, u: -x, [1.0], 1.0, 0.1).inputs.shape == (11, 0)


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
        wrapped = lambda x, u: field(np.concatenate([x, u]))
        for rhs in (field, wrapped):
            got = integrate(rhs, x0, 1.0, 1e-2, input_fn=signal).states
            assert got.shape == (101, n)
            assert got.tobytes() == want.tobytes()


def test_integrate_float_failures_give_integration_error():
    x, xs = parse_expr("x^(-1)", ["x"]), parse_expr("-xs1^3", ["xs1"])
    for expr, name, x0 in ((x, "x", 0.0), (xs, "xs1", 1e120)):
        field = compile_exprs([expr], [name])
        with pytest.warns(RuntimeWarning):
            with pytest.raises(IntegrationError) as err:
                integrate(field, [x0], 1.0, 0.1, blowup_norm=np.inf)
        assert not isinstance(err.value, DivergenceError)
        assert err.value.step == 1
    with pytest.warns(RuntimeWarning) as record:
        with pytest.raises(IntegrationError, match="non-finite"):
            simulate_uncertainty(_example_unc(), [1e120, 0.0], 1.0, 0.1)
    assert "overflow" in str(record[0].message)


@pytest.mark.parametrize("x0, signal, error", [
    (X0[:3], None, "closed_loop_rhs: state dimension mismatch"),
    (np.zeros((2, 4)), None, "closed_loop_rhs: state dimension mismatch"),
    (X0, step_signal([0.1, 0.1, 0.1]), "closed_loop_rhs: input dimension mismatch"),
])
def test_simulate_closed_loop_checks_lengths_first(example_cl, x0, signal, error):
    with pytest.raises(SynthesisError, match=error):
        simulate_closed_loop(example_cl, x0, 0.1, 1e-2, signal=signal)


@pytest.mark.parametrize("xs0, signal, error", [
    ([0.0, 0.0, 0.0], None, "state dimension mismatch"),
    ([0.0, 0.0], step_signal([0.1]), "input dimension mismatch"),
])
def test_simulate_uncertainty_checks_lengths_first(xs0, signal, error):
    with pytest.raises(UncertaintyError, match=error):
        simulate_uncertainty(_example_unc(), xs0, 0.1, 1e-2, signal=signal)


@pytest.mark.parametrize("x0, xs0", [
    (X0[:3], [0.0, 0.0]), (X0, [0.0]), (X0[:3], [0.0, 0.0, 0.0]),
])
def test_simulate_interconnection_checks_lengths_first(example_cl, x0, xs0):
    ic = Interconnection(example_cl, _example_unc())
    with pytest.raises(UncertaintyError, match="interconnection_rhs: dimension mismatch"):
        simulate_interconnection(ic, x0, xs0, 0.1, 1e-2)


# --- closed-loop / uncertainty / interconnection simulation -------------------

def test_closed_loop_zero_input_dissipation(example_cl):
    traj = simulate_closed_loop(example_cl, X0, 10.0, 1e-3)
    rep = check_dissipation(traj, lambda s: storage_value(s, example_cl),
                            epsilon=example_cl.epsilon, tol=1e-3)
    assert rep.osni_pass and rep.ni_pass
    assert rep.max_residual_osni <= 1e-3


def test_closed_loop_multisine_dissipation(example_cl):
    sig = multisine_signal([[0.2, 0.1], [0.2, 0.1]],
                           [[0.4, 0.9], [0.4, 0.9]], seed=7)
    traj = simulate_closed_loop(example_cl, X0, 10.0, 1e-3, signal=sig)
    rep = check_dissipation(traj, lambda s: storage_value(s, example_cl),
                            epsilon=1.0, tol=1e-3)
    assert rep.osni_pass
    # equality-tight storage: NI residual is negative but close to zero
    assert rep.max_residual_ni <= 0.0


def test_uncertainty_dissipation():
    unc = _example_unc()
    sig = step_signal([0.2, 0.2])
    traj = simulate_uncertainty(unc, np.zeros(2), 10.0, 1e-3, signal=sig)
    rep = check_dissipation(traj, unc.storage, epsilon=1.0, tol=1e-3)
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
    rep = check_dissipation(traj, lambda s: storage_value(s, cl0),
                            epsilon=1.0, tol=1e-3)
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
    rep = check_dissipation(traj, lambda s: storage_value(s, flipped),
                            epsilon=0.0, tol=1e-3)
    assert not rep.ni_pass
    assert rep.max_residual_ni > 1.0


def test_residual_tolerance_scales_with_dt(example_cl):
    # a passing scenario stays passing at dt/10 with a five-fold tighter bound
    for dt, tol in ((1e-3, 1e-3), (1e-4, 2e-4)):
        traj = simulate_closed_loop(example_cl, X0, 2.0, dt)
        rep = check_dissipation(traj, lambda s: storage_value(s, example_cl),
                                epsilon=1.0, tol=tol)
        assert rep.osni_pass


def test_check_dissipation_short_trajectory(example_cl):
    traj = simulate_closed_loop(example_cl, X0, 2e-3, 1e-3)
    assert traj.n_samples == 3
    with pytest.raises(ValueError):
        check_dissipation(
            Trajectory(t=traj.t[:2], states=traj.states[:2], inputs=traj.inputs[:2],
                       state_names=traj.state_names, input_names=traj.input_names,
                       outputs=traj.outputs[:2]),
            lambda s: 0.0, 1.0, 1e-3)


# --- convergence metrics -------------------------------------------------------

def test_convergence_zero_trajectory():
    traj = integrate(lambda x, u: np.zeros_like(x), np.zeros(3), 1.0, 0.1)
    m = convergence_metrics(traj, threshold=0.05, window=0.5)
    assert m.final_norm == 0.0
    assert m.settled_time == 0.0


def test_convergence_exponential_settle_time():
    traj = integrate(lambda x, u: -x, [1.0], 10.0, 1e-3)
    threshold = 0.01
    m = convergence_metrics(traj, threshold=threshold, window=1.0)
    assert m.settled_time == pytest.approx(math.log(1.0 / threshold), abs=2e-3)
    assert m.final_norm == pytest.approx(math.exp(-10.0), rel=1e-6)


def test_convergence_never_settles():
    traj = integrate(lambda x, u: np.zeros_like(x), [1.0], 1.0, 0.1)
    m = convergence_metrics(traj, threshold=0.5, window=0.5)
    assert m.settled_time is None


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
    with pytest.raises(ValueError):
        signal_from_spec({"kind": "nope"}, p=2)
    with pytest.raises(ValueError):
        signal_from_spec({"kind": "step"}, p=2)
    with pytest.raises(ValueError):
        signal_from_spec({"kind": "multisine", "amplitudes": [[0.1]],
                          "frequencies": [[0.5]]}, p=2)


_BANDLIMITED = {"kind": "bandlimited", "amplitude": 0.2, "cutoff": 1.0,
                "components": 4, "seed": 9}


@pytest.mark.parametrize("overrides, message", [
    ({"components": 0}, "'components' must be at least 1, got 0"),
    ({"components": -3}, "'components' must be at least 1"),
    ({"components": 2.5}, "'components' must be an integer, got 2.5"),
    ({"components": True}, "'components' must be an integer, got True"),
    ({"seed": 1.5}, "'seed' must be an integer, got 1.5"),
    ({"seed": False}, "'seed' must be an integer, got False"),
    ({"seed": -1}, "'seed' must be at least 0"),
    ({"cutoff": float("nan")}, "'cutoff' must be a finite number, got nan"),
    ({"cutoff": float("inf")}, "'cutoff' must be a finite number, got inf"),
    ({"cutoff": 0.0}, "'cutoff' must be positive, got 0.0"),
    ({"cutoff": -1.0}, "'cutoff' must be positive"),
    ({"cutoff": "1.0"}, "'cutoff' must be a finite number, got '1.0'"),
    ({"amplitude": float("nan")}, "'amplitude' must be a finite number, got nan"),
    ({"amplitude": float("-inf")}, "'amplitude' must be a finite number"),
])
def test_bandlimited_spec_rejects_bad_fields(overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        signal_from_spec({**_BANDLIMITED, **overrides}, p=2)


_STEP = {"kind": "step", "amplitude": [0.2, -0.1], "start_time": 0.5}
_MULTISINE = {"kind": "multisine", "amplitudes": [[0.1, 0.2], [0.1, 0.2]],
              "frequencies": [[0.5, 0.9], [0.7, 1.1]], "seed": 3}


@pytest.mark.parametrize("spec, message", [
    ({**_STEP, "start_time": float("nan")},
     "'start_time' must be a finite number, got nan"),
    ({**_STEP, "start_time": float("inf")}, "'start_time' must be a finite number"),
    ({**_STEP, "start_time": "soon"},
     "'start_time' must be a finite number, got 'soon'"),
    ({**_STEP, "start_time": None}, "'start_time' must be a finite number"),
    ({**_STEP, "start_time": 10 ** 400}, "'start_time' must be a finite number"),
    ({**_STEP, "amplitude": [0.2, float("nan")]},
     "'amplitude' must be an array of 2 numbers, all finite"),
    ({**_STEP, "amplitude": [0.2]}, "'amplitude' must be an array of 2 numbers"),
    ({**_STEP, "amplitude": 0.2}, "'amplitude' must be an array of 2 numbers"),
    ({**_STEP, "amplitude": [[0.2], [0.1]]},
     "'amplitude' must be an array of 2 numbers"),
    ({**_STEP, "amplitude": [0.2, True]}, "'amplitude' must be an array"),
    ({**_STEP, "amplitude": [0.2, 10 ** 400]}, "'amplitude' must be an array"),
    ({**_MULTISINE, "amplitudes": [[0.1, float("nan")], [0.1, 0.2]]},
     "'amplitudes' must be an array of 2 equal-length rows of numbers, all finite"),
    ({**_MULTISINE, "frequencies": [[0.5, 0.9], [float("inf"), 1.1]]},
     "'frequencies' must be an array of 2 equal-length rows of numbers"),
    ({**_MULTISINE, "amplitudes": [[0.1, 0.2], [0.1]]},
     "'amplitudes' must be an array of 2 equal-length rows"),
    ({**_MULTISINE, "amplitudes": [0.1, 0.2]},
     "'amplitudes' must be an array of 2 equal-length rows"),
    ({**_MULTISINE, "frequencies": [["0.5", 0.9], [0.7, 1.1]]},
     "'frequencies' must be an array of 2 equal-length rows"),
    ({"kind": "multisine", "frequencies": [[0.5], [0.7]]},
     "'amplitudes' must be an array of 2 equal-length rows"),
])
def test_step_and_multisine_specs_reject_bad_fields(spec, message):
    with pytest.raises(ValueError, match=re.escape(message)):
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
    with pytest.raises(ValueError, match=re.escape("'seed' must be an integer")):
        signal_from_spec({**spec, "seed": 1.5}, p=2)
    t = np.linspace(0.0, 3.0, 7)
    assert np.array_equal(signal_from_spec({**spec, "seed": 3.0}, p=2)(t),
                          signal_from_spec({**spec, "seed": 3}, p=2)(t))
    assert np.array_equal(signal_from_spec(spec, p=2, default_seed=3)(t),
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


def test_check_dissipation_calls_v_once_with_the_stack(example_cl):
    traj = simulate_closed_loop(example_cl, X0, 0.5, 1e-2)
    calls = []

    def V(states):
        calls.append(states.shape)
        return storage_value(states, example_cl)

    rep = check_dissipation(traj, V, epsilon=1.0, tol=1e-3)
    assert calls == [traj.states.shape]
    with pytest.raises(ValueError, match="one value per"):
        check_dissipation(traj, lambda s: 0.0, epsilon=1.0, tol=1e-3)
    again = check_dissipation(traj, lambda s: traj.V, epsilon=1.0, tol=1e-3)
    assert again == rep


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
