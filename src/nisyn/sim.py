"""Fixed-step simulation and numerical certification of dissipation.

Integration is classical fourth-order Runge-Kutta on a uniform grid with
zero-order-hold inputs, so the derivative estimates used by the checkers
live on a clean grid.  Storage rates and output rates are estimated by
second-order finite differences (central in the interior, one-sided at the
endpoints, as in numpy.gradient) and compared against the dissipation
inequalities

    NI:    V'  <=  v^T y'
    OSNI:  V'  <=  v^T y' - epsilon |y'|^2

and, for interconnections, the composite decrease

    W'  <=  -epsilon |y'|^2 - epsilon_sigma |w'|^2  <=  0.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .synthesis import ClosedLoopSystem, SynthesisError, storage_value
from .uncertainty import Interconnection, OsniUncertainty, UncertaintyError, \
    composite_storage

__all__ = [
    "IntegrationError", "DivergenceError", "Trajectory",
    "integrate", "simulate_closed_loop", "simulate_uncertainty",
    "simulate_interconnection",
    "DissipationReport", "check_dissipation",
    "WDecreaseReport", "check_w_decrease",
    "ConvergenceMetrics", "convergence_metrics",
    "write_trajectory_csv", "write_columns_csv",
    "zero_signal", "step_signal", "multisine_signal", "bandlimited_signal",
    "signal_from_spec", "SIGNAL_KINDS",
]

DEFAULT_BLOWUP_NORM = 1e6


class IntegrationError(Exception):
    def __init__(self, message: str, step: int, last_state: np.ndarray):
        super().__init__(f"{message} (step {step})")
        self.message = message
        self.step = step
        self.last_state = np.asarray(last_state)

    def __reduce__(self):
        return type(self), (self.message, self.step, self.last_state)


class DivergenceError(IntegrationError):
    pass


@dataclass
class Trajectory:
    """Uniformly sampled run: states, applied inputs and derived records."""
    t: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    state_names: tuple
    input_names: tuple
    outputs: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    W: Optional[np.ndarray] = None
    v_sigma: Optional[np.ndarray] = None
    residual: Optional[np.ndarray] = None

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]


def integrate(rhs: Callable,
              x0: Sequence[float],
              t_end: float,
              dt: float,
              input_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
              state_names: Optional[Sequence[str]] = None,
              input_names: Optional[Sequence[str]] = None,
              blowup_norm: float = DEFAULT_BLOWUP_NORM) -> Trajectory:
    """Integrate x' = rhs(x, u(t)) with classical RK4 at fixed step.

    ``rhs`` is a compile_exprs field over the state followed by the input,
    or a callable rhs(x, u) on ndarrays.  The step runs on Python floats,
    with the same operations in the same order as on float64 arrays.  The
    input is open-loop and zero-order-hold at the grid times t_k = k*dt, so
    it is sampled once per run: ``input_fn`` maps the (N,) time grid to an
    (N, p) array (None means p = 0), and any other shape is a ValueError.
    Integration aborts with a diagnostic on NaN/Inf and raises
    DivergenceError when the state norm exceeds ``blowup_norm``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < dt:
        raise ValueError("t_end must be at least one step")
    x = np.array(x0, dtype=float).tolist()
    n = len(x)
    field = getattr(rhs, "point", None)
    if field is None:
        def field(xu):
            return np.asarray(rhs(np.array(xu[:n]), np.array(xu[n:])),
                              dtype=float).tolist()
    n_steps = int(round(t_end / dt))
    t_grid = np.arange(n_steps + 1) * dt
    if input_fn is None:
        inputs = np.zeros((n_steps + 1, 0))
    else:
        inputs = np.asarray(input_fn(t_grid), dtype=float)
        if inputs.ndim != 2 or inputs.shape[0] != n_steps + 1:
            raise ValueError(
                f"input_fn gave shape {inputs.shape} on a time grid of shape "
                f"{t_grid.shape}; a signal maps times (N,) to inputs (N, p)")
    states = np.empty((n_steps + 1, n))
    states[0] = x
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(n_steps):
        u = inputs[k].tolist()
        k1 = field(x + u)
        k2 = field([a + half * b for a, b in zip(x, k1)] + u)
        k3 = field([a + half * b for a, b in zip(x, k2)] + u)
        k4 = field([a + dt * b for a, b in zip(x, k3)] + u)
        x = [a + sixth * (b + 2.0 * c + 2.0 * d + e)
             for a, b, c, d, e in zip(x, k1, k2, k3, k4, strict=True)]
        norm = math.hypot(*x)  # nan or inf when a state is
        if not math.isfinite(norm) and not all(map(math.isfinite, x)):
            raise IntegrationError("non-finite state encountered", k + 1, states[k])
        if norm > blowup_norm:
            raise DivergenceError(
                f"state norm {norm:.3e} exceeded blow-up bound {blowup_norm:.3e}",
                k + 1, states[k])
        states[k + 1] = x
    if state_names is None:
        state_names = tuple(f"x{i + 1}" for i in range(n))
    if input_names is None:
        input_names = tuple(f"u{i + 1}" for i in range(inputs.shape[1]))
    return Trajectory(t=t_grid, states=states, inputs=inputs,
                      state_names=tuple(state_names),
                      input_names=tuple(input_names))


def _input_shape(signal) -> tuple:
    return np.atleast_1d(np.asarray(signal(0.0), dtype=float)).shape


def _rate(values: np.ndarray, dt: float) -> np.ndarray:
    return np.gradient(values, dt, axis=0, edge_order=2)


def _dissipation_residual(t, v_values, inputs, outputs, epsilon):
    dt = float(t[1] - t[0])
    vdot = _rate(v_values, dt)
    ydot = _rate(outputs, dt)
    supply = np.sum(inputs * ydot, axis=1)
    return vdot - supply + epsilon * np.sum(ydot * ydot, axis=1)


def simulate_closed_loop(closed_loop: ClosedLoopSystem,
                         x0: Sequence[float],
                         t_end: float,
                         dt: float,
                         signal: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                         blowup_norm: float = DEFAULT_BLOWUP_NORM) -> Trajectory:
    """Simulate the synthesized loop under an input signal and record the
    storage value and OSNI residual along the run."""
    plant = closed_loop.plant
    p = plant.n_outputs
    if signal is None:
        signal = zero_signal(p)
    if np.shape(x0) != (plant.n_states,):
        raise SynthesisError("closed_loop_rhs: state dimension mismatch")
    if _input_shape(signal) != (p,):
        raise SynthesisError("closed_loop_rhs: input dimension mismatch")
    traj = integrate(
        closed_loop._rhs_fn,
        x0, t_end, dt, input_fn=signal,
        state_names=plant.state_names,
        input_names=closed_loop.v_names,
        blowup_norm=blowup_norm)
    traj.outputs = traj.states[:, plant.m:plant.m + p]
    traj.V = storage_value(traj.states, closed_loop)
    traj.residual = _dissipation_residual(
        traj.t, traj.V, traj.inputs, traj.outputs, closed_loop.epsilon)
    return traj


def simulate_uncertainty(uncertainty: OsniUncertainty,
                         xs0: Sequence[float],
                         t_end: float,
                         dt: float,
                         signal: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                         blowup_norm: float = DEFAULT_BLOWUP_NORM) -> Trajectory:
    """Simulate the uncertainty block alone; the V record holds its own
    storage and the residual its OSNI residual."""
    p = uncertainty.n_outputs
    if signal is None:
        signal = zero_signal(p)
    if np.shape(xs0) != (uncertainty.n_sigma,):
        raise UncertaintyError("uncertainty rhs: state dimension mismatch")
    if _input_shape(signal) != (p,):
        raise UncertaintyError("uncertainty rhs: input dimension mismatch")
    traj = integrate(
        uncertainty._f_fn,
        xs0, t_end, dt, input_fn=signal,
        state_names=uncertainty.state_names,
        input_names=uncertainty.input_names,
        blowup_norm=blowup_norm)
    traj.outputs = uncertainty.output(traj.states)
    traj.V = uncertainty.storage(traj.states)
    traj.residual = _dissipation_residual(
        traj.t, traj.V, traj.inputs, traj.outputs, uncertainty.epsilon_sigma)
    return traj


def simulate_interconnection(interconnection: Interconnection,
                             x0: Sequence[float],
                             xs0: Sequence[float],
                             t_end: float,
                             dt: float,
                             blowup_norm: float = DEFAULT_BLOWUP_NORM) -> Trajectory:
    """Simulate the closed interconnection.  Records the loop storage V, the
    uncertainty storage Vsigma, the composite W and the strong decrease
    residual W' + eps|y'|^2 + eps_sigma|w'|^2 (nonpositive in theory)."""
    cl = interconnection.closed_loop
    unc = interconnection.uncertainty
    plant = cl.plant
    n = plant.n_states
    p = plant.n_outputs
    joint0 = np.concatenate([np.asarray(x0, dtype=float),
                             np.asarray(xs0, dtype=float)])
    if np.shape(x0) != (n,) or joint0.shape != (interconnection.n_states,):
        raise UncertaintyError("interconnection_rhs: dimension mismatch")
    traj = integrate(
        interconnection._rhs_fn,
        joint0, t_end, dt, input_fn=None,
        state_names=interconnection.joint_names,
        input_names=tuple(f"w{i + 1}" for i in range(p)),
        blowup_norm=blowup_norm)
    # the applied input of the loop is the uncertainty output w = h(xs)
    traj.inputs = unc.output(traj.states[:, n:])
    traj.outputs = traj.states[:, plant.m:plant.m + p]
    traj.V = storage_value(traj.states[:, :n], cl)
    traj.v_sigma = unc.storage(traj.states[:, n:])
    traj.W = composite_storage(traj.states, interconnection)
    dt_ = traj.dt
    wdot = _rate(traj.W, dt_)
    ydot = _rate(traj.outputs, dt_)
    hdot = _rate(traj.inputs, dt_)
    traj.residual = (wdot + cl.epsilon * np.sum(ydot * ydot, axis=1)
                     + unc.epsilon_sigma * np.sum(hdot * hdot, axis=1))
    return traj


# --- checkers ----------------------------------------------------------------

@dataclass(frozen=True)
class DissipationReport:
    """Finite-difference certification of the NI / OSNI inequalities."""
    max_residual_ni: float
    max_residual_osni: float
    ni_pass: bool
    osni_pass: bool
    epsilon: float
    tol: float

    def as_dict(self) -> dict:
        return {
            "max_residual_ni": self.max_residual_ni,
            "max_residual_osni": self.max_residual_osni,
            "ni_pass": self.ni_pass,
            "osni_pass": self.osni_pass,
            "epsilon": self.epsilon,
            "tol": self.tol,
        }


def check_dissipation(traj: Trajectory,
                      V: Callable[[np.ndarray], np.ndarray],
                      epsilon: float,
                      tol: float) -> DissipationReport:
    """Evaluate V along the trajectory and test both dissipation residuals.

    V' and y' are second-order finite differences on the recorded grid,
    independent of any symbolic gradient; V maps the (N, n) state stack to N values.
    """
    if traj.n_samples < 3:
        raise ValueError("trajectory too short for central differences")
    if traj.outputs is None:
        raise ValueError("trajectory has no recorded outputs")
    if tol <= 0:
        raise ValueError("tol must be positive")
    v_values = np.asarray(V(traj.states), dtype=float)
    if v_values.shape != (traj.n_samples,):
        raise ValueError(f"V gave shape {v_values.shape}, not one value per state")
    r_ni = _dissipation_residual(traj.t, v_values, traj.inputs, traj.outputs, 0.0)
    r_osni = _dissipation_residual(traj.t, v_values, traj.inputs, traj.outputs,
                                   epsilon)
    max_ni = float(r_ni.max())
    max_osni = float(r_osni.max())
    return DissipationReport(
        max_residual_ni=max_ni,
        max_residual_osni=max_osni,
        ni_pass=bool(max_ni <= tol),
        osni_pass=bool(max_osni <= tol),
        epsilon=float(epsilon),
        tol=float(tol),
    )


@dataclass(frozen=True)
class WDecreaseReport:
    """Certification of the composite storage decrease along a joint run."""
    max_wdot: float
    max_strong_residual: float
    w_start: float
    w_end: float
    monotone: bool
    passed: bool
    tol: float

    def as_dict(self) -> dict:
        return {
            "max_wdot": self.max_wdot,
            "max_strong_residual": self.max_strong_residual,
            "w_start": self.w_start,
            "w_end": self.w_end,
            "monotone": self.monotone,
            "passed": self.passed,
            "tol": self.tol,
        }


def check_w_decrease(traj: Trajectory, tol: float) -> WDecreaseReport:
    """Test max W' <= tol along the joint trajectory plus end-to-end
    monotonicity W(t_end) <= W(0); also reports the strong residual
    W' + eps|y'|^2 + eps_sigma|w'|^2.  Both come from the W and residual
    records that simulate_interconnection leaves on the trajectory."""
    if traj.n_samples < 3:
        raise ValueError("trajectory too short for central differences")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if traj.W is None or traj.residual is None:
        raise ValueError("trajectory lacks W/residual records; "
                         "use simulate_interconnection")
    max_wdot = float(_rate(traj.W, traj.dt).max())
    monotone = bool(traj.W[-1] <= traj.W[0])
    return WDecreaseReport(
        max_wdot=max_wdot,
        max_strong_residual=float(traj.residual.max()),
        w_start=float(traj.W[0]),
        w_end=float(traj.W[-1]),
        monotone=monotone,
        passed=bool(max_wdot <= tol and monotone),
        tol=float(tol),
    )


@dataclass(frozen=True)
class ConvergenceMetrics:
    final_norm: float
    settled_time: Optional[float]
    threshold: float
    window: float

    def as_dict(self) -> dict:
        return {
            "final_norm": self.final_norm,
            "settled_time": self.settled_time,
            "threshold": self.threshold,
            "window": self.window,
        }


def convergence_metrics(traj: Trajectory, threshold: float,
                        window: float) -> ConvergenceMetrics:
    """Final state norm plus the first time after which the norm stays
    below ``threshold`` for at least ``window`` seconds (None if never)."""
    norms = np.linalg.norm(traj.states, axis=1)
    dt = traj.dt
    w_steps = int(round(window / dt))
    below = norms < threshold
    settled = None
    # first grid time from which a full window of samples stays below
    for i in range(len(below) - w_steps):
        if below[i:i + w_steps + 1].all():
            settled = float(traj.t[i])
            break
    return ConvergenceMetrics(
        final_norm=float(norms[-1]),
        settled_time=settled,
        threshold=float(threshold),
        window=float(window),
    )


# --- trajectory export ---------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV export, one row per step; floats use round-trip repr formatting.

    Header: t,<state names...>,<input names...>,V[,W,Vsigma],residual
    """
    if traj.V is None or traj.residual is None:
        raise ValueError("trajectory lacks storage/residual records; "
                         "use the simulate_* helpers before exporting")
    header = ["t", *traj.state_names, *traj.input_names, "V"]
    columns = [traj.t, traj.states, traj.inputs, traj.V]
    if traj.W is not None:
        header.append("W")
        columns.append(traj.W)
    if traj.v_sigma is not None:
        header.append("Vsigma")
        columns.append(traj.v_sigma)
    header.append("residual")
    columns.append(traj.residual)
    write_columns_csv(path, header, columns)


# Rows joined per write: as fast as 1024-row blocks, with a quarter of their
# transient memory.
_CSV_BLOCK_ROWS = 256


def write_columns_csv(path, header: list, columns: list) -> None:
    """CSV of ``header`` then the rows of ``np.column_stack(columns)``;
    floats use round-trip repr formatting.  The rows are joined and written
    a block at a time; they are the bytes csv.writer gives, since a float's
    repr holds no character that needs quoting."""
    table = np.column_stack(columns)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS].tolist()
            fh.write("".join(",".join(map(repr, row)) + "\r\n" for row in block))


# --- input signal catalog -------------------------------------------------------

SIGNAL_KINDS = ("zero", "step", "multisine", "bandlimited")

# Every catalog signal maps times t of shape (N,) to inputs of shape (N, p),
# and a scalar t to (p,) through the same broadcasting expression, so
# integrate samples a run's input in one call on its time grid.


def zero_signal(p: int):
    """The p-channel zero input."""
    def fn(t) -> np.ndarray:
        return np.zeros(np.shape(t) + (p,))

    return fn


def step_signal(amplitude: Sequence[float], start_time: float = 0.0):
    """``amplitude`` at times t >= ``start_time``, 0.0 before."""
    amp = np.asarray(amplitude, dtype=float)

    def fn(t) -> np.ndarray:
        return np.where(np.asarray(t)[..., None] >= start_time, amp, 0.0)

    return fn


def multisine_signal(amplitudes, frequencies, seed: Optional[int] = None,
                     phases=None):
    """Sum of sinusoids per channel, sum_j amp_ij sin(2 pi freq_ij t + ph_ij);
    phases drawn from ``seed`` when not given explicitly."""
    amp = np.atleast_2d(np.asarray(amplitudes, dtype=float))
    freq = np.atleast_2d(np.asarray(frequencies, dtype=float))
    if amp.shape != freq.shape:
        raise ValueError("amplitudes and frequencies must have matching shapes")
    if phases is None:
        if seed is None:
            raise ValueError("multisine needs either phases or a seed")
        rng = np.random.default_rng(seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=amp.shape)
    ph = np.asarray(phases, dtype=float)
    omega = 2.0 * np.pi * freq

    def fn(t) -> np.ndarray:
        # one (..., p, components) temporary, updated in place
        out = np.multiply.outer(t, omega)
        out += ph
        np.sin(out, out=out)
        out *= amp
        return out.sum(-1)

    return fn


def bandlimited_signal(p: int, amplitude: float, cutoff: float,
                       components: int, seed: int):
    """Seeded random multi-tone below the cutoff frequency, scaled so each
    channel's amplitude sum equals ``amplitude``."""
    rng = np.random.default_rng(seed)
    freq = rng.uniform(0.05 * cutoff, cutoff, size=(p, components))
    raw = rng.uniform(0.3, 1.0, size=(p, components))
    amp = amplitude * raw / raw.sum(axis=1, keepdims=True)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(p, components))
    return multisine_signal(amp, freq, phases=phases)


def _spec_int(spec: dict, key: str, default: int, minimum: int) -> int:
    """An integer field of a signal spec; an integral float is accepted,
    a fraction or a boolean is not."""
    value = spec.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"signal field {key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"signal field {key!r} must be at least {minimum}, "
                         f"got {value!r}")
    return int(value)


def _finite_real(value) -> bool:
    """Whether a JSON value is a number (not a boolean) with a finite float."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _spec_float(spec: dict, key: str, default: float) -> float:
    """A finite real field of a signal spec."""
    value = spec.get(key, default)
    if not _finite_real(value):
        raise ValueError(f"signal field {key!r} must be a finite number, "
                         f"got {value!r}")
    return float(value)


def _spec_array(spec: dict, key: str, rows: int, ndim: int) -> np.ndarray:
    """A real array field of a signal spec: ``rows`` numbers (``ndim`` 1)
    or ``rows`` equal-length rows of numbers (``ndim`` 2), all finite."""
    value = spec.get(key)
    entries = np.asarray(value, dtype=object) if isinstance(value, list) else None
    if entries is None or entries.ndim != ndim or len(entries) != rows or \
            not all(_finite_real(v) for v in entries.ravel()):
        shape = f"{rows} numbers" if ndim == 1 else \
            f"{rows} equal-length rows of numbers"
        raise ValueError(f"signal field {key!r} must be an array of {shape}, "
                         f"all finite, got {value!r}")
    return entries.astype(float)


def signal_from_spec(spec: dict, p: int, default_seed: int = 0):
    """Build a signal from its scenario description (the input catalog)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("input signal spec must be a mapping with a 'kind'")
    kind = spec["kind"]
    if kind == "zero":
        return zero_signal(p)
    if kind == "step":
        return step_signal(_spec_array(spec, "amplitude", p, 1),
                           _spec_float(spec, "start_time", 0.0))
    if kind == "multisine":
        return multisine_signal(_spec_array(spec, "amplitudes", p, 2),
                                _spec_array(spec, "frequencies", p, 2),
                                seed=_spec_int(spec, "seed", default_seed, 0))
    if kind == "bandlimited":
        cutoff = _spec_float(spec, "cutoff", 1.0)
        if cutoff <= 0:
            raise ValueError(f"signal field 'cutoff' must be positive, got {cutoff!r}")
        return bandlimited_signal(
            p,
            amplitude=_spec_float(spec, "amplitude", 0.1),
            cutoff=cutoff,
            components=_spec_int(spec, "components", 8, 1),
            seed=_spec_int(spec, "seed", default_seed, 0))
    raise ValueError(f"unknown input signal kind {kind!r}; "
                     f"expected one of {SIGNAL_KINDS}")
