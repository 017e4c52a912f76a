"""Fixed-step simulation and numerical certification of dissipation.

Integration is classical fourth-order Runge-Kutta on a uniform grid with
zero-order-hold inputs, so the derivative estimates used by the checkers
live on a clean grid.  ``simulate`` runs any synthesis.Dissipative system;
``simulate_closed_loop`` and ``simulate_uncertainty`` are other names for
it, and ``simulate_interconnection`` splits the joint run's records into
the loop's and the uncertainty's.  ``integrate`` refuses an initial state
or a signal of the wrong width before the first step.
Storage and output rates are estimated by second-order finite differences
(central in the interior, one-sided at the endpoints, as in numpy.gradient)
and compared against the one inequality S' <= u^T y' - sum_b w_b |y_b'|^2,
one strictness weight per block of outputs:

    NI:    V'  <=  v^T y'
    OSNI:  V'  <=  v^T y' - epsilon |y'|^2

and, for interconnections (no input, outputs (y, w)), the composite decrease

    W'  <=  -epsilon |y'|^2 - epsilon_sigma |w'|^2  <=  0.

The input signals here take numbers and arrays; scenario.signal_from_spec
builds them from the checked signal specs of a scenario.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .synthesis import Dissipative
from .uncertainty import Interconnection

__all__ = [
    "IntegrationError", "DivergenceError", "Trajectory",
    "integrate", "simulate", "simulate_closed_loop", "simulate_uncertainty",
    "simulate_interconnection",
    "DissipationReport", "check_dissipation",
    "WDecreaseReport", "check_w_decrease",
    "ConvergenceMetrics", "convergence_metrics",
    "write_trajectory_csv", "write_columns_csv",
    "zero_signal", "step_signal", "multisine_signal", "bandlimited_signal",
]

DEFAULT_BLOWUP_NORM = 1e6


class IntegrationError(Exception):
    def __init__(self, message: str, step: int, last_state: np.ndarray):
        super().__init__(f"{message} (step {step})")
        self.message = message
        self.step = step
        self.last_state = np.array(last_state)  # a copy, not a view of the run

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


def _items(prefix: str, count: int) -> str:
    """``p0, p1, ``: ``count`` names, each followed by a comma."""
    return "".join(f"{prefix}{i}, " for i in range(count))


def _at(offset: str, i: int) -> str:
    """The flat index of item i of the row that starts at ``offset``."""
    return f"{offset} + {i}" if i else offset


# A body of at most this many characters (statements and roots) is copied
# into each of the four stages; a longer one runs once per pass of a loop
# over the stages.  Three more copies cost about 1.5 ms of compile() per
# 1000 characters and save about 1 µs per step (2-vCPU host), so copies of
# a 2000-character body pay for themselves after about 3000 steps.
_UNROLL_CHARS = 2000


def _inlined_loop(field, n: int, p: int) -> Callable:
    """The RK4 loop of a compile_exprs field, built on first use and kept in
    ``field.rk4``.  Each stage assigns its arguments to the field's variable
    locals ``_x0 …``, runs the field's body inline and binds its roots.  The
    body is the field's float form, whose integer powers are products (and
    a quotient for a negative power) and whose fractional powers are
    conditional expressions on the sign of their base, so a stage calls no
    function, and the only ``**`` it runs has a fractional exponent.

    ``loop(states, inputs, x, k, n_steps, dt, bound)`` steps from state
    ``x`` at step ``k``, with the state in n local floats and row k of
    ``inputs`` in p, and writes each new state into row k + 1 of ``states``.
    ``states`` and ``inputs`` are flat (1-D) memoryviews of the float64
    arrays, row after row, whose items read and write Python floats without
    numpy calls (a list of every input row would raise the peak memory), or
    the flat arrays, whose items are numpy scalars; the loop keeps the
    offsets of its input and state rows as running sums, ``ki += p`` and
    ``row += n``.  It returns ``(n_steps, x)`` at the end, ``(k, x)`` with
    the state after step k as soon as its norm is nan, inf or above
    ``bound``, and ``(k, None)`` when the body raises ZeroDivisionError or
    OverflowError in step k, whose state is then still in row k of
    ``states``; the caller classifies that state, or redoes that step on
    the flat arrays, where the body cannot raise, and resumes from k + 1.
    A short body is copied into the four stages, which bind the roots to
    ``kJ_i``; a long one runs in a loop over the stages that sums the roots
    with weights 1, 2, 2, 1 from -0.0, the same float operations as
    ``k1 + 2.0 * k2 + 2.0 * k3 + k4``.  The arithmetic is the array form's,
    operation for operation.
    """
    if field.n_vars != n + p or len(field.roots) != n:
        raise ValueError(
            f"the field maps {field.n_vars} values to {len(field.roots)}, but "
            f"the run has {n} states and {p} inputs")
    if field.rk4 is not None:
        return field.rk4
    body, roots, s = list(field.body), field.roots, _items("s", n)
    lines = [f"_x{n + j} = inputs[{_at('ki', j)}]" for j in range(p)]
    lines += [f"ki += {p}"] if p else []
    lines += [f"_x{i} = s{i}" for i in range(n)]
    unroll = sum(map(len, field.body + roots)) <= _UNROLL_CHARS
    if unroll:
        for j, scale in ((1, "half"), (2, "half"), (3, "dt"), (4, None)):
            lines += body + [f"k{j}_{i} = {r}" for i, r in enumerate(roots)]
            if scale:
                lines += [f"_x{i} = s{i} + {scale} * k{j}_{i}" for i in range(n)]
        lines += [f"s{i} = s{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} "
                  f"+ k4_{i})" for i in range(n)]
    else:
        lines += [f"a{i} = -0.0" for i in range(n)]
        lines.append("for w, scale in passes:")
        lines += [f"    {line}" for line in body]
        lines += [f"    r{i} = {r}" for i, r in enumerate(roots)]
        lines += [f"    a{i} = a{i} + w * r{i}" for i in range(n)]
        lines += [f"    _x{i} = s{i} + scale * r{i}" for i in range(n)]
        lines += [f"s{i} = s{i} + sixth * a{i}" for i in range(n)]
    # the norm check of the new state, then its write into row k + 1
    lines += [f"h = hypot({s})", "if not h <= bound or h == inf:",
              f"    return k, ({s})", f"row += {n}"]
    lines += [f"states[{_at('row', i)}] = s{i}" for i in range(n)]
    source = "".join([
        "def _loop(states, inputs, x, k0, n_steps, dt, bound):\n",
        "    half = 0.5 * dt\n",
        "    sixth = dt / 6.0\n",
        "" if unroll else
        "    passes = ((1.0, half), (2.0, half), (2.0, dt), (1.0, 0.0))\n",
        f"    ({s}) = x\n",
        f"    ki, row = k0 * {p}, k0 * {n}\n",
        "    try:\n",
        "        for k in range(k0, n_steps):\n",
        *(f"            {line}\n" for line in lines),
        "    except (ZeroDivisionError, OverflowError):\n",
        "        return k, None\n",
        f"    return n_steps, ({s})\n",
    ])
    namespace = {"hypot": math.hypot, "inf": math.inf}
    exec(compile(source, "<nisyn-rk4-field>", "exec"), namespace)
    field.rk4 = namespace["_loop"]
    return field.rk4


def integrate(rhs: Callable,
              x0: Sequence[float],
              t_end: float,
              dt: float,
              input_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
              state_names: Optional[Sequence[str]] = None,
              input_names: Optional[Sequence[str]] = None,
              blowup_norm: float = DEFAULT_BLOWUP_NORM) -> Trajectory:
    """Integrate x' = rhs(x, u(t)) with classical RK4 at fixed step.

    ``rhs`` is a compile_exprs field over the state followed by the input;
    anything else is a TypeError.  Each field runs in its own RK4 loop,
    generated with its body inline in each stage and kept on the field.
    The loop holds the state in n Python floats and does the same
    operations in the same order as on float64 arrays.  When the body
    raises ZeroDivisionError or OverflowError in a step, the loop runs that
    step again on the flat float64 arrays, whose items are numpy scalars
    that give inf or nan with numpy's RuntimeWarning instead (no compiled
    body raises on them), and then resumes on Python floats.
    The input is open-loop and zero-order-hold at the grid times
    t_k = k*dt, so it is sampled once per run: ``input_fn`` maps the (N,)
    time grid to an (N, p) array (None means p = 0), and any other shape is
    a ValueError, as is an ``x0`` that is not one state (n,) and a field
    that does not map n states and p inputs to n rates; these are checked
    before the first step.  Integration aborts with an IntegrationError on
    NaN/Inf and raises DivergenceError when the state norm exceeds
    ``blowup_norm``; both carry the step and the last good state.
    """
    if getattr(rhs, "body", None) is None:
        raise TypeError(f"integrate takes a compile_exprs field, got {rhs!r}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < dt:
        raise ValueError("t_end must be at least one step")
    x = np.array(x0, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x0 must be one state (n,), got shape {x.shape}")
    x = x.tolist()
    n = len(x)
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
    p = inputs.shape[1]
    loop = _inlined_loop(rhs, n, p)
    states = np.empty((n_steps + 1, n))
    states[0] = x
    # flat arrays: reshape copies only an input array that no 1-D view spans
    flat = states.reshape(-1), inputs.reshape(-1)
    views = tuple(map(memoryview, flat))
    k, x = loop(*views, x, 0, n_steps, dt, blowup_norm)
    while k < n_steps:
        if x is None:  # the float body raised in step k: redo it on numpy scalars
            x = loop(*flat, tuple(states[k]), k, k + 1, dt, blowup_norm)[1]
        norm = math.hypot(*x)  # nan or inf when a state is
        if not math.isfinite(norm) and not all(map(math.isfinite, x)):
            raise IntegrationError("non-finite state encountered", k + 1, states[k])
        if norm > blowup_norm:
            raise DivergenceError(
                f"state norm {norm:.3e} exceeded blow-up bound {blowup_norm:.3e}",
                k + 1, states[k])
        # a redone step, or finite states whose norm overflows under an
        # infinite bound
        states[k + 1] = x
        k, x = loop(*views, tuple(map(float, x)), k + 1, n_steps, dt, blowup_norm)
    if state_names is None:
        state_names = tuple(f"x{i + 1}" for i in range(n))
    if input_names is None:
        input_names = tuple(f"u{i + 1}" for i in range(p))
    return Trajectory(t=t_grid, states=states, inputs=inputs,
                      state_names=tuple(state_names),
                      input_names=tuple(input_names))


def _rate(values: np.ndarray, dt: float) -> np.ndarray:
    return np.gradient(values, dt, axis=0, edge_order=2)


def _supply_residual(t, storage, inputs, outputs):
    """S' - u^T y' and y' on the grid ``t``.  The inputs pair with the first
    output columns; (N, 0) inputs supply nothing."""
    dt = float(t[1] - t[0])
    ydot = _rate(outputs, dt)
    supply = _rate(storage, dt) - np.sum(inputs * ydot[:, :inputs.shape[1]],
                                         axis=1)
    return supply, ydot


def _dissipation_residual(t, storage, inputs, outputs, strictness):
    """S' - u^T y' + sum_b w_b |y_b'|^2, with one ``(width, weight)`` of
    ``strictness`` per block of output columns."""
    residual, ydot = _supply_residual(t, storage, inputs, outputs)
    start = 0
    for width, weight in strictness:
        block = ydot[:, start:start + width]
        residual = residual + weight * np.sum(block * block, axis=1)
        start += width
    return residual


def simulate(system: Dissipative,
             x0: Sequence[float],
             t_end: float,
             dt: float,
             signal: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> Trajectory:
    """Run a Dissipative system from ``x0`` under ``signal`` (None: zero),
    up to the blow-up bound DEFAULT_BLOWUP_NORM, and record its outputs,
    its storage (as ``V``) and its residual, whose finite differences need
    at least 3 samples (fewer is a ValueError).  An ``x0`` of the wrong
    width is a ValueError that names the system."""
    x0 = system._checked(x0)
    if signal is None:
        signal = zero_signal(len(system.input_names))
    traj = integrate(system._rhs_fn, x0, t_end, dt, input_fn=signal,
                     state_names=system.state_names,
                     input_names=system.input_names)
    if traj.n_samples < 3:
        raise ValueError(
            f"t_end = {t_end!r} with dt = {dt!r} gives {traj.n_samples} "
            "samples, but the finite-difference residual needs at least 3")
    traj.V = system.storage(traj.states)
    traj.outputs = system.output(traj.states)
    traj.residual = _dissipation_residual(traj.t, traj.V, traj.inputs,
                                          traj.outputs, system.strictness)
    return traj


# names kept for their callers: the loop and the uncertainty run as any
# Dissipative system does
simulate_closed_loop = simulate_uncertainty = simulate


def simulate_interconnection(interconnection: Interconnection,
                             x0: Sequence[float],
                             xs0: Sequence[float],
                             t_end: float,
                             dt: float) -> Trajectory:
    """Simulate the closed interconnection.  Records the loop storage V, the
    uncertainty storage Vsigma, the composite W and the strong decrease
    residual W' + eps|y'|^2 + eps_sigma|w'|^2 (nonpositive in theory)."""
    n = interconnection.closed_loop.plant.n_states
    p = interconnection.closed_loop.plant.n_outputs
    # the joint width alone would pass a wrong split such as 3 + 3
    if np.shape(x0) != (n,):
        raise ValueError(f"Interconnection takes the loop's {n} states first, "
                         f"got shape {np.shape(x0)}")
    traj = simulate(interconnection, np.concatenate([x0, xs0]), t_end, dt)
    # the applied input of the loop is the uncertainty output w = h(xs)
    traj.W, traj.inputs, traj.outputs = \
        traj.V, traj.outputs[:, p:], traj.outputs[:, :p]
    traj.input_names = tuple(f"w{i + 1}" for i in range(p))
    traj.V = interconnection.closed_loop.storage(traj.states[:, :n])
    traj.v_sigma = interconnection.uncertainty.storage(traj.states[:, n:])
    return traj


# --- checkers ----------------------------------------------------------------

# A report's fields are its keys in the JSON reports, which cli writes with
# dataclasses.asdict: a field added here is a key added there.

@dataclass(frozen=True)
class DissipationReport:
    """Finite-difference certification of the NI / OSNI inequalities."""
    max_residual_ni: float
    max_residual_osni: float
    ni_pass: bool
    osni_pass: bool
    epsilon: float
    tol: float


def check_dissipation(traj: Trajectory, epsilon: float,
                      tol: float) -> DissipationReport:
    """Test both dissipation residuals on the storage V and the outputs that
    simulate recorded along the run.

    V' and y' are second-order finite differences on the recorded grid,
    independent of any symbolic gradient; they are taken once, and each
    weight's residual is V' - u^T y' + weight |y'|^2.
    """
    if traj.n_samples < 3:
        raise ValueError("trajectory too short for central differences")
    if traj.outputs is None:
        raise ValueError("trajectory has no recorded outputs")
    if traj.V is None:
        raise ValueError("trajectory has no recorded storage V")
    if tol <= 0:
        raise ValueError("tol must be positive")
    supply, ydot = _supply_residual(traj.t, traj.V, traj.inputs, traj.outputs)
    square = np.sum(ydot * ydot, axis=1)
    max_ni, max_osni = (float((supply + weight * square).max())
                        for weight in (0.0, epsilon))
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


def convergence_metrics(traj: Trajectory, threshold: float,
                        window: float) -> ConvergenceMetrics:
    """Final state norm plus the first time after which the norm stays
    below ``threshold`` for at least ``window`` seconds (None if never)."""
    if not window >= 0:
        raise ValueError(f"window must be at least 0, got {window!r}")
    norms = np.linalg.norm(traj.states, axis=1)
    # a window longer than the run never fits, however long it is
    w_steps = int(round(min(window / traj.dt, len(norms))))
    # above[i] counts the samples before i that are not below the threshold;
    # the first grid time whose w_steps + 1 samples are all below settles
    above = np.concatenate([[0], np.cumsum(~(norms < threshold))])
    settles = np.flatnonzero(above[w_steps + 1:] == above[:-w_steps - 1])
    settled = float(traj.t[settles[0]]) if settles.size else None
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
