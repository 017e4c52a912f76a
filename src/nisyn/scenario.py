"""Scenario files: the declarative interface to the toolkit.

A scenario is a JSON document with named blocks; expressions are strings in
the repository grammar.  The block dataclasses below are the schema: a field
is read from the key of its name (or ``metadata["key"]``), takes its default
when the key is absent, and must be of its annotation's JSON type: an
array for ``list``, an object for ``dict``, a string for ``str``, a number
that is not a boolean for ``float``, and an integer or an integral float
for ``int``.  A field with a ``metadata["minimum"]`` may not be below it,
one marked ``"positive"`` must be above 0, and one marked ``"finite"`` may
not be NaN or infinite; check_bounds checks these types (without
coercion) and bounds when a scenario is loaded and when cli.Pipeline is
built on it, and override on each command-line value.  Keys (fields marked * are optional):

    name*
    plant:        m, p1, p2, A11 (nested row-major array), p (expressions)
    spec*:        P* ("auto" or array), V2* ("default" or expression),
                  lambda*, target* ("NI" | "OSNI")
    general_form*: j1, j2, l1, l2 (expression vectors / matrices)
    uncertainty*: n_sigma, f_sigma, h_sigma, V_sigma, epsilon_sigma,
                  x_sigma0* (zeros)
    simulation:   x0, dt*, t_end*, input*, seed*
    verification*: dissipation_tol*, w_decrease_tol*, sampling_box*,
                  samples*, pd_seed*, convergence_threshold*,
                  nominal_convergence_threshold* (none: no nominal check),
                  settle_window*, input_signals*
    regression*:  u1*, u2* (expected law expressions, checked by evaluation)

A block that is not a JSON object is an error; ``general_form``,
``uncertainty`` and ``regression`` may also be null, which means absent.
Saving writes every field that is not None, and loading then saving then
loading yields an identical in-memory scenario.
"""

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Optional, Union, get_args, get_origin

import numpy as np

from .expr import ExprError, parse_expr
from .lyapunov import classify_stability, lyapunov_certificate
from .synthesis import (
    GeneralForm, NormalFormPlant, SynthesisSpec, block_names, default_v2,
)
from .uncertainty import OsniUncertainty

__all__ = [
    "ScenarioError", "Scenario", "PlantBlock", "SpecBlock",
    "GeneralFormBlock", "UncertaintyBlock", "SimulationBlock",
    "VerificationBlock", "RegressionBlock",
    "load_scenario", "save_scenario", "scenario_from_dict", "scenario_to_dict",
    "build_plant", "resolve_synthesis_spec", "build_uncertainty",
    "build_general_form", "sampling_box", "default_input_catalog", "override",
    "check_bounds",
]


class ScenarioError(Exception):
    pass


_FINITE_POSITIVE = {"finite": True, "positive": True}


@dataclass
class PlantBlock:
    m: int
    p1: int
    p2: int
    a11: list = field(metadata={"key": "A11"})
    p: list


@dataclass
class SpecBlock:
    p_matrix: object = field(default="auto", metadata={"key": "P"})
    v2: str = field(default="default", metadata={"key": "V2"})
    lam: Optional[float] = field(
        default=None, metadata={"key": "lambda", "finite": True, "minimum": 0})
    target: str = "OSNI"


@dataclass
class GeneralFormBlock:
    j1: list
    j2: list
    l1: list
    l2: list


@dataclass
class UncertaintyBlock:
    n_sigma: int
    f_sigma: list
    h_sigma: list
    v_sigma: str = field(metadata={"key": "V_sigma"})
    epsilon_sigma: float = field(metadata=_FINITE_POSITIVE)
    x_sigma0: Optional[list] = None

    def __post_init__(self):
        if self.x_sigma0 is None:
            self.x_sigma0 = [0.0] * self.n_sigma


@dataclass
class SimulationBlock:
    x0: list
    dt: float = field(default=1e-3, metadata=_FINITE_POSITIVE)
    t_end: float = field(default=10.0, metadata=_FINITE_POSITIVE)
    input: dict = field(default_factory=lambda: {"kind": "zero"})
    seed: int = field(default=0, metadata={"minimum": 0})


@dataclass
class VerificationBlock:
    dissipation_tol: float = field(default=1e-3, metadata=_FINITE_POSITIVE)
    # defaults to 10*dt at use site
    w_decrease_tol: Optional[float] = field(default=None,
                                            metadata=_FINITE_POSITIVE)
    sampling_box: Optional[list] = None
    samples: int = field(default=20000, metadata={"minimum": 0})
    pd_seed: int = field(default=0, metadata={"minimum": 0})
    convergence_threshold: float = field(default=0.08, metadata=_FINITE_POSITIVE)
    nominal_convergence_threshold: Optional[float] = field(
        default=None, metadata=_FINITE_POSITIVE)
    settle_window: float = field(default=1.0,
                                 metadata={"finite": True, "minimum": 0})
    input_signals: Optional[list] = None


@dataclass
class RegressionBlock:
    u1: list = field(default_factory=list)
    u2: list = field(default_factory=list)


@dataclass
class Scenario:
    plant: PlantBlock
    simulation: SimulationBlock
    spec: SpecBlock = field(default_factory=SpecBlock)
    verification: VerificationBlock = field(default_factory=VerificationBlock)
    general_form: Optional[GeneralFormBlock] = None
    uncertainty: Optional[UncertaintyBlock] = None
    regression: Optional[RegressionBlock] = None
    name: str = ""


def _key(f) -> str:
    return f.metadata.get("key", f.name)


# The JSON types that a field of each annotation takes, and their name.
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), list: ((list,), "a JSON array"),
               dict: ((dict,), "a JSON object")}


def _coerce(tp, value, key: str):
    """A JSON value as the annotated type; Optional keeps null as None.  A
    value must be of one of the annotation's JSON types, where a boolean is
    not a number and an integral float is an integer."""
    if get_origin(tp) is Union:
        return None if value is None else _coerce(get_args(tp)[0], value, key)
    if is_dataclass(tp):
        return _block_from_dict(tp, value, key)
    if tp is object:
        return value
    if tp is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    _check_type(tp, value, key)
    return tp(value)


def _check_type(tp, value, key: str) -> None:
    """``value`` is of one of the JSON types of annotation ``tp``, as it is,
    where a boolean is not a number; Optional also takes None.  Annotations
    without a JSON type (a block, ``object``) are not checked here."""
    if get_origin(tp) is Union:
        if value is None:
            return
        tp = get_args(tp)[0]
    if tp not in _JSON_TYPES:
        return
    types, kind = _JSON_TYPES[tp]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ScenarioError(f"field {key!r} must be {kind}, got {value!r}")


def _check_bounds(f, value, subject: str) -> None:
    """The bounds that field ``f``'s metadata declares; ``subject`` starts
    the error message and names the field; None (an absent Optional
    value) has no bounds."""
    meta = f.metadata
    if value is None:
        return
    if meta.get("finite") and not math.isfinite(value):
        raise ScenarioError(f"{subject} must be a finite number, got {value!r}")
    if meta.get("positive") and not value > 0:
        raise ScenarioError(f"{subject} must be positive, got {value!r}")
    if "minimum" in meta and value < meta["minimum"]:
        raise ScenarioError(f"{subject} must be at least {meta['minimum']}, "
                            f"got {value!r}")


def _block_from_dict(cls, raw, block: str):
    if not isinstance(raw, dict):
        raise ScenarioError(f"{block} block must be a JSON object")
    values = {}
    for f in fields(cls):
        key = _key(f)
        if key in raw:
            values[f.name] = _coerce(f.type, raw[key], key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ScenarioError(f"{block} block is missing required field {key!r}")
    return cls(**values)


def check_bounds(scn: Scenario) -> None:
    """The JSON type and every bound that a field of a block declares, as
    when the scenario is loaded, and so also on a scenario built or changed
    in code.  Nothing is coerced: a value set in code must already be of
    the type loading gives (an int, not 2.0, for an integer field).  A
    block field must hold its block, or None where it is Optional."""
    for b in fields(scn):
        block = getattr(scn, b.name)
        tp = b.type
        if get_origin(tp) is Union:
            if block is None:
                continue
            tp = get_args(tp)[0]
        if is_dataclass(tp) and not isinstance(block, tp):
            raise ScenarioError(f"the {_key(b)} block must be of type "
                                f"{tp.__name__}, got {block!r}")
        if is_dataclass(block):
            for f in fields(block):
                value = getattr(block, f.name)
                _check_type(f.type, value, _key(f))
                _check_bounds(f, value,
                              f"field {_key(f)!r} of the {_key(b)} block")


def override(scn: Scenario, block: str, name: str, value, option: str) -> None:
    """Set field ``name`` of the ``block`` block from the command-line
    ``option``, coerced and bounded as when the scenario is loaded."""
    target = getattr(scn, block)
    f = next(f for f in fields(target) if f.name == name)
    value = _coerce(f.type, value, name)
    _check_bounds(f, value, f"{option} overrides {block}.{name} and")
    setattr(target, name, value)


def scenario_from_dict(data: dict) -> Scenario:
    try:
        scn = _block_from_dict(Scenario, data, "scenario")
    except (TypeError, ValueError, OverflowError) as err:
        raise ScenarioError(f"malformed scenario: {err}") from err
    check_bounds(scn)
    return scn


def scenario_to_dict(block) -> dict:
    """A scenario (or one of its blocks) as JSON: every field that is not
    None, under its JSON key."""
    out = {}
    for f in fields(block):
        value = getattr(block, f.name)
        if value is not None:
            out[_key(f)] = scenario_to_dict(value) if is_dataclass(value) else value
    return out


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"invalid JSON in {path}: {err}") from err
    return scenario_from_dict(data)


def save_scenario(scn: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scn), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- builders ----------------------------------------------------------------

def build_plant(scn: Scenario) -> NormalFormPlant:
    block = scn.plant
    a11 = np.asarray(block.a11, dtype=float)
    if a11.shape != (block.m, block.m):
        raise ScenarioError(
            f"A11 has shape {a11.shape}, expected ({block.m}, {block.m})")
    if len(block.p) != block.m:
        raise ScenarioError(f"p must list {block.m} expressions")
    names = _plant_y_names(block.p1, block.p2)
    try:
        p_exprs = tuple(parse_expr(text, names) for text in block.p)
        return NormalFormPlant(a11=a11, p=p_exprs, p1=block.p1, p2=block.p2)
    except ExprError as err:
        raise ScenarioError(f"invalid plant expression: {err}") from err
    except Exception as err:
        raise ScenarioError(f"invalid plant block: {err}") from err


def _plant_y_names(p1: int, p2: int):
    return block_names("xi1", p1) + block_names("xi2", p2)


def resolve_synthesis_spec(scn: Scenario, plant: NormalFormPlant) -> SynthesisSpec:
    """Resolve "auto"/"default" placeholders into a concrete SynthesisSpec."""
    block = scn.spec
    if block.target not in ("NI", "OSNI"):
        raise ScenarioError(f"unknown target {block.target!r}; expected NI or OSNI")
    lam = block.lam
    if lam is None:
        lam = 1.0 if block.target == "OSNI" else 0.0
    lam = float(lam)
    if block.target == "OSNI" and lam <= 0:
        raise ScenarioError("the OSNI target requires lambda > 0")
    if isinstance(block.p_matrix, str):
        if block.p_matrix != "auto":
            raise ScenarioError(f"P must be a matrix or \"auto\", got {block.p_matrix!r}")
        verdict = classify_stability(plant.a11)
        p_matrix = lyapunov_certificate(plant.a11, verdict)
    else:
        p_matrix = np.asarray(block.p_matrix, dtype=float)
    if isinstance(block.v2, str) and block.v2 == "default":
        v2 = default_v2(plant)
    else:
        try:
            v2 = parse_expr(block.v2, plant.y_names)
        except ExprError as err:
            raise ScenarioError(f"invalid V2 expression: {err}") from err
    try:
        return SynthesisSpec(p_matrix=p_matrix, v2=v2, lam=lam)
    except Exception as err:
        raise ScenarioError(f"invalid synthesis spec: {err}") from err


def build_uncertainty(scn: Scenario) -> Optional[OsniUncertainty]:
    block = scn.uncertainty
    if block is None:
        return None
    xs_names = tuple(f"xs{i + 1}" for i in range(block.n_sigma))
    us_names = tuple(f"us{i + 1}" for i in range(len(block.h_sigma)))
    try:
        unc = OsniUncertainty(
            n_sigma=block.n_sigma,
            f_sigma=tuple(parse_expr(t, xs_names + us_names) for t in block.f_sigma),
            h_sigma=tuple(parse_expr(t, xs_names) for t in block.h_sigma),
            v_sigma=parse_expr(block.v_sigma, xs_names),
            epsilon_sigma=block.epsilon_sigma,
        )
    except ExprError as err:
        raise ScenarioError(f"invalid uncertainty expression: {err}") from err
    except Exception as err:
        raise ScenarioError(f"invalid uncertainty block: {err}") from err
    if len(block.x_sigma0) != block.n_sigma:
        raise ScenarioError(
            f"x_sigma0 must have {block.n_sigma} entries, got {len(block.x_sigma0)}")
    return unc


def build_general_form(scn: Scenario, plant: NormalFormPlant) -> Optional[GeneralForm]:
    block = scn.general_form
    if block is None:
        return None
    names = plant.state_names
    try:
        return GeneralForm(
            j1=tuple(parse_expr(t, names) for t in block.j1),
            j2=tuple(parse_expr(t, names) for t in block.j2),
            l1=tuple(tuple(parse_expr(t, names) for t in row) for row in block.l1),
            l2=tuple(tuple(parse_expr(t, names) for t in row) for row in block.l2),
        )
    except ExprError as err:
        raise ScenarioError(f"invalid general form expression: {err}") from err


def sampling_box(scn: Scenario, dim: int) -> np.ndarray:
    """Per-coordinate bounds for positivity sampling: the leading ``dim``
    coordinates of the configured box (default [-2, 2] everywhere)."""
    raw = scn.verification.sampling_box
    if raw is None:
        return np.tile([-2.0, 2.0], (dim, 1))
    box = np.asarray(raw, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ScenarioError("sampling_box must be a list of [lo, hi] pairs")
    if box.shape[0] < dim:
        raise ScenarioError(
            f"sampling_box covers {box.shape[0]} coordinates, needs {dim}")
    return box[:dim]


def default_input_catalog(p: int, seed: int) -> list:
    """Canonical verification signals: rest, a moderate step, and a seeded
    two-tone multisine per channel."""
    return [
        {"kind": "zero"},
        {"kind": "step", "amplitude": [0.2] * p, "start_time": 0.0},
        {"kind": "multisine",
         "amplitudes": [[0.2, 0.1]] * p,
         "frequencies": [[0.4, 0.9]] * p,
         "seed": seed},
    ]


def input_catalog(scn: Scenario, p: int) -> list:
    signals = scn.verification.input_signals
    if signals is None:
        signals = default_input_catalog(p, scn.simulation.seed)
    return signals
