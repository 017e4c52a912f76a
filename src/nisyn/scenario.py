"""Scenario files: the declarative interface to the toolkit.

A scenario is a JSON document with named blocks; expressions are strings in
the repository grammar.  The block dataclasses below, signal blocks
included, are the schema: a field is read from the key of its name (or
``metadata["key"]``), takes its default when the key is absent, and must be
of its annotation's JSON type: an array for ``list``, an object for
``dict``, a string for ``str``, a number that is not a boolean for
``float``, and an integer or an integral float for ``int``.  An
expression field is ``list[str]``, an array of strings, or
``list[list[str]]``, an array of arrays of strings.  Its metadata bounds
it: not below ``"minimum"``, above 0 if ``"positive"``, not NaN or
infinite if ``"finite"``, one of ``"choices"``, an array of finite
numbers (no strings or booleans) of ``"shape"`` (None: any length),
signal specs if ``"signals"`` (one, or a list of at least one).  Each
block class's fields are read once (_fields).  check_bounds checks these
types (without coercion) and bounds when a scenario is loaded and when
cli.Pipeline is built on it, override each command-line value, and the
builders the lengths that other fields fix.  The scenario table of
README.md lists every key with its default and bounds.

A signal spec is an object with a ``kind`` (a key of SIGNAL_BLOCKS) and the
fields of its block; a ``seed`` that is absent or null is simulation.seed.

A block that is not a JSON object is an error; ``general_form``,
``uncertainty`` and ``regression`` may also be null, which means absent.
Saving writes every field that is not None, and loading then saving then
loading yields an identical in-memory scenario.
"""

import functools
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Optional, Union, get_args, get_origin

import numpy as np

from .expr import ExprError, parse_expr
# classify_stability is unused here but kept for tracers that patch it by name
from .lyapunov import classify_stability, lyapunov_certificate
from .sim import bandlimited_signal, multisine_signal, step_signal, zero_signal
from .synthesis import (
    GeneralForm, NormalFormPlant, SynthesisSpec, block_names, default_v2,
)
from .uncertainty import OsniUncertainty

__all__ = [
    "ScenarioError", "Scenario", "PlantBlock", "SpecBlock",
    "GeneralFormBlock", "UncertaintyBlock", "SimulationBlock",
    "VerificationBlock", "RegressionBlock", "ZeroSignal", "StepSignal",
    "MultisineSignal", "BandlimitedSignal", "SIGNAL_BLOCKS",
    "load_scenario", "save_scenario", "scenario_from_dict", "scenario_to_dict",
    "build_plant", "resolve_synthesis_spec", "build_uncertainty",
    "build_general_form", "sampling_box", "default_input_catalog", "override",
    "check_bounds", "initial_state", "signal_from_spec",
]


class ScenarioError(Exception):
    pass


_FINITE_POSITIVE = {"finite": True, "positive": True}


@dataclass
class PlantBlock:
    m: int = field(metadata={"minimum": 1})
    p1: int = field(metadata={"minimum": 0})
    p2: int = field(metadata={"minimum": 0})
    a11: list = field(metadata={"key": "A11", "shape": (None, None)})
    p: list[str]


@dataclass
class SpecBlock:
    # "auto" or a matrix
    p_matrix: object = field(default="auto",
                             metadata={"key": "P", "shape": (None, None)})
    v2: str = field(default="default", metadata={"key": "V2"})
    lam: Optional[float] = field(
        default=None, metadata={"key": "lambda", "finite": True, "minimum": 0})
    target: str = field(default="OSNI", metadata={"choices": ("NI", "OSNI")})


@dataclass
class GeneralFormBlock:
    j1: list[str]
    j2: list[str]
    l1: list[list[str]]
    l2: list[list[str]]


@dataclass
class UncertaintyBlock:
    n_sigma: int = field(metadata={"minimum": 1})
    f_sigma: list[str]
    h_sigma: list[str]
    v_sigma: str = field(metadata={"key": "V_sigma"})
    epsilon_sigma: float = field(metadata=_FINITE_POSITIVE)
    x_sigma0: Optional[list] = field(default=None, metadata={"shape": (None,)})

    def __post_init__(self):
        if self.x_sigma0 is None:
            self.x_sigma0 = [0.0] * self.n_sigma


@dataclass
class SimulationBlock:
    x0: list = field(metadata={"shape": (None,)})
    dt: float = field(default=1e-3, metadata=_FINITE_POSITIVE)
    t_end: float = field(default=10.0, metadata=_FINITE_POSITIVE)
    input: dict = field(default_factory=lambda: {"kind": "zero"},
                        metadata={"signals": True})
    seed: int = field(default=0, metadata={"minimum": 0})


@dataclass
class VerificationBlock:
    dissipation_tol: float = field(default=1e-3, metadata=_FINITE_POSITIVE)
    # defaults to 10*dt at use site
    w_decrease_tol: Optional[float] = field(default=None,
                                            metadata=_FINITE_POSITIVE)
    sampling_box: Optional[list] = field(default=None,
                                         metadata={"shape": (None, 2)})
    samples: int = field(default=20000, metadata={"minimum": 0})
    pd_seed: int = field(default=0, metadata={"minimum": 0})
    convergence_threshold: float = field(default=0.08, metadata=_FINITE_POSITIVE)
    nominal_convergence_threshold: Optional[float] = field(
        default=None, metadata=_FINITE_POSITIVE)
    settle_window: float = field(default=1.0,
                                 metadata={"finite": True, "minimum": 0})
    input_signals: Optional[list] = field(default=None,
                                          metadata={"signals": True})


@dataclass
class RegressionBlock:
    u1: list[str] = field(default_factory=list)
    u2: list[str] = field(default_factory=list)


# --- signal blocks: the fields of an input signal spec, by its "kind" ---------

@dataclass
class ZeroSignal:
    pass


@dataclass
class StepSignal:
    amplitude: list = field(metadata={"shape": (None,)})
    start_time: float = field(default=0.0, metadata={"finite": True})


@dataclass
class MultisineSignal:
    amplitudes: list = field(metadata={"shape": (None, None)})
    frequencies: list = field(metadata={"shape": (None, None)})
    seed: Optional[int] = field(default=None, metadata={"minimum": 0})


@dataclass
class BandlimitedSignal:
    amplitude: float = field(default=0.1, metadata={"finite": True})
    cutoff: float = field(default=1.0, metadata=_FINITE_POSITIVE)
    components: int = field(default=8, metadata={"minimum": 1})
    seed: Optional[int] = field(default=None, metadata={"minimum": 0})


SIGNAL_BLOCKS = {"zero": ZeroSignal, "step": StepSignal,
                 "multisine": MultisineSignal, "bandlimited": BandlimitedSignal}


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


def _field(key: str, block: str) -> str:
    """How an error message names field ``key`` of the ``block`` block."""
    return f"field {key!r} of the {block} block"


# The JSON types that a field of each annotation takes, and their name.
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), list: ((list,), "a JSON array"),
               dict: ((dict,), "a JSON object")}


class _Field:
    """A field of a block class as loading and check_bounds read it: its
    annotation is read once, here."""
    __slots__ = ("name", "key", "tp", "optional", "block", "json", "strings",
                 "meta", "default", "required")

    def __init__(self, f):
        tp = f.type
        self.optional = get_origin(tp) is Union
        if self.optional:
            tp = get_args(tp)[0]
        # the depth of strings in list[str] (1) and list[list[str]] (2)
        depth, inner = 0, tp
        while get_origin(inner) is list:
            depth, inner = depth + 1, get_args(inner)[0]
        self.strings = depth if inner is str else 0
        self.tp = get_origin(tp) or tp  # without Optional and element types
        self.block = is_dataclass(self.tp)
        self.json = _JSON_TYPES.get(self.tp)  # None for a block or object
        self.name, self.key = f.name, f.metadata.get("key", f.name)
        self.meta, self.default = f.metadata, f.default
        self.required = f.default is MISSING and f.default_factory is MISSING


@functools.cache
def _fields(cls) -> tuple:
    """The _Field of each field of block class ``cls``, worked out once per
    class."""
    return tuple(_Field(f) for f in fields(cls))


def _coerce(f: _Field, value):
    """A JSON value as the field's type; Optional keeps null as None.  A
    value must be of one of the field's JSON types, where a boolean is not
    a number and an integral float is an integer."""
    if value is None and f.optional:
        return None
    if f.block:
        return _block_from_dict(f.tp, value, f.key)
    if f.tp is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    _check_type(f, value)
    return value if f.json is None else f.tp(value)


def _check_type(f: _Field, value) -> None:
    """``value`` is of one of the JSON types of field ``f``, as it is,
    where a boolean is not a number.  Fields without a JSON type (a block,
    ``object``) are not checked here."""
    if f.json is None:
        return
    types, kind = f.json
    if isinstance(value, bool) or not isinstance(value, types):
        raise ScenarioError(f"field {f.key!r} must be {kind}, got {value!r}")


def _check_bounds(f: _Field, value, subject: str) -> None:
    """The bounds that field ``f`` declares; ``subject`` starts the error
    message and names the field; None (an absent Optional value) has no
    bounds, nor has a string field default such as P's "auto"."""
    meta = f.meta
    if value is None:
        return
    if meta.get("finite"):
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise _too_large(subject) from None
        if not finite:
            raise ScenarioError(f"{subject} must be a finite number, got {value!r}")
    if meta.get("positive") and not value > 0:
        raise ScenarioError(f"{subject} must be positive, got {value!r}")
    if "minimum" in meta and value < meta["minimum"]:
        raise ScenarioError(f"{subject} must be at least {meta['minimum']}, "
                            f"got {value!r}")
    if "choices" in meta and value not in meta["choices"]:
        raise ScenarioError(f"{subject} must be one of {meta['choices']}, "
                            f"got {value!r}")
    if f.strings and not _holds_strings(value, f.strings):
        rows = "rows of " if f.strings == 2 else ""
        raise ScenarioError(f"{subject} must be a list of {rows}strings, "
                            f"got {value!r}")
    if "shape" in meta and not (isinstance(value, str) and value == f.default):
        _numbers(value, meta["shape"], subject)
    if meta.get("signals"):  # one spec, or a list of at least one
        specs = value if isinstance(value, list) else [value]
        if not specs:
            raise ScenarioError(f"{subject} must list at least one signal, got []")
        for spec in specs:
            _signal_block(spec)


def _holds_strings(value, depth: int) -> bool:
    """``value`` is a string at depth 0, a list of strings at depth 1 and
    a list of lists of strings at depth 2."""
    if not depth:
        return isinstance(value, str)
    return isinstance(value, list) and all(_holds_strings(v, depth - 1)
                                           for v in value)


def _numbers(value, shape: tuple, subject: str) -> np.ndarray:
    """``value`` as a float array: a JSON array (or an ndarray set in code)
    of ``shape``, where None is any length, whose entries are all finite
    numbers, none a string or a boolean."""
    entries = np.asarray(value, dtype=object)  # lists left where rows differ
    if not isinstance(value, (list, np.ndarray)) or entries.ndim != len(shape) \
            or not all(n in (None, got) for n, got in zip(shape, entries.shape)) \
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in entries.flat):
        raise ScenarioError(f"{subject} must be {_describe(shape)}, got {value!r}")
    try:
        array = entries.astype(float)
    except OverflowError:
        raise ScenarioError(f"{subject} must hold finite numbers, got an int too "
                            "large to convert to float") from None
    if not np.isfinite(array).all():
        raise ScenarioError(f"{subject} must hold finite numbers, got {value!r}")
    return array


def _describe(shape: tuple) -> str:
    """An array of ``shape`` in words: "a list of 4 numbers", "a list of
    rows of 2 numbers", "a list of 2 equal-length rows of numbers"."""
    count = ["" if n is None else f"{n} " for n in shape]
    if len(shape) == 1:
        return f"a list of {count[0]}numbers"
    equal = "equal-length " if shape[1] is None else ""
    return f"a list of {count[0]}{equal}rows of {count[1]}numbers"


def _too_large(subject: str) -> ScenarioError:
    """The error for an integer beyond the float range in a float field."""
    return ScenarioError(f"{subject} must be a finite number, got an int too "
                         "large to convert to float")


def _block_from_dict(cls, raw, block: str):
    if not isinstance(raw, dict):
        raise ScenarioError(f"{block} block must be a JSON object")
    values = {}
    for f in _fields(cls):
        if f.key in raw:
            try:
                values[f.name] = _coerce(f, raw[f.key])
            except OverflowError:  # float() of an integer beyond its range
                raise _too_large(_field(f.key, block)) from None
        elif f.required:
            raise ScenarioError(f"{block} block is missing required field {f.key!r}")
    return cls(**values)


def check_bounds(block, name: str = "scenario") -> None:
    """The JSON type and every bound that a field of ``block`` (a scenario,
    or a block that messages call the ``name`` block) declares, as when the
    scenario is loaded, and so also on a scenario built or changed in code.
    Nothing is coerced: a value set in code must already be of the type
    loading gives (an int, not 2.0, for an integer field).  A block field
    must hold its block, or None where it is Optional."""
    for f in _fields(type(block)):
        value = getattr(block, f.name)
        if value is None and f.optional:
            continue
        if not f.block:
            _check_type(f, value)
            _check_bounds(f, value, _field(f.key, name))
        elif not isinstance(value, f.tp):
            raise ScenarioError(f"the {f.key} block must be of type "
                                f"{f.tp.__name__}, got {value!r}")
        else:
            check_bounds(value, f.key)


def _signal_block(spec):
    """The signal block of an input signal spec: the block of its ``kind``,
    read from its other keys as a scenario block is, bounds included."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in SIGNAL_BLOCKS:
        raise ScenarioError("an input signal must be a JSON object whose 'kind' "
                            f"is one of {tuple(SIGNAL_BLOCKS)}, got {spec!r}")
    block = _block_from_dict(SIGNAL_BLOCKS[kind], spec, f"{kind} signal")
    check_bounds(block, f"{kind} signal")
    return block


def override(scn: Scenario, block: str, name: str, value, option: str) -> None:
    """Set field ``name`` of the ``block`` block from the command-line
    ``option``, coerced and bounded as when the scenario is loaded."""
    target = getattr(scn, block)
    f = next(f for f in _fields(type(target)) if f.name == name)
    value = _coerce(f, value)
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
    for f in _fields(type(block)):
        value = getattr(block, f.name)
        if value is not None:
            out[f.key] = scenario_to_dict(value) if is_dataclass(value) else value
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

# The builders check the lengths of the array fields that other fields fix;
# check_bounds has already checked their entries.

def build_plant(scn: Scenario) -> NormalFormPlant:
    block = scn.plant
    a11 = _numbers(block.a11, (block.m, block.m), _field("A11", "plant"))
    if len(block.p) != block.m:
        raise ScenarioError(f"p must list {block.m} expressions")
    names = block_names("xi1", block.p1) + block_names("xi2", block.p2)
    try:
        p_exprs = tuple(parse_expr(text, names) for text in block.p)
        return NormalFormPlant(a11=a11, p=p_exprs, p1=block.p1, p2=block.p2)
    except ExprError as err:
        raise ScenarioError(f"invalid plant expression: {err}") from err
    except Exception as err:
        raise ScenarioError(f"invalid plant block: {err}") from err


def resolve_synthesis_spec(scn: Scenario, plant: NormalFormPlant) -> SynthesisSpec:
    """Resolve "auto"/"default" placeholders into a concrete SynthesisSpec."""
    block = scn.spec
    lam = block.lam
    if lam is None:
        lam = 1.0 if block.target == "OSNI" else 0.0
    lam = float(lam)
    if block.target == "OSNI" and lam <= 0:
        raise ScenarioError("the OSNI target requires lambda > 0")
    if isinstance(block.p_matrix, str):  # "auto"
        p_matrix = lyapunov_certificate(plant.a11, plant.verdict)
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
    _numbers(block.x_sigma0, (block.n_sigma,), _field("x_sigma0", "uncertainty"))
    return unc


def initial_state(scn: Scenario, size: int) -> np.ndarray:
    """``simulation.x0`` as ``size`` floats."""
    return _numbers(scn.simulation.x0, (size,), _field("x0", "simulation"))


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
    return default_input_catalog(p, scn.simulation.seed) if signals is None \
        else signals


def signal_from_spec(spec: dict, p: int, default_seed: int = 0):
    """The p-channel signal of an input signal spec; a seeded kind whose
    spec has no seed, or a null one, takes ``default_seed``."""
    block = _signal_block(spec)
    name = f"{spec['kind']} signal"
    if isinstance(block, StepSignal):
        amplitude = _numbers(block.amplitude, (p,), _field("amplitude", name))
        return step_signal(amplitude, block.start_time)
    seed = getattr(block, "seed", None)
    seed = default_seed if seed is None else seed
    if isinstance(block, MultisineSignal):
        amplitudes = _numbers(block.amplitudes, (p, None),
                              _field("amplitudes", name))
        frequencies = _numbers(block.frequencies, amplitudes.shape,
                               _field("frequencies", name))
        return multisine_signal(amplitudes, frequencies, seed=seed)
    if isinstance(block, BandlimitedSignal):
        return bandlimited_signal(p, block.amplitude, block.cutoff,
                                  block.components, seed)
    return zero_signal(p)
