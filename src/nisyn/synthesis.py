"""Feedback synthesis: storage functions, control laws, closed-loop dynamics.

The plant has the normal form

    z'   = A11 z + p(y)         z in R^m, internal dynamics
    xi1' = u1                   relative-degree-one outputs
    xi2' = xi3                  relative-degree-two outputs
    xi3' = u2
    y    = (xi1, xi2)

with p(0) = 0 and nonlinearity restricted to p(y).  Given a certificate
P > 0 for A11, a positive definite V2(y) and lambda >= 0, the storage

    V(z, xi) = alpha^T P alpha + V2(y) + 1/2 xi3^T xi3,
    alpha    = z + A11^{-1} p(y)

supports the feedback laws

    u1 = v1 - dV/dxi1,    u2 = v2 - dV/dxi2 - lambda*xi3,

which render the loop from the new input v to y negative imaginary with
output strictness epsilon = min(1, lambda).  alpha is substituted into V
symbolically before differentiation so the emitted laws are closed-form
expressions.  A11^{-1}, once the plant's verdict finds A11 invertible, and
for P = "auto" the certificate P (lyapunov.py) come from numpy alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

from .expr import (
    Const, Expr, Neg, Pow, Sum, Var, _children, _fold_above, _Walk, add,
    compile_exprs, differentiate, evaluate, fold_constants, mul, to_string,
    variables,
)
from .lyapunov import StabilityVerdict, classify_stability

__all__ = [
    "SynthesisError", "SingularMatrixError",
    "Dissipative", "NormalFormPlant", "SynthesisSpec", "ClosedLoopSystem",
    "GeneralForm",
    "block_names", "synthesize", "storage_value",
    "closed_loop_rhs", "reduce_general_form", "default_v2",
]

_ORIGIN_TOL = 1e-12


class SynthesisError(Exception):
    pass


class SingularMatrixError(SynthesisError):
    pass


def block_names(prefix: str, size: int) -> Tuple[str, ...]:
    """Canonical variable names for a state block: a single coordinate is
    unsuffixed (``xi1``), vector blocks are indexed (``xi1_1``, ``xi1_2``)."""
    if size == 1:
        return (prefix,)
    return tuple(f"{prefix}_{i + 1}" for i in range(size))


@dataclass
class NormalFormPlant:
    """Plant data: internal matrix A11 and output nonlinearity p(y).

    Treat as immutable after construction; derived quantities are cached.
    """
    a11: np.ndarray
    p: Tuple[Expr, ...]
    p1: int
    p2: int

    def __post_init__(self):
        self.a11 = np.asarray(self.a11, dtype=float)
        if self.a11.ndim != 2 or self.a11.shape[0] != self.a11.shape[1] \
                or self.a11.shape[0] < 1:
            raise SynthesisError(f"A11 must be square of order >= 1, "
                                 f"got shape {self.a11.shape}")
        if not np.isfinite(self.a11).all():
            raise SynthesisError("A11 entries must be finite")
        self.p = tuple(self.p)
        if len(self.p) != self.m:
            raise SynthesisError(
                f"p must have {self.m} entries to match A11, got {len(self.p)}")
        if self.p1 < 0 or self.p2 < 0 or self.p1 + self.p2 < 1:
            raise SynthesisError("output block sizes must satisfy p1, p2 >= 0, p1+p2 >= 1")
        allowed = set(self.y_names)
        for i, e in enumerate(self.p):
            extra = variables(e) - allowed
            if extra:
                raise SynthesisError(
                    f"p[{i}] references non-output variables {sorted(extra)}")
        origin = {name: 0.0 for name in self.y_names}
        for i, e in enumerate(self.p):
            _check_vanishes(e, origin, f"p[{i}]", "y = 0", SynthesisError)

    @property
    def m(self) -> int:
        return self.a11.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.p1 + self.p2

    @property
    def n_states(self) -> int:
        return self.m + self.p1 + 2 * self.p2

    @cached_property
    def z_names(self):
        return tuple(f"z{i + 1}" for i in range(self.m))

    @cached_property
    def xi1_names(self):
        return block_names("xi1", self.p1)

    @cached_property
    def xi2_names(self):
        return block_names("xi2", self.p2)

    @cached_property
    def xi3_names(self):
        return block_names("xi3", self.p2)

    @cached_property
    def y_names(self):
        return self.xi1_names + self.xi2_names

    @cached_property
    def state_names(self):
        return self.z_names + self.xi1_names + self.xi2_names + self.xi3_names

    @cached_property
    def a11_inverse(self) -> np.ndarray:
        """A11^-1; SingularMatrixError unless the verdict has det_nonzero."""
        v = self.verdict
        if not v.det_nonzero:
            raise SingularMatrixError(
                f"A11 is singular or numerically singular: sigma_min = "
                f"{v.sigma_min:.3e}, sigma_max = {v.sigma_max:.3e}")
        return np.linalg.solve(self.a11, np.eye(self.m))

    @cached_property
    def verdict(self) -> StabilityVerdict:
        """classify_stability(A11), computed once per plant."""
        return classify_stability(self.a11)


def default_v2(plant: NormalFormPlant) -> Expr:
    """Default positive definite output storage: squared output norm."""
    return add(*(Pow(Var(n), Fraction(2)) for n in plant.y_names))


@dataclass
class SynthesisSpec:
    """Designer choices: certificate P for A11, output storage V2, lambda.
    ``p_condition`` is cond_2(P), the ratio of P's largest eigenvalue to
    its smallest, taken from the eigenvalues that the positive definiteness
    check computes."""
    p_matrix: np.ndarray
    v2: Expr
    lam: float = 1.0
    p_condition: float = dataclasses.field(init=False)

    def __post_init__(self):
        self.p_matrix = np.asarray(self.p_matrix, dtype=float)
        if self.lam < 0:
            raise SynthesisError("lambda must be nonnegative")
        n = self.p_matrix.shape
        if self.p_matrix.ndim != 2 or n[0] != n[1]:
            raise SynthesisError("P must be a square matrix")
        if np.linalg.norm(self.p_matrix - self.p_matrix.T, 2) > \
                1e-9 * max(1.0, np.linalg.norm(self.p_matrix, 2)):
            raise SynthesisError("P must be symmetric")
        eigenvalues = np.linalg.eigvalsh(self.p_matrix)  # ascending
        if eigenvalues[0] <= 0:
            raise SynthesisError("P must be positive definite")
        self.p_condition = float(eigenvalues[-1] / eigenvalues[0])


class Dissipative:
    """A system x' = f(x, u), y = h(x) with storage S(x) and the inequality
    S' <= u^T y' - sum_b w_b |y_b'|^2 that sim.simulate checks.  A subclass
    supplies ``state_names``, ``input_names`` (by default none, and then no
    supply term), ``rhs_exprs`` over both, ``output_exprs`` and
    ``storage_expr`` over the states, and ``strictness``: one
    ``(width, weight)`` per block of outputs.  ``storage``, ``output`` and
    ``rhs`` take one point (k,) or a stack (N, k); any other shape is a
    ValueError that names the class, k and the shape.
    """

    input_names: Tuple[str, ...] = ()

    def _checked(self, x, field: bool = False) -> np.ndarray:
        """``x`` as floats, when it is a point (k,) or a stack (N, k), with
        k the number of states, or of states and inputs for the field."""
        x = np.asarray(x, dtype=float)
        k = len(self.state_names) + (len(self.input_names) if field else 0)
        if x.ndim not in (1, 2) or x.shape[-1] != k:
            what = "states and inputs" if field else "states"
            raise ValueError(
                f"{type(self).__name__} takes a point ({k},) or a stack "
                f"(N, {k}) of {what}, got shape {x.shape}")
        return x

    @cached_property
    def _rhs_fn(self):
        return compile_exprs(self.rhs_exprs, self.state_names + self.input_names)

    @cached_property
    def _storage_fn(self):
        """[storage] over the states."""
        return compile_exprs([self.storage_expr], self.state_names)

    @cached_property
    def _output_fn(self):
        """The outputs over the states."""
        return compile_exprs(self.output_exprs, self.state_names)

    def storage(self, x: np.ndarray):
        """S at one state (float) or at a stack of states (N,)."""
        s = self._storage_fn(self._checked(x))[..., 0]
        return s if s.ndim else float(s)

    def output(self, x: np.ndarray) -> np.ndarray:
        """y at one state (k,) or at a stack of states (N, k)."""
        return self._output_fn(self._checked(x))

    def rhs(self, x: np.ndarray, u: np.ndarray = ()) -> np.ndarray:
        """f(x, u) at one state and input, (n,) and (p,), or at stacks of
        them, (N, n) and (N, p); a system without inputs takes the states
        alone."""
        x = self._checked(x)
        if self.input_names or np.size(u):
            x = self._checked(np.concatenate([x, np.asarray(u, dtype=float)],
                                             axis=-1), field=True)
        return self._rhs_fn(x)


@dataclass
class ClosedLoopSystem(Dissipative):
    """Synthesized loop: storage expression, gradients and feedback laws.

    ``u1_laws``/``u2_laws`` are the feedback parts only; ``rhs_exprs`` adds
    the new input v, for which an interconnection substitutes the
    uncertainty output w.  Its outputs are y, with strictness epsilon.
    Immutable after synthesis; right-hand-side evaluation is reentrant.
    """
    plant: NormalFormPlant
    spec: SynthesisSpec
    storage_expr: Expr
    grad_xi1: Tuple[Expr, ...]
    grad_xi2: Tuple[Expr, ...]
    u1_laws: Tuple[Expr, ...]
    u2_laws: Tuple[Expr, ...]
    epsilon: float

    def __post_init__(self):
        plant = self.plant
        self.state_names = plant.state_names
        self.input_names = tuple(f"v{i + 1}" for i in range(plant.n_outputs))
        self.output_exprs = tuple(Var(n) for n in plant.y_names)
        self.strictness = ((plant.n_outputs, self.epsilon),)

    @cached_property
    def rhs_exprs(self) -> Tuple[Expr, ...]:
        """The loop's vector field over ``state_names + input_names``.  The
        rows are built as Sums directly, so they evaluate term for term like
        ``A11 z + p(y)`` and ``v + law``; zero A11 entries are kept."""
        plant = self.plant
        v = [Var(n) for n in self.input_names]
        dz = tuple(
            Sum((add(*(mul(Const(Fraction(c)), Var(z))
                       for c, z in zip(row, plant.z_names))), p_i))
            for row, p_i in zip(plant.a11, plant.p))
        dxi1 = tuple(Sum((vi, law)) for vi, law in zip(v, self.u1_laws))
        dxi2 = tuple(Var(n) for n in plant.xi3_names)
        dxi3 = tuple(Sum((vi, law)) for vi, law in zip(v[plant.p1:], self.u2_laws))
        return dz + dxi1 + dxi2 + dxi3

    def law_strings(self) -> dict:
        return {
            "u1": [to_string(e) for e in self.u1_laws],
            "u2": [to_string(e) for e in self.u2_laws],
        }


def _alpha_exprs(plant: NormalFormPlant) -> Tuple[Expr, ...]:
    inv = plant.a11_inverse
    out = []
    for i in range(plant.m):
        terms = [Var(plant.z_names[i])]
        for j in range(plant.m):
            c = inv[i, j]
            if c != 0.0:
                terms.append(mul(Const(Fraction(c)), plant.p[j]))
        out.append(add(*terms))
    return tuple(out)


def _negative_powers(e: Expr) -> list:
    """The negative powers in ``e``, outermost first; a shared node object
    counts where it is first reached."""
    out: list = []

    def visit(e: Expr, walk) -> None:
        if isinstance(e, Pow) and e.exponent < 0:
            out.append(e)
        for part in _children(e):
            walk(part)

    _Walk(visit)(e)
    return out


def _vanishes(e: Expr, origin: dict) -> bool:
    try:
        return abs(evaluate(e, origin)) <= _ORIGIN_TOL
    except ZeroDivisionError:
        return True


def _check_vanishes(e: Expr, origin: dict, label: str, where: str,
                    error: type) -> None:
    """Refuse with ``error`` a scenario entry, named ``label``, that is
    singular, beyond the float range or nonzero at ``where`` (say "y = 0")."""
    try:
        v = evaluate(e, origin)
    except ZeroDivisionError:
        raise error(f"{label} is singular at {where}") from None
    except OverflowError:
        raise error(f"{label} is beyond the float range at {where}") from None
    if abs(v) > _ORIGIN_TOL:
        raise error(f"{label} must vanish at {where}, got {v:.3e}")


def synthesize(plant: NormalFormPlant, spec: SynthesisSpec) -> ClosedLoopSystem:
    """Build the storage function and feedback laws for the plant.  Laws
    that are singular at the origin are rejected with SynthesisError."""
    if spec.p_matrix.shape[0] != plant.m:
        raise SynthesisError(
            f"P has order {spec.p_matrix.shape[0]}, expected {plant.m}")
    extra = variables(spec.v2) - set(plant.y_names)
    if extra:
        raise SynthesisError(f"V2 references non-output variables {sorted(extra)}")

    alph = _alpha_exprs(plant)
    pm = spec.p_matrix
    quad_terms = []
    for i in range(plant.m):
        for j in range(plant.m):
            c = pm[i, j]
            if c != 0.0:
                quad_terms.append(mul(Const(Fraction(c)), alph[i], alph[j]))
    kinetic = [mul(Const(Fraction(1, 2)), Pow(Var(n), Fraction(2)))
               for n in plant.xi3_names]
    storage = fold_constants(add(*quad_terms, spec.v2, *kinetic))

    grad_xi1 = tuple(fold_constants(differentiate(storage, n))
                     for n in plant.xi1_names)
    grad_xi2 = tuple(fold_constants(differentiate(storage, n))
                     for n in plant.xi2_names)
    # the gradients are folded: fold only the nodes the laws add on them
    u1_laws = tuple(_fold_above(Neg(g), g) for g in grad_xi1)
    lam = Fraction(spec.lam)
    u2_laws = tuple(
        _fold_above(add(Neg(g), mul(Const(-lam), Var(x3))), g)
        for g, x3 in zip(grad_xi2, plant.xi3_names))
    origin = {name: 0.0 for name in plant.state_names}
    for label, laws in (("u1", u1_laws), ("u2", u2_laws)):
        for i, law in enumerate(laws):
            for q in _negative_powers(law):
                if _vanishes(q.base, origin):
                    raise SynthesisError(
                        f"feedback law {label}[{i + 1}] contains {to_string(q)}, "
                        "which is singular at the origin")
    return ClosedLoopSystem(
        plant=plant,
        spec=spec,
        storage_expr=storage,
        grad_xi1=grad_xi1,
        grad_xi2=grad_xi2,
        u1_laws=u1_laws,
        u2_laws=u2_laws,
        epsilon=min(1.0, float(spec.lam)),
    )


def storage_value(state: np.ndarray, closed_loop: ClosedLoopSystem):
    """V at one state (float) or at a stack of states (N,)."""
    return closed_loop.storage(state)


def closed_loop_rhs(state: np.ndarray, v: np.ndarray,
                    closed_loop: ClosedLoopSystem) -> np.ndarray:
    """Vector field of the synthesized loop driven by the new input v."""
    return closed_loop.rhs(state, v)


# --- general normal form ----------------------------------------------------

@dataclass
class GeneralForm:
    """Drift and input-gain expressions of the pre-normal-form plant:

        xi1' = j1(z, xi) + l1(z, xi) u~
        xi3' = j2(z, xi) + l2(z, xi) u~

    with the stacked gain [l1; l2] square (p x p).  Expressions are over the
    plant state variables.
    """
    j1: Tuple[Expr, ...]
    j2: Tuple[Expr, ...]
    l1: Tuple[Tuple[Expr, ...], ...]
    l2: Tuple[Tuple[Expr, ...], ...]

    def __post_init__(self):
        self.j1 = tuple(self.j1)
        self.j2 = tuple(self.j2)
        self.l1 = tuple(tuple(row) for row in self.l1)
        self.l2 = tuple(tuple(row) for row in self.l2)


def reduce_general_form(gform: GeneralForm, plant: NormalFormPlant
                        ) -> Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The input transform of ``gform`` as a function of the state, one (n,)
    or a stack (N, n): at a state it maps a desired normal-form input u,
    (p,) or (N, p), to u~ = [l1; l2]^{-1} (u - j).  The sizes of the drift
    and the stacked gain are checked, and the entries compiled, here; the
    gain is checked at each state it is given."""
    p = plant.n_outputs
    if len(gform.j1) != plant.p1 or len(gform.j2) != plant.p2:
        raise SynthesisError("general form drift dimensions do not match the plant")
    rows = list(gform.l1) + list(gform.l2)
    if len(rows) != p or any(len(r) != p for r in rows):
        raise SynthesisError(f"stacked input gain must be {p}x{p}")
    field = compile_exprs([*gform.j1, *gform.j2, *(e for r in rows for e in r)],
                          plant.state_names)

    def at(state: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        state = np.asarray(state, dtype=float)
        values = field(state)
        finite = np.atleast_1d(np.isfinite(values).all(axis=-1))
        if not finite.all():
            where = np.atleast_2d(state)[np.argmin(finite)]
            raise SingularMatrixError(
                "input gain or drift is not finite at state "
                + ", ".join(f"{n}={x:.6g}" for n, x in zip(plant.state_names, where)))
        j_vec, l_mat = values[..., :p], values[..., p:].reshape(state.shape[:-1] + (p, p))
        cond = np.atleast_1d(np.linalg.cond(l_mat))
        bad = cond[~(cond <= 1e10)]  # also catches nan and inf
        if bad.size:
            raise SingularMatrixError(
                f"input gain is singular or ill-conditioned at this state (cond={bad[0]:.3e})")

        def transform(u: np.ndarray) -> np.ndarray:
            u = np.asarray(u, dtype=float)
            if u.shape != j_vec.shape:
                raise SynthesisError("input transform: dimension mismatch")
            return np.linalg.solve(l_mat, (u - j_vec)[..., None])[..., 0]

        return transform

    return at
