"""OSNI uncertainty blocks and their positive-feedback interconnection.

The uncertainty is an expression-defined system

    xs' = f(xs, us),    ys = h(xs),

declared output strictly negative imaginary with storage Vs and strictness
epsilon_s > 0.  OSNI-ness of the block is a user claim validated empirically
by the simulation checkers, not proven from the expressions.  Wired in
positive feedback with a synthesized closed loop (w = ys drives the loop,
us = y), the composite storage

    W(z, xi, xs) = V(z, xi) + Vs(xs) - h(xs)^T (xi1, xi2)

decreases along trajectories whenever both sides hold their dissipation
inequalities.  The block and the interconnection are synthesis.Dissipative
systems, which sim.simulate runs as it runs the loop, with one residual.
``interconnection_rhs`` and ``composite_storage`` are the interconnection's
``rhs`` and ``storage``, whose base checks the width of every state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Tuple

import numpy as np

# compile_exprs stays imported, although the Dissipative base compiles every
# field here: perfbench's tracer wraps this module's name for it.
from .expr import (
    Const, Expr, Var, add, compile_exprs, fold_constants, mul, substitute,
    variables,
)
from .synthesis import ClosedLoopSystem, Dissipative, _check_vanishes

__all__ = [
    "UncertaintyError", "OsniUncertainty", "Interconnection",
    "interconnection_rhs", "composite_storage",
]


class UncertaintyError(Exception):
    pass


@dataclass
class OsniUncertainty(Dissipative):
    """Expression-defined uncertainty with declared output strictness."""
    n_sigma: int
    f_sigma: Tuple[Expr, ...]
    h_sigma: Tuple[Expr, ...]
    v_sigma: Expr
    epsilon_sigma: float

    def __post_init__(self):
        self.f_sigma = tuple(self.f_sigma)
        self.h_sigma = tuple(self.h_sigma)
        if self.n_sigma < 1:
            raise UncertaintyError("n_sigma must be at least 1")
        if len(self.f_sigma) != self.n_sigma:
            raise UncertaintyError(
                f"f_sigma must have {self.n_sigma} entries, got {len(self.f_sigma)}")
        if not self.h_sigma:
            raise UncertaintyError("h_sigma must have at least one entry")
        if self.epsilon_sigma <= 0:
            raise UncertaintyError("epsilon_sigma must be positive")
        allowed_f = set(self.state_names) | set(self.input_names)
        allowed_h = set(self.state_names)
        entries = ([(f"f_sigma[{i}]", e, allowed_f) for i, e in enumerate(self.f_sigma)]
                   + [(f"h_sigma[{i}]", e, allowed_h) for i, e in enumerate(self.h_sigma)]
                   + [("V_sigma", self.v_sigma, allowed_h)])
        for label, e, allowed in entries:
            extra = variables(e) - allowed
            if extra:
                raise UncertaintyError(
                    f"{label} references unknown variables {sorted(extra)}")
        origin = {n: 0.0 for n in allowed_f}
        for label, e, _ in entries:
            _check_vanishes(e, origin, label, "the origin", UncertaintyError)
        self.rhs_exprs = self.f_sigma
        self.output_exprs = self.h_sigma
        self.storage_expr = self.v_sigma
        self.strictness = ((self.n_outputs, self.epsilon_sigma),)

    @property
    def n_outputs(self) -> int:
        return len(self.h_sigma)

    @cached_property
    def state_names(self):
        return tuple(f"xs{i + 1}" for i in range(self.n_sigma))

    @cached_property
    def input_names(self):
        return tuple(f"us{i + 1}" for i in range(self.n_outputs))


@dataclass
class Interconnection(Dissipative):
    """Positive feedback wiring w = ys, us = y between a synthesized closed
    loop (running its pure state-feedback laws) and an OSNI uncertainty.  It
    has no input, storage W and outputs (y, h(xs)) with strictness (epsilon,
    epsilon_sigma), so its residual is W' + eps|y'|^2 + eps_sigma|h'|^2."""
    closed_loop: ClosedLoopSystem
    uncertainty: OsniUncertainty

    def __post_init__(self):
        cl, unc = self.closed_loop, self.uncertainty
        p = cl.plant.n_outputs
        if unc.n_outputs != p:
            raise UncertaintyError(
                f"uncertainty output dimension {unc.n_outputs} "
                f"does not match the plant output dimension {p}")
        self.output_exprs = cl.output_exprs + unc.output_exprs
        self.strictness = cl.strictness + unc.strictness

    @property
    def n_states(self) -> int:
        return self.closed_loop.plant.n_states + self.uncertainty.n_sigma

    @cached_property
    def state_names(self):
        return self.closed_loop.plant.state_names + self.uncertainty.state_names

    @cached_property
    def storage_expr(self) -> Expr:
        """W = V + Vs - h(xs)^T y."""
        plant = self.closed_loop.plant
        cross = [mul(Const(Fraction(-1)), h, Var(y))
                 for h, y in zip(self.uncertainty.h_sigma, plant.y_names)]
        return fold_constants(add(self.closed_loop.storage_expr,
                                  self.uncertainty.v_sigma, *cross))

    @cached_property
    def rhs_exprs(self) -> Tuple[Expr, ...]:
        """Joint vector field over ``state_names``: the loop's rows with
        v := h(xs), then f_sigma with us := y."""
        cl, unc = self.closed_loop, self.uncertainty
        w = dict(zip(cl.input_names, unc.h_sigma))
        us = {u: Var(y) for u, y in zip(unc.input_names, cl.plant.y_names)}
        return (tuple(substitute(e, w) for e in cl.rhs_exprs)
                + tuple(substitute(f, us) for f in unc.f_sigma))


def interconnection_rhs(joint_state: np.ndarray,
                        interconnection: Interconnection) -> np.ndarray:
    """Joint vector field: the loop driven by w = h(xs), the uncertainty by
    us = y."""
    return interconnection.rhs(joint_state)


def composite_storage(joint_state: np.ndarray,
                      interconnection: Interconnection):
    """W = V + Vs - h(xs)^T y at a joint state (float) or a stack (N,)."""
    return interconnection.storage(joint_state)
