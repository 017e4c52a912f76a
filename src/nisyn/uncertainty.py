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
inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Tuple

import numpy as np

from .expr import (
    Const, Expr, Var, add, compile_exprs, evaluate, fold_constants, mul,
    substitute, variables,
)
from .synthesis import ClosedLoopSystem

__all__ = [
    "UncertaintyError", "OsniUncertainty", "Interconnection",
    "interconnection_rhs", "composite_storage",
]

_ORIGIN_TOL = 1e-12


class UncertaintyError(Exception):
    pass


@dataclass
class OsniUncertainty:
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
        for i, e in enumerate(self.f_sigma):
            extra = variables(e) - allowed_f
            if extra:
                raise UncertaintyError(
                    f"f_sigma[{i}] references unknown variables {sorted(extra)}")
        for i, e in enumerate(self.h_sigma):
            extra = variables(e) - allowed_h
            if extra:
                raise UncertaintyError(
                    f"h_sigma[{i}] references unknown variables {sorted(extra)}")
        extra = variables(self.v_sigma) - allowed_h
        if extra:
            raise UncertaintyError(
                f"V_sigma references unknown variables {sorted(extra)}")
        origin = {n: 0.0 for n in allowed_f}
        for i, e in enumerate(self.f_sigma):
            v = evaluate(e, origin)
            if abs(v) > _ORIGIN_TOL:
                raise UncertaintyError(f"f_sigma[{i}] must vanish at the origin, got {v:.3e}")
        for i, e in enumerate(self.h_sigma):
            v = evaluate(e, origin)
            if abs(v) > _ORIGIN_TOL:
                raise UncertaintyError(f"h_sigma[{i}] must vanish at the origin, got {v:.3e}")
        v0 = evaluate(self.v_sigma, origin)
        if abs(v0) > _ORIGIN_TOL:
            raise UncertaintyError(f"V_sigma must vanish at the origin, got {v0:.3e}")

    @property
    def n_outputs(self) -> int:
        return len(self.h_sigma)

    @cached_property
    def state_names(self):
        return tuple(f"xs{i + 1}" for i in range(self.n_sigma))

    @cached_property
    def input_names(self):
        return tuple(f"us{i + 1}" for i in range(self.n_outputs))

    @cached_property
    def _f_fn(self):
        return compile_exprs(self.f_sigma, self.state_names + self.input_names)

    @cached_property
    def _h_fn(self):
        return compile_exprs(self.h_sigma, self.state_names)

    @cached_property
    def _v_fn(self):
        return compile_exprs([self.v_sigma], self.state_names)

    def rhs(self, xs: np.ndarray, us: np.ndarray) -> np.ndarray:
        return self._f_fn(np.concatenate([xs, us]))

    def output(self, xs: np.ndarray) -> np.ndarray:
        return self._h_fn(xs)

    def storage(self, xs: np.ndarray):
        """Vs at one state (float) or at a stack of states (N,)."""
        v = self._v_fn(xs)[..., 0]
        return v if v.ndim else float(v)


@dataclass
class Interconnection:
    """Positive feedback wiring w = ys, us = y between a synthesized closed
    loop (running its pure state-feedback laws) and an OSNI uncertainty."""
    closed_loop: ClosedLoopSystem
    uncertainty: OsniUncertainty

    def __post_init__(self):
        p = self.closed_loop.plant.n_outputs
        if self.uncertainty.n_outputs != p:
            raise UncertaintyError(
                f"uncertainty output dimension {self.uncertainty.n_outputs} "
                f"does not match the plant output dimension {p}")

    @property
    def n_states(self) -> int:
        return self.closed_loop.plant.n_states + self.uncertainty.n_sigma

    @cached_property
    def joint_names(self):
        return self.closed_loop.plant.state_names + self.uncertainty.state_names

    @cached_property
    def w_expr(self) -> Expr:
        plant = self.closed_loop.plant
        cross = [mul(Const(Fraction(-1)), h, Var(y))
                 for h, y in zip(self.uncertainty.h_sigma, plant.y_names)]
        return fold_constants(add(self.closed_loop.storage_expr,
                                  self.uncertainty.v_sigma, *cross))

    @cached_property
    def _w_fn(self):
        return compile_exprs([self.w_expr], self.joint_names)

    @cached_property
    def rhs_exprs(self) -> Tuple[Expr, ...]:
        """Joint vector field over ``joint_names``: the loop's rows with
        v := h(xs), then f_sigma with us := y."""
        cl, unc = self.closed_loop, self.uncertainty
        w = dict(zip(cl.v_names, unc.h_sigma))
        us = {u: Var(y) for u, y in zip(unc.input_names, cl.plant.y_names)}
        return (tuple(substitute(e, w) for e in cl.rhs_exprs)
                + tuple(substitute(f, us) for f in unc.f_sigma))

    @cached_property
    def _rhs_fn(self):
        return compile_exprs(self.rhs_exprs, self.joint_names)


def interconnection_rhs(joint_state: np.ndarray,
                        interconnection: Interconnection) -> np.ndarray:
    """Joint vector field: the loop driven by w = h(xs), the uncertainty by
    us = y."""
    joint_state = np.asarray(joint_state, dtype=float)
    if joint_state.shape != (interconnection.n_states,):
        raise UncertaintyError("interconnection_rhs: dimension mismatch")
    return interconnection._rhs_fn(joint_state)


def composite_storage(joint_state: np.ndarray,
                      interconnection: Interconnection):
    """W = V + Vs - h(xs)^T y at a joint state (float) or a stack (N,)."""
    joint_state = np.asarray(joint_state, dtype=float)
    if joint_state.shape[-1:] != (interconnection.n_states,):
        raise UncertaintyError("composite_storage: dimension mismatch")
    w = interconnection._w_fn(joint_state)[..., 0]
    return w if w.ndim else float(w)
