"""Uncertainty blocks, interconnection wiring and composite storage."""

import re

import numpy as np
import pytest

from nisyn.expr import evaluate, parse_expr
from nisyn.synthesis import closed_loop_rhs, synthesize
from nisyn.uncertainty import (
    Interconnection, OsniUncertainty, UncertaintyError, composite_storage,
    interconnection_rhs,
)
from test_synthesis import random_plant_and_spec, termwise_rhs

XS = ("xs1", "xs2")
US = ("us1", "us2")


@pytest.fixture(scope="module")
def example_unc():
    """Cubic/linear first-order lags, output = state, strictness 1."""
    return OsniUncertainty(
        n_sigma=2,
        f_sigma=(parse_expr("-xs1^3+us1", XS + US),
                 parse_expr("-xs2+us2", XS + US)),
        h_sigma=(parse_expr("xs1", XS), parse_expr("xs2", XS)),
        v_sigma=parse_expr("1/4*xs1^4+1/2*xs2^2", XS),
        epsilon_sigma=1.0,
    )


@pytest.fixture(scope="module")
def example_ic(example_cl, example_unc):
    return Interconnection(closed_loop=example_cl, uncertainty=example_unc)


def test_uncertainty_evaluators(example_unc):
    xs = np.array([0.5, -1.0])
    assert example_unc.output(xs) == pytest.approx(xs)
    assert example_unc.rhs(xs, np.array([1.0, 2.0])) == pytest.approx(
        np.array([-0.125 + 1.0, 1.0 + 2.0]))
    assert example_unc.storage(xs) == pytest.approx(0.25 * 0.5 ** 4 + 0.5)


def test_uncertainty_validation():
    with pytest.raises(UncertaintyError, match="vanish"):
        OsniUncertainty(
            n_sigma=1,
            f_sigma=(parse_expr("1-xs1", ("xs1", "us1")),),
            h_sigma=(parse_expr("xs1", ("xs1",)),),
            v_sigma=parse_expr("xs1^2", ("xs1",)),
            epsilon_sigma=1.0,
        )
    with pytest.raises(UncertaintyError, match="positive"):
        OsniUncertainty(
            n_sigma=1,
            f_sigma=(parse_expr("-xs1+us1", ("xs1", "us1")),),
            h_sigma=(parse_expr("xs1", ("xs1",)),),
            v_sigma=parse_expr("xs1^2", ("xs1",)),
            epsilon_sigma=0.0,
        )


@pytest.mark.parametrize("f, h, v, label", [
    ("-xs1+us1", "xs1", "xs1^(-1)*xs1^4", "V_sigma"),
    ("-xs1+us1", "xs1^(-2)*xs1^3", "xs1^2", "h_sigma[0]"),
    ("us1*xs1^(-1)", "xs1", "xs1^2", "f_sigma[0]"),
])
def test_uncertainty_names_an_entry_singular_at_the_origin(f, h, v, label):
    with pytest.raises(UncertaintyError) as err:
        OsniUncertainty(
            n_sigma=1,
            f_sigma=(parse_expr(f, ("xs1", "us1")),),
            h_sigma=(parse_expr(h, ("xs1",)),),
            v_sigma=parse_expr(v, ("xs1",)),
            epsilon_sigma=1.0,
        )
    assert str(err.value) == f"{label} is singular at the origin"


def test_interconnection_dimension_check(example_cl):
    unc = OsniUncertainty(
        n_sigma=1,
        f_sigma=(parse_expr("-xs1+us1", ("xs1", "us1")),),
        h_sigma=(parse_expr("xs1", ("xs1",)),),
        v_sigma=parse_expr("xs1^2", ("xs1",)),
        epsilon_sigma=1.0,
    )
    with pytest.raises(UncertaintyError, match="dimension"):
        Interconnection(closed_loop=example_cl, uncertainty=unc)


def test_rhs_zero_at_origin(example_ic):
    assert np.all(interconnection_rhs(np.zeros(6), example_ic) == 0.0)


def test_rhs_wiring(example_ic, example_cl):
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = rng.uniform(-1.5, 1.5, size=6)
        x, xs = s[:4], s[4:]
        d = interconnection_rhs(s, example_ic)
        # plant block sees w = h(xs) = xs as its input
        assert d[:4] == pytest.approx(closed_loop_rhs(x, xs, example_cl))
        # uncertainty sees us = y = (xi1, xi2)
        assert d[4] == pytest.approx(-xs[0] ** 3 + x[1])
        assert d[5] == pytest.approx(-xs[1] + x[2])


def termwise_interconnection_rhs(ic, joint):
    """The joint field from evaluate(): the loop's termwise field under
    w = h(xs), then f_sigma under us = y."""
    plant, unc = ic.closed_loop.plant, ic.uncertainty
    x, xs = joint[:plant.n_states], joint[plant.n_states:]
    b = dict(zip(unc.state_names, xs))
    w = np.array([evaluate(h, b) for h in unc.h_sigma])
    b.update(zip(unc.input_names, x[plant.m:plant.m + plant.n_outputs]))
    return np.concatenate([termwise_rhs(ic.closed_loop, x, w),
                           [evaluate(f, b) for f in unc.f_sigma]])


def test_rhs_bit_exact_with_termwise_reference(example_ic):
    # the example, then generated loops with a nonlinear h and a coupled f
    rng = np.random.default_rng(8)
    ics = [example_ic]
    for _ in range(10):
        cl = synthesize(*random_plant_and_spec(rng))
        p = cl.plant.n_outputs
        xs = tuple(f"xs{i + 1}" for i in range(p))
        us = tuple(f"us{i + 1}" for i in range(p))
        ics.append(Interconnection(closed_loop=cl, uncertainty=OsniUncertainty(
            n_sigma=p,
            f_sigma=tuple(parse_expr(f"-{x}^3 - 1/2*{x} + {u}*{xs[0]}^2 + {u}",
                                     xs + us) for x, u in zip(xs, us)),
            h_sigma=tuple(parse_expr(f"{x} + {x}^(5/3)", xs) for x in xs),
            v_sigma=parse_expr(" + ".join(f"{x}^2" for x in xs), xs),
            epsilon_sigma=1.0,
        )))
    for ic in ics:
        for _ in range(5):
            s = rng.uniform(-1.5, 1.5, size=ic.n_states)
            assert np.array_equal(interconnection_rhs(s, ic),
                                  termwise_interconnection_rhs(ic, s))


def test_rhs_rejects_misshaped_state(example_ic):
    for bad in (np.zeros(5), np.zeros(7), np.zeros((2, 5)), np.zeros((2, 2, 6))):
        with pytest.raises(ValueError, match=re.escape(
                "Interconnection takes a point (6,) or a stack (N, 6) of "
                f"states, got shape {bad.shape}")):
            interconnection_rhs(bad, example_ic)


def test_zero_output_uncertainty_decouples(example_cl):
    unc = OsniUncertainty(
        n_sigma=2,
        f_sigma=(parse_expr("-xs1^3+us1", XS + US),
                 parse_expr("-xs2+us2", XS + US)),
        h_sigma=(parse_expr("0", XS), parse_expr("0", XS)),
        v_sigma=parse_expr("1/4*xs1^4+1/2*xs2^2", XS),
        epsilon_sigma=1.0,
    )
    ic = Interconnection(closed_loop=example_cl, uncertainty=unc)
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = rng.uniform(-1, 1, size=6)
        d = interconnection_rhs(s, ic)
        assert d[:4] == pytest.approx(
            closed_loop_rhs(s[:4], np.zeros(2), example_cl))


def test_composite_storage_zero_at_origin(example_ic):
    assert composite_storage(np.zeros(6), example_ic) == 0.0


def test_composite_storage_formula(example_ic, example_cl):
    from nisyn.synthesis import storage_value
    rng = np.random.default_rng(2)
    for _ in range(50):
        s = rng.uniform(-2, 2, size=6)
        x, xs = s[:4], s[4:]
        expected = (storage_value(x, example_cl)
                    + 0.25 * xs[0] ** 4 + 0.5 * xs[1] ** 2
                    - x[1] * xs[0] - x[2] * xs[1])
        assert composite_storage(s, example_ic) == pytest.approx(expected, rel=1e-12)


def test_composite_storage_nonnegative_with_zero_outputs(example_ic):
    # with xi = 0 the cross term vanishes and W = V(z,0) + Vs(xs) >= 0
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = np.zeros(6)
        s[0] = rng.uniform(-2, 2)
        s[4:] = rng.uniform(-2, 2, size=2)
        assert composite_storage(s, example_ic) >= 0.0


def test_storage_and_output_on_a_stack(example_ic, example_unc):
    rng = np.random.default_rng(6)
    joint = rng.uniform(-2, 2, size=(5, 6))
    w = composite_storage(joint, example_ic)
    vs = example_unc.storage(joint[:, 4:])
    h = example_unc.output(joint[:, 4:])
    assert w.shape == vs.shape == (5,)
    assert h.shape == (5, 2)
    for s, wk, vk, hk in zip(joint, w, vs, h):
        assert wk == pytest.approx(composite_storage(s, example_ic), rel=1e-12)
        assert vk == pytest.approx(example_unc.storage(s[4:]), rel=1e-12)
        assert hk == pytest.approx(example_unc.output(s[4:]))
    with pytest.raises(ValueError, match=re.escape(
            "Interconnection takes a point (6,) or a stack (N, 6) of states, "
            "got shape (5, 5)")):
        composite_storage(joint[:, :5], example_ic)
