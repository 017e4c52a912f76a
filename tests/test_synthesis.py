"""Storage construction, feedback laws and the closed-loop vector field."""

from fractions import Fraction

import numpy as np
import pytest

from nisyn.expr import (
    Const, Neg, Product, Var, compile_exprs, evaluate, parse_expr, to_string,
    variables,
)
from nisyn.synthesis import (
    GeneralForm, NormalFormPlant, SingularMatrixError, SynthesisError,
    SynthesisSpec, block_names, closed_loop_rhs, default_v2,
    reduce_general_form, storage_value, synthesize,
)
from nisyn.synthesis import _alpha_exprs

STATE_NAMES = ("z1", "xi1", "xi2", "xi3")


def _law_oracles():
    """Hand-derived feedback laws for the example plant with P = 1,
    V2 = xi1^(4/3) + xi2^2 and lambda = 1."""
    u1 = parse_expr("4*z1*xi1*xi2 - 4*xi1^3*xi2^2 - 4/3*xi1^(1/3)", STATE_NAMES)
    u2 = parse_expr("2*z1*xi1^2 - 2*xi1^4*xi2 - 2*xi2 - 2*xi2*0 - xi3", STATE_NAMES)
    return u1, u2


def _open_loop_rhs(state, u):
    """The example plant before feedback: z' = -z + xi1^2 xi2, xi1' = u1,
    xi2' = xi3, xi3' = u2."""
    z, x1, x2, x3 = state
    return np.array([-z + x1 * x1 * x2, u[0], x3, u[1]])


def _eq_rhs_oracle(state, v):
    """Hand-coded closed loop for the example: the synthesized laws written
    out termwise."""
    z, x1, x2, x3 = state
    du1 = 4 * z * x1 * x2 - 4 * x1 ** 3 * x2 ** 2 - (4.0 / 3.0) * np.cbrt(x1)
    du2 = 2 * z * x1 * x1 - 2 * x1 ** 4 * x2 - 2 * x2 - x3
    return np.array([-z + x1 * x1 * x2, v[0] + du1, x3, v[1] + du2])


# --- naming and plant validation ---------------------------------------------

def test_block_names():
    assert block_names("xi1", 1) == ("xi1",)
    assert block_names("xi1", 2) == ("xi1_1", "xi1_2")


def test_plant_properties(example_plant):
    assert example_plant.m == 1
    assert example_plant.n_states == 4
    assert example_plant.state_names == STATE_NAMES
    assert example_plant.y_names == ("xi1", "xi2")


def test_plant_rejects_nonvanishing_p():
    with pytest.raises(SynthesisError, match="vanish"):
        NormalFormPlant(a11=[[-1.0]], p=(parse_expr("xi1+1", ["xi1", "xi2"]),),
                        p1=1, p2=1)


def test_plant_rejects_foreign_variables():
    with pytest.raises(SynthesisError, match="non-output"):
        NormalFormPlant(a11=[[-1.0]], p=(parse_expr("z1", None),), p1=1, p2=1)


def test_spec_validation():
    v2 = parse_expr("xi1^2+xi2^2", ["xi1", "xi2"])
    with pytest.raises(SynthesisError, match="nonnegative"):
        SynthesisSpec(p_matrix=[[1.0]], v2=v2, lam=-0.5)
    with pytest.raises(SynthesisError, match="positive definite"):
        SynthesisSpec(p_matrix=[[-1.0]], v2=v2, lam=1.0)
    with pytest.raises(SynthesisError, match="symmetric"):
        SynthesisSpec(p_matrix=[[1.0, 1.0], [0.0, 1.0]], v2=v2, lam=1.0)


# --- alpha -------------------------------------------------------------------

def _alpha_value(z, y, plant):
    """alpha = z + A11^{-1} p(y), through the expressions substituted into V."""
    b = dict(zip(plant.z_names, z)) | dict(zip(plant.y_names, y))
    return np.array([evaluate(e, b) for e in _alpha_exprs(plant)])


def test_alpha_example_plant(example_plant):
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.normal(size=1)
        y = rng.normal(size=2)
        # A11 = -1 means alpha = z - xi1^2 xi2
        expected = z - y[0] ** 2 * y[1]
        assert _alpha_value(z, y, example_plant) == pytest.approx(expected)


def test_alpha_at_origin_is_z(example_plant):
    z = np.array([1.7])
    assert _alpha_value(z, np.zeros(2), example_plant) == pytest.approx(z)


def test_alpha_frozen_value(example_plant):
    out = _alpha_value(np.zeros(1), np.array([1.0, 2.0]), example_plant)
    assert out == pytest.approx(np.array([-2.0]))


# --- storage -----------------------------------------------------------------

def test_storage_expr_is_alpha_quadratic_plus_v2_plus_kinetic():
    """V = alpha^T P alpha + V2(y) + 1/2 |xi3|^2 with alpha = z + A11^{-1} p(y),
    computed here numerically, on the example and on random plants."""
    rng = np.random.default_rng(31)
    example = NormalFormPlant(a11=[[-1.0]], p=(parse_expr("xi1^2*xi2", ["xi1", "xi2"]),),
                              p1=1, p2=1)
    cases = [(example, SynthesisSpec([[1.0]], parse_expr("xi1^(4/3)+xi2^2",
                                                         ["xi1", "xi2"])))]
    cases += [random_plant_and_spec(rng) for _ in range(10)]
    for plant, spec in cases:
        cl = synthesize(plant, spec)
        for _ in range(10):
            s = rng.uniform(-2, 2, size=plant.n_states)
            b = dict(zip(plant.state_names, s))
            z = s[:plant.m]
            p_y = np.array([evaluate(e, b) for e in plant.p])
            a = z + np.linalg.solve(plant.a11, p_y)
            xi3 = np.array([b[n] for n in plant.xi3_names])
            expected = a @ spec.p_matrix @ a + evaluate(spec.v2, b) + 0.5 * xi3 @ xi3
            got = evaluate(cl.storage_expr, b)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_synthesize_rejects_singular_a11():
    plant = NormalFormPlant(a11=[[0.0]], p=(parse_expr("0", []),), p1=1, p2=1)
    with pytest.raises(SingularMatrixError):
        synthesize(plant, SynthesisSpec([[1.0]], default_v2(plant)))


def _plant_with_a11(a11):
    a11 = np.asarray(a11, dtype=float)
    return NormalFormPlant(a11=a11, p=(parse_expr("0", []),) * a11.shape[0],
                           p1=1, p2=1)


@pytest.mark.parametrize("a11, sigmas", [
    ([[0.0]], r"sigma_min = 0\.000e\+00, sigma_max = 0\.000e\+00"),
    # rank 2
    ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
     r"sigma_min = \d\.\d{3}e-1\d, sigma_max = 1\.685e\+01"),
    # LU pivots and eigenvalues are (-1, -1), but sigma_min/sigma_max is
    # 1e-16: 1e-8 in the zero entry, one rounding of ||A11||, makes A11
    # singular, so the rule refuses it where the LU pivots did not
    ([[-1.0, 1e8], [0.0, -1.0]],
     r"sigma_min = 1\.000e-08, sigma_max = 1\.000e\+08"),
])
def test_a11_inverse_rejects_numerically_singular(a11, sigmas):
    with pytest.raises(SingularMatrixError, match="^A11 is singular or "
                       "numerically singular: " + sigmas + "$"):
        _plant_with_a11(a11).a11_inverse


@pytest.mark.parametrize("m", range(1, 13))
def test_a11_inverse_is_an_inverse(m):
    # singular values in [1, 10] between two random rotations
    rng = np.random.default_rng(m)
    q1, _ = np.linalg.qr(rng.normal(size=(m, m)))
    q2, _ = np.linalg.qr(rng.normal(size=(m, m)))
    a11 = q1 @ np.diag(rng.uniform(1.0, 10.0, m)) @ q2
    inv = _plant_with_a11(a11).a11_inverse
    assert np.abs(a11 @ inv - np.eye(m)).max() <= 1e-13
    assert np.abs(inv @ a11 - np.eye(m)).max() <= 1e-13


def test_storage_zero_at_origin(example_cl):
    assert storage_value(np.zeros(4), example_cl) == 0.0


def test_storage_frozen_value(example_cl):
    # (z - xi1^2 xi2)^2 + xi1^(4/3) + xi2^2 + xi3^2/2 at (1,1,1,1)
    assert storage_value(np.array([1.0, 1.0, 1.0, 1.0]), example_cl) == pytest.approx(2.5)


def test_storage_matches_handwritten(example_cl):
    rng = np.random.default_rng(1)
    for _ in range(50):
        s = rng.uniform(-2, 2, size=4)
        z, x1, x2, x3 = s
        expected = (z - x1 * x1 * x2) ** 2 + np.abs(x1) ** (4 / 3) \
            + x2 * x2 + 0.5 * x3 * x3
        assert storage_value(s, example_cl) == pytest.approx(expected, rel=1e-12)


def test_storage_positive_on_samples(example_cl):
    rng = np.random.default_rng(2)
    for _ in range(200):
        s = rng.uniform(-2, 2, size=4)
        if np.any(s):
            assert storage_value(s, example_cl) > 0


# --- feedback laws -----------------------------------------------------------

def test_laws_reproduce_hand_derivation(example_cl):
    u1_oracle, u2_oracle = _law_oracles()
    (u1,), (u2,) = example_cl.u1_laws, example_cl.u2_laws
    rng = np.random.default_rng(3)
    for _ in range(100):
        b = dict(zip(STATE_NAMES, rng.uniform(-2, 2, size=4)))
        for law, oracle in ((u1, u1_oracle), (u2, u2_oracle)):
            a = evaluate(law, b)
            e = evaluate(oracle, b)
            assert abs(a - e) <= 1e-9 * max(1.0, abs(e))


def test_lambda_only_in_u2(example_plant):
    v2 = parse_expr("xi1^2+xi2^2", ["xi1", "xi2"])
    cl0 = synthesize(example_plant, SynthesisSpec([[1.0]], v2, lam=0.0))
    cl1 = synthesize(example_plant, SynthesisSpec([[1.0]], v2, lam=1.0))
    assert cl0.u1_laws == cl1.u1_laws
    assert cl0.u2_laws != cl1.u2_laws
    assert cl0.epsilon == 0.0
    assert cl1.epsilon == 1.0


def test_quadratic_default_v2_laws():
    # p == 0 and V2 = |y|^2 with lambda = 0 gives plain proportional laws
    plant = NormalFormPlant(a11=[[-1.0]], p=(parse_expr("0", []),), p1=1, p2=1)
    spec = SynthesisSpec([[1.0]], default_v2(plant), lam=0.0)
    cl = synthesize(plant, spec)
    assert cl.u1_laws == (Neg(Product((Const(Fraction(2)), Var("xi1")))),)
    assert cl.u2_laws == (Neg(Product((Const(Fraction(2)), Var("xi2")))),)


def test_law_strings_parse_back(example_cl):
    strings = example_cl.law_strings()
    rng = np.random.default_rng(4)
    for text, law in zip(strings["u1"] + strings["u2"],
                         example_cl.u1_laws + example_cl.u2_laws):
        reparsed = parse_expr(text, STATE_NAMES)
        for _ in range(10):
            b = dict(zip(STATE_NAMES, rng.uniform(-2, 2, size=4)))
            assert evaluate(reparsed, b) == pytest.approx(evaluate(law, b), rel=1e-12)


# --- closed-loop vector field --------------------------------------------------

def test_rhs_preserves_equilibrium(example_cl):
    d = closed_loop_rhs(np.zeros(4), np.zeros(2), example_cl)
    assert np.all(d == 0.0)


def test_rhs_matches_termwise_oracle(example_cl):
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = rng.uniform(-2, 2, size=4)
        v = rng.uniform(-2, 2, size=2)
        got = closed_loop_rhs(s, v, example_cl)
        want = _eq_rhs_oracle(s, v)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def test_rhs_feedback_cancellation(example_cl):
    # choosing v to cancel the synthesized feedback recovers the open loop
    laws = compile_exprs(example_cl.u1_laws + example_cl.u2_laws, STATE_NAMES)
    rng = np.random.default_rng(6)
    for _ in range(20):
        s = rng.uniform(-1.5, 1.5, size=4)
        u = rng.uniform(-1, 1, size=2)
        v = u - laws(s)
        assert closed_loop_rhs(s, v, example_cl) == pytest.approx(_open_loop_rhs(s, u))


def test_gradients_match_finite_differences(example_cl):
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(100):
        s = rng.uniform(-2, 2, size=4)
        if abs(s[1]) < 1e-2:  # xi1^(1/3) derivative is singular at zero
            continue
        for k, grad in ((1, example_cl.grad_xi1[0]), (2, example_cl.grad_xi2[0])):
            up, dn = s.copy(), s.copy()
            up[k] += h
            dn[k] -= h
            fd = (storage_value(up, example_cl) - storage_value(dn, example_cl)) / (2 * h)
            g = evaluate(grad, dict(zip(STATE_NAMES, s)))
            assert abs(g - fd) <= 1e-4 * (1.0 + abs(g))


# --- random plants / empty blocks ---------------------------------------------

def random_plant_and_spec(rng):
    """A random well-posed plant plus synthesis choices, for property sweeps."""
    m = int(rng.integers(1, 3))
    p1 = int(rng.integers(0, 3))
    p2 = int(rng.integers(0 if p1 else 1, 3))
    a11 = rng.normal(size=(m, m))
    a11 = a11 - (np.linalg.eigvals(a11).real.max() + rng.uniform(0.3, 1.0)) * np.eye(m)
    y_names = block_names("xi1", p1) + block_names("xi2", p2)
    p_exprs = []
    for _ in range(m):
        terms = []
        for name in y_names:
            if rng.random() < 0.7:
                c = rng.integers(-2, 3)
                if c:
                    deg = int(rng.integers(1, 4))
                    terms.append(f"{c}*{name}^{deg}")
        if len(y_names) >= 2 and rng.random() < 0.5:
            terms.append(f"{y_names[0]}^2*{y_names[-1]}")
        p_exprs.append(parse_expr(" + ".join(terms) if terms else "0", y_names))
    q = rng.normal(size=(m, m))
    p_matrix = q @ q.T + np.eye(m)
    v2_terms = [f"{name}^2" for name in y_names]
    if p1 and rng.random() < 0.5:
        v2_terms.append(f"{y_names[0]}^(4/3)")
    v2 = parse_expr(" + ".join(v2_terms), y_names)
    lam = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
    plant = NormalFormPlant(a11=a11, p=tuple(p_exprs), p1=p1, p2=p2)
    return plant, SynthesisSpec(p_matrix, v2, lam)


def test_random_plants_gradient_property():
    rng = np.random.default_rng(2718)
    h = 1e-6
    for _ in range(40):
        plant, spec = random_plant_and_spec(rng)
        cl = synthesize(plant, spec)
        names = plant.state_names
        for _ in range(5):
            s = rng.uniform(-2, 2, size=plant.n_states)
            s[np.abs(s) < 5e-2] = 0.5  # keep away from fractional-power kinks
            b = dict(zip(names, s))
            for block, grads in (("xi1", cl.grad_xi1), ("xi2", cl.grad_xi2)):
                for name, g in zip(getattr(plant, f"{block}_names"), grads):
                    up = dict(b)
                    dn = dict(b)
                    up[name] += h
                    dn[name] -= h
                    fd = (evaluate(cl.storage_expr, up) - evaluate(cl.storage_expr, dn)) / (2 * h)
                    gv = evaluate(g, b)
                    assert abs(gv - fd) <= 1e-4 * (1.0 + abs(gv))
            assert np.all(closed_loop_rhs(np.zeros(plant.n_states),
                                          np.zeros(plant.n_outputs), cl) == 0.0)


def termwise_rhs(cl, state, v):
    """The loop's field from evaluate(), in the compiled term order:
    ((a_i1 z_1 + a_i2 z_2) + ...) + p_i(y), v + u1, xi3, v + u2."""
    plant = cl.plant
    b = dict(zip(plant.state_names, state))
    z = state[:plant.m]
    dz = []
    for row, p_i in zip(plant.a11, plant.p):
        acc = float(row[0]) * z[0]
        for a, zj in zip(row[1:], z[1:]):
            acc = acc + float(a) * zj
        dz.append(acc + evaluate(p_i, b))
    dxi1 = [vi + evaluate(law, b) for vi, law in zip(v, cl.u1_laws)]
    dxi2 = [b[n] for n in plant.xi3_names]
    dxi3 = [vi + evaluate(law, b) for vi, law in zip(v[plant.p1:], cl.u2_laws)]
    return np.array(dz + dxi1 + dxi2 + dxi3)


def test_rhs_bit_exact_with_termwise_reference(example_cl):
    rng = np.random.default_rng(31)
    loops = [example_cl] + [synthesize(*random_plant_and_spec(rng)) for _ in range(30)]
    shapes = set()
    for cl in loops:
        plant = cl.plant
        shapes.add((plant.m, plant.p1, plant.p2))
        for _ in range(5):
            s = rng.uniform(-2, 2, size=plant.n_states)
            v = rng.uniform(-1, 1, size=plant.n_outputs)
            assert np.array_equal(closed_loop_rhs(s, v, cl), termwise_rhs(cl, s, v))
    assert {m for m, _, _ in shapes} == {1, 2}
    assert any(p1 == 0 for _, p1, _ in shapes) and any(p2 == 0 for _, _, p2 in shapes)


def test_rhs_keeps_zero_a11_entries():
    plant = NormalFormPlant(a11=[[-1.0, 0.0], [0.5, -2.0]],
                            p=(parse_expr("xi1^3", ["xi1"]), parse_expr("0", [])),
                            p1=1, p2=0)
    cl = synthesize(plant, SynthesisSpec(np.eye(2), default_v2(plant), lam=1.0))
    # -1*0.0 + 0*1.0 is +0.0, as in A11 @ z; without the zero term z1' = -0.0
    s = np.array([0.0, 1.0, -0.0])
    d = closed_loop_rhs(s, np.zeros(1), cl)
    assert np.array_equal(d, termwise_rhs(cl, s, np.zeros(1)))
    assert not np.signbit(d[0])


def test_rhs_rejects_misshaped_arguments(example_cl):
    with pytest.raises(SynthesisError, match="state dimension"):
        closed_loop_rhs(np.zeros(3), np.zeros(2), example_cl)
    with pytest.raises(SynthesisError, match="state dimension"):
        closed_loop_rhs(np.zeros((2, 4)), np.zeros(2), example_cl)
    with pytest.raises(SynthesisError, match="input dimension"):
        closed_loop_rhs(np.zeros(4), np.zeros(3), example_cl)


def test_empty_xi1_block():
    plant = NormalFormPlant(a11=[[-2.0]], p=(parse_expr("xi2^3", ["xi2"]),),
                            p1=0, p2=1)
    cl = synthesize(plant, SynthesisSpec([[1.0]], default_v2(plant), lam=1.0))
    assert cl.u1_laws == ()
    d = closed_loop_rhs(np.array([1.0, 0.5, 0.2]), np.array([0.3]), cl)
    assert d.shape == (3,)
    assert d[0] == pytest.approx(-2.0 + 0.5 ** 3)
    assert d[1] == pytest.approx(0.2)


def test_empty_xi2_block():
    plant = NormalFormPlant(a11=[[-1.0]], p=(parse_expr("xi1", ["xi1"]),),
                            p1=1, p2=0)
    cl = synthesize(plant, SynthesisSpec([[1.0]], default_v2(plant), lam=0.0))
    assert cl.u2_laws == ()
    d = closed_loop_rhs(np.array([1.0, 0.5]), np.array([0.0]), cl)
    assert d.shape == (2,)


# --- general form reduction ----------------------------------------------------

def test_reduce_identity(example_plant):
    zero = parse_expr("0", [])
    gform = GeneralForm(
        j1=(zero,), j2=(zero,),
        l1=((parse_expr("1", []), zero),),
        l2=((zero, parse_expr("1", [])),),
    )
    t = reduce_general_form(gform, example_plant, np.array([0.3, 1.0, -1.0, 0.5]))
    u = np.array([0.7, -0.2])
    assert t(u) == pytest.approx(u)


def test_reduce_scalar_row(example_plant):
    zero = parse_expr("0", [])
    gform = GeneralForm(
        j1=(parse_expr("xi2", STATE_NAMES),), j2=(zero,),
        l1=((parse_expr("2", []), zero),),
        l2=((zero, parse_expr("1", []),),),
    )
    state = np.array([0.0, 0.0, 3.0, 0.0])  # xi2 = 3
    t = reduce_general_form(gform, example_plant, state)
    out = t(np.array([5.0, 1.0]))
    assert out[0] == pytest.approx((5.0 - 3.0) / 2.0)
    assert out[1] == pytest.approx(1.0)


def test_reduce_singular_gain_rejected(example_plant):
    zero = parse_expr("0", [])
    gform = GeneralForm(
        j1=(zero,), j2=(zero,),
        l1=((parse_expr("xi1", STATE_NAMES), zero),),
        l2=((zero, parse_expr("1", []),),),
    )
    state = np.array([0.0, 0.0, 1.0, 0.0])  # xi1 = 0 makes the gain singular
    with pytest.raises(SingularMatrixError):
        reduce_general_form(gform, example_plant, state)


def test_storage_expr_uses_plant_variables_only(example_cl):
    assert variables(example_cl.storage_expr) <= set(STATE_NAMES)
    assert "xi3" in to_string(example_cl.storage_expr)


def test_storage_value_on_a_stack(example_cl):
    rng = np.random.default_rng(4)
    stack = rng.uniform(-2, 2, size=(6, 4))
    got = storage_value(stack, example_cl)
    assert got.shape == (6,)
    for s, v in zip(stack, got):
        assert v == pytest.approx(storage_value(s, example_cl), rel=1e-12)
    with pytest.raises(SynthesisError, match="dimension"):
        storage_value(np.zeros((6, 3)), example_cl)


# --- singular laws ----------------------------------------------------------------

def test_synthesize_rejects_law_singular_at_origin(example_plant):
    v2 = parse_expr("xi1^(2/3)+xi2^2", ["xi1", "xi2"])
    with pytest.raises(SynthesisError, match=r"u1\[1\].*xi1\^\(-1/3\)"):
        synthesize(example_plant, SynthesisSpec([[1.0]], v2, lam=1.0))


def test_synthesize_accepts_negative_power_of_nonvanishing_base(example_plant):
    v2 = parse_expr("xi1^2*(1 + xi1^2)^(-1) + xi2^2", ["xi1", "xi2"])
    cl = synthesize(example_plant, SynthesisSpec([[1.0]], v2, lam=1.0))
    assert "^-1" in to_string(cl.u1_laws[0])
    d = closed_loop_rhs(np.zeros(4), np.zeros(2), cl)
    assert (d == 0.0).all()


def test_reduce_general_form_on_a_stack(example_plant):
    zero = parse_expr("0", [])
    gform = GeneralForm(
        j1=(parse_expr("xi2", STATE_NAMES),), j2=(zero,),
        l1=((parse_expr("xi1^2 + xi1", STATE_NAMES), zero),),
        l2=((parse_expr("z1", STATE_NAMES), parse_expr("1", []),),),
    )
    rng = np.random.default_rng(5)
    states = rng.uniform(0.1, 1, size=(5, 4))
    inputs = rng.uniform(-1, 1, size=(5, 2))
    got = reduce_general_form(gform, example_plant, states)(inputs)
    assert got.shape == (5, 2)
    for s, u, g in zip(states, inputs, got):
        want = reduce_general_form(gform, example_plant, s)(u)
        assert g == pytest.approx(want, rel=1e-12, abs=1e-15)
    states[3, 1] = -1.0  # one singular state rejects the whole stack
    with pytest.raises(SingularMatrixError, match="cond=inf"):
        reduce_general_form(gform, example_plant, states)


def test_reduce_general_form_rejects_non_finite_gain(example_plant):
    # 1 + xi1^(-1) - xi1^(-1) is 1 away from xi1 = 0 and inf - inf = nan at it
    zero = parse_expr("0", [])
    gform = GeneralForm(
        j1=(zero,), j2=(zero,),
        l1=((parse_expr("1 + xi1^(-1) - xi1^(-1)", STATE_NAMES), zero),),
        l2=((zero, parse_expr("1", [])),),
    )
    good = np.array([0.0, 0.5, 1.0, 0.0])
    bad = np.array([0.0, 0.0, 1.0, 0.0])
    assert reduce_general_form(gform, example_plant, good)(np.ones(2)) == \
        pytest.approx(np.ones(2))
    with np.errstate(divide="ignore", invalid="ignore"):
        for state in (bad, np.array([good, good, bad, bad])):
            with pytest.raises(SingularMatrixError,
                               match="not finite at state z1=0, xi1=0, xi2=1, xi3=0"):
                reduce_general_form(gform, example_plant, state)


def test_compiled_field_of_an_m2_loop_matches_sympy():
    """The loop's field, rebuilt in sympy from V = alpha^T P alpha + V2 +
    1/2 xi3^2 with sympy's own inverse and derivatives, against the
    compiled field, whose alpha and its derivatives are shared subtrees."""
    sp = pytest.importorskip("sympy")
    import mpmath
    from nisyn.expr import _body

    y_names = ("xi1", "xi2")
    a11 = [[-1.0, 2.0], [-2.0, -3.0]]
    p_text = ("xi1^2*xi2", "xi2^3 - xi1*xi2")
    p_matrix = [[2.0, 0.5], [0.5, 1.0]]
    plant = NormalFormPlant(a11=a11, p=tuple(parse_expr(t, y_names) for t in p_text),
                            p1=1, p2=1)
    cl = synthesize(plant, SynthesisSpec(p_matrix, parse_expr("xi1^(4/3) + xi2^2",
                                                              y_names), lam=0.5))
    names = plant.state_names + cl.v_names
    assert _body(cl.rhs_exprs, names)[0]  # shared subtrees are bound to locals

    z1, z2, xi1, xi2, xi3, v1, v2 = syms = sp.symbols(" ".join(names), real=True)
    a = sp.Matrix(a11).applyfunc(sp.nsimplify)
    p_y = sp.Matrix([xi1 ** 2 * xi2, xi2 ** 3 - xi1 * xi2])
    alpha = sp.Matrix([z1, z2]) + a.inv() * p_y
    storage = (alpha.T * sp.Matrix(p_matrix).applyfunc(sp.nsimplify) * alpha)[0] \
        + sp.Abs(xi1) ** sp.Rational(4, 3) + xi2 ** 2 + xi3 ** 2 / 2
    z_dot = a * sp.Matrix([z1, z2]) + p_y
    field = [z_dot[0], z_dot[1], v1 - sp.diff(storage, xi1), xi3,
             v2 - sp.diff(storage, xi2) - xi3 / 2]
    oracle = sp.lambdify(syms, field, "mpmath")

    rng = np.random.default_rng(4)
    for _ in range(20):
        point = rng.uniform(-2, 2, size=len(names))
        point[names.index("xi1")] = rng.choice([-1, 1]) * rng.uniform(0.1, 2)
        with mpmath.workdps(40):
            want = np.array([float(w) for w in oracle(*point)])
        got = cl._rhs_fn(point)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
