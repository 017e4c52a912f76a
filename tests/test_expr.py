"""Expression language: parser, evaluator, derivative and printer."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from nisyn.expr import (
    Const, EvalError, Expr, Neg, ParseError, Pow, Product, Sum, Var,
    add, compile_exprs, differentiate, evaluate, fold_constants, mul,
    normalize, parse_expr, rational_power, substitute, to_string, variables,
)
from nisyn.expr import _source


# --- parsing ----------------------------------------------------------------

def test_parse_product_of_power():
    e = parse_expr("xi1^2*xi2", ["xi1", "xi2"])
    assert e == Product((Pow(Var("xi1"), Fraction(2)), Var("xi2")))


def test_parse_zero():
    assert parse_expr("0", []) == Const(Fraction(0))


def test_parse_rational_power_sum():
    e = parse_expr("xi1^(4/3)+xi2^2", ["xi1", "xi2"])
    assert e == Sum((Pow(Var("xi1"), Fraction(4, 3)), Pow(Var("xi2"), Fraction(2))))


def test_parse_precedence():
    # unary minus binds tighter than *, looser than ^
    e = parse_expr("-x^2", ["x"])
    assert e == Neg(Pow(Var("x"), Fraction(2)))
    e = parse_expr("-x*y", ["x", "y"])
    assert e == Product((Neg(Var("x")), Var("y")))
    e = parse_expr("a - b*c", ["a", "b", "c"])
    assert e == Sum((Var("a"), Neg(Product((Var("b"), Var("c"))))))


def test_parse_decimal_and_rational_literals():
    assert parse_expr("0.5", []) == Const(Fraction(1, 2))
    assert parse_expr("4/3", []) == Const(Fraction(4, 3))
    assert parse_expr("1/4*x", ["x"]) == Product((Const(Fraction(1, 4)), Var("x")))


def test_parse_exponent_forms():
    assert parse_expr("x^-2", ["x"]) == Pow(Var("x"), Fraction(-2))
    assert parse_expr("x^(-1/3)", ["x"]) == Pow(Var("x"), Fraction(-1, 3))
    # exponents are stored in lowest terms
    assert parse_expr("x^(2/6)", ["x"]) == Pow(Var("x"), Fraction(1, 3))


def test_parse_power_tower_right_associative():
    assert parse_expr("x^2^3", ["x"]) == Pow(Var("x"), Fraction(8))


def test_parse_errors():
    with pytest.raises(ParseError, match="undeclared variable"):
        parse_expr("xi1+z9", ["xi1"])
    with pytest.raises(ParseError, match="even denominator"):
        parse_expr("x^(1/2)", ["x"])
    with pytest.raises(ParseError, match="even denominator"):
        parse_expr("x^(3/6)", ["x"])
    with pytest.raises(ParseError) as err:
        parse_expr("x + * y", ["x", "y"])
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_expr("x + ", ["x"])
    with pytest.raises(ParseError):
        parse_expr("x / y", ["x", "y"])  # no division operator


# --- evaluation -------------------------------------------------------------

def test_eval_examples():
    e = parse_expr("xi1^2*xi2", ["xi1", "xi2"])
    assert evaluate(e, {"xi1": 1.0, "xi2": -1.0}) == -1.0
    assert evaluate(parse_expr("xi1^(1/3)", ["xi1"]), {"xi1": -8.0}) == -2.0
    assert evaluate(parse_expr("xi1^(4/3)", ["xi1"]), {"xi1": -1.0}) == 1.0


def test_eval_missing_binding():
    with pytest.raises(EvalError, match="missing binding"):
        evaluate(Var("q"), {"x": 1.0})


def test_rational_power_signs():
    assert rational_power(-8.0, 1, 3) == -2.0
    assert rational_power(-1.0, 4, 3) == 1.0
    assert rational_power(0.0, 2, 3) == 0.0
    assert rational_power(27.0, -1, 3) == pytest.approx(1 / 3)


# --- differentiation --------------------------------------------------------

def test_derivative_rational_power():
    d = fold_constants(differentiate(parse_expr("xi1^(4/3)", ["xi1"]), "xi1"))
    assert d == Product((Const(Fraction(4, 3)), Pow(Var("xi1"), Fraction(1, 3))))


def test_derivative_product():
    e = parse_expr("xi1^2*xi2", ["xi1", "xi2"])
    assert fold_constants(differentiate(e, "xi2")) == Pow(Var("xi1"), Fraction(2))
    assert fold_constants(differentiate(e, "z")) == Const(Fraction(0))


def test_derivative_of_constant_power_is_evaluable_at_zero():
    d = differentiate(parse_expr("x^0", ["x"]), "x")
    assert evaluate(d, {"x": 0.0}) == 0.0


# --- constant folding -------------------------------------------------------

def test_fold_basics():
    e = parse_expr("0*x + 1*y + 2 + 3", ["x", "y"])
    assert fold_constants(e) == Sum((Var("y"), Const(Fraction(5))))
    assert fold_constants(parse_expr("-1*x", ["x"])) == Neg(Var("x"))
    assert fold_constants(parse_expr("x^1", ["x"])) == Var("x")
    assert fold_constants(parse_expr("8^(1/3)", [])) == Const(Fraction(2))
    assert fold_constants(parse_expr("2^(1/3)", [])) == Pow(Const(Fraction(2)), Fraction(1, 3))


def test_variables():
    e = parse_expr("xi1^2*xi2 + z1", None)
    assert variables(e) == frozenset({"xi1", "xi2", "z1"})


# --- strategies -------------------------------------------------------------

_names = st.sampled_from(["x", "y", "z1"])
_const_values = st.fractions(min_value=-6, max_value=6, max_denominator=8)
_exponents = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(-2),
     Fraction(1, 3), Fraction(4, 3), Fraction(-2, 3), Fraction(2, 5)]
)


def _exprs(max_depth=3):
    base = st.one_of(_names.map(Var), _const_values.map(Const))

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: Sum(ab)),
            st.tuples(children, children, children).map(lambda ts: Sum(ts)),
            st.tuples(children, children).map(lambda ab: Product(ab)),
            children.map(Neg),
            st.tuples(children, _exponents).map(lambda be: Pow(*be)),
        )

    return st.recursive(base, extend, max_leaves=12)


@given(_exprs())
@settings(max_examples=200)
def test_print_parse_round_trip(e):
    assert parse_expr(to_string(e), None) == normalize(e)


@given(_exprs(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100)
def test_eval_deterministic_and_matches_compiled(e, seed):
    rng = np.random.default_rng(seed)
    names = sorted(variables(e) | {"x"})
    point = rng.uniform(0.25, 1.75, size=len(names))
    binding = dict(zip(names, point))
    try:
        a = evaluate(e, binding)
        b = evaluate(e, binding)
    except (ZeroDivisionError, OverflowError):
        assume(False)
    assert a == b  # bit-identical
    fn = compile_exprs([e], names)
    assert fn(point)[0] == a


def _singular_power_bases(e):
    """Bases of powers whose derivative is singular at 0."""
    out = []
    if isinstance(e, Pow):
        if e.exponent.denominator != 1 or e.exponent < 1:
            out.append(e.base)
        out.extend(_singular_power_bases(e.base))
    elif isinstance(e, Neg):
        out.extend(_singular_power_bases(e.child))
    elif isinstance(e, Sum):
        for t in e.terms:
            out.extend(_singular_power_bases(t))
    elif isinstance(e, Product):
        for f in e.factors:
            out.extend(_singular_power_bases(f))
    return out


@given(_exprs(), _names, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_derivative_matches_finite_difference(e, var, seed):
    rng = np.random.default_rng(seed)
    names = sorted(variables(e) | {var})
    binding = {n: v for n, v in zip(names, rng.uniform(0.25, 1.75, len(names)))}
    # stay away from the singular band of fractional/negative powers
    try:
        for b in _singular_power_bases(e):
            assume(abs(evaluate(b, binding)) > 1e-3)
        d = evaluate(differentiate(e, var), binding)
        h = 1e-6
        up = dict(binding, **{var: binding[var] + h})
        dn = dict(binding, **{var: binding[var] - h})
        fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
    except (ZeroDivisionError, OverflowError):
        assume(False)
    assume(abs(fd) < 1e8)
    assert abs(d - fd) <= 1e-4 * (1.0 + abs(d))


def test_derivative_finite_difference_bulk():
    # fixed-seed sweep mirroring the hypothesis property
    rng = np.random.default_rng(1234)
    exprs = [
        "x^2*y", "x^(4/3)+y^2", "-x*y + 2*y^3", "x^(1/3)*y^2 - x",
        "(x + y)*(x - y)", "x^(5/3) + 1/2*y^2 + x*y",
    ]
    for text in exprs:
        e = parse_expr(text, ["x", "y"])
        for _ in range(50):
            b = {"x": rng.uniform(0.2, 1.8), "y": rng.uniform(0.2, 1.8)}
            for var in ("x", "y"):
                d = evaluate(differentiate(e, var), b)
                h = 1e-6
                up = dict(b, **{var: b[var] + h})
                dn = dict(b, **{var: b[var] - h})
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                assert abs(d - fd) <= 1e-4 * (1.0 + abs(d))


@given(_exprs())
@settings(max_examples=100)
def test_fold_is_evaluation_equivalent(e):
    rng = np.random.default_rng(7)
    names = sorted(variables(e) | {"x"})
    binding = {n: v for n, v in zip(names, rng.uniform(0.3, 1.6, len(names)))}
    try:
        a = evaluate(e, binding)
        b = evaluate(fold_constants(e), binding)
    except (ZeroDivisionError, OverflowError):
        assume(False)
    assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


def test_compile_empty_vector():
    fn = compile_exprs([], ["x"])
    assert fn(np.array([1.0])).shape == (0,)


def test_factories():
    assert add() == Const(Fraction(0))
    assert mul() == Const(Fraction(1))
    assert add(Var("x")) == Var("x")
    assert add(Sum((Var("x"), Var("y"))), Var("z1")) == Sum((Var("x"), Var("y"), Var("z1")))


# --- stacks of points -------------------------------------------------------

@given(_exprs(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_compiled_stack_matches_points(e, seed):
    rng = np.random.default_rng(seed)
    names = sorted(variables(e) | {"x"})
    stack = rng.uniform(0.25, 1.75, size=(5, len(names)))
    fn = compile_exprs([e, Neg(e)], names)
    try:
        rows = [fn(point) for point in stack]
    except (ZeroDivisionError, OverflowError):
        assume(False)
    want = np.array(rows)
    assume(np.isfinite(want).all())
    got = fn(stack)
    assert got.shape == (5, 2)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


@given(_exprs(), _names, _exprs(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_substitute_evaluates_like_the_bound_value(e, name, g, seed):
    rng = np.random.default_rng(seed)
    names = sorted(variables(e) | variables(g) | {name})
    binding = dict(zip(names, rng.uniform(0.25, 1.75, size=len(names))))
    try:
        inner = evaluate(g, binding)
        want = evaluate(e, binding | {name: inner})
    except (ZeroDivisionError, OverflowError):
        assume(False)
    got = evaluate(substitute(e, {name: g}), binding)
    assert got == want or (np.isnan(got) and np.isnan(want))


def test_substitute_keeps_the_tree():
    e = parse_expr("x + y*x^(1/3) - 2", ["x", "y"])
    assert substitute(e, {}) == e
    assert substitute(e, {"z1": Var("x")}) == e
    got = substitute(e, {"x": Sum((Var("y"), Const(1)))})
    assert got.terms[0] == Sum((Var("y"), Const(1)))  # not flattened
    assert variables(got) == {"y"}


def test_rational_power_on_arrays_matches_scalar():
    x = np.array([-8.0, -1.5, -0.0, 0.0, 0.3, 27.0])
    for num, den in ((1, 3), (2, 3), (4, 3), (5, 3), (-1, 3), (-2, 5)):
        with np.errstate(divide="ignore"):
            got = rational_power(x, num, den)
        for xi, gi in zip(x, got):
            try:
                want = rational_power(float(xi), num, den)
            except ZeroDivisionError:
                assert gi == np.inf
                continue
            assert gi == pytest.approx(want, rel=1e-15)
            assert np.signbit(gi) == np.signbit(want)
    assert type(rational_power(-8.0, 1, 3)) is float
    assert not np.signbit(rational_power(np.array([-0.0]), 1, 3)[0])


def test_compile_constant_and_empty_stacks():
    stack = np.ones((7, 2))
    consts = compile_exprs([parse_expr("3", []), parse_expr("-1/2", [])],
                           ["x", "y"])
    assert consts(stack).shape == (7, 2)
    assert (consts(stack) == np.array([3.0, -0.5])).all()
    assert compile_exprs([], ["x", "y"])(stack).shape == (7, 0)


def test_compile_stack_spanning_several_blocks():
    stack = np.random.default_rng(8).uniform(-2, 2, size=(2500, 2))
    fn = compile_exprs([parse_expr("x*y^(1/3) + 1", ["x", "y"]),
                        parse_expr("2", [])], ["x", "y"])
    got = fn(stack)
    assert got.shape == (2500, 2)
    want = np.array([fn(point) for point in stack])
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


# --- the list entry point ---------------------------------------------------

@given(_exprs(), _exprs(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_list_entry_point_matches_numpy_scalars_bit_for_bit(e, g, seed):
    """The generated code indexes its argument: a list runs it on Python
    floats, an ndarray on numpy float64 scalars.  Both give the same bits."""
    rng = np.random.default_rng(seed)
    names = sorted(variables(e) | variables(g) | {"x"})
    point = rng.uniform(-2, 2, size=len(names))
    point[rng.random(len(names)) < 0.25] = 0.0  # zero bases reach the fallback
    fn = compile_exprs([e, g, add(e, g), mul(e, Neg(e))], names)  # shared subtrees
    with np.errstate(all="ignore"):
        try:
            want = np.array(fn.point(point), dtype=float)
        except (ZeroDivisionError, OverflowError) as err:
            # constants are Python floats on both paths: 0^(-2) raises on both
            with pytest.raises(type(err)):
                fn.point(point.tolist())
            return
        got = np.array(fn.point(point.tolist()), dtype=float)
        assert np.array_equal(fn(point), got, equal_nan=True)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_shared_subtrees_are_computed_once():
    x, y = Var("x"), Var("y")
    shared = Sum((x, Pow(y, Fraction(1, 3))))
    src = _source([mul(shared, shared), Neg(Sum((x, Pow(y, Fraction(1, 3)))))],
                  ["x", "y"])
    assert src.count("_rp(") == 1  # the copy is matched by structure
    assert src.count("_t") == 4  # one binding, three uses
    fn = compile_exprs([mul(shared, shared), Neg(shared)], ["x", "y"])
    assert fn(np.array([1.0, 8.0])).tolist() == [9.0, -3.0]


@pytest.mark.parametrize("text, value, warning", [
    ("xi1^(-1)", 0.0, "divide by zero"),
    ("xi1^(-1/3)", 0.0, "divide by zero"),
    ("xi1^3", 1e120, "overflow"),
])
def test_float_failure_falls_back_to_numpy_inf(text, value, warning):
    fn = compile_exprs([parse_expr(text, ["xi1"])], ["xi1"])
    with pytest.warns(RuntimeWarning, match=warning):
        assert fn.point([value]) == (np.inf,)
    with pytest.warns(RuntimeWarning, match=warning):
        assert fn(np.array([value])).tolist() == [np.inf]


# --- sympy oracle ------------------------------------------------------------

def _to_sympy(e, sp):
    """``e`` as a sympy expression over real symbols, with nisyn's
    sign-preserving real root sign(b)^p * |b|^(p/q) for fractional powers."""
    if isinstance(e, Var):
        return sp.Symbol(e.name, real=True)
    if isinstance(e, Const):
        return sp.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Neg):
        return -_to_sympy(e.child, sp)
    if isinstance(e, Sum):
        return sp.Add(*(_to_sympy(t, sp) for t in e.terms))
    if isinstance(e, Product):
        return sp.Mul(*(_to_sympy(f, sp) for f in e.factors))
    num, den = e.exponent.numerator, e.exponent.denominator
    base = _to_sympy(e.base, sp)
    if den == 1:
        return base ** num
    return sp.sign(base) ** num * sp.Abs(base) ** sp.Rational(num, den)


def _sympy_point(e, var, seed, sp):
    """A random point in [0.25, 1.75]^k (exact binary rationals) at which no
    base of a power that is singular at 0 lies within 1e-3 of 0."""
    rng = np.random.default_rng(seed)
    names = sorted(variables(e) | {var})
    point = {sp.Symbol(n, real=True): sp.Rational(v)
             for n, v in zip(names, rng.uniform(0.25, 1.75, len(names)))}
    for b in _singular_power_bases(e):
        value = sp.N(_to_sympy(b, sp).subs(point), 30)
        assume(value.is_finite and abs(value) > 1e-3)
    return point


def _assert_same_value(got, want, sp):
    got, want = sp.N(got, 50), sp.N(want, 50)
    assume(want.is_finite)
    assert got.is_finite
    assert abs(got - want) <= sp.Float(1e-35) * (1 + abs(want))


@given(_exprs(), _names, st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_differentiate_matches_sympy(e, var, seed):
    sp = pytest.importorskip("sympy")
    point = _sympy_point(e, var, seed, sp)
    want = sp.diff(_to_sympy(e, sp), sp.Symbol(var, real=True))
    got = _to_sympy(differentiate(e, var), sp)
    _assert_same_value(got.subs(point), want.subs(point), sp)


@given(_exprs(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_fold_constants_matches_sympy(e, seed):
    sp = pytest.importorskip("sympy")
    point = _sympy_point(e, "x", seed, sp)
    folded = fold_constants(e)
    want = _to_sympy(e, sp).subs(point)
    _assert_same_value(_to_sympy(folded, sp).subs(point), want, sp)
    if isinstance(folded, Const):  # folded exactly, so sympy's exact value
        assert want == _to_sympy(folded, sp)
