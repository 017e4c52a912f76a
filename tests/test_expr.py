"""Expression language: parser, evaluator, derivative and printer."""

import gc
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from nisyn.expr import (
    Const, EvalError, Expr, ExprError, Neg, ParseError, Pow, Product, Sum, Var,
    add, compile_exprs, differentiate, evaluate, fold_constants, mul,
    normalize, parse_expr, rational_power, substitute, to_string, variables,
)
import nisyn.expr
import nisyn.synthesis
from nisyn.expr import _body, _subtrees


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
    assert parse_expr("x^1.2", ["x"]) == Pow(Var("x"), Fraction(6, 5))
    assert parse_expr("x^(4/3)", ["x"]) == Pow(Var("x"), Fraction(4, 3))


@pytest.mark.parametrize("text, exponent, position", [
    ("x^3/3", "3/3", 2), ("x^-4/3", "-4/3", 2), ("x^4/3^3", "4/3", 2),
    ("2 + x^4/3", "4/3", 6),
])
def test_a_rational_exponent_must_be_in_parentheses(text, exponent, position):
    """Bare, ``x^3/3`` would read as x^(3/3) = x where x^3 over 3 is meant."""
    with pytest.raises(ParseError) as err:
        parse_expr(text, ["x"])
    assert err.value.position == position
    assert str(err.value) == (
        f"the rational exponent {exponent} must be in parentheses, "
        f"^({exponent}); there is no division operator (at position {position})")
    e = parse_expr(text.replace(f"^{exponent}", f"^({exponent})"), ["x"])
    assert parse_expr(to_string(e), ["x"]) == normalize(e)


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


def unpruned_derivative(e: Expr, var: str) -> Expr:
    """The derivative that keeps every zero term: each subtree is walked,
    and the product rule emits a term for every factor.  differentiate()
    must fold to what this folds to."""
    if isinstance(e, Var):
        return Const(Fraction(1 if e.name == var else 0))
    if isinstance(e, Const):
        return Const(Fraction(0))
    if isinstance(e, Neg):
        return Neg(unpruned_derivative(e.child, var))
    if isinstance(e, Sum):
        return Sum(tuple(unpruned_derivative(t, var) for t in e.terms))
    if isinstance(e, Product):
        fs = e.factors
        return add(*(mul(*fs[:i], unpruned_derivative(fs[i], var), *fs[i + 1:])
                     for i in range(len(fs))))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(Fraction(0))
        return mul(Const(e.exponent), Pow(e.base, e.exponent - 1),
                   unpruned_derivative(e.base, var))
    raise TypeError(f"not an expression node: {e!r}")


def test_a_subtree_free_of_the_variable_differentiates_to_zero():
    names = ["x", "y"]
    assert differentiate(parse_expr("x^(-1)", names), "y") == Const(Fraction(0))
    # the unpruned rule multiplies by x^(-2), which raises at x = 0
    assert evaluate(differentiate(parse_expr("x^(-1)", names), "y"),
                    {"x": 0.0, "y": 1.0}) == 0.0
    with pytest.raises(ZeroDivisionError):
        evaluate(unpruned_derivative(parse_expr("x^(-1)", names), "y"),
                 {"x": 0.0, "y": 1.0})
    d = differentiate(parse_expr("x^(-1)*y", names), "y")
    assert d == Product((Pow(Var("x"), Fraction(-1)), Const(Fraction(1))))
    assert evaluate(d, {"x": 4.0, "y": 3.0}) == 0.25
    # a sum keeps the derivatives of its terms that hold the variable
    assert differentiate(parse_expr("x^3 + y + x*x", names), "y") == \
        Const(Fraction(1))


def test_differentiate_builds_a_shared_subtree_derivative_once():
    shared = parse_expr("x^2 + 3*x*y", ["x", "y"])
    d = differentiate(mul(shared, shared), "x")
    assert d.terms[0].factors[0] is d.terms[1].factors[1]
    assert fold_constants(d) == fold_constants(
        unpruned_derivative(mul(shared, shared), "x"))


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


@given(_exprs(), _names)
@settings(max_examples=500, deadline=None)
def test_differentiate_folds_as_the_unpruned_derivative(e, var):
    assert fold_constants(differentiate(e, var)) == \
        fold_constants(unpruned_derivative(e, var))


@given(_exprs(), _names)
@settings(max_examples=500, deadline=None)
def test_fold_constants_is_idempotent(e, var):
    # on derivatives too: synthesize folds the laws on folded gradients
    for tree in (e, differentiate(e, var)):
        folded = fold_constants(tree)
        assert fold_constants(folded) == folded


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
    try:
        fn = compile_exprs([e, Neg(e)], names)
    except ExprError:  # a power of constants that divides by zero
        assume(False)
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


# --- one walk per node object ----------------------------------------------
#
# The ladders below are variables, substitute and normalize as they were
# before they shared one walk: each walks every path, so a subtree reached
# twice is walked twice.  They are the oracles of the walked versions.

def ladder_variables(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Neg):
        return ladder_variables(e.child)
    if isinstance(e, Sum):
        return frozenset().union(*(ladder_variables(t) for t in e.terms))
    if isinstance(e, Product):
        return frozenset().union(*(ladder_variables(f) for f in e.factors))
    if isinstance(e, Pow):
        return ladder_variables(e.base)
    raise TypeError(f"not an expression node: {e!r}")


def ladder_substitute(e: Expr, mapping) -> Expr:
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, Const):
        return e
    if isinstance(e, Neg):
        return Neg(ladder_substitute(e.child, mapping))
    if isinstance(e, Sum):
        return Sum(tuple(ladder_substitute(t, mapping) for t in e.terms))
    if isinstance(e, Product):
        return Product(tuple(ladder_substitute(f, mapping) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(ladder_substitute(e.base, mapping), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


def ladder_normalize(e: Expr) -> Expr:
    if isinstance(e, Var):
        return e
    if isinstance(e, Const):
        if e.value < 0:
            return Neg(Const(-e.value))
        return e
    if isinstance(e, Neg):
        return Neg(ladder_normalize(e.child))
    if isinstance(e, Sum):
        return add(*(ladder_normalize(t) for t in e.terms))
    if isinstance(e, Product):
        return mul(*(ladder_normalize(f) for f in e.factors))
    if isinstance(e, Pow):
        return Pow(ladder_normalize(e.base), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


@given(_exprs(), _names, _exprs())
@settings(max_examples=200, deadline=None)
def test_walked_helpers_match_their_ladders(e, name, g):
    # on e, on a DAG that reaches e twice, and under a power of a sum whose
    # terms may be sums themselves
    for tree in (e, Sum((e, Product((g, e)))), Pow(Sum((e, g)), Fraction(3))):
        assert variables(tree) == ladder_variables(tree)
        assert substitute(tree, {name: g}) == ladder_substitute(tree, {name: g})
        assert normalize(tree) == ladder_normalize(tree)


def _doubling(levels: int) -> Expr:
    """e_{k+1} = e_k + 2*e_k from e_0 = x: 2^levels paths to x."""
    e = Var("x")
    for _ in range(levels):
        e = Sum((e, Product((Const(2), e))))
    return e


def _objects(e: Expr, seen: dict) -> dict:
    """The distinct node objects under e, by id."""
    if id(e) not in seen:
        seen[id(e)] = e
        for c in (e.terms if isinstance(e, Sum) else
                  e.factors if isinstance(e, Product) else
                  (e.child,) if isinstance(e, Neg) else
                  (e.base,) if isinstance(e, Pow) else ()):
            _objects(c, seen)
    return seen


def test_a_shared_subtree_is_walked_once(monkeypatch):
    e = _doubling(20)
    objects = _objects(e, {})  # x, then a sum, a product and a 2 per level
    assert len(objects) == 61
    inner = {i for i, node in objects.items() if not isinstance(node, Var)}
    node = substitute(e, {"x": Sum((Var("y"), Const(1)))})
    for _ in range(20):  # both reaches of each level are one object
        assert node.terms[0] is node.terms[1].factors[1]
        node = node.terms[0]
    assert node == Sum((Var("y"), Const(1)))

    calls = []
    children = nisyn.expr._children
    for module in (nisyn.expr, nisyn.synthesis):
        monkeypatch.setattr(module, "_children",
                            lambda node: calls.append(node) or children(node))
    for walk in (variables, lambda e: substitute(e, {"x": Var("y")}),
                 normalize, lambda e: _body([e], ["x"]),
                 nisyn.synthesis._negative_powers):
        calls.clear()
        walk(e)
        reached = {id(node) for node in calls}
        assert len(calls) == len(reached) and inner <= reached <= objects.keys()
    assert variables(e) == {"x"}


def test_a_walk_refuses_what_is_not_a_node():
    for walk in (variables, normalize, lambda e: substitute(e, {}),
                 lambda e: compile_exprs([e], ["x"])):
        with pytest.raises(TypeError, match="not an expression node: 3.0"):
            walk(Sum((Var("x"), 3.0)))


def test_a_walk_leaves_no_reference_cycle():
    # a walk that held itself would leave itself and its memo to the cyclic
    # garbage collector on every call
    e = Sum((_doubling(6), Pow(Var("x"), Fraction(-1))))
    walks = (variables, lambda e: substitute(e, {"x": Var("y")}), normalize,
             lambda e: differentiate(e, "x"), fold_constants, to_string,
             lambda e: _subtrees([e]), nisyn.synthesis._negative_powers)
    gc.collect()
    gc.disable()
    try:
        for walk in walks:
            walk(e)
            assert gc.collect() == 0
    finally:
        gc.enable()


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
    try:
        fn = compile_exprs([e, g, add(e, g), mul(e, Neg(e))], names)  # shared subtrees
    except ExprError:  # a power of constants that divides by zero
        assume(False)
    with np.errstate(all="ignore"):
        # no compiled function raises on numpy scalars
        want = np.array(fn.point(point), dtype=float)
        got = np.array(fn.point(point.tolist()), dtype=float)
        assert np.array_equal(fn(point), got, equal_nan=True)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_shared_subtrees_are_computed_once():
    x, y = Var("x"), Var("y")
    shared = Sum((x, Pow(y, Fraction(1, 3))))
    statements, float_statements, roots = _body(
        [mul(shared, shared), Neg(Sum((x, Pow(y, Fraction(1, 3)))))], ["x", "y"])
    for body, power in ((statements, "_rp("), (float_statements, " < 0.0 else ")):
        src = "\n".join(body + roots)
        assert src.count(power) == 1  # the copy is matched by structure
        # the power and the sum are bound; the sum reads the power once and
        # is read three times
        assert src.count("_t") == 6
    fn = compile_exprs([mul(shared, shared), Neg(shared)], ["x", "y"])
    assert fn(np.array([1.0, 8.0])).tolist() == [9.0, -3.0]


@pytest.mark.parametrize("e, message", [
    (mul(Const(10 ** 400), Var("x")), f"constant {10 ** 400} is beyond the float range"),
    (fold_constants(parse_expr("10^400*x", ["x"])),
     f"constant {10 ** 400} is beyond the float range"),
    (Pow(Var("x"), Fraction(10 ** 400, 3)),
     f"exponent {10 ** 400}/3 is beyond the float range"),
], ids=["constant", "folded constant", "exponent"])
def test_a_number_beyond_the_float_range_is_an_expr_error(e, message):
    with pytest.raises(ExprError) as err:
        compile_exprs([e], ["x"])
    assert str(err.value) == message


def test_a_power_of_constants_compiles_to_its_value():
    e = parse_expr("2^(1/3)*x + 3^(-2) - 5^(2/3)*2^5 + (-3)^(5/3)*(1 + x)", ["x"])
    fn = compile_exprs([e], ["x"])
    assert "**" not in fn.roots[0] and "_rp" not in fn.roots[0]
    for x in (-1.5, 0.0, 0.7):
        assert fn.point([x]) == (evaluate(e, {"x": x}),)  # bit for bit
    assert fn(np.array([[0.7]]))[0, 0] == evaluate(e, {"x": 0.7})


@pytest.mark.parametrize("text, body", [
    # the power folds to a literal, so its base is never read
    ("(-8)^(1/3)*x", ()),
    ("(2+1)^(1/3)*x", ()),
    # a shared base read only by powers that fold
    ("(2+1)^(1/3)*x + (2+1)^(5/3)*x", ()),
], ids=["negative base", "sum base", "shared base"])
def test_a_constant_base_is_bound_only_where_its_power_stays_code(text, body):
    fn = compile_exprs([parse_expr(text, ["x"])], ["x"])
    assert fn.body == body
    for statement in body:  # every local is read
        name = statement.split(" = ")[0]
        assert len(re.findall(rf"\b{name}\b", fn.roots[0])) > 1


def _float_form(fn, values) -> tuple:
    """The float form's roots, run on Python floats outside any loop."""
    scope = {f"_x{i}": float(v) for i, v in enumerate(values)}
    exec("\n".join(fn.body), {}, scope)
    return tuple(eval(root, {}, scope) for root in fn.roots)


_a, _b, _c = Var("a"), Var("b"), Var("c")
_MINUS_ONE = Const(Fraction(-1))


@pytest.mark.parametrize("e, folded", [
    (Sum((_a, Neg(_b))), "(_x0 - _x1)"),
    (Sum((Neg(_a), _b)), "(_x1 - _x0)"),
    (Sum((Neg(_a), Neg(_b))), "((-_x0) - _x1)"),  # not -(a + b)
    (Sum((_a, Product((Const(Fraction(-5, 2)), _b, _c)))), "(_x0 - (2.5*_x1*_x2))"),
    (Sum((Product((Const(Fraction(-5, 2)), _b)), _a)), "(_x0 - (2.5*_x1))"),
    (Sum((_a, Neg(_b), _c, Neg(_a))), "(_x0 - _x1 + _x2 - _x0)"),
    (Sum((Neg(_a), _b, Neg(_c))), "(_x1 - _x0 - _x2)"),
    (Product((_MINUS_ONE, _a)), "(-_x0)"),
    (Product((_MINUS_ONE, _a, _b)), "(-(_x0*_x1))"),
    (Sum((_c, Product((_MINUS_ONE, _a, _b)))), "(_x2 - (_x0*_x1))"),
    (Sum((Product((_MINUS_ONE, _a)), _b)), "(_x1 - _x0)"),
    (Sum((Neg(Sum((_a, _b))), _c)), "(_x2 - (_x0 + _x1))"),
], ids=["a + (-b)", "(-a) + b", "(-a) + (-b)", "a + (-k*b*c)", "(-k*b) + a",
        "four terms", "three terms",
        "-1*a", "-1*a*b", "c + (-1*a*b)", "(-1*a) + b", "-(a + b) + c"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_negations_fold_into_subtractions_keeping_every_signed_zero(e, folded):
    fn = compile_exprs([e], ["a", "b", "c"])
    assert fn.body == () and fn.roots == (folded,)
    values = (0.0, -0.0, 1.5, -1.5, 2.0 ** -1074, np.inf)
    grid = [(a, b, c) for a in values for b in values for c in values]
    stack = fn(np.array(grid))[:, 0]
    for point, row in zip(grid, stack):
        want = evaluate(e, dict(zip("abc", point)))
        for got in (fn.point(list(point))[0], _float_form(fn, point)[0], row):
            if np.isnan(want):
                assert np.isnan(got)
            else:
                assert got == want and np.signbit(got) == np.signbit(want)


_GRID_POINTS = [s * x for x in (0.0, 5e-324, 1e-200, 0.7, 3.0, 1e103, 1e200,
                                 math.inf) for s in (1.0, -1.0)] + [math.nan]


def _bits(value) -> str:
    """The exact value, signed zeros apart; every nan alike."""
    return float(value).hex()


def _outcome(call):
    """The value of ``call()``, or the type of the error Python floats raise."""
    try:
        return call()
    except (ZeroDivisionError, OverflowError) as err:
        return type(err)


@pytest.mark.parametrize("exponent", [
    *map(Fraction, (-3, -2, -1, 2, 3, 4, 5)),
    Fraction(1, 3), Fraction(2, 3), Fraction(4, 3), Fraction(5, 3),
    Fraction(-1, 3), Fraction(-2, 3)], ids=str)
def test_every_evaluator_gives_the_same_power(exponent):
    """evaluate(), the list entry point, numpy scalars, the inlined float
    form and a stack row give x^k one value for an integer k, bit for bit;
    a fractional power's stack row is within the stack tolerance, since
    numpy's array power may round otherwise than C's pow."""
    e = Pow(Var("x"), exponent)
    fn = compile_exprs([e], ["x"])
    with np.errstate(all="ignore"):
        stack = fn(np.array(_GRID_POINTS)[:, None])[:, 0]
    for x, row in zip(_GRID_POINTS, stack):
        tree = _outcome(lambda: evaluate(e, {"x": x}))
        inlined = _outcome(lambda: _float_form(fn, [x])[0])
        with np.errstate(all="ignore"):
            listed = fn.point([x])[0]
            scalar = fn.point(np.array([x]))[0]
        assert type(scalar) is np.float64
        values = [listed, scalar]
        if isinstance(tree, type):  # Python floats raise the same error
            assert inlined is tree
        else:
            assert type(listed) is float
            values += [tree, inlined]
        if exponent.denominator == 1:
            values.append(row)
        elif np.isfinite(scalar):
            assert abs(row - scalar) <= 1e-12 * (1.0 + abs(scalar))
            assert np.signbit(row) == np.signbit(scalar)
        else:
            assert _bits(row) == _bits(scalar)
        assert {_bits(v) for v in values} == {_bits(scalar)}, x


def _warning_kinds(caught):
    """The floating-point errors that numpy warned of, without the name of
    the operation that met them."""
    return sorted({str(w.message).split(" encountered")[0] for w in caught})


@pytest.mark.parametrize("k", [-4, -3, -2, -1, 3, 4, 5, 6, 7, 8])
def test_integer_powers_on_stacks_keep_the_point_values_and_warnings(k):
    # a mixed-sign stack with signed zeros, infinities, nan and values whose
    # k-th power overflows or underflows
    edges = [0.0, np.inf, np.nan, 1e-200, 1e200, 1e-80, 1e80, 2.0 ** -1074, 1e308]
    xs = np.concatenate([np.geomspace(1e-3, 1e3, 200), edges])
    xs = np.random.default_rng(k + 10).permutation(np.concatenate([xs, -xs]))
    fn = compile_exprs([Pow(Var("x"), Fraction(k))], ["x"])
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        stack = fn(xs[:, None])[:, 0]
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        np.power(xs, k)
    assert _warning_kinds(got) == _warning_kinds(want)
    assert _warning_kinds(got) != []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        points = [fn.point([x])[0] for x in xs.tolist()]
    for g, want in zip(stack.tolist(), points):
        if np.isnan(want):
            assert np.isnan(g)
            continue
        assert np.signbit(g) == np.signbit(want)
        if np.isinf(want):
            assert g == want
        else:
            assert abs(g - want) <= 1e-12 * (1.0 + abs(want))


def test_the_bundled_loop_body_has_no_negation_left_to_fold():
    from nisyn.cli import Pipeline, bundled_scenario_path
    from nisyn.scenario import load_scenario
    pipe = Pipeline(load_scenario(bundled_scenario_path()))
    for system in (pipe.closed_loop, pipe.interconnection):
        source = "\n".join(system._rhs_fn.body + system._rhs_fn.roots)
        assert "+ (-" not in source and "-1.0*" not in source


_WIDE_SHAPED = {  # m = 4: a rotation block and a coupled Hurwitz block
    "plant": {"m": 4, "p1": 1, "p2": 2,
              "A11": [[0.0, 1.2, 0.0, 0.0], [-1.2, 0.0, 0.0, 0.0],
                      [0.0, 0.0, -1.5, 0.3], [0.0, 0.0, -0.4, -0.9]],
              "p": ["0.5*xi1^2*xi2_1 - 0.3*xi2_2^3 + 0.7*xi1*xi2_1*xi2_2",
                    "-0.6*xi1^3 + 0.4*xi2_1^2*xi2_2 + 0.8*xi1*xi2_2^2",
                    "0.9*xi2_1^3 - 0.2*xi1^2*xi2_2 + 0.5*xi1*xi2_1^2",
                    "0.3*xi2_2^2*xi2_1 + 0.6*xi1^2*xi2_2 - 0.7*xi2_1^3"]},
    "spec": {"P": "auto", "V2": "xi1^(4/3) + 1.1*xi2_1^2 + 0.8*xi2_2^2",
             "lambda": 1.0, "target": "OSNI"},
    "simulation": {"x0": [0.1] * 9},
}


def test_the_float_form_differs_from_the_stack_form_only_at_fractional_powers():
    """One body: the statements the RK4 loop inlines are the stack form's
    with each fractional power's binding written as a sign branch, the roots
    are shared, and no integer power calls a helper.  On the bundled loop,
    its uncertainty and interconnection, and a plant of the wide
    benchmark's shape."""
    from nisyn.cli import Pipeline, bundled_scenario_path
    from nisyn.scenario import load_scenario, scenario_from_dict
    pipe = Pipeline(load_scenario(bundled_scenario_path()))
    wide = Pipeline(scenario_from_dict(_WIDE_SHAPED))
    fractional = []
    for system in (pipe.closed_loop, pipe.uncertainty, pipe.interconnection,
                   wide.closed_loop):
        names = system.state_names + system.input_names
        statements, float_statements, roots = _body(system.rhs_exprs, names)
        assert len(float_statements) == len(statements)
        for stack, floats in zip(statements, float_statements):
            if "_rp(" in stack:
                assert re.fullmatch(r"_t\d+ = _rp\(\w+, -?\d+, \d+\)", stack)
                local = stack.split(" = ")[0]
                assert floats.startswith(f"{local} = (")
                assert " < 0.0 else " in floats and "_rp(" not in floats
            else:
                assert floats == stack
        assert not any("_rp(" in root for root in roots)
        assert "_ip(" not in "\n".join(statements + float_statements + roots)
        assert (system._rhs_fn.body, system._rhs_fn.roots) == (float_statements,
                                                               roots)
        fractional.append(sum("_rp(" in stack for stack in statements))
    # V2's xi1^(4/3) gives each loop an xi1^(1/3); the uncertainty has none
    assert fractional[0] >= 1 and fractional[2] >= 1 and fractional[3] >= 1


@pytest.mark.parametrize("text, power", [
    ("10^400*x", "10^400"), ("x + 10^(1201/3)", "10^(1201/3)"),
    ("2^1100*x", "2^1100"), ("(-10)^401*x", "(-10)^401"),
])
def test_a_power_of_constants_beyond_the_float_range_is_an_expr_error(text,
                                                                       power):
    with pytest.raises(ExprError) as err:
        compile_exprs([parse_expr(text, ["x"])], ["x"])
    assert str(err.value) == f"power {power} is beyond the float range"


@pytest.mark.parametrize("text, message", [
    ("0^(-1)", "power 0^-1 divides by zero"),
    ("-x + 0^(-1)*x", "power 0^-1 divides by zero"),
    ("(1-1)^(-1/3) + x", "power (1 - 1)^(-1/3) divides by zero"),
    ("x*(0*2)^(-2)", "power (0*2)^-2 divides by zero"),
    # a base of constants that overflows: inf, and inf - inf = nan
    ("(10^300*10^300)^(1/3)*x", "power (10^300*10^300)^(1/3) is beyond the "
                                "float range"),
    ("(10^300*10^300 - 10^300*10^300)^3 + x",
     "power (10^300*10^300 - 10^300*10^300)^3 is beyond the float range"),
], ids=["zero", "zero in a product", "zero sum", "zero product", "inf", "nan"])
def test_a_power_of_constants_without_a_float_value_is_an_expr_error(text,
                                                                     message):
    """A literal holds every power of constants, so the compiled code has no
    power that raises on numpy scalars."""
    with pytest.raises(ExprError) as err:
        compile_exprs([parse_expr(text, ["x"])], ["x"])
    assert str(err.value) == message


def test_fold_constants_folds_a_shared_subtree_object_once():
    shared = parse_expr("2*3*x + y^(1/3)", ["x", "y"])
    folded = fold_constants(mul(shared, shared))
    assert folded.factors[0] is folded.factors[1]
    assert folded == fold_constants(mul(shared, parse_expr("2*3*x + y^(1/3)", ["x", "y"])))


@pytest.mark.parametrize("text, value, warning", [
    ("xi1^(-1)", 0.0, "divide by zero"),
    ("xi1^(-1/3)", 0.0, "divide by zero"),
    ("xi1^(5/3)", 1e200, "overflow"),
])
def test_float_failure_falls_back_to_numpy_inf(text, value, warning):
    fn = compile_exprs([parse_expr(text, ["xi1"])], ["xi1"])
    with pytest.warns(RuntimeWarning, match=warning):
        assert fn.point([value]) == (np.inf,)
    with pytest.warns(RuntimeWarning, match=warning):
        assert fn(np.array([value])).tolist() == [np.inf]


def test_an_integer_power_that_overflows_is_inf_on_python_floats():
    """A product of Python floats overflows to inf without raising, so the
    point needs no second call on numpy scalars, and warns of nothing."""
    fn = compile_exprs([parse_expr("xi1^3", ["xi1"])], ["xi1"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fn.point([1e120]) == (np.inf,)
        assert fn(np.array([1e120])).tolist() == [np.inf]
    with pytest.warns(RuntimeWarning, match="overflow"):  # a stack warns
        assert fn(np.array([[1e120]])).tolist() == [[np.inf]]


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
