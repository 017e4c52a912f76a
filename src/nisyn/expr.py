"""Expression language: parsing, evaluation and symbolic differentiation.

A small AST over sums, products, negation and rational powers is used to
define plant nonlinearities and storage functions.  Grammar (EBNF):

    expr     = term , { ("+" | "-") , term } ;
    term     = unary , { "*" , unary } ;
    unary    = "-" , unary | power ;
    power    = atom , { "^" , exponent } ;        (* right-associative *)
    exponent = [ "-" ] , digits , [ "." , digits ]
             | "(" , [ "-" ] , number , ")" ;
    atom     = number | identifier | "(" , expr , ")" ;
    number   = digits , [ "." , digits | "/" , digits ] ;

There is no division operator; "/" only appears inside rational literals
such as ``4/3``, and a rational exponent is written in parentheses:
``x^(4/3)``, while ``x^4/3`` is a ParseError, not x^4 over 3 nor
x^(4/3).  Rational exponents must reduce to an odd denominator and
evaluate as the sign-preserving real root

    x^(p/q) = sign(x)^p * |x|^(p/q),

so e.g. ``(-8)^(1/3) = -2`` and ``(-1)^(4/3) = 1``.  Exponents with an even
denominator are rejected at parse time because they are not real-valued on
negative bases.

Storages, gradients and laws share subtrees.  variables, substitute,
normalize, differentiate, fold_constants, to_string and compile_exprs'
subtree numbering walk through ``_Walk``, which visits each node object
once and shares its result wherever it is reached again; the structural
walks take a node's children from ``_children``.

compile_exprs() is the one evaluator, for a point or a stack of points; the
tree walker evaluate() is its reference and serves one-point origin checks.
It emits one straight-line function for the whole vector: it unpacks its
argument into the locals ``_x0 … _x{n-1}`` once, then binds every non-leaf
subtree that occurs more than once, every non-leaf base of a power and
every fractional power to a local ``_tN`` ahead of the ``return``;
subtrees are matched on (kind, payload, child numbers), numbered
bottom-up, so no subtree is hashed whole.  Negations are folded into
subtractions by exact IEEE identities (``a + (-b)`` is ``a - b``, a
leading ``(-a) + b`` is ``b - a``, a product led by -1 is ``-(rest)``),
so the tree walker's bits are kept, signed zeros included.  x^k for an
integer k is one rule, _int_power's chain (1/x first for a negative k,
then ``x*x``, ``(x*x)*x`` and square-and-multiply), written out in the
body, so evaluate(), a point and a stack agree bit for bit on it, and
numpy's power, which runs a scalar loop on negative bases, stays out of
the code.  The callable keeps the float form of that body (``body``,
``roots``, ``n_vars``), which the integrator inlines into its RK4 loop:
the same statements and roots, but each fractional power's binding is a
conditional expression instead of a call to rational_power.  One point
runs on Python floats: the callable passes ``x.tolist()`` to its
``point`` attribute, the one-point entry point.  Python floats raise
ZeroDivisionError (1/0, or a fractional power of 0 under a negative
exponent) or OverflowError (a fractional power beyond the float range)
where numpy gives inf; an integer power that overflows is inf on both.
When the float call raises either, the point is evaluated again on numpy
float64 scalars (as the integrator's RK4 loop redoes a step whose inlined
body raised): there is one failure mode, inf or nan with numpy's
RuntimeWarning.  A power whose base holds no variable is compiled to the
literal of its value, and one that divides by zero, such as ``0^(-1)``,
or whose value is beyond the float range is an ExprError at compile time.
Of the float operations only a fractional power and a division raise,
and every one left in the code reads a variable, so on numpy scalars no
compiled function raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union
import math
import re

import numpy as np

__all__ = [
    "Expr", "Var", "Const", "Neg", "Sum", "Product", "Pow",
    "ExprError", "ParseError", "EvalError",
    "parse_expr", "evaluate", "differentiate", "fold_constants",
    "to_string", "normalize", "variables", "substitute", "compile_exprs",
    "rational_power", "add", "mul",
]


class ExprError(Exception):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    pass


# --- AST -------------------------------------------------------------------
#
# All nodes are frozen; expression values are immutable after construction
# and safe to share between threads.

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class Sum:
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) < 2:
            raise ValueError("Sum requires at least two terms; use add()")


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 2:
            raise ValueError("Product requires at least two factors; use mul()")


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: Fraction

    def __post_init__(self):
        if not isinstance(self.exponent, Fraction):
            object.__setattr__(self, "exponent", Fraction(self.exponent))
        if self.exponent.denominator % 2 == 0:
            raise ValueError(
                f"rational exponent {self.exponent} has an even denominator"
            )


Expr = Union[Var, Const, Neg, Sum, Product, Pow]


def add(*terms: Expr) -> Expr:
    """n-ary sum; flattens nested sums, no constant folding."""
    flat: list = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if not flat:
        return Const(Fraction(0))
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors: Expr) -> Expr:
    """n-ary product; flattens nested products, no constant folding."""
    flat: list = []
    for f in factors:
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        return Const(Fraction(1))
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def _children(e: Expr) -> tuple:
    """A node's children in evaluation order; () for a leaf."""
    kind = type(e)  # the node classes have no subclasses; most common first
    if kind is Product:
        return e.factors
    if kind is Const or kind is Var:
        return ()
    if kind is Sum:
        return e.terms
    if kind is Pow:
        return (e.base,)
    if kind is Neg:
        return (e.child,)
    raise TypeError(f"not an expression node: {e!r}")


def _with_children(e: Expr, kids: Sequence[Expr]) -> Expr:
    """A node of ``e``'s kind and payload over ``kids``; a leaf is ``e``.
    Built with the constructors, so a sum of sums stays nested."""
    if isinstance(e, Sum):
        return Sum(kids)
    if isinstance(e, Product):
        return Product(kids)
    if isinstance(e, Neg):
        return Neg(kids[0])
    if isinstance(e, Pow):
        return Pow(kids[0], e.exponent)
    return e


class _Walk:
    """A walk that calls ``step(node, walk)`` once per node object and
    returns its result wherever the object is reached again; ``step``
    reaches the children through ``walk``, the walk itself.  A walk is an
    object, not a closure that holds itself, so it and its memo are freed
    when the last reference goes, without waiting for the cyclic garbage
    collector."""

    __slots__ = ("step", "done")

    def __init__(self, step: Callable):
        self.step = step
        self.done: dict = {}  # id -> (node, result); the node keeps its id valid

    def __call__(self, e: Expr):
        hit = self.done.get(id(e))
        if hit is None:
            hit = self.done[id(e)] = (e, self.step(e, self))
        return hit[1]


def variables(e: Expr) -> frozenset:
    return _Walk(lambda e, walk: frozenset((e.name,)) if isinstance(e, Var)
                 else frozenset().union(*map(walk, _children(e))))(e)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace each variable named in ``mapping`` by its expression.  The
    tree is otherwise kept node for node, so it evaluates in the same order."""
    return _Walk(lambda e, walk: mapping.get(e.name, e) if isinstance(e, Var)
                 else _with_children(e, tuple(map(walk, _children(e)))))(e)


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d+|/\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*^()])|(?P<ws>\s+)"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, declared: Optional[frozenset]):
        self.tokens = tokens
        self.i = 0
        self.declared = declared

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.peek()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.sum()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return e

    def sum(self) -> Expr:
        terms = [self.term()]
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            t = self.term()
            terms.append(Neg(t) if op == "-" else t)
        return add(*terms)

    def term(self) -> Expr:
        factors = [self.unary()]
        while self.peek()[1] == "*":
            self.advance()
            factors.append(self.unary())
        return mul(*factors)

    def unary(self) -> Expr:
        if self.peek()[1] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        exponents = []
        while self.peek()[1] == "^":
            _, _, caret_pos = self.advance()
            exponents.append((self.exponent(), caret_pos))
        if not exponents:
            return base
        # fold a literal tower right-associatively with exact arithmetic
        total, pos = exponents[-1]
        for e, p in reversed(exponents[:-1]):
            try:
                folded = e ** total
            except (ZeroDivisionError, OverflowError):
                raise ParseError("exponent tower does not reduce to a rational", p)
            if not isinstance(folded, Fraction):
                raise ParseError("exponent tower does not reduce to a rational", p)
            total, pos = folded, p
        if total.denominator % 2 == 0:
            raise ParseError(
                f"rational exponent {total} has an even denominator "
                "(not real-valued for negative bases)", pos)
        return Pow(base, total)

    def exponent(self) -> Fraction:
        kind, text, pos = self.peek()
        if text == "(":
            self.advance()
            value = self._signed_number()
            self.expect(")")
            return value
        value = self._signed_number()
        number = self.tokens[self.i - 1][1]
        if "/" in number:  # x^3/3 would read as x^(3/3), not x^3 over 3
            number = "-" + number if text == "-" else number
            raise ParseError(f"the rational exponent {number} must be in "
                             f"parentheses, ^({number}); there is no division "
                             "operator", pos)
        return value

    def _signed_number(self) -> Fraction:
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        kind, text, pos = self.advance()
        if kind != "num":
            raise ParseError(f"expected a numeric exponent, found {text!r}", pos)
        return sign * Fraction(text)

    def atom(self) -> Expr:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(Fraction(text))
        if kind == "name":
            if self.declared is not None and text not in self.declared:
                raise ParseError(f"undeclared variable {text!r}", pos)
            return Var(text)
        if text == "(":
            e = self.sum()
            self.expect(")")
            return e
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def parse_expr(text: str, variables: Optional[Iterable[str]] = None) -> Expr:
    """Parse ``text`` against the grammar, restricting variable references
    to ``variables`` (None disables the check)."""
    declared = None if variables is None else frozenset(variables)
    return _Parser(_tokenize(text), declared).parse()


# --- evaluation ------------------------------------------------------------

def rational_power(x, num: int, den: int):
    """Sign-preserving real root: sign(x)^num * |x|^(num/den), den odd; elementwise."""
    r = abs(x) ** (num / den)
    if num % 2 == 0:
        return r
    if isinstance(r, float):
        return -r if x < 0 else r
    return np.where(x < 0, -r, r)


def _int_power(x, k: int):
    """x^k for an integer k, the chain of IEEE operations that _chain
    writes into compiled code: 1/x first for a negative k, then ``x*x``,
    ``(x*x)*x`` and square-and-multiply from the top bit.  Every partial
    product is a power of x (or 1/x) up to the k-th, so on a float only 1/0
    raises, and an overflow is inf.  k = 0 and k = 1 keep ``**``."""
    if 0 <= k <= 1:
        return x ** k
    if k < 0:
        x, k = 1.0 / x, -k
        if k == 1:
            return x
    out = x * x  # k has at least two bits; square-and-multiply from the top
    for i, bit in enumerate(bin(k)[3:]):
        if i:
            out *= out
        if bit == "1":
            out *= x
    return out


def evaluate(e: Expr, binding: Mapping[str, float]) -> float:
    """Evaluate to a float.  Deterministic: identical AST and binding give a
    bit-identical result.  An integer power is _int_power's chain, so only
    1/0 and a fractional power (of 0 under a negative exponent, or beyond
    the float range) raise."""
    if isinstance(e, Var):
        try:
            return float(binding[e.name])
        except KeyError:
            raise EvalError(f"missing binding for variable {e.name!r}") from None
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Neg):
        return -evaluate(e.child, binding)
    if isinstance(e, Sum):
        acc = evaluate(e.terms[0], binding)
        for t in e.terms[1:]:
            acc = acc + evaluate(t, binding)
        return acc
    if isinstance(e, Product):
        acc = evaluate(e.factors[0], binding)
        for f in e.factors[1:]:
            acc = acc * evaluate(f, binding)
        return acc
    if isinstance(e, Pow):
        b = evaluate(e.base, binding)
        if e.exponent.denominator == 1:
            return _int_power(b, e.exponent.numerator)
        return rational_power(b, e.exponent.numerator, e.exponent.denominator)
    raise TypeError(f"not an expression node: {e!r}")


# --- differentiation -------------------------------------------------------

def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative with respect to ``var``.

    A subtree that does not hold ``var`` differentiates to Const(0), and
    no derivative is built for it: a sum keeps the derivatives of its terms
    that hold ``var``, and the product rule emits a term only for each
    factor that holds it.  Whether a node holds ``var``, and its
    derivative, are recorded per node object, so a subtree reached more
    than once is checked and differentiated once.  The result is not
    simplified; apply fold_constants() separately, which folds it to what
    it folds the derivative that keeps every zero term to.
    """
    out = _Walk(lambda e, d: _derivative(e, var, d))(e)
    return Const(Fraction(0)) if out is None else out


def _derivative(e: Expr, var: str,
                d: Callable[[Expr], Optional[Expr]]) -> Optional[Expr]:
    """One node of differentiate, given ``d`` for its children: None where
    the derivative is zero because ``e`` does not hold ``var`` (or is a
    zeroth power)."""
    if isinstance(e, Var):
        return Const(Fraction(1)) if e.name == var else None
    if isinstance(e, Const):
        return None
    if isinstance(e, Neg):
        c = d(e.child)
        return None if c is None else Neg(c)
    if isinstance(e, Sum):
        terms = [t for t in map(d, e.terms) if t is not None]
        return add(*terms) if terms else None
    if isinstance(e, Product):
        fs = e.factors
        terms = [mul(*fs[:i], df, *fs[i + 1:])
                 for i, df in enumerate(map(d, fs)) if df is not None]
        return add(*terms) if terms else None
    if isinstance(e, Pow):
        db = None if e.exponent == 0 else d(e.base)
        if db is None:
            return None
        return mul(Const(e.exponent), Pow(e.base, e.exponent - 1), db)
    raise TypeError(f"not an expression node: {e!r}")


# --- constant folding ------------------------------------------------------

def _integer_root(n: int, q: int) -> Optional[int]:
    if n in (0, 1):
        return n
    if n.bit_length() > 512:
        return None
    r = round(n ** (1.0 / q))
    for c in (r - 1, r, r + 1):
        if c >= 0 and c ** q == n:
            return c
    return None


def _exact_rational_pow(value: Fraction, exponent: Fraction) -> Optional[Fraction]:
    num, den = exponent.numerator, exponent.denominator
    if value == 0:
        return Fraction(0) if num > 0 else None
    if den == 1:
        return value ** num
    sign = -1 if (value < 0 and num % 2 != 0) else 1
    a = abs(value)
    rn = _integer_root(a.numerator, den)
    rd = _integer_root(a.denominator, den)
    if rn is None or rd is None:
        return None
    return sign * Fraction(rn, rd) ** num


def fold_constants(e: Expr) -> Expr:
    """Fold constant subexpressions with exact rational arithmetic.
    Evaluation-equivalent to the input; not a canonical form."""
    return _Walk(_fold)(e)


def _fold_above(e: Expr, folded: Expr) -> Expr:
    """fold_constants(e) for an ``e`` built on ``folded``, a result of
    fold_constants: only the nodes above ``folded`` are folded, since
    fold_constants gives a folded tree back node for node."""
    return _Walk(lambda node, fold: node if node is folded
                 else _fold(node, fold))(e)


def _fold(e: Expr, fold: Callable[[Expr], Expr]) -> Expr:
    """One node of fold_constants, given the folding of its children."""
    if isinstance(e, (Var, Const)):
        return e
    if isinstance(e, Neg):
        c = fold(e.child)
        if isinstance(c, Const):
            return Const(-c.value)
        if isinstance(c, Neg):
            return c.child
        return Neg(c)
    if isinstance(e, Sum):
        total = Fraction(0)
        rest: list = []
        for t in e.terms:
            ft = fold(t)
            parts = ft.terms if isinstance(ft, Sum) else (ft,)
            for p in parts:
                if isinstance(p, Const):
                    total += p.value
                else:
                    rest.append(p)
        if total != 0:
            rest.append(Const(total))
        return add(*rest)
    if isinstance(e, Product):
        coef = Fraction(1)
        rest = []
        for f in e.factors:
            ff = fold(f)
            if isinstance(ff, Neg):
                coef = -coef
                ff = ff.child
            parts = ff.factors if isinstance(ff, Product) else (ff,)
            for p in parts:
                if isinstance(p, Const):
                    coef *= p.value
                else:
                    rest.append(p)
        if coef == 0:
            return Const(Fraction(0))
        if not rest:
            return Const(coef)
        if coef == 1:
            return mul(*rest)
        if coef == -1:
            return Neg(mul(*rest))
        return mul(Const(coef), *rest)
    if isinstance(e, Pow):
        b = fold(e.base)
        if e.exponent == 0:
            return Const(Fraction(1))
        if e.exponent == 1:
            return b
        if isinstance(b, Const):
            folded = _exact_rational_pow(b.value, e.exponent)
            if folded is not None:
                return Const(folded)
        return Pow(b, e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


# --- printing --------------------------------------------------------------

def _frac_str(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def to_string(e: Expr) -> str:
    """Render to a string that re-parses to normalize(e)."""
    return _Walk(_render)(e)


def _render(e: Expr, walk: Callable[[Expr], str]) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Const):
        return _frac_str(e.value)
    if isinstance(e, Neg):
        inner = walk(e.child)
        if isinstance(e.child, (Sum, Product)):
            return f"-({inner})"
        return f"-{inner}"
    if isinstance(e, Sum):
        out = walk(e.terms[0])
        for t in e.terms[1:]:
            if isinstance(t, Neg):
                inner = walk(t.child)
                if isinstance(t.child, Sum):
                    inner = f"({inner})"
                out += f" - {inner}"
            else:
                out += f" + {walk(t)}"
        return out
    if isinstance(e, Product):
        parts = []
        for f in e.factors:
            s = walk(f)
            if isinstance(f, Sum):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(e, Pow):
        base = walk(e.base)
        if not (isinstance(e.base, Var)
                or (isinstance(e.base, Const) and e.base.value >= 0)):
            base = f"({base})"
        exp = e.exponent
        if exp.denominator == 1:
            suffix = str(exp.numerator) if exp.numerator >= 0 else f"-{-exp.numerator}"
        else:
            suffix = f"({_frac_str(exp)})" if exp >= 0 else f"(-{_frac_str(-exp)})"
        return f"{base}^{suffix}"
    raise TypeError(f"not an expression node: {e!r}")


def normalize(e: Expr) -> Expr:
    """Structural normal form: flatten nested sums/products, strip vacuous
    wrappers and rewrite negative constants as Neg(positive).  This is the
    shape the parser itself produces, so parse(to_string(e)) == normalize(e).
    """
    return _Walk(_normal)(e)


def _normal(e: Expr, walk: Callable[[Expr], Expr]) -> Expr:
    if isinstance(e, Const) and e.value < 0:
        return Neg(Const(-e.value))
    kids = tuple(map(walk, _children(e)))
    if isinstance(e, Sum):
        return add(*kids)
    if isinstance(e, Product):
        return mul(*kids)
    return _with_children(e, kids)


# --- compilation -----------------------------------------------------------

def _subtrees(exprs: Sequence[Expr]):
    """Number the distinct subtrees of ``exprs`` bottom-up, children first.

    Two nodes are the same subtree when their kind, payload and child numbers
    agree; the key is built from child numbers, so no subtree is hashed
    whole.  Returns the root numbers, the ``(node, child numbers)`` of each
    subtree, and each subtree's use count: the roots and distinct parents
    that refer to it.
    """
    table: dict = {}
    nodes: list = []
    uses: list = []

    def number(e: Expr, walk: Callable[[Expr], int]) -> int:
        kids = tuple(map(walk, _children(e)))
        payload = (e.exponent if isinstance(e, Pow) else None) if kids else (
            e.name if isinstance(e, Var) else e.value)
        key = (type(e), payload, kids)
        i = table.get(key)
        if i is None:  # a copy's children are counted for the first one
            i = table[key] = len(nodes)
            nodes.append((e, kids))
            uses.append(0)
            for k in kids:
                uses[k] += 1
        return i

    roots = list(map(_Walk(number), exprs))
    for r in roots:
        uses[r] += 1
    return roots, nodes, uses


def _code(e: Expr, kids: Sequence[tuple], index: Mapping[str, int]) -> tuple:
    """Source for one node as ``(source, operand)`` given those of its
    children.  ``operand`` is the source of what the node negates, None if
    it is no negation: a Neg negates its child, a product led by -1 (whose
    source is ``-(rest)``) the product of the rest, and a product led by
    another negative constant -k the product of k and the rest.  A sum
    subtracts the operand of each negation after its first term, and a
    leading negation from the second term: ``a + (-b)`` is ``a - b`` and
    ``(-a) + b`` is ``b - a``.  These rewrites are exact, since IEEE
    defines a - b as a + (-b), addition commutes and rounding is symmetric
    in sign, so evaluate()'s bits are kept.  ``(-a) + (-b)`` stays ``(-a) -
    b``: -(a + b) would give -0.0 at a = -b, where the sum gives +0.0.  An
    integer power is _int_power's chain written out (see _chain), and a
    fractional power a call to ``_rp`` (rational_power), which _body binds
    to a local and rewrites in the float form."""
    if isinstance(e, Var):
        try:
            return f"_x{index[e.name]}", None
        except KeyError:
            raise ExprError(f"variable {e.name!r} not in compilation scope") from None
    if isinstance(e, Const):
        try:
            return repr(float(e.value)), None
        except OverflowError:
            raise ExprError(f"constant {_frac_str(e.value)} is beyond the "
                            "float range") from None
    if isinstance(e, Neg):
        return f"(-{kids[0][0]})", kids[0][0]
    if isinstance(e, Sum):
        (first, negated), rest = kids[0], kids[1:]
        if negated is not None and rest[0][1] is None:
            out, rest = f"{rest[0][0]} - {negated}", rest[1:]
        else:
            out = first
        for code, negated in rest:
            out += f" - {negated}" if negated is not None else f" + {code}"
        return f"({out})", None
    if isinstance(e, Product):
        codes = [code for code, _ in kids]
        if not codes[0].startswith("-"):  # not a negative literal
            return "(" + "*".join(codes) + ")", None
        if codes[0] == "-1.0":
            rest = codes[1:]
            operand = rest[0] if len(rest) == 1 else "(" + "*".join(rest) + ")"
            return f"(-{operand})", operand
        return ("(" + "*".join(codes) + ")",
                "(" + "*".join([codes[0][1:], *codes[1:]]) + ")")
    if isinstance(e, Pow):
        # the base is a name: a variable, or a local that _body binds
        base, (num, den) = kids[0][0], e.exponent.as_integer_ratio()
        if den != 1:
            return f"_rp({base}, {num}, {den})", None
        if 0 <= num <= 1:
            return f"(({base})**{num})", None
        return _chain(base, num), None
    raise TypeError(f"not an expression node: {e!r}")


def _chain(base: str, k: int) -> str:
    """_int_power(base, k) written out for a name ``base`` and k >= 2 or
    k <= -1: the same products in the same order, ``(b*b)``, ``((b*b)*b)``
    and ``(1.0/b)`` for k = 2, 3 and -1.  Above that, 1/b is bound to
    ``_inv`` and each partial power that is squared to ``_sq`` (with
    ``:=``) where it is computed and read at once after, so nothing is
    computed twice, and no chain runs inside another, since every base is
    a name."""
    first = base
    if k < 0:
        if k == -1:
            return f"(1.0/{base})"
        first, base, k = f"(_inv := 1.0/{base})", "_inv", -k
    out = f"({first}*{base})"
    for i, bit in enumerate(bin(k)[3:]):
        if i:
            out = f"((_sq := {out})*_sq)"
        if bit == "1":
            out = f"({out}*{base})"
    return out


def _const_power(e: Pow) -> str:
    """The literal of a power whose base holds no variable, computed by the
    float operations that its code would run on every call (evaluate() runs
    the same ones).  A zero base under a negative exponent, and a value
    beyond the float range (inf or nan, also from a base that overflowed),
    are ExprErrors: no literal holds them."""
    try:
        value = evaluate(e, {})
    except ZeroDivisionError:
        raise ExprError(f"power {to_string(e)} divides by zero") from None
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ExprError(f"power {to_string(e)} is beyond the float range")
    return repr(value)


def _float_power(base: str, exponent: Fraction) -> str:
    """rational_power inlined for a Python float, with a sign branch instead
    of a call to abs: ``base`` is a name, since it is read more than once,
    and is compared with the float 0.0, which CPython compares faster than
    the int 0.  A base that is not below 0 (0.0, -0.0 and nan too) is
    raised as it is: CPython's float ``**`` gives 0.0 for -0.0 under a
    positive fractional exponent and raises ZeroDivisionError under a
    negative one, as on 0.0, so it gives rational_power's bits, signed
    zeros included (and nan for nan, whose sign abs would clear)."""
    try:
        e = repr(exponent.numerator / exponent.denominator)
    except OverflowError:
        raise ExprError(f"exponent {_frac_str(exponent)} is beyond the "
                        "float range") from None
    if exponent.numerator % 2:
        return f"(-((-{base}) ** {e}) if {base} < 0.0 else {base} ** {e})"
    return f"(-{base} if {base} < 0.0 else {base}) ** {e}"


def _body(exprs: Sequence[Expr], var_names: Sequence[str]) -> tuple:
    """The straight-line body over the locals ``_x0 … _x{n-1}``, as
    ``(statements, float_statements, roots)``: the statements bind to a
    local ``_tN`` every non-leaf subtree used more than once, every non-leaf
    base of a power and every fractional power, and the roots are the code
    of each root.  A power of a base without variables is the literal of its
    value, and a subtree read only there is not bound.  The statements call
    ``_rp`` (rational_power) for a fractional power and run on arrays; the
    float statements are the same but for each fractional power, written
    as a conditional expression (see _float_power), so they call no
    function and run on floats.  Every other statement and every root is
    one string for both; see _code for the integer powers and negations."""
    index = {n: i for i, n in enumerate(var_names)}
    roots, nodes, uses = _subtrees(exprs)
    constant: set = set()  # the subtrees that hold no variable
    literals: dict = {}  # the powers of those that fold to a literal
    for i, (e, kids) in enumerate(nodes):
        if not isinstance(e, Var) and constant.issuperset(kids):
            constant.add(i)
            if isinstance(e, Pow):
                literals[i] = _const_power(e)
    for i in reversed(range(len(nodes))):  # parents first: drop unread uses
        if i in literals or not uses[i]:
            for k in nodes[i][1]:
                uses[k] -= 1
    bases = {kids[0] for i, (e, kids) in enumerate(nodes)
             if isinstance(e, Pow) and i not in literals}
    statements: list = []
    floats: dict = {}  # statement position -> float form of a fractional power
    forms: list = []  # the (source, operand) of each subtree
    for i, ((e, kids), n) in enumerate(zip(nodes, uses)):
        if i in literals:  # a leaf, as a constant is
            forms.append((literals[i], None))
            continue
        code = _code(e, [forms[k] for k in kids], index)
        fractional = isinstance(e, Pow) and e.exponent.denominator != 1
        if fractional:
            base = forms[kids[0]][0]
            floats[len(statements)] = f"_t{i} = {_float_power(base, e.exponent)}"
        if fractional or kids and (n > 1 or i in bases):
            statements.append(f"_t{i} = {code[0]}")
            code = (f"_t{i}", None)
        forms.append(code)
    return (tuple(statements),
            tuple(floats.get(j, s) for j, s in enumerate(statements)),
            tuple(forms[r][0] for r in roots))


def compile_exprs(exprs: Sequence[Expr],
                  var_names: Sequence[str]) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a vector of k expressions into one fast evaluator.

    The callable maps a point (n,) ordered like ``var_names`` to (k,), with
    arithmetic identical to evaluate() term for term, and a stack (N, n) to
    (N, k).  Both run one body, whose integer powers are _int_power's
    chain, so a stack row has the point's bits wherever no fractional power
    is read; numpy's array power may round a fractional power otherwise
    than C's pow, and the row is then within 1e-12 * (1 + |value|) of the
    one-point value.  Its ``point`` attribute is the list entry point: a
    sequence of n values to a tuple of k.  ``body`` and ``roots`` are the
    float form of that body over the locals ``_x0 … _x{n-1}`` (``n_vars``
    of them): its statements with each fractional power's rewritten as a
    conditional expression, and its roots, so they call no function and
    run on scalars only (Python floats, or numpy scalars); ``rk4`` holds
    the RK4 loop that sim.integrate builds on them.
    """
    k = len(exprs)
    statements, float_statements, roots = _body(exprs, var_names)
    names = "".join(f"_x{i}, " for i in range(len(var_names)))
    source = ("def _f(_x):\n" + (f"    ({names}) = _x\n" if names else "")
              + "".join(f"    {s}\n" for s in statements)
              + "    return (" + "".join(r + ", " for r in roots) + ")\n")
    namespace = {"_rp": rational_power}
    exec(compile(source, "<nisyn-expr>", "exec"), namespace)
    f = namespace["_f"]

    def point(values):
        try:
            return f(values)
        except (ZeroDivisionError, OverflowError):
            # numpy scalars give inf or nan and a RuntimeWarning instead
            return f(np.array(values, dtype=float))

    def fn(x):
        if x.ndim == 1:
            return np.array(point(x.tolist()), dtype=float)
        out = np.empty((k, x.shape[0]))
        for i in range(0, x.shape[0], 1024):  # blocks keep temporaries small
            for row, values in zip(out[:, i:i + 1024], f(x[i:i + 1024].T)):
                row[:] = values  # a constant fills its row
        return out.T

    fn.point = point
    fn.body, fn.roots, fn.n_vars = float_statements, roots, len(var_names)
    fn.rk4 = None
    return fn
