"""Branch expressions with exact first and second derivatives.

Expressions are small arithmetic formulas in one variable ``x`` plus named
parameters, with ``abs`` and ``sign`` as the only functions and ``^`` limited
to constant real exponents.  They are evaluated either as plain values, as
order-2 jets (value, d1, d2) for derivative-exact work, or vectorized over
numpy arrays for sampling-heavy callers.  Hot callers :func:`compile` a tree
once into closures for the array and jet forms; :func:`eval_jet` stays the
reference walk they are tested against.

Grammar (documented in README as well)::

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | postfix
    postfix  := atom ('^' exponent)*
    exponent := ('-')? (number | name | '(' expr ')')     # must not contain x
    atom     := number | 'x' | name | '(' expr ')'
              | ('abs' | 'sign') '(' expr ')'

Binary operators are left-associative and ``^`` binds tighter than unary
minus, so ``-x^2`` parses as ``-(x^2)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "NonDifferentiableError",
    "EvalDomainError",
    "Jet2",
    "Const",
    "Var",
    "Param",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Abs",
    "Sign",
    "parse",
    "to_source",
    "eval_jet",
    "eval_value",
    "eval_array",
    "Compiled",
    "compile",
    "derivative",
]


class ExprError(ValueError):
    """Base class for expression parsing and evaluation failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    pass


class NonDifferentiableError(ExprError):
    """Jet requested exactly at a kink (abs at 0, fractional power at 0)."""


class EvalDomainError(ExprError):
    """Value undefined: negative base with fractional power, 0^negative, x/0."""


# ---------------------------------------------------------------------------
# jets

@dataclass(frozen=True)
class Jet2:
    """Order-2 jet: function value and first two derivatives at a point."""

    value: float
    d1: float
    d2: float

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value + other.value, self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value - other.value, self.d1 - other.d1, self.d2 - other.d2)

    def __mul__(self, other: "Jet2") -> "Jet2":
        u, v = self, other
        return Jet2(
            u.value * v.value,
            u.d1 * v.value + u.value * v.d1,
            u.d2 * v.value + 2.0 * u.d1 * v.d1 + u.value * v.d2,
        )

    def __truediv__(self, other: "Jet2") -> "Jet2":
        u, v = self, other
        if v.value == 0.0:
            raise EvalDomainError("division by zero")
        w = u.value / v.value
        d1 = (u.d1 - w * v.d1) / v.value
        d2 = (u.d2 - w * v.d2 - 2.0 * d1 * v.d1) / v.value
        return Jet2(w, d1, d2)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.d1, -self.d2)


def _jet_abs(u: Jet2) -> Jet2:
    if u.value > 0.0:
        return u
    if u.value < 0.0:
        return -u
    raise NonDifferentiableError("jet of abs evaluated exactly at its kink")


def _jet_sign(u: Jet2) -> Jet2:
    # sign(0) = 0 by convention; locally constant elsewhere.
    return Jet2(float(np.sign(u.value)), 0.0, 0.0)


def _jet_pow(u: Jet2, r: float) -> Jet2:
    return Jet2(*_pow_jet(u.value, u.d1, u.d2, r))


def _pow_jet(v0: float, d1: float, d2: float, r: float) -> tuple:
    """Power rule on a jet given as (value, d1, d2), with the domain checks."""
    if v0 == 0.0:
        if r < 0.0:
            raise EvalDomainError("0 raised to a negative exponent")
        if r != int(r) and r < 2.0:
            raise NonDifferentiableError(
                f"jet of u^{r} at u=0 has an infinite derivative"
            )
    if v0 < 0.0 and r != int(r):
        raise EvalDomainError(
            f"negative base {v0!r} with non-integer exponent {r!r}; "
            "compose with abs() instead"
        )
    v = v0 ** r
    if v0 == 0.0:
        # here r is an integer >= 0 or a real >= 2, so d1/d2 are 0 unless r in {1,2}
        return (v, d1 if r == 1.0 else 0.0,
                d2 if r == 1.0 else (2.0 * d1 * d1 if r == 2.0 else 0.0))
    p1 = r * v0 ** (r - 1.0)
    p2 = r * (r - 1.0) * v0 ** (r - 2.0)
    return v, p1 * d1, p2 * d1 * d1 + p1 * d2


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: object  # x-free subtree, enforced at parse time


@dataclass(frozen=True)
class Abs:
    arg: object


@dataclass(frozen=True)
class Sign:
    arg: object


_FUNCTIONS = ("abs", "sign")


def contains_var(e) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, (Const, Param)):
        return False
    if isinstance(e, (Neg, Abs, Sign)):
        return contains_var(e.arg)
    if isinstance(e, Pow):
        return contains_var(e.base) or contains_var(e.exponent)
    return contains_var(e.left) or contains_var(e.right)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOK_NUM = "num"
_TOK_NAME = "name"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal {text!r}", i) from None
            tokens.append((_TOK_NUM, value, i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append((_TOK_NAME, source[i:j], i))
            i = j
        elif ch in "+-*/^()":
            tokens.append((_TOK_OP, ch, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append((_TOK_END, "", n))
    return tokens


class _Parser:
    def __init__(self, source: str, params):
        self.source = source
        self.params = frozenset(params)
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != _TOK_OP or text != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, text, off = self.peek()
        if kind != _TOK_END:
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", off)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text in "+-":
                self.advance()
                rhs = self.term()
                e = Add(e, rhs) if text == "+" else Sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text in "*/":
                self.advance()
                rhs = self.unary()
                e = Mul(e, rhs) if text == "*" else Div(e, rhs)
            else:
                return e

    def unary(self):
        kind, text, _ = self.peek()
        if kind == _TOK_OP and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.postfix()

    def postfix(self):
        e = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == _TOK_OP and text == "^":
                self.advance()
                _, _, exp_off = self.peek()
                exponent = self.exponent()
                if contains_var(exponent):
                    raise ExprSyntaxError(
                        "exponent must be constant (must not contain x)", exp_off
                    )
                e = Pow(e, exponent)
            else:
                return e

    def exponent(self):
        kind, text, _ = self.peek()
        if kind == _TOK_OP and text == "-":
            self.advance()
            return Neg(self.exponent())
        return self.atom()

    def atom(self):
        kind, text, off = self.advance()
        if kind == _TOK_NUM:
            return Const(text)
        if kind == _TOK_NAME:
            if text in _FUNCTIONS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Abs(inner) if text == "abs" else Sign(inner)
            if text == "x":
                return Var()
            if text in self.params:
                return Param(text)
            raise UnknownIdentifierError(f"unknown identifier {text!r}", off)
        if kind == _TOK_OP and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError("expected a number, name or '('", off)


def parse(source: str, params=()) :
    """Parse ``source`` into an expression tree.

    ``params`` is the collection of parameter names the expression may
    reference; anything else (besides ``x``, ``abs``, ``sign``) raises
    :class:`UnknownIdentifierError` with the character offset.
    """
    return _Parser(source, params).parse()


# ---------------------------------------------------------------------------
# serialization

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e) -> int:
    if isinstance(e, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(e, (Mul, Div)):
        return _LEVEL_MUL
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    if isinstance(e, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def to_source(e) -> str:
    """Serialize a tree to a string that re-parses to the identical tree."""
    return _print(e)


def _wrap(e, min_level: int) -> str:
    text = _print(e)
    if _level(e) < min_level:
        return f"({text})"
    return text


def _print(e) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _LEVEL_UNARY)
    if isinstance(e, Add):
        return f"{_wrap(e.left, _LEVEL_ADD)} + {_wrap(e.right, _LEVEL_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, _LEVEL_ADD)} - {_wrap(e.right, _LEVEL_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, _LEVEL_MUL)}*{_wrap(e.right, _LEVEL_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, _LEVEL_MUL)}/{_wrap(e.right, _LEVEL_MUL + 1)}"
    if isinstance(e, Pow):
        base = _wrap(e.base, _LEVEL_POW)
        exp = e.exponent
        if isinstance(exp, Neg) and _level(exp.arg) == _LEVEL_ATOM:
            return f"{base}^-{_print(exp.arg)}"
        if _level(exp) == _LEVEL_ATOM:
            return f"{base}^{_print(exp)}"
        return f"{base}^({_print(exp)})"
    if isinstance(e, Abs):
        return f"abs({_print(e.arg)})"
    if isinstance(e, Sign):
        return f"sign({_print(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

def _param_value(params, name: str) -> float:
    if params is None or name not in params:
        raise EvalDomainError(f"parameter {name!r} has no bound value")
    return float(params[name])


def const_value(e, params=None) -> float:
    """Evaluate an x-free subtree (e.g. a Pow exponent) to a float."""
    if contains_var(e):
        raise EvalDomainError("expected a constant subtree, found x")
    return eval_value(e, 0.0, params)


def eval_jet(e, x: float, params=None) -> Jet2:
    """Evaluate the order-2 jet of ``e`` at ``x``.

    Raises :class:`NonDifferentiableError` exactly at kinks and
    :class:`EvalDomainError` on undefined values.
    """
    if isinstance(e, Const):
        return Jet2(e.value, 0.0, 0.0)
    if isinstance(e, Var):
        return Jet2(float(x), 1.0, 0.0)
    if isinstance(e, Param):
        return Jet2(_param_value(params, e.name), 0.0, 0.0)
    if isinstance(e, Neg):
        return -eval_jet(e.arg, x, params)
    if isinstance(e, Add):
        return eval_jet(e.left, x, params) + eval_jet(e.right, x, params)
    if isinstance(e, Sub):
        return eval_jet(e.left, x, params) - eval_jet(e.right, x, params)
    if isinstance(e, Mul):
        return eval_jet(e.left, x, params) * eval_jet(e.right, x, params)
    if isinstance(e, Div):
        return eval_jet(e.left, x, params) / eval_jet(e.right, x, params)
    if isinstance(e, Pow):
        return _jet_pow(eval_jet(e.base, x, params), const_value(e.exponent, params))
    if isinstance(e, Abs):
        return _jet_abs(eval_jet(e.arg, x, params))
    if isinstance(e, Sign):
        return _jet_sign(eval_jet(e.arg, x, params))
    raise TypeError(f"not an expression node: {e!r}")


def eval_value(e, x: float, params=None) -> float:
    """Value-only evaluation.  Defined at kinks (abs(0)=0, sign(0)=0)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x)
    if isinstance(e, Param):
        return _param_value(params, e.name)
    if isinstance(e, Neg):
        return -eval_value(e.arg, x, params)
    if isinstance(e, Add):
        return eval_value(e.left, x, params) + eval_value(e.right, x, params)
    if isinstance(e, Sub):
        return eval_value(e.left, x, params) - eval_value(e.right, x, params)
    if isinstance(e, Mul):
        return eval_value(e.left, x, params) * eval_value(e.right, x, params)
    if isinstance(e, Div):
        d = eval_value(e.right, x, params)
        if d == 0.0:
            raise EvalDomainError("division by zero")
        return eval_value(e.left, x, params) / d
    if isinstance(e, Pow):
        b = eval_value(e.base, x, params)
        r = const_value(e.exponent, params)
        if b < 0.0 and r != int(r):
            raise EvalDomainError(
                f"negative base {b!r} with non-integer exponent {r!r}"
            )
        if b == 0.0 and r < 0.0:
            raise EvalDomainError("0 raised to a negative exponent")
        return b ** r
    if isinstance(e, Abs):
        return abs(eval_value(e.arg, x, params))
    if isinstance(e, Sign):
        return float(np.sign(eval_value(e.arg, x, params)))
    raise TypeError(f"not an expression node: {e!r}")


def eval_array(e, x: np.ndarray, params=None) -> np.ndarray:
    """Vectorized value evaluation over a numpy array.

    No kink/domain checking: callers keep points strictly inside open
    branch intervals.  Fractional powers of negative bases yield NaN.
    Builds the closures of :func:`compile` on every call; hot callers keep
    the compiled form instead.
    """
    return compile(e, params).array(x)


# ---------------------------------------------------------------------------
# compiled evaluation: nested closures built once per tree, no generated code


class Compiled(NamedTuple):
    """A tree with its parameters bound, as two closures.

    ``array(x)`` evaluates over a numpy array, bit for bit as the numpy
    expression walk would: constant subtrees and ``Pow`` exponents are
    folded once, with the same numpy operations.  ``jet(x)`` returns the
    :class:`Jet2` that :func:`eval_jet` returns and raises what it raises.
    """

    array: Callable
    jet: Callable


def compile(e, params=None) -> Compiled:
    """Compile tree ``e`` with ``params`` bound (see :class:`Compiled`)."""
    f, c = _array_node(e, params)
    if f is None:
        def array(x):
            return np.full_like(x, c, dtype=float)
    else:
        def array(x):
            with np.errstate(invalid="ignore", divide="ignore"):
                return f(np.asarray(x, dtype=float))
    g = _jet_node(e, params)

    def jet(x):
        return Jet2(*g(float(x)))
    return Compiled(array, jet)


def _raising(err):
    """A closure that raises err (without its old traceback) when called."""
    def f(*_):
        raise err.with_traceback(None)
    return f


_ARRAY_UNARY = {Neg: operator.neg, Abs: np.abs, Sign: np.sign}
_ARRAY_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
                 Div: operator.truediv}


def _fold(op, *consts) -> float:
    """op applied as the array walk applies it, on one-point arrays."""
    with np.errstate(all="ignore"):
        return float(op(*(np.full(1, c, dtype=float) for c in consts))[0])


def _array_node(e, params):
    """(closure, None) for a subtree in x, (None, value) for a folded one."""
    if isinstance(e, Var):
        return (lambda x: x), None
    if isinstance(e, Const):
        return None, e.value
    if isinstance(e, Param):
        try:
            return None, _param_value(params, e.name)
        except EvalDomainError as err:
            return _raising(err), None
    if isinstance(e, Pow):
        try:
            r = const_value(e.exponent, params)
        except EvalDomainError as err:
            return _raising(err), None
        f, c = _array_node(e.base, params)
        if f is None:
            return None, _fold(lambda b: b ** r, c)
        return (lambda x: f(x) ** r), None
    op = _ARRAY_UNARY.get(type(e))
    if op is not None:
        f, c = _array_node(e.arg, params)
        if f is None:
            return None, _fold(op, c)
        return (lambda x: op(f(x))), None
    op = _ARRAY_BINARY.get(type(e))
    if op is None:
        raise TypeError(f"not an expression node: {e!r}")
    f, a = _array_node(e.left, params)
    g, b = _array_node(e.right, params)
    if f is None and g is None:
        return None, _fold(op, a, b)
    if f is None:
        return (lambda x: op(a, g(x))), None
    if g is None:
        return (lambda x: op(f(x), b)), None
    return (lambda x: op(f(x), g(x))), None


def _jet_node(e, params):
    """Closure x -> (value, d1, d2), with the arithmetic of eval_jet."""
    if isinstance(e, Var):
        return lambda x: (x, 1.0, 0.0)
    if not contains_var(e):
        try:
            j = eval_jet(e, 0.0, params)
        except (ExprError, ArithmeticError) as err:
            return _raising(err)
        t = (j.value, j.d1, j.d2)
        return lambda x: t
    if isinstance(e, Pow):
        f = _jet_node(e.base, params)
        try:
            r = const_value(e.exponent, params)
        except EvalDomainError as err:
            fail = _raising(err)
            return lambda x: fail(f(x))
        return lambda x: _pow_jet(*f(x), r)
    if isinstance(e, (Neg, Abs, Sign)):
        f = _jet_node(e.arg, params)
        if isinstance(e, Neg):
            def neg(x):
                v, d1, d2 = f(x)
                return -v, -d1, -d2
            return neg
        if isinstance(e, Sign):
            # sign(0) = 0 by convention; locally constant elsewhere.
            return lambda x: (float(np.sign(f(x)[0])), 0.0, 0.0)

        def abs_(x):
            v, d1, d2 = f(x)
            if v > 0.0:
                return v, d1, d2
            if v < 0.0:
                return -v, -d1, -d2
            raise NonDifferentiableError("jet of abs evaluated exactly at its kink")
        return abs_
    f = _jet_node(e.left, params)
    g = _jet_node(e.right, params)
    if isinstance(e, Add):
        def add(x):
            uv, u1, u2 = f(x)
            vv, v1, v2 = g(x)
            return uv + vv, u1 + v1, u2 + v2
        return add
    if isinstance(e, Sub):
        def sub(x):
            uv, u1, u2 = f(x)
            vv, v1, v2 = g(x)
            return uv - vv, u1 - v1, u2 - v2
        return sub
    if isinstance(e, Mul):
        def mul(x):
            uv, u1, u2 = f(x)
            vv, v1, v2 = g(x)
            return (uv * vv, u1 * vv + uv * v1,
                    u2 * vv + 2.0 * u1 * v1 + uv * v2)
        return mul
    if isinstance(e, Div):
        def div(x):
            uv, u1, u2 = f(x)
            vv, v1, v2 = g(x)
            if vv == 0.0:
                raise EvalDomainError("division by zero")
            w = uv / vv
            d1 = (u1 - w * v1) / vv
            return w, d1, (u2 - w * v2 - 2.0 * d1 * v1) / vv
        return div
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# symbolic derivative (used for vectorized |Df| sampling; jets stay the
# reference implementation)

def _is_const(e, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(a, 0.0):
        return Neg(b)
    return Sub(a, b)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def derivative(e):
    """Symbolic d/dx of an expression tree (a.e.; sign' taken as 0)."""
    if isinstance(e, (Const, Param)):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        d = derivative(e.arg)
        return Const(0.0) if _is_const(d, 0.0) else Neg(d)
    if isinstance(e, Add):
        return _add(derivative(e.left), derivative(e.right))
    if isinstance(e, Sub):
        return _sub(derivative(e.left), derivative(e.right))
    if isinstance(e, Mul):
        return _add(
            _mul(derivative(e.left), e.right), _mul(e.left, derivative(e.right))
        )
    if isinstance(e, Div):
        num = _sub(
            _mul(derivative(e.left), e.right), _mul(e.left, derivative(e.right))
        )
        return _div(num, Mul(e.right, e.right))
    if isinstance(e, Pow):
        r = e.exponent
        shifted = Const(r.value - 1.0) if isinstance(r, Const) else _sub(r, Const(1.0))
        return _mul(_mul(r, Pow(e.base, shifted)), derivative(e.base))
    if isinstance(e, Abs):
        return _mul(Sign(e.arg), derivative(e.arg))
    if isinstance(e, Sign):
        return Const(0.0)
    raise TypeError(f"not an expression node: {e!r}")

