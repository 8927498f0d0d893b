"""Branch expressions with exact first and second derivatives.

Expressions are small arithmetic formulas in one variable ``x`` plus named
parameters, with ``abs`` and ``sign`` as the only functions and ``^`` limited
to constant real exponents.  They are evaluated either as plain values, as
order-2 jets (value, d1, d2) for derivative-exact work, or vectorized over
numpy arrays for sampling-heavy callers.  Hot callers :func:`compile` a tree
once into closures: one array jet, which returns the value, d1 and d2 up to
a requested order with the rules of the scalar jets, and one scalar jet
form; :func:`eval_jet` stays the reference walk they are tested against.

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
    "Compiled",
    "compile",
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


# ---------------------------------------------------------------------------
# compiled evaluation: nested closures built once per tree, no generated code


class Compiled(NamedTuple):
    """A tree with its parameters bound, as two closures.

    ``array(x, order=0)`` evaluates over a numpy array: f(x) at order 0,
    the tuple (f, Df) at order 1 and (f, Df, D2f) at order 2, with the
    product, quotient and power rules of :func:`eval_jet`.  It never raises
    on x; kinks and undefined points come back as NaN or inf.  Constant
    subtrees and ``Pow`` exponents are folded once, with the numpy
    operations the walk would apply, and derivative parts that are
    structurally 0 or 1 are left out of the rules instead of multiplied.  ``jet(x)`` returns the :class:`Jet2` that
    :func:`eval_jet` returns and raises what it raises.
    """

    array: Callable
    jet: Callable


def compile(e, params=None) -> Compiled:
    """Compile tree ``e`` with ``params`` bound (see :class:`Compiled`)."""
    f, c = _array_jet(e, params)
    if f is None:
        f = _constant(c)

    def array(x, order=0):
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = f(x, order)
        if not order:
            return out if isinstance(out, np.ndarray) else np.full_like(x, out)
        return tuple(p if isinstance(p, np.ndarray)
                     else np.full_like(x, 0.0 if p is None else p)
                     for p in out)
    g = _jet_node(e, params)

    def jet(x):
        return Jet2(*g(float(x)))
    return Compiled(array, jet)


def _raising(err):
    """A closure that raises err (without its old traceback) when called."""
    def f(*_):
        raise err.with_traceback(None)
    return f


def _fold(op, *consts) -> float:
    """op applied as the array walk applies it, on one-point arrays."""
    with np.errstate(all="ignore"):
        return float(op(*(np.full(1, c, dtype=float) for c in consts))[0])


# Parts of an array jet: None stands for a structural 0 (the derivatives of
# an x-free subtree or of sign, d2/dx2 x) and _ONE for the structural 1 of
# d/dx x; the rules leave them out of products and sums.
_ONE = np.float64(1.0)


def _times(a, b):
    if a is None or b is None:
        return None
    return b if a is _ONE else a if b is _ONE else a * b


def _plus(a, b):
    return b if a is None else a if b is None else a + b


def _minus(a, b):
    return a if b is None else -b if a is None else a - b


def _over(a, b):
    return None if a is None else a / b


# Rules for orders k = 1, 2: the parts (f, Df, D2f)[:k + 1] of a node from
# those of its arguments.  Order 0 applies the node's operation alone.

def _abs_rule(u, k):
    s = np.sign(u[0])
    return (np.abs(u[0]),) + tuple(_times(s, p) for p in u[1:])


def _mul_rule(u, v, k):
    w = u[0] * v[0]
    d1 = _plus(_times(u[1], v[0]), _times(u[0], v[1]))
    if k == 1:
        return w, d1
    return w, d1, _plus(_plus(_times(u[2], v[0]),
                              _times(_times(2.0, u[1]), v[1])),
                        _times(u[0], v[2]))


def _div_rule(u, v, k):
    w = u[0] / v[0]
    d1 = _over(_minus(u[1], _times(w, v[1])), v[0])
    if k == 1:
        return w, d1
    return w, d1, _over(_minus(_minus(u[2], _times(w, v[2])),
                               _times(_times(2.0, d1), v[1])), v[0])


def _pow_rule(u, k, r):
    # each power's temporaries are dropped before the next power, so that
    # large arrays reuse freed memory instead of fresh pages
    if k == 1:
        d1 = _times(r * u[0] ** (r - 1.0), u[1])
        return u[0] ** r, d1
    p1 = r * u[0] ** (r - 1.0)
    d2 = _plus(_times(_times(r * (r - 1.0) * u[0] ** (r - 2.0), u[1]), u[1]),
               _times(p1, u[2]))
    d1 = _times(p1, u[1])
    del p1
    return u[0] ** r, d1, d2


# node type -> (its operation, its rule)
_RULES = {
    Neg: (operator.neg, lambda u, k: tuple(_minus(None, p) for p in u)),
    Abs: (np.abs, _abs_rule),
    # sign(0) = 0 by convention; locally constant elsewhere.
    Sign: (np.sign, lambda u, k: (np.sign(u[0]), None, None)[:k + 1]),
    Add: (operator.add, lambda u, v, k: tuple(map(_plus, u, v))),
    Sub: (operator.sub, lambda u, v, k: tuple(map(_minus, u, v))),
    Mul: (operator.mul, _mul_rule),
    Div: (operator.truediv, _div_rule),
}


def _constant(c):
    t = (c, None, None)
    return lambda x, k: t[:k + 1] if k else c


def _array_jet(e, params):
    """(closure, None) for a subtree in x, (None, value) for a folded one.

    The closure maps (x, 0) to f(x) and (x, k) to the tuple of the k + 1
    parts of (f, Df, D2f).
    """
    if isinstance(e, Var):
        return (lambda x, k: (x, _ONE, None)[:k + 1] if k else x), None
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
        f, c = _array_jet(e.base, params)
        if f is None:
            return None, _fold(lambda b: b ** r, c)
        return (lambda x, k: _pow_rule(f(x, k), k, r) if k
                else f(x, 0) ** r), None
    if type(e) not in _RULES:
        raise TypeError(f"not an expression node: {e!r}")
    op, rule = _RULES[type(e)]
    if isinstance(e, (Neg, Abs, Sign)):
        f, c = _array_jet(e.arg, params)
        if f is None:
            return None, _fold(op, c)
        return (lambda x, k: rule(f(x, k), k) if k else op(f(x, 0))), None
    f, a = _array_jet(e.left, params)
    g, b = _array_jet(e.right, params)
    if f is None and g is None:
        return None, _fold(op, a, b)
    f, g = f or _constant(a), g or _constant(b)
    return (lambda x, k: rule(f(x, k), g(x, k), k) if k
            else op(f(x, 0), g(x, 0))), None


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
