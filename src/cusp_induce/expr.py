"""Branch expressions with exact first and second derivatives.

Expressions are small arithmetic formulas in one variable ``x`` plus named
parameters, with ``abs`` and ``sign`` as the only functions and ``^`` limited
to constant real exponents.  :func:`compile` turns a tree, once, into one
tree of closures that every evaluation runs: over a numpy array for the
value, Df and D2f up to a requested order, at one point for a value or an
order-2 :class:`Jet2`.  A call at one point raises at the first fault a
walk of the tree meets; over an array the same checks can mark a mask.

- Order 0 (a value): a divisor of 0, 0 to a negative power and a negative
  base under a non-integer power raise :class:`EvalDomainError`; a finite,
  nonzero base whose power overflows raises ``OverflowError``.
- Order 2 (a jet) adds :class:`NonDifferentiableError` for ``abs`` of 0 or
  NaN and for 0 under a non-integer power below 2, and checks the powers
  r - 1 and r - 2 of the power rule for overflow too.

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

import errno
import os
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
    "Compiled",
    "compile",
    "shared_subtrees",
    "compile_groups",
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


@dataclass(frozen=True)
class Jet2:
    """Order-2 jet: function value and first two derivatives at a point."""

    value: float
    d1: float
    d2: float


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


def _children(e) -> tuple:
    if isinstance(e, (Const, Var, Param)):
        return ()
    if isinstance(e, (Neg, Abs, Sign)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base, e.exponent)
    return (e.left, e.right)


def _subtrees(e):
    """e and every subtree below it, parents first."""
    yield e
    for c in _children(e):
        yield from _subtrees(c)


def contains_var(e) -> bool:
    return isinstance(e, Var) or any(map(contains_var, _children(e)))


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
# evaluation: a node's closure maps (x, k, check) to f(x) at order k = 0 and
# to the parts (f, Df, D2f)[:k + 1] at k = 1, 2.  check is None in a plain
# call; in a checked call, check(fault, error, *operands) raises
# error(*operands) at one point (x a float) where fault(*operands) holds, or
# marks the points of an array where it holds.

def _at_point(fault, error, *operands):
    if fault(*operands):
        raise error(*operands)


def _param_value(params, name: str) -> float:
    if params is None or name not in params:
        raise EvalDomainError(f"parameter {name!r} has no bound value")
    return float(params[name])


def const_value(e, params=None) -> float:
    """Evaluate an x-free subtree (e.g. a Pow exponent) to a float,
    raising at a fault as a value does."""
    if contains_var(e):
        raise EvalDomainError("expected a constant subtree, found x")
    return compile(e, params).value(0.0)


class Compiled(NamedTuple):
    """A tree with its parameters bound, as one tree of closures.

    - ``array(x, order=0)``: f(x) over a numpy array at order 0, the
      tuple (f, Df) at order 1 and (f, Df, D2f) at order 2.  It never
      raises on x; faults come back as NaN or inf.  Derivative parts that
      are structurally 0 or 1 are left out of the rules, not multiplied.
    - ``jet(x)`` and ``value(x)``: the :class:`Jet2` and the value at one
      point; both raise at a fault (see the module docstring).
    - ``checked(x, order)``: ``jet`` (order 2) or ``value`` (order 0) over
      an array, bit for bit but for the signs of NaNs, with a boolean mask
      of the points where they raise.

    Checked calls keep a scalar jet's arithmetic: derivative parts that
    are 0 or 1 are the numbers 0.0 and 1.0, so 0 * inf gives NaN, and a
    power at a zero base takes its exact derivatives.  Constant subtrees
    and ``Pow`` exponents are folded once, through the same nodes.
    """

    array: Callable
    checked: Callable
    jet: Callable
    value: Callable


def compile(e, params=None) -> Compiled:
    """Compile tree ``e`` with ``params`` bound (see :class:`Compiled`)."""
    f = _array_jet(e, params)

    def array(x, order=0):
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return _shaped(f(x, order, None), x, order)

    def checked(x, order=0):
        x = np.asarray(x, dtype=float)
        mask = np.zeros(x.shape, dtype=bool)

        def mark(fault, error, *operands):
            np.logical_or(mask, fault(*operands), out=mask)
        with np.errstate(all="ignore"):
            return _shaped(f(x, order, mark), x, order), mask

    def at_point(x, order):
        with np.errstate(all="ignore"):
            return f(float(x), order, _at_point)
    return Compiled(array, checked,
                    lambda x: Jet2(*map(float, at_point(x, 2))),
                    lambda x: float(at_point(x, 0)))


def shared_subtrees(trees) -> list:
    """The (subtree, params) pairs that more than one of the trees, given
    as (tree, params) pairs, hold with equal params: x-dependent subtrees
    other than x itself, the largest only (none inside another one)."""
    holders = {}
    for k, (tree, params) in enumerate(trees):
        for sub in _subtrees(tree):
            if contains_var(sub) and not isinstance(sub, Var):
                key = (sub, tuple(sorted((params or {}).items())))
                holders.setdefault(key, (params, set()))[1].add(k)
    shared = [(sub, key, params) for (sub, key), (params, held)
              in holders.items() if len(held) > 1]
    return [(sub, params) for sub, key, params in shared
            if not any(key == k2 and sub != s2 and sub in _subtrees(s2)
                       for s2, k2, _ in shared)]


def compile_groups(trees) -> Callable:
    """One plain evaluator of several trees, given as (tree, params) pairs:
    evaluate(x, order=0) is the list of each tree's ``Compiled.array(x,
    order)``, bit for bit.  Each shared subtree (shared_subtrees) is
    evaluated once per call over all of x, and every tree reads it through
    a let-slot leaf, so each node rule gets the operands it gets in the
    tree's own compile.  The call enters no ``np.errstate``: it runs under
    the caller's."""
    shared = shared_subtrees(trees)
    lets = [_array_jet(sub, params) for sub, params in shared]
    var = _array_jet(Var(), None)
    # slot 0 holds x itself, slot i the parts of shared subtree i - 1
    fs = [_array_jet(tree, params, {Var(): 0, **{
        sub: i for i, (sub, p) in enumerate(shared, 1) if p == params}})
        for tree, params in trees]

    def evaluate(x, order=0):
        env = [var(x, order, None)] + [f(x, order, None) for f in lets]
        return [_shaped(f(env, order, None), x, order) for f in fs]
    return evaluate


def _shaped(out, x, order):
    """The parts of out as arrays of x's shape."""
    def filled(p):
        return p if isinstance(p, np.ndarray) else \
            np.full_like(x, 0.0 if p is None else p)
    return tuple(map(filled, out)) if order else filled(out)


def _raising(err):
    """A closure that raises err (without its old traceback) when called."""
    def f(*_):
        raise err.with_traceback(None)
    return f


# Parts in a plain call: None stands for a structural 0 (the derivatives of
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


def _where(cond, a, b):
    """a where cond holds, else b, at one point or over an array."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _is_zero(a):
    return a == 0.0


# Rules for orders k = 0, 1, 2: f, or the parts (f, Df, D2f)[:k + 1], of a
# node from those of its arguments.

def _abs_rule(u, k, check):
    if not k:
        return abs(u)
    if check is not None:                   # u at 0 or NaN
        kink = "jet of abs evaluated exactly at its kink"
        check(lambda a: (a == 0.0) | (a != a),
              lambda _: NonDifferentiableError(kink), u[0])
    s = np.sign(u[0])
    return (np.abs(u[0]),) + tuple(_times(s, p) for p in u[1:])


def _sign_rule(u, k, check):
    # sign(0) = 0 by convention; locally constant elsewhere.
    if not k:
        return np.sign(u)
    zero = None if check is None else 0.0
    return (np.sign(u[0]), zero, zero)[:k + 1]


def _mul_rule(u, v, k, check):
    if not k:
        return u * v
    w = u[0] * v[0]
    d1 = _plus(_times(u[1], v[0]), _times(u[0], v[1]))
    if k == 1:
        return w, d1
    return w, d1, _plus(_plus(_times(u[2], v[0]),
                              _times(_times(2.0, u[1]), v[1])),
                        _times(u[0], v[2]))


def _div_rule(u, v, k, check):
    if check is not None:
        check(_is_zero, lambda _: EvalDomainError("division by zero"),
              v[0] if k else v)
    if not k:
        return u / v
    w = u[0] / v[0]
    d1 = _over(_minus(u[1], _times(w, v[1])), v[0])
    if k == 1:
        return w, d1
    return w, d1, _over(_minus(_minus(u[2], _times(w, v[2])),
                               _times(_times(2.0, d1), v[1])), v[0])


def _raised(b, s, check):
    """b ** s.  A scalar b and a checked call take numpy's power ufunc
    (exact for s = 2, 1, 0), which array ** follows bit for bit and Python's
    ** does not; a checked call faults as float's ** where b ** s overflows."""
    if check is None:
        return b ** s if isinstance(b, np.ndarray) else np.power(b, s)
    if s == 1.0 or s == 0.0:
        return b if s else 1.0
    w = b * b if s == 2.0 else np.power(b, s)
    check(_overflows, _overflow, b, w)
    return w


def _overflows(b, w):
    return (abs(b) < np.inf) & (b != 0.0) & (abs(w) == np.inf)


def _overflow(*_):
    # what float's ** raises
    return OverflowError(errno.ERANGE, os.strerror(errno.ERANGE))


def _pow_rule(u, k, r, check):
    # each power's temporaries are dropped before the next power, so that
    # large arrays reuse freed memory instead of fresh pages
    b = u[0] if k else u
    if check is not None:
        # b = 0 under r < 0, or in a jet a non-integer r < 2; b < 0 under a
        # non-integer r
        fractional = not r.is_integer()
        if r < 0.0:
            check(_is_zero, lambda _: EvalDomainError(
                "0 raised to a negative exponent"), b)
        elif k and fractional and r < 2.0:
            check(_is_zero, lambda _: NonDifferentiableError(
                f"jet of u^{r} at u=0 has an infinite derivative"), b)
        if fractional:
            check(lambda b: b < 0.0, lambda b: EvalDomainError(
                f"negative base {float(b)!r} with non-integer exponent {r!r}"
                + ("; compose with abs() instead" if k else "")), b)
    if not k:
        return _raised(b, r, check)
    p1 = r * _raised(b, r - 1.0, check)
    d2 = None if k == 1 else _plus(_times(_times(
        r * (r - 1.0) * _raised(b, r - 2.0, check), u[1]), u[1]),
        _times(p1, u[2]))
    d1 = _times(p1, u[1])
    del p1
    if check is not None:
        # the exact derivatives at b = 0, r an integer >= 0 or a real >= 2
        zero = b == 0.0
        d1 = _where(zero, u[1] if r == 1.0 else 0.0, d1)
        d2 = _where(zero, u[2] if r == 1.0 else 2.0 * u[1] * u[1]
                    if r == 2.0 else 0.0, d2) if k == 2 else None
    return (_raised(b, r, check), d1, d2)[:k + 1]


def _rule(e):
    """The rule of node e other than Pow; looked up when a tree is built."""
    return {
        Neg: lambda u, k, check: (tuple(_minus(None, p) for p in u) if k
                                  else -u),
        Abs: _abs_rule,
        Sign: _sign_rule,
        Add: lambda u, v, k, check: tuple(map(_plus, u, v)) if k else u + v,
        Sub: lambda u, v, k, check: tuple(map(_minus, u, v)) if k else u - v,
        Mul: _mul_rule,
        Div: _div_rule,
    }.get(type(e))


def _leaf(value, at0, at2):
    """Closure of a folded x-free subtree: its value, a numpy scalar, in plain
    calls; in checked ones, at0 or at2, what a call at one point gives at
    order 0 or 2 (the value, the parts, or the fault that it raises)."""
    plain = (value, None, None)

    def leaf(x, k, check):
        if check is None:
            return plain[:k + 1] if k else value
        at = at2 if k else at0
        if isinstance(at, Exception):
            check(lambda: True, lambda: at.with_traceback(None))
            at = (value, 0.0, 0.0) if k else value  # at marked points only
        return at[:k + 1] if k else at
    return leaf


def _fold(f):
    """The leaf of the closure f of an x-free subtree, from calls at one
    point; a parameter without a value raises in every call."""
    outcomes = []
    for k, check in ((0, None), (0, _at_point), (2, _at_point)):
        try:
            with np.errstate(all="ignore"):
                outcomes.append(f(0.0, k, check))
        except (ExprError, ArithmeticError) as err:
            if check is None:
                return _raising(err)
            outcomes.append(err)
    return _leaf(*outcomes)


def _array_jet(e, params, slots=None):
    """The closure of e, with its x-free subtrees folded into leaves.  With
    slots, a subtree found there is a let-slot leaf: it reads
    x[slots[subtree]], from a list of parts that the caller fills."""
    if slots and e in slots:
        i = slots[e]
        return lambda env, k, check: env[i]
    if isinstance(e, Var):
        return lambda x, k, check: ((x, _ONE, None) if check is None else
                                    (x, 1.0, 0.0))[:k + 1] if k else x
    if isinstance(e, (Const, Param)):
        try:
            c = e.value if isinstance(e, Const) else \
                _param_value(params, e.name)
        except EvalDomainError as err:
            return _raising(err)
        return _leaf(np.float64(c), c, (c, 0.0, 0.0))
    rule = _rule(e)
    if isinstance(e, Pow):
        g, h = (_array_jet(e.base, params, slots),
                _array_jet(e.exponent, params))
        try:
            r = float(h(0.0, 0, None))
        except ExprError:           # a parameter without a value
            return lambda x, k, check: h(g(x, k, check))

        def f(x, k, check):
            u = g(x, k, check)
            if check is not None:   # the exponent, a value, after the base
                h(x, 0, check)
            return _pow_rule(u, k, r, check)
    elif isinstance(e, (Neg, Abs, Sign)):
        g = _array_jet(e.arg, params, slots)
        f = lambda x, k, check: rule(g(x, k, check), k, check)
    elif rule is not None:
        g, h = (_array_jet(e.left, params, slots),
                _array_jet(e.right, params, slots))
        f = lambda x, k, check: rule(g(x, k, check), h(x, k, check), k, check)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f if contains_var(e) else _fold(f)
