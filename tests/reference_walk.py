"""The scalar tree walks that the compiled evaluator replaced, kept as the
reference its one-point calls are tested against.

``eval_jet`` walks the tree with order-2 jets of Python floats, whose zero
derivatives are the numbers 0.0 (so 0 * inf gives NaN), and ``eval_value``
with plain floats.  Both take their powers from numpy's power ufunc, as the
compiled form does, and raise at faults: NonDifferentiableError at a kink,
EvalDomainError at an undefined value, and OverflowError where float's **
overflows.
"""

import numpy as np

from cusp_induce import expr as ex
from cusp_induce.expr import EvalDomainError, NonDifferentiableError


class Jet(ex.Jet2):
    """Jet2 with the arithmetic of the walk."""

    def __add__(self, other):
        return Jet(self.value + other.value, self.d1 + other.d1,
                   self.d2 + other.d2)

    def __sub__(self, other):
        return Jet(self.value - other.value, self.d1 - other.d1,
                   self.d2 - other.d2)

    def __mul__(self, other):
        u, v = self, other
        return Jet(u.value * v.value, u.d1 * v.value + u.value * v.d1,
                   u.d2 * v.value + 2.0 * u.d1 * v.d1 + u.value * v.d2)

    def __truediv__(self, other):
        u, v = self, other
        if v.value == 0.0:
            raise EvalDomainError("division by zero")
        w = u.value / v.value
        d1 = (u.d1 - w * v.d1) / v.value
        d2 = (u.d2 - w * v.d2 - 2.0 * d1 * v.d1) / v.value
        return Jet(w, d1, d2)

    def __neg__(self):
        return Jet(-self.value, -self.d1, -self.d2)


def power(b: float, r: float) -> float:
    """b ** r by numpy's power ufunc; ** runs first for its OverflowError.
    The exponents 2, 1 and 0 give b * b, b and 1."""
    b ** r
    if r == 2.0:
        return b * b
    if r == 1.0:
        return b
    if r == 0.0:
        return 1.0
    return float(np.power(b, r))


def pow_jet(u: Jet, r: float) -> Jet:
    v0, d1, d2 = u.value, u.d1, u.d2
    if v0 == 0.0:
        if r < 0.0:
            raise EvalDomainError("0 raised to a negative exponent")
        if r != int(r) and r < 2.0:
            raise NonDifferentiableError(
                f"jet of u^{r} at u=0 has an infinite derivative")
    if v0 < 0.0 and r != int(r):
        raise EvalDomainError(
            f"negative base {v0!r} with non-integer exponent {r!r}; "
            "compose with abs() instead")
    v = power(v0, r)
    if v0 == 0.0:
        # r is an integer >= 0 or a real >= 2: d1, d2 are 0 unless r is 1, 2
        return Jet(v, d1 if r == 1.0 else 0.0,
                   d2 if r == 1.0 else (2.0 * d1 * d1 if r == 2.0 else 0.0))
    p1 = r * power(v0, r - 1.0)
    p2 = r * (r - 1.0) * power(v0, r - 2.0)
    return Jet(v, p1 * d1, p2 * d1 * d1 + p1 * d2)


def param_value(params, name: str) -> float:
    if params is None or name not in params:
        raise EvalDomainError(f"parameter {name!r} has no bound value")
    return float(params[name])


def eval_jet(e, x: float, params=None) -> Jet:
    """The order-2 jet of e at x."""
    if isinstance(e, ex.Const):
        return Jet(e.value, 0.0, 0.0)
    if isinstance(e, ex.Var):
        return Jet(float(x), 1.0, 0.0)
    if isinstance(e, ex.Param):
        return Jet(param_value(params, e.name), 0.0, 0.0)
    if isinstance(e, ex.Neg):
        return -eval_jet(e.arg, x, params)
    if isinstance(e, ex.Pow):
        u = eval_jet(e.base, x, params)
        return pow_jet(u, eval_value(e.exponent, 0.0, params))
    if isinstance(e, ex.Abs):
        u = eval_jet(e.arg, x, params)
        if u.value > 0.0:
            return u
        if u.value < 0.0:
            return -u
        raise NonDifferentiableError("jet of abs evaluated exactly at its kink")
    if isinstance(e, ex.Sign):
        # sign(0) = 0 by convention; locally constant elsewhere.
        return Jet(float(np.sign(eval_jet(e.arg, x, params).value)), 0.0, 0.0)
    u, v = eval_jet(e.left, x, params), eval_jet(e.right, x, params)
    return {ex.Add: Jet.__add__, ex.Sub: Jet.__sub__, ex.Mul: Jet.__mul__,
            ex.Div: Jet.__truediv__}[type(e)](u, v)


def eval_value(e, x: float, params=None) -> float:
    """The value of e at x; defined at kinks (abs(0) = 0, sign(0) = 0)."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return float(x)
    if isinstance(e, ex.Param):
        return param_value(params, e.name)
    if isinstance(e, ex.Neg):
        return -eval_value(e.arg, x, params)
    if isinstance(e, ex.Add):
        return eval_value(e.left, x, params) + eval_value(e.right, x, params)
    if isinstance(e, ex.Sub):
        return eval_value(e.left, x, params) - eval_value(e.right, x, params)
    if isinstance(e, ex.Mul):
        return eval_value(e.left, x, params) * eval_value(e.right, x, params)
    if isinstance(e, ex.Div):
        d = eval_value(e.right, x, params)
        if d == 0.0:
            raise EvalDomainError("division by zero")
        return eval_value(e.left, x, params) / d
    if isinstance(e, ex.Pow):
        b = eval_value(e.base, x, params)
        r = eval_value(e.exponent, 0.0, params)
        if b < 0.0 and r != int(r):
            raise EvalDomainError(
                f"negative base {b!r} with non-integer exponent {r!r}")
        if b == 0.0 and r < 0.0:
            raise EvalDomainError("0 raised to a negative exponent")
        return power(b, r)
    if isinstance(e, ex.Abs):
        return abs(eval_value(e.arg, x, params))
    if isinstance(e, ex.Sign):
        return float(np.sign(eval_value(e.arg, x, params)))
    raise TypeError(f"not an expression node: {e!r}")
