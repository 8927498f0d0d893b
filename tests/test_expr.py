"""Expression grammar, and the jets and values of compiled expressions at
one point and over arrays."""

import math

import numpy as np
import pytest

from cusp_induce import expr as ex


def test_parse_round_trip_evaluates_identically():
    sources = [
        "x^2 + 3*x - 1",
        "(1 - 2*x^2)*(1 + x/3)",
        "abs(x - 0.3)^1.7",
        "sign(x - 2)*(x - 2)^2",
        "1/(2 + x^2)",
        "-x^3 + 2",
    ]
    xs = np.linspace(-1.5, 1.5, 37)
    for src in sources:
        e = ex.parse(src)
        e2 = ex.parse(ex.to_source(e))
        for x in xs:
            assert ex.compile(e2).value(x) == ex.compile(e).value(x)


def test_polynomial_jet_matches_closed_form():
    e = ex.parse("x^2 + 3*x - 1")
    for x in np.linspace(-2, 2, 21):
        j = ex.compile(e).jet(x)
        assert j.value == pytest.approx(x * x + 3 * x - 1, rel=1e-14)
        assert j.d1 == pytest.approx(2 * x + 3, rel=1e-14)
        assert j.d2 == pytest.approx(2.0, rel=1e-14)


def test_fractional_power_jet_matches_closed_form():
    # d/dx |x|^r = r*sign(x)*|x|^(r-1), smooth away from 0
    r = 1.7
    e = ex.parse("abs(x)^1.7")
    for x in [-1.3, -0.4, 0.2, 0.9]:
        j = ex.compile(e).jet(x)
        s = math.copysign(1.0, x)
        assert j.value == pytest.approx(abs(x) ** r, rel=1e-13)
        assert j.d1 == pytest.approx(r * s * abs(x) ** (r - 1), rel=1e-13)
        assert j.d2 == pytest.approx(r * (r - 1) * abs(x) ** (r - 2), rel=1e-13)


def test_quotient_jet_matches_closed_form():
    e = ex.parse("1/(2 + x^2)")
    for x in [-1.0, 0.0, 0.7]:
        j = ex.compile(e).jet(x)
        den = 2 + x * x
        assert j.value == pytest.approx(1 / den, rel=1e-14)
        assert j.d1 == pytest.approx(-2 * x / den**2, rel=1e-13, abs=1e-15)
        assert j.d2 == pytest.approx((6 * x * x - 4) / den**3, rel=1e-13)


def test_jet_at_abs_kink_raises_but_value_works():
    e = ex.parse("abs(x)")
    with pytest.raises(ex.NonDifferentiableError):
        ex.compile(e).jet(0.0)
    assert ex.compile(e).value(0.0) == 0.0


def test_sign_is_locally_constant_in_jets():
    e = ex.parse("sign(x - 2)*(x - 2)^2")
    j = ex.compile(e).jet(1.0)
    assert j.value == -1.0
    assert j.d1 == pytest.approx(2.0)
    assert j.d2 == pytest.approx(-2.0)


def test_variable_exponent_rejected():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("x^x")


def test_unknown_identifier_rejected_with_offset():
    with pytest.raises(ex.UnknownIdentifierError) as exc_info:
        ex.parse("sin(x)")
    assert "sin" in str(exc_info.value)


def test_dangling_operator_rejected():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("x +")


def test_domain_errors():
    with pytest.raises(ex.EvalDomainError):
        ex.compile(ex.parse("x^-1")).value(0.0)
    with pytest.raises(ex.EvalDomainError):
        ex.compile(ex.parse("1/x")).value(0.0)


def test_parameters_bind_and_missing_param_raises():
    e = ex.parse("a*x^2 + b", params=("a", "b"))
    assert ex.compile(e, {"a": 3.0, "b": 1.0}).value(2.0) == 13.0
    with pytest.raises(ex.EvalDomainError):
        ex.compile(e, {"a": 3.0}).value(2.0)


def test_array_jet_matches_scalar_jet():
    sources = ["x^3 - x", "abs(x - 0.3)^1.7", "x/(1 + abs(x))", "(3 - x)^-2"]
    xs = np.array([-1.1, -0.6, 0.1, 0.8, 1.9])
    for src in sources:
        e = ex.parse(src)
        _v, d1, d2 = ex.compile(e).array(xs, 2)
        for x, a1, a2 in zip(xs, d1, d2):
            j = ex.compile(e).jet(float(x))
            assert a1 == pytest.approx(j.d1, rel=1e-12, abs=1e-14)
            assert a2 == pytest.approx(j.d2, rel=1e-12, abs=1e-14)


def test_array_values_agree_with_scalar_eval():
    e = ex.parse("abs(x - 0.25)^0.6 - x")
    xs = np.linspace(-1, 1, 101)
    arr = ex.compile(e).array(xs)
    for x, v in zip(xs, arr):
        assert v == pytest.approx(ex.compile(e).value(float(x)), rel=1e-14)


def test_const_value_folds_numbers():
    assert ex.const_value(ex.parse("2*3 + 1")) == 7.0
    # a value: abs needs no derivative at its kink, a divisor of 0 faults
    assert ex.const_value(ex.parse("abs(0) - 2^0.5")) == -2.0 ** 0.5
    with pytest.raises(ex.EvalDomainError, match="division by zero"):
        ex.const_value(ex.parse("1/(2 - 2)"))
    assert ex.contains_var(ex.parse("x + 1"))
    assert not ex.contains_var(ex.parse("4 - 2"))
