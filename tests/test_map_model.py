"""Map construction, config validation, one-sided jets, benchmark families."""

import copy
import math

import numpy as np
import pytest

from cusp_induce import expr as ex
from cusp_induce import map_model as mm

from reference_walk import eval_jet


def test_chebyshev_structure(cheb):
    assert (cheb.lo, cheb.hi) == (-1.0, 1.0)
    assert len(cheb.branches) == 2
    assert len(cheb.critical_points) == 2
    assert all(cp.location == 0.0 for cp in cheb.critical_points)
    assert {cp.side for cp in cheb.critical_points} == {"-", "+"}
    assert all(cp.order == 2.0 for cp in cheb.critical_points)
    assert all(cp.kind == "critical" for cp in cheb.critical_points)


def test_lorenz_structure(lorenz):
    assert (lorenz.lo, lorenz.hi) == (-1.0, 1.0)
    assert len(lorenz.branches) == 2
    # order s < 1: unbounded one-sided derivative
    assert all(cp.order < 1.0 for cp in lorenz.critical_points)
    assert all(cp.kind == "singular" for cp in lorenz.critical_points)


def test_singular_unimodal_structure(singular):
    assert len(singular.branches) == 4
    assert len(singular.critical_points) == 6
    kinds = {cp.kind for cp in singular.critical_points}
    assert kinds == {"critical", "singular"}


_DROP = object()


def _edit(*path, to):
    """A change to a chebyshev config: the value at path set to `to`, or
    deleted when `to` is _DROP."""
    def change(cfg):
        *outer, last = path
        obj = cfg
        for key in outer:
            obj = obj[key]
        if to is _DROP:
            del obj[last]
        else:
            obj[last] = to
        return cfg
    return change


def _replace(cfg):
    return lambda _: cfg


@pytest.mark.parametrize("change, message", [
    (_edit("bogus", to=1), "config: unknown keys ['bogus']"),
    # a side is spelled "+" or "-", nothing else
    (_edit("critical_points", 1, "side", to="plus"),
     "config.critical_points[1].side: expected '+' or '-'"),
    (_replace([]), "config must be a dict"),
    (_edit("delta", to=_DROP), "config: missing required key 'delta'"),
    (_edit("name", to=3), "config.name: expected a string"),
    (_edit("domain", to=[-1.0]), "config.domain: expected [lo, hi]"),
    (_edit("domain", to=[1.0, 1.0]), "config.domain: lo must be < hi"),
    (_edit("delta", to=True), "config.delta: expected a number, got True"),
    (_edit("delta", to=0.0), "config.delta: must be > 0"),
    (_edit("branches", to=[]), "config.branches: expected a non-empty list"),
    (_edit("branches", 0, "expr", to=_DROP),
     "config.branches[0]: needs 'interval' and 'expr'"),
    (_edit("branches", 0, "interval", to=[0.0, -1.0]),
     "config.branches[0].interval: a must be < b"),
    (_edit("branches", 0, "expr", to=2),
     "config.branches[0].expr: expected a string"),
    (_edit("branches", 0, "params", to=[1.0]),
     "config.branches[0].params: expected an object"),
    (_edit("branches", 0, "expr", to="1 - 2*x^"),
     "config.branches[0].expr: expected a number, name or '(' (at offset 8)"),
    (_edit("critical_points", to={}),
     "config.critical_points: expected a list"),
    (_edit("critical_points", 0, "order", to=_DROP),
     "config.critical_points[0]: missing 'order'"),
    (_edit("critical_points", 0, "order", to=0.0),
     "config.critical_points[0].order: must be > 0"),
    (_replace({"family": "unimodal", "params": {"b": 1.0}}),
     "unimodal: unknown params ['b']"),
    (_replace({"family": "lorenz", "params": {"b": 1.0}}),
     "lorenz: unknown params ['b']"),
    (_replace({"family": "singular_unimodal", "params": {"b": 1.0}}),
     "singular_unimodal: unknown params ['b']"),
], ids=["unknown-key", "side", "not-an-object", "no-delta", "name",
        "one-element-domain", "empty-domain", "bool-number", "delta-zero",
        "no-branches", "branch-without-expr", "reversed-interval",
        "expr-not-a-string", "params-not-an-object", "expr-syntax",
        "critical-points-not-a-list", "point-without-order", "order-zero",
        "unimodal-param", "lorenz-param", "singular-unimodal-param"])
def test_unknown_config_key_rejected(change, message):
    with pytest.raises(mm.MapConfigError) as err:
        mm.build_map(change(mm.family_config("chebyshev")))
    assert str(err.value) == message


def test_branch_gap_rejected():
    cfg = mm.family_config("chebyshev")
    cfg["branches"][0]["interval"] = [-1.0, -0.1]
    with pytest.raises(mm.MapValidationError):
        mm.build_map(cfg)


def test_branch_overlap_rejected():
    cfg = mm.family_config("chebyshev")
    cfg["branches"][1]["interval"] = [-0.2, 1.0]
    with pytest.raises(mm.MapValidationError):
        mm.build_map(cfg)


def test_undeclared_interior_boundary_rejected():
    cfg = mm.family_config("chebyshev")
    cfg["critical_points"] = []
    with pytest.raises(mm.MapValidationError):
        mm.build_map(cfg)


def test_image_escaping_domain_rejected():
    cfg = mm.family_config("chebyshev")
    cfg["branches"][0]["expr"] = "x^2 - x^3"
    with pytest.raises(mm.MapValidationError):
        mm.build_map(cfg)


def test_unknown_family_rejected():
    with pytest.raises(mm.MapConfigError):
        mm.family_config("nosuch")


def test_evaluate_interior_and_boundary(cheb):
    assert mm.evaluate(cheb, 0.5).value == pytest.approx(0.5)
    assert mm.evaluate(cheb, 0.5).d1 == pytest.approx(-2.0)
    # branch boundaries require an explicit side
    with pytest.raises(ex.EvalDomainError):
        mm.evaluate(cheb, 0.0)
    left = mm.evaluate(cheb, 0.0, "-")
    right = mm.evaluate(cheb, 0.0, "+")
    assert left.value == right.value == 1.0
    assert left.d1 == right.d1 == 0.0


def test_endpoint_jet_keeps_exact_value_at_kink(cheb):
    # (map, branch, side, value, d1, d2) at the kink x = 0; beside the
    # steep powers s = 0.3 the sample at eta = 1e-8 lies more than 1e-3
    # from the formula's own value, which must still be kept
    lorenz = mm.lorenz_map(a=1.9, s=0.3)
    singular = mm.singular_unimodal_map(s=0.3)
    cases = [
        (cheb, 1, "+", 1.0, 0.0, -4.0),
        (mm.unimodal_map(ell=1.5), 1, "+", 1.0, 0.0, -math.inf),
        (lorenz, 0, "-", 1.0, math.inf, math.inf),
        (lorenz, 1, "+", -1.0, math.inf, -math.inf),
        (singular, 1, "-", 0.0, math.inf, math.inf),
        (singular, 2, "+", 0.0, math.inf, -math.inf),
    ]
    for m, i, side, value, d1, d2 in cases:
        j = m.endpoint_jet(i, 0.0, side)
        assert j.value == value, (m.name, side)
        assert j.d1 == d1
        assert j.d2 == pytest.approx(d2, rel=1e-6)


def test_endpoint_jet_one_sided_blowup(lorenz):
    j = lorenz.endpoint_jet(1, 0.0, "+")
    assert j.value == -1.0
    assert math.isinf(j.d1) and j.d1 > 0


def test_critical_distance(cheb, singular):
    assert mm.critical_distance(cheb, 0.3) == pytest.approx(0.3)
    assert mm.critical_distance(cheb, -0.2) == pytest.approx(0.2)
    # nearest of several declared locations
    locs = singular.critical_locations
    x = 0.9 * singular.hi
    expected = min(abs(x - c) for c in locs)
    assert mm.critical_distance(singular, x) == pytest.approx(expected)


def test_branch_index_and_images(cheb):
    assert cheb.branch_index(-0.5) == 0
    assert cheb.branch_index(0.5) == 1
    for lo, hi in cheb.branch_images:
        assert cheb.lo <= lo < hi <= cheb.hi


def test_monotone_signs(cheb, lorenz):
    assert cheb.monotone_signs == (1, -1)
    assert lorenz.monotone_signs == (1, 1)


def test_nondegeneracy_passes_on_all_families(cheb, lorenz, unimodal2, singular):
    for m in (cheb, lorenz, unimodal2, singular):
        rep = mm.verify_nondegeneracy(m)
        assert rep.passed, rep.failures


@pytest.mark.parametrize("ell", [2.9, 3.0, 4.0])
def test_nondegeneracy_passes_on_high_orders(ell):
    # 1 - 2|x|^ell rounds to f(c) = 1 near the critical point from about
    # ell = 2.85 on; those samples leave the f ratio, not the verdict
    rep = mm.verify_nondegeneracy(mm.unimodal_map(a=2.0, ell=ell))
    assert rep.passed, rep.failures
    assert all(p["f_max"] / p["f_min"] < 2.0 for p in rep.per_point)


def test_nondegeneracy_fails_where_the_f_ratio_keeps_too_few_samples():
    # at ell = 12, 2 d^12 lies within 4 ulps of 1 on the whole grid: the
    # f ratio has no sample and reads failed, with its own message
    rep = mm.verify_nondegeneracy(mm.unimodal_map(a=2.0, ell=12.0))
    assert not rep.passed
    assert rep.failures == [
        f"0.0{side}: ratio f has 0 sample(s) clear of the rounding of f(c)"
        for side in "-+"]
    assert all(math.isnan(p["f_min"]) for p in rep.per_point)


def test_branch_vectorized_values_match_scalar(cheb):
    br = cheb.branches[1]
    xs = np.linspace(0.05, 0.95, 41)
    vals = br.values(xs)
    d1s = br.d1_values(xs)
    for x, v, d in zip(xs, vals, d1s):
        j = br.jet(float(x))
        assert v == pytest.approx(j.value, rel=1e-14)
        assert d == pytest.approx(j.d1, rel=1e-14)


def test_load_map_round_trip(tmp_path, cheb):
    import json

    path = tmp_path / "map.json"
    path.write_text(json.dumps(mm.family_config("chebyshev")))
    m = mm.load_map(str(path))
    assert len(m.branches) == len(cheb.branches)
    assert mm.evaluate(m, 0.25).value == mm.evaluate(cheb, 0.25).value


# ---------------------------------------------------------------------------
# every error of map validation; the monotonicity scan against the scalar
# loop it replaced


def _scalar_scan_error(config, i):
    """The monotonicity scan of branch i as one scalar jet of the reference
    walk per sample: (error type, message) of its first failure, or None."""
    rb = config["branches"][i]
    a, b = rb["interval"]
    params = rb.get("params", {})
    tree = ex.parse(rb["expr"], params)
    width = b - a
    signs = set()
    for x in np.linspace(a + 1e-9 * width, b - 1e-9 * width, 1024).tolist():
        try:
            j = eval_jet(tree, x, params)
        except (ex.NonDifferentiableError, ex.EvalDomainError) as err:
            return (type(err),
                    f"branch {i} expression invalid at x={x!r}: {err}")
        if j.d1 == 0.0 or not math.isfinite(j.d1):
            return (None, f"branch {i} has non-monotone or non-finite "
                          f"derivative at x={x!r}")
        signs.add(1 if j.d1 > 0 else -1)
    if len(signs) != 1:
        return None, f"branch {i} is not strictly monotone"
    return None


def _two_branch_config(right_expr, params=None):
    """Chebyshev's left branch beside right_expr on [0, 1]."""
    cfg = mm.family_config("chebyshev")
    cfg["branches"][1] = {"interval": [0.0, 1.0], "expr": right_expr,
                          "params": params or {}}
    return cfg


def _sample(k):
    """Sample k of the monotonicity scan of a branch on [0, 1]."""
    return float(np.linspace(1e-9, 1.0 - 1e-9, 1024)[k])


_BUILDS = "builds"


@pytest.mark.parametrize("expr, params, cause", [
    # negative base under a fractional power from the middle of the scan
    ("(0.5 - x)^1.5", {}, ex.EvalDomainError),
    # a kink exactly on sample 700
    ("-2*abs(x - c)", {"c": _sample(700)}, ex.NonDifferentiableError),
    # a kink on sample 300 under a power: the array jet's value and Df
    # stay finite there, its D2f does not
    ("-abs(x - c)^1.5 - 2*x", {"c": _sample(300)},
     ex.NonDifferentiableError),
    # Df = 0 on sample 400 of a monotone cubic
    ("-(x - c)^3", {"c": _sample(400)}, None),
    # Df overflows to inf for x > 0.9
    ("-1e308*x^2", {}, None),
    # Df changes sign
    ("1 - 8*(x - 0.5)^2", {}, None),
    # the kink on sample 700 in a sum with a slope: value, Df and D2f of
    # the array jet stay finite there, with Df != 0
    ("-0.5*x - 0.25*abs(x - c)", {"c": _sample(700)},
     ex.NonDifferentiableError),
    # that kink strictly between samples 700 and 701: no sample sees it
    ("-0.5*x - 0.25*abs(x - c)",
     {"c": 0.5 * (_sample(700) + _sample(701))}, _BUILDS),
    # an exponent that faults at every sample
    ("x^(1/0)", {}, ex.EvalDomainError),
    # Df overflows to -inf past x = 0.8954 while the value stays finite
    ("-(x + 1)^1100", {}, None),
])
def test_monotonicity_errors_match_the_scalar_scan(expr, params, cause):
    cfg = _two_branch_config(expr, params)
    want = _scalar_scan_error(cfg, 1)
    if cause is _BUILDS:
        assert want is None
        mm.build_map(cfg)
        return
    assert want is not None and want[0] is cause
    with pytest.raises(mm.MapValidationError) as info:
        mm.build_map(cfg)
    assert str(info.value) == want[1]
    assert type(info.value.__cause__) is (cause or type(None))


def test_validation_scans_with_no_scalar_jets(monkeypatch):
    # the scan takes one array jet per branch; the few scalar jets left
    # come from the branch signs and the one-sided image limits
    calls = []
    jet = mm.Branch.jet
    monkeypatch.setattr(mm.Branch, "jet",
                        lambda br, x: calls.append(x) or jet(br, x))
    for family in ("chebyshev", "lorenz", "singular_unimodal"):
        calls.clear()
        mm.build_map({"family": family})
        assert len(calls) < 20


def _cfg_with(**changes):
    """The chebyshev config with the given top-level keys replaced."""
    return {**mm.family_config("chebyshev"), **changes}


_CHEB_LEFT = {"interval": [-1.0, 0.0], "expr": "1 - 2*x^2"}
_THREE_BRANCHES = dict(
    branches=[_CHEB_LEFT, {"interval": [0.0, 0.5], "expr": "1 - 4*x"},
              {"interval": [0.5, 1.0], "expr": "4*x - 3"}],
    critical_points=[{"location": c, "side": side, "order": order}
                     for c, order in ((0.0, 2.0), (0.5, 1.0))
                     for side in "-+"])


@pytest.mark.parametrize("cfg, message", [
    (_cfg_with(branches=[{"interval": [-1.0, -0.1], "expr": "1 - 2*x^2"},
                         {"interval": [0.0, 1.0], "expr": "1 - 2*x^2"}]),
     "gap between branches 0 and 1: -0.1 vs 0.0"),
    (_cfg_with(branches=[_CHEB_LEFT,
                         {"interval": [-0.2, 1.0], "expr": "1 - 2*x^2"}]),
     "overlap between branches 0 and 1: 0.0 vs -0.2"),
    (_cfg_with(domain=[-1.0, 1.5]), "branches do not span the domain"),
    (_cfg_with(critical_points=[
        {"location": 0.25, "side": "-", "order": 2.0}]),
     "critical point at 0.25 is not an interior branch boundary"),
    (_cfg_with(critical_points=[
        {"location": 0.0, "side": side, "order": 2.0} for side in "--+"]),
     "duplicate critical point declarations"),
    (_cfg_with(critical_points=[
        {"location": 0.0, "side": "-", "order": 2.0}]),
     "interior boundaries lack declared orders on sides: [(0.0, '+')]"),
    (_two_branch_config("1 - 3*x^2"),
     "branch 1 image (-2.0, 1.0) leaves the domain"),
    (_cfg_with(delta=1.5), "delta=1.5 exceeds the branch left of 0.0"),
    (_cfg_with(delta=0.75, **_THREE_BRANCHES),
     "delta=0.75 exceeds the branch right of 0.0"),
    (_cfg_with(delta=0.3, **_THREE_BRANCHES),
     "delta=0.3 makes neighborhoods of 0.0 and 0.5 overlap"),
])
def test_each_validation_error_names_its_cause(cfg, message):
    with pytest.raises(mm.MapValidationError) as info:
        mm.build_map(cfg)
    assert str(info.value) == message
