"""Compiled branch formulas against reference walks of the tree.

The array form must match an unfolded array walk with the jet rules at
orders 0, 1 and 2, NaN and inf positions included.  Calls at one point
must return the Jet2 or value that the scalar walks of reference_walk
return, bit for bit, or raise the same exception with the same message,
and the checked form must mark exactly the points where they raise.
Forced passes, which evaluate a map's formulas together (the subtrees they
share once) and select each point's formula, must match step-by-step
Branch calls.
"""

import math

import numpy as np
import pytest

from cusp_induce import _vec
from cusp_induce import expr as ex
from cusp_induce import map_model as mm

from reference_walk import eval_jet, eval_value


def _mul(a, b):
    return None if a is None or b is None else a * b


def _add(*terms):
    """Sum from the left; None is a structural zero and drops out."""
    terms = [t for t in terms if t is not None]
    if not terms:
        return None
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def _neg(a):
    return None if a is None else -a


def walk_jet(e, x, params=None):
    """[f, Df, D2f] over x by an unfolded array walk with the jet rules.

    Every node, constants included, is evaluated over the whole array, and
    d/dx x is an array of ones.  The derivatives of an x-free subtree, of
    sign and the second derivative of x are structural zeros: None, which
    drops out of every sum and product rather than turning inf into NaN.
    """
    if isinstance(e, (ex.Const, ex.Param)):
        c = e.value if isinstance(e, ex.Const) else \
            ex._param_value(params, e.name)
        return [np.full_like(x, c, dtype=float), None, None]
    if isinstance(e, ex.Var):
        return [np.asarray(x, dtype=float), np.ones_like(x, dtype=float), None]
    if isinstance(e, ex.Pow):
        r = ex.const_value(e.exponent, params)
        b, b1, b2 = walk_jet(e.base, x, params)
        if b1 is None and b2 is None:
            return [b ** r, None, None]
        p1 = r * b ** (r - 1.0)
        p2 = r * (r - 1.0) * b ** (r - 2.0)
        return [b ** r, _mul(p1, b1), _add(_mul(_mul(p2, b1), b1),
                                           _mul(p1, b2))]
    if isinstance(e, (ex.Neg, ex.Abs, ex.Sign)):
        u = walk_jet(e.arg, x, params)
        if isinstance(e, ex.Neg):
            return [_neg(p) for p in u]
        if isinstance(e, ex.Sign):
            return [np.sign(u[0]), None, None]
        s = np.sign(u[0])
        return [np.abs(u[0]), _mul(s, u[1]), _mul(s, u[2])]
    (uv, u1, u2), (vv, v1, v2) = (walk_jet(e.left, x, params),
                                  walk_jet(e.right, x, params))
    if isinstance(e, ex.Add):
        return [uv + vv, _add(u1, v1), _add(u2, v2)]
    if isinstance(e, ex.Sub):
        return [uv - vv, _add(u1, _neg(v1)), _add(u2, _neg(v2))]
    if isinstance(e, ex.Mul):
        return [uv * vv, _add(_mul(u1, vv), _mul(uv, v1)),
                _add(_mul(u2, vv), _mul(_mul(2.0, u1), v1), _mul(uv, v2))]
    if isinstance(e, ex.Div):
        w = uv / vv
        d1 = _add(u1, _neg(_mul(w, v1)))
        d1 = None if d1 is None else d1 / vv
        d2 = _add(u2, _neg(_mul(w, v2)), _neg(_mul(_mul(2.0, d1), v1)))
        return [w, d1, None if d2 is None else d2 / vv]
    raise TypeError(f"not an expression node: {e!r}")


def walk(e, x, params=None):
    """walk_jet with its structural zeros as arrays of zeros."""
    with np.errstate(all="ignore"):
        return [np.zeros_like(x, dtype=float) if p is None else p
                for p in walk_jet(e, x, params)]


MAPS = {
    "chebyshev": mm.chebyshev_map,
    "lorenz(1.9,0.6)": lambda: mm.lorenz_map(1.9, 0.6),
    "lorenz(1.9,0.4)": lambda: mm.lorenz_map(1.9, 0.4),
    "unimodal": mm.unimodal_map,
    "singular_unimodal": mm.singular_unimodal_map,
}

# formulas beyond the families: folded constant powers and parameters,
# nested powers, sign, division through zero, fractional powers of
# negative bases (NaN), and a parameter-free constant tree
EXTRA = [
    ("2^0.3*x - (1 + a)^s", {"a": 0.7, "s": 0.4}),
    ("(x^2)^0.7 - abs(x)^-0.6", {}),
    ("sign(x - 0.25)*(x - 0.25)^2 + x/(x - 0.5)", {}),
    ("x^0.5 + 1/x - (-x)^1.5", {}),
    ("-x^3 + 2 - -x", {}),
    ("a*b^2 - 3", {"a": 2.0, "b": -1.5}),
    ("x", {}),
    ("x*x/(3 - x) + abs(2*x)", {}),
]

SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 5e-324, np.nextafter(0.0, -1)]


def kinks(m):
    pts = {m.lo, m.hi, 0.0, -0.0}
    pts.update(float(br.a) for br in m.branches)
    pts.update(cp.location for cp in m.critical_points)
    return sorted(pts)


def sample_points(m, size):
    if size == 1:
        return np.array([0.5 * (m.lo + m.hi) + 0.123])
    if size == 8:
        return np.linspace(m.lo, m.hi, 8)
    rng = np.random.default_rng(7)
    x = rng.uniform(m.lo, m.hi, size)
    k = kinks(m)
    x[:len(k)] = k
    x[len(k):len(k) + len(SPECIAL)] = SPECIAL
    return x


def extra_points(size):
    x = np.linspace(-1.0, 1.0, size) if size > 1 else np.array([-0.3])
    if size == 4096:
        x[:11] = [0.25, 0.5, -1.0, 3.0, 1.0] + SPECIAL
    return x


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def same_numbers(a, b):
    """== everywhere (a zero may change sign), NaN where the other is."""
    return a.shape == b.shape and a.dtype == b.dtype \
        and np.array_equal(a, b, equal_nan=True)


def assert_matches_walk(fn, tree, x, params):
    """fn(x, order) against the walk at every order; f bit for bit."""
    want = walk(tree, x, params)
    with np.errstate(over="ignore"):
        got = fn(x, 0)
        jets = [fn(x, 1), fn(x, 2)]
    assert isinstance(got, np.ndarray) and same_bits(got, want[0])
    for order, got in ((1, jets[0]), (2, jets[1])):
        assert isinstance(got, tuple) and len(got) == order + 1
        assert same_bits(got[0], want[0])
        for g, w in zip(got[1:], want[1:]):
            assert same_numbers(g, w)


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("size", [1, 8, 4096])
def test_array_form_matches_the_walker_bit_for_bit(name, size):
    m = MAPS[name]()
    x = sample_points(m, size)
    for br in m.branches:
        assert_matches_walk(ex.compile(br.tree, br.params).array, br.tree, x,
                            br.params)
        assert_matches_walk(br.values, br.tree, x, br.params)
        want = walk(br.tree, x, br.params)
        with np.errstate(over="ignore"):
            assert same_numbers(br.d1_values(x), want[1])
            assert same_numbers(br.d2_values(x), want[2])


@pytest.mark.parametrize("size", [1, 8, 4096])
def test_array_form_of_extra_formulas(size):
    x = extra_points(size)
    for source, params in EXTRA:
        tree = ex.parse(source, params)
        assert_matches_walk(ex.compile(tree, params).array, tree, x, params)


@pytest.mark.parametrize("size", [1, 8, 4096])
def test_lower_orders_are_the_leading_parts_of_order_2(size):
    cases = [(ex.parse(s, p), p) for s, p in EXTRA]
    for name in sorted(MAPS):
        cases += [(br.tree, br.params) for br in MAPS[name]().branches]
    x = extra_points(size)
    for tree, params in cases:
        array = ex.compile(tree, params).array
        with np.errstate(over="ignore"):
            full, low = array(x, 2), (array(x), array(x, 1))
        assert same_bits(low[0], full[0])
        assert all(same_bits(a, b) for a, b in zip(low[1], full[:2]))


def test_kinks_give_the_walkers_nan_and_inf_positions():
    m = mm.lorenz_map(1.9, 0.4)
    br = m.branches[1]
    x = np.array(kinks(m))
    got = br.values(x, 2)
    assert not np.isfinite(got[1]).all() and not np.isfinite(got[2]).all()
    for g, w in zip(got, walk(br.tree, x, br.params)):
        np.testing.assert_array_equal(np.isnan(g), np.isnan(w))
        np.testing.assert_array_equal(np.isinf(g), np.isinf(w))


def test_constant_trees_return_arrays_of_the_input_shape():
    # "a*b^2 - 3" holds no x at all and folds; so do the second derivative
    # of "2*x - 1" and both derivatives of "sign(x)"
    const = ex.parse("a*b^2 - 3", {"a", "b"})
    params = {"a": 2.0, "b": -1.5}
    forms = [(ex.compile(const, params).array, const, params)]
    for source in ("2*x - 1", "sign(x)"):
        tree = ex.parse(source)
        forms.append((ex.compile(tree).array, tree, {}))
    for x in (np.zeros(1), np.linspace(-1, 1, 8), np.zeros((3, 4))):
        for fn, tree, p in forms:
            want = walk(tree, x, p)
            for order in (0, 1, 2):
                got = fn(x, order)
                got = got if order else (got,)
                for g, w in zip(got, want):
                    assert isinstance(g, np.ndarray) and g.shape == x.shape
                    assert same_numbers(g, w)
    assert forms[0][0](np.zeros(2)).tolist() == [1.5, 1.5]
    assert [p.tolist() for p in forms[0][0](np.zeros(2), 2)] == \
        [[1.5, 1.5], [0.0, 0.0], [0.0, 0.0]]
    assert forms[1][0](np.zeros(2), 2)[1].tolist() == [2.0, 2.0]


def test_missing_parameter_raises_when_evaluated():
    forms = ex.compile(ex.parse("a*x + 1", {"a"}), {})
    with pytest.raises(ex.EvalDomainError):
        forms.array(np.zeros(3))
    with pytest.raises(ex.EvalDomainError):
        forms.jet(0.5)


def jet_outcome(fn, *args):
    """The bytes of the Jet2 that fn returns, every NaN made the one NaN
    (the sign bit of a NaN is not part of the contract), or the type and
    message of what it raises."""
    try:
        j = fn(*args)
    except (ex.ExprError, ArithmeticError) as err:
        return type(err), str(err)
    assert isinstance(j, ex.Jet2)
    parts = np.array([j.value, j.d1, j.d2])
    parts[np.isnan(parts)] = np.nan
    return parts.tobytes()


def test_jet_outcome_drops_only_the_sign_of_a_nan():
    def outcome(value):
        return jet_outcome(lambda: ex.Jet2(value, 1.0, 0.0))

    assert outcome(np.copysign(np.nan, -1.0)) == outcome(np.nan)
    assert outcome(-0.0) != outcome(0.0)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_jet_form_matches_eval_jet(name):
    m = MAPS[name]()
    xs = [float(v) for v in sample_points(m, 4096)[::16]]
    xs += kinks(m) + [1e-300, -1e-300, 5e-324, math.inf, math.nan]
    outcomes = set()
    for br in m.branches:
        tree, params = br.tree, br.params
        forms = ex.compile(tree, params)
        for x in xs:
            want = jet_outcome(eval_jet, tree, x, params)
            assert jet_outcome(forms.jet, x) == want
            outcomes.add(want[0] if isinstance(want, tuple) else bytes)
    for br in m.branches:
        for x in xs:
            assert jet_outcome(br.jet, x) == \
                jet_outcome(eval_jet, br.tree, x, br.params)
    assert bytes in outcomes


@pytest.mark.parametrize("name", ["chebyshev", "lorenz(1.9,0.4)", "unimodal",
                                  "singular_unimodal"])
def test_scalar_jets_round_as_the_array_jet(name):
    # both forms take their powers from numpy's power ufunc; Python's **
    # (libm) differs in the last bit, even for x^2.0, where the array form
    # squares exactly
    m = MAPS[name]()
    rng = np.random.default_rng(11)
    for br in m.branches:
        forms = ex.compile(br.tree, br.params)
        x = rng.uniform(br.a, br.b, 20000)
        value, d1 = forms.array(x, 1)
        jets = np.array([(j.value, j.d1) for j in map(forms.jet, x.tolist())])
        assert jets[:, 0].tobytes() == value.tobytes()
        assert jets[:, 1].tobytes() == d1.tobytes()


def test_jet_form_raises_what_eval_jet_raises():
    cases = [("abs(x)", 0.0), ("x^0.5", 0.0), ("x^0.5", -1.0), ("x^-1", 0.0),
             ("1/x", 0.0), ("abs(x)^-1.6", 1e-300), ("(0 - 0)^-1 + x", 1.0),
             ("x^(1/0)", 2.0), ("abs(x)^(1/0)", 0.0), ("abs(0)*x", 1.0),
             ("sign(x)*x", 0.0), ("sign(x)*x", -0.0), ("sign(x)", math.nan)]
    seen = set()
    for source, x in cases:
        tree = ex.parse(source)
        want = jet_outcome(eval_jet, tree, x)
        assert jet_outcome(ex.compile(tree).jet, x) == want
        seen.add(want[0] if isinstance(want, tuple) else bytes)
    assert {ex.NonDifferentiableError, ex.EvalDomainError, OverflowError,
            bytes} <= seen


# formulas at the edges of the rules: zero bases under integer powers,
# powers that overflow only in a derivative, products that overflow, and
# constant subtrees that fault at order 2 only or after a fault in x
EDGES = ["x^1", "x^0", "(-x)^2", "x^3", "x^2.5", "x^1.5", "-2*x",
         "(x - 1)^-2", "abs(x)^1", "1/(1e-300*x)", "(x*1e200)^2",
         "-(x + 1)^1100", "1/x + (0 - 0)^-1", "x - 0.25*abs(x - 0.3)",
         "(-1)^0.5 + x", "x^(2^0.5)", "x*1e300*1e300 + x", "abs(0)*x"]
EDGE_X = [0.0, -0.0, 0.3, 0.5, 1.0, -1.0, 1e-300, -1e-300, 5e-324, -5e-324,
          1e-160, 1e308, math.inf, -math.inf, math.nan]


def one_point_cases():
    cases = [(ex.parse(s, p), p) for s, p in EXTRA]
    cases += [(ex.parse(s), {}) for s in EDGES]
    for name in sorted(MAPS):
        cases += [(br.tree, br.params) for br in MAPS[name]().branches]
    return cases


def value_outcome(fn, *args):
    try:
        v = fn(*args)
    except (ex.ExprError, ArithmeticError) as err:
        return type(err), str(err)
    assert type(v) is float
    return np.array([v]).tobytes()


def nan_signs_aside(outcome):
    """outcome with each NaN made one NaN: the sign of a NaN from two NaN
    operands depends on the order the machine code takes them in, which
    differs between Python's float operations and numpy's."""
    if isinstance(outcome, tuple):
        return outcome
    a = np.frombuffer(outcome)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def test_one_point_calls_match_the_scalar_walks():
    xs = EDGE_X + np.linspace(-1.5, 1.5, 61).tolist()
    seen = set()
    for tree, params in one_point_cases():
        forms = ex.compile(tree, params)
        for x in xs:
            for call, walk_, outcome in ((forms.jet, eval_jet, jet_outcome),
                                         (forms.value, eval_value,
                                          value_outcome)):
                want = nan_signs_aside(outcome(walk_, tree, x, params))
                assert nan_signs_aside(outcome(call, x)) == want
                seen.add(want[0] if isinstance(want, tuple) else outcome)
    assert {ex.NonDifferentiableError, ex.EvalDomainError, OverflowError,
            jet_outcome, value_outcome} <= seen


@pytest.mark.parametrize("order", [0, 2])
def test_checked_form_is_the_one_point_calls_over_an_array(order):
    x = np.array(EDGE_X + np.linspace(-1.5, 1.5, 61).tolist())
    call, outcome = ("jet", jet_outcome) if order else ("value",
                                                        value_outcome)
    marked = 0
    for tree, params in one_point_cases():
        forms = ex.compile(tree, params)
        got, mask = forms.checked(x, order)
        got = np.stack(got if order else (got,), axis=1)
        for k, v in enumerate(x.tolist()):
            want = nan_signs_aside(outcome(getattr(forms, call), v))
            assert mask[k] == isinstance(want, tuple)
            if not mask[k]:
                assert nan_signs_aside(got[k].tobytes()) == want
        marked += mask.sum()
    assert marked > 0


# ---------------------------------------------------------------------------
# shared evaluations in the vectorized kernels


def per_branch(m, ids, x):
    """Point k stepped by branch ids[k], one Branch.values call of its own
    per point; an id of -1 keeps its point."""
    with np.errstate(all="ignore"):
        return np.array([x[k] if i < 0 else
                         m.branches[i].values(np.array([x[k]]))[0]
                         for k, i in enumerate(ids)])


def twins_map():
    """Two branches of one tree, 1 - a*abs(x)^2, with different params."""
    return mm.MapSpec("twins", -1.0, 1.0, 0.05, tuple(
        mm.Branch(a, b, "1 - a*abs(x)^2", ex.parse("1 - a*abs(x)^2", {"a"}),
                  {"a": a_val})
        for a, b, a_val in ((-1.0, 0.0, 2.0), (0.0, 1.0, 1.5))), ())


def cubic_map():
    """Two formulas that share no subtree: x^3 - 0.75*x and x - 0.75."""
    return mm.build_map({
        "name": "cubic", "domain": [-0.5, 1.0], "delta": 0.05,
        "branches": [{"interval": [-0.5, 0.5], "expr": "x^3 - 0.75*x"},
                     {"interval": [0.5, 1.0], "expr": "x - 0.75"}],
        "critical_points": [{"location": 0.5, "side": "-", "order": 2.0},
                            {"location": 0.5, "side": "+", "order": 1.0}]})


def test_formula_groups_share_equal_formulas_only():
    cheb, lorenz = mm.chebyshev_map(), mm.lorenz_map()
    sing = mm.singular_unimodal_map()
    assert cheb.formula_groups[0].tolist() == [0, 0, -1]
    assert lorenz.formula_groups[0].tolist() == [0, 1, -1]
    assert sing.formula_groups[0].tolist() == [0, 0, 1, 1, -1]
    x = np.array([-0.7, 0.3, -0.2, 0.9])

    def stepped(m, ids):
        return _vec.step_values(m, x, ids=np.array(ids))

    # one evaluation serves both chebyshev branches
    assert len(cheb.group_values(x)) == 1
    assert stepped(cheb, [0, 1, 1, 0]).tobytes() == \
        cheb.branches[0].values(x).tobytes()
    split = stepped(lorenz, [0, 1, 1, 0])
    assert list(lorenz.formula_groups[1]) == list(lorenz.branches)
    assert split.tobytes() == per_branch(lorenz, [0, 1, 1, 0], x).tobytes()
    assert split[[0, 3]].tobytes() == \
        lorenz.branches[0].values(x[[0, 3]]).tobytes()
    assert split[[1, 2]].tobytes() == \
        lorenz.branches[1].values(x[[1, 2]]).tobytes()
    # a finished row (-1) keeps its point
    dead = _vec.forced_forward(cheb, _vec.itinerary_matrix([(0,), (), (1,)]),
                               np.arange(3), x[:3])
    assert dead.tobytes() == per_branch(cheb, [0, -1, 1], x[:3]).tobytes()
    assert dead[1] == x[1]
    assert stepped(sing, [3, 2, 2, 2]).tobytes() == \
        sing.branches[2].values(x).tobytes()
    assert twins_map().formula_groups[0].tolist() == [0, 1, -1]


def test_shared_subtrees_are_the_largest_common_ones():
    def shared(m):
        return [sub for sub, _params in ex.shared_subtrees(
            [(br.tree, br.params) for br in m.formula_groups[1]])]

    assert shared(mm.lorenz_map()) == [ex.parse("a*abs(x)^s", "as")]
    assert shared(mm.singular_unimodal_map()) == [
        ex.parse("A*abs(x)^s*(1 - B*abs(x))", "AsB")]
    # equal trees under other params, or nothing in common but x: none
    assert shared(twins_map()) == []
    assert shared(cubic_map()) == []
    assert shared(mm.chebyshev_map()) == []


def test_one_lorenz_step_evaluates_the_shared_power_once(monkeypatch):
    m = mm.lorenz_map()
    x = np.linspace(-1.0, 1.0, 5120)
    _vec.step_values(m, x)          # compiles on first use
    calls = []
    pow_rule, values = ex._pow_rule, mm.Branch.values
    monkeypatch.setattr(ex, "_pow_rule",
                        lambda *a: calls.append("pow") or pow_rule(*a))
    monkeypatch.setattr(mm.Branch, "values",
                        lambda *a: calls.append("values") or values(*a))
    _vec.step_values(m, x)
    assert calls == ["pow"]
    _vec.step_values(m, x, 1)
    assert calls == ["pow", "pow"]


def step_by_step(m, row, x):
    """Orbit of one point along row, one Branch call of its own per step."""
    x, P, S = np.array([x]), np.ones(1), np.zeros(1)
    seen = []
    with np.errstate(all="ignore"):
        for i in row:
            seen.append(x[0])
            f = m.branches[i]
            S = f.d2_values(x) * P ** 2 + f.d1_values(x) * S
            P = f.d1_values(x) * P
            x = f.values(x)
    return x[0], P[0], S[0], seen


FORCED_PASS_MAPS = {
    "chebyshev": mm.chebyshev_map,
    "lorenz": mm.lorenz_map,
    "singular_unimodal": mm.singular_unimodal_map,
    "cubic": cubic_map,
}


@pytest.mark.parametrize("family", sorted(FORCED_PASS_MAPS))
@pytest.mark.parametrize("some_dead", [False, True])
def test_forced_pass_matches_step_by_step_branch_calls(family, some_dead):
    m = FORCED_PASS_MAPS[family]()
    n = len(m.branches)
    rows = [(0, 1, 3, 0, 2), (1, 3, 0, 2, 0), (2, 0, 1, 3, 1)]
    if some_dead:
        # the short rows come after the long ones, so that their points
        # finish inside the prefixes of later steps
        rows += [(0, 1), (3,), (0, 2, 1)]
    rows = [tuple(i % n for i in row) for row in rows]
    itin = _vec.itinerary_matrix(rows)
    rng = np.random.default_rng(3)
    owner = np.repeat(np.arange(len(rows)), 40)
    x = rng.uniform(m.lo, m.hi, owner.size)
    # points exactly on the branch boundaries and the domain ends
    ends = np.concatenate((m.interior_boundaries, [0.0, m.lo, m.hi]))
    x[:ends.size] = x[-ends.size:] = ends
    # the points of finished rows leave the later steps of a pass
    stops = [stop for stop, _g in _vec._planner(m, itin)(owner)]
    assert some_dead == (stops[-1] < owner.size)
    y, d1, d2 = _vec.forced_forward(m, itin, owner, x, order=2)
    assert same_bits(_vec.forced_forward(m, itin, owner, x), y)
    # the position before step j is the image along the first j columns
    seen = [_vec.forced_forward(m, itin[:, :j], owner, x)
            for j in range(itin.shape[1])]
    for k in range(x.size):
        want = step_by_step(m, rows[owner[k]], x[k])
        got = (y[k], d1[k], d2[k])
        assert np.array(got).tobytes() == np.array(want[:3]).tobytes()
        for at, pos in zip(seen, want[3]):
            assert at[k:k + 1].tobytes() == np.array([pos]).tobytes()
        # past the end of its row the point no longer moves
        assert all(same_bits(at[k:k + 1], y[k:k + 1])
                   for at in seen[len(want[3]):])
    mixed = np.concatenate([x, x[::-1]])
    for got, want in ((_vec.step_values(m, mixed), "values"),
                      (_vec.step_values(m, mixed, 1)[1], "d1_values")):
        ref = np.array([getattr(m.branches[m.branch_index(v)], want)(
            np.array([v]))[0] for v in mixed])
        assert got.tobytes() == ref.tobytes()
