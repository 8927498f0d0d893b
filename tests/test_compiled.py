"""Compiled branch formulas against the recursive walkers they replace.

The array jet must match an unfolded array walk with eval_jet's rules at
orders 0, 1 and 2, NaN and inf positions included, and the jet form must
return the Jet2 that eval_jet returns or raise the same exception.  Forced
passes that let branches with one formula share an evaluation must match
step-by-step Branch calls.
"""

import math

import numpy as np
import pytest

from cusp_induce import _vec
from cusp_induce import expr as ex
from cusp_induce import map_model as mm


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
    """[f, Df, D2f] over x by an unfolded array walk with eval_jet's rules.

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
    try:
        j = fn(*args)
    except (ex.ExprError, ArithmeticError) as err:
        return type(err)
    assert isinstance(j, ex.Jet2)
    return np.array([j.value, j.d1, j.d2]).tobytes()


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
            want = jet_outcome(ex.eval_jet, tree, x, params)
            assert jet_outcome(forms.jet, x) == want
            outcomes.add(want if isinstance(want, type) else bytes)
    for br in m.branches:
        for x in xs:
            assert jet_outcome(br.jet, x) == \
                jet_outcome(ex.eval_jet, br.tree, x, br.params)
    assert bytes in outcomes


def test_jet_form_raises_what_eval_jet_raises():
    cases = [("abs(x)", 0.0), ("x^0.5", 0.0), ("x^0.5", -1.0), ("x^-1", 0.0),
             ("1/x", 0.0), ("abs(x)^-1.6", 1e-300), ("(0 - 0)^-1 + x", 1.0),
             ("x^(1/0)", 2.0), ("abs(x)^(1/0)", 0.0), ("abs(0)*x", 1.0),
             ("sign(x)*x", 0.0), ("sign(x)*x", -0.0), ("sign(x)", math.nan)]
    seen = set()
    for source, x in cases:
        tree = ex.parse(source)
        want = jet_outcome(ex.eval_jet, tree, x)
        assert jet_outcome(ex.compile(tree).jet, x) == want
        seen.add(want if isinstance(want, type) else bytes)
    assert {ex.NonDifferentiableError, ex.EvalDomainError, OverflowError,
            bytes} <= seen


# ---------------------------------------------------------------------------
# shared evaluations in the vectorized kernels


def test_formula_groups_share_equal_formulas_only():
    cheb, lorenz = mm.chebyshev_map(), mm.lorenz_map()
    sing = mm.singular_unimodal_map()
    assert cheb.formula_groups[0].tolist() == [0, 0, -1]
    assert lorenz.formula_groups[0].tolist() == [0, 1, -1]
    assert sing.formula_groups[0].tolist() == [0, 0, 1, 1, -1]

    def parts(m, ids):
        return _vec._formula_parts(m, m.formula_groups[0][np.array(ids)])

    assert parts(cheb, [0, 1, 1, 0]) == [(cheb.branches[0], ...)]
    split = parts(lorenz, [0, 1, 1, 0])
    assert [br for br, _ in split] == list(lorenz.branches)
    assert [p.tolist() for _, p in split] == [[0, 3], [1, 2]]
    dead = parts(cheb, [0, -1, 1])
    assert len(dead) == 1 and dead[0][1].tolist() == [0, 2]
    assert parts(sing, [3, 2, 2]) == [(sing.branches[2], ...)]
    twins = mm.MapSpec("twins", -1.0, 1.0, 0.05, tuple(
        mm.Branch(a, b, "1 - a*abs(x)^2", ex.parse("1 - a*abs(x)^2", {"a"}),
                  {"a": a_val})
        for a, b, a_val in ((-1.0, 0.0, 2.0), (0.0, 1.0, 1.5))), ())
    assert twins.formula_groups[0].tolist() == [0, 1, -1]


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


@pytest.mark.parametrize("family", ["chebyshev", "lorenz"])
@pytest.mark.parametrize("some_dead", [False, True])
def test_forced_pass_matches_step_by_step_branch_calls(family, some_dead):
    m = mm.chebyshev_map() if family == "chebyshev" else mm.lorenz_map()
    rows = [(0, 1, 1, 0, 1), (1, 1, 0, 0, 0), (1, 0, 1, 0, 1)]
    if some_dead:
        rows += [(0, 1), (1,), (0, 0, 1)]
    itin = _vec.itinerary_matrix(rows)
    rng = np.random.default_rng(3)
    owner = np.repeat(np.arange(len(rows)), 40)
    x = rng.uniform(m.lo, m.hi, owner.size)
    x[:3] = [0.0, m.lo, m.hi]
    seen = []
    y, d1, d2 = _vec.forced_forward(
        m, itin, owner, x, order=2,
        visit=lambda live, pos: seen.append((live.copy(), pos.copy())))
    assert len(seen) == itin.shape[1]
    assert same_bits(_vec.forced_forward(m, itin, owner, x), y)
    for k in range(x.size):
        want = step_by_step(m, rows[owner[k]], x[k])
        got = (y[k], d1[k], d2[k])
        assert np.array(got).tobytes() == np.array(want[:3]).tobytes()
        for (live, at), pos in zip(seen, want[3]):
            assert live[k] and at[k:k + 1].tobytes() == \
                np.array([pos]).tobytes()
        assert not any(live[k] for live, _ in seen[len(want[3]):])
    mixed = np.concatenate([x, x[::-1]])
    for got, want in ((_vec.step_values(m, mixed), "values"),
                      (_vec.step_values(m, mixed, 1)[1], "d1_values")):
        ref = np.array([getattr(m.branches[m.branch_index(v)], want)(
            np.array([v]))[0] for v in mixed])
        assert got.tobytes() == ref.tobytes()
