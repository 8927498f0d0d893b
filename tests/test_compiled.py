"""Compiled branch formulas against the recursive walkers they replace.

The array form must match the recursive numpy walk bit for bit, NaN and inf
positions included, and the jet form must return the Jet2 that eval_jet
returns or raise the same exception.  Forced passes that let branches with
one formula share an evaluation must match step-by-step Branch calls.
"""

import math

import numpy as np
import pytest

from cusp_induce import _vec
from cusp_induce import expr as ex
from cusp_induce import map_model as mm


def walk_array(e, x, params=None):
    """The recursive array walker the compiled form replaced (reference)."""
    if isinstance(e, ex.Const):
        return np.full_like(x, e.value, dtype=float)
    if isinstance(e, ex.Var):
        return np.asarray(x, dtype=float)
    if isinstance(e, ex.Param):
        return np.full_like(x, ex._param_value(params, e.name), dtype=float)
    if isinstance(e, ex.Neg):
        return -walk_array(e.arg, x, params)
    if isinstance(e, ex.Add):
        return walk_array(e.left, x, params) + walk_array(e.right, x, params)
    if isinstance(e, ex.Sub):
        return walk_array(e.left, x, params) - walk_array(e.right, x, params)
    if isinstance(e, ex.Mul):
        return walk_array(e.left, x, params) * walk_array(e.right, x, params)
    if isinstance(e, ex.Div):
        return walk_array(e.left, x, params) / walk_array(e.right, x, params)
    if isinstance(e, ex.Pow):
        r = ex.const_value(e.exponent, params)
        with np.errstate(invalid="ignore", divide="ignore"):
            return walk_array(e.base, x, params) ** r
    if isinstance(e, ex.Abs):
        return np.abs(walk_array(e.arg, x, params))
    if isinstance(e, ex.Sign):
        return np.sign(walk_array(e.arg, x, params))
    raise TypeError(f"not an expression node: {e!r}")


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
]


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
    x[len(k):len(k) + 4] = [1e-300, -1e-300, 5e-324, np.nextafter(0.0, -1)]
    return x


def trees(m):
    for br in m.branches:
        yield br.tree, br.params
        yield br.d1_tree, br.params
        yield br.d2_tree, br.params


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("size", [1, 8, 4096])
def test_array_form_matches_the_walker_bit_for_bit(name, size):
    m = MAPS[name]()
    x = sample_points(m, size)
    with np.errstate(all="ignore"):
        for tree, params in trees(m):
            got = ex.compile(tree, params).array(x)
            assert same_bits(got, walk_array(tree, x, params))
        for br in m.branches:
            for method, tree in (("values", br.tree), ("d1_values", br.d1_tree),
                                 ("d2_values", br.d2_tree)):
                assert same_bits(getattr(br, method)(x),
                                 walk_array(tree, x, br.params))


@pytest.mark.parametrize("size", [1, 8, 4096])
def test_array_form_of_extra_formulas(size):
    x = np.linspace(-1.0, 1.0, size) if size > 1 else np.array([-0.3])
    if size == 4096:
        x[:5] = [0.0, -0.0, 0.25, 0.5, -1.0]
    for source, params in EXTRA:
        tree = ex.parse(source, params)
        for t in (tree, ex.derivative(tree), ex.derivative(ex.derivative(tree))):
            with np.errstate(all="ignore"):
                want = walk_array(t, x, params)
            assert same_bits(ex.compile(t, params).array(x), want)
            assert same_bits(ex.eval_array(t, x, params), want)


def test_kinks_give_the_walkers_nan_and_inf_positions():
    m = mm.lorenz_map(1.9, 0.4)
    x = np.array(kinks(m))
    d1 = m.branches[1].d1_values(x)
    assert not np.isfinite(d1).all()
    with np.errstate(all="ignore"):
        want = walk_array(m.branches[1].d1_tree, x, m.branches[1].params)
    np.testing.assert_array_equal(np.isnan(d1), np.isnan(want))
    np.testing.assert_array_equal(np.isinf(d1), np.isinf(want))


def test_constant_trees_return_arrays_of_the_input_shape():
    # chebyshev's D2f is -4*x^0; "a*b^2 - 3" holds no x at all and folds
    br = mm.chebyshev_map().branches[0]
    const = ex.parse("a*b^2 - 3", {"a", "b"})
    forms = [(br.d2_values, br.d2_tree, {}),
             (ex.compile(const, {"a": 2.0, "b": -1.5}).array, const,
              {"a": 2.0, "b": -1.5})]
    for x in (np.zeros(1), np.linspace(-1, 1, 8), np.zeros((3, 4))):
        for fn, tree, params in forms:
            got = fn(x)
            assert isinstance(got, np.ndarray) and got.shape == x.shape
            assert same_bits(got, walk_array(tree, x, params))
            assert np.unique(got).size == 1
    assert forms[1][0](np.zeros(2)).tolist() == [1.5, 1.5]


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
    for tree, params in trees(m):
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
        m, itin, owner, x, jets=True,
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
                      (_vec.step_with_derivative(m, mixed)[1], "d1_values")):
        ref = np.array([getattr(m.branches[m.branch_index(v)], want)(
            np.array([v]))[0] for v in mixed])
        assert got.tobytes() == ref.tobytes()
