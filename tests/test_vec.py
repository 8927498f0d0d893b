"""One-step and forced passes of _vec against step-by-step references.

The per-branch bisection and the positional dispatch that the one-step
plans replaced are kept below as references; the plans must match them
bit for bit.  The grid-seeded bisection that forced_inverse ran before its
root finder is kept as the reference for the preimage tolerance.
"""

import numpy as np
import pytest

from cusp_induce import _vec
from cusp_induce import map_model as mm


# ---------------------------------------------------------------------------
# references: whole-branch bisection one branch at a time, and positional
# dispatch branch by branch


def ref_invert_branch(m, i, targets):
    br = m.branches[i]
    img_lo, img_hi = m.branch_images[i]
    t = np.asarray(targets, dtype=float)
    ok = (t >= img_lo - 1e-12) & (t <= img_hi + 1e-12)
    tt = np.clip(t[ok], img_lo, img_hi)
    lo = np.full(tt.shape, br.a, dtype=float)
    hi = np.full(tt.shape, br.b, dtype=float)
    increasing = m.monotone_signs[i] > 0
    with np.errstate(all="ignore"):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            v = br.values(mid)
            up = (v < tt) if increasing else (v > tt)
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
    out = np.full(t.shape, np.nan)
    out[ok] = 0.5 * (lo + hi)
    return out, ok


def ref_per_branch(m, x, evaluators):
    x = np.asarray(x, dtype=float)
    outs = [np.empty(x.shape, dtype=float) for _ in evaluators]
    groups = m.formula_groups[0][_vec.branch_indices(m, x)]
    with np.errstate(all="ignore"):
        for br, sel in _vec._formula_parts(m, groups):
            xv = x[sel]
            for out, name in zip(outs, evaluators):
                out[sel] = getattr(br, name)(xv)
    return outs


def ref_forced_inverse(m, itin, a, b, increasing, targets):
    """forced_inverse as a grid of max(16, 2 n) cells per row and thirty
    halvings of each bracket, with the row's grid cell per preimage."""
    grids = [np.linspace(u, v, max(16, 2 * t.size) + 1)
             for u, v, t in zip(a, b, targets)]
    sizes = [g.size for g in grids]
    ys = _vec.forced_forward(m, itin, np.repeat(np.arange(len(grids)), sizes),
                             np.concatenate(grids))
    lo, hi = [], []
    for xs, y, t, inc in zip(grids, np.split(ys, np.cumsum(sizes)[:-1]),
                             targets, increasing):
        if not inc:
            xs, y = xs[::-1], y[::-1]
        pos = np.clip(np.searchsorted(y, t), 1, xs.size - 1)
        lo.append(np.minimum(xs[pos - 1], xs[pos]))
        hi.append(np.maximum(xs[pos - 1], xs[pos]))
    counts = [t.size for t in targets]
    owner = np.repeat(np.arange(len(targets)), counts)
    up = np.asarray(increasing, dtype=bool)[owner]
    plan = _vec._dispatch(m, itin, owner)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    t = np.concatenate(targets)
    with np.errstate(all="ignore"):
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            v = _vec._forced_pass(plan, mid)
            go_up = np.where(up, v < t, v > t)
            lo = np.where(go_up, mid, lo)
            hi = np.where(go_up, hi, mid)
    cell = np.repeat([(v - u) / (g.size - 1) for u, v, g in
                      zip(a, b, grids)], counts)
    return 0.5 * (lo + hi), cell


ONE_STEP_MAPS = {
    "chebyshev": mm.chebyshev_map,
    "lorenz(1.9,0.4)": lambda: mm.lorenz_map(1.9, 0.4, 0.1),
    "lorenz(1.8,0.5)": lambda: mm.lorenz_map(1.8, 0.5, 0.1),
    "singular_unimodal": mm.singular_unimodal_map,
}


@pytest.fixture(params=sorted(ONE_STEP_MAPS), scope="module")
def one_step_map(request):
    return ONE_STEP_MAPS[request.param]()


def _image_end_targets(m):
    """Each image end, and points 1e-12 (kept) and 2e-12 (dropped)
    outside it."""
    out = []
    for lo, hi in m.branch_images:
        out += [lo, hi, lo - 1e-12, hi + 1e-12, lo - 2e-12, hi + 2e-12]
    return np.array(out)


def test_preimages_match_per_branch_bisection(one_step_map):
    m = one_step_map
    rng = np.random.default_rng(11)
    t = np.concatenate((np.linspace(m.lo, m.hi, 1025),
                        rng.uniform(m.lo, m.hi, 2000), _image_end_targets(m)))
    ids, pre = _vec.preimages(m, t)
    ref = [ref_invert_branch(m, i, t) for i in range(len(m.branches))]
    want_ids = np.concatenate([np.full(int(ok.sum()), i)
                               for i, (_sol, ok) in enumerate(ref)])
    want = np.concatenate([sol[ok] for sol, ok in ref])
    assert np.asarray(ids, dtype=np.int64).tobytes() == want_ids.tobytes()
    assert pre.tobytes() == want.tobytes()


def test_branch_inverse_matches_per_branch_bisection_on_mixed_ids(
        one_step_map):
    m = one_step_map
    rng = np.random.default_rng(12)
    n = len(m.branches)
    ends = _image_end_targets(m)
    t = np.concatenate((rng.uniform(m.lo, m.hi, 3000), ends))
    ids = np.concatenate((rng.integers(0, n, 3000),
                          np.repeat(np.arange(n), 6)))
    got = _vec.branch_inverse(m, ids, t)
    want = np.empty_like(t)
    for i in range(n):
        sel = np.flatnonzero(ids == i)
        lo, hi = m.branch_images[i]
        want[sel] = ref_invert_branch(m, i, np.clip(t[sel], lo, hi))[0]
    assert got.tobytes() == want.tobytes()


def test_positional_steps_match_per_branch_dispatch(one_step_map):
    m = one_step_map
    rng = np.random.default_rng(13)
    x = np.concatenate((rng.uniform(m.lo, m.hi, 3000),
                        m.interior_boundaries, [m.lo, m.hi, np.nan]))
    v, d1 = _vec.step_values(m, x, 1)
    want_v, want_d1 = ref_per_branch(m, x, ("values", "d1_values"))
    assert _vec.step_values(m, x).tobytes() == want_v.tobytes()
    assert v.tobytes() == want_v.tobytes()
    assert d1.tobytes() == want_d1.tobytes()
    # a point on an interior boundary steps with the right-hand branch
    for i, b in enumerate(m.interior_boundaries, 1):
        right = m.branches[i]
        with np.errstate(all="ignore"):
            assert _vec.step_values(m, np.array([b])).tobytes() == \
                right.values(np.array([b])).tobytes()
            assert _vec.step_values(m, np.array([b]), 1)[1].tobytes() \
                == right.d1_values(np.array([b])).tobytes()


@pytest.fixture(params=["cheb", "lorenz"])
def map_and_branches(request):
    m = request.getfixturevalue(request.param)
    part = request.getfixturevalue(request.param + "_partition")
    by_tau = {}
    for br in part.branches:
        by_tau.setdefault(br.tau, br)
    return m, [by_tau[t] for t in sorted(by_tau)][:6]


def test_forced_forward_matches_step_by_step_composition(map_and_branches):
    m, branches = map_and_branches
    assert len({br.tau for br in branches}) > 1
    itin = _vec.itinerary_matrix([br.itinerary for br in branches])
    xs = [np.linspace(br.a, br.b, 9) for br in branches]
    owner = np.repeat(np.arange(len(branches)), [x.size for x in xs])
    y, d1, d2 = _vec.forced_forward(m, itin, owner, np.concatenate(xs),
                                    order=2)
    assert np.array_equal(_vec.forced_forward(m, itin, owner,
                                              np.concatenate(xs)), y)
    want_y, want_d1, want_d2 = [], [], []
    with np.errstate(all="ignore"):
        for br, x in zip(branches, xs):
            P, S = np.ones_like(x), np.zeros_like(x)
            for i in br.itinerary:
                f = m.branches[i]
                S = f.d2_values(x) * P ** 2 + f.d1_values(x) * S
                P = f.d1_values(x) * P
                x = f.values(x)
            want_y.append(x)
            want_d1.append(P)
            want_d2.append(S)
    np.testing.assert_array_equal(y, np.concatenate(want_y))
    np.testing.assert_array_equal(d1, np.concatenate(want_d1))
    np.testing.assert_array_equal(d2, np.concatenate(want_d2))


def test_forced_forward_keeps_the_itinerary_on_a_branch_boundary(lorenz):
    # positional dispatch would send x = 0 to the right branch, a*|x|^s - 1
    itin = _vec.itinerary_matrix([(0,), (1,)])
    y = _vec.forced_forward(lorenz, itin, np.array([0, 1]), np.zeros(2))
    assert y.tolist() == [1.0, -1.0]


def test_forced_inverse_brackets_targets_within_1e_12(map_and_branches):
    # the error bound is on the preimage: one ulp of x can move the image
    # of a narrow high-tau branch by far more than 1e-12
    m, branches = map_and_branches
    edges = np.linspace(m.lo, m.hi, 4097)
    targets = [edges[(edges > br.image[0]) & (edges < br.image[1])]
               for br in branches]
    itin = _vec.itinerary_matrix([br.itinerary for br in branches])
    sols = np.concatenate(_vec.forced_inverse(
        m, itin, [br.a for br in branches], [br.b for br in branches],
        [br.orientation > 0 for br in branches], targets))
    owner = np.repeat(np.arange(len(branches)), [t.size for t in targets])
    t = np.concatenate(targets)
    assert t.size > len(branches)
    a = np.array([br.a for br in branches])[owner]
    b = np.array([br.b for br in branches])[owner]
    assert np.all((a <= sols) & (sols <= b))
    y_lo = _vec.forced_forward(m, itin, owner, sols - 1e-12)
    y_hi = _vec.forced_forward(m, itin, owner, sols + 1e-12)
    assert np.all((np.fmin(y_lo, y_hi) <= t) & (t <= np.fmax(y_lo, y_hi)))


def _ulam_targets(branches, m_cells=4096):
    edges = np.linspace(-1.0, 1.0, m_cells + 1)
    return [edges[(edges > br.image[0]) & (edges < br.image[1])]
            for br in branches]


def _inverse_args(branches):
    return (_vec.itinerary_matrix([br.itinerary for br in branches]),
            [br.a for br in branches], [br.b for br in branches],
            [br.orientation > 0 for br in branches])


def _check_against_reference(m, branches):
    # both brackets hold the sign change of the residual: the root finder's
    # to within 4 eps |x| + 2**-31 of its grid cell (max(16, n) cells per
    # row), the reference's to within 2**-31 of its twice finer cell
    targets = _ulam_targets(branches)
    args = _inverse_args(branches)
    stats = {}
    got = np.concatenate(_vec.forced_inverse(m, *args, targets, stats))
    want, ref_cell = ref_forced_inverse(m, *args, targets)
    counts = [t.size for t in targets]
    owner = np.repeat(np.arange(len(branches)), counts)
    a, b = np.array(args[1])[owner], np.array(args[2])[owner]
    assert np.all((a <= got) & (got <= b))
    tol = (4.0 * np.finfo(float).eps * np.abs(got)
           + (b - a) / np.maximum(16, np.array(counts))[owner] * 2.0 ** -31)
    assert np.all(np.abs(got - want) <= tol + ref_cell * 2.0 ** -31)
    assert stats["targets"] == got.size
    assert 0 < stats["evaluations"] <= _vec.ROOT_STEPS * got.size
    assert stats["nonfinite"] == 0


def test_root_finder_matches_the_halving_reference(map_and_branches):
    _check_against_reference(*map_and_branches)


def test_root_finder_on_decreasing_branches(cheb, cheb_partition):
    # the lorenz compositions all increase; chebyshev has both orientations
    by_tau = {}
    for br in cheb_partition.branches:
        if br.orientation < 0:
            by_tau.setdefault(br.tau, br)
    assert len(by_tau) > 3
    _check_against_reference(cheb, [by_tau[t] for t in sorted(by_tau)])


def test_flat_residuals_take_fewer_steps_than_the_halvings(cheb,
                                                          cheb_partition):
    # near the turning point 1 - 2 x^2 rounds to the same value over runs
    # of x far wider than the tolerance; a step next to such a run's end
    # lands on it again, and without the gap rule the tau = 9 preimages
    # take up to 60 steps
    branches = [br for br in cheb_partition.branches if br.tau == 9]
    stats = {}
    _vec.forced_inverse(cheb, *_inverse_args(branches),
                        _ulam_targets(branches), stats)
    assert stats["targets"] > 10000
    assert stats["max_steps"] < 30


def test_a_target_on_a_grid_node_returns_that_node(map_and_branches):
    # the images of a row's interior grid nodes, as targets, have a zero
    # residual on the seeding grid of 16 cells
    m, branches = map_and_branches
    args = _inverse_args(branches)
    grids = [np.linspace(br.a, br.b, 17)[1:-1] for br in branches]
    images = [_vec.forced_forward(m, args[0][k:k + 1],
                                  np.zeros(g.size, dtype=np.int64), g)
              for k, g in enumerate(grids)]
    targets = [y if up else y[::-1] for y, up in zip(images, args[3])]
    got = _vec.forced_inverse(m, *args, targets)
    for g, x, up in zip(grids, got, args[3]):
        assert (x if up else x[::-1]).tobytes() == g.tobytes()


class _NanOn:
    """A one-step branch x -> x that is not finite on open intervals."""

    def __init__(self, *intervals):
        self.intervals = intervals

    def values(self, x, order=0):
        assert order == 0
        off = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            off |= (lo < x) & (x < hi)
        return np.where(off, np.nan, x)


def _root_finder(branch, t, x1, x2, stats=None):
    t, x1, x2 = (np.asarray(v, dtype=float) for v in (t, x1, x2))
    f1, f2 = branch.values(x1) - t, branch.values(x2) - t
    none = np.full(t.size, np.nan)
    return _vec._chandrupatla(lambda sel: [(None, [(branch, ...)])], t, x1,
                              x2, none, f1, f2, none, np.full(t.size, 1e-18),
                              stats)


def test_a_non_finite_residual_stops_inside_the_bracket():
    # point 0: the seeding bracket's upper end is not finite; point 1: the
    # first step, a halving, lands on (0.2, 0.3); point 2: no residual is
    # finite
    stats = {}
    x1, x2 = np.array([0.0, 0.0, 0.95]), np.array([1.0, 0.5, 1.0])
    got = _root_finder(_NanOn((0.2, 0.3), (0.9, 2.0)), [0.3, 0.4, 0.97],
                       x1, x2, stats)
    assert np.all((x1 <= got) & (got <= x2))
    assert got[:2].tolist() == [0.0, 0.0]
    assert stats["nonfinite"] == 3
    assert stats["evaluations"] == 1 and stats["max_steps"] == 1
    # a bracket clear of them converges to the root
    assert _root_finder(_NanOn((0.2, 0.3)), [0.6], [0.5], [1.0]) == \
        pytest.approx(0.6, abs=1e-15)


def test_root_finder_raises_at_its_step_cap(monkeypatch, map_and_branches):
    m, branches = map_and_branches
    monkeypatch.setattr(_vec, "ROOT_STEPS", 2)
    with pytest.raises(RuntimeError, match="did not converge"):
        _vec.forced_inverse(m, *_inverse_args(branches),
                            _ulam_targets(branches))


def test_chunk_ranges_close_runs_at_the_budget():
    n = _vec.CHUNK_POINTS
    assert _vec.chunk_ranges([n // 2, n // 2, 1, 2 * n, 1]) == [
        (0, 2), (2, 4), (4, 5)]
    assert _vec.chunk_ranges([]) == []
