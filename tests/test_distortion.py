"""Generalized distortion, variation bounds, partition-level summability.

The QUADPACK variation rule and the scalar inverse-distance integral that
the batched ones replaced are the reference here (reference_variation).
"""

import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cusp_induce import distortion as di
from cusp_induce import map_model as mm
import reference_variation as ref
from reference_records import variation_of


# |Df| = 4|x| away from the turning point, so sup/inf sit at interval
# endpoints and every product below has a closed form.


def test_sup_inf_on_monotone_derivative(cheb):
    sup, inf = di.sup_inf_abs_df(cheb, (0.2, 0.3))
    assert sup == pytest.approx(1.2, rel=1e-12)
    assert inf == pytest.approx(0.8, rel=1e-12)


def test_one_step_distortion_closed_form(cheb):
    res = di.generalized_distortion(cheb, (0.2, 0.3), 1)
    assert res.value == pytest.approx(1.5, rel=1e-12)
    assert res.n == 1


def test_two_step_distortion_closed_form(cheb):
    # image of [0.2, 0.3] is [0.82, 0.92]; product = (0.3/0.2)*(0.92/0.82)
    res = di.generalized_distortion(cheb, (0.2, 0.3), 2)
    assert res.value == pytest.approx(69.0 / 41.0, rel=1e-10)
    lo, hi = res.image
    expected = sorted((quad_img(quad_img(0.2)), quad_img(quad_img(0.3))))
    assert lo == pytest.approx(expected[0], rel=1e-12)
    assert hi == pytest.approx(expected[1], rel=1e-12)


def quad_img(x):
    return 1.0 - 2.0 * x * x


def test_distortion_brute_force_cross_check(cheb):
    # dense-grid sup/inf per image step, fully independent of the library
    interval = (0.6, 0.65)
    n = 3
    import numpy as np

    value = 1.0
    u, v = interval
    for _ in range(n):
        xs = np.linspace(u, v, 20001)
        dfs = 4.0 * np.abs(xs)
        value *= dfs.max() / dfs.min()
        u, v = sorted((quad_img(u), quad_img(v)))
    res = di.generalized_distortion(cheb, interval, n)
    assert res.value == pytest.approx(value, rel=1e-6)


def test_distortion_rejects_interval_spanning_turning_point(cheb):
    with pytest.raises(di.NotDiffeomorphismError):
        di.generalized_distortion(cheb, (-0.1, 0.1), 1)


def test_variation_exact_closed_forms(cheb):
    # 1/|Df| = 1/(4x) is monotone on [0.2, 0.3]
    assert di.variation_exact(cheb, (0.2, 0.3), 1) == pytest.approx(
        5.0 / 12.0, rel=1e-9)
    # 1/|Df^2| = 1/(16 x (1 - 2 x^2)), still monotone there
    expected = (1.0 / (16 * 0.2 * 0.92)) - (1.0 / (16 * 0.3 * 0.82))
    assert di.variation_exact(cheb, (0.2, 0.3), 2) == pytest.approx(
        expected, rel=1e-6)


@pytest.mark.parametrize("interval", [(0.0, 0.1), (-0.2, 0.0), (0.0, 0.3)])
def test_variation_exact_rejects_divergent_integrals(cheb, interval):
    # 1/|Df| = 1/(4|x|) is unbounded at the turning point: no finite variation
    with pytest.raises(RuntimeError):
        di.variation_exact(cheb, interval, 1)


def test_batched_variation_matches_variation_exact(cheb, cheb_partition,
                                                   lorenz, lorenz_partition):
    # every lorenz branch, many with a singular touch at an end; and free
    # chebyshev branches on which a fixed 4x16-point Gauss rule is off by
    # 1.6e-5 to 8.1e-4
    free7 = [br for br in cheb_partition.branches
             if br.kind == "free" and br.tau == 7][::8]
    for m, branches in ((lorenz, lorenz_partition.branches), (cheb, free7)):
        vals, errs = variation_of(m, branches)
        exact = np.array([ref.variation_exact(m, (br.a, br.b), br.tau)
                          for br in branches])
        np.testing.assert_allclose(vals, exact, rtol=1e-6, atol=0.0)
        assert np.all((errs > 0.0) & (errs <= 1e-6 * vals))


def test_variation_exact_matches_the_quadpack_reference(cheb, lorenz):
    # the intervals of the tests here and cases of variation_constant,
    # several with a singular touch on lorenz
    cases = [(cheb, iv, l) for iv in [(0.2, 0.3), (0.45, 0.5), (0.62, 0.7)]
             for l in (1, 2, 3)]
    for m in (cheb, lorenz):
        cases += [(m, iv, l) for iv, l in
                  di.variation_constant(m, n_cases=20, seed=1)[1]]
    for m, interval, l in cases:
        assert di.variation_exact(m, interval, l) == pytest.approx(
            ref.variation_exact(m, interval, l), rel=1e-6, abs=0.0)


def test_variation_exact_rejects_a_straddle_at_a_later_step(cheb):
    # step 1 maps (0.6, 0.8) onto (-0.28, 0.28), across the turning point
    with pytest.raises(di.NotDiffeomorphismError, match="straddles"):
        di.variation_exact(cheb, (0.6, 0.8), 2)
    assert di.variation_exact(cheb, (0.6, 0.8), 1) > 0.0


def test_inv_distance_integrals_match_the_scalar_reference(singular):
    # three critical locations, so intervals are cut at both midpoints;
    # rows that meet a location raise for the first of them
    assert singular.critical_locations.size == 3
    rng = np.random.default_rng(11)
    w = 10.0 ** rng.uniform(-6.0, 0.0, 4000) * (singular.hi - singular.lo)
    u = rng.uniform(singular.lo, singular.hi, w.size)
    v = np.minimum(u + w, singular.hi)
    meets = ((singular.critical_locations >= u[:, None])
             & (singular.critical_locations <= v[:, None])).any(axis=1)
    free = ~meets
    got = di._inv_distance_integral(singular, u[free], v[free])
    want = [ref.inv_distance_integral(singular, a, b)
            for a, b in zip(u[free].tolist(), v[free].tolist())]
    assert got.tolist() == want
    mids = 0.5 * (singular.critical_locations[:-1]
                  + singular.critical_locations[1:])
    assert ((u[free, None] < mids) & (mids < v[free, None])).any(axis=1).sum()
    assert di._inv_distance_integral(singular, [], []).shape == (0,)
    first = np.flatnonzero(meets)[0]
    with pytest.raises(di.InfiniteIntegralError) as got_err:
        di._inv_distance_integral(singular, u, v)
    with pytest.raises(di.InfiniteIntegralError) as want_err:
        ref.inv_distance_integral(singular, u[first].item(), v[first].item())
    assert str(got_err.value) == str(want_err.value)


def _variation_runs(m, part):
    """The batched variation over part's branches, sorted as the
    summability report sorts them, as (branches, values, errors, stats),
    with QUADPACK's roundoff test and, second, without it."""
    branches = sorted(part.branches, key=lambda br: (br.tau, br.a))
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for splits in (di.VAR_ROUNDOFF_SPLITS, di.VAR_LIMIT + 1):
            mp.setattr(di, "VAR_ROUNDOFF_SPLITS", splits)
            stats = {}
            runs.append((branches, *variation_of(m, branches, stats),
                         stats))
    return runs


@pytest.fixture(scope="module")
def cheb_variation_runs(cheb, cheb_partition):
    return _variation_runs(cheb, cheb_partition)


def test_batched_variation_stops_at_the_rounding_floor(
        monkeypatch, cheb, cheb_variation_runs):
    # narrow tau >= 19 chebyshev branches have integrands of rounding noise
    # and never reach the 1e-9 tolerance; the reference refines them until
    # the leaf budget or the small-leaf test stops it.  The floor spends
    # the same leaves on every other branch, on the floored ones at most a
    # third of the reference's, and on the whole partition at most 60% (on
    # this partition, whose p = 21 pieces reach the rounding floor of f at
    # c_1: 0.19 and 0.45)
    (branches, vals, errs, stats), (_, ref, _ref_errs, ref_stats) = \
        cheb_variation_runs
    sub, ref_sub = {}, {}
    floored = stats["floored"]
    assert floored.size > 0
    variation_of(cheb, [branches[k] for k in floored], sub)
    monkeypatch.setattr(di, "VAR_ROUNDOFF_SPLITS", di.VAR_LIMIT + 1)
    variation_of(cheb, [branches[k] for k in floored], ref_sub)
    assert ref_stats["floored"].size == 0
    assert sub["floored"].size == floored.size
    assert stats["leaves"] - sub["leaves"] == \
        ref_stats["leaves"] - ref_sub["leaves"]
    assert sub["leaves"] <= ref_sub["leaves"] / 3
    assert stats["leaves"] <= 0.6 * ref_stats["leaves"]
    assert all(branches[k].tau >= 19 for k in floored)
    assert np.all(di._accepted(vals[floored], errs[floored]))
    assert np.all(errs[floored] > di.VAR_EPSREL * vals[floored])
    assert np.all(np.abs(vals - ref) < errs)


def test_floored_branches_keep_the_unfloored_value_within_their_error(
        cheb_variation_runs):
    # the roundoff test moves only the branches it floors, each by less
    # than its own error estimate; every other branch keeps its bits
    (_, vals, errs, stats), (_, ref, ref_errs, _) = cheb_variation_runs
    floored = stats["floored"]
    assert floored.size > 0
    assert np.all(np.abs(vals[floored] - ref[floored]) <= errs[floored])
    for got, want in ((vals, ref), (errs, ref_errs)):
        assert np.delete(got, floored).tobytes() == \
            np.delete(want, floored).tobytes()


def test_the_roundoff_test_never_fires_on_the_lorenz_partition(
        lorenz, lorenz_partition):
    # every lorenz branch converges before six of its splits fail the
    # roundoff test: leaves, values and errors are those of a run without
    # the test
    (_, vals, errs, stats), (_, ref, ref_errs, ref_stats) = \
        _variation_runs(lorenz, lorenz_partition)
    assert stats["floored"].size == 0
    assert stats["leaves"] == ref_stats["leaves"]
    assert vals.tobytes() == ref.tobytes()
    assert errs.tobytes() == ref_errs.tobytes()


def test_batched_variation_raises_on_divergent_integral(cheb):
    # (0, 0.1) ends on the order-2 turning point, as in the test above
    br = SimpleNamespace(a=0.0, b=0.1, tau=1,
                         itinerary=(cheb.branch_index(0.05),))
    with pytest.raises(RuntimeError):
        variation_of(cheb, [br])


def test_variation_bound_dominates_exact(cheb):
    for interval in [(0.2, 0.3), (0.45, 0.5), (0.62, 0.7)]:
        for l in (1, 2, 3):
            bound = di.variation_bound(cheb, interval, l)
            exact = di.variation_exact(cheb, interval, l)
            assert exact <= bound * (1 + 1e-9)


def test_variation_bound_regression_value(cheb):
    assert di.variation_bound(cheb, (0.2, 0.3), 1) == pytest.approx(
        0.7602470777028076, rel=1e-9)


def test_no_second_derivative_zeros_on_quadratic_branches(cheb):
    for i in range(len(cheb.branches)):
        assert di.branch_d2_zeros(cheb, i) == ()


def test_d2_zero_sets_of_the_families_and_of_a_linear_branch():
    # no family branch has a D2f zero inside; the cubic's D2f = 6x has
    # one, and D2f = 0 on all of the linear branch x - 0.75 is none
    for m in (mm.chebyshev_map(), mm.unimodal_map(), mm.lorenz_map(),
              mm.lorenz_map(1.9, 0.4), mm.singular_unimodal_map(),
              mm.unimodal_map(a=2.0, ell=1.0)):
        assert all(di.branch_d2_zeros(m, i) == ()
                   for i in range(len(m.branches)))
    m = mm.build_map({
        "name": "cubic", "domain": [-0.5, 1.0], "delta": 0.05,
        "branches": [{"interval": [-0.5, 0.5], "expr": "x^3 - 0.75*x"},
                     {"interval": [0.5, 1.0], "expr": "x - 0.75"}],
        "critical_points": [{"location": 0.5, "side": "-", "order": 2.0},
                            {"location": 0.5, "side": "+", "order": 1.0}]})
    (z,) = di.branch_d2_zeros(m, 0)
    assert abs(z) < 1e-12 and di.branch_d2_zeros(m, 1) == ()


def test_a_run_of_exact_d2_zeros_counts_once_across_a_sign_change():
    xs = np.linspace(1e-9, 1.0 - 1e-9, 1024)

    def zeros(d2):
        br = SimpleNamespace(a=0.0, b=1.0, d2_values=lambda x: d2)
        return di.branch_d2_zeros(SimpleNamespace(branches=[br]), 0)

    step = np.where(xs < 0.3, -1.0, np.where(xs > 0.6, 1.0, 0.0))
    run = np.flatnonzero(step == 0.0)
    assert zeros(step) == (xs[(run[0] + run[-1]) // 2],)
    assert zeros(np.abs(step)) == ()
    assert zeros(np.zeros(1024)) == ()
    one = np.where(xs < xs[500], -1.0, 1.0)
    one[500] = 0.0
    assert zeros(one) == (xs[500],)
    one[499] = np.nan          # no sign seen on the left
    assert zeros(one) == ()


def test_variation_constant_deterministic(cheb):
    c1, cases1 = di.variation_constant(cheb, n_cases=20, seed=1)
    c2, cases2 = di.variation_constant(cheb, n_cases=20, seed=1)
    assert c1 == c2
    assert cases1 == cases2
    assert len(cases1) == 20
    assert 0 < c1 < math.inf


def test_summability_report_on_singular_fixture(lorenz, lorenz_partition):
    rep = di.summability_report(lorenz, lorenz_partition)
    assert rep.passed
    assert rep.total_var > 0
    assert rep.total_tau_len > 0
    assert rep.tail_var <= rep.epsilon * rep.total_var
    assert rep.tail_tau_len <= rep.epsilon * rep.total_tau_len
    assert rep.unresolved_measure <= rep.unresolved_budget * rep.domain_length
    assert math.isfinite(rep.d_hat) and rep.d_hat >= 0
    # rows cover every inducing time present in the partition
    taus = {br.tau for br in lorenz_partition.branches}
    assert {r["tau"] for r in rep.rows} == taus
    counts = sum(r["count"] for r in rep.rows)
    assert counts == len(lorenz_partition.branches)
    assert "summable-so-far" in rep.describe()
    assert 0.0 < rep.total_var_error <= 1e-6 * rep.total_var
    assert rep.to_dict()["total_var_error"] == rep.total_var_error
    assert "%.2g quadrature" % rep.total_var_error in rep.describe()


def test_summability_report_logs_its_quadrature(caplog, cheb,
                                                cheb_partition):
    with caplog.at_level(logging.INFO, logger=di.__name__):
        di.summability_report(cheb, cheb_partition)
    stats = {}
    variation_of(
        cheb, sorted(cheb_partition.branches, key=lambda br: (br.tau, br.a)),
        stats)
    assert [r.getMessage() for r in caplog.records] == [
        f"summability_report: {len(cheb_partition.branches)} branches, "
        f"{stats['leaves']} quadrature leaves, {stats['floored'].size} "
        f"stopped at the rounding floor"]
    assert stats["floored"].size > 0


def test_summability_csv(tmp_path, lorenz, lorenz_partition):
    import csv

    rep = di.summability_report(lorenz, lorenz_partition)
    path = tmp_path / "summ.csv"
    rep.write_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(rep.rows)
    total = sum(float(r["sum_var_omega"]) for r in rows)
    assert total == pytest.approx(rep.total_var, rel=1e-12)
