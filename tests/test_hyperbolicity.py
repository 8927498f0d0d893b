"""Expansion estimates, free-period selection, neighborhood-size fixing."""

import math

import pytest

from cusp_induce import hyperbolicity as hy
from cusp_induce import inducing as ind
from cusp_induce import map_model as mm
from cusp_induce.critical_orbit import orbit_records


def brute_q0(c_hat, lambda_hat):
    q = 1
    while c_hat * math.exp(lambda_hat * q) < 2.0:
        q += 1
    return q


def test_choose_q0_matches_brute_force():
    for c_hat in [0.05, 0.1, 0.5, 1.0, 1.99, 2.0, 7.3]:
        for lam in [0.05, 0.2, math.log(2), 1.5]:
            assert hy.choose_q0(c_hat, lam) == brute_q0(c_hat, lam)


def test_choose_q0_is_at_least_one():
    assert hy.choose_q0(100.0, 1.0) == 1


def test_kappa_estimate_positive(cheb):
    kap = hy.estimate_kappa(cheb, 0.2, n_samples=2000, n_max=32, seed=0)
    assert kap.applicable
    assert kap.value > 0
    assert kap.segments > 0
    assert set(kap.to_dict()) == {
        "value", "segments", "n_samples", "n_max", "applicable"}


def test_expansion_estimate_positive(cheb):
    c_hat, lambda_hat = hy.estimate_expansion(cheb, 0.1, n_samples=2000,
                                              n_max=32, seed=0)
    assert c_hat > 0
    assert lambda_hat > 0


def test_minimum_binding_horizon_values(cheb):
    assert hy.compute_h_delta(cheb, 0.2) == 3
    assert hy.compute_h_delta(cheb, 0.01) == 6


@pytest.mark.parametrize("family, delta", [("cheb", 0.2), ("cheb", 0.01),
                                           ("unimodal23", 0.05)])
def test_minimum_binding_horizon_is_the_least_one_point_period(family, delta,
                                                               cheb):
    m = cheb if family == "cheb" else mm.unimodal_map(2.0, 3.0, delta)
    records = orbit_records(m, 61)
    periods = []
    for cp in m.critical_points:
        sgn = 1.0 if cp.side == "+" else -1.0
        for k in range(24):
            x = cp.location + sgn * delta * (1.0 - 1e-9) * 2.0 ** (-k)
            try:
                periods.append(ind.binding_period(m, x, delta, records).p)
            except (ValueError, RuntimeError):
                pass
    assert hy.compute_h_delta(m, delta, grid=24,
                              records=records) == min(periods)


def test_minimum_binding_horizon_monotone(cheb):
    hs = [hy.compute_h_delta(cheb, d) for d in (0.2, 0.1, 0.05, 0.01)]
    assert hs == sorted(hs)


def test_choose_delta_prefers_largest_passing(cheb):
    delta, report = hy.choose_delta(cheb, [0.2, 0.1, 0.05], margin=1.0)
    assert delta == 0.2
    assert report.delta == 0.2
    assert report.h_delta == 3
    assert report.q0 >= 1
    assert all(report.margin_check[k] is True for k in (
        "neighborhoods_and_images_disjoint",
        "gamma_below_half_beyond_h",
        "derivative_growth_dominates_2_over_kappa"))


def test_choose_delta_empty_candidates():
    with pytest.raises(hy.DeltaSelectionError):
        hy.choose_delta(mm.chebyshev_map(), [])


def test_choose_delta_unreachable_margin_reports_diagnostics(cheb):
    with pytest.raises(hy.DeltaSelectionError) as exc_info:
        hy.choose_delta(cheb, [0.2, 0.1], margin=1e9)
    diag = exc_info.value.diagnostics
    assert len(diag) == 2
    assert all("margin" in v or "growth" in v for v in diag.values())


def test_choose_delta_rejects_fixed_singular_point(singular):
    # the cusp maps to itself, so no neighborhood keeps its image clear
    with pytest.raises(hy.DeltaSelectionError):
        hy.choose_delta(singular, [0.2, 0.1, 0.05, 0.01, 1e-3])


def test_choose_delta_rejects_weak_singular_expansion():
    # |Df| = a*s*delta^(s-1) at the outer edge: 1.987 at 0.2, 2.28 at 0.1
    m = mm.lorenz_map(a=1.8, s=0.8)
    delta, _ = hy.choose_delta(m, [0.2, 0.1])
    assert delta == 0.1
    with pytest.raises(hy.DeltaSelectionError) as exc:
        hy.choose_delta(m, [0.2])
    assert "expansion" in exc.value.diagnostics[repr(0.2)]


def test_pipeline_scale_choices_are_stable(cheb_scales, lorenz_scales):
    assert cheb_scales == (0.01, 7)
    assert lorenz_scales == (0.2, 5)


def test_report_serializes(cheb):
    _, report = hy.choose_delta(cheb, [0.2], margin=1.0)
    d = report.to_dict()
    assert d["delta"] == 0.2
    assert d["h_delta"] == 3
    assert isinstance(d["margin_check"], dict)
