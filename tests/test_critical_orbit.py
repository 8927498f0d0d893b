"""Critical orbit bookkeeping: derivative products, tube radii, tail sums."""

import math

import numpy as np
import pytest

from cusp_induce import critical_orbit as co


def test_chebyshev_derivative_products_are_powers_of_four(cheb_records):
    # orbit of the turning point: 0 -> 1 -> -1 -> -1 -> ..., |Df| = 4 at both
    rec = cheb_records[(0.0, "+")]
    for n in range(1, 21):
        assert rec.D_at(n) == pytest.approx(4.0**n, rel=1e-12)
        assert rec.log_D_at(n) == pytest.approx(n * math.log(4.0), rel=1e-12)


def test_chebyshev_third_tube_radius_closed_form(cheb_records):
    # radius_3 = 1 / (dist(c_3) * D_2^(1/(2l-1))) with l = 2, D_2 = 16
    rec = cheb_records[(0.0, "+")]
    assert rec.gamma[2] == pytest.approx(4.0 ** (-2.0 / 3.0), abs=1e-12)


def test_chebyshev_summability_terms_vanish_identically(cheb_records):
    # every orbit point sits at distance 1 from the turning point
    for rec in cheb_records.values():
        assert np.all(np.cumsum(rec.star_terms) == 0.0)
        rep = co.star_sum(rec)
        assert rep.verdict == "summable-so-far"
        assert rep.total == 0.0


def test_chebyshev_growth_fit(cheb_records):
    fit = co.growth_fit(cheb_records[(0.0, "+")])
    assert fit.lambda_hat == pytest.approx(math.log(4.0), abs=1e-6)
    assert fit.margin > 0


def test_orbit_records_keyed_by_location_and_side(cheb, cheb_records):
    assert set(cheb_records) == {(cp.location, cp.side) for cp in cheb.critical_points}
    for rec in cheb_records.values():
        assert rec.n_filled == rec.N == 200


def test_orbit_values_follow_the_map(cheb, cheb_records):
    from cusp_induce.map_model import evaluate

    rec = cheb_records[(0.0, "-")]
    x = rec.c[0]
    for j in range(1, 8):
        x = evaluate(cheb, x).value if x not in (cheb.lo, cheb.hi) else (
            evaluate(cheb, x, "+" if x == cheb.lo else "-").value)
        assert rec.c[j] == pytest.approx(x, rel=1e-15)


def test_singular_records_have_no_tube_radii(lorenz_records):
    for rec in lorenz_records.values():
        assert rec.order < 1.0
        assert np.all(np.isnan(rec.gamma))
        assert np.all(np.isnan(rec.star_terms))
        rep = co.star_sum(rec)
        assert rep.verdict == "not-applicable"


def test_singular_derivatives_grow(lorenz_records):
    for rec in lorenz_records.values():
        assert rec.log_D[-1] > rec.log_D[len(rec.log_D) // 2] > 0


def test_orbit_hitting_a_critical_location_is_flagged(singular):
    # the cusp at 0 maps to itself, so its orbit lands on the critical set
    recs = co.orbit_records(singular, 50)
    hit = [rec for rec in recs.values() if rec.hit_critical_at is not None]
    assert hit
    for rec in hit:
        j = rec.hit_critical_at
        assert rec.d[j - 1] == 0.0


def test_star_report_tail_fields(cheb_records):
    rep = co.star_sum(cheb_records[(0.0, "+")], epsilon=1e-6)
    assert rep.N == 200
    assert len(rep.partials) == len(rep.terms) == 200
    assert rep.tail_increment <= rep.epsilon * max(rep.total, 1.0)
    assert not rep.diagnostic_only
    assert "summable-so-far" in rep.describe()


def test_star_star_probe_is_diagnostic_only(cheb_records):
    rep = co.star_star_sum(cheb_records[(0.0, "+")])
    assert rep.diagnostic_only


def test_growth_fit_needs_enough_points(cheb):
    recs = co.orbit_records(cheb, 5)
    with pytest.raises(ValueError):
        co.growth_fit(recs[(0.0, "+")])


def test_periodic_window_parameter_fails_summability():
    # inside the period-3 window the derivative product collapses, so the
    # tail terms grow instead of decaying
    from cusp_induce.map_model import unimodal_map

    recs = co.orbit_records(unimodal_map(a=1.76), 200)
    verdicts = {co.star_sum(rec).verdict for rec in recs.values()}
    assert verdicts == {"fail"}


def test_an_orbit_hitting_the_critical_set_fails_both_sums():
    from cusp_induce.map_model import unimodal_map

    recs = co.orbit_records(unimodal_map(a=1.00000000000005), 40)
    for rec in recs.values():
        assert rec.hit_critical_at == 2
        assert np.all(np.isfinite(rec.star_terms))
        assert co.star_sum(rec).verdict == "fail"
        assert co.star_star_sum(rec).verdict == "fail"


def test_write_orbit_csv_round_trip(tmp_path, cheb_records):
    import csv

    rec = cheb_records[(0.0, "+")]
    path = tmp_path / "orbit.csv"
    co.write_orbit_csv(rec, str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == rec.N
    assert float(rows[0]["c_n"]) == rec.c[0]
    assert float(rows[19]["Dn"]) == pytest.approx(4.0**20, rel=1e-12)
    assert b"\r" not in path.read_bytes()
