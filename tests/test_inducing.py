"""Binding periods, first-entry times, and the induced partition."""

import numpy as np
import pytest

from cusp_induce import inducing as ind
from cusp_induce.map_model import evaluate


def quad(x):
    # same arithmetic the benchmark map performs, written out by hand
    return 1.0 - 2.0 * x * x


def test_binding_period_exact_trajectory(cheb, cheb_records):
    res = ind.binding_period(cheb, 0.1, delta=0.2, records=cheb_records)
    assert res.p == 4
    assert not res.truncated

    # shadow orbit by hand: x_j = f^j(0.1), turning-point orbit 1, -1, -1, ...
    x1 = quad(0.1)
    x2 = quad(x1)
    x3 = quad(x2)
    x4 = quad(x3)
    seps = [abs(x1 - 1.0), abs(x2 + 1.0), abs(x3 + 1.0), abs(x4 + 1.0)]
    tubes = [0.5, 0.5, 4.0 ** (-2.0 / 3.0), 0.25]
    dists = [abs(x1), abs(x2), abs(x3), abs(x4)]
    assert len(res.trajectory) == 4
    for row, j, sep, tube, dist in zip(
            res.trajectory, range(1, 5), seps, tubes, dists):
        assert row[0] == j
        assert row[1] == pytest.approx(sep, rel=1e-12)
        assert row[2] == pytest.approx(tube, rel=1e-12)
        assert row[3] == pytest.approx(dist, rel=1e-12)
    # the period ends exactly when the separation leaves the tube
    assert seps[3] > tubes[3]
    assert all(s <= t for s, t in zip(seps[:3], tubes[:3]))


def test_binding_period_truncation_flag(cheb, cheb_records):
    res = ind.binding_period(cheb, 1e-9, delta=0.2, records=cheb_records,
                             p_max=3)
    assert res.truncated
    assert res.p == 3


def test_singular_binding_period_is_one(lorenz, lorenz_records):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-0.2, 0.2, 100)
    xs = xs[xs != 0.0]
    for x in xs:
        assert ind.binding_period(lorenz, float(x), delta=0.2,
                                  records=lorenz_records).p == 1


def test_first_entry(cheb):
    # 0.1 is already inside the delta-neighborhood of the turning point
    assert ind.first_entry(cheb, 0.1, 0.2, 6) == 0
    # 0.9 maps 0.9 -> -0.62 -> 0.2312 -> ... enters |x| < 0.2 later
    l0 = ind.first_entry(cheb, 0.9, 0.2, 10)
    y = 0.9
    for _ in range(l0):
        y = quad(y)
    assert abs(y) < 0.2
    z = 0.9
    for _ in range(l0):
        assert abs(z) >= 0.2
        z = quad(z)


def test_inducing_time_free_and_bound(cheb, cheb_records):
    # 0.9 -> -0.62 -> 0.2312 -> 0.893...: outside |x| < 0.2 for 4 steps
    q0 = 4
    assert ind.first_entry(cheb, 0.9, 0.2, q0) is None
    assert ind.inducing_time(cheb, 0.9, 0.2, q0, records=cheb_records) == q0
    # a point already inside binds immediately: tau = 0 + p
    assert ind.inducing_time(cheb, 0.1, 0.2, q0,
                             records=cheb_records) == 4


def test_induced_value_matches_iterated_map(cheb, cheb_records):
    part = ind.build_partition(cheb, delta=0.2, q0=4)
    val, df_hat, tau = ind.eval_induced(cheb, part, 0.1)
    assert tau == 4
    assert val == pytest.approx(0.03187701071544469, abs=1e-12)
    assert df_hat > 2.0
    # agreement with direct iteration at fresh points
    rng = np.random.default_rng(3)
    for x in rng.uniform(-0.95, 0.95, 50):
        try:
            val, _df, tau = ind.eval_induced(cheb, part, float(x))
        except ValueError:
            continue
        y = float(x)
        for _ in range(tau):
            y = evaluate(cheb, y).value
        assert val == pytest.approx(y, abs=1e-9)


def test_partition_covers_domain(cheb_partition, cheb):
    widths = sum(br.width for br in cheb_partition.branches)
    assert widths + cheb_partition.unresolved_measure == pytest.approx(
        cheb.hi - cheb.lo, rel=1e-9)
    # ordered and non-overlapping
    stops = [cheb_partition.lo]
    for br in cheb_partition.branches:
        assert br.a >= stops[-1] - 1e-15
        assert br.b > br.a
        stops.append(br.b)
    assert stops[-1] <= cheb.hi + 1e-15


def test_partition_taus_consistent(cheb_partition, cheb_scales):
    _, q0 = cheb_scales
    for br in cheb_partition.branches:
        assert len(br.itinerary) == br.tau
        if br.kind == "free":
            assert br.tau == q0
            assert br.l0 is None and br.p0 is None
        else:
            assert br.tau == br.l0 + br.p0
            assert br.critical_point is not None


def test_partition_certified_expansion(cheb_partition):
    for br in cheb_partition.branches:
        assert 0 < br.inf_df <= br.sup_df
    assert min(br.inf_df for br in cheb_partition.branches) >= 2.0


def test_partition_unresolved_small(cheb_partition, cheb):
    assert cheb_partition.unresolved_measure <= 1e-3 * (cheb.hi - cheb.lo)


def test_locate_and_unresolved_lookup(cheb_partition):
    br = cheb_partition.locate(0.1234)
    assert br.a < 0.1234 < br.b
    if cheb_partition.unresolved:
        a, b, _reason = cheb_partition.unresolved[0]
        with pytest.raises(ValueError):
            cheb_partition.locate(0.5 * (a + b))


def test_partition_determinism(lorenz, lorenz_scales):
    delta, q0 = lorenz_scales
    p1 = ind.build_partition(lorenz, delta=delta, q0=q0)
    p2 = ind.build_partition(lorenz, delta=delta, q0=q0)
    rows1 = [(br.a, br.b, br.tau, br.kind, br.itinerary)
             for br in p1.branches]
    rows2 = [(br.a, br.b, br.tau, br.kind, br.itinerary)
             for br in p2.branches]
    assert rows1 == rows2


def test_lorenz_partition_binds_for_one_step(lorenz_partition):
    for br in lorenz_partition.bound():
        assert br.p0 == 1


def test_summary_fields(cheb_partition):
    s = cheb_partition.summary()
    assert s["n_branches"] == len(cheb_partition.branches)
    assert s["n_free"] + s["n_bound"] == s["n_branches"]
    assert s["min_inf_df"] >= 2.0
    assert sum(s["tau_histogram"].values()) == s["n_branches"]


def test_binding_lemma_replay(cheb, cheb_partition, cheb_records):
    rep = ind.verify_binding_lemmas(cheb, cheb_partition, n_samples=300,
                                    records=cheb_records)
    assert rep.passed, rep.witnesses
    assert rep.ratio_max <= 1.0 + 1e-9
    assert rep.min_inf_df >= 2.0
    assert 0 < rep.sandwich_c1 <= rep.sandwich_c2


def test_write_partition_csv(tmp_path, lorenz_partition):
    import csv

    path = tmp_path / "partition.csv"
    ind.write_partition_csv(lorenz_partition, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(lorenz_partition.branches)
    assert float(rows[0]["a"]) == lorenz_partition.branches[0].a


def test_merge_cells_joins_adjacent_cells_with_one_class_and_itinerary():
    key = (0.0, "+")
    raw = [(0.0, 0.1, "free", None, None, None),
           (0.1, 0.2, "free", None, None, None),      # joins the first
           (0.2, 0.3, "free", None, None, None),      # other itinerary
           (0.35, 0.4, "free", None, None, None),     # not adjacent
           (0.4, 0.5, "bound", 1, 2, key),            # other class
           (0.5, 0.6, "bound", 1, 2, key)]            # joins the fifth
    it_mat = np.array([[0, 1, 1], [0, 1, 1], [0, 1, 0], [0, 1, 0],
                       [1, 1, 0], [1, 1, 0]])
    it_mat[4:, 2] = -1
    merged = ind._merge_cells(raw, it_mat)
    assert merged == [
        ((0.0, 0.2, "free", None, None, None), (0, 1, 1)),
        ((0.2, 0.3, "free", None, None, None), (0, 1, 0)),
        ((0.35, 0.4, "free", None, None, None), (0, 1, 0)),
        ((0.4, 0.6, "bound", 1, 2, key), (1, 1))]
    assert all(type(t) is int for _, it in merged for t in it)
    assert ind._merge_cells([], np.empty((0, 0), dtype=np.int64)) == []
