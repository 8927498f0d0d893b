"""Transfer-operator discretization, stationary densities, orbit histograms."""

import logging

import numpy as np
import pytest
from scipy import sparse

from cusp_induce import _fastmap, _vec, map_model
from cusp_induce import density as de

EPS4 = 4.0 * np.finfo(float).eps


def arcsine_density(m_cells):
    edges = np.linspace(-1.0, 1.0, m_cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    h = 1.0 / (np.pi * np.sqrt(1.0 - centers**2))
    return h / (h.sum() * (2.0 / m_cells))


def test_l1_distance_basics():
    a = np.array([1.0, 1.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0, 1.0])
    assert de.l1_distance(a, a, 0.5) == 0.0
    assert de.l1_distance(a, b, 0.5) == pytest.approx(2.0)


def test_ulam_table_is_row_stochastic(lorenz, lorenz_partition):
    table = de.ulam_matrix(lorenz, lorenz_partition, m_cells=512)
    assert table.m == 512
    sums = np.asarray(table.matrix.sum(axis=1)).ravel()
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert table.matrix.min() >= 0
    assert np.all(table.coverage >= 0)


def test_stationary_density_is_fixed_point(lorenz, lorenz_partition):
    table = de.ulam_matrix(lorenz, lorenz_partition, m_cells=512)
    h = de.stationary_density(table)
    w = (table.edges[-1] - table.edges[0]) / table.m
    assert np.all(h >= 0)
    assert h.sum() * w == pytest.approx(1.0, rel=1e-9)
    p = h / h.sum()
    residual = np.abs(p @ table.matrix - p).sum()
    assert residual < 1e-8


def test_ulam_and_stationary_vector_log_their_counts(caplog, lorenz,
                                                     lorenz_partition):
    with caplog.at_level(logging.INFO, logger=de.__name__):
        table = de.ulam_matrix(lorenz, lorenz_partition, m_cells=512)
        de.stationary_density(table)
    ulam, stationary = [r.getMessage() for r in caplog.records]
    d = table.to_dict()
    assert ulam.startswith(
        f"ulam_matrix: {len(lorenz_partition.branches)} branches, ")
    n_targets, evaluations, per_target, max_steps, nonfinite = \
        caplog.records[0].args[1], *caplog.records[0].args[5:]
    assert ulam.endswith(
        f"targets inverted, {d['nnz']} nonzeros, {d['dead_rows']} dead rows, "
        f"{d['flagged_rows']} flagged rows; root finder: {evaluations} "
        f"evaluations ({per_target:.2f} per target), at most {max_steps} "
        f"steps, {nonfinite} stopped on a non-finite residual")
    assert 0 < evaluations <= max_steps * n_targets
    assert per_target == evaluations / n_targets
    assert 1 < max_steps <= _vec.ROOT_STEPS and nonfinite == 0
    assert "iterations, final L1 step" in stationary
    assert stationary.endswith("period-2 averaging not needed")
    # the benchmark reads "escapes" lines with two arguments as orbit counts
    assert not any("escapes" in r.getMessage() for r in caplog.records)


def test_stationary_vector_logs_period_2_averaging(caplog):
    # cells 0 and 1 swap and cell 2 empties into 0: from the uniform start
    # the vector oscillates between (2, 1, 0)/3 and (1, 2, 0)/3
    P = sparse.csr_matrix(np.array([[0, 1, 0], [1, 0, 0], [1, 0, 0]], float))
    table = de.UlamTable(matrix=P, m=3, edges=np.linspace(0, 3, 4),
                         cell_width=1.0, coverage=np.ones(3),
                         flagged_rows=np.zeros(3, bool),
                         dead_rows=np.zeros(3, bool))
    with caplog.at_level(logging.INFO, logger=de.__name__):
        h = de.stationary_density(table)
    assert h.tolist() == [0.5, 0.5, 0.0]
    assert caplog.records[-1].getMessage().startswith(
        "stationary_density: 4 iterations")
    assert caplog.records[-1].getMessage().endswith("averaging ran")


def _forward_columns(m, itin, edges, owner, mids):
    """The cells of the images of piece midpoints, by a forward pass."""
    y = _vec.forced_forward(m, itin, owner, mids)
    cw = (edges[-1] - edges[0]) / (edges.size - 1)
    return np.clip(((y - edges[0]) / cw).astype(np.int64), 0, edges.size - 2)


FIVE_MAPS = {
    "chebyshev": map_model.chebyshev_map,
    "unimodal": map_model.unimodal_map,
    "lorenz(1.9,0.4)": lambda: map_model.lorenz_map(1.9, 0.4, 0.1),
    "lorenz(1.8,0.5)": lambda: map_model.lorenz_map(1.8, 0.5, 0.1),
    "singular_unimodal": map_model.singular_unimodal_map,
}


@pytest.mark.parametrize("name", sorted(FIVE_MAPS))
def test_one_step_columns_follow_the_order_of_the_preimages(name):
    # a piece maps where its midpoint's forward image lies, except where
    # the piece is narrower than the bisection's last bracket plus the
    # x-resolution of f there: then f may round onto the cell edge itself
    m = FIVE_MAPS[name]()
    edges = np.linspace(m.lo, m.hi, 4097)
    group, bound = de._map_group(m, edges)
    owner, mids, widths, cols = de._pieces(edges, *group)
    assert mids.size <= bound
    itin = _vec.itinerary_matrix([(i,) for i in range(len(m.branches))])
    fwd = _forward_columns(m, itin, edges, owner, mids)
    _y, d1 = _vec.step_values(m, mids, 1)
    tol = (EPS4 * (np.abs(mids) + 1.0 / np.abs(d1))
           + ((group[1] - group[0]) * 2.0 ** -_vec.BISECTION_STEPS)[owner])
    off = np.flatnonzero(cols != fwd)
    assert np.all(widths[off] <= tol[off])
    assert np.all(np.abs(cols[off] - fwd[off]) == 1)
    assert off.size <= 25
    np.testing.assert_allclose(widths.sum(), m.hi - m.lo, rtol=1e-14)


@pytest.mark.parametrize("which", ["cheb", "lorenz"])
def test_ulam_columns_follow_the_order_of_the_preimages(request, which):
    # as above, with preimages from forced_inverse: a mismatched piece is
    # narrower than the root finder's tolerance
    m = request.getfixturevalue(which)
    branches = request.getfixturevalue(which + "_partition").branches
    edges = np.linspace(-1.0, 1.0, 4097)
    images = np.array([br.image for br in branches])
    first = np.searchsorted(edges, images[:, 0], side="right")
    counts = np.searchsorted(edges, images[:, 1]) - first
    itin = _vec.itinerary_matrix([br.itinerary for br in branches])
    a = np.array([br.a for br in branches])
    b = np.array([br.b for br in branches])
    up = [br.orientation > 0 for br in branches]
    pre = _vec.forced_inverse(m, itin, a, b, up,
                              [edges[j:j + n] for j, n in zip(first, counts)])
    owner, mids, widths, cols = de._pieces(edges, a, b, pre, up, first)
    assert mids.size <= de._piece_bound(edges, a, b, counts)
    fwd = _forward_columns(m, itin, edges, owner, mids)
    tol = EPS4 * np.abs(mids) + ((b - a) / np.maximum(16, counts)
                                 * 2.0 ** -31)[owner]
    off = np.flatnonzero(cols != fwd)
    assert np.all(widths[off] <= tol[off])
    assert off.size <= 1e-4 * mids.size


def test_pull_back_produces_probability_density(lorenz, lorenz_partition):
    table = de.ulam_matrix(lorenz, lorenz_partition, m_cells=512)
    h_ind = de.stationary_density(table)
    h_map = de.pull_back(lorenz, lorenz_partition, h_ind, m_cells=512)
    w = 2.0 / 512
    assert np.all(h_map >= 0)
    assert h_map.sum() * w == pytest.approx(1.0, rel=1e-9)


def test_pull_back_logs_its_chunk_totals(caplog, lorenz, lorenz_partition):
    branches = lorenz_partition.branches
    with caplog.at_level(logging.INFO, logger=de.__name__):
        de.pull_back(lorenz, lorenz_partition, np.ones(512), m_cells=512)
    (record,) = caplog.records
    _n, points, point_steps, capped, cap, share = record.args
    assert record.getMessage() == (
        f"pull_back: {len(branches)} branches, {points} points, "
        f"{point_steps} point-steps, {capped} branches at the {cap}-chunk "
        f"cap, {share:.3f} of the point-steps on branches with unbounded "
        f"sup |Df-hat|")
    assert cap == de.PULL_BACK_CAP
    assert 16 * len(branches) <= points <= cap * len(branches)
    assert points <= point_steps <= points * max(br.tau for br in branches)
    assert 0 <= capped <= len(branches) and 0.0 <= share <= 1.0


def test_invariance_residual_detects_the_right_density(cheb):
    # the closed-form density passes, a uniform impostor does not
    good = de.invariance_residual(cheb, arcsine_density(1024))
    bad = de.invariance_residual(cheb, np.full(1024, 0.5))
    assert good < 0.04
    assert bad > 0.3


def test_birkhoff_histogram_statistics(cheb):
    w = 2.0 / 256
    b1 = de.birkhoff_histogram(cheb, seed_count=2, n_steps=2 * 10**5,
                               m_cells=256, seed=1)
    b2 = de.birkhoff_histogram(cheb, seed_count=2, n_steps=2 * 10**5,
                               m_cells=256, seed=2)
    assert b1.sum() * w == pytest.approx(1.0, rel=1e-9)
    assert de.l1_distance(b1, b2, w) < 0.15
    assert de.l1_distance(b1, arcsine_density(256), w) < 0.15


def test_birkhoff_histogram_deterministic_per_seed(cheb):
    kw = dict(seed_count=2, n_steps=10**4, m_cells=128, seed=5)
    b1 = de.birkhoff_histogram(cheb, **kw)
    b2 = de.birkhoff_histogram(cheb, **kw)
    assert np.array_equal(b1, b2)


def _birkhoff_reference(m, seed_count, n_steps, m_cells, burn_in, seed):
    """Walker-by-walker scalar loop following the documented orbit rules.

    Returns (density, escapes, restarts)."""
    counted = n_steps - burn_in
    walkers = min(_fastmap.WALKERS, counted)
    xs, pools = [], []
    for child in np.random.SeedSequence(seed).spawn(seed_count):
        rng = np.random.default_rng(child)
        xs.append(list(rng.uniform(m.lo, m.hi, walkers)))
        pools.append(rng.uniform(m.lo, m.hi, 1024))
    crit = {cp.location for cp in m.critical_points}
    used = [0] * seed_count
    hist = np.zeros(m_cells, dtype=np.int64)
    escapes = restarts = 0
    for k in range(burn_in + -(-counted // walkers)):
        for s in range(seed_count):
            for w in range(walkers):
                x = xs[s][w]
                br = m.branches[m.branch_index(x)]
                with np.errstate(all="ignore"):
                    v = float(br.values(np.array([x]))[0])
                escaped = not m.lo - 1e-9 <= v <= m.hi + 1e-9
                v = min(max(v, m.lo), m.hi)
                if escaped or v in crit:
                    escapes += escaped
                    restarts += not escaped
                    xs[s][w] = pools[s][used[s] % 1024]
                    used[s] += 1
                    continue
                xs[s][w] = v
                if k >= burn_in:
                    idx = int((v - m.lo) / (m.hi - m.lo) * m_cells)
                    hist[min(max(idx, 0), m_cells - 1)] += 1
    return hist / (hist.sum() * ((m.hi - m.lo) / m_cells)), escapes, restarts


@pytest.mark.parametrize("gain", [1.0, 1.01])
def test_birkhoff_histogram_matches_scalar_reference(caplog, monkeypatch,
                                                      gain):
    # float orbits of the tent map land exactly on its critical point 0;
    # scaled by 1.01 its values leave [-1, 1] about once in 100 steps
    tent = map_model.unimodal_map(a=2.0, ell=1.0)
    if gain != 1.0:
        values = map_model.Branch.values
        monkeypatch.setattr(map_model.Branch, "values",
                            lambda br, x, order=0: gain * values(br, x))
    kw = dict(seed_count=2, n_steps=5000, m_cells=256, burn_in=100, seed=0)
    with caplog.at_level(logging.INFO, logger=de.__name__):
        h = de.birkhoff_histogram(tent, **kw)
    ref, escapes, restarts = _birkhoff_reference(tent, **kw)
    assert (restarts if gain == 1.0 else escapes) > 0
    assert np.array_equal(h, ref)
    assert caplog.records[-1].args == (escapes, restarts)


def test_birkhoff_histogram_rejects_burn_in_past_the_orbit(cheb):
    with pytest.raises(RuntimeError):
        de.birkhoff_histogram(cheb, seed_count=2, n_steps=500, burn_in=500)


def test_density_pipeline_end_to_end(lorenz, lorenz_partition):
    est = de.density_pipeline(lorenz, lorenz_partition, m_cells=512)
    assert est.m == 512
    assert est.invariance_residual < 0.05
    assert est.unresolved_mass >= 0
    assert len(est.cell_centers()) == 512
    w = 2.0 / 512
    assert est.h_map.sum() * w == pytest.approx(1.0, rel=1e-9)
    assert est.h_induced.sum() * w == pytest.approx(1.0, rel=1e-9)
    d = est.to_dict()
    assert set(d) >= {"m", "invariance_residual", "unresolved_mass", "params"}


def test_density_pipeline_deterministic(lorenz, lorenz_partition):
    e1 = de.density_pipeline(lorenz, lorenz_partition, m_cells=256)
    e2 = de.density_pipeline(lorenz, lorenz_partition, m_cells=256)
    assert np.array_equal(e1.h_map, e2.h_map)
    assert e1.invariance_residual == e2.invariance_residual


def test_density_csv(tmp_path, lorenz, lorenz_partition):
    import csv

    est = de.density_pipeline(lorenz, lorenz_partition, m_cells=256)
    path = tmp_path / "density.csv"
    est.write_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 256
    assert float(rows[0]["cell_center"]) == est.cell_centers()[0]
    assert float(rows[10]["density"]) == est.h_map[10]
