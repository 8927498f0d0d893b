"""Transfer-operator discretization, stationary densities, orbit histograms."""

import dataclasses
import logging
import os
import signal

import numpy as np
import pytest

from cusp_induce import _fastmap, _vec, map_model
from cusp_induce import density as de
from cusp_induce import inducing as ind

from reference_inverse import distance_to_preimage, long_double_images
from reference_pull_back import affine_pull_back

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
    P = table.matrix
    sums = np.bincount(P.entry_row(), P.data, P.shape[0])
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert P.data.min() >= 0
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


def _expected_ulam_counts(partition, edges):
    """(targets, point-steps back, point-steps once per shared suffix) of
    the Ulam assembly: the edges strictly inside each branch image, pulled
    back through its itinerary, and the edges of the hull of the images of
    the branches ending in each itinerary suffix."""
    counts, hulls = [], {}
    for br in partition.branches:
        inside = np.flatnonzero((edges > br.image[0])
                                & (edges < br.image[1]))
        counts.append(inside.size)
        for d in range(1, len(br.itinerary) + 1 if inside.size else 0):
            lo, hi = hulls.get(br.itinerary[-d:], (inside[0], inside[-1]))
            hulls[br.itinerary[-d:]] = (min(lo, inside[0]),
                                        max(hi, inside[-1]))
    steps = sum(n * len(br.itinerary)
                for n, br in zip(counts, partition.branches))
    return sum(counts), steps, sum(int(hi - lo) + 1
                                   for lo, hi in hulls.values())


def test_ulam_and_stationary_vector_log_their_counts(caplog, lorenz,
                                                     lorenz_partition):
    with caplog.at_level(logging.INFO, logger=de.__name__):
        table = de.ulam_matrix(lorenz, lorenz_partition, m_cells=512)
        de.stationary_density(table)
    ulam, stationary = [r.getMessage() for r in caplog.records]
    d = table.to_dict()
    n_targets, steps, shared = _expected_ulam_counts(lorenz_partition,
                                                     table.edges)
    clamped = caplog.records[0].args[-4]
    # lorenz's formulas invert in closed form: no step bisects
    assert ulam == (
        f"ulam_matrix: {len(lorenz_partition.branches)} branches, "
        f"{n_targets} targets inverted, {d['nnz']} nonzeros, "
        f"{d['dead_rows']} dead rows, {d['flagged_rows']} flagged rows; "
        f"{steps} point-steps back, {clamped} targets clamped, 0 "
        f"point-steps bisected; once per shared itinerary suffix {shared} "
        f"point-steps back, 0 bisected")
    assert n_targets < shared < steps and 0 <= clamped <= n_targets
    assert "iterations, final L1 step" in stationary
    assert stationary.endswith("period-2 averaging not needed")
    # the benchmark reads "escapes" lines with two arguments as orbit counts
    assert not any("escapes" in r.getMessage() for r in caplog.records)


def _chebyshev_spelled(spelling, delta):
    cfg = map_model.family_config("chebyshev", delta=delta)
    for br in cfg["branches"]:
        br["expr"] = spelling
    return map_model.build_map(cfg)


def test_ulam_matrix_through_the_closed_form_and_the_bisection_agree(
        caplog):
    # chebyshev spelled with x once inverts in closed form, with x twice
    # through the bisection fallback; the partitions keep their records
    # and the Ulam entries move less than one piece whose two ends move by
    # 9.0e-10, the largest preimage move between the closed form and the
    # root finder it replaced on the chebyshev benchmark partition
    tables, parts = [], []
    for spelling in ("1 - 2*x^2", "1 - 2*x*x"):
        m = _chebyshev_spelled(spelling, 0.05)
        parts.append(ind.build_partition(m, delta=0.05, q0=5))
        with caplog.at_level(logging.INFO, logger=de.__name__):
            table = de.ulam_matrix(m, parts[-1], m_cells=256)
        tables.append(table.matrix)
        _n, steps, shared = _expected_ulam_counts(parts[-1], table.edges)
        # point-steps back, and those that bisected, per branch and once
        # per shared itinerary suffix
        args = caplog.records[-1].args
        assert args[-5] == steps and args[-2] == shared < steps
        inverts = spelling.endswith("^2")
        assert args[-3] == (0 if inverts else steps)
        assert args[-1] == (0 if inverts else shared)
    closed, bisected = parts
    assert len(closed.branches) == len(bisected.branches) > 1000
    assert [(br.kind, br.l0, br.p0, br.tau, br.itinerary)
            for br in closed.branches] == [
        (br.kind, br.l0, br.p0, br.tau, br.itinerary)
        for br in bisected.branches]
    got, want = tables
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.abs(got.data - want.data).max() <= 2 * 9.0e-10 / (2.0 / 256)


def test_stationary_vector_logs_period_2_averaging(caplog):
    # cells 0 and 1 swap and cell 2 empties into 0: from the uniform start
    # the vector oscillates between (2, 1, 0)/3 and (1, 2, 0)/3
    P = de.Csr.from_entries(np.array([1, 3, 6]), np.ones(3), (3, 3))
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


def _scipy_reference(rows, cols, vals, shape, scale):
    """The Ulam assembly's scipy form: COO -> CSR, rows scaled, columns
    sorted."""
    from scipy import sparse

    mat = (sparse.diags(scale) @ sparse.coo_matrix(
        (vals, (rows, cols)), shape=shape).tocsr()).tocsr()
    mat.sort_indices()
    return mat


def test_csr_matches_its_scipy_reference():
    # duplicates (40,000 entries on 150 x 120 cells), exact zeros and
    # cancelling pairs, rows without entries and rows scaled by zero; the
    # values are multiples of 2**-10, so every order of summing them is exact
    rng = np.random.default_rng(3)
    shape, n = (150, 120), 40000
    rows = rng.integers(0, shape[0], n).astype(np.int32)
    rows[np.isin(rows, (5, 70, 149))] = 6
    cols = rng.integers(0, shape[1], n).astype(np.int32)
    vals = rng.integers(1, 2**20, n) * 2.0**-10
    vals[::97] = 0.0
    rows[-200:], cols[-200:] = rows[:200], cols[:200]
    vals[-200:] = -vals[:200]
    scale = 1.0 / rng.uniform(0.5, 2.0, shape[0])
    scale[[6, 33]] = 0.0
    want = _scipy_reference(rows, cols, vals, shape, scale)
    got = de.Csr.from_entries(rows * shape[1] + cols, vals.copy(), shape,
                              scale)
    assert got.shape == want.shape and got.nnz == want.nnz
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.indices.dtype == np.int32
    assert np.all(np.abs(got.data - want.data)
                  <= np.abs(np.spacing(want.data)))
    assert np.all(got.data != 0.0)
    empty = np.diff(got.indptr) == 0
    assert empty[[5, 6, 33, 70, 149]].all()
    v = rng.uniform(0.0, 1.0, shape[0])
    assert (v @ got).tobytes() == np.asarray(v @ want).tobytes()
    assert np.array_equal(got.entry_row(),
                          np.repeat(np.arange(shape[0]), np.diff(got.indptr)))


def test_csr_sums_duplicates_in_input_order():
    # (1e16 + 1) + 1 rounds to 1e16 twice; 1e16 + (1 + 1) would not
    for vals, want in (([1e16, 5.0, 1.0, 1.0], 1e16),
                       ([1.0, 5.0, 1.0, 1e16], 1e16 + 2.0)):
        key = np.array([1, 0, 1, 1])
        P = de.Csr.from_entries(key, np.array(vals), (1, 2))
        assert P.data.tolist() == [5.0, want]
        # from_entries sorts its arguments in place
        assert key.tolist() == [0, 1, 1, 1]


@pytest.mark.parametrize("which", ["cheb", "lorenz"])
def test_ulam_products_match_scipy_bit_for_bit(request, which):
    # on the benchmark grid of 4096 cells, v @ P adds in scipy's order
    from scipy import sparse

    m = request.getfixturevalue(which)
    table = de.ulam_matrix(m, request.getfixturevalue(which + "_partition"),
                           m_cells=4096)
    P = table.matrix
    ref = sparse.csr_matrix((P.data, P.indices, P.indptr), shape=P.shape)
    h = de.stationary_density(table)
    for v in (h / h.sum(), np.random.default_rng(11).uniform(0, 1, 4096)):
        assert (v @ P).tobytes() == np.asarray(v @ ref).tobytes()


def test_ulam_matrix_fills_dead_rows_uniformly(caplog, lorenz,
                                               lorenz_partition):
    # without the branches that meet cells 100-103, those cells carry no
    # resolved mass: their rows become uniform and are reported
    edges = np.linspace(lorenz_partition.lo, lorenz_partition.hi, 257)
    gap = (edges[100], edges[104])
    part = dataclasses.replace(lorenz_partition, branches=[
        br for br in lorenz_partition.branches
        if br.b <= gap[0] or br.a >= gap[1]])
    assert len(part.branches) < len(lorenz_partition.branches)
    with caplog.at_level(logging.WARNING, logger=de.__name__):
        table = de.ulam_matrix(lorenz, part, m_cells=256)
    dead = np.flatnonzero(table.dead_rows)
    assert set(range(100, 104)) <= set(dead.tolist())
    P = table.matrix
    for i in dead:
        row = np.s_[P.indptr[i]:P.indptr[i + 1]]
        assert np.array_equal(P.indices[row], np.arange(256))
        assert np.all(P.data[row] == 1.0 / 256)
    sums = np.bincount(P.entry_row(), P.data, P.shape[0])
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert not table.flagged_rows[dead].any()
    assert [r.getMessage() for r in caplog.records
            if r.levelno == logging.WARNING] == [
        f"ulam matrix has {dead.size} dead rows (unresolved cells)"]
    assert table.to_dict()["dead_rows"] == dead.size


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
def test_one_step_columns_follow_the_order_of_the_preimages(monkeypatch,
                                                            name):
    # the pieces of the invariance residual's one-step matrix: a piece maps
    # where its midpoint's forward image lies, except where the piece is
    # narrower than the bisection's last bracket plus the x-resolution of f
    # there, which also covers the closed forms: then f may round onto the
    # cell edge itself
    m = FIVE_MAPS[name]()
    edges = np.linspace(m.lo, m.hi, 4097)
    pieces, seen = de._pieces, []

    def spy(*group):
        seen.append((group, pieces(*group)))
        return seen[-1][1]

    monkeypatch.setattr(de, "_pieces", spy)
    de.invariance_residual(m, np.ones(4096))
    [((_edges, a, b, _pre, n_pre, _up, _first),
      (owner, mids, widths, cols))] = seen
    assert mids.size <= de._piece_bound(edges, a, b, n_pre)
    itin = _vec.itinerary_matrix([(i,) for i in range(len(m.branches))])
    fwd = _forward_columns(m, itin, edges, owner, mids)
    _y, d1 = _vec.step_values(m, mids, 1)
    tol = (EPS4 * (np.abs(mids) + 1.0 / np.abs(d1))
           + ((b - a) * 2.0 ** -_vec.BISECTION_STEPS)[owner])
    off = np.flatnonzero(cols != fwd)
    assert np.all(widths[off] <= tol[off])
    assert np.all(np.abs(cols[off] - fwd[off]) == 1)
    assert off.size <= 25
    np.testing.assert_allclose(widths.sum(), m.hi - m.lo, rtol=1e-14)


@pytest.mark.parametrize("which", ["cheb", "lorenz"])
def test_ulam_columns_follow_the_order_of_the_preimages(request, which):
    # as above, with preimages from forced_inverse, against the images of
    # the midpoints in long double: a mismatched piece is narrower than
    # twice the distance of its branch's farthest preimage from the true
    # one (reference_inverse).  The double forward pass is no reference
    # here: on chebyshev's longest itineraries it strays up to 3e-5.
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
    owner = np.repeat(np.arange(len(branches)), counts)
    t = np.concatenate([edges[j:j + n] for j, n in zip(first, counts)])
    x = _vec.forced_inverse(m, itin, a, b, edges, first, counts)
    owner_p, mids, widths, cols = de._pieces(edges, a, b, x, counts, up,
                                             first)
    assert mids.size <= de._piece_bound(edges, a, b, counts)
    y = long_double_images(m, itin, owner_p, mids)
    fwd = np.clip(((y - edges[0]) / (edges[1] - edges[0])).astype(np.int64),
                  0, edges.size - 2)
    farthest = np.zeros(len(branches))
    np.maximum.at(farthest, owner, distance_to_preimage(m, itin, owner, x, t))
    tol = EPS4 * np.abs(mids) + 2.0 * farthest[owner_p]
    off = np.flatnonzero(cols != fwd)
    assert np.all(widths[off] <= tol[off])
    assert np.all(np.abs(cols[off] - fwd[off]) == 1)
    # and no more of them than the thirty-halving preimages of
    # test_vec.ref_forced_inverse give against the same images, counted
    # once, as that reference takes minutes on cheb
    assert off.size <= {"cheb": 258, "lorenz": 0}[which]


@pytest.mark.parametrize("which", ["cheb", "lorenz"])
def test_ulam_matrix_does_not_depend_on_the_working_set_size(
        request, monkeypatch, which):
    # chunks of 257 targets, and groups of branches that hold about as
    # many: every preimage, and with it the matrix, stays the same bits
    m = request.getfixturevalue(which)
    part = request.getfixturevalue(which + "_partition")
    want = de.ulam_matrix(m, part, m_cells=256).matrix
    monkeypatch.setattr(_vec, "CHUNK_POINTS", 257)
    got = de.ulam_matrix(m, part, m_cells=256).matrix
    for key in ("data", "indices", "indptr"):
        assert getattr(got, key).tobytes() == getattr(want, key).tobytes()


@pytest.mark.parametrize("which", ["cheb", "lorenz"])
def test_ulam_matrix_does_not_depend_on_the_worker_count(
        request, monkeypatch, which):
    # the assembly runs in this process whatever CPUs it may use: it never
    # forks, and the matrix is the same bits on one CPU and on three
    m = request.getfixturevalue(which)
    part = request.getfixturevalue(which + "_partition")
    monkeypatch.setattr(_vec, "MAX_WORKERS", 3)

    def no_fork():
        raise AssertionError("ulam_matrix forked")

    monkeypatch.setattr(os, "fork", no_fork)
    tables = []
    for w in (1, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, w=w: set(range(w)))
        tables.append(de.ulam_matrix(m, part, m_cells=4096).matrix)
    for key in ("data", "indices", "indptr"):
        assert getattr(tables[1], key).tobytes() == \
            getattr(tables[0], key).tobytes()


def test_pull_back_produces_probability_density(lorenz, lorenz_partition):
    table = de.ulam_matrix(lorenz, lorenz_partition, m_cells=512)
    h_ind = de.stationary_density(table)
    h_map = de.pull_back(lorenz, lorenz_partition, h_ind, m_cells=512)
    w = 2.0 / 512
    assert np.all(h_map >= 0)
    assert h_map.sum() * w == pytest.approx(1.0, rel=1e-9)


def pull_back_record(caplog, m, partition, h, m_cells):
    """pull_back's result and the args of its one INFO record."""
    with caplog.at_level(logging.INFO, logger=de.__name__):
        out = de.pull_back(m, partition, h, m_cells)
    (record,) = [r for r in caplog.records if r.name == de.__name__]
    assert "escapes" not in record.getMessage()
    return out, record


def test_pull_back_logs_its_pieces_and_distortion(caplog, lorenz,
                                                  lorenz_partition):
    branches = lorenz_partition.branches
    _out, record = pull_back_record(caplog, lorenz, lorenz_partition,
                                    np.ones(512), 512)
    n, pieces, piece_steps, total, worst, unbounded = record.args
    assert record.getMessage() == (
        f"pull_back: {n} branches, {pieces} pieces, {piece_steps} "
        f"piece-steps, raw total {total:.6g} (integral of tau d nu), worst "
        f"per-step sup/inf |Df| on a piece {worst:.4g}, {unbounded} "
        f"piece-steps with it unbounded")
    # one piece per source cell a branch meets, each split in four
    edges = np.linspace(lorenz_partition.lo, lorenz_partition.hi, 513)
    cells = np.array([np.sum((br.a < edges) & (edges < br.b)) + 1
                      for br in branches])
    tau = np.array([br.tau for br in branches])
    assert n == len(branches)
    assert pieces == de.PULL_BACK_SPLITS * cells.sum()
    assert piece_steps == de.PULL_BACK_SPLITS * np.dot(cells, tau)
    assert worst >= 1.0 and 0 <= unbounded <= piece_steps


def test_pull_back_deposits_the_integral_of_tau(caplog, lorenz,
                                                lorenz_partition):
    # Kac: the raw total is sum over branches B of nu(B) tau_B
    h = np.random.default_rng(7).uniform(0.5, 1.5, 512)
    _out, record = pull_back_record(caplog, lorenz, lorenz_partition, h, 512)
    edges = np.linspace(lorenz_partition.lo, lorenz_partition.hi, 513)
    H = np.concatenate(([0.0], np.cumsum(h * np.diff(edges))))
    a, b, tau = np.array([(br.a, br.b, br.tau)
                          for br in lorenz_partition.branches]).T
    nu = np.interp(b, edges, H) - np.interp(a, edges, H)
    assert record.args[3] == pytest.approx(np.dot(nu, tau), rel=1e-12)


def test_pull_back_raises_on_a_non_finite_induced_density(lorenz,
                                                          lorenz_partition):
    h = np.ones(512)
    br = lorenz_partition.branches[0]
    h[int((0.5 * (br.a + br.b) - lorenz_partition.lo)
          / (lorenz_partition.hi - lorenz_partition.lo) * 512)] = np.nan
    with pytest.raises(RuntimeError, match="deposited nan"):
        de.pull_back(lorenz, lorenz_partition, h, m_cells=512)


def doubling_map():
    return map_model.build_map({
        "name": "doubling", "domain": [-1.0, 1.0], "delta": 0.05,
        "branches": [{"interval": [-1.0, 0.0], "expr": "2*x + 1"},
                     {"interval": [0.0, 1.0], "expr": "2*x - 1"}],
        "critical_points": [{"location": 0.0, "side": side, "order": 1.0}
                            for side in "-+"]})


def test_pull_back_spreads_pieces_over_their_exact_affine_images(caplog):
    m = doubling_map()
    part = ind.build_partition(m, delta=0.05, q0=3)
    assert len(part.branches) == 22
    h = np.random.default_rng(5).uniform(0.5, 1.5, 50)
    got, record = pull_back_record(caplog, m, part, h, 64)
    assert record.args[4] == 1.0 and record.args[5] == 0
    want = affine_pull_back(part, [(2.0, 1.0), (2.0, -1.0)], h, 64)
    assert de.l1_distance(got, want, 2.0 / 64) <= 1e-12


def test_invariance_residual_detects_the_right_density(cheb):
    # the closed-form density passes, a uniform impostor does not
    good = de.invariance_residual(cheb, arcsine_density(1024))
    bad = de.invariance_residual(cheb, np.full(1024, 0.5))
    assert good < 0.04
    assert bad > 0.3


def test_invariance_residual_with_int64_keys(cheb, monkeypatch):
    # past m_cells**2 = 2**31 the entry keys row * m_cells + column need
    # int64; one cell fewer still fits int32, and both give one residual
    dtypes = []
    from_entries = de.Csr.from_entries

    def spy(key, *args):
        dtypes.append(key.dtype)
        return from_entries(key, *args)

    monkeypatch.setattr(de.Csr, "from_entries", spy)
    got = []
    for n in (46341, 46340):
        edges = np.linspace(-1.0, 1.0, n + 1)
        exact = np.diff(np.arcsin(edges)) / (np.pi * (2.0 / n))
        got.append(de.invariance_residual(cheb, exact))
    assert dtypes == [np.int64, np.int32]
    assert got[0] == pytest.approx(got[1], rel=1e-4)
    assert got[0] < 0.004


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


def _scale_values(monkeypatch, m, gain):
    """Scale every order-0 evaluation of m's branches by gain: the
    references' Branch.values calls and the steppers' m.group_values."""
    values, group_values = map_model.Branch.values, m.group_values
    monkeypatch.setattr(map_model.Branch, "values",
                        lambda br, x, order=0: gain * values(br, x))
    monkeypatch.setattr(m, "group_values", lambda x, order=0: [
        gain * v for v in group_values(x)])


@pytest.mark.parametrize("gain", [1.0, 1.01])
def test_birkhoff_histogram_matches_scalar_reference(caplog, monkeypatch,
                                                      gain):
    # float orbits of the tent map land exactly on its critical point 0;
    # scaled by 1.01 its values leave [-1, 1] about once in 100 steps
    tent = map_model.unimodal_map(a=2.0, ell=1.0)
    if gain != 1.0:
        _scale_values(monkeypatch, tent, gain)
    kw = dict(seed_count=2, n_steps=5000, m_cells=256, burn_in=100, seed=0)
    with caplog.at_level(logging.INFO, logger=de.__name__):
        h = de.birkhoff_histogram(tent, **kw)
    ref, escapes, restarts = _birkhoff_reference(tent, **kw)
    assert (restarts if gain == 1.0 else escapes) > 0
    assert np.array_equal(h, ref)
    assert caplog.records[-1].args == (escapes, restarts)


def _step_ensemble_reference(m, starts, pools, burn_in, n_counted, hist):
    """The ensemble step before its lean form: searchsorted dispatch
    through the one-step plan, np.clip and np.isin."""
    lo, hi = m.lo, m.hi
    width = hi - lo
    n_cells = hist.shape[0]
    crit = np.array([cp.location for cp in m.critical_points])
    n_streams, walkers = starts.shape
    stream = np.repeat(np.arange(n_streams), walkers)
    used = np.zeros(n_streams, dtype=np.int64)
    x = starts.ravel()
    escapes = restarts = 0
    for k in range(burn_in + n_counted):
        ids = np.minimum(np.searchsorted(m.interior_boundaries, x,
                                         side="right"), len(m.branches) - 1)
        v = np.empty_like(x)
        with np.errstate(all="ignore"):
            for i, br in enumerate(m.branches):
                sel = np.flatnonzero(ids == i)
                v[sel] = br.values(x[sel])
        escaped = ~((v >= lo - 1e-9) & (v <= hi + 1e-9))
        np.clip(v, lo, hi, out=v)
        hit = np.isin(v, crit) & ~escaped
        bad = escaped | hit
        if bad.any():
            escapes += int(escaped.sum())
            restarts += int(hit.sum())
            s = stream[bad]
            rank = np.arange(s.size) - np.searchsorted(s, s)
            v[bad] = pools[s, (used[s] + rank) % pools.shape[1]]
            used += np.bincount(s, minlength=n_streams)
        x = v
        if k >= burn_in:
            idx = ((x[~bad] - lo) / width * n_cells).astype(np.int64)
            hist += np.bincount(np.clip(idx, 0, n_cells - 1),
                                minlength=n_cells)
    return escapes, restarts


@pytest.mark.parametrize("family, gain", [("chebyshev", 1.0),
                                          ("lorenz", 1.0),
                                          ("tent", 1.0), ("tent", 1.01)])
def test_ensemble_step_matches_its_reference(monkeypatch, family, gain):
    # chebyshev and the tent map have one formula, lorenz two; the tent
    # map's orbits land on its critical point, and scaled by 1.01 they
    # escape
    m = (map_model.unimodal_map(a=2.0, ell=1.0) if family == "tent"
         else map_model.build_map({"family": family}))
    if gain != 1.0:
        _scale_values(monkeypatch, m, gain)
    rng = np.random.default_rng(17)
    starts = rng.uniform(m.lo, m.hi, (3, 512))
    pools = rng.uniform(m.lo, m.hi, (3, _fastmap.POOL))
    want = np.zeros(300, dtype=np.int64)
    counts = _step_ensemble_reference(m, starts, pools, 50, 40, want)
    if family == "tent":
        assert counts[gain == 1.0] > 0   # restarts at gain 1, escapes above
    else:
        assert counts == (0, 0) and want.sum() == 3 * 512 * 40
    # in one process, and split in two
    monkeypatch.setattr(_fastmap, "SHARE_POINTS", 1)
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        got = np.zeros(300, dtype=np.int64)
        assert _fastmap.get_stepper(m)(starts, pools, 50, 40, got) == counts
        assert np.array_equal(got, want)


@pytest.mark.parametrize("odd", ["nan", "near-miss"])
def test_ensemble_step_escapes_nan_and_clips_near_misses(monkeypatch, odd):
    # the tent map's values read NaN on (0.5, 0.6), an escape; or 1 + 8e-10
    # on (0.2, 0.3) and -1 - 8e-10 on (0.35, 0.45), inside the tolerance:
    # clipped onto the domain, their orbits then stay at -1, where unclipped
    # they would escape
    m = map_model.unimodal_map(a=2.0, ell=1.0)
    values, group_values = map_model.Branch.values, m.group_values

    def patched(x, v):
        if odd == "nan":
            return np.where((x > 0.5) & (x < 0.6), np.nan, v)
        v = np.where((x > 0.2) & (x < 0.3), 1.0 + 8e-10, v)
        return np.where((x > 0.35) & (x < 0.45), -1.0 - 8e-10, v)

    monkeypatch.setattr(map_model.Branch, "values", lambda br, x, order=0:
                        patched(x, values(br, x)))
    monkeypatch.setattr(m, "group_values", lambda x, order=0: [
        patched(x, v) for v in group_values(x)])
    rng = np.random.default_rng(5)
    starts = rng.uniform(m.lo, m.hi, (2, 512))
    pools = rng.uniform(m.lo, m.hi, (2, _fastmap.POOL))
    got, want = np.zeros((2, 128), dtype=np.int64)
    counts = _fastmap.get_stepper(m)(starts, pools, 10, 20, got)
    assert counts == _step_ensemble_reference(m, starts, pools, 10, 20, want)
    assert np.array_equal(got, want)
    assert counts[0] > 0 if odd == "nan" else got[0] > 0


def _ensemble_map(monkeypatch, family, gain):
    m = (map_model.unimodal_map(a=2.0, ell=1.0) if family == "tent"
         else map_model.build_map({"family": family}))
    if gain != 1.0:
        _scale_values(monkeypatch, m, gain)
    return m


def _ensemble_run(m, streams, seed=3):
    """One stepper call on streams seed streams: (histogram, counts)."""
    rng = np.random.default_rng(seed)
    starts = rng.uniform(m.lo, m.hi, (streams, 512))
    pools = rng.uniform(m.lo, m.hi, (streams, _fastmap.POOL))
    hist = np.zeros(256, dtype=np.int64)
    counts = _fastmap.get_stepper(m)(starts, pools, 30, 30, hist)
    return hist, counts


@pytest.mark.parametrize("family, gain, streams", [
    ("chebyshev", 1.0, 3), ("lorenz", 1.0, 3), ("tent", 1.0, 3),
    ("tent", 1.01, 3), ("lorenz", 1.0, 5)])
def test_ensemble_does_not_depend_on_the_worker_count(
        caplog, monkeypatch, family, gain, streams):
    # 1, 2 and 3 processes take whole streams; the histogram and the
    # escape and restart counts stay the same bits, with restarts on the
    # tent map, escapes on it scaled by 1.01, and 5 streams dealt 3 + 2
    # and 2 + 2 + 1
    m = _ensemble_map(monkeypatch, family, gain)
    monkeypatch.setattr(_fastmap, "SHARE_POINTS", 512)
    monkeypatch.setattr(_vec, "MAX_WORKERS", 3)
    runs = []
    for w in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, w=w: set(range(w)))
        with caplog.at_level(logging.INFO, logger=_fastmap.__name__):
            runs.append(_ensemble_run(m, streams))
    assert [r.args for r in caplog.records
            if r.name == _fastmap.__name__] == [
        (streams, w, w - 1) for w in (1, 2, 3)]
    hist, counts = runs[0]
    if family == "tent":
        assert counts[gain == 1.0] > 0
    else:
        assert counts == (0, 0) and hist.sum() == streams * 512 * 30
    for got, got_counts in runs[1:]:
        assert got.tobytes() == hist.tobytes()
        assert got_counts == counts


@pytest.mark.parametrize("fault", ["killed", "raises"])
def test_an_ensemble_share_that_fails_in_its_child_runs_here(
        monkeypatch, fault):
    # the child is killed before it writes anything, or raises after: this
    # process runs its share again, and the histogram and counts are
    # those of one process
    m = _ensemble_map(monkeypatch, "tent", 1.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want = _ensemble_run(m, 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(_fastmap, "SHARE_POINTS", 512)
    parent, walk, finished = os.getpid(), _fastmap._walk, []

    def fails_in_the_child(*args):
        if os.getpid() == parent:
            finished.append(len(args[1]))
        elif fault == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        else:   # after the share has written its histogram
            walk(*args)
            raise RuntimeError("share failed")
        return walk(*args)

    monkeypatch.setattr(_fastmap, "_walk", fails_in_the_child)
    got, counts = _ensemble_run(m, 4)
    assert finished == [2, 2]
    assert got.tobytes() == want[0].tobytes() and counts == want[1]


def test_an_ensemble_share_that_raises_everywhere_reaches_the_caller(
        monkeypatch):
    # every share raises, in the child and in this process: the error
    # reaches the caller unchanged
    m = _ensemble_map(monkeypatch, "chebyshev", 1.0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(_fastmap, "SHARE_POINTS", 512)
    calls = []

    def raises(*args):
        calls.append(os.getpid())
        raise ValueError("share failed")

    monkeypatch.setattr(_fastmap, "_walk", raises)
    with pytest.raises(ValueError, match="^share failed$"):
        _ensemble_run(m, 4)
    assert calls == [os.getpid()]


def test_birkhoff_histogram_rejects_burn_in_past_the_orbit(cheb):
    with pytest.raises(RuntimeError):
        de.birkhoff_histogram(cheb, seed_count=2, n_steps=500, burn_in=500)


def test_birkhoff_histogram_without_streams_bins_nothing(cheb):
    with pytest.raises(RuntimeError, match="all orbit points"):
        de.birkhoff_histogram(cheb, seed_count=0, n_steps=2000)


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
