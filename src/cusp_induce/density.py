"""Invariant density estimation through the induced map.

The induced map gets a sparse transfer (Ulam) matrix whose stationary vector
approximates the induced invariant density; pulling that measure back along
the pre-inducing orbit segments yields the absolutely continuous invariant
density of the original map.  Long-orbit Birkhoff histograms provide an
independent cross-check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import _fastmap, _vec

_LOG = logging.getLogger(__name__)


def l1_distance(h1, h2, cell_width: float) -> float:
    """L1 distance between two piecewise-constant densities on one grid."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.shape != h2.shape:
        raise ValueError("density grids differ")
    return float(np.sum(np.abs(h1 - h2)) * cell_width)


# ---------------------------------------------------------------------------
# transfer matrix of the induced map


@dataclass
class UlamTable:
    matrix: object              # csr, row stochastic
    m: int
    edges: np.ndarray
    cell_width: float
    coverage: np.ndarray        # resolved mass per cell before normalization
    flagged_rows: np.ndarray    # renormalized (partially unresolved) rows
    dead_rows: np.ndarray       # fully unresolved rows, set to uniform

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "nnz": int(self.matrix.nnz),
            "flagged_rows": int(self.flagged_rows.sum()),
            "dead_rows": int(self.dead_rows.sum()),
            "min_coverage": float(self.coverage.min()),
        }


def _transfer_matrix(m, edges: np.ndarray, groups):
    """Row-normalized transfer matrix of branches cut at edge preimages.

    groups yields (itin, a, b, preimages): branch k of a group runs over
    [a[k], b[k]] along itinerary row k, and preimages[k] holds the points it
    maps onto cell edges.  Cut there and at the edges, each piece carries
    its width from the cell of its midpoint into the cell of the midpoint's
    image.  Rows without resolved mass are dead and stay zero.  Returns
    (csr matrix, coverage, dead mask).
    """
    lo, m_cells = edges[0], edges.size - 1
    cw = (edges[-1] - lo) / m_cells

    def cell(x):
        return np.clip(((x - lo) / cw).astype(np.int64), 0, m_cells - 1)

    empty = np.empty(0, dtype=np.int64)
    rows, cols, mass = [empty], [empty], [np.empty(0)]
    for itin, a, b, preimages in groups:
        cuts = [np.unique(np.concatenate(
            [[u], pre, edges[(edges > u) & (edges < v)], [v]]))
            for u, v, pre in zip(a, b, preimages)]
        mids = np.concatenate([0.5 * (c[:-1] + c[1:]) for c in cuts])
        owner = np.repeat(np.arange(len(cuts)), [c.size - 1 for c in cuts])
        rows.append(cell(mids))
        cols.append(cell(_vec.forced_forward(m, itin, owner, mids)))
        mass.append(np.concatenate([np.diff(c) for c in cuts]))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    mass = np.concatenate(mass)
    coverage = np.bincount(rows, weights=mass, minlength=m_cells) / cw
    mat = sparse.coo_matrix((mass / cw, (rows, cols)),
                            shape=(m_cells, m_cells)).tocsr()
    dead = coverage <= 1e-12
    scale = np.zeros(m_cells)
    scale[~dead] = 1.0 / coverage[~dead]
    return (sparse.diags(scale) @ mat).tocsr(), coverage, dead


def ulam_matrix(m, partition, m_cells: int = 4096) -> UlamTable:
    """Row-stochastic transfer matrix of the induced map on a uniform grid.

    Entry (i, j) holds the fraction of cell i carried into cell j by the
    induced map, assembled from preimages of the cell boundaries, bisected
    along the branch itineraries a group of branches at a time.  Rows
    overlapping the unresolved set are renormalized and flagged; rows with
    no resolved mass at all fall back to a uniform distribution and are
    reported as dead.
    """
    if m_cells < 1:
        raise ValueError("m_cells must be >= 1")
    lo, hi = partition.lo, partition.hi
    edges = np.linspace(lo, hi, m_cells + 1)
    cw = (hi - lo) / m_cells
    branches = partition.branches
    # the grid pass of forced_inverse holds 2n + 17 points for n targets
    images = np.array([br.image for br in branches]).reshape(-1, 2)
    sizes = 17 + 2 * np.diff(np.searchsorted(edges, images), axis=1).ravel()
    n_targets = 0

    def groups():
        nonlocal n_targets
        for s, e in _vec.chunk_ranges(sizes):
            group = branches[s:e]
            itin = _vec.itinerary_matrix([br.itinerary for br in group])
            a = [br.a for br in group]
            b = [br.b for br in group]
            targets = [edges[(edges > br.image[0]) & (edges < br.image[1])]
                       for br in group]
            n_targets += sum(t.size for t in targets)
            yield itin, a, b, _vec.forced_inverse(
                m, itin, a, b, [br.orientation > 0 for br in group], targets)

    mat, coverage, dead = _transfer_matrix(m, edges, groups())
    dead_idx = np.nonzero(dead)[0]
    if dead_idx.size:
        r2 = np.repeat(dead_idx, m_cells)
        c2 = np.tile(np.arange(m_cells), dead_idx.size)
        v2 = np.full(r2.size, 1.0 / m_cells)
        mat = (mat + sparse.coo_matrix(
            (v2, (r2, c2)), shape=(m_cells, m_cells)).tocsr()).tocsr()
        _LOG.warning("ulam matrix has %d dead rows (unresolved cells)",
                     dead_idx.size)
    flagged = (~dead) & (np.abs(coverage - 1.0) > 1e-12)
    _LOG.info("ulam_matrix: %d branches, %d targets inverted, %d nonzeros, "
              "%d dead rows, %d flagged rows", len(branches), n_targets,
              mat.nnz, dead_idx.size, int(flagged.sum()))
    return UlamTable(matrix=mat, m=m_cells, edges=edges, cell_width=cw,
                     coverage=coverage, flagged_rows=flagged, dead_rows=dead)


def stationary_density(table: UlamTable, tol: float = 1e-10,
                       max_iters: int = 100000) -> np.ndarray:
    """Stationary density of the transfer matrix by power iteration.

    Starts from the uniform vector (a table that merely permutes cells
    therefore returns uniform immediately).  A detected period-2
    oscillation is averaged away once; a second detection raises.
    """
    P = table.matrix
    v = np.full(table.m, 1.0 / table.m)
    prev = None
    averaged = False
    for it in range(1, int(max_iters) + 1):
        w = np.asarray(v @ P).ravel()
        s = w.sum()
        if s <= 0:
            raise RuntimeError("transfer matrix lost all mass")
        w /= s
        step = np.abs(w - v).sum()
        if step < tol:
            _LOG.info("stationary_density: %d iterations, final L1 step "
                      "%.3g, period-2 averaging %s", it, step,
                      "ran" if averaged else "not needed")
            return w / table.cell_width
        if prev is not None and np.abs(w - prev).sum() < tol:
            if averaged:
                raise RuntimeError(
                    "power iteration oscillates after averaging")
            w = 0.5 * (w + v)
            averaged = True
        prev = v
        v = w
    raise RuntimeError(
        f"power iteration did not converge in {int(max_iters)} steps")


# ---------------------------------------------------------------------------
# pullback to the original map


def pull_back(m, partition, h_induced: np.ndarray, m_cells: int = 4096
              ) -> np.ndarray:
    """Push the induced invariant measure through the pre-inducing steps.

    Each resolved branch contributes its measure at every orbit step before
    the inducing time.  Masses ride on midpoint chunks sized against the
    branch's sup |Df-hat| bound (rounded to nearest, capped) so image
    binning stays near cell scale; mass on the unresolved set is dropped.  The total is
    normalized to a density on a uniform grid.
    """
    h_induced = np.asarray(h_induced, dtype=float)
    lo, hi = partition.lo, partition.hi
    cw = (hi - lo) / m_cells
    cw_in = (hi - lo) / h_induced.size
    out = np.zeros(m_cells)
    branches = partition.branches

    def chunk_count(br):
        sup = br.sup_df if np.isfinite(br.sup_df) else 1e7
        return int(np.clip(4.0 * br.width * min(sup, 1e7) / cw, 16, 8192))

    sizes = [chunk_count(br) for br in branches]
    for s, e in _vec.chunk_ranges(sizes):
        group = branches[s:e]
        K = sizes[s:e]
        xs = np.concatenate([br.a + (np.arange(k) + 0.5) * (br.width / k)
                             for br, k in zip(group, K)])
        src = np.clip(((xs - lo) / cw_in).astype(np.int64),
                      0, h_induced.size - 1)
        chunk_w = np.repeat([br.width / k for br, k in zip(group, K)], K)
        mass = h_induced[src] * chunk_w

        def bin_mass(live, pos):
            nonlocal out
            idx = np.clip(((pos[live] - lo) / cw).astype(np.int64),
                          0, m_cells - 1)
            out += np.bincount(idx, weights=mass[live], minlength=m_cells)

        _vec.forced_forward(
            m, _vec.itinerary_matrix([br.itinerary for br in group]),
            np.repeat(np.arange(len(group)), K), xs, visit=bin_mass)
    total = out.sum()
    if total <= 0:
        raise RuntimeError("pullback produced no mass")
    return out / (total * cw)


def invariance_residual(m, h_map: np.ndarray, m_cells: int | None = None
                        ) -> float:
    """L1 defect of a density under one exact transfer step of the map.

    Builds a one-step transfer matrix for the map itself (cell edges
    inverted per monotone branch by bisection) and returns the L1 distance,
    on the probability scale, between the pushed-forward vector and the
    input.
    """
    h_map = np.asarray(h_map, dtype=float)
    if m_cells is None:
        m_cells = h_map.size
    if m_cells != h_map.size:
        raise ValueError("grid size does not match density")
    lo, hi = m.lo, m.hi
    edges = np.linspace(lo, hi, m_cells + 1)
    cw = (hi - lo) / m_cells
    n = len(m.branches)
    ids, pre = _vec.preimages(m, edges)
    group = (_vec.itinerary_matrix([(i,) for i in range(n)]),
             [br.a for br in m.branches], [br.b for br in m.branches],
             [pre[ids == i] for i in range(n)])
    P, _coverage, _dead = _transfer_matrix(m, edges, [group])
    p = h_map * cw
    tot = p.sum()
    if tot <= 0:
        raise ValueError("density has no mass")
    p = p / tot
    q = np.asarray(p @ P).ravel()
    return float(np.abs(q - p).sum())


# ---------------------------------------------------------------------------
# long-orbit cross-check


def birkhoff_histogram(m, seed_count: int = 10, n_steps: int = 10**7,
                       m_cells: int = 1024, burn_in: int = 1000,
                       seed: int = 0) -> np.ndarray:
    """Occupation histogram of long random orbits, as a density.

    Each of the seed_count child streams of SeedSequence(seed) draws W start
    points and then its restart pool, W = min(_fastmap.WALKERS,
    n_steps - burn_in).  All walkers step in lockstep: each takes burn_in
    unbinned steps, then ceil((n_steps - burn_in) / W) binned ones, so a
    stream bins about n_steps - burn_in points.  A walker restarts from its
    stream's pool on escape or on an exact hit of a critical location, and
    the restarted point is not binned.  Raises if burn_in leaves no step to
    bin or every binned step was a restart.
    """
    counted = int(n_steps) - int(burn_in)
    if counted <= 0:
        raise RuntimeError("burn-in discards every orbit point")
    walkers = min(_fastmap.WALKERS, counted)
    starts, pools = [], []
    for child in np.random.SeedSequence(seed).spawn(seed_count):
        rng = np.random.default_rng(child)
        starts.append(rng.uniform(m.lo, m.hi, walkers))
        pools.append(rng.uniform(m.lo, m.hi, _fastmap.POOL))
    cw = (m.hi - m.lo) / m_cells
    hist = np.zeros(m_cells, dtype=np.int64)
    stepper = _fastmap.get_stepper(m)
    escapes, restarts = stepper(
        np.reshape(starts, (seed_count, walkers)),
        np.reshape(pools, (seed_count, _fastmap.POOL)),
        int(burn_in), -(-counted // walkers), hist)
    count = hist.sum()
    if count == 0:
        raise RuntimeError("all orbit points escaped or were discarded")
    if escapes or restarts:
        _LOG.info("birkhoff orbits: %d escapes, %d critical restarts",
                  escapes, restarts)
    return hist / (count * cw)


# ---------------------------------------------------------------------------
# end-to-end estimate


@dataclass
class DensityEstimate:
    m: int
    edges: np.ndarray
    h_induced: np.ndarray
    h_map: np.ndarray
    invariance_residual: float
    unresolved_mass: float
    params: dict = field(default_factory=dict)

    def cell_centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "invariance_residual": self.invariance_residual,
            "unresolved_mass": self.unresolved_mass,
            "density_min": float(self.h_map.min()),
            "density_max": float(self.h_map.max()),
            "params": dict(self.params),
        }

    def write_csv(self, path) -> None:
        centers = self.cell_centers()
        with open(path, "w") as fh:
            fh.write("cell_center,density\n")
            for c, d in zip(centers, self.h_map):
                fh.write(f"{float(c)!r},{float(d)!r}\n")


def density_pipeline(m, partition, m_cells: int = 4096,
                     m_induced: int | None = None, tol: float = 1e-10,
                     max_iters: int = 100000) -> DensityEstimate:
    """Ulam matrix, stationary vector, pullback, and residual in one call."""
    if m_induced is None:
        m_induced = m_cells
    table = ulam_matrix(m, partition, m_induced)
    h_ind = stationary_density(table, tol=tol, max_iters=max_iters)
    h_map = pull_back(m, partition, h_ind, m_cells)
    residual = invariance_residual(m, h_map)
    width = partition.hi - partition.lo
    return DensityEstimate(
        m=m_cells,
        edges=np.linspace(partition.lo, partition.hi, m_cells + 1),
        h_induced=h_ind,
        h_map=h_map,
        invariance_residual=residual,
        unresolved_mass=float(partition.unresolved_measure / width),
        params={"m_induced": int(m_induced), "tol": tol,
                "dead_rows": int(table.dead_rows.sum()),
                "flagged_rows": int(table.flagged_rows.sum())},
    )
