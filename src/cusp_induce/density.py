"""Invariant density estimation through the induced map.

The induced map gets a sparse transfer (Ulam) matrix whose stationary vector
approximates the induced invariant measure nu; pushing nu along the
pre-inducing steps (mu = sum_k f^k_*(nu on {tau > k})) yields the
absolutely continuous invariant density of the original map.  Long-orbit
Birkhoff histograms provide an independent cross-check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import _fastmap, _vec
from .critical_orbit import write_csv
from .distortion import abs_df_extrema, array_end_orbits, raise_first

_LOG = logging.getLogger(__name__)

# Pieces pull_back splits each source-grid piece of a branch into.
PULL_BACK_SPLITS = 4
POWER_TOL = 1e-10       # stationary_density stops at an L1 step below this
POWER_STEPS = 100000    # or raises after this many steps


def l1_distance(h1, h2, cell_width: float) -> float:
    """L1 distance between two piecewise-constant densities on one grid."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.shape != h2.shape:
        raise ValueError("density grids differ")
    return float(np.sum(np.abs(h1 - h2)) * cell_width)


# ---------------------------------------------------------------------------
# transfer matrix of the induced map


class Csr:
    """A sparse matrix in compressed sparse rows: row i holds the entries
    data[indptr[i]:indptr[i + 1]] in the ascending int32 columns
    indices[indptr[i]:indptr[i + 1]].  v @ P adds each entry's product
    into its column in storage order, as scipy's csr matrices do."""

    __array_ufunc__ = None      # ndarray @ Csr defers to __rmatmul__

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = shape

    @property
    def nnz(self) -> int:
        return self.data.size

    def entry_row(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    @classmethod
    def from_entries(cls, key, vals, shape, row_scale=None):
        """Entries vals at row key // n_cols, column key % n_cols: duplicates
        summed in input order, then times row_scale[row] if given; zero
        sums are dropped.  Sorts key and vals in place, and reuses the
        sort order's memory: the Ulam assembly's entries are its largest
        arrays."""
        n_rows, n_cols = shape
        order = np.argsort(key, kind="stable")
        vals[:] = vals[order]
        key[:] = key[order]
        new = np.ones(key.size, dtype=bool)
        new[1:] = key[1:] != key[:-1]
        seg = np.cumsum(new, out=order)
        seg -= 1
        # bincount adds in input order; np.add.reduceat sums pairwise
        data = np.bincount(seg, vals)
        order = seg = None
        key = key[new]
        starts = np.arange(n_rows + 1, dtype=np.int64) * n_cols
        indptr = np.searchsorted(key, starts)
        if row_scale is not None:
            data *= np.repeat(row_scale, np.diff(indptr))
        if not data.all():
            data, key = data[data != 0], key[data != 0]
            indptr = np.searchsorted(key, starts)
        key -= np.repeat(starts[:-1], np.diff(indptr)).astype(key.dtype)
        return cls(data, key.astype(np.int32), indptr, shape)

    def __rmatmul__(self, v) -> np.ndarray:
        v = np.repeat(np.asarray(v, dtype=float), np.diff(self.indptr))
        return np.bincount(self.indices, self.data * v, self.shape[1])


@dataclass
class UlamTable:
    matrix: Csr                 # row stochastic
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


def _pieces(edges, a, b, preimages, n_pre, increasing, first):
    """The pieces of branches cut at edge preimages and at the edges.

    Branch k runs over [a[k], b[k]], monotone in the sense increasing[k],
    and owns the next n_pre[k] of the flat preimages: the points it maps
    onto the consecutive cell edges from edges[first[k]] upwards.  A piece
    between consecutive cuts maps into the cell read from the number s of
    preimages at or left of its left cut: first - 1 + s for an increasing
    branch and first - 1 + n - s for a decreasing one, n = n_pre[k].
    Returns (owner, midpoint, width, column) per piece.
    """
    B = len(a)
    n_pre = np.asarray(n_pre, dtype=np.int64)
    e_lo = np.searchsorted(edges, a, side="right")
    n_edge = np.maximum(np.searchsorted(edges, b, side="left") - e_lo, 0)
    starts = np.repeat(e_lo - np.cumsum(n_edge) + n_edge, n_edge)
    x = np.concatenate([a, b, preimages,
                        edges[starts + np.arange(starts.size)]])
    rows = np.arange(B)
    owner = np.concatenate([rows, rows, np.repeat(rows, n_pre),
                            np.repeat(rows, n_edge)])
    is_pre = np.zeros(x.size, dtype=np.int64)
    is_pre[2 * B:2 * B + n_pre.sum()] = 1
    order = np.lexsort((x, owner))
    x, owner = x[order], owner[order]
    below = np.cumsum(is_pre[order])
    # the last of each run of equal cuts counts every preimage there
    last = np.ones(x.size, dtype=bool)
    last[:-1] = (x[1:] != x[:-1]) | (owner[1:] != owner[:-1])
    x, owner, below = x[last], owner[last], below[last]
    left = np.flatnonzero(owner[1:] == owner[:-1])
    k = owner[left]
    s = below[left] - (np.cumsum(n_pre) - n_pre)[k]
    col = np.asarray(first)[k] - 1 + np.where(
        np.asarray(increasing, dtype=bool)[k], s, n_pre[k] - s)
    col = np.clip(col, 0, edges.size - 2)
    return k, 0.5 * (x[left] + x[left + 1]), x[left + 1] - x[left], col


def _piece_bound(edges, a, b, n_targets) -> int:
    """Most pieces branches [a[k], b[k]] with n_targets[k] preimages can
    have: one per cut at a preimage or at an edge inside (a, b), plus one."""
    inside = np.searchsorted(edges, b) - np.searchsorted(edges, a, "right")
    return int((np.asarray(n_targets) + 1 + np.maximum(inside, 0)).sum())


def _edge_matrix(m, edges, a, b, images, itin, up):
    """Row-normalized transfer matrix of branches cut at edge preimages.

    Branch k runs over [a[k], b[k]], monotone in the sense up[k], and maps
    onto images[k] along itinerary row k of itin (-1 past its end).
    _vec.forced_inverse pulls the edges strictly inside each image back
    onto its branch in one pass, in this process, whose steps branches
    ending in the same itinerary suffix share.  Each piece (_pieces), cut
    one chunk_ranges group of branches at a time, carries its width from
    the cell of its midpoint into the cell of its image.  Rows without
    resolved mass are dead and spread uniformly over every cell.  Returns
    (Csr, coverage, dead mask, counts): counts are the targets, their
    point-steps back, the targets clamped, the point-steps through a
    formula group with no closed-form inverse, and the point-steps of the
    shared pass, all and bisected.
    """
    lo, m_cells = edges[0], edges.size - 1
    cw = (edges[-1] - lo) / m_cells
    first = np.searchsorted(edges, images[:, 0], side="right")
    counts = np.maximum(np.searchsorted(edges, images[:, 1]) - first, 0)
    bisected = np.array([inv is None for inv in m.group_inverses] + [False])[
        m.formula_groups[0][itin]].sum(1)
    clamped = np.zeros(int(counts.sum()), dtype=bool)
    shared = [0, 0]
    pre = _vec.forced_inverse(m, itin, a, b, edges, first, counts, clamped,
                              shared)
    stats = [clamped.size, int(counts @ (itin >= 0).sum(1)),
             int(np.count_nonzero(clamped)), int(counts @ bisected), *shared]
    clamped = None
    start = np.concatenate(([0], np.cumsum(counts)))
    # key = row * m_cells + column; int32 where it holds every key halves
    # the largest arrays of the assembly
    n_pieces = _piece_bound(edges, a, b, counts)
    key = np.empty(n_pieces, dtype=np.int32 if m_cells**2 <= 2**31
                   else np.int64)
    mass = np.empty(n_pieces)
    n = 0
    for s, e in _vec.chunk_ranges(1 + counts):
        _owner, mids, widths, col = _pieces(
            edges, a[s:e], b[s:e], pre[start[s]:start[e]], counts[s:e],
            up[s:e], first[s:e])
        k = n + mids.size
        key[n:k] = np.clip(((mids - lo) / cw).astype(np.int64), 0,
                           m_cells - 1) * m_cells + col
        mass[n:k] = widths
        n = k
    # the sort below sets the assembly's peak memory: drop the pull-back's
    # arrays first
    pre = _owner = mids = widths = col = None
    key, mass = key[:n], mass[:n]
    coverage = np.bincount(key // m_cells, mass, m_cells) / cw
    dead = coverage <= 1e-12
    scale = np.ones(m_cells)
    scale[~dead] = 1.0 / coverage[~dead]
    mass /= cw
    dead_idx = np.flatnonzero(dead)
    if dead_idx.size:
        # a dead row's own pieces drop out; it takes 1/m in every column
        mass[dead[key // m_cells]] = 0.0
        key = np.concatenate((key, (dead_idx[:, None] * m_cells
                                    + np.arange(m_cells)).ravel()
                              .astype(key.dtype)))
        mass = np.concatenate((mass, np.full(dead_idx.size * m_cells,
                                             1.0 / m_cells)))
    mat = Csr.from_entries(key, mass, (m_cells, m_cells), scale)
    return mat, coverage, dead, stats


def ulam_matrix(m, partition, m_cells: int = 4096) -> UlamTable:
    """Row-stochastic transfer matrix of the induced map on a uniform grid.

    Entry (i, j) holds the fraction of cell i carried into cell j by the
    induced map, assembled from preimages of the cell boundaries pulled
    back along the partition's itinerary matrix (_edge_matrix).  Rows
    overlapping the unresolved set are renormalized and flagged; rows with
    no resolved mass at all fall back to a uniform distribution and are
    reported as dead.
    """
    if m_cells < 1:
        raise ValueError("m_cells must be >= 1")
    lo, hi = partition.lo, partition.hi
    edges = np.linspace(lo, hi, m_cells + 1)
    cw = (hi - lo) / m_cells
    mat, coverage, dead, counts = _edge_matrix(
        m, edges, partition.a, partition.b, partition.image, partition.itin,
        partition.orientation > 0)
    n_dead = int(dead.sum())
    if n_dead:
        _LOG.warning("ulam matrix has %d dead rows (unresolved cells)",
                     n_dead)
    flagged = (~dead) & (np.abs(coverage - 1.0) > 1e-12)
    _LOG.info("ulam_matrix: %d branches, %d targets inverted, %d nonzeros, "
              "%d dead rows, %d flagged rows; %d point-steps back, %d "
              "targets clamped, %d point-steps bisected; once per shared "
              "itinerary suffix %d point-steps back, %d bisected",
              partition.a.size, counts[0], mat.nnz, n_dead,
              int(flagged.sum()), *counts[1:])
    return UlamTable(matrix=mat, m=m_cells, edges=edges, cell_width=cw,
                     coverage=coverage, flagged_rows=flagged, dead_rows=dead)


def stationary_density(table: UlamTable) -> np.ndarray:
    """Stationary density of the transfer matrix by power iteration.

    Starts from the uniform vector (a table that merely permutes cells
    therefore returns uniform immediately) and stops at the first L1 step
    below POWER_TOL.  A detected period-2 oscillation is averaged away
    once; a second detection raises.
    """
    P = table.matrix
    # v @ P in buffers made once: a step allocates nothing of P's size, which
    # page-faults afresh on every step wherever malloc trims its heap
    rows, cols, buf = P.entry_row(), P.indices.astype(np.intp), np.empty(P.nnz)
    v = np.full(table.m, 1.0 / table.m)
    prev, averaged = None, False
    for it in range(1, POWER_STEPS + 1):
        np.take(v, rows, out=buf, mode="clip")    # unbuffered; rows are valid
        w = np.bincount(cols, np.multiply(buf, P.data, out=buf), table.m)
        s = w.sum()
        if s <= 0:
            raise RuntimeError("transfer matrix lost all mass")
        w /= s
        step = np.abs(w - v).sum()
        if step < POWER_TOL:
            _LOG.info("stationary_density: %d iterations, final L1 step "
                      "%.3g, period-2 averaging %s", it, step,
                      "ran" if averaged else "not needed")
            return w / table.cell_width
        if prev is not None and np.abs(w - prev).sum() < POWER_TOL:
            if averaged:
                raise RuntimeError(
                    "power iteration oscillates after averaging")
            w = 0.5 * (w + v)
            averaged = True
        prev = v
        v = w
    raise RuntimeError(
        f"power iteration did not converge in {POWER_STEPS} steps")


# ---------------------------------------------------------------------------
# pullback to the original map


def pull_back(m, partition, h_induced: np.ndarray, m_cells: int = 4096
              ) -> np.ndarray:
    """Push the induced measure nu (density h_induced) along the
    pre-inducing steps: mu = sum_k f^k_*(nu on {tau > k}), normalized.

    Branches are cut at the edges of h_induced's grid (_pieces) and each
    piece, where nu has constant density, in PULL_BACK_SPLITS; one
    array_end_orbits pass along the partition's itinerary matrix follows
    all ends, and before each step a piece spreads its mass uniformly
    between them.  Unresolved mass is dropped.
    RuntimeError unless the deposited total is finite and equals the
    integral of tau d nu (piece masses times tau) to 1e-12 relative.
    """
    lo, hi = partition.lo, partition.hi
    B, n_in, k = partition.a.size, np.size(h_induced), PULL_BACK_SPLITS
    cw = (hi - lo) / m_cells
    owner, mids, widths, _col = _pieces(
        np.linspace(lo, hi, n_in + 1), partition.a, partition.b, np.empty(0),
        [0] * B, [True] * B, [0] * B)
    src = np.minimum(((mids - lo) / (hi - lo) * n_in).astype(int), n_in - 1)
    owner, step = np.repeat(owner, k), np.repeat(widths / k, k)
    left = ((mids - 0.5 * widths)[:, None]
            + (widths / k)[:, None] * np.arange(k)).ravel()
    mass = np.repeat(np.asarray(h_induced, dtype=float)[src], k) * step
    tau = partition.tau[owner]
    out, diff = np.zeros(m_cells), np.zeros(m_cells + 1)
    worst, unbounded = 1.0, 0

    def deposit(live, ids, u, v, du, dv):
        nonlocal out, diff, worst, unbounded
        inf, sup = abs_df_extrema(m, ids, u, v, du, dv)
        ok = (inf > 0) & np.isfinite(sup)    # sup / inf is bounded
        unbounded += ok.size - int(ok.sum())
        worst = max(worst, float((sup[ok] / inf[ok]).max(initial=1.0)))
        # cell coordinates of the ends, clamped so the mass stays on the grid
        u, v = np.clip((np.stack((u, v)) - lo) / cw, 0.0, m_cells)
        cu, cv = np.minimum(u, v), np.maximum(u, v)
        iu, iv = np.minimum((cu, cv), m_cells - 1).astype(np.int64)
        w, one = mass[live], iu == iv
        d = w / np.where(one, 1.0, cv - cu)
        out += np.bincount(iu, np.where(one, w, d * (iu + 1 - cu)), m_cells)
        out += np.bincount(iv, np.where(one, 0.0, d * (cv - iv)), m_cells)
        full = iv > iu + 1
        diff += np.bincount(iu[full] + 1, d[full], m_cells + 1)
        diff -= np.bincount(iv[full], d[full], m_cells + 1)

    raise_first(array_end_orbits(m, partition.itin, left, left + step,
                                 deposit, owner)[3])
    out += np.cumsum(diff[:-1])
    # elementwise: np.dot would call BLAS, which a forked child must not
    total, kac = out.sum(), float((mass * tau).sum())
    _LOG.info("pull_back: %d branches, %d pieces, %d piece-steps, raw total "
              "%.6g (integral of tau d nu), worst per-step sup/inf |Df| on a "
              "piece %.4g, %d piece-steps with it unbounded", B,
              owner.size, tau.sum(), total, worst, unbounded)
    if not (total > 0 and abs(total - kac) <= 1e-12 * kac):
        raise RuntimeError(f"pull_back deposited {float(total)!r}, but "
                           f"the piece masses times tau sum to {kac!r}")
    return out / (total * cw)


def invariance_residual(m, h_map: np.ndarray) -> float:
    """L1 defect of a density under one exact transfer step of the map.

    Builds a one-step transfer matrix for the map itself on the density's
    own grid of equal cells (_edge_matrix, each branch a one-step
    itinerary) and returns the L1 distance, on the probability scale,
    between the pushed-forward vector and the input.
    """
    h_map = np.asarray(h_map, dtype=float)
    m_cells = h_map.size
    lo, hi = m.lo, m.hi
    edges = np.linspace(lo, hi, m_cells + 1)
    cw = (hi - lo) / m_cells
    P = _edge_matrix(m, edges, np.array([br.a for br in m.branches]),
                     np.array([br.b for br in m.branches]),
                     np.array(m.branch_images),
                     np.arange(len(m.branches))[:, None],
                     np.array(m.monotone_signs) > 0)[0]
    p = h_map * cw
    tot = p.sum()
    if tot <= 0:
        raise ValueError("density has no mass")
    p = p / tot
    q = p @ P
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
    the restarted point is not binned.  The streams are dealt whole to one
    process per CPU, up to _vec.MAX_WORKERS and at most one per
    _fastmap.SHARE_POINTS walkers (_fastmap); the histogram and the logged
    counts are the same bits for every number of processes.  Raises if
    burn_in leaves no step to bin or every binned step was a restart.
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
        write_csv(path, "cell_center,density",
                  zip(self.cell_centers().tolist(), self.h_map.tolist()))


def density_pipeline(m, partition, m_cells: int = 4096,
                     m_induced: int | None = None) -> DensityEstimate:
    """Ulam matrix, stationary vector, pullback, and residual in one call."""
    if m_induced is None:
        m_induced = m_cells
    table = ulam_matrix(m, partition, m_induced)
    h_ind = stationary_density(table)
    h_map = pull_back(m, partition, h_ind, m_cells)
    return density_estimate(partition, h_ind, h_map,
                            invariance_residual(m, h_map),
                            int(table.dead_rows.sum()),
                            int(table.flagged_rows.sum()))


def density_estimate(partition, h_induced, h_map, residual: float,
                     dead_rows: int, flagged_rows: int) -> DensityEstimate:
    """density_pipeline's estimate from its results; the grids' sizes are
    those of h_induced and h_map, and the rest comes from partition."""
    return DensityEstimate(
        m=h_map.size,
        edges=np.linspace(partition.lo, partition.hi, h_map.size + 1),
        h_induced=h_induced,
        h_map=h_map,
        invariance_residual=residual,
        unresolved_mass=float(partition.unresolved_measure
                              / (partition.hi - partition.lo)),
        params={"m_induced": h_induced.size, "tol": POWER_TOL,
                "dead_rows": dead_rows, "flagged_rows": flagged_rows},
    )
