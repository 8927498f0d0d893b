"""Binding periods and the induced-map partition.

A point inside a one-sided neighborhood of a critical point binds to the
critical orbit until its separation first exceeds the gamma-scaled critical
distance, a test that binding_periods alone applies; outside the
neighborhoods, orbits run freely for at most q0 steps.
The partition builder turns this into maximal intervals on which the induced
map f-hat = f^tau is a diffeomorphism, together with an explicit unresolved
set, and the lemma checker replays the geometric inequalities the
construction relies on.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from . import _vec
from .critical_orbit import compute_orbit, orbit_records, write_csv
from .distortion import (POSITIONAL, abs_df_extrema, array_end_orbits,
                         orbit_extrema, raise_first)
from .expr import EvalDomainError
from .map_model import _IMAGE_TOL, _check_delta, critical_distance, evaluate

_EDGE_EPS = 1e-14
_LOG = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# binding period


@dataclass
class BindingResult:
    x: float
    critical_point: object
    p: int
    trajectory: list  # rows (j, separation, gamma_j * d(c_j), d(segment_j))
    truncated: bool
    df_p: float


# Failure codes of binding_periods, in place of a period (binding_period
# raises ValueError for the first four, RuntimeError for the last).
OUTSIDE, UNDEFINED, FLAT, ESCAPED, RECORD_SHORT = -1, -2, -3, -4, -5
FAILURES = {OUTSIDE: "outside", UNDEFINED: "undefined", FLAT: "flat",
            ESCAPED: "escaped", RECORD_SHORT: "record-short"}


BindingPeriods = namedtuple("BindingPeriods",
                            "p truncated df_p sep tube seg_d")


def binding_periods(m, cp, xs, delta=None, records=None, p_max: int = 60
                    ) -> BindingPeriods:
    """The binding rule for an array of points xs on cp's side (order > 1).

    Each point follows the critical orbit c_j of cp, one batched order-1
    step at a time, until |f^j(x) - c_j| first exceeds tube[j - 1] =
    gamma_j * d(c_j): that j is its period p, else p is a failure code
    (FAILURES).  A point still bound after p_max steps is truncated at
    p = p_max.  df_p = |Df^p| is exp of the summed math.log |Df|, as the
    orbit record sums its log D_n (NaN on failures).  The rows sep and
    seg_d hold |f^j(x) - c_j| and min(d(f^j(x)), d(c_j)) for j = 1..p, NaN
    past p.  cp's record comes from records, recomputed when it is missing
    or shorter than p_max.
    """
    delta = m.delta if delta is None else float(delta)
    rec = None if records is None else records.get((cp.location, cp.side))
    if rec is None or rec.N < p_max:
        rec = compute_orbit(m, cp, p_max + 1)
    x = np.array(xs, dtype=float)
    inside = _vec.in_side(x, cp.location, cp.side, delta)
    p = np.where(inside, p_max, OUTSIDE)
    steps = min(p_max, rec.n_filled)
    tube = rec.gamma[:steps] * rec.d[:steps]
    sep, seg_d = np.full((2, x.size, steps), np.nan)
    log_df = np.zeros(x.size)
    live = np.flatnonzero(inside)           # the points still bound
    y = x[live]
    for j in range(1, min(p_max, rec.n_filled + 1) + 1):
        v, d1 = _vec.step_values(m, y, 1)
        a = np.abs(d1)
        # the first failure that applies wins: a non-finite value or Df,
        # Df = 0, an escape, then the end of the critical record.  No step
        # starts on a branch boundary: boundaries are critical locations,
        # which a bound point keeps d(c_j) / 2 away from while d(c_j) > 0.
        fail = np.where((v < m.lo - _IMAGE_TOL) | (v > m.hi + _IMAGE_TOL),
                        ESCAPED, RECORD_SHORT if j > rec.n_filled else 0)
        fail[a == 0.0] = FLAT
        fail[~np.isfinite(v + a)] = UNDEFINED
        ok = fail == 0
        p[live[~ok]] = fail[~ok]
        live, y, a = live[ok], np.clip(v[ok], m.lo, m.hi), a[ok]
        if not live.size:
            break
        log_df[live] += np.fromiter(map(math.log, a.tolist()), float, a.size)
        sep[live, j - 1] = s = np.abs(y - rec.c[j - 1])
        seg_d[live, j - 1] = np.minimum(critical_distance(m, y), rec.d[j - 1])
        ended = s > tube[j - 1]
        p[live[ended]] = j
        live, y = live[~ended], y[~ended]
    truncated = np.zeros(x.size, dtype=bool)
    truncated[live] = True
    df_p = np.where(p >= 0, np.fromiter(map(math.exp, log_df.tolist()),
                                        float, x.size), np.nan)
    return BindingPeriods(p, truncated, df_p, sep, tube, seg_d)


def binding_period(m, x, delta=None, records=None, p_max: int = 60
                   ) -> BindingResult:
    """Smallest p with |f^p(x) - c_p| > gamma_p * d(c_p).

    x must lie inside one of the one-sided critical neighborhoods.  Points
    on the singular side (order <= 1) take p = 1 by convention, with no
    comparisons.  If every step up to p_max stays bound, the result is
    truncated at p_max.  Otherwise this is the one-point case of
    binding_periods, raising for its failure codes.
    """
    delta = m.delta if delta is None else float(delta)
    x = float(x)
    cp = next((c for c in m.critical_points if c.contains(x, delta)), None)
    if cp is None:
        raise ValueError(f"x={x!r} is not inside any critical neighborhood")
    if cp.order <= 1.0:
        return BindingResult(x, cp, 1, [], False, abs(evaluate(m, x).d1))
    b = binding_periods(m, cp, [x], delta, records, p_max)
    p = int(b.p[0])
    if p < 0:
        error = RuntimeError if p == RECORD_SHORT else ValueError
        raise error(f"binding orbit of x={x!r} failed: {FAILURES[p]}")
    rows = list(zip(range(1, p + 1), b.sep[0, :p].tolist(),
                    b.tube[:p].tolist(), b.seg_d[0, :p].tolist()))
    return BindingResult(x, cp, p, rows, bool(b.truncated[0]),
                         float(b.df_p[0]))


# ---------------------------------------------------------------------------
# first entry and inducing time


def _positional_walk(m, x, steps, delta=None):
    """Orbits of the points x, each step on the branch holding the point
    (branch_indices, ties to the right) and clamped to the domain.

    Point k takes steps[k] steps (steps broadcasts) or, with delta given,
    stops at its first position inside a neighborhood.  Returns (pos, itin,
    entry, landed): the last positions, the branch ids per step (-1 past
    the end), the entry step (-1 for none), and whether a point stood on
    an interior boundary, or stepped to a non-finite value, before it.
    """
    pos = np.array(x, dtype=float)
    steps = np.broadcast_to(steps, pos.shape)
    itin = np.full((pos.size, int(steps.max(initial=0))), -1, dtype=np.int64)
    entry = np.full(pos.size, -1, dtype=np.int64)
    landed = np.zeros(pos.size, dtype=bool)
    if delta is not None:
        entry[_vec.in_delta(m, pos, delta)] = 0
    for j in range(itin.shape[1]):
        live = np.flatnonzero((entry < 0) & (steps > j))
        if not live.size:
            break
        y = pos[live]
        ids = itin[live, j] = _vec.branch_indices(m, y)
        v = _vec.step_values(m, y, ids=ids)
        landed[live] |= np.isin(y, m.interior_boundaries) | ~np.isfinite(v)
        pos[live] = v = np.clip(v, m.lo, m.hi)
        if delta is not None:
            entry[live[_vec.in_delta(m, v, delta)]] = j + 1
    return pos, itin, entry, landed


def _entry(m, x, delta, q0: int):
    """(l, f^l(x)) for the first entry l < q0 of x into a neighborhood, else
    (None, None), by a one-point _positional_walk.  Raises EvalDomainError
    for x outside the domain and where the walk landed before entry."""
    x, q0 = float(x), int(q0)
    if not m.lo - _IMAGE_TOL <= x <= m.hi + _IMAGE_TOL:
        raise EvalDomainError(f"x={x!r} outside the domain [{m.lo}, {m.hi}]")
    pos, _itin, entry, landed = _positional_walk(
        m, [min(max(x, m.lo), m.hi)], q0, delta)
    if landed[0]:
        raise EvalDomainError(f"the orbit of x={x!r} meets a branch boundary "
                              "or a fault before its entry")
    l = int(entry[0])
    return (l, float(pos[0])) if 0 <= l < q0 else (None, None)


def first_entry(m, x, delta, q0: int):
    """Smallest l in [0, q0) with f^l(x) inside a neighborhood, else None;
    an orbit that lands on an interior boundary first raises (_entry)."""
    return _entry(m, x, delta, q0)[0]


def inducing_time(m, x, delta=None, q0: int = None, records=None,
                  p_max: int = 60) -> int:
    """q0 on the free part, l0 + p on the bound part.

    A binding truncated at p_max propagates as tau = l0 + p_max; call
    binding_period directly to observe the truncation flag.
    """
    delta = m.delta if delta is None else float(delta)
    if q0 is None:
        raise ValueError("q0 is required")
    l0, y = _entry(m, x, delta, q0)
    if l0 is None:
        return int(q0)
    return l0 + binding_period(m, y, delta, records, p_max).p


# ---------------------------------------------------------------------------
# constant-binding piece tables inside the neighborhoods


# Points per binding_periods call of a piece table: its rows take 2 x 8 x
# p_max bytes a point, which the tables never read.
_PERIOD_POINTS = 1024


def _binding_piece_table(m, cp, delta: float, records, p_max: int,
                         resolution: float):
    """Tile one one-sided neighborhood by constant-binding pieces.

    Returns (pieces, gaps): pieces are (lo, hi, p) ascending with p < p_max;
    gaps are (lo, hi, reason) slivers surrendered to the unresolved set.
    Jumps of p between samples are bisected in distance space down to 1e-12.
    """
    c = cp.location
    sgn = 1.0 if cp.side == "+" else -1.0
    if cp.order <= 1.0:
        lo, hi = (c, c + delta) if sgn > 0 else (c - delta, c)
        return [(lo, hi, 1)], []

    def periods(ds):                    # -1 for every failure
        xs = c + sgn * np.asarray(ds, dtype=float)
        p = [binding_periods(m, cp, xs[s:s + _PERIOD_POINTS], delta, records,
                             p_max).p
             for s in range(0, xs.size, _PERIOD_POINTS)]
        return np.maximum(np.concatenate(p or [[]]), -1).tolist()

    floor = max(resolution, 1e-13)
    grid = delta * np.arange(4095, 0, -1) / 4096.0
    samples = [delta * (1.0 - 1e-9)]
    samples.extend(float(d) for d in grid)
    d = delta / 8192.0
    while d > floor:
        samples.append(d)
        d *= 0.5

    # scan outward-in, stopping at a failure or once p_max is reached
    svals = []
    stop_reason = "boundary-unlocated"  # also when the floor is reached
    for dcur, p in zip(samples, periods(samples)):
        if p < 0:
            break
        svals.append((dcur, p))
        if p >= p_max:
            stop_reason = "p_max-exceeded"
            break
    inner_d = svals[-1][0] if svals else delta

    # bisect every jump of p between neighboring samples, one level of all
    # open jumps per pass; a jump to a failure or narrower than 1e-12 cuts
    # at its midpoint
    cuts = []
    jumps = [(d_in, p_in, d_out, p_out) for (d_out, p_out), (d_in, p_in)
             in zip(svals[:-1], svals[1:]) if p_in != p_out]
    while jumps:
        split = []
        for d_in, p_in, d_out, p_out in jumps:
            if p_in < 0 or p_out < 0 or d_out - d_in <= 1e-12:
                cuts.append(0.5 * (d_in + d_out))
            else:
                split.append((d_in, p_in, 0.5 * (d_in + d_out), d_out, p_out))
        jumps = [half for (d_in, p_in, dm, d_out, p_out), pm in
                 zip(split, periods([s[2] for s in split]))
                 for half in ((dm, pm, d_out, p_out), (d_in, p_in, dm, pm))
                 if half[1] != half[3]]
    cuts.sort()

    pieces, gaps = [], []
    bounds = [inner_d] + cuts + [delta]
    spans = [(d_lo, d_hi) for d_lo, d_hi in zip(bounds[:-1], bounds[1:])
             if d_hi - d_lo > 0.0]
    for (d_lo, d_hi), p in zip(
            spans, periods([0.5 * (d_lo + d_hi) for d_lo, d_hi in spans])):
        if p < 0:
            gaps.append((d_lo, d_hi, "boundary-unlocated"))
        elif p >= p_max:
            gaps.append((d_lo, d_hi, "p_max-exceeded"))
        else:
            pieces.append((d_lo, d_hi, p))
    if inner_d > 0.0:
        gaps.append((0.0, inner_d, stop_reason))

    def oriented(items):
        out = []
        for lo_d, hi_d, payload in items:
            x0, x1 = sorted((c + sgn * lo_d, c + sgn * hi_d))
            out.append((x0, x1, payload))
        return sorted(out)

    return oriented(pieces), oriented(gaps)


# ---------------------------------------------------------------------------
# branch records and partition


@dataclass(frozen=True)
class InducedBranch:
    a: float
    b: float
    kind: str                   # "free" or "bound"
    l0: object                  # int for bound branches, None for free
    p0: object                  # int for bound branches, None for free
    tau: int
    critical_point: object      # (location, side) entered, None for free
    itinerary: tuple            # branch index per step, length tau
    image: tuple
    inf_df: float
    sup_df: float
    orientation: int

    @property
    def width(self) -> float:
        return self.b - self.a

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class InducedPartition:
    branches: list
    unresolved: list            # (a, b, reason)
    unresolved_measure: float
    delta: float
    q0: int
    p_max: int
    resolution: float
    lo: float
    hi: float

    def free(self):
        return [br for br in self.branches if br.kind == "free"]

    def bound(self):
        return [br for br in self.branches if br.kind == "bound"]

    def locate(self, x: float) -> InducedBranch:
        x = float(x)
        starts = self.__dict__.get("_starts")
        if starts is None:
            starts = np.array([br.a for br in self.branches])
            self.__dict__["_starts"] = starts
        k = int(np.searchsorted(starts, x, side="right")) - 1
        if 0 <= k < len(self.branches):
            br = self.branches[k]
            if br.a < x < br.b:
                return br
        for a, b, reason in self.unresolved:
            if a <= x <= b:
                raise ValueError(
                    f"x={x!r} lies in the unresolved set ({reason})")
        raise ValueError(f"x={x!r} is not interior to any resolved branch")

    def summary(self) -> dict:
        taus = {}
        for br in self.branches:
            taus[br.tau] = taus.get(br.tau, 0) + 1
        return {
            "delta": self.delta, "q0": self.q0, "p_max": self.p_max,
            "resolution": self.resolution,
            "n_branches": len(self.branches),
            "n_free": len(self.free()), "n_bound": len(self.bound()),
            "n_unresolved": len(self.unresolved),
            "unresolved_measure": self.unresolved_measure,
            "unresolved_reasons": sorted({r for _, _, r in self.unresolved}),
            "tau_histogram": {str(t): taus[t] for t in sorted(taus)},
            "min_inf_df": (min(br.inf_df for br in self.branches)
                           if self.branches else math.nan),
        }

    def to_dict(self) -> dict:
        d = self.summary()
        d["branches"] = [br.to_dict() for br in self.branches]
        d["unresolved"] = [[a, b, r] for a, b, r in self.unresolved]
        return d


# Stage 4 cuts a branch whose |Df-hat| infimum bound is below REFINE_BELOW
# into eightfold more sub-intervals, until there are K_CAP of them.
REFINE_BELOW = 4.0
K_CAP = 512


def _branch_bounds(m, a, b, itin):
    """Stage 4: image, orientation and |Df-hat| bounds of every branch, the
    branch from a[r] to b[r] following itinerary row r of itin.

    A pass cuts each branch into k equal sub-intervals, each an
    array_end_orbits row on the branch's itinerary, all of one k together
    in runs of about _vec.CHUNK_POINTS ends.  A row sums, in step order,
    the logs of its per-step |Df| extrema (abs_df_extrema); inf and sup
    are exp of the least and largest of a branch's k sums.  k = 1 gives
    the images; branches whose inf is below REFINE_BELOW go again with k
    eightfold, up to K_CAP.  The products are rounded to nearest, not
    outward: estimates, not enclosures.  Returns (image ends,
    orientations, inf, sup, stats): stats counts the end steps that took
    the scalar endpoint_jet ("scalar") and the branches finishing at each
    k ("levels").
    """
    signs = np.array(m.monotone_signs)
    orient = np.where(itin >= 0, signs[itin], 1).prod(axis=1)
    image = np.empty((2, a.size))
    inf_df, sup_df = np.empty(a.size), np.empty(a.size)
    stats = {"scalar": 0, "levels": {}}

    def visit(live, ids, u, v, du, dv):     # into the current run's sums
        lo, hi = abs_df_extrema(m, ids, u, v, du, dv)
        with np.errstate(divide="ignore"):
            log_inf[live] += np.log(lo)
            log_sup[live] += np.log(hi)

    todo, k = np.arange(a.size), 1
    while todo.size:
        for s, e in _vec.chunk_ranges([2 * k] * todo.size):
            rows = todo[s:e]
            edges = np.linspace(a[rows], b[rows], k + 1, axis=1)
            log_inf, log_sup = np.zeros((2, rows.size * k))
            u, v, scalar, failed = array_end_orbits(
                m, itin, edges[:, :-1].ravel(), edges[:, 1:].ravel(), visit,
                np.repeat(rows, k))
            raise_first(failed)
            stats["scalar"] += scalar
            inf_df[rows] = np.exp(log_inf.reshape(-1, k).min(axis=1))
            sup_df[rows] = np.exp(log_sup.reshape(-1, k).max(axis=1))
            if k == 1:
                image[:, rows] = u, v
        done = (inf_df[todo] >= REFINE_BELOW) | (k >= K_CAP)
        stats["levels"][k] = int(done.sum())
        todo, k = todo[~done], 8 * k
    return image.T, orient, inf_df, sup_df, stats


def _free_breakpoints(m, delta: float, q0: int) -> np.ndarray:
    """Stage 1: branch and neighborhood endpoints with their pullbacks
    through fewer than q0 steps, sorted, deduplicated, spanning [lo, hi]."""
    seeds = {m.lo, m.hi}
    seeds.update(float(t) for t in m.interior_boundaries)
    for cp in m.critical_points:
        seeds.add(cp.location + (delta if cp.side == "+" else -delta))
    level = np.array(sorted(seeds))
    collected = [level]
    for _ in range(1, q0):
        level = _vec.preimages(m, level)[1]
        collected.append(level)
    cuts = np.concatenate(collected)
    cuts = cuts[(cuts >= m.lo) & (cuts <= m.hi)]
    cuts.sort()
    keep = np.concatenate(([True], np.diff(cuts) > 1e-12))
    cuts = cuts[keep]
    cuts[0] = m.lo
    cuts[-1] = m.hi
    return cuts


def _piece_lookup(table, y):
    """Row of table = [(lo, hi, payload)] (sorted) holding each y, else -1;
    tries the searchsorted row kk, then kk + 1 and kk - 1."""
    hit = np.full(y.shape, -1, dtype=np.int64)
    if not table:
        return hit
    lows = np.array([t[0] for t in table])
    highs = np.array([t[1] for t in table])
    kk = np.searchsorted(lows, y, side="right") - 1
    for cand in (kk, kk + 1, kk - 1):
        row = np.clip(cand, 0, len(table) - 1)
        ok = ((hit < 0) & (cand >= 0) & (cand < len(table))
              & (lows[row] <= y) & (y <= highs[row]))
        hit[ok] = cand[ok]
    return hit


def _classify_cells(m, cuts, delta: float, q0: int, piece_tables):
    """Stage 2: first-entry classification of the cells between the
    (strictly increasing) cuts.

    Every cell follows its midpoint's itinerary.  Cells that never enter a
    neighborhood within q0 - 1 steps are free.  A bound cell entering at
    step l0 is pushed forward by f^l0 onto the piece table of the side it
    enters, its image coming from its ends' one-sided orbits, clamped onto
    each step's branch (array_end_orbits); the piece and gap edges strictly
    inside the image are pulled back through the same itinerary and cut the
    cell into sub-cells, each classified by where its midpoint lands.  All
    cells, targets and sub-cells move together, one pass per stage.  Cells
    whose midpoint orbit lands exactly on an interior boundary (or turns
    non-finite) before entry are left unresolved.

    Returns (raw, unresolved, counts): raw rows (a, b, kind, l0, p0, key)
    in no particular order, unresolved rows (a, b, reason) and stage counts.
    """
    n_cells = cuts.size - 1
    pos, itin, entry, landed = _positional_walk(
        m, 0.5 * (cuts[:-1] + cuts[1:]), q0 - 1, delta)

    free = np.flatnonzero(entry < 0)
    raw = [(a, b, "free", None, None, None)
           for a, b in zip(cuts[free].tolist(), cuts[free + 1].tolist())]

    # the neighborhood each bound cell enters (first declared match), and
    # its piece table: (lo, hi, ("piece", p) or ("gap", reason)) rows
    bound = np.flatnonzero(entry >= 0)
    keys = [(cp.location, cp.side) for cp in m.critical_points]
    tables = [sorted(
        [(lo_t, hi_t, ("piece", pl)) for lo_t, hi_t, pl in pieces]
        + [(lo_t, hi_t, ("gap", r)) for lo_t, hi_t, r in gaps])
        for pieces, gaps in (piece_tables[key] for key in keys)]
    entered = np.full(bound.size, -1, dtype=np.int64)
    y_mid = pos[bound]
    for s, (c, sgn) in enumerate(keys):
        entered[(entered < 0) & _vec.in_side(y_mid, c, sgn, delta)] = s
    lost = landed[bound] | (entered < 0)
    unresolved = [(a, b, "boundary-unlocated") for a, b in zip(
        cuts[bound[lost]].tolist(), cuts[bound[lost] + 1].tolist())]
    cells, entered = bound[~lost], entered[~lost]
    l0 = entry[cells]
    it = itin[cells]
    u, v = cuts[cells], cuts[cells + 1]

    # images of the cells under f^l0, by their ends' one-sided orbits
    j_lo, j_hi = u.copy(), v.copy()
    moved = np.flatnonzero(l0 > 0)
    j_lo[moved], j_hi[moved], n_fallback, failed = array_end_orbits(
        m, it[moved], u[moved], v[moved], lambda *step: None)
    raise_first(failed)

    # piece and gap edges strictly inside each image
    t_owner, t_val = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for s, table in enumerate(tables):
        edges = np.unique([t for row in table for t in row[:2]])
        sel = np.flatnonzero(entered == s)
        a, b = j_lo[sel], j_hi[sel]
        above = a + _EDGE_EPS * np.maximum(1.0, np.abs(a))
        below = b - _EDGE_EPS * np.maximum(1.0, np.abs(b))
        first = np.searchsorted(edges, above, side="right")
        count = np.searchsorted(edges, below, side="left") - first
        count[(count < 0) | np.isnan(above) | np.isnan(below)] = 0
        starts = np.repeat(first - np.cumsum(count) + count, count)
        t_owner.append(np.repeat(sel, count))
        t_val.append(edges[starts + np.arange(starts.size)])
    t_owner, xs = np.concatenate(t_owner), np.concatenate(t_val)

    # pull the targets back through the itinerary onto their cells
    xs = _vec.forced_inverse(m, it, u, v, t_owner, xs)

    # sub-cells between the sorted distinct cuts of each cell
    k_cells = np.arange(cells.size)
    c_owner = np.concatenate((k_cells, t_owner, k_cells))
    c_val = np.concatenate((u, xs, v))
    order = np.lexsort((c_val, c_owner))
    c_owner, c_val = c_owner[order], c_val[order]
    keep = np.ones(c_val.size, dtype=bool)
    keep[1:] = (c_owner[1:] != c_owner[:-1]) | (c_val[1:] != c_val[:-1])
    c_owner, c_val = c_owner[keep], c_val[keep]
    su, sv = c_val[:-1], c_val[1:]
    pair = (c_owner[1:] == c_owner[:-1]) & (sv - su > 0.0)
    su, sv, s_owner = su[pair], sv[pair], c_owner[:-1][pair]
    ym = _vec.forced_forward(m, it, s_owner, 0.5 * (su + sv))

    su, sv = su.tolist(), sv.tolist()
    s_l0 = l0[s_owner].tolist()
    for s, (key, table) in enumerate(zip(keys, tables)):
        sel = np.flatnonzero(entered[s_owner] == s)
        for k, row in zip(sel.tolist(),
                          _piece_lookup(table, ym[sel]).tolist()):
            if row < 0:
                unresolved.append((su[k], sv[k], "boundary-unlocated"))
                continue
            kind, payload = table[row][2]
            if kind == "gap":
                unresolved.append((su[k], sv[k], payload))
            else:
                raw.append((su[k], sv[k], "bound", s_l0[k], int(payload),
                            key))

    counts = {"cells": n_cells, "free": free.size, "bound": bound.size,
              "boundary_landed": int(landed[bound].sum()),
              "targets_inverted": int(np.count_nonzero(l0[t_owner])),
              "sub_cells": len(su),
              "endpoint_fallbacks": n_fallback}
    return raw, unresolved, counts


def _merge_cells(raw, it_mat) -> list:
    """Stage 3: merge runs of adjacent raw cells whose records agree past
    (a, b) and whose itinerary rows of it_mat (padded with -1 past their
    end) are equal.  Rows compare as arrays; itinerary tuples are built for
    the merged runs only.  Returns (record, itinerary) per run."""
    same_itin = np.ones(len(raw), dtype=bool)
    same_itin[1:] = (it_mat[1:] == it_mat[:-1]).all(axis=1)
    runs = []       # (first raw index of the run, merged record)
    for k, rec in enumerate(raw):
        if runs and same_itin[k]:
            prev = runs[-1][1]
            if prev[1] == rec[0] and prev[2:] == rec[2:]:
                runs[-1] = (runs[-1][0], (prev[0], rec[1]) + prev[2:])
                continue
        runs.append((k, rec))
    return [(rec, tuple(t for t in it_mat[k].tolist() if t >= 0))
            for k, rec in runs]


def build_partition(m, delta=None, q0: int = None, p_max: int = 60,
                    resolution: float = 1e-10, records=None
                    ) -> InducedPartition:
    """Partition the domain into maximal induced-map branches.

    Free-region breakpoints are the pullbacks (through fewer than q0 steps)
    of the branch endpoints and neighborhood endpoints; inside each
    neighborhood, constant-binding pieces come from a grid scan with jump
    bisection.  First-entry classification of the cells between the
    breakpoints runs as batched passes over all cells at once (see
    _classify_cells).  Adjacent cells with the same itinerary and binding
    merge into one branch.  The images and |Df-hat| bounds of all branches
    come from batched passes along their itineraries, each refinement
    sub-interval its own row (_branch_bounds).  Both stages follow
    interval ends by array_end_orbits.  Cells whose
    classification cannot be pinned down at the requested resolution land
    in the unresolved set with a reason.  The stage counts (the end steps
    that took the scalar endpoint_jet in stages 2 and 4, and the branches
    finishing at each refinement level) and the unresolved measure per
    reason are logged at INFO.
    """
    delta = m.delta if delta is None else float(delta)
    if q0 is None:
        raise ValueError("q0 is required")
    q0 = int(q0)
    if q0 < 1:
        raise ValueError("q0 must be >= 1")
    _check_delta(m, delta)
    if records is None:
        records = orbit_records(m, p_max + 1)

    piece_tables = {}
    for cp in m.critical_points:
        piece_tables[(cp.location, cp.side)] = _binding_piece_table(
            m, cp, delta, records, p_max, resolution)
    cuts = _free_breakpoints(m, delta, q0)
    raw, unresolved, counts = _classify_cells(m, cuts, delta, q0,
                                              piece_tables)
    raw.sort(key=lambda r: r[0])

    # stage 3: itineraries, then merge of adjacent identical cells
    r_tau = np.array([q0 if r[2] == "free" else r[3] + r[4] for r in raw],
                     dtype=np.int64)
    it_mat = _positional_walk(m, [0.5 * (r[0] + r[1]) for r in raw],
                              r_tau)[1]
    merged = _merge_cells(raw, it_mat)

    # stage 4: images and derivative bounds of all branches at once
    image, orient, inf_df, sup_df, geo = _branch_bounds(
        m, np.array([rec[0] for rec, _it in merged]),
        np.array([rec[1] for rec, _it in merged]),
        _vec.itinerary_matrix([it for _rec, it in merged]))
    branches = [InducedBranch(
        a=a, b=b, kind=kind, l0=l0, p0=p0,
        tau=q0 if kind == "free" else l0 + p0, critical_point=key,
        itinerary=itin, image=tuple(img), inf_df=lo, sup_df=hi,
        orientation=o)
        for ((a, b, kind, l0, p0, key), itin), img, o, lo, hi in zip(
            merged, image.tolist(), orient.tolist(), inf_df.tolist(),
            sup_df.tolist())]

    unresolved.sort()
    merged_unres = []
    for a, b, reason in unresolved:
        if merged_unres and merged_unres[-1][2] == reason \
                and abs(merged_unres[-1][1] - a) <= 1e-15:
            merged_unres[-1] = (merged_unres[-1][0], b, reason)
        else:
            merged_unres.append((a, b, reason))
    unres_measure = float(sum(b - a for a, b, _r in merged_unres))
    by_reason = {}
    for a, b, reason in merged_unres:
        by_reason[reason] = by_reason.get(reason, 0.0) + (b - a)
    _LOG.info(
        "build_partition: %d cells (%d free, %d bound, %d boundary-landed), "
        "%d targets inverted, %d sub-cells, %d scalar endpoint fallbacks, "
        "%d raw cells -> %d branches (%d with unbounded sup |Df-hat|), "
        "stage 4: %d scalar end jets, branches finishing per refinement k "
        "%s, unresolved measure by reason %s",
        counts["cells"], counts["free"], counts["bound"],
        counts["boundary_landed"], counts["targets_inverted"],
        counts["sub_cells"], counts["endpoint_fallbacks"], len(raw),
        len(branches), sum(br.sup_df == math.inf for br in branches),
        geo["scalar"], geo["levels"],
        {r: by_reason[r] for r in sorted(by_reason)})

    covered = sum(br.width for br in branches) + unres_measure
    if abs(covered - (m.hi - m.lo)) > 1e-9:
        raise RuntimeError(
            "partition does not tile the domain: covered %.17g of %.17g"
            % (covered, m.hi - m.lo))

    return InducedPartition(
        branches=branches, unresolved=merged_unres,
        unresolved_measure=unres_measure, delta=delta, q0=q0,
        p_max=p_max, resolution=resolution, lo=m.lo, hi=m.hi)


# ---------------------------------------------------------------------------
# induced map evaluation


def eval_induced(m, partition: InducedPartition, x: float):
    """(f-hat(x), |Df-hat(x)|, tau) on the branch containing x: one order-1
    forced pass along the branch's itinerary (_vec.forced_forward)."""
    br = partition.locate(x)
    y, d1 = _vec.forced_forward(m, _vec.itinerary_matrix([br.itinerary]),
                                [0], [float(x)], order=1)
    return float(y[0]), abs(float(d1[0])), br.tau


def write_partition_csv(partition: InducedPartition, path) -> None:
    """Branch table as CSV: a,b,class,l0,p0,tau,inf_df,sup_df."""
    write_csv(path, "a,b,class,l0,p0,tau,inf_df,sup_df",
              ((br.a, br.b, br.kind, br.l0, br.p0, br.tau, br.inf_df,
                br.sup_df) for br in partition.branches))


# ---------------------------------------------------------------------------
# binding lemma verification


@dataclass
class BindingLemmaReport:
    n_samples: int
    ratio_max: float
    gamma_hat: float
    margin_ratio: float
    sandwich_c1: float
    sandwich_c2: float
    sandwich_rows: list
    empty_piece_p: list
    min_inf_df: float
    # "segment_ratio", "distortion", "sandwich", "expansion" -> "passed",
    # "failed" or "not-applicable" (nothing was there to check)
    checks: dict
    witnesses: list

    @property
    def passed(self) -> bool:
        """Whether every applicable check passed."""
        return "failed" not in self.checks.values()

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _status(checked: int, ok: bool) -> str:
    if not checked:
        return "not-applicable"
    return "passed" if ok else "failed"


def verify_binding_lemmas(m, partition: InducedPartition,
                          n_samples: int = 1000, seed: int = 0,
                          records=None) -> BindingLemmaReport:
    """Replay the binding-phase inequalities on sampled points.

    Checks, with witnesses on failure: the bound segments stay within twice
    the gamma-scaled critical distance; the distortion of f^(p-1) over the
    first bound segment is uniformly finite (its max is reported); the
    empirical expansion margin |Df^p(x)| over D_(p-1)^(1/(2l-1)) is
    reported; the constant-binding pieces sandwich the critical distance
    between powers of the derivative growth; and every resolved branch has
    an |Df-hat| infimum bound (round-to-nearest) of at least 2.  A check
    with no sample, segment or piece to check (the first three when no
    critical point has order > 1) is not applicable: it neither passes nor
    fails.
    """
    if records is None:
        records = orbit_records(m, partition.p_max + 1)
    rng = np.random.default_rng(seed)
    delta = partition.delta
    side_witnesses = []     # per critical side, in the order found
    segments = []           # first bound segments: (side, x, p, lo, hi)

    crit = [cp for cp in m.critical_points if cp.order > 1.0]
    ratio_max = 0.0
    n_segments = 0
    margin_ratio, n_margins = math.inf, 0
    per = max(1, n_samples // len(crit)) if crit else 0
    sides = []
    for cp in crit:
        rec = records[(cp.location, cp.side)]
        sgn = 1.0 if cp.side == "+" else -1.0
        dists = np.concatenate([
            rng.uniform(0.0, delta, per // 2),
            delta * 2.0 ** -rng.uniform(0.0, 30.0, per - per // 2)])
        xs = cp.location + sgn * dists[dists > 0]
        b = binding_periods(m, cp, xs, delta, records, partition.p_max)
        ok = b.p >= 0
        bound = ok & ~b.truncated

        # segment ratios over the bound steps (all p of a truncated binding,
        # else the first p - 1), a witness where a new maximum exceeds 1
        steps = b.sep.shape[1]
        last = np.where(b.truncated, b.p, b.p - 1)[:, None]
        rows = ok[:, None] & (np.arange(1, steps + 1) <= last)
        n_segments += int(rows.sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            r = b.sep / b.seg_d / (2.0 * rec.gamma[:steps])
        r = np.where(rows, np.where(b.seg_d > 0, r, np.inf), -np.inf).ravel()
        run = np.maximum.accumulate(np.concatenate(([ratio_max], r)))
        ratio_max = run[-1]
        new_max = np.flatnonzero((r > run[:-1]) & (r > 1.0 + 1e-9))
        side_witnesses.append([["segment-ratio", float(xs[k // steps]),
                                k % steps + 1, float(r[k])]
                               for k in new_max.tolist()])

        # the first bound segment of each binding with p >= 2
        n_checks = 0
        first = np.flatnonzero(bound & (b.p >= 2))
        for k, fx in zip(first.tolist(),
                         _vec.step_values(m, xs[first]).tolist()):
            x, p = float(xs[k]), int(b.p[k])
            seg = (min(fx, rec.c[0]), max(fx, rec.c[0]))
            if seg[1] - seg[0] > 0:
                n_checks += 1
                segments.append((len(sides), x, p) + seg)

        # expansion margin |Df^p| / D_(p-1)^(1/(2l-1)) of the bindings
        expo = 1.0 / (2.0 * cp.order - 1.0)
        denom = [rec.D_at(p - 1) ** expo for p in b.p[bound].tolist()]
        margin_ratio = float(np.fmin.reduce(b.df_p[bound] / denom,
                                            initial=margin_ratio))
        n_margins += len(denom)

        dropped = dict(Counter(FAILURES[c] for c in b.p[~ok].tolist()))
        sides.append(f"({cp.location!r}, {cp.side!r}) {xs.size} replayed, "
                     f"dropped {dropped}, {b.truncated.sum()} truncated, "
                     f"{n_checks} distortion checks")
    _LOG.info("verify_binding_lemmas: samples per critical side of order "
              "> 1: %s", "; ".join(sides) or "none")

    # distortion of f^(p-1) over every first segment, all in one pass: the
    # product over the steps of sup/inf |Df|, in step order
    side, seg_x, seg_p, lo, hi = zip(*segments) if segments else ((),) * 5
    n = np.array(seg_p, dtype=np.int64) - 1
    (_u, _v, sup, inf), _image, failed = orbit_extrema(m, np.where(
        np.arange(n.max(initial=0)) < n[:, None], POSITIONAL, -1), lo, hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(inf > 0, sup / inf, np.inf)
    value = np.ones(n.size)
    for j, col in enumerate(ratio.T):
        value *= np.where(j < n, col, 1.0)
    gamma_hat, gamma_finite = 1.0, True
    for k, (s, x, p, g) in enumerate(zip(side, seg_x, seg_p,
                                         value.tolist())):
        if k in failed:
            gamma_finite = False
            side_witnesses[s].append(["distortion", x, p, str(failed[k])])
        else:
            gamma_hat = max(gamma_hat, g)
            gamma_finite &= math.isfinite(g)
    witnesses = [w for found in side_witnesses for w in found]

    # sandwich constants over the level-0 constant-binding pieces
    sandwich_rows = []
    c1_min, c2_max = math.inf, 0.0
    seen_p = set()
    for br in partition.bound():
        if br.l0 != 0 or br.p0 is None or br.p0 < 2:
            continue
        rec = records.get(br.critical_point)
        if rec is None or rec.order <= 1.0:
            continue
        loc = br.critical_point[0]
        expo = 2.0 / (2.0 * rec.order - 1.0)
        d_lo = min(abs(br.a - loc), abs(br.b - loc))
        d_hi = max(abs(br.a - loc), abs(br.b - loc))
        c1 = d_lo * rec.D_at(br.p0 - 1) ** expo
        c2 = d_hi * rec.D_at(br.p0 - 2) ** expo
        sandwich_rows.append((loc, br.critical_point[1], br.p0, c1, c2))
        c1_min = min(c1_min, c1)
        c2_max = max(c2_max, c2)
        seen_p.add(br.p0)
    sandwich_ok = c1_min > 0.0 and math.isfinite(c2_max)
    if sandwich_rows:
        p_lo, p_hi = min(seen_p), max(seen_p)
        empty = [p for p in range(p_lo, p_hi + 1) if p not in seen_p]
    else:
        c1_min, c2_max = math.nan, math.nan
        empty = []

    min_inf = min((br.inf_df for br in partition.branches),
                  default=math.nan)
    expansion_ok = bool(min_inf >= 2.0)
    if not expansion_ok:
        worst = min(partition.branches, key=lambda br: br.inf_df)
        witnesses.append(["expansion", worst.a, worst.b,
                          float(worst.inf_df)])

    return BindingLemmaReport(
        n_samples=n_samples,
        ratio_max=float(ratio_max),
        gamma_hat=float(gamma_hat),
        margin_ratio=float(margin_ratio) if n_margins else math.nan,
        sandwich_c1=float(c1_min),
        sandwich_c2=float(c2_max),
        sandwich_rows=sandwich_rows,
        empty_piece_p=empty,
        min_inf_df=float(min_inf),
        checks={
            "segment_ratio": _status(n_segments, ratio_max <= 1.0 + 1e-9),
            "distortion": _status(len(segments), gamma_finite),
            "sandwich": _status(len(sandwich_rows), sandwich_ok),
            "expansion": "passed" if expansion_ok else "failed",
        },
        witnesses=witnesses,
    )
