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


def _binding_piece_table(m, cp, delta: float, records, p_max: int,
                         resolution: float):
    """Tile one one-sided neighborhood by constant-binding pieces.

    A bound f^i(x) stays within gamma_i * d(c_i) <= d(c_i) / 2 of c_i, on
    c_i's branch, so f^j along c's itinerary is monotone on [c, x]: the
    points still bound after step j lie within R_j of c, R_0 = delta and
    R_j = min(R_(j-1), r_j), and p = j on (R_j, R_(j-1)].  r_j is how far
    from c the tube end c_j + s_j * gamma_j * d(c_j) pulls back along the
    itinerary (s_j: the side's sign times the monotone signs passed); all
    ends are pulled back together, one branch_inverse call per step.

    Within the rounding floor w, the largest distance at which f, monotone
    on the side, still rounds to c_1 (searched over the doubles in [0,
    delta] 64 at a time, by their bit patterns), no orbit leaves c's, and
    binding_periods gives the period P of the first one beyond w.  So R_j
    >= w and R_P = w, however the pull rounds there.  The table ends at row
    P, or at the first row j it cannot resolve, and the rest of the side,
    within R_(j-1) of c, is one gap: "rounding-floor" past P;
    "boundary-unlocated" where the pullback of tube end j is not finite;
    "below-resolution" where R_(j-1) <= resolution; past the last end,
    "p_max-exceeded", or "record-short" where the critical record ends
    first.  A singular side (order <= 1) is one piece, p = 1.  Returns
    (pieces, gaps): (lo, hi, p) and (lo, hi, reason) rows, ascending.
    """
    c = cp.location
    sgn = 1.0 if cp.side == "+" else -1.0

    def oriented(items):
        return sorted((*sorted((c + sgn * lo_d, c + sgn * hi_d)), payload)
                      for lo_d, hi_d, payload in items)

    if cp.order <= 1.0:
        return oriented([(0.0, delta, 1)]), []
    rec = records.get((c, cp.side))
    if rec is None or rec.N < p_max:
        rec = compute_orbit(m, cp, p_max + 1)
    first = np.searchsorted(m.interior_boundaries, c,
                            side="right" if sgn > 0 else "left")
    lo, hi = 0, int(np.float64(delta).view(np.int64))
    while hi - lo > 1:
        bits = np.array([lo + (hi - lo) * k // 65 for k in range(1, 65)])
        y = _vec.step_values(m, c + sgn * bits.view(float),
                             ids=np.full(64, first))
        k = int(np.searchsorted(y != rec.c[0], True))
        lo, hi = (bits[k - 1] if k else lo), (bits[k] if k < 64 else hi)
    w, beyond = np.array([lo, hi]).view(float).tolist()
    P = int(binding_periods(m, cp, [c + sgn * beyond], delta,
                            {(c, cp.side): rec}, p_max).p[0])
    P = P if P > 0 else p_max
    n = min(p_max - 1, rec.n_filled, P)
    ids = np.append(first, _vec.branch_indices(m, rec.c[:n]))[:n]
    s = sgn * np.cumprod(np.array(m.monotone_signs)[ids])
    x = rec.c[:n] + s * (rec.gamma[:n] * rec.d[:n])
    for k in range(n - 1, 0, -1):
        x[k:] = _vec.branch_inverse(m, np.full(n - k, ids[k]), x[k:])
    r = np.abs(_vec.branch_inverse(m, np.full(n, first), x) - c)
    R = np.maximum(np.minimum.accumulate(np.append(delta, r)), w)
    R[P:] = w
    end, reason = n + 1, ("rounding-floor" if n == P else "p_max-exceeded"
                          if rec.n_filled >= p_max else "record-short")
    for j, stops in enumerate(zip(~np.isfinite(r), R[:-1] <= resolution), 1):
        if any(stops):
            end, reason = j, ("boundary-unlocated",
                              "below-resolution")[stops.index(True)]
            break
    R = R.tolist()
    rows = [(R[j], R[j - 1], j) for j in range(1, end) if R[j] < R[j - 1]]
    gaps = [(0.0, R[end - 1], reason)] if R[end - 1] > 0.0 else []
    return oriented(rows), oriented(gaps)


def _side_tables(m, delta: float, records, p_max: int, resolution: float):
    """Per critical point in declared order, its side's piece table as one
    sorted list of (lo, hi, ("piece", p)) and (lo, hi, ("gap", reason))."""
    tables = []
    for cp in m.critical_points:
        pieces, gaps = _binding_piece_table(m, cp, delta, records, p_max,
                                            resolution)
        tables.append(sorted([(lo, hi, ("piece", p)) for lo, hi, p in pieces]
                             + [(lo, hi, ("gap", r)) for lo, hi, r in gaps]))
    return tables


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


def _table_edges(tables) -> np.ndarray:
    """The distinct edges of the rows of the per-side piece tables."""
    return np.unique([t for table in tables for row in table for t in row[:2]])


def _free_breakpoints(m, delta: float, q0: int, tables) -> np.ndarray:
    """Stage 1: the branch ends and every piece-table edge (_side_tables;
    the neighborhood ends, the critical points and the outer edge of each
    side's inner gap among them), with their pullbacks through fewer than
    q0 steps, sorted and distinct, from lo to hi.  A preimage strictly
    inside a neighborhood (in_delta, stage 2's entry test) goes with all
    its descendants: a cut on an orbit that has already entered changes
    neither its entry nor its binding period.  So a kept level-l pullback
    of a piece edge is a point whose orbit first enters at step l exactly
    on that edge, and the orbit of every cell between two cuts that enters
    does so inside one row of its side's table."""
    level = np.union1d(_table_edges(tables),
                       [m.lo, m.hi, *m.interior_boundaries.tolist()])
    collected = [level]
    for _ in range(1, q0):
        level = _vec.preimages(m, level)[1]
        level = level[~_vec.in_delta(m, level, delta)]
        collected.append(level)
    cuts = np.concatenate(collected)
    return np.unique(cuts[(cuts >= m.lo) & (cuts <= m.hi)])


def _piece_lookup(table, y):
    """Row of table = [(lo, hi, payload)] (sorted) holding each y, else -1;
    tries the last row kk with lo <= y (searchsorted), then kk - 1."""
    hit = np.full(y.shape, -1, dtype=np.int64)
    if not table:
        return hit
    lows = np.array([t[0] for t in table])
    highs = np.array([t[1] for t in table])
    kk = np.searchsorted(lows, y, side="right") - 1
    for cand in (kk, kk - 1):
        row = np.clip(cand, 0, len(table) - 1)
        ok = (hit < 0) & (cand >= 0) & (lows[row] <= y) & (y <= highs[row])
        hit[ok] = cand[ok]
    return hit


def _classify_cells(m, cuts, delta: float, q0: int, tables):
    """Stage 2: first-entry classification of the cells between the cuts,
    which must come from _free_breakpoints on the same tables: then a cell
    that enters a neighborhood does so at one step, inside one row of the
    table of the side it enters.

    Every cell follows its midpoint's itinerary.  A cell that never enters
    within q0 - 1 steps is free; one that enters at step l0 takes the row
    of its side's table (_side_tables) holding its midpoint's entry
    position: bound with that piece's binding period, or unresolved with
    the reason of the side's inner gap (rounding-floor, p_max-exceeded,
    record-short, below-resolution or boundary-unlocated).  A cell whose
    midpoint orbit lands exactly on an interior boundary (or turns
    non-finite) before entry, or enters in no row, is unresolved
    ("boundary-unlocated").

    Returns (raw, unresolved, counts): raw rows (a, b, kind, l0, p0, key)
    in no particular order, unresolved rows (a, b, reason), and the counts
    of free, bound and boundary-landed cells.
    """
    pos, _itin, entry, landed = _positional_walk(
        m, 0.5 * (cuts[:-1] + cuts[1:]), q0 - 1, delta)

    free = np.flatnonzero(entry < 0)
    raw = [(a, b, "free", None, None, None)
           for a, b in zip(cuts[free].tolist(), cuts[free + 1].tolist())]
    bound = np.flatnonzero(entry >= 0)
    lost = bound[landed[bound]]
    unresolved = [(a, b, "boundary-unlocated") for a, b in zip(
        cuts[lost].tolist(), cuts[lost + 1].tolist())]
    cells = bound[~landed[bound]]
    y = pos[cells]
    u, v = cuts[cells].tolist(), cuts[cells + 1].tolist()
    l0 = entry[cells].tolist()
    for cp, table in zip(m.critical_points, tables):
        key = (cp.location, cp.side)
        sel = np.flatnonzero(_vec.in_side(y, cp.location, cp.side, delta))
        for k, row in zip(sel.tolist(), _piece_lookup(table, y[sel]).tolist()):
            kind, payload = table[row][2] if row >= 0 else (
                "gap", "boundary-unlocated")
            if kind == "gap":
                unresolved.append((u[k], v[k], payload))
            else:
                raw.append((u[k], v[k], "bound", l0[k], payload, key))

    counts = {"free": free.size, "bound": bound.size,
              "boundary_landed": lost.size}
    return raw, unresolved, counts


def build_partition(m, delta=None, q0: int = None, p_max: int = 60,
                    resolution: float = 1e-10, records=None
                    ) -> InducedPartition:
    """Partition the domain into maximal induced-map branches.

    Inside each neighborhood, constant-binding pieces come from one
    backward pull of the binding tubes' ends along the critical orbit; the
    part of the side no piece resolves, near c, is one gap with its reason,
    and resolution bounds the pieces from below (_binding_piece_table).
    The cuts are the pullbacks, through fewer than q0 steps and outside the
    neighborhoods, of the branch ends and of every piece and gap edge
    (_free_breakpoints).
    First-entry classification of the cells between them runs as one
    positional walk of all their midpoints (_classify_cells); each cell it
    returns is a branch, and two that touch differ in class, entry, side,
    binding period or itinerary.  The images and |Df-hat| bounds of all
    branches come from batched passes of array_end_orbits along their
    itineraries, each refinement sub-interval its own row (_branch_bounds).
    Cells whose classification cannot be pinned down at the requested
    resolution land in the unresolved set with a reason.  The stage counts
    (the cuts and the piece-table edges among them, the cells by class, the
    end steps that took the scalar endpoint_jet in stage 4, and the
    branches finishing at each refinement level), the unresolved measure
    per reason, and per critical side the pieces, the deepest period and
    the width of the rounding-floor gap are logged at INFO.
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

    tables = _side_tables(m, delta, records, p_max, resolution)
    cuts = _free_breakpoints(m, delta, q0, tables)
    raw, unresolved, counts = _classify_cells(m, cuts, delta, q0, tables)
    raw.sort(key=lambda r: r[0])

    # stage 3: the itinerary of every cell, tau steps of its midpoint
    r_tau = np.array([q0 if r[2] == "free" else r[3] + r[4] for r in raw],
                     dtype=np.int64)
    it_mat = _positional_walk(m, [0.5 * (r[0] + r[1]) for r in raw],
                              r_tau)[1]

    # stage 4: images and derivative bounds of all branches at once
    image, orient, inf_df, sup_df, geo = _branch_bounds(
        m, np.array([r[0] for r in raw]), np.array([r[1] for r in raw]),
        it_mat)
    branches = [InducedBranch(
        a=a, b=b, kind=kind, l0=l0, p0=p0, tau=tau, critical_point=key,
        itinerary=tuple(itin[:tau].tolist()), image=tuple(img), inf_df=lo,
        sup_df=hi, orientation=o)
        for (a, b, kind, l0, p0, key), tau, itin, img, o, lo, hi in zip(
            raw, r_tau.tolist(), it_mat, image.tolist(),
            orient.tolist(), inf_df.tolist(), sup_df.tolist())]

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
    sides = []
    for cp, table in zip(m.critical_points, tables):
        ps = [p for *_, (kind, p) in table if kind == "piece"]
        floor = sum(hi - lo for lo, hi, row in table
                    if row == ("gap", "rounding-floor"))
        sides.append(f"({cp.location!r}, {cp.side!r}) {len(ps)} pieces to "
                     f"p {max(ps, default=0)}, floor {floor:.4g}")
    _LOG.info(
        "build_partition: %d stage-1 cuts (%d piece-table edges), %d cells "
        "(%d free, %d bound, %d boundary-landed), %d branches (%d with "
        "unbounded sup |Df-hat|), stage 4: %d scalar end jets, branches "
        "finishing per refinement k %s, unresolved measure by reason %s, "
        "piece tables per critical side: %s",
        cuts.size, np.isin(cuts, _table_edges(tables)).sum(), cuts.size - 1,
        counts["free"], counts["bound"], counts["boundary_landed"],
        len(branches), sum(br.sup_df == math.inf for br in branches),
        geo["scalar"], geo["levels"],
        {r: by_reason[r] for r in sorted(by_reason)}, "; ".join(sides))

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
