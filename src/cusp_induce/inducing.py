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
from functools import cached_property

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
    """One one-sided neighborhood's constant-binding pieces, as its radii.

    A bound f^i(x) stays within gamma_i * d(c_i) <= d(c_i) / 2 of c_i, on
    c_i's branch, so f^j along c's itinerary is monotone on [c, x]: the
    points still bound after step j lie within R_j of c, R_0 = delta and
    R_j = min(R_(j-1), r_j), and p = j on the distances (R_j, R_(j-1)]
    from c.  r_j is how far from c the tube end c_j + s_j * gamma_j *
    d(c_j) pulls back along the itinerary (s_j: the side's sign times the
    monotone signs passed); all ends are pulled back together, one
    branch_inverse call per step.

    Within the rounding floor w, the largest distance at which f, monotone
    on the side, still rounds to c_1 (searched over the doubles in [0,
    delta] 64 at a time, by their bit patterns), no orbit leaves c's, and
    binding_periods gives the period P of the first point beyond w, in one
    call with the side's outermost point.  So R_j >= w and R_P = w, however
    the pull rounds there.  The radii end at R_P, or at R_(j-1) for the
    first j the pull cannot resolve, and the distances within the last one
    are one gap: "rounding-floor" past P; "boundary-unlocated" where the
    pullback of tube end j is not finite; "below-resolution" where R_(j-1)
    <= resolution; past the last end, "p_max-exceeded", or "record-short"
    where the critical record ends first.  An outermost point still bound
    after p_max steps leaves no row to pull: the side is one p_max-exceeded
    gap.  A singular side (order <= 1) is one piece, p = 1.  Returns (R,
    reason): R_0 = delta >= R_1 >= ... as an array, and the gap's reason
    ([delta, 0] and None on a singular side).
    """
    c = cp.location
    sgn = 1.0 if cp.side == "+" else -1.0
    if cp.order <= 1.0:
        return np.array([delta, 0.0]), None
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
    probe = binding_periods(m, cp, [c + sgn * beyond,
                                    np.nextafter(c + sgn * delta, c)],
                            delta, {(c, cp.side): rec}, p_max)
    P = int(probe.p[0])
    P = P if P > 0 else p_max
    n = 0 if probe.truncated[1] else min(p_max - 1, rec.n_filled, P)
    ids = np.append(first, _vec.branch_indices(m, rec.c[:n]))[:n]
    s = sgn * np.cumprod(np.array(m.monotone_signs)[ids])
    x = rec.c[:n] + s * (rec.gamma[:n] * rec.d[:n])
    for k in range(n - 1, -1, -1):
        x[k:] = _vec.branch_inverse(m, np.full(n - k, ids[k]), x[k:])
    r = np.abs(x - c)
    R = np.maximum(np.minimum.accumulate(np.append(delta, r)), w)
    R[P:] = w
    end, reason = n + 1, ("rounding-floor" if n == P else "p_max-exceeded"
                          if rec.n_filled >= p_max else "record-short")
    for j, stops in enumerate(zip(~np.isfinite(r), R[:-1] <= resolution), 1):
        if any(stops):
            end, reason = j, ("boundary-unlocated",
                              "below-resolution")[stops.index(True)]
            break
    return R[:end], reason


def _side_edges(cp, R):
    """The edges c +- R of one side's table, from c + delta inward."""
    return cp.location + (R if cp.side == "+" else -R)


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


@dataclass(eq=False)
class InducedPartition:
    """The induced map's branches as columns, one row each from lo to hi:
    ends a < b, tau, the entered critical side (an index into sides, the
    (location, side) of each critical point), entry step l0 and binding
    period p0 (all three -1 on a free branch), itinerary matrix itin (-1
    past tau), image ends, orientation and |Df-hat| bounds.  branches makes
    InducedBranch records of them on first use."""
    a: np.ndarray
    b: np.ndarray
    tau: np.ndarray
    side: np.ndarray
    l0: np.ndarray
    p0: np.ndarray
    itin: np.ndarray
    image: np.ndarray           # (branches, 2)
    orientation: np.ndarray
    inf_df: np.ndarray
    sup_df: np.ndarray
    sides: tuple
    unresolved: list            # (a, b, reason)
    unresolved_measure: float
    delta: float
    q0: int
    p_max: int
    resolution: float
    lo: float
    hi: float

    def _fields(self, rows) -> list:
        """InducedBranch's fields a to critical_point of the given rows."""
        return [(a, b, "free", None, None, t, None) if s < 0
                else (a, b, "bound", l0, p0, t, self.sides[s])
                for a, b, s, l0, p0, t in zip(*(c[rows].tolist() for c in (
                    self.a, self.b, self.side, self.l0, self.p0, self.tau)))]

    def _records(self, rows) -> list:
        return [InducedBranch(*f, tuple(it[:f[5]]), tuple(i), lo, hi, o)
                for f, it, i, lo, hi, o in zip(self._fields(rows), *(
                    c[rows].tolist() for c in (self.itin, self.image,
                                               self.inf_df, self.sup_df,
                                               self.orientation)))]

    @cached_property
    def branches(self) -> list:
        """Every branch as an InducedBranch record."""
        return self._records(slice(None))

    def locate(self, x: float) -> InducedBranch:
        x = float(x)
        k = int(np.searchsorted(self.a, x, side="right")) - 1
        if k >= 0 and self.a[k] < x < self.b[k]:
            return self._records([k])[0]
        for a, b, reason in self.unresolved:
            if a <= x <= b:
                raise ValueError(
                    f"x={x!r} lies in the unresolved set ({reason})")
        raise ValueError(f"x={x!r} is not interior to any resolved branch")

    def summary(self) -> dict:
        taus, counts = np.unique(self.tau, return_counts=True)
        n_free = int((self.side < 0).sum())
        return {
            "delta": self.delta, "q0": self.q0, "p_max": self.p_max,
            "resolution": self.resolution,
            "n_branches": self.a.size,
            "n_free": n_free, "n_bound": self.a.size - n_free,
            "n_unresolved": len(self.unresolved),
            "unresolved_measure": self.unresolved_measure,
            "unresolved_reasons": sorted({r for _, _, r in self.unresolved}),
            "tau_histogram": dict(zip(map(str, taus.tolist()),
                                      counts.tolist())),
            "min_inf_df": min(self.inf_df.tolist(), default=math.nan),
        }

    def to_dict(self) -> dict:
        return {**self.summary(),
                "branches": [br.to_dict() for br in self.branches],
                "unresolved": [[a, b, r] for a, b, r in self.unresolved]}


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


def _table_edges(m, tables) -> np.ndarray:
    """The distinct edges c +- R_j of the per-side piece tables, and each
    critical point c."""
    return np.unique([e for cp, (R, _reason) in zip(m.critical_points, tables)
                      for e in [cp.location, *_side_edges(cp, R).tolist()]])


def _free_breakpoints(m, delta: float, q0: int, tables) -> np.ndarray:
    """Stage 1: the branch ends and every piece-table edge (_table_edges:
    the neighborhood ends c +- delta, the critical points and the edges c
    +- R_j within, the outer edge of each side's inner gap among them),
    with their pullbacks through fewer than q0 steps, sorted and distinct,
    from lo to hi.  A preimage strictly inside a neighborhood (in_delta,
    stage 2's entry test) goes with all its descendants: a cut on an orbit
    that has already entered changes neither its entry nor its binding
    period.  So a kept level-l pullback of a piece edge is a point whose
    orbit first enters at step l exactly on that edge, and the orbit of
    every cell between two cuts that enters does so between two adjacent
    edges of its side's table."""
    level = np.union1d(_table_edges(m, tables),
                       [m.lo, m.hi, *m.interior_boundaries.tolist()])
    collected = [level]
    for _ in range(1, q0):
        level = _vec.preimages(m, level)[1]
        level = level[~_vec.in_delta(m, level, delta)]
        collected.append(level)
    cuts = np.concatenate(collected)
    return np.unique(cuts[(cuts >= m.lo) & (cuts <= m.hi)])


def _classify_cells(m, cuts, delta: float, q0: int, tables):
    """Stage 2: first-entry classification of the cells between the cuts,
    which must come from _free_breakpoints on the same tables: then a cell
    that enters a neighborhood does so at one step, between two adjacent
    edges of the table of the side it enters.

    Every cell follows its midpoint's itinerary.  A cell that never enters
    within q0 - 1 steps is free.  One that enters at step l0 counts the
    edges c +- R_j of its side's table (_binding_piece_table) that its
    midpoint's entry position y lies within (y <= c + R_j on a + side, y >=
    c - R_j on a - side): k of them make it bound with period k, all of
    them unresolved with the reason of the side's inner gap
    (rounding-floor, p_max-exceeded, record-short, below-resolution or
    boundary-unlocated).  So an entry exactly on an edge takes the piece,
    or the gap, inside it on both sides.  A cell whose midpoint orbit
    lands exactly on an interior boundary (or turns non-finite) before
    entry is unresolved ("boundary-unlocated").

    Returns (cells, unresolved, counts): the columns (a, b, side, l0, p0)
    of the resolved cells from lo to hi, side indexing m.critical_points
    and all three -1 on a free cell, unresolved rows (a, b, reason), and
    the counts of free, bound and boundary-landed cells.
    """
    pos, _itin, entry, landed = _positional_walk(
        m, 0.5 * (cuts[:-1] + cuts[1:]), q0 - 1, delta)

    keep = entry < 0
    side, p0 = np.full((2, entry.size), -1, dtype=np.int64)
    bound = np.flatnonzero(entry >= 0)
    lost = bound[landed[bound]]
    unresolved = [(a, b, "boundary-unlocated") for a, b in zip(
        cuts[lost].tolist(), cuts[lost + 1].tolist())]
    cells = bound[~landed[bound]]
    y = pos[cells]
    for i, (cp, (R, reason)) in enumerate(zip(m.critical_points, tables)):
        sel = _vec.in_side(y, cp.location, cp.side, delta)
        edges = _side_edges(cp, R)
        within = (y[sel, None] <= edges) if cp.side == "+" else (
            y[sel, None] >= edges)
        k, p = cells[sel], within.sum(axis=1)
        side[k], p0[k], keep[k] = i, p, p < R.size
        gap = k[p >= R.size]
        unresolved += [(a, b, reason) for a, b in zip(
            cuts[gap].tolist(), cuts[gap + 1].tolist())]

    return ((cuts[:-1][keep], cuts[1:][keep], side[keep], entry[keep],
             p0[keep]), unresolved, {"free": entry.size - bound.size,
                                     "bound": bound.size,
                                     "boundary_landed": lost.size})


def build_partition(m, delta=None, q0: int = None, p_max: int = 60,
                    resolution: float = 1e-10, records=None
                    ) -> InducedPartition:
    """Partition the domain into maximal induced-map branches.

    Inside each neighborhood, constant-binding pieces come from one
    backward pull of the binding tubes' ends along the critical orbit, as
    the side's radii R_0 = delta >= R_1 >= ...: period j on the distances
    (R_j, R_(j-1)] from c.  The distances within the last radius, which no
    piece resolves, are one gap with its reason, and resolution bounds the
    pieces from below (_binding_piece_table).
    The cuts are the pullbacks, through fewer than q0 steps and outside the
    neighborhoods, of the branch ends and of every piece and gap edge
    (_free_breakpoints).
    First-entry classification of the cells between them runs as one
    positional walk of all their midpoints (_classify_cells); each cell it
    returns is a branch, and two that touch differ in class, entry, side,
    binding period or itinerary.  The images and |Df-hat| bounds of all
    branches come from batched passes of array_end_orbits along their
    itineraries, each refinement sub-interval its own row (_branch_bounds).
    The stages' arrays are the partition's columns; no branch record is
    made.  Cells whose classification cannot be pinned down at the
    requested resolution land in the unresolved set with a reason.  The
    stage counts (the cuts and piece-table edges among them, the cells by
    class, stage 4's end steps on the scalar endpoint_jet and branches
    finishing per refinement level), the unresolved measure per reason,
    and per critical side the pieces, deepest period and rounding-floor
    width are logged at INFO.
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

    tables = [_binding_piece_table(m, cp, delta, records, p_max, resolution)
              for cp in m.critical_points]
    cuts = _free_breakpoints(m, delta, q0, tables)
    (a, b, side, l0, p0), unresolved, counts = _classify_cells(
        m, cuts, delta, q0, tables)

    # stage 3: the itinerary of every cell, tau steps of its midpoint
    tau = np.where(side < 0, q0, l0 + p0)
    itin = _positional_walk(m, 0.5 * (a + b), tau)[1]

    # stage 4: images and derivative bounds of all branches at once
    image, orient, inf_df, sup_df, geo = _branch_bounds(m, a, b, itin)

    unresolved.sort()
    merged_unres = []
    for u, v, reason in unresolved:
        if merged_unres and merged_unres[-1][2] == reason \
                and abs(merged_unres[-1][1] - u) <= 1e-15:
            merged_unres[-1] = (merged_unres[-1][0], v, reason)
        else:
            merged_unres.append((u, v, reason))
    unres_measure = float(sum(v - u for u, v, _r in merged_unres))
    by_reason = {}
    for u, v, reason in merged_unres:
        by_reason[reason] = by_reason.get(reason, 0.0) + (v - u)
    sides = []
    for cp, (R, reason) in zip(m.critical_points, tables):
        ps = np.flatnonzero(R[1:] < R[:-1]) + 1
        floor = R[-1] if reason == "rounding-floor" else 0.0
        sides.append(f"({cp.location!r}, {cp.side!r}) {ps.size} pieces to "
                     f"p {ps.max(initial=0)}, floor {floor:.4g}")
    _LOG.info(
        "build_partition: %d stage-1 cuts (%d piece-table edges), %d cells "
        "(%d free, %d bound, %d boundary-landed), %d branches (%d with "
        "unbounded sup |Df-hat|), stage 4: %d scalar end jets, branches "
        "finishing per refinement k %s, unresolved measure by reason %s, "
        "piece tables per critical side: %s",
        cuts.size, np.isin(cuts, _table_edges(m, tables)).sum(), cuts.size - 1,
        counts["free"], counts["bound"], counts["boundary_landed"],
        a.size, np.count_nonzero(sup_df == math.inf),
        geo["scalar"], geo["levels"],
        {r: by_reason[r] for r in sorted(by_reason)}, "; ".join(sides))

    covered = sum((b - a).tolist()) + unres_measure
    if abs(covered - (m.hi - m.lo)) > 1e-9:
        raise RuntimeError(
            "partition does not tile the domain: covered %.17g of %.17g"
            % (covered, m.hi - m.lo))

    return InducedPartition(
        a=a, b=b, tau=tau, side=side, l0=l0, p0=p0, itin=itin, image=image,
        orientation=orient, inf_df=inf_df, sup_df=sup_df,
        sides=tuple((cp.location, cp.side) for cp in m.critical_points),
        unresolved=merged_unres,
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
              ((*f[:6], lo, hi) for f, lo, hi in zip(
                  partition._fields(slice(None)), partition.inf_df.tolist(),
                  partition.sup_df.tolist())))


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
    rows = np.flatnonzero((partition.side >= 0) & (partition.l0 == 0)
                          & (partition.p0 >= 2))
    for u, v, s, p in zip(*(col[rows].tolist() for col in (
            partition.a, partition.b, partition.side, partition.p0))):
        loc, side = partition.sides[s]
        rec = records.get((loc, side))
        if rec is None or rec.order <= 1.0:
            continue
        expo = 2.0 / (2.0 * rec.order - 1.0)
        d_lo = min(abs(u - loc), abs(v - loc))
        d_hi = max(abs(u - loc), abs(v - loc))
        c1 = d_lo * rec.D_at(p - 1) ** expo
        c2 = d_hi * rec.D_at(p - 2) ** expo
        sandwich_rows.append((loc, side, p, c1, c2))
        c1_min = min(c1_min, c1)
        c2_max = max(c2_max, c2)
        seen_p.add(p)
    sandwich_ok = c1_min > 0.0 and math.isfinite(c2_max)
    if sandwich_rows:
        p_lo, p_hi = min(seen_p), max(seen_p)
        empty = [p for p in range(p_lo, p_hi + 1) if p not in seen_p]
    else:
        c1_min, c2_max = math.nan, math.nan
        empty = []

    inf_df = partition.inf_df.tolist()
    min_inf = min(inf_df, default=math.nan)
    expansion_ok = bool(min_inf >= 2.0)
    if not expansion_ok:
        k = min(range(len(inf_df)), key=inf_df.__getitem__)
        witnesses.append(["expansion", partition.a[k].item(),
                          partition.b[k].item(), inf_df[k]])

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
