"""Binding periods and the induced-map partition.

A point inside a one-sided neighborhood of a critical point binds to the
critical orbit until its separation first exceeds the gamma-scaled critical
distance; outside the neighborhoods, orbits run freely for at most q0 steps.
The partition builder turns this into maximal intervals on which the induced
map f-hat = f^tau is a diffeomorphism, together with an explicit unresolved
set, and the lemma checker replays the geometric inequalities the
construction relies on.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _vec
from . import expr as ex
from .critical_orbit import compute_orbit, orbit_records
from .distortion import abs_df_extrema, end_orbits, generalized_distortion
from .map_model import _check_delta, critical_distance, evaluate

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

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "critical_point": [self.critical_point.location,
                               self.critical_point.side],
            "p": self.p,
            "truncated": self.truncated,
            "df_p": self.df_p,
            "trajectory": [list(r) for r in self.trajectory],
        }


def _point_delta(m, x: float, delta: float):
    for cp in m.critical_points:
        if cp.contains(x, delta):
            return cp
    return None


def _scalar_step(m, x: float, what: str):
    try:
        return evaluate(m, x)
    except ex.EvalDomainError as err:
        raise ValueError(f"{what} landed on a branch boundary at x={x!r}")\
            from err


def binding_period(m, x, delta=None, records=None, p_max: int = 60
                   ) -> BindingResult:
    """Smallest p with |f^p(x) - c_p| > gamma_p * d(c_p).

    x must lie inside one of the one-sided critical neighborhoods.  Points
    on the singular side (order <= 1) take p = 1 by convention, with no
    comparisons.  If every step up to p_max stays bound, the result is
    truncated at p_max.
    """
    delta = m.delta if delta is None else float(delta)
    x = float(x)
    cp = _point_delta(m, x, delta)
    if cp is None:
        raise ValueError(f"x={x!r} is not inside any critical neighborhood")
    if cp.order <= 1.0:
        return BindingResult(x, cp, 1, [], False,
                             abs(_scalar_step(m, x, "binding orbit").d1))
    rec = None
    if records is not None:
        rec = records.get((cp.location, cp.side))
    if rec is None or rec.N < p_max:
        rec = compute_orbit(m, cp, p_max + 1)

    y = x
    log_p = 0.0
    rows = []
    p = p_max
    truncated = True
    for j in range(1, p_max + 1):
        jet = _scalar_step(m, y, "binding orbit")
        log_p += math.log(abs(jet.d1))
        y = jet.value
        if y < m.lo - 1e-9 or y > m.hi + 1e-9:
            raise ValueError(f"binding orbit of {x!r} left the domain")
        y = min(max(y, m.lo), m.hi)
        if j - 1 >= rec.n_filled:
            raise RuntimeError(
                "critical orbit reaches the critical set before the binding "
                f"of x={x!r} resolves")
        c_j = rec.c[j - 1]
        d_j = rec.d[j - 1]
        g_j = rec.gamma[j - 1]
        sep = abs(y - c_j)
        seg_d = min(float(critical_distance(m, y)), d_j)
        rows.append((j, sep, g_j * d_j, seg_d))
        if sep > g_j * d_j:
            p = j
            truncated = False
            break
    return BindingResult(x, cp, p, rows, truncated, math.exp(log_p))


def _binding_periods_batch(m, xs, rec, delta: float, p_max: int):
    """Binding periods for an array of same-side points; -1 marks failures."""
    y = np.asarray(xs, dtype=float).copy()
    n = y.size
    p = np.full(n, -1, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    for j in range(1, p_max + 1):
        if not alive.any():
            break
        if j - 1 >= rec.n_filled:
            break
        idx = np.nonzero(alive)[0]
        v = _vec.step_values(m, y[idx])
        bad = ~np.isfinite(v) | (v < m.lo - 1e-9) | (v > m.hi + 1e-9)
        if bad.any():
            alive[idx[bad]] = False
            idx = idx[~bad]
            v = v[~bad]
        y[idx] = np.clip(v, m.lo, m.hi)
        sep = np.abs(y[idx] - rec.c[j - 1])
        ended = sep > rec.gamma[j - 1] * rec.d[j - 1]
        p[idx[ended]] = j
        alive[idx[ended]] = False
    # points still bound when the critical record ran out stay undecided
    p[alive] = p_max if rec.n_filled >= p_max else -1
    return p


# ---------------------------------------------------------------------------
# first entry and inducing time


def first_entry(m, x, delta, q0: int):
    """Smallest l in [0, q0) with f^l(x) inside a neighborhood, else None."""
    y = float(x)
    for l in range(int(q0)):
        if _point_delta(m, y, delta) is not None:
            return l
        y = _scalar_step(m, y, "free orbit").value
        y = min(max(y, m.lo), m.hi)
    return None


def inducing_time(m, x, delta=None, q0: int = None, records=None,
                  p_max: int = 60) -> int:
    """q0 on the free part, l0 + p on the bound part.

    A binding truncated at p_max propagates as tau = l0 + p_max; call
    binding_period directly to observe the truncation flag.
    """
    delta = m.delta if delta is None else float(delta)
    if q0 is None:
        raise ValueError("q0 is required")
    l0 = first_entry(m, x, delta, q0)
    if l0 is None:
        return int(q0)
    y = float(x)
    for _ in range(l0):
        y = _scalar_step(m, y, "free orbit").value
    return l0 + binding_period(m, y, delta, records, p_max).p


# ---------------------------------------------------------------------------
# constant-binding piece tables inside the neighborhoods


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
    rec = records[(cp.location, cp.side)]

    def pb(d):
        try:
            r = binding_period(m, c + sgn * d, delta, records, p_max)
        except (ValueError, RuntimeError):
            return None
        return r.p

    floor = max(resolution, 1e-13)
    grid = delta * np.arange(4095, 0, -1) / 4096.0
    samples = [delta * (1.0 - 1e-9)]
    samples.extend(float(d) for d in grid)
    d = delta / 8192.0
    while d > floor:
        samples.append(d)
        d *= 0.5

    # evaluate outward-in, stopping once p_max is reached
    svals = []
    stop_reason = None
    ps = _binding_periods_batch(
        m, c + sgn * np.asarray(samples), rec, delta, p_max)
    for dcur, p in zip(samples, ps):
        p = int(p)
        if p < 0:
            stop_reason = "boundary-unlocated"
            break
        svals.append((dcur, p))
        if p >= p_max:
            stop_reason = "p_max-exceeded"
            break
    if stop_reason is None:
        stop_reason = "boundary-unlocated"  # distance floor reached
    inner_d = svals[-1][0] if svals else delta

    cuts = []

    def refine(d_in, p_in, d_out, p_out):
        if p_in == p_out:
            return
        if p_in is None or p_out is None or d_out - d_in <= 1e-12:
            cuts.append(0.5 * (d_in + d_out))
            return
        dm = 0.5 * (d_in + d_out)
        pm = pb(dm)
        refine(dm, pm, d_out, p_out)
        refine(d_in, p_in, dm, pm)

    for (d_out, p_out), (d_in, p_in) in zip(svals[:-1], svals[1:]):
        refine(d_in, p_in, d_out, p_out)
    cuts.sort()

    pieces, gaps = [], []
    bounds = [inner_d] + cuts + [delta]
    for d_lo, d_hi in zip(bounds[:-1], bounds[1:]):
        if d_hi - d_lo <= 0.0:
            continue
        p = pb(0.5 * (d_lo + d_hi))
        if p is None:
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
        return {
            "a": self.a, "b": self.b, "kind": self.kind,
            "l0": self.l0, "p0": self.p0, "tau": self.tau,
            "critical_point": (list(self.critical_point)
                               if self.critical_point else None),
            "itinerary": list(self.itinerary),
            "image": list(self.image),
            "inf_df": self.inf_df, "sup_df": self.sup_df,
            "orientation": self.orientation,
        }


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


def _branch_geometry(m, a: float, b: float, itinerary, refine_below: float,
                     k_start: int = 1, k_cap: int = 512):
    """Image, orientation, and |Df-hat| bounds for one branch.

    The bounds multiply per-step |Df| extrema (abs_df_extrema) over k
    sub-intervals whose k + 1 edges move along the itinerary: the branch
    ends by their one-sided orbits (end_orbits), the inner edges by plain
    evaluation.  k grows eightfold until the infimum bound clears
    refine_below or reaches k_cap.  The products are rounded to nearest,
    not outward, so they are estimates rather than enclosures.
    """
    steps, image = end_orbits(m, (a, b), len(itinerary), itinerary)
    orient = math.prod(m.monotone_signs[i] for i in itinerary)
    k = k_start
    while True:
        log_inf = np.zeros(k)
        log_sup = np.zeros(k)
        # pos holds the k+1 edge positions at the current step, ascending;
        # a decreasing step reverses them together with the log sums
        pos = np.linspace(a, b, k + 1)
        for u, v, i, left, right in steps:
            br = m.branches[i]
            pos[0], pos[-1] = u, v
            col = np.empty(k + 1)
            col[0], col[-1] = abs(left.d1), abs(right.d1)
            nxt = np.empty(k + 1)
            if k > 1:
                with np.errstate(all="ignore"):
                    nxt[1:-1], d1 = br.values(pos[1:-1], 1)
                    col[1:-1] = np.abs(d1)
            lo_j, hi_j = abs_df_extrema(m, i, pos, col)
            with np.errstate(divide="ignore"):
                log_inf += np.log(lo_j)
                log_sup += np.log(hi_j)
            pos = nxt
            if m.monotone_signs[i] < 0:
                pos, log_inf, log_sup = pos[::-1], log_inf[::-1], log_sup[::-1]
        inf_bound = float(np.exp(np.min(log_inf)))
        sup_bound = float(np.exp(np.max(log_sup)))
        if inf_bound >= refine_below or k >= k_cap:
            break
        k *= 8
    return image, orient, inf_bound, sup_bound


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


def _endpoint_images(m, itin, u, v):
    """Images of the cell ends u (from the right) and v (from the left)
    along the itinerary rows of their cells, by one forced pass.

    A row whose orbit sits exactly on an end of its step's branch, or turns
    non-finite, is redone with the scalar one-sided end_orbits, whose limits
    the array evaluation may miss there.  Returns (f^l(u+), f^l(v-), rows
    redone), l being each row's itinerary length.
    """
    n = u.size
    owner = np.concatenate((np.arange(n), np.arange(n)))
    x0 = np.concatenate((u, v))
    ends = np.array([(br.a, br.b) for br in m.branches])
    redo = np.zeros(2 * n, dtype=bool)
    columns = iter(itin.T)

    def visit(live, pos):
        ids = next(columns)[owner[live]]
        x = pos[live]
        redo[live] |= ((x == ends[ids, 0]) | (x == ends[ids, 1])
                       | ~np.isfinite(x))

    y = _vec.forced_forward(m, itin, owner, x0, visit=visit)
    redo |= ~np.isfinite(y)
    for c in np.unique(owner[redo]).tolist():
        path = itin[c][itin[c] >= 0].tolist()
        ends = end_orbits(m, (u[c], v[c]), len(path), path)[1]
        if math.prod(m.monotone_signs[i] for i in path) < 0:
            ends = ends[::-1]                   # (f^l(u+), f^l(v-))
        rows = [c, c + n]
        y[rows] = np.where(redo[rows], ends, y[rows])
    return y[:n], y[n:], int(redo.sum())


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
    enters; the piece and gap edges strictly inside its image are pulled
    back through the same itinerary and cut it into sub-cells, each
    classified by where its midpoint lands.  All cells, targets and
    sub-cells move together, one forced pass per stage.  Cells whose
    midpoint orbit lands exactly on an interior boundary (or turns
    non-finite) before entry are left unresolved.

    Returns (raw, unresolved, counts): raw rows (a, b, kind, l0, p0, key)
    in no particular order, unresolved rows (a, b, reason) and stage counts.
    """
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    n_cells = mids.size
    entry = np.full(n_cells, -1, dtype=np.int64)
    itin = np.full((n_cells, max(q0 - 1, 0)), -1, dtype=np.int64)
    landed = np.zeros(n_cells, dtype=bool)
    pos = mids.copy()
    entry[_vec.in_delta(m, pos, delta)] = 0
    for j in range(1, q0):
        live = np.nonzero(entry < 0)[0]
        if live.size == 0:
            break
        x = pos[live]
        itin[live, j - 1] = _vec.branch_indices(m, x)
        y = _vec.step_values(m, x)
        landed[live] |= np.isin(x, m.interior_boundaries) | ~np.isfinite(y)
        stepped = np.clip(y, m.lo, m.hi)
        pos[live] = stepped
        entry[live[_vec.in_delta(m, stepped, delta)]] = j

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
        inside = ((y_mid > c) & (y_mid < c + delta) if sgn == "+"
                  else (y_mid > c - delta) & (y_mid < c))
        entered[(entered < 0) & inside] = s
    lost = landed[bound] | (entered < 0)
    unresolved = [(a, b, "boundary-unlocated") for a, b in zip(
        cuts[bound[lost]].tolist(), cuts[bound[lost] + 1].tolist())]
    cells, entered = bound[~lost], entered[~lost]
    l0 = entry[cells]
    it = itin[cells]
    u, v = cuts[cells], cuts[cells + 1]

    # images of the cells under f^l0
    j_lo, j_hi = u.copy(), v.copy()
    moved = np.flatnonzero(l0 > 0)
    ja, jb, n_fallback = _endpoint_images(m, it[moved], u[moved], v[moved])
    j_lo[moved] = np.where(jb < ja, jb, ja)
    j_hi[moved] = np.where(jb > ja, jb, ja)

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

    # pull the targets back through the itinerary, last step first
    t_l0 = l0[t_owner]
    for j in range(int(t_l0.max(initial=0)) - 1, -1, -1):
        ids = it[t_owner, j]
        live = ids >= 0
        xs[live] = _vec.branch_inverse(m, ids[live], xs[live])
    back = t_l0 > 0
    xs[back] = np.clip(xs[back], u[t_owner[back]], v[t_owner[back]])

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
              "targets_inverted": int(back.sum()), "sub_cells": len(su),
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
    breakpoints runs as batched forced passes over all cells at once (see
    _classify_cells); only cell ends whose orbit sits exactly on a branch
    end, or turns non-finite, take the scalar one-sided jets.  Adjacent
    cells with the same itinerary and binding merge into one branch.  Cells
    whose classification cannot be pinned down at the requested resolution
    land in the unresolved set with a reason.  The stage counts and the
    unresolved measure per reason are logged at INFO.
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
    it_mat = np.full((len(raw), int(r_tau.max(initial=0))), -1,
                     dtype=np.int64)
    posr = np.array([0.5 * (r[0] + r[1]) for r in raw])
    for j in range(it_mat.shape[1]):
        live = np.nonzero(r_tau > j)[0]
        it_mat[live, j] = _vec.branch_indices(m, posr[live])
        posr[live] = np.clip(_vec.step_values(m, posr[live]), m.lo, m.hi)
    merged = _merge_cells(raw, it_mat)

    # stage 4: per-branch geometry and derivative bounds
    branches = []
    for (a, b, kind, l0, p0, key), itin in merged:
        tau = q0 if kind == "free" else l0 + p0
        image, orient, inf_df, sup_df = _branch_geometry(
            m, a, b, itin, refine_below=4.0)
        branches.append(InducedBranch(
            a=a, b=b, kind=kind, l0=l0, p0=p0, tau=tau,
            critical_point=key, itinerary=itin, image=image,
            inf_df=inf_df, sup_df=sup_df, orientation=orient))

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
        "unresolved measure by reason %s",
        counts["cells"], counts["free"], counts["bound"],
        counts["boundary_landed"], counts["targets_inverted"],
        counts["sub_cells"], counts["endpoint_fallbacks"], len(raw),
        len(branches), sum(br.sup_df == math.inf for br in branches),
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
    """(f-hat(x), |Df-hat(x)|, tau) on the branch containing x."""
    br = partition.locate(x)
    y = float(x)
    prod = 1.0
    for _ in range(br.tau):
        jet = _scalar_step(m, y, "induced orbit")
        prod *= jet.d1
        y = jet.value
    return y, abs(prod), br.tau


def write_partition_csv(partition: InducedPartition, path) -> None:
    """Branch table as CSV: a,b,class,l0,p0,tau,inf_df,sup_df."""
    with open(path, "w", newline="\n") as fh:
        fh.write("a,b,class,l0,p0,tau,inf_df,sup_df\n")
        for br in partition.branches:
            l0 = "" if br.l0 is None else str(br.l0)
            p0 = "" if br.p0 is None else str(br.p0)
            fh.write("%s,%s,%s,%s,%s,%d,%s,%s\n" % (
                repr(br.a), repr(br.b), br.kind, l0, p0, br.tau,
                repr(br.inf_df), repr(br.sup_df)))


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
        return {
            "n_samples": self.n_samples,
            "ratio_max": self.ratio_max, "gamma_hat": self.gamma_hat,
            "margin_ratio": self.margin_ratio,
            "sandwich_c1": self.sandwich_c1, "sandwich_c2": self.sandwich_c2,
            "sandwich_rows": [list(r) for r in self.sandwich_rows],
            "empty_piece_p": list(self.empty_piece_p),
            "min_inf_df": self.min_inf_df, "checks": dict(self.checks),
            "witnesses": list(self.witnesses), "passed": self.passed,
        }


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
    witnesses = []

    crit = [cp for cp in m.critical_points if cp.order > 1.0]
    ratio_max = 0.0
    gamma_hat = 1.0
    gamma_finite = True
    n_segments = n_distortions = 0
    margin_ratio = math.inf
    if crit:
        per = max(1, n_samples // len(crit))
        for cp in crit:
            rec = records[(cp.location, cp.side)]
            sgn = 1.0 if cp.side == "+" else -1.0
            dists = np.concatenate([
                rng.uniform(0.0, delta, per // 2),
                delta * 2.0 ** -rng.uniform(0.0, 30.0, per - per // 2)])
            dists = dists[dists > 0]
            expo = 1.0 / (2.0 * cp.order - 1.0)
            for d in dists:
                x = cp.location + sgn * float(d)
                try:
                    res = binding_period(m, x, delta, records,
                                         partition.p_max)
                except (ValueError, RuntimeError):
                    continue
                rows = (res.trajectory if res.truncated
                        else res.trajectory[:-1])
                n_segments += len(rows)
                for j, sep, gd, seg_d in rows:
                    g_j = rec.gamma[j - 1]
                    r = (sep / seg_d) / (2.0 * g_j) if seg_d > 0 else math.inf
                    if r > ratio_max:
                        ratio_max = r
                        if r > 1.0 + 1e-9:
                            witnesses.append(
                                ["segment-ratio", x, j, float(r)])
                if not res.truncated and res.p >= 2:
                    c1 = rec.c[0]
                    fx = evaluate(m, x).value
                    seg = (min(fx, c1), max(fx, c1))
                    if seg[1] - seg[0] > 0:
                        n_distortions += 1
                        try:
                            g = generalized_distortion(m, seg, res.p - 1)
                            gamma_hat = max(gamma_hat, g.value)
                            if not math.isfinite(g.value):
                                gamma_finite = False
                        except ValueError as err:
                            gamma_finite = False
                            witnesses.append(
                                ["distortion", x, res.p, str(err)])
                if not res.truncated:
                    denom = rec.D_at(res.p - 1) ** expo
                    margin_ratio = min(margin_ratio, res.df_p / denom)
    else:
        margin_ratio = math.nan

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
        margin_ratio=float(margin_ratio),
        sandwich_c1=float(c1_min),
        sandwich_c2=float(c2_max),
        sandwich_rows=sandwich_rows,
        empty_piece_p=empty,
        min_inf_df=float(min_inf),
        checks={
            "segment_ratio": _status(n_segments, ratio_max <= 1.0 + 1e-9),
            "distortion": _status(n_distortions, gamma_finite),
            "sandwich": _status(len(sandwich_rows), sandwich_ok),
            "expansion": "passed" if expansion_ok else "failed",
        },
        witnesses=witnesses,
    )
