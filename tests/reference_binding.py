"""A yardstick for binding piece tables: the binding rule in long double.

long_double_periods applies inducing.binding_periods' rule (the first j with
|f^j(x) - c_j| > gamma_j * d(c_j), c_j and the tube from the double
critical record) to points whose own orbits step in long double (64-bit
significand on x86) through the expression closures.  So a point's
period is decided by the rule, not by the rounding of f near the critical
value c_1, which in double hides every point within about sqrt(eps) of c
on a quadratic side.  long_double_edges bisects that rule to each piece
edge R_j, the largest distance from c still bound after step j.

piece_rows and side_rows turn a side's table (R, reason) from
inducing._binding_piece_table back into the interval rows that the
references compare: (lo, hi, p) pieces and (lo, hi, reason) gaps.
"""

import numpy as np

from cusp_induce import expr
from cusp_induce import inducing as ind
from cusp_induce.critical_orbit import compute_orbit

# Halvings of [0, delta] per edge: delta * 2^-90 is far below any edge the
# long-double rule can resolve.
EDGE_HALVINGS = 90


def _record(m, cp, records, p_max):
    rec = None if records is None else records.get((cp.location, cp.side))
    return compute_orbit(m, cp, p_max + 1) if rec is None or rec.N < p_max \
        else rec


def long_double_periods(m, cp, records, d, p_max: int = 60) -> np.ndarray:
    """The binding period of each point c + sgn * d (d > 0, long double, on
    cp's side), each step on the branch holding the point (the side's own
    branch at step 1) and clamped to the domain; p_max where the point is
    still bound after p_max steps, ind.RECORD_SHORT past the record's end
    and ind.UNDEFINED at a non-finite value."""
    rec = _record(m, cp, records, p_max)
    rules = [expr._array_jet(br.tree, br.params) for br in m.branches]
    bounds = np.array([br.a for br in m.branches[1:]], dtype=np.longdouble)
    sgn = 1 if cp.side == "+" else -1
    first = int(np.searchsorted(m.interior_boundaries, cp.location,
                                side="right" if sgn > 0 else "left"))
    y = np.longdouble(cp.location) + sgn * np.asarray(d, dtype=np.longdouble)
    p = np.full(y.size, p_max)
    live = np.arange(y.size)
    with np.errstate(all="ignore"):
        for j in range(1, p_max + 1):
            if j > rec.n_filled:
                p[live] = ind.RECORD_SHORT
                break
            ids = (np.full(live.size, first) if j == 1 else
                   np.searchsorted(bounds, y[live], side="right"))
            v = np.empty(live.size, dtype=np.longdouble)
            for i, rule in enumerate(rules):
                sel = ids == i
                if sel.any():
                    v[sel] = rule(y[live][sel], 0, None)
            bad = ~np.isfinite(v)
            p[live[bad]] = ind.UNDEFINED
            live, v = live[~bad], v[~bad]
            y[live] = v = np.clip(v, m.lo, m.hi)
            tube = np.longdouble(rec.gamma[j - 1]) * np.longdouble(rec.d[j - 1])
            out = np.abs(v - np.longdouble(rec.c[j - 1])) > tube
            p[live[out]] = j
            live = live[~out]
            if not live.size:
                break
    return p


def long_double_edges(m, cp, records, delta: float, p_max: int = 60
                      ) -> np.ndarray:
    """R_j for j = 1..p_max - 1 under long_double_periods: the largest
    distance d in (0, delta] whose point is still bound after step j (p > j,
    a failure code counting as bound), delta where all of (0, delta] is,
    by EDGE_HALVINGS halvings of [0, delta] for every j at once."""
    j = np.arange(1, p_max)
    lo = np.zeros(j.size, dtype=np.longdouble)
    hi = np.full(j.size, delta, dtype=np.longdouble)

    def bound(d):
        p = long_double_periods(m, cp, records, d, p_max)
        return (p > j) | (p < 0)

    top = bound(hi)
    for _ in range(EDGE_HALVINGS):
        mid = 0.5 * (lo + hi)
        up = bound(mid)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return np.where(top, np.longdouble(delta), lo).astype(float)


def piece_rows(cp, table):
    """(pieces, gaps) of one side's table (R, reason): the (lo, hi, p) row
    c + sgn * (R_j, R_(j-1)) of each piece j that is not empty and the (lo,
    hi, reason) row c + sgn * (0, R_last) of the inner gap, where R_last >
    0, each list ascending."""
    c, sgn = cp.location, (1.0 if cp.side == "+" else -1.0)
    R, reason = table[0].tolist(), table[1]

    def oriented(items):
        return sorted((*sorted((c + sgn * lo_d, c + sgn * hi_d)), payload)
                      for lo_d, hi_d, payload in items)

    rows = [(R[j], R[j - 1], j) for j in range(1, len(R)) if R[j] < R[j - 1]]
    gaps = [(0.0, R[-1], reason)] if R[-1] > 0.0 else []
    return oriented(rows), oriented(gaps)


def side_rows(m, delta, records, p_max, resolution):
    """Per critical point in declared order, piece_rows of its side's table
    as one sorted list of (lo, hi, ("piece", p)) and (lo, hi, ("gap",
    reason))."""
    tables = []
    for cp in m.critical_points:
        pieces, gaps = piece_rows(cp, ind._binding_piece_table(
            m, cp, delta, records, p_max, resolution))
        tables.append(sorted([(lo, hi, ("piece", p)) for lo, hi, p in pieces]
                             + [(lo, hi, ("gap", r)) for lo, hi, r in gaps]))
    return tables
