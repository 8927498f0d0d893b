"""Vectorized map kernels shared by the sampling and partition machinery.

One forward pass (_forced_pass) and one bisection (_bisect) run on step
plans.  Forced plans (_dispatch) follow fixed itineraries, so a point on a
branch boundary keeps its itinerary.  One-step plans apply branch ids[k] to
point k, with ids from positional dispatch (searchsorted over the interior
boundaries, ties to the right-hand branch, as MapSpec.branch_index) or from
the caller of branch_inverse.
Expression evaluation never raises here; exact landings on kinks or blowup
points come back as non-finite entries for the caller to mask out.
"""

from __future__ import annotations

import numpy as np

# Points one forced pass over a group of induced branches may hold at once.
# Groups keep the per-step Python overhead off tiny arrays while bounding the
# working arrays of the Ulam assembly and the pullback (peak memory).
CHUNK_POINTS = 1 << 14

# Halvings of a whole-branch bracket in branch_inverse: 60 take any
# double-width branch down to its last bits.
BISECTION_STEPS = 60


def branch_indices(m, x: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(m.interior_boundaries, x, side="right")
    return np.minimum(idx, len(m.branches) - 1)


def _formula_parts(m, g) -> list:
    """(evaluating branch, points) per formula group, from group ids g.

    Branches with one formula form a group (m.formula_groups) and share
    one evaluation; the points are ``...`` when one group holds them all,
    so the caller works on whole arrays with no fancy-index gather and
    scatter.  Id -1 (a finished itinerary) belongs to no group.
    """
    firsts = m.formula_groups[1]
    first = g.flat[0] if g.size else -1
    if first >= 0 and (g == first).all():
        return [(firsts[first], ...)]
    parts = [(br, np.flatnonzero(g == k)) for k, br in enumerate(firsts)]
    return [p for p in parts if p[1].size]


def _one_step_plan(m, ids) -> list:
    """Plan of one step that applies branch ids[k] to point k."""
    return [(None, _formula_parts(m, m.formula_groups[0][ids]))]


def step_values(m, x: np.ndarray) -> np.ndarray:
    """f(x) elementwise."""
    x = np.asarray(x, dtype=float)
    return _forced_pass(_one_step_plan(m, branch_indices(m, x)), x)


def step_with_derivative(m, x: np.ndarray):
    """(f(x), Df(x)) elementwise."""
    x = np.asarray(x, dtype=float)
    return _forced_pass(_one_step_plan(m, branch_indices(m, x)), x, order=1)


def in_delta(m, x, delta: float) -> np.ndarray:
    """Membership in the union of the one-sided neighborhoods (open)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=bool)
    for cp in m.critical_points:
        c = cp.location
        if cp.side == "+":
            out |= (x > c) & (x < c + delta)
        else:
            out |= (x > c - delta) & (x < c)
    return out


def branch_inverse(m, ids, targets) -> np.ndarray:
    """Preimage of targets[k] under branch ids[k], each target clamped onto
    the branch image first: BISECTION_STEPS halvings of the whole branch."""
    ids = np.asarray(ids, dtype=np.int64)
    ends = np.array([(br.a, br.b) for br in m.branches])[ids]
    images = np.array(m.branch_images)[ids]
    t = np.clip(np.asarray(targets, dtype=float), images[:, 0], images[:, 1])
    up = np.array(m.monotone_signs)[ids] > 0
    return _bisect(_one_step_plan(m, ids), ends[:, 0], ends[:, 1], t, up,
                   BISECTION_STEPS)


def preimages(m, targets):
    """All f-preimages of the targets, as (branch ids, preimages), branch by
    branch; a branch takes the targets within 1e-12 of its image."""
    t = np.asarray(targets, dtype=float)
    images = np.array(m.branch_images)
    ids, k = np.nonzero((t >= images[:, :1] - 1e-12)
                        & (t <= images[:, 1:] + 1e-12))
    return ids, branch_inverse(m, ids, t[k])


# ---------------------------------------------------------------------------
# forced passes along fixed itineraries


def itinerary_matrix(itineraries) -> np.ndarray:
    """Itineraries as the rows of one matrix, padded with -1 past their end."""
    width = max((len(it) for it in itineraries), default=0)
    out = np.full((len(itineraries), width), -1, dtype=np.int64)
    for k, it in enumerate(itineraries):
        out[k, :len(it)] = it
    return out


def chunk_ranges(sizes) -> list:
    """(start, stop) runs of consecutive items that together hold about
    CHUNK_POINTS points: a run closes once its sizes reach the budget."""
    runs, start, total = [], 0, 0
    for k, size in enumerate(sizes, 1):
        total += size
        if total >= CHUNK_POINTS or k == len(sizes):
            runs.append((start, k))
            start, total = k, 0
    return runs


def _dispatch(m, itin, owner) -> list:
    """Per step of a forced pass of the points owned by itin rows owner:
    the live mask and the (branch, points) pairs of _formula_parts.  Passes
    over the same points (the bisection of forced_inverse) share one
    dispatch."""
    plan = []
    for col in m.formula_groups[0][itin].T:
        groups = col[owner]
        plan.append((groups >= 0, _formula_parts(m, groups)))
    return plan


def _forced_pass(plan, x, order: int = 0, visit=None):
    """Push x through a plan (from _dispatch or _one_step_plan).

    Returns the image, or with derivative order 1 or 2 the tuple of the
    image and its first (and second) derivatives.
    """
    pos = np.array(x, dtype=float)
    P = np.ones_like(pos) if order else None
    S = np.zeros_like(pos) if order > 1 else None
    with np.errstate(all="ignore"):
        for live, parts in plan:
            if visit is not None:
                visit(live, pos)
            for br, sel in parts:
                xv = pos[sel]
                if order:
                    d1, Pv = br.d1_values(xv), P[sel]
                    if order > 1:
                        S[sel] = br.d2_values(xv) * Pv ** 2 + d1 * S[sel]
                    P[sel] = d1 * Pv
                pos[sel] = br.values(xv)
    return (pos, P, S)[:order + 1] if order else pos


def forced_forward(m, itin, owner, x, jets: bool = False, visit=None):
    """Push points along fixed itineraries: point k follows row owner[k].

    Step j applies branch itin[owner, j] wherever the point sits, so a point
    on a branch boundary keeps its itinerary; a -1 entry ends the orbit.
    visit(live, pos), when given, sees the positions before every step.
    Returns f^tau(x), or (f^tau, Df^tau, D2f^tau) when jets is set.
    """
    return _forced_pass(_dispatch(m, itin, owner), x, 2 if jets else 0,
                        visit)


def _bisect(plan, lo, hi, t, up, steps):
    """Midpoints of [lo, hi] after steps halvings toward the preimages of t
    under the plan, increasing where up is set and decreasing elsewhere."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        v = _forced_pass(plan, mid)
        go_up = np.where(up, v < t, v > t)
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    return 0.5 * (lo + hi)


def forced_inverse(m, itin, a, b, increasing, targets) -> list:
    """Preimages of targets[k] under the forced composition of itin row k.

    Row k is monotone on [a[k], b[k]] in the sense increasing[k], and
    targets[k] is ascending.  A forward grid of max(16, 2 n) cells per row
    seeds brackets one cell wide, then bisection polishes each preimage;
    thirty halvings of a sub-1e-4 bracket land well under 1e-12.
    """
    grids = [np.linspace(u, v, max(16, 2 * t.size) + 1)
             for u, v, t in zip(a, b, targets)]
    sizes = [g.size for g in grids]
    ys = forced_forward(m, itin, np.repeat(np.arange(len(grids)), sizes),
                        np.concatenate(grids))
    lo, hi = [], []
    for xs, y, t, inc in zip(grids, np.split(ys, np.cumsum(sizes)[:-1]),
                             targets, increasing):
        if not inc:
            xs, y = xs[::-1], y[::-1]
        pos = np.clip(np.searchsorted(y, t), 1, xs.size - 1)
        lo.append(np.minimum(xs[pos - 1], xs[pos]))
        hi.append(np.maximum(xs[pos - 1], xs[pos]))
    counts = [t.size for t in targets]
    owner = np.repeat(np.arange(len(targets)), counts)
    up = np.asarray(increasing, dtype=bool)[owner]
    x = _bisect(_dispatch(m, itin, owner), np.concatenate(lo),
                np.concatenate(hi), np.concatenate(targets), up, 30)
    return np.split(x, np.cumsum(counts)[:-1])
