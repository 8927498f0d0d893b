"""Vectorized map kernels shared by the sampling and partition machinery.

One forward pass (_forced_pass) pushes points through step plans, per step
the (branch, points) pairs of its formula groups; interval ends, the
pullback's pieces and stage 4's sub-intervals among them, follow
distortion.array_end_orbits instead, by forced_forward's owner index.
Two inverses run on the pass: a bisection (_bisect) for branch_inverse and
a Chandrupatla root finder (_chandrupatla) for forced_inverse, the
preimages of the Ulam assembly.  Forced plans (_dispatch) follow fixed
itineraries, so a point on a branch boundary keeps its itinerary.  One-step
plans apply branch ids[k] to point k, with ids from positional dispatch
(branch_indices: comparisons against the interior boundaries, ties to the
right-hand branch, as MapSpec.branch_index) or from the caller; on a map
whose branches share one formula, step_values skips the ids and evaluates
the whole array at once, and branch_inverse orders its targets so that
each formula group is one contiguous slice.
Each formula group makes one Branch.values call per step: the value alone,
or with derivative order 1 or 2 the value and its derivatives from one
array jet, which the pass chains into Df and D2f of the composition.
Expression evaluation never raises here; exact landings on kinks or blowup
points come back as non-finite entries for the caller to mask out.
"""

from __future__ import annotations

import numpy as np

# Points one forced pass over a group of induced branches may hold at once.
# Groups keep the per-step Python overhead off tiny arrays while bounding the
# working arrays of the Ulam assembly (peak memory).
CHUNK_POINTS = 1 << 14

# Halvings of a whole-branch bracket in branch_inverse: 60 take any
# double-width branch down to its last bits.
BISECTION_STEPS = 60

# Steps of the root finder of forced_inverse before it gives up.  Targets
# where the composition is flat at the rounding floor take the most: 23 on
# the lorenz(1.9, 0.4) benchmark partition, 37 on the chebyshev one.
ROOT_STEPS = 200


def branch_indices(m, x: np.ndarray) -> np.ndarray:
    """The branch holding each x: the count of interior boundaries b with
    not x < b.  Ties go to the right-hand branch and NaN to the last, as
    searchsorted(side="right") and MapSpec.branch_index; on the few
    boundaries of a map the comparisons cost less than the search."""
    idx = np.zeros(np.shape(x), dtype=np.intp)
    for b in m.interior_boundaries.tolist():
        idx += ~(x < b)
    return idx


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
    parts = [(br, (g == k).nonzero()[0]) for k, br in enumerate(firsts)]
    return [p for p in parts if p[1].size]


def step_values(m, x: np.ndarray, order: int = 0, ids=None):
    """f(x) elementwise, or with derivative order 1 or 2 the tuple of f(x)
    and its first (and second) derivatives, as _forced_pass.  Point k takes
    branch ids[k], by default the branch holding it (branch_indices).  On a
    map whose branches share one formula the ids change nothing, so none
    are computed: one Branch.values call takes the whole array (none an
    empty one, as with ids)."""
    x = np.asarray(x, dtype=float)
    firsts = m.formula_groups[1]
    if len(firsts) == 1 and x.size:
        return _forced_pass([[(firsts[0], ...)]], x, order)
    if ids is None:
        ids = branch_indices(m, x)
    return _forced_pass([_formula_parts(m, m.formula_groups[0][ids])], x,
                        order)


def in_side(x, c: float, side: str, delta: float):
    """Membership in the open one-sided neighborhood of c: c < x < c + delta
    on side "+", c - delta < x < c on side "-"; a bool at a float x."""
    if side == "+":
        return (x > c) & (x < c + delta)
    return (x > c - delta) & (x < c)


def in_delta(m, x, delta: float) -> np.ndarray:
    """Membership in the union of the one-sided neighborhoods (in_side)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=bool)
    for cp in m.critical_points:
        out |= in_side(x, cp.location, cp.side, delta)
    return out


def branch_inverse(m, ids, targets) -> np.ndarray:
    """Preimage of targets[k] under branch ids[k], each target clamped onto
    the branch image first: BISECTION_STEPS halvings of the whole branch.

    The targets are ordered by formula group, so that each group's
    evaluation takes a contiguous slice, and the preimages are returned
    in the order given."""
    group_of, firsts = m.formula_groups
    groups = group_of[np.asarray(ids, dtype=np.int64)]
    order = np.argsort(groups, kind="stable")
    cuts = np.searchsorted(groups[order], np.arange(len(firsts) + 1))
    plan = [[(br, slice(a, b)) for br, a, b
             in zip(firsts, cuts[:-1], cuts[1:]) if b > a]]
    ids = np.asarray(ids, dtype=np.int64)[order]
    ends = np.array([(br.a, br.b) for br in m.branches])[ids]
    images = np.array(m.branch_images)[ids]
    t = np.clip(np.asarray(targets, dtype=float)[order], images[:, 0],
                images[:, 1])
    up = np.array(m.monotone_signs)[ids] > 0
    out = np.empty(ids.size)
    out[order] = _bisect(plan, ends[:, 0], ends[:, 1], t, up,
                         BISECTION_STEPS)
    return out


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
    the (branch, points) pairs of _formula_parts.  Passes over the same
    points (the steps of forced_inverse's root finder, until it compacts
    its working set) share one dispatch."""
    return [_formula_parts(m, col[owner])
            for col in m.formula_groups[0][itin].T]


def _forced_pass(plan, x, order: int = 0):
    """Push x through a plan (from _dispatch, or of one step).

    Returns the image, or with derivative order 1 or 2 the tuple of the
    image and its first (and second) derivatives.
    """
    pos = np.array(x, dtype=float)
    P = np.ones_like(pos) if order else None
    S = np.zeros_like(pos) if order > 1 else None
    with np.errstate(all="ignore"):
        for parts in plan:
            for br, sel in parts:
                out = br.values(pos[sel], order)
                if order:
                    Pv = P[sel]
                    if order > 1:
                        S[sel] = out[2] * Pv ** 2 + out[1] * S[sel]
                    P[sel] = out[1] * Pv
                    out = out[0]
                pos[sel] = out
    return (pos, P, S)[:order + 1] if order else pos


def forced_forward(m, itin, owner, x, order: int = 0):
    """Push points along fixed itineraries: point k follows row owner[k].

    Step j applies branch itin[owner, j] wherever the point sits, so a point
    on a branch boundary keeps its itinerary; a -1 entry ends the orbit.
    Returns f^tau(x), or with derivative order 1 or 2 the tuple of f^tau
    and its first (and second) derivatives, as _forced_pass.
    """
    return _forced_pass(_dispatch(m, itin, owner), x, order)


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


def _step(x1, x2, x3, f1, f2, f3, tol, gap):
    """Chandrupatla's step as a fraction of x2 - x1: inverse quadratic
    through the three points where the xi/phi test passes (x3 lies beyond
    x1), a halving elsewhere, kept max(tol / 2, gap) inside the bracket."""
    span = x2 - x1
    d12, d32 = f1 - f2, f3 - f2
    xi = span / (x2 - x3)
    phi = d12 / d32
    iqi = f1 / d32 * (f3 / d12 + (x3 - x1) / span * f2 / (f3 - f1))
    ok = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
    tl = np.minimum(np.maximum(0.5 * tol, gap) / np.abs(span), 0.5)
    return np.maximum(np.minimum(np.where(ok, iqi, 0.5), 1.0 - tl), tl)


def _chandrupatla(plan_of, t, x1, x2, x3, f1, f2, f3, xatol, stats=None):
    """Roots of F(x) = t on the brackets [x1, x2], with residuals f1, f2
    and a third point x3 beyond x1 (residual f3, or NaN for none).

    F is the forced pass of plan_of(sel), the plan of the points sel.
    Each step is Chandrupatla's (Adv. Eng. Software 28, 1997; _step).  gap
    is twice the last run of equal residuals seen: where F is flat at the
    rounding floor, a step next to the flat end would land on it again.
    A point stops at the bracket end of smaller finite |residual| once
    that residual is zero, the bracket is narrower than tol = 4 eps |x| +
    xatol, or the other residual is not finite or has the same sign.
    Finished points idle until half the working set has finished; then
    the set is compacted and its plan rebuilt.  More than ROOT_STEPS steps
    raise RuntimeError.  stats, when given, gains the evaluations, the
    targets, the largest step count ("max_steps") and the points stopped
    on a non-finite residual ("nonfinite").
    """
    n = t.size
    out = np.empty(n)
    steps = np.zeros(n, dtype=np.int64)
    nonfinite = 0
    eps4 = 4.0 * np.finfo(float).eps
    state = (np.arange(n), t, x1, x2, x3, f1, f2, f3, xatol, np.zeros(n))
    done = np.zeros(n, dtype=bool)
    plan = None
    with np.errstate(all="ignore"):
        for k in range(ROOT_STEPS + 1):
            work, t, x1, x2, x3, f1, f2, f3, xatol, gap = state
            a1, a2 = np.abs(f1), np.abs(f2)
            small = np.fmin(a1, a2)
            xmin = np.where(a1 == small, x1, x2)
            tol = eps4 * np.abs(xmin) + xatol
            finite = np.isfinite(a1 + a2)
            stop = ~done & ((small == 0.0) | (np.abs(x2 - x1) < tol)
                            | ~finite | ((f1 < 0) == (f2 < 0)))
            if stop.any():
                out[work[stop]] = xmin[stop]
                steps[work[stop]] = k
                nonfinite += int((stop & ~finite).sum())
                done |= stop
            if plan is None or 2 * done.sum() >= done.size:
                state = tuple(v[~done] for v in state)
                tol, done = tol[~done], done[~done]
                if not done.size:
                    break
                plan = plan_of(state[0])
                work, t, x1, x2, x3, f1, f2, f3, xatol, gap = state
            if k == ROOT_STEPS:
                raise RuntimeError(
                    f"root finder did not converge on {done.size - done.sum()}"
                    f" target(s) in {ROOT_STEPS} steps")
            x = x1 + _step(x1, x2, x3, f1, f2, f3, tol, gap) * (x2 - x1)
            f = _forced_pass(plan, x) - t
            same = (f < 0) == (f1 < 0)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            gap = np.where(f == f3, 2.0 * np.abs(x - x3), gap)
            state = (work, t, x, x2, x3, f, f2, f3, xatol, gap)
    if stats is not None:
        for key, v in (("evaluations", int(steps.sum())), ("targets", n),
                       ("nonfinite", nonfinite)):
            stats[key] = stats.get(key, 0) + v
        stats["max_steps"] = max(stats.get("max_steps", 0),
                                 int(steps.max(initial=0)))
    return out


def forced_inverse(m, itin, a, b, increasing, targets, stats=None) -> list:
    """Preimages of targets[k] under the forced composition of itin row k.

    Row k is monotone on [a[k], b[k]] in the sense increasing[k], and
    targets[k] is ascending.  A forward grid of max(16, n) cells per row
    seeds brackets one cell wide, with the residuals at both ends and at
    the node beyond one end; _chandrupatla polishes each preimage to within
    4 eps |x| plus 2**-31 of the row's grid cell, no looser than thirty
    halvings.  stats, when
    given, gains the root finder's counts (_chandrupatla).
    """
    grids = [np.linspace(u, v, max(16, t.size) + 1)
             for u, v, t in zip(a, b, targets)]
    sizes = np.array([g.size for g in grids])
    starts = np.cumsum(sizes) - sizes
    xs = np.concatenate(grids)
    ys = forced_forward(m, itin, np.repeat(np.arange(len(grids)), sizes), xs)
    pos = [np.searchsorted(y if inc else y[::-1], t)
           for y, t, inc in zip(np.split(ys, starts[1:]), targets,
                                increasing)]
    counts = [t.size for t in targets]
    owner = np.repeat(np.arange(len(targets)), counts)
    size, start = sizes[owner], starts[owner]
    pos = np.clip(np.concatenate(pos), 1, size - 1)
    up = np.asarray(increasing, dtype=bool)[owner]
    t = np.concatenate(targets)

    def node(i):
        """Node i of the row in its order of increasing image."""
        return start + np.where(up, i, size - 1 - i)

    # x1 and x2 bracket the target; x3 is the node beyond x1, if any
    i1, i2, i3 = node(pos - 1), node(pos), node(np.maximum(pos - 2, 0))
    none = np.where(pos > 1, 0.0, np.nan)
    x = _chandrupatla(lambda sel: _dispatch(m, itin, owner[sel]), t,
                      xs[i1], xs[i2], xs[i3] + none, ys[i1] - t, ys[i2] - t,
                      ys[i3] - t + none,
                      (xs[start + 1] - xs[start]) * 2.0 ** -31, stats)
    return np.split(x, np.cumsum(counts)[:-1])
