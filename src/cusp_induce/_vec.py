"""Vectorized map kernels shared by the sampling and partition machinery.

Branch dispatch is positional (searchsorted over the interior boundaries,
ties resolved to the right-hand branch, matching MapSpec.branch_index),
except in the forced passes, where each point follows a fixed itinerary.
Expression evaluation never raises here; exact landings on kinks or blowup
points come back as non-finite entries for the caller to mask out.
"""

from __future__ import annotations

import numpy as np

# Points one forced pass over a group of induced branches may hold at once.
# Groups keep the per-step Python overhead off tiny arrays while bounding the
# working arrays of the Ulam assembly and the pullback (peak memory).
CHUNK_POINTS = 1 << 14


def branch_indices(m, x: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(m.interior_boundaries, x, side="right")
    return np.minimum(idx, len(m.branches) - 1)


def _per_branch(m, x, evaluators, idx=None):
    """Evaluators of branch idx[k] at x[k]; other entries stay unset."""
    x = np.asarray(x, dtype=float)
    outs = [np.empty(x.shape, dtype=float) for _ in evaluators]
    if idx is None:
        idx = branch_indices(m, x)
    with np.errstate(all="ignore"):
        for i, br in enumerate(m.branches):
            sel = idx == i
            if not sel.any():
                continue
            xv = x[sel]
            for out, name in zip(outs, evaluators):
                out[sel] = getattr(br, name)(xv)
    return outs


def step_values(m, x: np.ndarray) -> np.ndarray:
    """f(x) elementwise."""
    return _per_branch(m, x, ("values",))[0]


def step_with_derivative(m, x: np.ndarray):
    """(f(x), Df(x)) elementwise."""
    return tuple(_per_branch(m, x, ("values", "d1_values")))


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


def invert_branch(m, i: int, targets, iters: int = 60):
    """Preimages under branch i by monotone bisection.

    Returns (solutions, ok); solutions has the shape of targets with NaN
    where ok is False.  ok marks targets inside the branch image (with a
    1e-12 slack; such targets are clamped onto the image first).
    """
    br = m.branches[i]
    img_lo, img_hi = m.branch_images[i]
    t = np.asarray(targets, dtype=float)
    ok = (t >= img_lo - 1e-12) & (t <= img_hi + 1e-12)
    tt = np.clip(t[ok], img_lo, img_hi)
    lo = np.full(tt.shape, br.a, dtype=float)
    hi = np.full(tt.shape, br.b, dtype=float)
    increasing = m.monotone_signs[i] > 0
    with np.errstate(all="ignore"):
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            v = br.values(mid)
            up = (v < tt) if increasing else (v > tt)
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
    out = np.full(t.shape, np.nan)
    out[ok] = 0.5 * (lo + hi)
    return out, ok


def preimages(m, targets, iters: int = 60) -> np.ndarray:
    """All f-preimages of the targets, concatenated over branches."""
    out = []
    for i in range(len(m.branches)):
        sol, ok = invert_branch(m, i, targets, iters)
        if ok.any():
            out.append(sol[ok])
    if not out:
        return np.empty(0, dtype=float)
    return np.concatenate(out)


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


def forced_forward(m, itin, owner, x, jets: bool = False, visit=None):
    """Push points along fixed itineraries: point k follows row owner[k].

    Step j applies branch itin[owner, j] wherever the point sits, so a point
    on a branch boundary keeps its itinerary; a -1 entry ends the orbit.
    visit(live, pos), when given, sees the positions before every step.
    Returns f^tau(x), or (f^tau, Df^tau, D2f^tau) when jets is set.
    """
    pos = np.array(x, dtype=float)
    names = ("values", "d1_values", "d2_values") if jets else ("values",)
    if jets:
        P = np.ones_like(pos)
        S = np.zeros_like(pos)
    steps = np.ascontiguousarray(itin.T)
    for j in range(steps.shape[0]):
        ids = steps[j][owner]
        live = ids >= 0
        if visit is not None:
            visit(live, pos)
        outs = _per_branch(m, pos, names, ids)
        if jets:
            _v, d1, d2 = outs
            with np.errstate(all="ignore"):
                np.copyto(S, d2 * P ** 2 + d1 * S, where=live)
                np.copyto(P, d1 * P, where=live)
        np.copyto(pos, outs[0], where=live)
    return (pos, P, S) if jets else pos


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
    t = np.concatenate(targets)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    up = np.asarray(increasing, dtype=bool)[owner]
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        v = forced_forward(m, itin, owner, mid)
        go_up = np.where(up, v < t, v > t)
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    return np.split(0.5 * (lo + hi), np.cumsum(counts)[:-1])
