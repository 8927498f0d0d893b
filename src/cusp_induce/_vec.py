"""Vectorized map kernels shared by the sampling and partition machinery.

One forward pass (_forced_pass) pushes points through step plans; interval
ends, the pullback's pieces and stage 4's sub-intervals among them, follow
distortion.array_end_orbits instead, by forced_forward's owner index.
Forced plans (_planner) follow fixed itineraries, so a point on a branch
boundary keeps its itinerary.  A one-step plan applies branch ids[k] to
point k, with ids from the caller or from positional dispatch (ties to
the right-hand branch, as MapSpec.branch_index), which step_values reads
as formula groups straight off the group boundaries (group_indices).
Each step makes one MapSpec.group_values call over its whole prefix: the
subtrees the formula groups share are evaluated once, and a select picks
each point's group (_apply); a map with one formula needs no select.  The
value comes alone, or with derivative order 1 or 2 with its derivatives
from one array jet, which the pass chains into Df and D2f of the
composition.  Expression evaluation never raises here; exact landings on
kinks or blowup points come back as non-finite entries for the caller to
mask out.

One inverse serves every caller: branch_inverse, one step back through
each formula group's closed form (MapSpec.group_inverses), or through a
bisection for a group that has none.  preimages applies it on every
branch, level by level for the cuts of build_partition's stage 1.
forced_inverse, the preimages of the transfer matrices (the Ulam assembly
and the invariance residual), chains it backward along the itineraries,
last step first, in one pass over the trie of reversed itineraries: rows
that end in the same suffix pull each edge back once.
_fork_join runs shares of work in forked processes: the Birkhoff
ensemble's seed streams (_fastmap), and the pipeline's density stage beside
its lemma replay and summability (cli.cmd_pipeline).
"""

from __future__ import annotations

import itertools
import os

import numpy as np

# Points one forced pass over a group of induced branches, or one
# branch_inverse call of a depth of forced_inverse, holds at once.  Groups
# keep the per-step Python overhead off tiny arrays while bounding the
# working arrays of the Ulam assembly (peak memory).
CHUNK_POINTS = 1 << 14

# Halvings of a whole-branch bracket in branch_inverse's fallback: 60 take
# any double-width branch down to its last bits.
BISECTION_STEPS = 60

# Most processes the Birkhoff ensemble splits across (_worker_count).  Two
# were measured, on two CPUs; each process past the first holds about 50 MB
# resident, 8-12 MB of it its own, and costs CPU time of its own.
MAX_WORKERS = 2


def branch_indices(m, x: np.ndarray) -> np.ndarray:
    """The branch holding each x: the count of interior boundaries b with
    not x < b.  Ties go to the right-hand branch and NaN to the last, as
    searchsorted(side="right") and MapSpec.branch_index; on the few
    boundaries of a map the comparisons cost less than the search."""
    idx = np.zeros(np.shape(x), dtype=np.intp)
    for b in m.interior_boundaries.tolist():
        idx += ~(x < b)
    return idx


def group_indices(m, x: np.ndarray) -> np.ndarray:
    """The formula group of the branch holding each x, with the ties of
    branch_indices.  Where one boundary parts two groups (lorenz,
    singular_unimodal: MapSpec.group_cuts) that is one comparison, whose
    bool is the id."""
    cuts = m.group_cuts
    if cuts.size == 1:
        return ~(x < cuts[0])
    return m.formula_groups[0][branch_indices(m, x)]


def _pick(g, parts):
    """parts[g[k]] at each k.  Two parts are blended bit by bit under a
    mask of all ones or all zeros per point: np.where branches on each
    point, and on an orbit ensemble's masks, in random order, it took
    twice as long.  The blend works in place, as each new array of a
    forced pass's size costs fresh pages."""
    if len(parts) == 2:
        a, b = (p.view(np.int64) for p in parts)
        mask = g.astype(np.int64)
        np.negative(mask, out=mask)
        out = a ^ b
        out &= mask
        out ^= a
        return out.view(float)
    out = parts[-1]
    for k in range(len(parts) - 2, -1, -1):
        out = np.where(g == k, parts[k], out)
    return out


def _apply(m, g, x: np.ndarray, order: int = 0):
    """f at x, point k by formula group g[k], or with derivative order 1
    or 2 the tuple of f and its derivatives: one MapSpec.group_values call
    over all of x and a select, or the one group's parts where g is None.
    Runs under the caller's np.errstate."""
    out = m.group_values(x, order)
    if g is None:
        return out[0]
    if order:
        return tuple(_pick(g, p) for p in zip(*out))
    return _pick(g, out)


def step_values(m, x: np.ndarray, order: int = 0, ids=None):
    """f(x) elementwise over a 1-d x, or with order 1 the pair of f(x) and
    Df(x), as a one-step _forced_pass gives them, in new arrays.  Point k
    takes branch ids[k], by default the branch holding it, whose group
    comes straight from the group boundaries (group_indices); a map with
    one formula needs no ids."""
    x = np.asarray(x, dtype=float)
    g = None
    if len(m.formula_groups[1]) > 1:
        g = group_indices(m, x) if ids is None else m.formula_groups[0][ids]
    with np.errstate(all="ignore"):
        out = _apply(m, g, x, order)
    parts = [p.copy() if np.may_share_memory(p, x) else p
             for p in (out if order else [out])]
    return tuple(parts) if order else parts[0]


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


def branch_inverse(m, ids, targets, clamped=None) -> np.ndarray:
    """Preimage of targets[k] under branch ids[k], each target clamped onto
    the branch image first: each formula group's closed form (one
    evaluation over all the points, then a select, as _apply), clipped to
    the branch ends, or BISECTION_STEPS halvings of the whole branch for a
    group without one.  clamped, a bool array like targets, is set where a
    target was clamped onto the image or its preimage onto a branch end."""
    ids = np.asarray(ids, dtype=np.intp)
    ends = np.array([(br.a, br.b, *img) for br, img in
                     zip(m.branches, m.branch_images)]).T
    a, b, t_lo, t_hi = (row[ids] for row in ends)
    t = np.asarray(targets, dtype=float)
    tc = np.clip(t, t_lo, t_hi)
    g = None if len(m.formula_groups[1]) == 1 else m.formula_groups[0][ids]
    inverses = m.group_inverses
    with np.errstate(all="ignore"):
        parts = [inv and inv[0](tc, [s[ids] for s in inv[1]])
                 for inv in inverses]
        if not all(inverses):
            lo, hi, up = a, b, np.array(m.monotone_signs)[ids] > 0
            for _ in range(BISECTION_STEPS):
                mid = 0.5 * (lo + hi)
                v = _apply(m, g, mid)
                go_up = np.where(up, v < tc, v > tc)
                lo = np.where(go_up, mid, lo)
                hi = np.where(go_up, hi, mid)
            x = 0.5 * (lo + hi)
            parts = [p if inv else x for p, inv in zip(parts, inverses)]
    x = parts[0] if g is None else _pick(g, parts)
    out = np.clip(x, a, b)
    if clamped is not None:
        clamped |= (tc != t) | (out != x)
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
    lengths = np.fromiter(map(len, itineraries), np.intp, len(itineraries))
    out = np.full((lengths.size, lengths.max(initial=0)), -1, dtype=np.int64)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(itineraries), np.int64, lengths.sum())
    return out


def chunk_ranges(sizes) -> list:
    """(start, stop) runs of consecutive items that together hold about
    CHUNK_POINTS points: a run closes once its sizes reach it."""
    runs, start, total = [], 0, 0
    for k, size in enumerate(sizes, 1):
        total += size
        if total >= CHUNK_POINTS or k == len(sizes):
            runs.append((start, k))
            start, total = k, 0
    return runs


def _planner(m, itin):
    """plan_of(owner): the plan of a forced pass of the points owned by
    itin rows owner, ordered by itinerary length, longest first.  Step j
    is (stop, g): it moves the prefix of the stop points still running,
    and g holds the formula group of each (None on a one-formula map)."""
    group_of, firsts = m.formula_groups
    lengths, columns = (itin >= 0).sum(1), group_of[itin].T
    one = len(firsts) == 1

    def plan_of(owner) -> list:
        # running[j] points have tau > j
        tau = lengths[owner]
        running = tau.size - np.cumsum(np.bincount(tau))
        return [(stop, None if one else col[owner[:stop]])
                for col, stop in zip(columns, running[:-1].tolist())]
    return plan_of


def _forced_pass(m, plan, x, order: int = 0):
    """Push x through a plan (from _planner, or of one step): step
    (stop, g) moves x[:stop], point k by formula group g[k] (_apply).

    Returns the image, or with derivative order 1 or 2 the tuple of the
    image and its first (and second) derivatives.
    """
    pos = np.array(x, dtype=float)
    P = np.ones_like(pos) if order else None
    S = np.zeros_like(pos) if order > 1 else None
    with np.errstate(all="ignore"):
        for stop, g in plan:
            out = _apply(m, g, pos[:stop], order)
            if order:
                Pv = P[:stop]
                if order > 1:
                    S[:stop] = out[2] * Pv ** 2 + out[1] * S[:stop]
                P[:stop] = out[1] * Pv
                out = out[0]
            pos[:stop] = out
    return (pos, P, S)[:order + 1] if order else pos


def forced_forward(m, itin, owner, x, order: int = 0):
    """Push points along fixed itineraries: point k follows row owner[k].

    Step j applies branch itin[owner, j] wherever the point sits, so a point
    on a branch boundary keeps its itinerary; a -1 entry ends the orbit.
    The pass takes the points longest itinerary first, so that a finished
    point leaves every later step.  Returns f^tau(x), or with derivative
    order 1 or 2 the tuple of f^tau and its first (and second) derivatives,
    as _forced_pass.
    """
    owner = np.asarray(owner)
    rank = np.argsort(-(itin >= 0).sum(1)[owner], kind="stable")
    parts = _forced_pass(m, _planner(m, itin)(owner[rank]),
                         np.asarray(x, dtype=float)[rank], order)

    def back(p):
        out = np.empty_like(p)
        out[rank] = p
        return out
    return tuple(map(back, parts)) if order else back(parts)


def forced_inverse(m, itin, a, b, edges, first, count, clamped=None,
                   steps=None):
    """Preimages of the targets edges[first[k]:first[k] + count[k]] under
    the forced composition of itin row k on [a[k], b[k]] (the cell edges of
    density's transfer matrices), the inverse of forced_forward, row after
    row: each target is pulled back through branch_inverse, last step
    first, and clamped onto each step's branch image and branch; the
    preimage is then clipped to [a, b] of its row.

    Rows whose itineraries end alike share the steps of that suffix: one
    backward pass over the trie of reversed itineraries.  Depth j's nodes
    are the distinct pairs (depth j - 1 node, symbol j from the end), each
    holding the hull of its rows' edge ranges, the root holding the edges;
    a node's values are one gather from its parent's and one branch_inverse
    call, CHUNK_POINTS points at a time.  A row copies its slice out of
    the depth where its itinerary ends; an empty itinerary keeps its edges.
    clamped, a bool array like the result, is set where a target was
    clamped at some step or its preimage clipped to [a, b].  steps, a list
    of two ints, has the pass's point-steps added, and of them those
    through a formula group with no closed-form inverse.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    count = np.asarray(count, dtype=np.intp)
    ends = np.cumsum(count)
    starts = ends - count
    out = np.empty(int(count.sum()))
    hit = np.zeros(out.size, dtype=bool) if clamped is None else clamped
    tau = (itin >= 0).sum(1)
    n_br = len(m.branches)
    bisects = np.array([inv is None for inv in m.group_inverses])[
        m.formula_groups[0]]
    # row k reads x[pos[k]:pos[k] + count[k]] of its node's depth
    rows = np.flatnonzero(count > 0)
    pos = np.asarray(first, dtype=np.intp)[rows]
    node = np.zeros(rows.size, dtype=np.intp)
    x = np.asarray(edges, dtype=float)
    x_hit = np.zeros(x.size, dtype=bool)
    for j in range(int(tau.max(initial=0)) + 1):
        done = tau[rows] == j
        for o, c, p in zip(starts[rows[done]].tolist(),
                           count[rows[done]].tolist(), pos[done].tolist()):
            out[o:o + c] = x[p:p + c]
            hit[o:o + c] |= x_hit[p:p + c]
        rows, pos, node = rows[~done], pos[~done], node[~done]
        if not rows.size:
            break
        key = node * n_br + itin[rows, tau[rows] - j - 1]
        key, node = np.unique(key, return_inverse=True)
        lo = np.full(key.size, x.size, dtype=np.intp)
        hi = np.zeros(key.size, dtype=np.intp)
        np.minimum.at(lo, node, pos)
        np.maximum.at(hi, node, pos + count[rows])
        size = hi - lo
        top = np.cumsum(size)
        ids, shift = key % n_br, lo - (top - size)
        pos = pos - shift[node]
        nx, nx_hit = np.empty(top[-1]), np.empty(top[-1], dtype=bool)
        for s in range(0, nx.size, CHUNK_POINTS):
            e = min(s + CHUNK_POINTS, nx.size)
            n = _run_of(top, s, e)
            src = np.arange(s, e) + shift[n]
            h = x_hit[src]
            nx[s:e] = branch_inverse(m, ids[n], x[src], h)
            nx_hit[s:e] = h
        x, x_hit = nx, nx_hit
        if steps is not None:
            steps[0] += nx.size
            steps[1] += int(size[bisects[ids]].sum())
    x = x_hit = None
    for s in range(0, out.size, CHUNK_POINTS):
        e = min(s + CHUNK_POINTS, out.size)
        k = _run_of(ends, s, e)
        pre = np.clip(out[s:e], a[k], b[k])
        hit[s:e] |= pre != out[s:e]
        out[s:e] = pre
    return out


def _run_of(ends, s: int, e: int) -> np.ndarray:
    """The run k of each point s <= p < e of runs laid end to end, run k
    ending where ends[k] (non-decreasing) says: one np.repeat over the runs
    the points meet.  A search per point took 13 times as long (10^6
    points in 4,192 runs)."""
    r0, r1 = np.searchsorted(ends, [s, e - 1], side="right")
    return np.repeat(np.arange(r0, r1 + 1),
                     np.diff(np.clip(ends[r0:r1 + 1], s, e), prepend=s))


def _worker_count(n: int, per: int) -> int:
    """Processes a split of n points takes: one per CPU in this process's
    affinity mask (so taskset restricts it), at most MAX_WORKERS and at
    most one per `per` points, and 1 where the platform cannot fork or tell
    the mask.  A CPU quota of the process's cgroup does not show in the
    mask.  The pipeline's two shares (n = 2, per = 1) fork wherever two
    CPUs are in the mask.  The Birkhoff ensemble's walkers split at per =
    _fastmap.SHARE_POINTS (1,280), so that two processes take five streams
    of 512 or more.  Measured on lorenz, two processes' time over one's, at
    10^5 and 10^6 steps a stream (medians of 21 and 9 alternating calls):
    1.15 and 1.07 at 2 streams, 1.14 and 0.96 at 3, 0.97 and 0.88 at 4
    (quartiles up to 1.44 at 10^5), 0.92 and 0.98 at 5, 0.88 and 0.81 at
    6, and 0.80 and 0.74 at 10.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0)), n // per))


def _fork_join(run, w: int) -> list:
    """run(k) for every share k < w: share 0 in this process, each other
    share in a child of os.fork that ends with os._exit(0), or
    os._exit(1) where run raised.  Every child is reaped, also when share
    0 raises; then each share whose child could not be made (OSError, as
    at a limit on processes) or did not exit 0 runs here, so its error, if
    any, is raised here, type and message unchanged.  run must write what
    it makes to memory it shares with this process, and a share run twice
    must give the same bits.  Returns the shares the children finished.
    The callers: _fastmap._step_ensemble (seed streams of the Birkhoff
    ensemble) and cli.cmd_pipeline (share 0 the lemma replay and
    summability, share 1 the density stage).

    Only the forking thread lives on in a child, and NumPy's BLAS thread
    pool already runs when it forks, so run must not need a thread pool:
    elementwise NumPy only, no @.  For the same pool, Python 3.12 warns on
    each fork that the process is multi-threaded: a DeprecationWarning,
    hidden outside __main__ by the default filters.  On CPython 3.12.1 the
    fork still returns the pid under -W error::DeprecationWarning, and the
    child runs on (checked without NumPy, with one live thread).
    """
    children = {}
    for k in range(1, w):
        try:
            pid = os.fork()
        except OSError:
            break
        if pid == 0:
            code = 1
            try:
                run(k)
                code = 0
            finally:
                os._exit(code)
        children[k] = pid
    try:
        run(0)
    finally:
        done = [k for k, pid in children.items()
                if os.waitpid(pid, 0)[1] == 0]
    for k in range(1, w):
        if k not in done:
            run(k)
    return done
