"""Vectorized map kernels shared by the sampling and partition machinery.

One forward pass (_forced_pass) pushes points through step plans; interval
ends, the pullback's pieces and stage 4's sub-intervals among them, follow
distortion.array_end_orbits instead, by forced_forward's owner index.
Two inverses run on the pass: a bisection (_bisect) for branch_inverse and
a Chandrupatla root finder (_chandrupatla) for forced_inverse, the
preimages of the Ulam assembly: one working set, ordered by itinerary
length and topped up from lazily seeded groups of rows, steps every target
of its rows.  forced_inverse deals the rows round-robin to this process
and to children of os.fork, one per CPU it may use up to MAX_WORKERS
(_worker_count), which write their preimages and counts into one shared
buffer and report by their exit status alone; a share no child finished
runs here (_fork_join, which _fastmap's Birkhoff ensemble also splits
its seed streams through).  Each preimage depends on its own row only,
so the split leaves every bit as it is.
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
"""

from __future__ import annotations

import functools
import mmap
import os

import numpy as np

# Points one forced pass over a group of induced branches may hold at once,
# and targets in the root finder's working set.  Groups keep the per-step
# Python overhead off tiny arrays while bounding the working arrays of the
# Ulam assembly (peak memory).
CHUNK_POINTS = 1 << 14

# Halvings of a whole-branch bracket in branch_inverse: 60 take any
# double-width branch down to its last bits.
BISECTION_STEPS = 60

# Steps of the root finder of forced_inverse before it gives up.  Targets
# where the composition is flat at the rounding floor take the most: 23 on
# the lorenz(1.9, 0.4) benchmark partition, 37 on the chebyshev one.
ROOT_STEPS = 200

# Most processes forced_inverse and the Birkhoff ensemble split across
# (_worker_count).  Two were measured, on two CPUs; each process past the
# first holds about 50 MB resident, 8-12 MB of it its own, and costs CPU
# time of its own.
MAX_WORKERS = 2

# The root finder's counts (_chandrupatla), in the order a share writes
# them to forced_inverse's shared buffer.
COUNTS = ("evaluations", "targets", "max_steps", "nonfinite", "passes",
          "compactions", "largest_set")


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
    """f(x) elementwise over a 1-d x, or with derivative order 1 or 2 the
    tuple of f(x) and its first (and second) derivatives, as _forced_pass.
    Point k takes branch ids[k], by default the branch holding it, whose
    group comes straight from the group boundaries (group_indices); a map
    with one formula needs no ids."""
    x = np.asarray(x, dtype=float)
    g = None
    if len(m.formula_groups[1]) > 1:
        g = group_indices(m, x) if ids is None else m.formula_groups[0][ids]
    return _forced_pass(m, [(x.size, g)], x, order)


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
    the branch image first: BISECTION_STEPS halvings of the whole branch."""
    ids = np.asarray(ids, dtype=np.int64)
    g = None if len(m.formula_groups[1]) == 1 else m.formula_groups[0][ids]
    ends = np.array([(br.a, br.b) for br in m.branches])[ids]
    images = np.array(m.branch_images)[ids]
    t = np.clip(np.asarray(targets, dtype=float), images[:, 0],
                images[:, 1])
    up = np.array(m.monotone_signs)[ids] > 0
    return _bisect(m, g, ends[:, 0], ends[:, 1], t, up, BISECTION_STEPS)


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


def chunk_ranges(sizes, budget=None) -> list:
    """(start, stop) runs of consecutive items that together hold about
    budget points, by default CHUNK_POINTS: a run closes once its sizes
    reach the budget."""
    budget = CHUNK_POINTS if budget is None else budget
    runs, start, total = [], 0, 0
    for k, size in enumerate(sizes, 1):
        total += size
        if total >= budget or k == len(sizes):
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


def _bisect(m, g, lo, hi, t, up, steps):
    """Midpoints of [lo, hi] after steps halvings toward the preimages of t
    under one step of formula groups g (_apply), increasing where up is set
    and decreasing elsewhere."""
    with np.errstate(all="ignore"):
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            v = _apply(m, g, mid)
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


def _chandrupatla(pass_of, seeds, out, stats=None, budget=None):
    """Roots of F(x) = t for the targets fed by seeds in batches of arrays
    (index, row, t, x1, x2, x3, f1, f2, f3, xatol): out[index] gets the
    root, F is pass_of(rows), the forced pass of the set's rows, [x1, x2]
    brackets the root with residuals f1 and f2, and x3 lies beyond x1
    (residual f3, or NaN for none).  Each step is Chandrupatla's (Adv.
    Eng. Software 28, 1997; _step).  gap is twice the last run of equal
    residuals seen: where F is flat at the rounding floor, a step next to
    the flat end would land on it again.  A target stops at the bracket end
    of smaller finite |residual| once that residual is zero, the bracket
    is narrower than tol = 4 eps |x| + xatol, or the other residual is not
    finite or has the same sign.

    One working set of at most budget targets, by default CHUNK_POINTS,
    steps.  Finished
    targets idle until half the set has finished; then the set is
    compacted, topped up from the batches (newcomers are stop-tested
    before they step) and its pass rebuilt.  Batches that come in order of
    itinerary length, longest first, keep the set in the order _planner
    takes.  A target running after ROOT_STEPS steps of its own raises
    RuntimeError.  stats, when given, is updated with the evaluations, the
    targets, the most steps ("max_steps"), the stops on a non-finite
    residual ("nonfinite"), the forced passes ("passes"), the compactions
    and the largest working set ("largest_set").  Returns out.
    """
    c = dict.fromkeys(COUNTS, 0)
    eps4 = 4.0 * np.finfo(float).eps
    budget = CHUNK_POINTS if budget is None else budget

    # each target with its gap and step count
    feed = ((*v, np.zeros(v[0].size), np.zeros(v[0].size, dtype=np.int64))
            for v in seeds)
    pending = next(feed, None)
    state = tuple(v[:0] for v in pending) if pending else ()
    done = np.zeros(0, dtype=bool)
    with np.errstate(all="ignore"):
        while state:
            index, row, t, x1, x2, x3, f1, f2, f3, xatol, gap, age = state
            a1, a2 = np.abs(f1), np.abs(f2)
            small = np.fmin(a1, a2)
            xmin = np.where(a1 == small, x1, x2)
            tol = eps4 * np.abs(xmin) + xatol
            finite = np.isfinite(a1 + a2)
            stop = ~done & ((small == 0.0) | (np.abs(x2 - x1) < tol)
                            | ~finite | ((f1 < 0) == (f2 < 0)))
            if stop.any():
                out[index[stop]] = xmin[stop]
                c["evaluations"] += int(age[stop].sum())
                c["targets"] += int(stop.sum())
                c["max_steps"] = max(c["max_steps"], int(age[stop].max()))
                c["nonfinite"] += int((stop & ~finite).sum())
                done |= stop
            if 2 * done.sum() >= done.size:
                c["compactions"] += done.size > 0
                room = budget - done.size + int(done.sum())
                while pending[0].size < room and (
                        more := next(feed, None)) is not None:
                    pending = tuple(map(np.concatenate, zip(pending, more)))
                state = tuple(np.concatenate((v[~done], p[:room]))
                              for v, p in zip(state, pending))
                pending = tuple(p[room:] for p in pending)
                if not state[0].size:
                    break
                done = np.zeros(state[0].size, dtype=bool)
                c["largest_set"] = max(c["largest_set"], done.size)
                forward = pass_of(state[1])
                continue
            late = ~done & (age >= ROOT_STEPS)
            if late.any():
                raise RuntimeError(
                    f"root finder did not converge on {late.sum()}"
                    f" target(s) in {ROOT_STEPS} steps")
            x = x1 + _step(x1, x2, x3, f1, f2, f3, tol, gap) * (x2 - x1)
            f = forward(x) - t
            c["passes"] += 1
            same = (f < 0) == (f1 < 0)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            gap = np.where(f == f3, 2.0 * np.abs(x - x3), gap)
            state = (index, row, t, x, x2, x3, f, f2, f3, xatol, gap, age + 1)
    if stats is not None:
        stats.update(c)
    return out


def _worker_count(n: int, per: int | None = None) -> int:
    """Processes a split of n points takes: one per CPU in this process's
    affinity mask (so taskset restricts it), at most MAX_WORKERS and at
    most one per `per` points, by default CHUNK_POINTS, and 1 where the
    platform cannot fork or tell the mask.  A CPU quota of the process's
    cgroup does not show in the mask.  Measured on two CPUs, as two
    processes' time over one's:

    - forced_inverse's targets, at the default: two start to pay at about
      20,000 targets, below the 2 * CHUNK_POINTS a second one needs.  On
      the lorenz(1.9, 0.4) benchmark partition they took 0.68-0.83 at
      32,884 targets, 0.84-0.89 at 22,558 and 1.02-1.09 at 15,046 (medians
      of 11 calls).
    - the Birkhoff ensemble's walkers, at per = _fastmap.SHARE_POINTS
      (1,280), so that two take five streams of 512 or more.  On lorenz,
      at 10^5 and 10^6 steps a stream (medians of 21 and 9 alternating
      calls), they took 1.15 and 1.07 at 2 streams, 1.14 and 0.96 at 3,
      0.97 and 0.88 at 4 (quartiles up to 1.44 at 10^5), 0.92 and 0.98
      at 5, 0.88 and 0.81 at 6, and 0.80 and 0.74 at 10.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    per = CHUNK_POINTS if per is None else per
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
    The callers: forced_inverse (rows of the Ulam assembly) and
    _fastmap._step_ensemble (seed streams of the Birkhoff ensemble).

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


def forced_inverse(m, itin, a, b, increasing, targets, stats=None) -> list:
    """Preimages of targets[k] under the forced composition of itin row k.

    Row k is monotone on [a[k], b[k]] in the sense increasing[k], and
    targets[k] is ascending.  A forward grid of max(16, n) cells per row
    seeds brackets one cell wide, with the residuals at both ends and at
    the node beyond one end, one chunk_ranges group of rows at a time, the
    longest itineraries first, as _chandrupatla's one working set takes
    them in.  It polishes each preimage to within 4 eps |x| plus 2**-31 of
    the row's grid cell, no looser than thirty halvings.

    The rows are split across w = _worker_count(targets) processes: share
    i takes rows i::w of the longest-first order, this process runs share
    0 and a forked child each other share (_fork_join).  Every share
    writes its preimages, and its root finder's counts as row i of a
    (w, len(COUNTS)) block, into one anonymous shared mmap; a share whose
    child could not be made or did not exit 0 runs again here, with the
    same bits.  Each share's groups of rows and working set hold
    CHUNK_POINTS // w points, so the processes together hold the memory
    of one: a child's own pages come from its working set and from the
    pages either side writes after the fork.  A preimage depends on its
    own row only, so it is the same bits for every w and every working
    set size.  stats, when given, is updated with the counts
    (_chandrupatla) summed over the shares, max_steps and largest_set
    their maximum, and with "workers", the processes that finished
    shares: w, or fewer where a child did not.
    """
    counts = np.array([t.size for t in targets], dtype=np.int64)
    sizes = np.maximum(16, counts) + 1
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # np.linspace(a[k], b[k], sizes[k]): node i is i * step[k] + a[k], the
    # last node b[k]
    step = (b - a) / (sizes - 1)
    up = np.asarray(increasing, dtype=bool)
    first = np.cumsum(counts) - counts
    plan_of = _planner(m, itin)
    # longest first: each step of a pass, on the grid or in the working
    # set, is a prefix
    rank = np.argsort(-(itin >= 0).sum(1), kind="stable")
    n = int(counts.sum())
    w = _worker_count(n)
    budget = max(1, CHUNK_POINTS // w)
    shared = mmap.mmap(-1, 8 * (n + w * len(COUNTS)))
    out = np.frombuffer(shared, count=n)
    block = np.frombuffer(shared, dtype=np.int64, offset=8 * n).reshape(
        w, len(COUNTS))

    def seeds(order):
        for s, e in chunk_ranges(sizes[order], budget):
            rows = order[s:e]
            ends = np.cumsum(sizes[rows])
            starts = ends - sizes[rows]
            node_row = np.repeat(rows, sizes[rows])
            xs = ((np.arange(ends[-1]) - np.repeat(starts, sizes[rows]))
                  * step[node_row] + a[node_row])
            xs[ends - 1] = b[rows]
            ys = _forced_pass(m, plan_of(node_row), xs)
            pos = np.concatenate([
                np.searchsorted(ys[i:j] if up[k] else ys[i:j][::-1],
                                targets[k])
                for i, j, k in zip(starts.tolist(), ends.tolist(),
                                   rows.tolist())])
            local = np.repeat(np.arange(rows.size), counts[rows])
            row = rows[local]
            # target j of a row goes to out[first[row] + j]
            index = first[row] + np.arange(row.size) - (
                np.cumsum(counts[rows]) - counts[rows])[local]
            size, start, inc = sizes[row], starts[local], up[row]
            pos = np.clip(pos, 1, size - 1)
            t = np.concatenate([targets[k] for k in rows.tolist()])
            # x1 and x2 bracket the target, x3 is the node beyond x1, if
            # any: nodes of the row in its order of increasing image
            i1, i2, i3 = (start + np.where(inc, i, size - 1 - i) for i in
                          (pos - 1, pos, np.maximum(pos - 2, 0)))
            none = np.where(pos > 1, 0.0, np.nan)
            yield (index, row, t, xs[i1], xs[i2], xs[i3] + none, ys[i1] - t,
                   ys[i2] - t, ys[i3] - t + none,
                   (xs[start + 1] - xs[start]) * 2.0 ** -31)

    def run(i):
        c = {}
        _chandrupatla(lambda rows: functools.partial(
            _forced_pass, m, plan_of(rows)), seeds(rank[i::w]), out, c,
            budget)
        block[i] = [c[k] for k in COUNTS]

    done = _fork_join(run, w)
    if stats is not None:
        most = dict(zip(COUNTS, block.max(0).tolist()))
        stats.update(zip(COUNTS, block.sum(0).tolist()),
                     workers=1 + len(done), max_steps=most["max_steps"],
                     largest_set=most["largest_set"])
    return np.split(out, np.cumsum(counts)[:-1])
