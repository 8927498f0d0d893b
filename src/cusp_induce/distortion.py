"""Distortion products, variation estimates, and summability accounting.

The central objects are the generalized distortion of an iterate over an
interval whose step images each stay inside a single smooth branch, upper
bounds for the variation of 1/|Df^l| driven by inverse-distance integrals,
the quadrature of that variation, and the bookkeeping that decides
whether the induced-map variation and inducing-time series look summable
over the computed horizon.

One tracker, array_end_orbits, follows the one-sided orbits of interval
ends here, in the partition builder and in the pull-back, many intervals
at once (stage 4's refinement sub-intervals among them), each step on a
fixed itinerary's branch or on the branch holding the step interval.
One globally adaptive G7/K15 rule, _batched_variation, takes the
variation along itineraries.  The one-interval functions are one-row calls
of the two.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from . import _vec
from . import expr as ex
from .critical_orbit import orbit_records, write_csv

_LOG = logging.getLogger(__name__)
UNRESOLVED_BUDGET = 1e-3    # largest unresolved share of the domain
L_MAX = 6                   # variation_constant's longest iterate


class NotDiffeomorphismError(ValueError):
    """An iterate step interval straddles a branch boundary."""


class InfiniteIntegralError(ValueError):
    """An inverse-distance integral runs through a critical location."""


# ---------------------------------------------------------------------------
# per-branch derivative extrema


# Samples of branch_d2_zeros' sign scan of a branch.
D2_ZERO_GRID = 1024


def branch_d2_zeros(m, i: int) -> tuple:
    """Interior zeros of D2f on branch i (sign scan plus bisection).

    A sign change between adjacent samples is bisected.  A run of samples
    where D2f is exactly 0 counts as one zero, at its middle sample, only
    where D2f changes sign across it; so a D2f that is 0 on the whole
    scan (a linear branch) has no zeros.  Cached on the map instance: the
    zero set is a property of the branch expression, not of any interval
    query.
    """
    cache = m.__dict__.setdefault("_d2_zero_cache", {})
    if i in cache:
        return cache[i]
    br = m.branches[i]
    w = br.b - br.a
    xs = np.linspace(br.a + 1e-9 * w, br.b - 1e-9 * w, D2_ZERO_GRID)
    with np.errstate(all="ignore"):
        d2 = br.d2_values(xs)
    d2 = np.where(np.isfinite(d2), d2, np.nan)
    sgn = np.sign(d2)
    # consecutive samples where D2f is not 0 (NaN included), and whether
    # D2f changes sign from one to the next
    nonzero = np.flatnonzero(sgn != 0.0)
    a, b = nonzero[:-1], nonzero[1:]
    change = sgn[a] * sgn[b] < 0
    run = b > a + 1
    zeros = [float(xs[k]) for k in (a + b)[change & run] // 2]
    for k in a[change & ~run]:
        lo, hi = float(xs[k]), float(xs[k + 1])
        flo = float(d2[k])
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = br.jet(mid).d2
            if fmid == 0.0:
                lo = hi = mid
                break
            if (fmid > 0.0) == (flo > 0.0):
                lo, flo = mid, fmid
            else:
                hi = mid
        zeros.append(0.5 * (lo + hi))
    out = tuple(sorted(zeros))
    cache[i] = out
    return out


# Itinerary entry of array_end_orbits for a step on the branch that holds
# the step interval.
POSITIONAL = -2


def array_end_orbits(m, itin, u, v, visit, owner=None):
    """The one-sided orbits of the ends of intervals u[k] <= v[k], all
    rows together: step j of row k applies branch itin[owner[k], j]
    (owner the identity by default) or, where that is POSITIONAL, the
    branch of the step interval's midpoint (ties to the right, as
    MapSpec.branch_index); -1 pads a row past its last step.

    Each step clamps both ends onto its branch and takes them as limits
    from inside the interval, pushing all rows by one order-1 evaluation
    per formula group; an end that sits exactly on an end of the step's
    branch, or whose value or Df comes out non-finite, takes the scalar
    one-sided endpoint_jet, each (branch, end, side) computed once.  A row
    stops at a positional step whose interval overhangs its branch by more
    than 1e-12 (NotDiffeomorphismError), or where endpoint_jet raises a
    ValueError.  visit(live, ids, u, v, du, dv) sees every step: the rows
    still moving, their branch ids, the clamped ends and |Df| at them.
    Returns (u, v, scalar, failed): the ascending ends of the images (of a
    stopped row, its interval where it stopped), the number of end steps
    that took endpoint_jet, and the error that stopped each stopped row.
    """
    u = np.array(u, dtype=float)
    v = np.array(v, dtype=float)
    ends = np.array([(br.a, br.b) for br in m.branches])
    scalar, jets, failed = 0, {}, {}  # jets by (branch, x, side)
    stopped = np.zeros(u.shape, dtype=bool)
    owner = np.arange(u.size) if owner is None else owner
    for col in np.asarray(itin).T:
        ids = col[owner]
        pos = np.flatnonzero((ids == POSITIONAL) & ~stopped)
        if pos.size:
            ids[pos] = i = _vec.branch_indices(m, 0.5 * (u[pos] + v[pos]))
            for r in pos[(u[pos] < ends[i, 0] - 1e-12)
                         | (v[pos] > ends[i, 1] + 1e-12)].tolist():
                failed[r] = NotDiffeomorphismError(
                    f"interval ({u[r].item()!r}, {v[r].item()!r}) straddles "
                    "a branch boundary")
                stopped[r] = True
        live = np.flatnonzero((ids != -1) & ~stopped)
        if not live.size:
            break
        n, ids = live.size, np.tile(ids[live], 2)
        lo, hi = ends[ids, 0], ends[ids, 1]
        x = np.concatenate((u[live], v[live]))
        # max(u, a) and min(v, b) as Python takes them, NaN included
        x[:n] = np.where(lo[:n] > x[:n], lo[:n], x[:n])
        x[n:] = np.where(hi[n:] < x[n:], hi[n:], x[n:])
        y, d1 = _vec.step_values(m, x, 1, ids)
        redo = np.flatnonzero((x == lo) | (x == hi)
                              | ~(np.isfinite(y) & np.isfinite(d1)))
        for k in redo.tolist():
            key = (int(ids[k]), float(x[k]), "+" if k < n else "-")
            try:
                if key not in jets:
                    jets[key] = m.endpoint_jet(*key)
            except ValueError as err:
                failed.setdefault(int(live[k % n]), err)
                stopped[live[k % n]] = True
            else:
                y[k], d1[k] = jets[key].value, jets[key].d1
        scalar += redo.size
        ok = ~stopped[live]
        if not ok.all():
            live, ids, x, y, d1 = (live[ok], *(a[np.tile(ok, 2)]
                                               for a in (ids, x, y, d1)))
            n = live.size
        d1 = np.abs(d1)
        visit(live, ids[:n], x[:n], x[n:], d1[:n], d1[n:])
        swap = ~(y[:n] <= y[n:])
        u[live] = np.where(swap, y[n:], y[:n])
        v[live] = np.where(swap, y[:n], y[n:])
    return u, v, scalar, failed


def raise_first(failed) -> None:
    """Raise what stopped the first stopped row of array_end_orbits."""
    if failed:
        raise failed[min(failed)]


def abs_df_extrema(m, ids, u, v, du, dv):
    """(inf, sup) arrays of |Df| between u and v on branch ids, elementwise
    (the arguments broadcast), with du, dv the |Df| at u and v.

    The extrema take in the interior zeros of D2f (branch_d2_zeros)
    strictly between u and v, so they are exact for the declared
    expression.  The zeros and |Df| at them are cached on the map, as
    (i, [(z, |Df(z)|), ...]) for each branch i that has any.
    """
    ids, u, v = np.asarray(ids), np.asarray(u), np.asarray(v)
    lo = np.fmin(du, dv)
    hi = np.fmax(du, dv)
    left, right = np.fmin(u, v), np.fmax(u, v)
    table = m.__dict__.get("_d2_zero_extrema")
    if table is None:
        table = m.__dict__["_d2_zero_extrema"] = [
            (i, [(z, abs(m.branches[i].jet(z).d1)) for z in zeros])
            for i in range(len(m.branches))
            if (zeros := branch_d2_zeros(m, i))]
    for i, zeros in table:
        on = ids == i
        for z, dz in zeros:
            hit = on & (left < z) & (z < right)
            if hit.any():
                lo[hit] = np.fmin(lo[hit], dz)
                hi[hit] = np.fmax(hi[hit], dz)
    return lo, hi


def orbit_extrema(m, itin, u, v):
    """array_end_orbits with the |Df| extrema of every step: (steps, image,
    failed), steps the (rows, steps) arrays u, v, sup and inf of the step
    intervals, NaN past a row's last step."""
    itin = np.asarray(itin)
    steps = np.full((4,) + itin.shape, np.nan)
    count = np.zeros(itin.shape[0], dtype=np.int64)

    def visit(live, ids, u, v, du, dv):
        inf, sup = abs_df_extrema(m, ids, u, v, du, dv)
        steps[:, live, count[live]] = u, v, sup, inf
        count[live] += 1

    u, v, _scalar, failed = array_end_orbits(m, itin, u, v, visit)
    return steps, (u, v), failed


def _interval_steps(m, interval, n: int):
    """The n positional steps of one interval: lists of the u, v, sup |Df|
    and inf |Df| of its step intervals, and its image; raises what stops
    it."""
    lo, hi = sorted((float(interval[0]), float(interval[1])))
    steps, (u, v), failed = orbit_extrema(m, np.full((1, n), POSITIONAL),
                                          [lo], [hi])
    raise_first(failed)
    return [row[0].tolist() for row in steps], (float(u[0]), float(v[0]))


def sup_inf_abs_df(m, interval) -> tuple:
    """(sup, inf) of |Df| over an interval inside one branch: the one step
    of generalized_distortion with n = 1.  An endpoint touching a singular
    location contributes an inf sentinel."""
    if not float(interval[0]) < float(interval[1]):
        raise ValueError("empty interval")
    g = generalized_distortion(m, interval, 1)
    return g.sup_df[0], g.inf_df[0]


# ---------------------------------------------------------------------------
# generalized distortion


@dataclass
class DistortionResult:
    interval: tuple
    n: int
    sup_df: list
    inf_df: list
    ratios: list
    value: float
    image: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def generalized_distortion(m, interval, n: int) -> DistortionResult:
    """Product over j < n of sup/inf of |Df| on the j-th image interval.

    Equals 1 for n = 0 (empty product) and is always >= 1.  Raises
    NotDiffeomorphismError as soon as a step image straddles a branch
    boundary, i.e. when f^n is not a diffeomorphism on the interval.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    (_u, _v, sups, infs), final = _interval_steps(m, interval, n)
    ratios = [s / i if i > 0 else math.inf for s, i in zip(sups, infs)]
    value = 1.0
    for r in ratios:
        value *= r
    return DistortionResult(
        interval=(float(interval[0]), float(interval[1])),
        n=n,
        sup_df=sups,
        inf_df=infs,
        ratios=ratios,
        value=value,
        image=final,
    )


# ---------------------------------------------------------------------------
# variation of 1/|Df^l|


def _inv_distance_integral(m, u, v) -> np.ndarray:
    """Closed form of the integral of dx over distance-to-critical-set on
    each interval [u[k], v[k]] (arrays, u <= v).

    Each interval is split at the midpoints between consecutive critical
    locations; on each piece the nearest location is constant and the
    antiderivative is a logarithm, taken by math.log.  The pieces are
    summed from left to right.  The first interval that meets a critical
    location raises InfiniteIntegralError.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    locs = m.critical_locations
    total = np.zeros(u.shape)
    if locs.size == 0:
        return total
    meets = ((locs >= u[:, None]) & (locs <= v[:, None])).any(axis=1)
    if meets.any():
        k = int(meets.argmax())
        raise InfiniteIntegralError(
            f"interval ({u[k].item()!r}, {v[k].item()!r}) meets a critical "
            "location")
    # cut points [u, midpoints, v]; a midpoint outside (u, v) is clamped
    # onto the nearer end and leaves an empty piece
    mids = np.clip(0.5 * (locs[:-1] + locs[1:]), u[:, None], v[:, None])
    cuts = np.column_stack((u, mids, v))
    for uu, vv in zip(cuts.T[:-1], cuts.T[1:]):
        c = locs[np.argmin(np.abs(locs - 0.5 * (uu + vv)[:, None]), axis=1)]
        logs = [abs(math.log(abs(b - x)) - math.log(abs(a - x)))
                for a, b, x in zip(uu.tolist(), vv.tolist(), c.tolist())]
        total += np.where(vv > uu, logs, 0.0)
    return total


def variation_bound(m, interval, l: int) -> float:
    """Upper bound for var of 1/|Df^l| over the interval.

    The bound is the generalized distortion divided by a lower bound for
    inf |Df^l| (the product of per-step infima, rounded to nearest), times
    the sum of inverse-distance integrals over the step images.
    Substituting the product lower bound only enlarges the bound.  The
    first step with a vanishing infimum raises, after the integrals of the
    steps before it.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return 0.0
    (u, v, sups, infs), _ = _interval_steps(m, interval, l)
    n = next((j for j, inf_df in enumerate(infs) if inf_df <= 0.0), l)
    integrals = _inv_distance_integral(m, u[:n], v[:n]).tolist()
    if n < l:
        raise InfiniteIntegralError("derivative infimum vanishes on a step")
    dist = inf_total = 1.0
    acc = 0.0
    for sup_df, inf_df, integral in zip(sups, infs, integrals):
        dist *= sup_df / inf_df
        inf_total *= inf_df
        acc += integral
    return (dist / inf_total) * acc


# Tolerances and leaf budget of the batched rule.
VAR_EPSABS = 1e-12
VAR_EPSREL = 1e-9
VAR_LIMIT = 400
# Rounds of splits in a row that leave a branch's error estimate no lower
# before the batched rule stops refining it: its integrand is then rounding
# noise.  One such round also happens on the way to the tolerance.
VAR_FLOOR_ROUNDS = 3


def _accepted(val, err):
    """Acceptance test of a variation quadrature: a finite value whose error
    estimate is within max(1e-8, 1e-3 |value|)."""
    return np.isfinite(val) & (err <= np.maximum(1e-8, 1e-3 * np.abs(val)))


def variation_exact(m, interval, l: int) -> float:
    """Variation of 1/|Df^l| over the interval, the integral of |D2f^l| /
    (Df^l)^2 where f^l is a diffeomorphism: the one-row _batched_variation
    along the itinerary of an l-step positional array_end_orbits pass,
    which raises what stops it (NotDiffeomorphismError where a step
    interval straddles a branch boundary).  A divergent integral (an end
    orbit landing on a critical point of order > 1) fails the acceptance
    test and raises RuntimeError."""
    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return 0.0
    u, v = sorted((float(interval[0]), float(interval[1])))
    itinerary = []

    def visit(_live, ids, *_ends):
        itinerary.extend(ids.tolist())

    raise_first(array_end_orbits(m, np.full((1, l), POSITIONAL), [u], [v],
                                 visit)[3])
    row = SimpleNamespace(a=u, b=v, tau=l, itinerary=tuple(itinerary))
    return float(_batched_variation(m, [row])[0][0])


# ---------------------------------------------------------------------------
# batched variation over a whole partition

# QUADPACK's 7-point Gauss / 15-point Kronrod pair on [-1, 1]: the positive
# Kronrod nodes with their weights, and the Gauss weights of the odd ones.
_XGK = np.array([0.991455371120812639206854697526329,
                 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926,
                 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013,
                 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970,
                 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518,
                 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550,
                 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649,
                 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082,
                0.279705391489276667901467771423780,
                0.381830050505118944950369775488975,
                0.417959183673469387755102040816327])
_GK_X = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_WK = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_WG = np.zeros(_GK_X.size)
_GK_WG[1::2] = np.concatenate([_WG, _WG[-2::-1]])
_MIN_REL_WIDTH = 100.0 * np.finfo(float).eps


def _gk15(m, itin, owner, lo, hi):
    """Kronrod value and QUADPACK error estimate of the variation integrand
    of branch owner[k] over the leaf [lo[k], hi[k]], for every k."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_X
    f = np.empty_like(x)
    step = _vec.CHUNK_POINTS // _GK_X.size
    for s in range(0, lo.size, step):
        e = min(s + step, lo.size)
        _y, P, S = _vec.forced_forward(
            m, itin, np.repeat(owner[s:e], _GK_X.size), x[s:e].ravel(),
            order=2)
        with np.errstate(all="ignore"):
            f[s:e] = (np.abs(S) / P ** 2).reshape(e - s, -1)
    with np.errstate(all="ignore"):
        resk = f @ _GK_WK
        resasc = half * (np.abs(f - 0.5 * resk[:, None]) @ _GK_WK)
        err = np.abs(half * (resk - f @ _GK_WG))
        resk *= half
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where((resasc > 0.0) & (err > 0.0), scaled, err)
        # f >= 0, so the Kronrod value is also QUADPACK's resabs
        err = np.maximum(err, 50.0 * np.finfo(float).eps * resk)
    return resk, err


def _batched_variation(m, branches, stats=None):
    """Variation of 1/|Df^tau| over every branch, with its error estimate.

    Globally adaptive G7/K15 bisection for all branches at once, with the
    tolerances VAR_EPSABS and VAR_EPSREL and VAR_LIMIT leaves per branch.
    Each round takes, in every unconverged branch, its largest-error leaves
    until the rest would meet the tolerance, bisects them, and evaluates
    only the new leaves in one forced jet pass along their itineraries.
    Leaves at a branch end carry an Aitken tail for an integrable endpoint
    singularity (a singular touch).  A leaf at most 100 ulps wide, or whose
    children are not finite, is frozen.  A branch whose error estimate
    VAR_FLOOR_ROUNDS rounds of splits in a row did not lower has reached
    the rounding floor of its integrand and is refined no further.  Returns
    (values, error estimates); a branch that fails the acceptance test
    (_accepted) raises RuntimeError.  stats, when given, gets the leaves
    evaluated ("leaves") and the indices of the branches stopped short of
    the tolerance at the floor ("floored").
    """
    B = len(branches)
    itin = _vec.itinerary_matrix([br.itinerary for br in branches])
    a = np.array([br.a for br in branches], dtype=float)
    b = np.array([br.b for br in branches], dtype=float)
    owner, lo, hi = np.arange(B), a.copy(), b.copy()
    val, err = _gk15(m, itin, owner, lo, hi)
    leaves = B
    frozen = ~np.isfinite(val + err)
    tail = np.zeros(B)
    gain = np.full(B, np.nan)
    last_err = np.full(B, np.inf)
    flat_rounds = np.zeros(B, dtype=np.int64)
    refined = np.zeros(B, dtype=bool)
    while True:
        total = np.bincount(owner, val + tail, minlength=B)
        total_err = np.bincount(owner, err, minlength=B)
        tol = np.maximum(VAR_EPSABS, VAR_EPSREL * np.abs(total))
        room = VAR_LIMIT - np.bincount(owner, minlength=B)
        stuck = np.bincount(owner, np.where(frozen, err, 0.0), minlength=B)
        flat_rounds = np.where(refined, np.where(
            total_err >= last_err, flat_rounds + 1, 0), flat_rounds)
        last_err = total_err
        floored = flat_rounds >= VAR_FLOOR_ROUNDS
        active = ((total_err > tol) & (room > 0) & ~(stuck > tol)
                  & ~floored)
        cand = np.flatnonzero(active[owner] & ~frozen)
        cand = cand[np.lexsort((-err[cand], owner[cand]))]
        k, e = owner[cand], err[cand]
        first = np.searchsorted(k, k)
        before = np.cumsum(e) - e
        before -= before[first]
        sel = cand[(total_err[k] - before > tol[k])
                   & (np.arange(k.size) - first < room[k])]
        if sel.size == 0:
            break
        # QUADPACK's small-interval test: within 100 ulps the integrand is
        # rounding noise, and splitting would spend the budget on nothing
        scale = np.maximum(np.abs(lo[sel]), np.abs(hi[sel]))
        splits = hi[sel] - lo[sel] > _MIN_REL_WIDTH * scale
        mid = 0.5 * (lo[sel] + hi[sel])
        frozen[sel[~splits]] = True
        sel, mid = sel[splits], mid[splits]
        v2, e2 = _gk15(m, itin, np.tile(owner[sel], 2),
                       np.concatenate([lo[sel], mid]),
                       np.concatenate([mid, hi[sel]]))
        v2, e2 = v2.reshape(2, -1), e2.reshape(2, -1)
        leaves += v2.size
        left = np.flatnonzero(np.isfinite(v2 + e2).all(0))
        frozen[np.delete(sel, left)] = True
        sel, mid, v2, e2 = sel[left], mid[left], v2[:, left], e2[:, left]
        refined = np.bincount(owner[sel], minlength=B) > 0
        # A child at a branch end continues its parent's halving chain
        # there.  An integrable endpoint singularity makes the gains of
        # that chain geometric, so an Aitken tail extrapolates the rest;
        # the change of the extrapolated value over the parent's interval
        # is its error, used where it beats the Kronrod estimate.
        g = v2.sum(0) - val[sel]
        at_end = np.stack([lo[sel] == a[owner[sel]], hi[sel] == b[owner[sel]]])
        with np.errstate(all="ignore"):
            r = g / gain[sel]
            t = np.where((r > 0.0) & (r < 1.0), g * r / (1.0 - r), np.nan)
        e_ext = np.abs(g + t - tail[sel])
        extrap = at_end & (e_ext < e2)
        t2 = np.where(extrap, t, 0.0)
        e2 = np.where(extrap, e_ext, e2)
        g2 = np.where(at_end, g, np.nan)
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([hi, hi[sel]])
        hi[sel] = mid
        columns = []
        for arr, new in ((val, v2), (err, e2), (tail, t2), (gain, g2)):
            arr[sel] = new[0]
            columns.append(np.concatenate([arr, new[1]]))
        val, err, tail, gain = columns
        owner = np.concatenate([owner, owner[sel]])
        frozen = np.concatenate([frozen, np.zeros(sel.size, dtype=bool)])
    bad = np.flatnonzero(~_accepted(total, total_err))
    if bad.size:
        br = branches[bad[0]]
        raise RuntimeError(
            f"variation quadrature did not converge on {bad.size} branch(es), "
            f"first ({br.a!r}, {br.b!r}) tau={br.tau}: "
            f"value={total[bad[0]]!r} err={total_err[bad[0]]!r}")
    if stats is not None:
        stats["leaves"] = leaves
        stats["floored"] = np.flatnonzero(floored & (total_err > tol))
    return total, total_err


# ---------------------------------------------------------------------------
# summability report


@dataclass
class SummabilityReport:
    rows: list
    horizon: int
    epsilon: float
    unresolved_budget: float
    unresolved_measure: float
    domain_length: float
    total_var: float
    total_var_error: float
    total_tau_len: float
    tail_var: float
    tail_tau_len: float
    d_hat: float
    free_tau_len: float
    verdict_variation: str
    verdict_inducing: str

    @property
    def passed(self) -> bool:
        return (self.verdict_variation == "summable-so-far"
                and self.verdict_inducing == "summable-so-far")

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def write_csv(self, path) -> None:
        keys = ("tau", "count", "sum_var_omega", "sum_tau_len",
                "bound_gap_term")
        write_csv(path, ",".join(keys),
                  ([r[k] for k in keys] for r in self.rows))

    def describe(self) -> str:
        lines = [
            "tau rows: %d (horizon %d)" % (len(self.rows), self.horizon),
            "sum var omega = %.6g +- %.2g quadrature (last-decade "
            "increment %.3g)" % (self.total_var, self.total_var_error,
                                 self.tail_var),
            "sum tau*len   = %.6g (last-decade increment %.3g)" % (
                self.total_tau_len, self.tail_tau_len),
            "unresolved measure = %.3g (budget %.3g of %.3g)" % (
                self.unresolved_measure, self.unresolved_budget,
                self.domain_length),
            "variation: %s; inducing times: %s" % (
                self.verdict_variation, self.verdict_inducing),
        ]
        return "\n".join(lines)


def summability_report(m, partition, epsilon: float = 1e-4,
                       records=None) -> SummabilityReport:
    """Accumulate variation and inducing-time series over the partition.

    Branches are grouped by inducing time; the verdicts compare the summed
    increments over the last ten tau values of the computed horizon
    (q0 + p_max) against epsilon times the running totals, and require the
    unresolved measure to stay within UNRESOLVED_BUDGET of the domain length.
    Per-tau rows also carry the a-priori gap-term bound from the critical
    orbit data; total_var_error sums the variations' quadrature errors.
    """
    branches = sorted(partition.branches, key=lambda br: (br.tau, br.a))
    if records is None:
        records = orbit_records(m, partition.p_max + 1)
    stats = {}
    var_int, var_err = _batched_variation(m, branches, stats)
    _LOG.info("summability_report: %d branches, %d quadrature leaves, %d "
              "stopped at the rounding floor", len(branches), stats["leaves"],
              stats["floored"].size)
    domain_length = m.hi - m.lo

    # interior variation + boundary sup term, per branch
    omegas = [v + 2.0 / br.inf_df for v, br in zip(var_int, branches)]

    # empirical sup over free branches of the inverse-distance step sum
    free = [br for br in branches if br.kind == "free"]
    free_tau_len = sum(br.tau * (br.b - br.a) for br in free)
    acc = np.zeros(len(free))

    def visit(live, _ids, u, v, _du, _dv):
        acc[live] += _inv_distance_integral(m, u, v)

    raise_first(array_end_orbits(
        m, _vec.itinerary_matrix([br.itinerary for br in free]),
        [br.a for br in free], [br.b for br in free], visit)[3])
    d_hat = max([0.0] + acc.tolist())

    def gap_term(br) -> float:
        if br.kind != "bound" or br.p0 is None or br.p0 < 2:
            return 0.0
        rec = records.get(br.critical_point)
        if rec is None or rec.order <= 1.0:
            return 0.0
        p = br.p0
        if p - 1 > rec.n_filled:
            return math.nan
        d_prev = rec.d[p - 2]
        expo = 1.0 / (2.0 * rec.order - 1.0)
        denom = d_prev * rec.D_at(p - 2) ** expo
        return (d_hat + max(0.0, -math.log(d_prev))) / denom

    by_tau = {}
    for br, w in zip(branches, omegas):
        row = by_tau.setdefault(br.tau, {
            "tau": br.tau, "count": 0, "sum_var_omega": 0.0,
            "sum_tau_len": 0.0, "bound_gap_term": 0.0})
        row["count"] += 1
        row["sum_var_omega"] += float(w)
        row["sum_tau_len"] += br.tau * (br.b - br.a)
        row["bound_gap_term"] += float(gap_term(br))
    rows = [by_tau[t] for t in sorted(by_tau)]

    horizon = partition.q0 + partition.p_max
    total_var = float(sum(r["sum_var_omega"] for r in rows))
    total_len = float(sum(r["sum_tau_len"] for r in rows))
    tail_var = float(sum(r["sum_var_omega"] for r in rows
                         if r["tau"] > horizon - 10))
    tail_len = float(sum(r["sum_tau_len"] for r in rows
                         if r["tau"] > horizon - 10))
    unres = partition.unresolved_measure
    budget_ok = unres <= UNRESOLVED_BUDGET * domain_length

    def verdict(tail, total):
        if total <= 0.0 or not math.isfinite(total):
            return "fail"
        if tail < epsilon * total and budget_ok:
            return "summable-so-far"
        return "fail"

    return SummabilityReport(
        rows=rows,
        horizon=horizon,
        epsilon=epsilon,
        unresolved_budget=UNRESOLVED_BUDGET,
        unresolved_measure=unres,
        domain_length=domain_length,
        total_var=total_var,
        total_var_error=float(var_err.sum()),
        total_tau_len=total_len,
        tail_var=tail_var,
        tail_tau_len=tail_len,
        d_hat=d_hat,
        free_tau_len=free_tau_len,
        verdict_variation=verdict(tail_var, total_var),
        verdict_inducing=verdict(tail_len, total_len),
    )


# ---------------------------------------------------------------------------
# empirical variation constant


def variation_constant(m, n_cases: int = 100, seed: int = 12345):
    """Max of variation_exact / variation_bound over random admissible cases.

    Cases whose step images meet the critical set (either bound raises) are
    discarded and redrawn, so the returned constant is deterministic in the
    seed.  Returns (constant, cases) with cases as ((u, v), l) tuples.
    """
    rng = np.random.default_rng(seed)
    cases, ratios = [], []
    attempts = 0
    while len(cases) < n_cases and attempts < 200 * n_cases:
        attempts += 1
        l = int(rng.integers(1, L_MAX + 1))
        w = float(10.0 ** rng.uniform(-4.0, -1.0) * (m.hi - m.lo) / 2.0)
        x = float(rng.uniform(m.lo, m.hi - w))
        interval = (x, x + w)
        try:
            b = variation_bound(m, interval, l)
            e = variation_exact(m, interval, l)
        except (NotDiffeomorphismError, InfiniteIntegralError,
                ex.EvalDomainError, RuntimeError):
            continue
        if not (math.isfinite(b) and b > 0.0 and math.isfinite(e)):
            continue
        ratios.append(e / b)
        cases.append((interval, l))
    if len(cases) < n_cases:
        raise RuntimeError("could not draw enough admissible cases")
    return float(max(ratios)), cases
