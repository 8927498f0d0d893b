"""Distortion products, variation estimates, and summability accounting.

The central objects are the generalized distortion of an iterate over an
interval whose step images each stay inside a single smooth branch, upper
bounds for the variation of 1/|Df^l| driven by inverse-distance integrals,
quadrature evaluation of that variation, and the bookkeeping that decides
whether the induced-map variation and inducing-time series look summable
over the computed horizon.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _vec
from . import expr as ex
from .critical_orbit import orbit_records
from .map_model import evaluate

_LOG = logging.getLogger(__name__)


class NotDiffeomorphismError(ValueError):
    """An iterate step interval straddles a branch boundary."""


class InfiniteIntegralError(ValueError):
    """An inverse-distance integral runs through a critical location."""


# ---------------------------------------------------------------------------
# per-branch derivative extrema


def branch_d2_zeros(m, i: int, grid: int = 1024) -> tuple:
    """Interior zeros of D2f on branch i (sign scan plus bisection).

    Cached on the map instance: the zero set is a property of the branch
    expression, not of any interval query.
    """
    cache = m.__dict__.setdefault("_d2_zero_cache", {})
    if i in cache:
        return cache[i]
    br = m.branches[i]
    w = br.b - br.a
    xs = np.linspace(br.a + 1e-9 * w, br.b - 1e-9 * w, grid)
    with np.errstate(all="ignore"):
        d2 = br.d2_values(xs)
    d2 = np.where(np.isfinite(d2), d2, np.nan)
    sgn = np.sign(d2)
    zeros = [float(xs[k]) for k in np.nonzero(sgn == 0.0)[0]]
    for k in np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]:
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


def _containing_branch(m, u: float, v: float) -> int:
    i = m.branch_index(0.5 * (u + v))
    br = m.branches[i]
    if u < br.a - 1e-12 or v > br.b + 1e-12:
        raise NotDiffeomorphismError(
            f"interval ({u!r}, {v!r}) straddles a branch boundary"
        )
    return i


def end_orbits(m, interval, n: int, itinerary=None):
    """Follow both ends of an interval through n steps of the map.

    Step j applies branch itinerary[j] or, without an itinerary, the branch
    holding the step interval (NotDiffeomorphismError when none does).  Both
    ends are clamped onto that branch and taken as one-sided limits from
    inside the interval, so branch ends and singular locations are exact.
    Returns (steps, image): steps are (u, v, branch, jet at u from the
    right, jet at v from the left) with u <= v, image the interval after n
    steps.
    """
    u, v = sorted((float(interval[0]), float(interval[1])))
    steps = []
    for j in range(n):
        i = _containing_branch(m, u, v) if itinerary is None else itinerary[j]
        br = m.branches[i]
        u, v = max(u, br.a), min(v, br.b)
        left = m.endpoint_jet(i, u, "+")
        right = m.endpoint_jet(i, v, "-")
        steps.append((u, v, i, left, right))
        u, v = left.value, right.value
        if not u <= v:
            u, v = v, u
    return steps, (u, v)


def abs_df_extrema(m, i: int, xs, abs_d1):
    """(inf, sup) arrays of |Df| on branch i between consecutive positions.

    abs_d1 holds |Df| at the positions xs; each pair's extrema take in the
    interior zeros of D2f (branch_d2_zeros) strictly between its ends, so
    they are exact for the declared expression.
    """
    xs, d = np.asarray(xs, dtype=float), np.asarray(abs_d1, dtype=float)
    lo = np.fmin(d[:-1], d[1:])
    hi = np.fmax(d[:-1], d[1:])
    for z in branch_d2_zeros(m, i):
        hit = (np.fmin(xs[:-1], xs[1:]) < z) & (z < np.fmax(xs[:-1], xs[1:]))
        if hit.any():
            dz = abs(m.branches[i].jet(z).d1)
            lo[hit] = np.fmin(lo[hit], dz)
            hi[hit] = np.fmax(hi[hit], dz)
    return lo, hi


def step_sup_inf(m, step) -> tuple:
    """(sup, inf) of |Df| over one step interval of end_orbits."""
    u, v, i, left, right = step
    lo, hi = abs_df_extrema(m, i, (u, v), (abs(left.d1), abs(right.d1)))
    return float(hi[0]), float(lo[0])


def sup_inf_abs_df(m, interval) -> tuple:
    """(sup, inf) of |Df| over an interval inside one branch.

    One step of end_orbits: an endpoint touching a singular location
    contributes an inf sentinel.
    """
    u, v = float(interval[0]), float(interval[1])
    if not u < v:
        raise ValueError("empty interval")
    (step,), _ = end_orbits(m, (u, v), 1)
    return step_sup_inf(m, step)


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
        return {
            "interval": list(self.interval),
            "n": self.n,
            "sup_df": list(self.sup_df),
            "inf_df": list(self.inf_df),
            "ratios": list(self.ratios),
            "value": self.value,
            "image": list(self.image),
        }


def generalized_distortion(m, interval, n: int) -> DistortionResult:
    """Product over j < n of sup/inf of |Df| on the j-th image interval.

    Equals 1 for n = 0 (empty product) and is always >= 1.  Raises
    NotDiffeomorphismError as soon as a step image straddles a branch
    boundary, i.e. when f^n is not a diffeomorphism on the interval.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    steps, final = end_orbits(m, interval, n)
    bounds = [step_sup_inf(m, step) for step in steps]
    sups = [s for s, _i in bounds]
    infs = [i for _s, i in bounds]
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


def _inv_distance_integral(m, u: float, v: float) -> float:
    """Closed form of the integral of dx over distance-to-critical-set.

    The interval is split at midpoints between consecutive critical
    locations; on each piece the nearest location is constant and the
    antiderivative is a logarithm.
    """
    locs = m.critical_locations
    if locs.size == 0:
        return 0.0
    if np.any((locs >= u) & (locs <= v)):
        raise InfiniteIntegralError(
            f"interval ({u!r}, {v!r}) meets a critical location"
        )
    cuts = [u, v]
    for a, b in zip(locs[:-1], locs[1:]):
        mid = 0.5 * (a + b)
        if u < mid < v:
            cuts.append(float(mid))
    cuts.sort()
    total = 0.0
    for uu, vv in zip(cuts[:-1], cuts[1:]):
        if vv <= uu:
            continue
        k = int(np.argmin(np.abs(locs - 0.5 * (uu + vv))))
        c = float(locs[k])
        total += abs(math.log(abs(vv - c)) - math.log(abs(uu - c)))
    return total


def variation_bound(m, interval, l: int) -> float:
    """Upper bound for var of 1/|Df^l| over the interval.

    The bound is the generalized distortion divided by a lower bound for
    inf |Df^l| (the product of per-step infima, rounded to nearest), times
    the sum of inverse-distance integrals over the step images.
    Substituting the product lower bound only enlarges the bound.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return 0.0
    steps, _ = end_orbits(m, interval, l)
    dist = 1.0
    inf_total = 1.0
    acc = 0.0
    for step in steps:
        sup_df, inf_df = step_sup_inf(m, step)
        if inf_df <= 0.0:
            raise InfiniteIntegralError("derivative infimum vanishes on a step")
        dist *= sup_df / inf_df
        inf_total *= inf_df
        acc += _inv_distance_integral(m, step[0], step[1])
    return (dist / inf_total) * acc


def _chain_jet(m, x: float, l: int):
    """(f^l(x), Df^l(x), D2f^l(x)) by forward jet composition."""
    v, P, S = float(x), 1.0, 0.0
    for _ in range(l):
        j = evaluate(m, v)
        S = j.d2 * P * P + j.d1 * S
        P = j.d1 * P
        v = j.value
    return v, P, S


# Tolerances and leaf budget shared by variation_exact and the batched rule.
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


def variation_exact(m, interval, l: int, epsabs: float = VAR_EPSABS,
                    epsrel: float = VAR_EPSREL) -> float:
    """Variation of 1/|Df^l| over the interval by adaptive quadrature.

    On an interval where f^l is a diffeomorphism the variation equals the
    integral of |D2f^l| / (Df^l)^2; endpoint blowups of integrable order
    (singular touch) are left to the adaptive rule.  A divergent integral
    (an endpoint orbit landing on a critical point of order > 1) raises
    RuntimeError.
    """
    from scipy import integrate   # imported here: it slows every CLI start

    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return 0.0
    u, v = sorted((float(interval[0]), float(interval[1])))
    _containing_branch(m, u, v)

    def integrand(x):
        _, P, S = _chain_jet(m, x, l)
        return abs(S) / (P * P)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err, _info, *msg = integrate.quad(
            integrand, u, v, epsabs=epsabs, epsrel=epsrel, limit=VAR_LIMIT,
            full_output=1)
    # QUADPACK's ier = 5 comes back only as its message
    if msg and "divergent" in msg[0]:
        raise RuntimeError(
            f"variation quadrature diverges: value={val!r} err={err!r}")
    if val < 0.0 or not _accepted(val, err):
        raise RuntimeError("variation quadrature did not converge: "
                           f"value={val!r} err={err!r}")
    return val


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

    Globally adaptive G7/K15 bisection for all branches at once, with
    variation_exact's tolerances and leaf budget.  Each round takes, in
    every unconverged branch, its largest-error leaves until the rest would
    meet the tolerance, bisects them, and evaluates only the new leaves in
    one forced jet pass along their itineraries.  Leaves at a branch end
    carry an Aitken tail for an integrable endpoint singularity (a singular
    touch).  A leaf at most 100 ulps wide, or whose children are not
    finite, is frozen.  A branch whose error estimate VAR_FLOOR_ROUNDS
    rounds of splits in a row did not lower has reached the rounding floor
    of its integrand and is refined no further.  Returns (values, error
    estimates); a branch that fails variation_exact's acceptance test
    raises RuntimeError.  stats, when given, gets the leaves evaluated
    ("leaves") and the indices of the branches stopped short of the
    tolerance at the floor ("floored").
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
        return {
            "rows": [dict(r) for r in self.rows],
            "horizon": self.horizon,
            "epsilon": self.epsilon,
            "unresolved_budget": self.unresolved_budget,
            "unresolved_measure": self.unresolved_measure,
            "domain_length": self.domain_length,
            "total_var": self.total_var,
            "total_var_error": self.total_var_error,
            "total_tau_len": self.total_tau_len,
            "tail_var": self.tail_var,
            "tail_tau_len": self.tail_tau_len,
            "d_hat": self.d_hat,
            "free_tau_len": self.free_tau_len,
            "verdict_variation": self.verdict_variation,
            "verdict_inducing": self.verdict_inducing,
            "passed": self.passed,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("tau,count,sum_var_omega,sum_tau_len,bound_gap_term\n")
            for r in self.rows:
                fh.write("%d,%d,%s,%s,%s\n" % (
                    r["tau"], r["count"],
                    repr(float(r["sum_var_omega"])),
                    repr(float(r["sum_tau_len"])),
                    repr(float(r["bound_gap_term"]))))

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
                       unresolved_budget: float = 1e-3,
                       records=None) -> SummabilityReport:
    """Accumulate variation and inducing-time series over the partition.

    Branches are grouped by inducing time; the verdicts compare the summed
    increments over the last ten tau values of the computed horizon
    (q0 + p_max) against epsilon times the running totals, and require the
    unresolved measure to stay within its budget.  Per-tau rows also carry
    the a-priori gap-term bound evaluated from the critical orbit data;
    total_var_error sums the quadrature error estimates of the variations.
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
    d_hat = 0.0
    free_tau_len = 0.0
    for br in branches:
        if br.kind != "free":
            continue
        free_tau_len += br.tau * (br.b - br.a)
        steps, _ = end_orbits(m, (br.a, br.b), br.tau, br.itinerary)
        acc = 0.0
        for u, v, *_jets in steps:
            acc += _inv_distance_integral(m, u, v)
        d_hat = max(d_hat, acc)

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
    budget_ok = unres <= unresolved_budget * domain_length

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
        unresolved_budget=unresolved_budget,
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
# bounded-variation facts selftest


def _sup_sum_variation(f, u, v, knots=(), n=4096) -> float:
    xs = np.linspace(u, v, n + 1)
    if knots:
        xs = np.unique(np.concatenate([xs, np.asarray(knots, dtype=float)]))
    ys = np.array([f(x) for x in xs])
    return float(np.sum(np.abs(np.diff(ys))))


@dataclass
class BVCheck:
    name: str
    lhs: float
    rhs: float
    ok: bool


@dataclass
class BVReport:
    checks: list
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "passed": self.passed,
            "checks": [{"name": c.name, "lhs": c.lhs, "rhs": c.rhs,
                        "ok": c.ok} for c in self.checks],
        }


def bv_selftest(tolerance: float = 1e-6) -> BVReport:
    """Numeric confirmation of the bounded-variation toolbox facts.

    Sup-sums run over fine grids refined by the known extremum points, so
    smooth monotone pieces telescope exactly and the comparisons are tight.
    """
    tol = tolerance
    checks = []

    def leq(name, lhs, rhs):
        checks.append(BVCheck(name, float(lhs), float(rhs),
                              lhs <= rhs + tol))

    def close(name, lhs, rhs):
        checks.append(BVCheck(name, float(lhs), float(rhs),
                              abs(lhs - rhs) <= tol))

    phi = lambda x: x - 0.5
    leq("abs-composition", _sup_sum_variation(lambda x: abs(phi(x)), 0, 1,
                                              knots=(0.5,)),
        _sup_sum_variation(phi, 0, 1))
    close("abs-composition-kink", _sup_sum_variation(
        lambda x: abs(x - 0.5), 0, 1, knots=(0.5,)), 1.0)

    f1 = lambda x: x * x
    f2 = lambda x: math.sin(3.0 * x)
    ext2 = (math.pi / 6, math.pi / 2, 5 * math.pi / 6)
    leq("subadditivity", _sup_sum_variation(lambda x: f1(x) + f2(x), 0, 1),
        _sup_sum_variation(f1, 0, 1) + _sup_sum_variation(f2, 0, 1) + tol)

    sup1 = 1.0
    sup2 = 1.0
    leq("product-rule", _sup_sum_variation(lambda x: f1(x) * f2(x), 0, 1),
        sup1 * _sup_sum_variation(f2, 0, 1)
        + sup2 * _sup_sum_variation(f1, 0, 1))
    close("product-with-one", _sup_sum_variation(lambda x: f1(x) * 1.0, 0, 1),
          _sup_sum_variation(f1, 0, 1))

    close("monotone-reparametrization",
          _sup_sum_variation(lambda y: f1(y ** 3), 0, 1),
          _sup_sum_variation(f1, 0, 1))

    close("derivative-integral-square", _sup_sum_variation(f1, 0, 1), 1.0)
    close("derivative-integral-sine",
          _sup_sum_variation(f2, 0, math.pi, knots=ext2), 6.0)

    leq("mean-bound", 1.0 / 3.0,
        0.0 + _sup_sum_variation(f1, 0, 1))
    return BVReport(checks=checks, tolerance=tol)


# ---------------------------------------------------------------------------
# empirical variation constant


def variation_constant(m, n_cases: int = 100, seed: int = 12345,
                       l_max: int = 6):
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
        l = int(rng.integers(1, l_max + 1))
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
