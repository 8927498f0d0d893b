"""Distortion products, variation estimates, and summability accounting.

The central objects are the generalized distortion of an iterate over an
interval whose step images each stay inside a single smooth branch, upper
bounds for the variation of 1/|Df^l| driven by inverse-distance integrals,
quadrature evaluation of that variation, and the bookkeeping that decides
whether the induced-map variation and inducing-time series look summable
over the computed horizon.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from . import _vec
from . import expr as ex
from .critical_orbit import orbit_records
from .map_model import critical_distance, evaluate


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


def sup_inf_abs_df(m, interval) -> tuple:
    """(sup, inf) of |Df| over an interval inside one branch.

    Candidates are the two one-sided endpoint derivatives plus any interior
    zeros of D2f, so the result is exact for the declared expression (an
    endpoint touching a singular location contributes an inf sentinel).
    """
    u, v = float(interval[0]), float(interval[1])
    if not u < v:
        raise ValueError("empty interval")
    i = _containing_branch(m, u, v)
    br = m.branches[i]
    uu, vv = max(u, br.a), min(v, br.b)
    cands = [
        abs(m.endpoint_jet(i, uu, "+").d1),
        abs(m.endpoint_jet(i, vv, "-").d1),
    ]
    for z in branch_d2_zeros(m, i):
        if uu < z < vv:
            cands.append(abs(br.jet(z).d1))
    return max(cands), min(cands)


def _interval_orbit(m, interval, n: int, with_bounds: bool = True):
    """Track the first n step images of an interval endpoint-exactly.

    Returns (steps, final) where each step is (u, v, branch, sup, inf) and
    final is the image after n steps.  Endpoint values are one-sided limits
    so branch boundaries and singular locations are handled exactly.
    """
    u, v = sorted((float(interval[0]), float(interval[1])))
    su, sv = 1.0, -1.0
    steps = []
    for _ in range(n):
        i = _containing_branch(m, u, v)
        if with_bounds:
            sup_df, inf_df = sup_inf_abs_df(m, (u, v))
        else:
            sup_df = inf_df = math.nan
        steps.append((u, v, i, sup_df, inf_df))
        br = m.branches[i]
        ju = m.endpoint_jet(i, max(u, br.a), "+" if su > 0 else "-")
        jv = m.endpoint_jet(i, min(v, br.b), "+" if sv > 0 else "-")
        sgn = m.monotone_signs[i]
        su *= sgn
        sv *= sgn
        u2, v2 = ju.value, jv.value
        if u2 <= v2:
            u, v = u2, v2
        else:
            u, v, su, sv = v2, u2, sv, su
    return steps, (u, v)


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
    steps, final = _interval_orbit(m, interval, n, with_bounds=True)
    sups = [s[3] for s in steps]
    infs = [s[4] for s in steps]
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

    The bound is the generalized distortion divided by a certified lower
    bound for inf |Df^l| (the product of per-step infima), times the sum of
    inverse-distance integrals over the step images.  Substituting the
    product lower bound only enlarges the bound, so it stays valid.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return 0.0
    steps, _ = _interval_orbit(m, interval, l, with_bounds=True)
    dist = 1.0
    inf_total = 1.0
    acc = 0.0
    for u, v, _i, sup_df, inf_df in steps:
        if inf_df <= 0.0:
            raise InfiniteIntegralError("derivative infimum vanishes on a step")
        dist *= sup_df / inf_df
        inf_total *= inf_df
        acc += _inv_distance_integral(m, u, v)
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


def variation_exact(m, interval, l: int, epsabs: float = 1e-12,
                    epsrel: float = 1e-9) -> float:
    """Variation of 1/|Df^l| over the interval by adaptive quadrature.

    On an interval where f^l is a diffeomorphism the variation equals the
    integral of |D2f^l| / (Df^l)^2; endpoint blowups of integrable order
    (singular touch) are left to the adaptive rule.
    """
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
        val, err = integrate.quad(integrand, u, v, epsabs=epsabs,
                                  epsrel=epsrel, limit=400)
    if not math.isfinite(val) or err > max(1e-8, 1e-3 * abs(val)):
        raise RuntimeError(
            f"variation quadrature did not converge: value={val!r} err={err!r}"
        )
    return val


# ---------------------------------------------------------------------------
# batched variation over a whole partition


def _forced_chain_nodes(m, branches, nodes, weights, node_branch):
    """Integrand accumulation for many branches at once.

    nodes/weights are flat arrays grouped by branch (node_branch gives the
    owner); the jet chain (value, Df^j, D2f^j) advances along each owner's
    itinerary.
    """
    itin = _vec.itinerary_matrix([br.itinerary for br in branches])
    _pos, P, S = _vec.forced_forward(m, itin, node_branch, nodes, jets=True)
    with np.errstate(all="ignore"):
        vals = weights * np.abs(S) / P ** 2
    return vals


def _batched_variation(m, branches, panels: int = 4, order: int = 16):
    """Fixed-order composite Gauss-Legendre variation per branch.

    Branches whose step images touch a critical location get an adaptive
    re-evaluation (the integrand has an integrable endpoint blowup there
    that a fixed rule underresolves).
    """
    B = len(branches)
    if B == 0:
        return np.empty(0)
    gx, gw = np.polynomial.legendre.leggauss(order)
    a = np.array([br.a for br in branches])
    b = np.array([br.b for br in branches])
    taus = np.array([br.tau for br in branches], dtype=np.int64)
    edges = a[:, None] + (b - a)[:, None] * np.arange(panels + 1) / panels
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    midp = 0.5 * (edges[:, 1:] + edges[:, :-1])
    nodes = (midp[:, :, None] + half[:, :, None] * gx).reshape(B, -1)
    weights = (half[:, :, None] * gw).reshape(B, -1)
    node_branch = np.repeat(np.arange(B), panels * order)
    vals = _forced_chain_nodes(m, branches, nodes.ravel(), weights.ravel(),
                               node_branch)
    out = np.add.reduceat(vals, np.arange(B) * panels * order)

    # branches whose endpoint orbit grazes the critical set carry an
    # integrable integrand blowup: re-evaluate those adaptively
    ends = np.concatenate([a, b])
    end_tau = np.concatenate([taus, taus])
    touch = np.zeros(2 * B, dtype=bool)
    pos = ends.copy()
    for j in range(int(taus.max(initial=0))):
        live = end_tau > j
        if not live.any():
            break
        touch[live] |= critical_distance(m, pos[live]) < 1e-9
        pos[live] = np.clip(_vec.step_values(m, pos[live]), m.lo, m.hi)
    flagged = touch[:B] | touch[B:]
    for k in np.nonzero(flagged | ~np.isfinite(out))[0]:
        br = branches[k]
        out[k] = variation_exact(m, (br.a, br.b), br.tau)
    return out


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
            "sum var omega = %.6g (last-decade increment %.3g)" % (
                self.total_var, self.tail_var),
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
    the a-priori gap-term bound evaluated from the critical orbit data.
    """
    branches = sorted(partition.branches, key=lambda br: (br.tau, br.a))
    if records is None:
        records = orbit_records(m, partition.p_max + 1)
    var_int = _batched_variation(m, branches)
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
        steps, _ = _interval_orbit(m, (br.a, br.b), br.tau, with_bounds=False)
        acc = 0.0
        for u, v, _i, _s, _in in steps:
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
