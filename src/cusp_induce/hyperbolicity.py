"""Expansion estimates outside the critical neighborhoods and delta fixing.

Orbit segments that stay outside the union of one-sided neighborhoods until
they first re-enter carry a derivative product; their minimum is the
expansion floor kappa.  One walk serves a whole candidate list; a lower
log-linear envelope of it gives the (c, lambda) pair that fixes q0, the
free-orbit length, and the delta selector tries its candidates from the
largest down until the geometric and growth-margin conditions all hold.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _vec
from .critical_orbit import orbit_records
from .distortion import POSITIONAL, orbit_extrema, raise_first
from .inducing import binding_periods
from .map_model import _IMAGE_TOL, MapValidationError, _check_delta

_LOG = logging.getLogger(__name__)
ORBIT_HORIZON = 200     # critical-orbit steps of choose_delta's checks


class ExpansionFailure(RuntimeError):
    """The walk produced no usable expansion data (or a flat/negative fit)."""


class DeltaSelectionError(RuntimeError):
    """No candidate neighborhood size satisfied every fixing condition."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class KappaEstimate:
    value: float        # min |Df^n| over first-entry segments; nan if none
    segments: int       # number of completed first-entry segments
    n_samples: int
    n_max: int
    envelope: list = field(default_factory=list, repr=False)  # min log|Df^n|

    @property
    def applicable(self) -> bool:
        return self.segments > 0

    def to_dict(self) -> dict:
        return {"value": self.value, "segments": self.segments,
                "n_samples": self.n_samples, "n_max": self.n_max,
                "applicable": self.applicable}


@dataclass
class ExpansionReport:
    delta: float
    kappa_hat: float
    c_hat: float
    lambda_hat: float
    h_delta: int
    q0: int
    margin: float
    margin_check: dict
    samples: int
    n_max: int
    horizon: int

    def to_dict(self) -> dict:
        return asdict(self)


def _sample_points(m, n_samples: int, seed: int) -> np.ndarray:
    w = m.hi - m.lo
    grid = m.lo + w * (np.arange(2048) + 0.5) / 2048.0
    rng = np.random.default_rng(seed)
    rand = rng.uniform(m.lo, m.hi, size=int(n_samples))
    return np.concatenate([grid, rand])


def _depth(m, deltas, x: np.ndarray) -> np.ndarray:
    """How many of the descending deltas have a union holding each x.  The
    unions nest, so each delta tests only the points inside the one before."""
    depth = np.zeros(x.size, dtype=np.intp)
    idx = np.arange(x.size)
    for d in deltas:
        idx = idx[_vec.in_delta(m, x[idx], d)]
        depth[idx] += 1
    return depth


def _kappa_ladder(m, deltas, n_samples: int, n_max: int, seed: int) -> list:
    """estimate_kappa for each of the descending deltas, from one walk.

    Until its first entry an orbit does not depend on delta, and a smaller
    delta's union lies in a larger one's, so each point carries its level:
    the number of leading deltas whose union it has entered.  At step n the
    envelope of deltas[k] takes the minimum of log|Df^n| over the finite,
    in-range points of level <= k (a scatter-minimum per level, then a
    running one over the levels), and a point whose level rises from a to
    b (only one inside deltas[0]'s union can) ends a first-entry segment
    for deltas[a:b].  It leaves the walk at level len(deltas).
    """
    xs = _sample_points(m, n_samples, seed)
    k_all = len(deltas)
    level = _depth(m, deltas, xs)
    pos, level = xs[level < k_all], level[level < k_all]
    logp = np.zeros(pos.shape)
    rows, kappa_log, segments = [], [math.inf] * k_all, [0] * k_all
    for _n in range(n_max):
        v, d1 = _vec.step_values(m, pos, 1)
        with np.errstate(all="ignore"):
            step = np.log(np.abs(d1))
        good = np.isfinite(v) & np.isfinite(step)
        good &= (v >= m.lo - _IMAGE_TOL) & (v <= m.hi + _IMAGE_TOL)
        level, v = level[good], np.clip(v[good], m.lo, m.hi)
        logp = logp[good] + step[good]
        if not logp.size:
            break
        low = np.full(k_all, math.inf)
        np.minimum.at(low, level, logp)
        rows.append(np.minimum.accumulate(low))
        depth = level.copy()
        inside = np.flatnonzero(_vec.in_delta(m, v, deltas[0]))
        depth[inside] = np.maximum(level[inside],
                                   1 + _depth(m, deltas[1:], v[inside]))
        rose = np.flatnonzero(depth > level)
        lv, dp, lp = level[rose], depth[rose], logp[rose]
        for k in range(int(dp.max(initial=0))):
            seg = lp[(lv <= k) & (dp > k)]
            kappa_log[k] = min(kappa_log[k], float(seg.min(initial=math.inf)))
            segments[k] += seg.size
        stay = depth < k_all
        pos, logp, level = v[stay], logp[stay], depth[stay]
    envelopes = np.array(rows).reshape(-1, k_all).T
    return [KappaEstimate(value=math.exp(kl) if n > 0 else math.nan,
                          segments=n, n_samples=int(n_samples),
                          n_max=int(n_max),
                          envelope=env[env < math.inf].tolist())
            for env, kl, n in zip(envelopes, kappa_log, segments)]


def estimate_kappa(m, delta, n_samples: int = 10000, n_max: int = 64,
                   seed: int = 0) -> KappaEstimate:
    """Minimum of |Df^n| over sampled first-entry segments.

    Segments start outside the union of neighborhoods and end at the first
    step that lands inside; a sample set producing no such segment yields a
    NaN value flagged non-applicable rather than an error.  The one-delta
    call of _kappa_ladder, whose envelope is kept for the expansion fit.
    """
    return _kappa_ladder(m, [delta], n_samples, n_max, seed)[0]


def estimate_expansion(m, delta, n_samples: int = 10000, n_max: int = 64,
                       seed: int = 0):
    """(c_hat, lambda_hat) from the lower envelope of log|Df^n| outside.

    lambda_hat is the least-squares slope of the envelope (clamped below at
    1e-6 after requiring positivity) and log c_hat is chosen so the line
    c_hat * exp(lambda_hat * n) supports the envelope from below.
    """
    return _fit_expansion(estimate_kappa(m, delta, n_samples, n_max, seed))


def _fit_expansion(kappa: KappaEstimate):
    """estimate_expansion's fit, on the envelope a kappa estimate kept."""
    m_of_n = kappa.envelope
    if not m_of_n:
        raise ExpansionFailure("no orbit segments stayed outside the "
                               "neighborhoods; cannot fit expansion")
    ns = np.arange(1, len(m_of_n) + 1, dtype=float)
    vals = np.asarray(m_of_n)
    if len(m_of_n) == 1:
        slope = float(vals[0])
    else:
        slope = float(np.polyfit(ns, vals, 1)[0])
    if slope <= 0.0:
        raise ExpansionFailure(
            f"fitted expansion rate is not positive (slope={slope!r})")
    lam = max(slope, 1e-6)
    log_c = float(np.min(vals - lam * ns))
    return math.exp(log_c), lam


def choose_q0(c_hat: float, lambda_hat: float) -> int:
    """Smallest q >= 1 with c_hat * exp(lambda_hat * q) >= 2."""
    if not (c_hat > 0.0) or not math.isfinite(c_hat):
        raise ValueError(f"c_hat must be positive and finite, got {c_hat!r}")
    if not (lambda_hat > 0.0) or not math.isfinite(lambda_hat):
        raise ValueError(
            f"lambda_hat must be positive and finite, got {lambda_hat!r}")
    q = max(1, math.ceil((math.log(2.0) - math.log(c_hat)) / lambda_hat
                         - 1e-12))
    while c_hat * math.exp(lambda_hat * q) < 2.0:
        q += 1
    return int(q)


def compute_h_delta(m, delta, grid: int = 64, p_max: int = 60,
                    records=None) -> int:
    """Minimum binding period over the neighborhoods.

    Sampled on per-side geometric grids accumulating at the outer edge
    (where the period is smallest); a singular or flat-linear side pins the
    minimum at 1 immediately.
    """
    periods = []
    for cp in m.critical_points:
        if cp.order <= 1.0:
            return 1
        sgn = 1.0 if cp.side == "+" else -1.0
        d = np.ldexp(delta * (1.0 - 1e-9), -np.arange(grid))
        p = binding_periods(m, cp, cp.location + sgn * d, delta, records,
                            p_max).p
        periods += p[p >= 0].tolist()   # failure codes are negative
    if not periods:
        raise RuntimeError("binding period could not be evaluated anywhere")
    return min(periods)


def choose_delta(m, candidates, margin: float = 10.0,
                 n_samples: int = 10000, n_max: int = 64, p_max: int = 60,
                 seed: int = 0):
    """Largest candidate neighborhood size passing the fixing conditions.

    Conditions, per candidate delta: (1) the one-sided neighborhoods are
    pairwise disjoint and their images stay clear of the union; (2) |Df|
    stays at least 2 on the neighborhoods of singular points, whose bound
    pieces are single steps; (3) gamma_n stays strictly below 1/2 and (4)
    the derivative growth D_(n-1)^(1/(2l-1)) clears margin * 2/kappa from
    n = h(delta) to the critical orbits' end at ORBIT_HORIZON, with kappa
    taken as the most pessimistic estimate across all candidates.  Returns
    (delta, ExpansionReport); raises DeltaSelectionError with per-candidate
    diagnostics when nothing passes.
    """
    cands = sorted({float(d) for d in candidates}, reverse=True)
    if not cands:
        raise DeltaSelectionError("no candidate deltas supplied")
    records = orbit_records(m, ORBIT_HORIZON)
    diagnostics = {}

    # shared expansion floor: the weakest kappa over the candidate list
    kappa_by_delta = dict(zip(cands, _kappa_ladder(m, cands, n_samples,
                                                   n_max, seed)))
    finite = [k.value for k in kappa_by_delta.values()
              if k.applicable and math.isfinite(k.value) and k.value > 0]
    kappa_proxy = min(finite) if finite else math.nan

    report = None
    for d in cands:
        why, h = _delta_defect(m, d, records, kappa_proxy, margin, p_max)
        if why is not None:
            diagnostics[d] = why
            continue
        kap = kappa_by_delta[d]
        c_hat, lam = _fit_expansion(kap)    # from the same walk
        report = ExpansionReport(
            delta=d, kappa_hat=kappa_proxy, c_hat=c_hat, lambda_hat=lam,
            h_delta=h, q0=choose_q0(c_hat, lam), margin=margin,
            margin_check={"neighborhoods_and_images_disjoint": True,
                          "gamma_below_half_beyond_h": True,
                          "derivative_growth_dominates_2_over_kappa": True,
                          "kappa_segments": kap.segments},
            samples=int(n_samples), n_max=int(n_max), horizon=ORBIT_HORIZON)
        break
    _LOG.info("choose_delta: kappa/segments/envelope steps %s; rejected %s; "
              "chosen delta %r, q0 %r", ", ".join(
                  f"{k!r}: {e.value:.6g}/{e.segments}/{len(e.envelope)}"
                  for k, e in kappa_by_delta.items()),
              "; ".join(f"{k!r} ({v})" for k, v in diagnostics.items())
              or "none", report and report.delta, report and report.q0)
    if report is None:
        raise DeltaSelectionError(
            "no candidate delta satisfied the fixing conditions",
            diagnostics={repr(k): v for k, v in diagnostics.items()})
    return report.delta, report


def _delta_defect(m, delta, records, kappa, margin, p_max):
    """(reason, h): why delta fails conditions (1)-(4) of choose_delta,
    None when it passes, and h(delta) once it is known."""
    try:
        _check_delta(m, delta)
    except MapValidationError as err:
        return f"geometry: {err}", None
    cps = m.critical_points
    lo = [c.location if c.side == "+" else c.location - delta for c in cps]
    hi = [c.location + delta if c.side == "+" else c.location for c in cps]
    (_u, _v, _sup, inf), (img_lo, img_hi), failed = orbit_extrema(
        m, np.full((len(cps), 1), POSITIONAL), lo, hi)
    raise_first(failed)
    for cp, a, b in zip(cps, img_lo.tolist(), img_hi.tolist()):
        for cp2, lo2, hi2 in zip(cps, lo, hi):
            if a < hi2 and lo2 < b:
                return (f"image of the neighborhood at ({cp.location}, "
                        f"{cp.side}) meets the neighborhood at "
                        f"({cp2.location}, {cp2.side})"), None
    for cp, inf_df in zip(cps, inf[:, 0].tolist()):
        if cp.order < 1.0 and inf_df < 2.0:
            return (f"expansion: inf |Df| = {inf_df!r} < 2 on the "
                    f"neighborhood at ({cp.location}, {cp.side})"), None
    try:
        h = compute_h_delta(m, delta, p_max=p_max, records=records)
    except RuntimeError as err:
        return f"binding: {err}", None
    for key, rec in records.items():
        if rec.order <= 1.0:
            continue
        if rec.hit_critical_at is not None:
            return (f"critical orbit of {key} hits the critical set at "
                    f"step {rec.hit_critical_at}"), h
        if not np.all(rec.gamma[h - 1:rec.n_filled] < 0.5):
            return f"gamma reaches 1/2 beyond h for {key}", h
        if math.isnan(kappa):
            return "no admissible expansion segments for kappa", h
        expo = 1.0 / (2.0 * rec.order - 1.0)
        log_d_prev = np.concatenate(([0.0], rec.log_D[:rec.n_filled - 1]))
        need = math.log(2.0 * margin / kappa)
        if not np.all(expo * log_d_prev[h - 1:] >= need):
            return f"derivative growth misses the margin for {key}", h
    return None, h
