"""Expansion estimates outside the critical neighborhoods and delta fixing.

Orbit segments that stay outside the union of one-sided neighborhoods until
they first re-enter carry a derivative product; their minimum is the
expansion floor kappa.  A lower log-linear envelope of the same sweep gives
the (c, lambda) pair that fixes q0, the free-orbit length, and the delta
selector walks a descending candidate list until the geometric and
growth-margin conditions all hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _vec
from .critical_orbit import orbit_records
from .distortion import POSITIONAL, orbit_extrema, raise_first
from .inducing import binding_periods
from .map_model import MapValidationError, _check_delta


class ExpansionFailure(RuntimeError):
    """The sweep produced no usable expansion data (or a flat/negative fit)."""


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
        return {
            "delta": self.delta, "kappa_hat": self.kappa_hat,
            "c_hat": self.c_hat, "lambda_hat": self.lambda_hat,
            "h_delta": self.h_delta, "q0": self.q0, "margin": self.margin,
            "margin_check": dict(self.margin_check),
            "samples": self.samples, "n_max": self.n_max,
            "horizon": self.horizon,
        }


def _sample_points(m, n_samples: int, seed: int) -> np.ndarray:
    w = m.hi - m.lo
    grid = m.lo + w * (np.arange(2048) + 0.5) / 2048.0
    rng = np.random.default_rng(seed)
    rand = rng.uniform(m.lo, m.hi, size=int(n_samples))
    return np.concatenate([grid, rand])


def _expansion_sweep(m, delta: float, xs: np.ndarray, n_max: int):
    """Derivative products along orbits until first entry into the union.

    Returns (m_of_n, kappa_log, segments): m_of_n[n-1] is the minimum of
    log|Df^n| over points still outside through step n-1, and kappa_log is
    the minimum over completed first-entry products.
    """
    alive = ~_vec.in_delta(m, xs, delta)
    pos = xs[alive].copy()
    logp = np.zeros(pos.shape)
    m_of_n = []
    kappa_log = math.inf
    segments = 0
    for _n in range(1, n_max + 1):
        if pos.size == 0:
            break
        v, d1 = _vec.step_values(m, pos, 1)
        with np.errstate(all="ignore"):
            step = np.log(np.abs(d1))
        good = np.isfinite(v) & np.isfinite(step)
        good &= (v >= m.lo - 1e-9) & (v <= m.hi + 1e-9)
        pos, logp, v = pos[good], logp[good], np.clip(
            v[good], m.lo, m.hi)
        logp = logp + step[good]
        if logp.size == 0:
            break
        m_of_n.append(float(np.min(logp)))
        entered = _vec.in_delta(m, v, delta)
        if entered.any():
            kappa_log = min(kappa_log, float(np.min(logp[entered])))
            segments += int(entered.sum())
        pos = v[~entered]
        logp = logp[~entered]
    return m_of_n, kappa_log, segments


def estimate_kappa(m, delta, n_samples: int = 10000, n_max: int = 64,
                   seed: int = 0) -> KappaEstimate:
    """Minimum of |Df^n| over sampled first-entry segments.

    Segments start outside the union of neighborhoods and end at the first
    step that lands inside; a sample set producing no such segment yields a
    NaN value flagged non-applicable rather than an error.  The sweep's
    envelope is kept for the expansion fit.
    """
    xs = _sample_points(m, n_samples, seed)
    m_of_n, kappa_log, segments = _expansion_sweep(m, delta, xs, n_max)
    value = math.exp(kappa_log) if segments > 0 else math.nan
    return KappaEstimate(value=value, segments=segments,
                         n_samples=int(n_samples), n_max=int(n_max),
                         envelope=m_of_n)


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
                 n_samples: int = 10000, n_max: int = 64,
                 horizon: int = 200, p_max: int = 60, grid: int = 64,
                 seed: int = 0):
    """Largest candidate neighborhood size passing the fixing conditions.

    Conditions, per candidate delta: (1) the one-sided neighborhoods are
    pairwise disjoint and their images stay clear of the union; (2) |Df|
    stays at least 2 on the neighborhoods of singular points, whose bound
    pieces are single steps; (3) gamma_n stays strictly below 1/2 from
    h(delta) on; (4) the derivative growth D_(n-1)^(1/(2l-1)) clears
    margin * 2/kappa from h(delta) on, with kappa taken as the most
    pessimistic estimate across all candidates.  Returns
    (delta, ExpansionReport); raises DeltaSelectionError with per-candidate
    diagnostics when nothing passes.
    """
    cands = sorted({float(d) for d in candidates}, reverse=True)
    if not cands:
        raise DeltaSelectionError("no candidate deltas supplied")
    records = orbit_records(m, horizon)
    diagnostics = {}

    # shared expansion floor: the weakest kappa over the candidate list
    kappa_by_delta = {}
    for d in cands:
        kappa_by_delta[d] = estimate_kappa(m, d, n_samples, n_max, seed)
    finite = [k.value for k in kappa_by_delta.values()
              if k.applicable and math.isfinite(k.value) and k.value > 0]
    kappa_proxy = min(finite) if finite else math.nan

    for d in cands:
        try:
            _check_delta(m, d)
        except MapValidationError as err:
            diagnostics[d] = f"geometry: {err}"
            continue
        defect = _neighborhood_defect(m, d)
        if defect is not None:
            diagnostics[d] = defect
            continue
        try:
            h = compute_h_delta(m, d, grid=grid, p_max=p_max,
                                records=records)
        except RuntimeError as err:
            diagnostics[d] = f"binding: {err}"
            continue
        gamma_ok = True
        growth_ok = True
        why = None
        for key, rec in records.items():
            if rec.order <= 1.0:
                continue
            if rec.hit_critical_at is not None:
                gamma_ok = False
                why = (f"critical orbit of {key} hits the critical set at "
                       f"step {rec.hit_critical_at}")
                break
            tail = rec.gamma[h - 1:rec.n_filled]
            if not np.all(tail < 0.5):
                gamma_ok = False
                why = f"gamma reaches 1/2 beyond h for {key}"
                break
            if math.isnan(kappa_proxy):
                growth_ok = False
                why = "no admissible expansion segments for kappa"
                break
            expo = 1.0 / (2.0 * rec.order - 1.0)
            log_d_prev = np.concatenate(
                ([0.0], rec.log_D[:rec.n_filled - 1]))
            need = math.log(2.0 * margin / kappa_proxy)
            if not np.all(expo * log_d_prev[h - 1:] >= need):
                growth_ok = False
                why = f"derivative growth misses the margin for {key}"
                break
        if not gamma_ok or not growth_ok:
            diagnostics[d] = why
            continue
        kap = kappa_by_delta[d]
        c_hat, lam = _fit_expansion(kap)    # from the same sweep
        q0 = choose_q0(c_hat, lam)
        report = ExpansionReport(
            delta=d,
            kappa_hat=kappa_proxy,
            c_hat=c_hat,
            lambda_hat=lam,
            h_delta=h,
            q0=q0,
            margin=margin,
            margin_check={
                "neighborhoods_and_images_disjoint": True,
                "gamma_below_half_beyond_h": True,
                "derivative_growth_dominates_2_over_kappa": True,
                "kappa_segments": kap.segments,
            },
            samples=int(n_samples),
            n_max=int(n_max),
            horizon=int(horizon),
        )
        return d, report
    raise DeltaSelectionError(
        "no candidate delta satisfied the fixing conditions",
        diagnostics={repr(k): v for k, v in diagnostics.items()})


def _neighborhood_defect(m, delta: float):
    """None if every neighborhood image avoids the union and |Df| >= 2 on
    every singular neighborhood (a one-step bound piece), else a reason."""
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
                        f"({cp2.location}, {cp2.side})")
    for cp, inf_df in zip(cps, inf[:, 0].tolist()):
        if cp.order < 1.0 and inf_df < 2.0:
            return (f"expansion: inf |Df| = {inf_df!r} < 2 on the "
                    f"neighborhood at ({cp.location}, {cp.side})")
    return None
