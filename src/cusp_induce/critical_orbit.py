"""Critical orbits, derivative growth, and the summability diagnostics.

For a one-sided critical point c the orbit is c_1 = f(c) (one-sided value),
c_{n+1} = f(c_n).  Along it we track

    d(c_n)   distance to the critical set,
    D_n      = |(f^n)'(c_1)| = prod_{j<=n} |Df(c_j)|,
    gamma_n  = min(1/2, 1 / (d(c_n) * D_{n-1}^{1/(2l-1)})),

and the two series whose finite-horizon behavior the reports summarize: the
summability condition

    sum_n n * max(0, -log d(c_n)) / (d(c_n) * D_{n-1}^{1/(2l-1)})

and its variant with d(c_n)^(1-l_n) in the denominator.  The variant is
DIAGNOSTIC ONLY: it is not known to imply anything and is never used as a
gate.  All verdicts are finite-horizon statements "up to N terms".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .map_model import (_IMAGE_TOL, MapSpec, CriticalPoint, critical_distance,
                        evaluate)

__all__ = [
    "OrbitEscapeError",
    "OrbitRecord",
    "StarReport",
    "GrowthFit",
    "compute_orbit",
    "orbit_records",
    "star_sum",
    "star_star_sum",
    "growth_fit",
    "write_orbit_csv",
]

_HIT_TOL = 1e-13


class OrbitEscapeError(RuntimeError):
    def __init__(self, step: int, value: float):
        super().__init__(f"orbit left the domain at step {step}: {value!r}")
        self.step = step


@dataclass
class OrbitRecord:
    """Orbit of one one-sided critical point, arrays indexed n = 1..N."""

    critical_point: CriticalPoint
    N: int                      # requested horizon
    c: np.ndarray               # c_n
    d: np.ndarray               # d(c_n)
    ell_n: np.ndarray           # order of the critical side nearest to c_n
    df: np.ndarray              # |Df(c_n)|
    D: np.ndarray               # D_n
    log_D: np.ndarray           # log D_n (exact in log space)
    gamma: np.ndarray           # gamma_n; NaN when order(c) <= 1
    star_terms: np.ndarray      # NaN when order(c) <= 1
    starstar_terms: np.ndarray  # diagnostic-only variant terms
    hit_critical_at: int = None  # step where orbit landed within 1e-13 of C

    @property
    def n_filled(self) -> int:
        return len(self.c)

    @property
    def order(self) -> float:
        return self.critical_point.order

    def D_at(self, n: int) -> float:
        """D_n with the D_0 = 1 convention."""
        if n == 0:
            return 1.0
        return float(self.D[n - 1])

    def log_D_at(self, n: int) -> float:
        if n == 0:
            return 0.0
        return float(self.log_D[n - 1])


def _nearest_order(m: MapSpec, x: float) -> float:
    """Order of the one-sided critical point nearest to x.

    The side facing x wins ties at the same location.
    """
    best_key, best = (math.inf, 1), None
    for cp in m.critical_points:
        faces_x = (cp.side == "+") == (x >= cp.location)
        key = (abs(x - cp.location), 0 if faces_x else 1)
        if key < best_key:
            best_key, best = key, cp
    return best.order if best is not None else math.nan


def compute_orbit(m: MapSpec, cp: CriticalPoint, N: int) -> OrbitRecord:
    """Iterate the one-sided critical value N steps, recording the ledger.

    Stops early (flagged) if the orbit lands within 1e-13 of the critical
    set; raises OrbitEscapeError if it leaves the domain.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    ell = cp.order
    exponent = 1.0 / (2.0 * ell - 1.0) if ell > 1.0 else math.nan

    c_vals, d_vals, ell_vals, df_vals, logD = [], [], [], [], []
    hit_at = None
    x = evaluate(m, cp.location, cp.side).value
    running_logD = 0.0
    for n in range(1, N + 1):
        if x < m.lo - _IMAGE_TOL or x > m.hi + _IMAGE_TOL:
            raise OrbitEscapeError(n, x)
        x = min(max(x, m.lo), m.hi)
        dist = critical_distance(m, x)
        c_vals.append(x)
        d_vals.append(dist)
        ell_vals.append(_nearest_order(m, x))
        if dist <= _HIT_TOL:
            df_vals.append(math.nan)
            logD.append(math.nan)
            hit_at = n
            break
        j = evaluate(m, x)
        df_vals.append(abs(j.d1))
        running_logD += math.log(abs(j.d1))
        logD.append(running_logD)
        x = j.value

    c_arr = np.array(c_vals)
    d_arr = np.array(d_vals)
    df_arr = np.array(df_vals)
    logD_arr = np.array(logD)
    with np.errstate(over="ignore"):
        D_arr = np.exp(logD_arr)

    n_idx = np.arange(1, len(c_vals) + 1, dtype=float)
    # d = 0 means the orbit landed on another critical point; inf terms are intended
    with np.errstate(divide="ignore", over="ignore"):
        neglogd = np.maximum(0.0, -np.log(d_arr))
        logd = np.log(d_arr)
    # log D_{n-1} with D_0 = 1
    logD_prev = np.concatenate(([0.0], logD_arr[:-1]))
    if ell > 1.0:
        with np.errstate(over="ignore", invalid="ignore"):
            log_denominator = logd + exponent * logD_prev
            gamma = np.minimum(0.5, np.exp(-log_denominator))
            star = n_idx * neglogd * np.exp(-log_denominator)
            starstar = n_idx * neglogd * np.exp(
                -((1.0 - np.array(ell_vals)) * logd + exponent * logD_prev)
            )
    else:
        gamma = np.full_like(d_arr, math.nan)
        star = np.full_like(d_arr, math.nan)
        starstar = np.full_like(d_arr, math.nan)

    return OrbitRecord(
        critical_point=cp,
        N=N,
        c=c_arr,
        d=d_arr,
        ell_n=np.array(ell_vals),
        df=df_arr,
        D=D_arr,
        log_D=logD_arr,
        gamma=gamma,
        star_terms=star,
        starstar_terms=starstar,
        hit_critical_at=hit_at,
    )


def orbit_records(m: MapSpec, N: int) -> dict:
    """Orbit records for every declared critical point, keyed (location, side)."""
    return {(cp.location, cp.side): compute_orbit(m, cp, N)
            for cp in m.critical_points}


@dataclass
class StarReport:
    """Finite-horizon partial sums of a summability series."""

    label: str
    N: int
    terms: np.ndarray
    partials: np.ndarray
    total: float
    tail_increment: float   # mass of the final 10 terms of the horizon
    epsilon: float
    verdict: str             # "summable-so-far" | "fail" | "not-applicable"
    diagnostic_only: bool = False

    def describe(self) -> str:
        tag = " (DIAGNOSTIC ONLY)" if self.diagnostic_only else ""
        return (f"{self.label}{tag}: {self.verdict} up to N={self.N} terms, "
                f"total={self.total:.6g}, last-decade increment="
                f"{self.tail_increment:.3g}")


def _tail_verdict(label, terms, record, epsilon, diagnostic=False
                  ) -> StarReport:
    N = record.N
    terms = np.asarray(terms, dtype=float)
    partials = np.cumsum(terms)
    total = float(partials[-1]) if len(partials) else 0.0
    finite = np.all(np.isfinite(terms))
    # final 10 indices of the horizon; absolute threshold
    tail = float(np.sum(terms[max(0, N - 10):])) if len(terms) else 0.0
    # an orbit that hits the critical set ends early, with an empty window
    if not finite or record.hit_critical_at is not None:
        verdict = "fail"
    elif tail < epsilon:
        verdict = "summable-so-far"
    else:
        verdict = "fail"
    return StarReport(label, N, terms, partials, total, tail, epsilon,
                      verdict, diagnostic)


def star_sum(record: OrbitRecord, epsilon: float = 1e-6) -> StarReport:
    """Partial sums of the summability series for one critical orbit.

    Not applicable when the starting point is singular or flat (order <= 1):
    those points never bind and the series is not defined for them.
    """
    if record.order <= 1.0:
        return StarReport("star", record.N, np.array([]), np.array([]),
                          math.nan, math.nan, epsilon, "not-applicable")
    return _tail_verdict("star", record.star_terms, record, epsilon)


def star_star_sum(record: OrbitRecord, epsilon: float = 1e-6) -> StarReport:
    """DIAGNOSTIC ONLY variant with d^(1-ell_n) in the denominator.

    Reported for comparison; never used as a gate on any construction.
    """
    if record.order <= 1.0:
        return StarReport("starstar", record.N, np.array([]), np.array([]),
                          math.nan, math.nan, epsilon, "not-applicable", True)
    return _tail_verdict("starstar", record.starstar_terms, record, epsilon,
                         diagnostic=True)


@dataclass
class GrowthFit:
    lambda_hat: float   # least-squares slope of log D_n vs n
    alpha_hat: float    # slope of -log d(c_n) vs n, clamped >= 0
    margin: float       # lambda_hat/(2l-1) - alpha_hat
    N: int


def growth_fit(record: OrbitRecord) -> GrowthFit:
    """Exponential-rate fit of derivative growth vs recurrence depth.

    margin > 0 is the empirical version of the regime alpha < lambda/(2l-1)
    in which the summability condition holds.
    """
    n_eff = record.n_filled if record.hit_critical_at is None else \
        record.hit_critical_at - 1
    if n_eff < 10:
        raise ValueError("need at least 10 orbit points for a growth fit")
    n = np.arange(1, n_eff + 1, dtype=float)
    lam = float(np.polyfit(n, record.log_D[:n_eff], 1)[0])
    neglogd = np.maximum(0.0, -np.log(record.d[:n_eff]))
    alpha = max(0.0, float(np.polyfit(n, neglogd, 1)[0]))
    ell = record.order
    margin = lam / (2.0 * ell - 1.0) - alpha if ell > 1.0 else math.nan
    return GrowthFit(lam, alpha, margin, n_eff)


def _csv_field(v) -> str:
    if v is None:
        return ""
    return repr(float(v)) if isinstance(v, float) else str(v)


def csv_line(row) -> str:
    """One artifact CSV line: fields joined by commas, floats (NumPy's too)
    by repr, None as empty, anything else by str, and an LF ending."""
    return ",".join(map(_csv_field, row)) + "\n"


def write_csv(path, header: str, rows) -> None:
    """An artifact CSV file: the header line, then csv_line of each row."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(map(csv_line, rows))


def write_orbit_csv(record: OrbitRecord, path: str):
    star = record.star_terms
    partial = np.nancumsum(star) if len(star) else star
    n = record.n_filled
    write_csv(path, "n,c_n,d,ell_n,Dn,gamma_n,star_term,star_partial",
              zip(range(1, n + 1), *(v[:n].tolist() for v in (
                  record.c, record.d, record.ell_n, record.D, record.gamma,
                  star, partial))))
