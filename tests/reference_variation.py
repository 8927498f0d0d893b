"""The scalar variation rules that distortion's batched ones replaced, kept
as the reference they are tested against.

``variation_exact`` integrates |D2f^l| / (Df^l)^2 with scipy's adaptive
QUADPACK rule over ``chain_jet``, the forward jet composition of l scalar
jets at one point; like the package before the batched rule, it checks
only the first step of its interval for a straddle.
``inv_distance_integral`` is the closed form of the integral of dx over
the distance to the critical set on one interval.
"""

import math
import warnings

import numpy as np
from scipy import integrate

from cusp_induce import distortion as di
from cusp_induce.map_model import evaluate


def chain_jet(m, x, l):
    """(f^l(x), Df^l(x), D2f^l(x)) by forward jet composition."""
    v, P, S = float(x), 1.0, 0.0
    for _ in range(l):
        j = evaluate(m, v)
        S = j.d2 * P * P + j.d1 * S
        P = j.d1 * P
        v = j.value
    return v, P, S


def variation_exact(m, interval, l, epsabs=di.VAR_EPSABS,
                    epsrel=di.VAR_EPSREL):
    """Variation of 1/|Df^l| over the interval by QUADPACK's quad."""
    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return 0.0
    u, v = sorted((float(interval[0]), float(interval[1])))
    di.raise_first(di.array_end_orbits(m, [[di.POSITIONAL]], [u], [v],
                                       lambda *step: None)[3])

    def integrand(x):
        _, P, S = chain_jet(m, x, l)
        return abs(S) / (P * P)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, err, _info, *msg = integrate.quad(
            integrand, u, v, epsabs=epsabs, epsrel=epsrel,
            limit=di.VAR_LIMIT, full_output=1)
    # QUADPACK's ier = 5 comes back only as its message
    if msg and "divergent" in msg[0]:
        raise RuntimeError(
            f"variation quadrature diverges: value={val!r} err={err!r}")
    if val < 0.0 or not di._accepted(val, err):
        raise RuntimeError("variation quadrature did not converge: "
                           f"value={val!r} err={err!r}")
    return val


def inv_distance_integral(m, u, v):
    """Integral of dx / d(x) over [u, v], split at the midpoints between
    consecutive critical locations."""
    locs = m.critical_locations
    if locs.size == 0:
        return 0.0
    if np.any((locs >= u) & (locs <= v)):
        raise di.InfiniteIntegralError(
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
