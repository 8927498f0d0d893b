"""The per-delta expansion sweep that hyperbolicity's one walk over the
whole delta ladder replaced, kept as the reference its estimates are
tested against.

``_expansion_sweep`` steps the sample points of one delta until they
first enter the union of that delta's one-sided neighborhoods; the
package ran it once per candidate of choose_delta's ladder.
"""

import math

import numpy as np

from cusp_induce import _vec


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
