"""The kappa ladder walk as it stood before its envelopes came from one
scatter-minimum per step: the bit-for-bit reference of
hyperbolicity._kappa_ladder.

Each step takes _vec.step_values' forced pass; the envelopes come from a
loop of argmin-and-filter passes, each point's depth from in_delta per
delta over every point, and each delta's segments from a pass over every
point.
"""

import math

import numpy as np

from cusp_induce import _vec
from cusp_induce.hyperbolicity import KappaEstimate, _sample_points
from cusp_induce.map_model import _IMAGE_TOL


def _depth(m, deltas, x):
    depth = np.zeros(x.size, dtype=np.intp)
    idx = np.arange(x.size)
    for d in deltas:
        idx = idx[_vec.in_delta(m, x[idx], d)]
        depth[idx] += 1
    return depth


def reference_kappa_ladder(m, deltas, n_samples, n_max, seed):
    xs = _sample_points(m, n_samples, seed)
    k_all = len(deltas)
    level = _depth(m, deltas, xs)
    pos, level = xs[level < k_all], level[level < k_all]
    logp = np.zeros(pos.shape)
    envelopes = [[] for _ in deltas]
    kappa_log, segments = [math.inf] * k_all, [0] * k_all
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
        lp, lv, top = logp, level, k_all
        while lp.size:
            i = lp.argmin()
            for env in envelopes[lv[i]:top]:
                env.append(float(lp[i]))
            top = lv[i]
            lp, lv = lp[lv < top], lv[lv < top]
        depth = np.maximum(level, _depth(m, deltas, v))
        for k in range(int(depth.max())):
            seg = logp[(level <= k) & (depth > k)]
            kappa_log[k] = min(kappa_log[k], float(seg.min(initial=math.inf)))
            segments[k] += seg.size
        stay = depth < k_all
        pos, logp, level = v[stay], logp[stay], depth[stay]
    return [KappaEstimate(value=math.exp(kl) if n > 0 else math.nan,
                          segments=n, n_samples=int(n_samples),
                          n_max=int(n_max), envelope=env)
            for env, kl, n in zip(envelopes, kappa_log, segments)]
