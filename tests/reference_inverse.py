"""A yardstick for preimages: their distance to the true preimage.

|f^tau(x) - t| / |Df^tau(x)| is, to first order, how far x lies from the
exact preimage of t along the itinerary.  It is evaluated in long double
(64-bit significand on x86) through the expression closures, so the
rounding of the double-precision forward pass does not decide it: a
bracket on the double residual rates a preimage by the flat runs of the
rounded map instead.

per_row_inverse is the bit-for-bit reference of _vec.forced_inverse: the
same one-step inverse chained one row at a time, with no steps shared.
"""

import numpy as np

from cusp_induce import _vec, expr


def per_row_inverse(m, itin, a, b, edges, first, count):
    """edges[first[k]:first[k] + count[k]] pulled back along itin row k
    through _vec.branch_inverse, last step first, one row at a time, and
    clipped to [a[k], b[k]].  Returns (preimages, clamped), row after row;
    clamped marks a target clamped at some step or its preimage clipped."""
    pre, clamped = [], []
    for k, (j, n) in enumerate(zip(first, count)):
        x = np.array(edges[j:j + n], dtype=float)
        hit = np.zeros(x.size, dtype=bool)
        for i in itin[k][itin[k] >= 0][::-1].tolist():
            x = _vec.branch_inverse(m, np.full(x.size, i), x, hit)
        pre.append(np.clip(x, a[k], b[k]))
        clamped.append(hit | (pre[-1] != x))
    return np.concatenate(pre), np.concatenate(clamped)


def long_double_images(m, itin, owner, x, derivative=False):
    """f^tau(x[k]) along row owner[k] of itin, in long double, and with
    derivative also Df^tau(x[k])."""
    rules = [expr._array_jet(br.tree, br.params) for br in m.branches]
    owner = np.asarray(owner)
    y = np.asarray(x, dtype=np.longdouble).copy()
    d = np.ones_like(y)
    with np.errstate(all="ignore"):
        for j in range(itin.shape[1]):
            ids = itin[:, j][owner]
            for i, rule in enumerate(rules):
                sel = np.flatnonzero(ids == i)
                if sel.size:
                    v, d1 = rule(y[sel], 1, None)
                    d[sel] *= d1
                    y[sel] = v
    return (y, d) if derivative else y


def distance_to_preimage(m, itin, owner, x, t):
    """|f^tau(x) - t| / |Df^tau(x)| in long double, x[k] following row
    owner[k] of itin; 0 where the residual is exactly 0."""
    y, d = long_double_images(m, itin, owner, x, derivative=True)
    with np.errstate(all="ignore"):
        res = np.abs(y - np.asarray(t, dtype=np.longdouble))
        return np.where(res == 0, 0.0, res / np.abs(d)).astype(float)


def one_step_distance(m, ids, x, t):
    """distance_to_preimage of one step, point k on branch ids[k]."""
    itin = np.arange(len(m.branches))[:, None]
    return distance_to_preimage(m, itin, ids, x, t)
