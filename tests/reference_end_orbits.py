"""The scalar end-orbit tracker that distortion.array_end_orbits replaced,
kept as the reference its rows are tested against.

``end_orbits`` follows both ends of one interval, one step at a time:
step j applies branch itinerary[j] or, without an itinerary, the branch
holding the step interval (``containing_branch``, NotDiffeomorphismError
when none does).  Both ends are clamped onto that branch and taken as
one-sided limits from inside the interval.  ``generalized_distortion``
is the one-interval distortion product on it, as the package computed it
before the batched tracker.
"""

import math

from cusp_induce import distortion as di


def containing_branch(m, u, v):
    i = m.branch_index(0.5 * (u + v))
    br = m.branches[i]
    if u < br.a - 1e-12 or v > br.b + 1e-12:
        raise di.NotDiffeomorphismError(
            f"interval ({u!r}, {v!r}) straddles a branch boundary"
        )
    return i


def end_orbits(m, interval, n, itinerary=None):
    """(steps, image): steps are (u, v, branch, jet at u from the right,
    jet at v from the left) with u <= v, image the interval after n
    steps."""
    u, v = sorted((float(interval[0]), float(interval[1])))
    steps = []
    for j in range(n):
        i = containing_branch(m, u, v) if itinerary is None else itinerary[j]
        br = m.branches[i]
        u, v = max(u, br.a), min(v, br.b)
        left = m.endpoint_jet(i, u, "+")
        right = m.endpoint_jet(i, v, "-")
        steps.append((u, v, i, left, right))
        u, v = left.value, right.value
        if not u <= v:
            u, v = v, u
    return steps, (u, v)


def step_sup_inf(m, step):
    """(sup, inf) of |Df| over one step interval of end_orbits."""
    u, v, i, left, right = step
    lo, hi = di.abs_df_extrema(m, [i], [u], [v], [abs(left.d1)],
                               [abs(right.d1)])
    return float(hi[0]), float(lo[0])


def generalized_distortion(m, interval, n):
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
    return di.DistortionResult(
        interval=(float(interval[0]), float(interval[1])), n=n,
        sup_df=sups, inf_df=infs, ratios=ratios, value=value, image=final)
