"""Lockstep ensemble orbit stepper for long-orbit Birkhoff histograms.

Every seed stream contributes WALKERS orbits (fewer when the counted steps
are fewer), and the orbits of all streams step together through
`_vec.step_values`: positional dispatch, ties to the right-hand branch, and
one evaluation of the whole array per step, which on a map with several
formulas evaluates their shared subtrees once and selects each walker's
formula (one comparison against 0 on lorenz).  Each walker
takes its burn-in steps unbinned, then bins every counted step.  Around the
map evaluation a step does only a few whole-array operations: the escape
test, the clip (np.maximum and np.minimum in place, as np.clip), one
comparison per critical location and the binning; the restart gathers run
only on a step with a restart.

A step restarts its walker from the stream's pool of POOL points when it
escapes (NaN, or a value outside [lo - 1e-9, hi + 1e-9], tested before the
clip onto the domain) or lands exactly on a critical location (tested after
the clip).  Within a stream, restarts take consecutive pool entries in
walker order, and a restarted point is not binned in that step.  Escapes and
restarts are counted.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _vec
from .map_model import _IMAGE_TOL

# Orbits per seed stream.  Enough to keep the per-step dispatch overhead off
# small arrays; with more, each walker's burn-in weighs on fewer counted steps.
WALKERS = 512
# Restart points each seed stream draws.
POOL = 1024


def _step_ensemble(m, starts, pools, burn_in, n_counted, hist):
    """Step the walkers starts[s, w] of every stream s in lockstep.

    pools[s] holds stream s's restart points; counted steps are added to the
    integer histogram hist over [m.lo, m.hi].  Returns (escapes, restarts).
    """
    lo, hi = m.lo, m.hi
    width = hi - lo
    n_cells = hist.shape[0]
    crit = m.critical_locations.tolist()
    n_streams, walkers = starts.shape
    stream = np.repeat(np.arange(n_streams), walkers)
    used = np.zeros(n_streams, dtype=np.int64)
    x = starts.ravel()
    escapes = restarts = 0
    for k in range(burn_in + n_counted):
        v = _vec.step_values(m, x)
        escaped = ~((v >= lo - _IMAGE_TOL) & (v <= hi + _IMAGE_TOL))
        # np.clip(v, lo, hi): with the bound first, a tie keeps v's zero sign
        np.maximum(lo, v, out=v)
        np.minimum(hi, v, out=v)
        bad = escaped
        for c in crit:
            bad = bad | (v == c)
        restarted = bad.any()
        if restarted:
            n_escaped = int(escaped.sum())
            escapes += n_escaped
            restarts += int(bad.sum()) - n_escaped
            # rank of each restart among its stream's restarts this step
            s = stream[bad]
            rank = np.arange(s.size) - np.searchsorted(s, s)
            v[bad] = pools[s, (used[s] + rank) % pools.shape[1]]
            used += np.bincount(s, minlength=n_streams)
        x = v
        if k >= burn_in:
            # x >= lo after the clip, so only the top cell needs the bound
            idx = (((x[~bad] if restarted else x) - lo) / width
                   * n_cells).astype(np.int64)
            np.minimum(idx, n_cells - 1, out=idx)
            hist += np.bincount(idx, minlength=n_cells)
    return escapes, restarts


def get_stepper(m):
    """The ensemble stepper for the map m:
    stepper(starts, pools, burn_in, n_counted, hist) -> (escapes, restarts)."""
    return functools.partial(_step_ensemble, m)
