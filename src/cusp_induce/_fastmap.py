"""Lockstep ensemble orbit stepper for long-orbit Birkhoff histograms.

Every seed stream contributes WALKERS orbits (fewer when the counted steps
are fewer), and the orbits of all streams step together through
`_vec.step_values`: positional dispatch, ties to the right-hand branch.
Each walker takes its burn-in steps unbinned, then bins every counted step.

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
    crit = np.array([cp.location for cp in m.critical_points])
    n_streams, walkers = starts.shape
    stream = np.repeat(np.arange(n_streams), walkers)
    used = np.zeros(n_streams, dtype=np.int64)
    x = starts.ravel()
    escapes = restarts = 0
    for k in range(burn_in + n_counted):
        v = _vec.step_values(m, x)
        escaped = ~((v >= lo - 1e-9) & (v <= hi + 1e-9))
        np.clip(v, lo, hi, out=v)
        hit = np.isin(v, crit) & ~escaped
        bad = escaped | hit
        if bad.any():
            escapes += int(escaped.sum())
            restarts += int(hit.sum())
            # rank of each restart among its stream's restarts this step
            s = stream[bad]
            rank = np.arange(s.size) - np.searchsorted(s, s)
            v[bad] = pools[s, (used[s] + rank) % pools.shape[1]]
            used += np.bincount(s, minlength=n_streams)
        x = v
        if k >= burn_in:
            idx = ((x[~bad] - lo) / width * n_cells).astype(np.int64)
            hist += np.bincount(np.clip(idx, 0, n_cells - 1),
                                minlength=n_cells)
    return escapes, restarts


def get_stepper(m):
    """The ensemble stepper for the map m:
    stepper(starts, pools, burn_in, n_counted, hist) -> (escapes, restarts)."""
    return functools.partial(_step_ensemble, m)
