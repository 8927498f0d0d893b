"""Lockstep ensemble orbit stepper for long-orbit Birkhoff histograms.

Every seed stream contributes WALKERS orbits (fewer when the counted steps
are fewer).  The streams are dealt whole, as a stream's restarts take its
pool in walker order: stream s to share s mod w of w processes, this one
and children of os.fork (_vec._fork_join), with w from
_vec._worker_count at one process per SHARE_POINTS walkers and at most one
per stream.  Each share writes its integer histogram and counts into its
own row of one shared buffer, and this process sums the rows, so the
result is the same bits for every w.

Within a share, the orbits of its streams step together: positional
dispatch (ties to the right-hand branch) and one evaluation of the map's
formulas over the whole array, with a select of each walker's formula
(_vec._apply; one comparison against 0 on lorenz).  Each walker takes its
burn-in steps unbinned, then bins every counted step.  Around the map
evaluation a step takes the minimum and maximum of the values, one
comparison per critical location and the binning; the escape mask, the
clip and the restart gathers run only on a step that needs them.

A step restarts its walker from the stream's pool of POOL points when it
escapes (NaN, or a value outside [lo - 1e-9, hi + 1e-9], tested before the
clip onto the domain) or lands exactly on a critical location (tested after
the clip).  Within a stream, restarts take consecutive pool entries in
walker order, and a restarted point is not binned in that step.  Escapes and
restarts are counted.
"""

from __future__ import annotations

import functools
import logging
import mmap

import numpy as np

from . import _vec
from .map_model import _IMAGE_TOL

_LOG = logging.getLogger(__name__)

# Orbits per seed stream.  Enough to keep the per-step dispatch overhead off
# small arrays; with more, each walker's burn-in weighs on fewer counted steps.
WALKERS = 512
# Restart points each seed stream draws.
POOL = 1024
# Fewest walkers per process (_vec._worker_count has the measurements).
SHARE_POINTS = 1280


def _walk(m, starts, pools, burn_in, n_counted, hist):
    """Step the walkers starts[s, j] of every stream s in lockstep in this
    process.

    pools[s] holds stream s's restart points; counted steps are added to the
    integer histogram hist over [m.lo, m.hi].  Returns (escapes, restarts).
    """
    lo, hi = m.lo, m.hi
    low, high = lo - _IMAGE_TOL, hi + _IMAGE_TOL
    width = hi - lo
    n_cells = hist.shape[0]
    crit = m.critical_locations.tolist()
    one = len(m.formula_groups[1]) == 1
    n_streams, walkers = starts.shape
    stream = np.repeat(np.arange(n_streams), walkers)
    used = np.zeros(n_streams, dtype=np.int64)
    # a copy: a formula's value may be its argument, which the clip changes
    x = np.array(starts, dtype=float).ravel()
    escapes = restarts = 0
    with np.errstate(all="ignore"):
        for k in range(burn_in + n_counted):
            v = _vec._apply(m, None if one else _vec.group_indices(m, x), x)
            # min and max are NaN where any value is
            v_lo, v_hi = v.min(), v.max()
            escaped = False     # a mask only on a step that needs one
            if not (lo <= v_lo and v_hi <= hi):
                if not (low <= v_lo and v_hi <= high):
                    escaped = ~((v >= low) & (v <= high))
                # np.clip(v, lo, hi): with the bound first, a tie keeps v's
                # zero sign
                np.maximum(lo, v, out=v)
                np.minimum(hi, v, out=v)
            bad = escaped
            for c in crit:
                bad = v == c if bad is False else bad | (v == c)
            restarted = bad is not False and bad.any()
            if restarted:
                n_escaped = np.count_nonzero(escaped)
                escapes += n_escaped
                restarts += np.count_nonzero(bad) - n_escaped
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


def _step_ensemble(m, starts, pools, burn_in, n_counted, hist):
    """_walk split into shares of whole streams, share i streams i::w.
    Share i overwrites row i of one anonymous shared mmap, so a share run
    again here gives the same bits."""
    if not starts.size:
        return 0, 0
    n_streams, n_cells = starts.shape[0], hist.shape[0]
    w = min(_vec._worker_count(starts.size, SHARE_POINTS), n_streams)
    m.group_values      # compiled here, once for every share
    rows = np.frombuffer(mmap.mmap(-1, 8 * w * (n_cells + 2)),
                         dtype=np.int64).reshape(w, n_cells + 2)

    def run(i):
        rows[i] = 0
        rows[i, n_cells:] = _walk(m, starts[i::w], pools[i::w], burn_in,
                                  n_counted, rows[i, :n_cells])

    done = _vec._fork_join(run, w)
    _LOG.info("ensemble: %d seed streams in %d shares, %d of them finished"
              " by children", n_streams, w, len(done))
    hist += rows[:, :n_cells].sum(0)
    return tuple(rows[:, n_cells:].sum(0).tolist())


def get_stepper(m):
    """The ensemble stepper for the map m:
    stepper(starts, pools, burn_in, n_counted, hist) -> (escapes, restarts)."""
    return functools.partial(_step_ensemble, m)
