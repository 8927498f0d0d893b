"""The partition as a list of InducedBranch records, the design the column
partition replaced.

reference_branches is build_partition's record path as it stood: stage 2
hands back one raw row (a, b, kind, l0, p0, key) per cell, the rows are
sorted by a, and each becomes a frozen InducedBranch with its Python
fields (float ends, int or None l0 and p0, the entered (location, side)
key, the itinerary as a tuple of tau branch ids).  reference_dict is the
to_dict() of that design.  partition_of builds a column partition from a
record list, and variation_of runs _batched_variation over one, for tests
that drop or pick branches.
"""

import math

import numpy as np

from cusp_induce import _vec
from cusp_induce import distortion as di
from cusp_induce import inducing as ind
from cusp_induce.critical_orbit import orbit_records


def raw_rows(m, cells):
    """_classify_cells' columns as raw rows (a, b, kind, l0, p0, key)."""
    keys = [(cp.location, cp.side) for cp in m.critical_points]
    return [(u, v, "free", None, None, None) if s < 0
            else (u, v, "bound", l0, p0, keys[s])
            for u, v, s, l0, p0 in zip(*(c.tolist() for c in cells))]


def cell_columns(m, raw):
    """Raw rows, in any order, as _classify_cells' columns."""
    keys = [(cp.location, cp.side) for cp in m.critical_points]
    raw = sorted(raw, key=lambda r: r[0])
    return (np.array([r[0] for r in raw], dtype=float),
            np.array([r[1] for r in raw], dtype=float),
            np.array([-1 if r[5] is None else keys.index(r[5]) for r in raw],
                     dtype=np.int64),
            np.array([-1 if r[3] is None else r[3] for r in raw],
                     dtype=np.int64),
            np.array([-1 if r[4] is None else r[4] for r in raw],
                     dtype=np.int64))


def reference_classify(m, cuts, delta, q0, tables):
    """Stage 2 as raw rows, one per cell in no particular order: (raw,
    unresolved, counts)."""
    pos, _itin, entry, landed = ind._positional_walk(
        m, 0.5 * (cuts[:-1] + cuts[1:]), q0 - 1, delta)
    free = np.flatnonzero(entry < 0)
    raw = [(a, b, "free", None, None, None)
           for a, b in zip(cuts[free].tolist(), cuts[free + 1].tolist())]
    bound = np.flatnonzero(entry >= 0)
    lost = bound[landed[bound]]
    unresolved = [(a, b, "boundary-unlocated") for a, b in zip(
        cuts[lost].tolist(), cuts[lost + 1].tolist())]
    cells = bound[~landed[bound]]
    y = pos[cells]
    u, v = cuts[cells].tolist(), cuts[cells + 1].tolist()
    l0 = entry[cells].tolist()
    for cp, (R, reason) in zip(m.critical_points, tables):
        key = (cp.location, cp.side)
        sel = np.flatnonzero(_vec.in_side(y, cp.location, cp.side, delta))
        edges = ind._side_edges(cp, R)
        within = (y[sel, None] <= edges) if cp.side == "+" else (
            y[sel, None] >= edges)
        for k, p in zip(sel.tolist(), within.sum(axis=1).tolist()):
            if p < R.size:
                raw.append((u[k], v[k], "bound", l0[k], p, key))
            else:
                unresolved.append((u[k], v[k], reason))
    counts = {"free": free.size, "bound": bound.size,
              "boundary_landed": lost.size}
    return raw, unresolved, counts


def reference_branches(m, delta, q0, p_max=60, resolution=1e-10):
    """The partition's InducedBranch records, from lo to hi, as the record
    design built them."""
    records = orbit_records(m, p_max + 1)
    tables = [ind._binding_piece_table(m, cp, delta, records, p_max,
                                       resolution)
              for cp in m.critical_points]
    cuts = ind._free_breakpoints(m, delta, q0, tables)
    raw = reference_classify(m, cuts, delta, q0, tables)[0]
    raw.sort(key=lambda r: r[0])
    r_tau = np.array([q0 if r[2] == "free" else r[3] + r[4] for r in raw],
                     dtype=np.int64)
    it_mat = ind._positional_walk(m, [0.5 * (r[0] + r[1]) for r in raw],
                                  r_tau)[1]
    image, orient, inf_df, sup_df, _geo = ind._branch_bounds(
        m, np.array([r[0] for r in raw]), np.array([r[1] for r in raw]),
        it_mat)
    return [ind.InducedBranch(
        a=a, b=b, kind=kind, l0=l0, p0=p0, tau=tau, critical_point=key,
        itinerary=tuple(itin[:tau].tolist()), image=tuple(img), inf_df=lo,
        sup_df=hi, orientation=o)
        for (a, b, kind, l0, p0, key), tau, itin, img, o, lo, hi in zip(
            raw, r_tau.tolist(), it_mat, image.tolist(),
            orient.tolist(), inf_df.tolist(), sup_df.tolist())]


def reference_dict(part, branches) -> dict:
    """to_dict() of the record design: part's settings and unresolved set
    with the record list branches."""
    taus = {}
    for br in branches:
        taus[br.tau] = taus.get(br.tau, 0) + 1
    return {
        "delta": part.delta, "q0": part.q0, "p_max": part.p_max,
        "resolution": part.resolution,
        "n_branches": len(branches),
        "n_free": len([br for br in branches if br.kind == "free"]),
        "n_bound": len([br for br in branches if br.kind == "bound"]),
        "n_unresolved": len(part.unresolved),
        "unresolved_measure": part.unresolved_measure,
        "unresolved_reasons": sorted({r for _, _, r in part.unresolved}),
        "tau_histogram": {str(t): taus[t] for t in sorted(taus)},
        "min_inf_df": (min(br.inf_df for br in branches)
                       if branches else math.nan),
        "branches": [br.to_dict() for br in branches],
        "unresolved": [[a, b, r] for a, b, r in part.unresolved],
    }


def partition_of(branches, like):
    """A column partition of the records branches, with like's critical
    sides, unresolved set and settings."""
    keys = list(like.sides)
    columns = {
        "a": np.array([br.a for br in branches], dtype=float),
        "b": np.array([br.b for br in branches], dtype=float),
        "tau": np.array([br.tau for br in branches], dtype=np.int64),
        "side": np.array([-1 if br.critical_point is None
                          else keys.index(br.critical_point)
                          for br in branches], dtype=np.int64),
        "l0": np.array([-1 if br.l0 is None else br.l0 for br in branches],
                       dtype=np.int64),
        "p0": np.array([-1 if br.p0 is None else br.p0 for br in branches],
                       dtype=np.int64),
        "itin": _vec.itinerary_matrix([br.itinerary for br in branches]),
        "image": np.array([br.image for br in branches],
                          dtype=float).reshape(-1, 2),
        "orientation": np.array([br.orientation for br in branches],
                                dtype=np.int64),
        "inf_df": np.array([br.inf_df for br in branches], dtype=float),
        "sup_df": np.array([br.sup_df for br in branches], dtype=float),
    }
    return ind.InducedPartition(
        **columns, sides=like.sides, unresolved=like.unresolved,
        unresolved_measure=like.unresolved_measure, delta=like.delta,
        q0=like.q0, p_max=like.p_max, resolution=like.resolution,
        lo=like.lo, hi=like.hi)


def variation_of(m, branches, stats=None):
    """_batched_variation over the records branches (anything with a, b and
    an itinerary)."""
    return di._batched_variation(
        m, np.array([br.a for br in branches], dtype=float),
        np.array([br.b for br in branches], dtype=float),
        _vec.itinerary_matrix([br.itinerary for br in branches]), stats)
