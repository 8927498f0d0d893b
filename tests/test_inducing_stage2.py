"""Stage 2 of build_partition (first-entry classification of the cells).

The batched classifier must reproduce, cell for cell, the per-cell loop it
replaced.  That loop is kept below as the reference: a scalar itinerary per
cell, scalar one-sided endpoint tracks clamped onto each step's branch, a
chain of branch inversions per cell, and a scalar forward walk per
sub-cell.
"""

import ast
import logging
import math
import re

import numpy as np
import pytest

from cusp_induce import _vec
from cusp_induce import distortion as di
from cusp_induce import inducing as ind
from cusp_induce import map_model as mm
from cusp_induce.critical_orbit import orbit_records
from cusp_induce.map_model import evaluate


# ---------------------------------------------------------------------------
# reference: the per-cell loop


def _scalar_itinerary(m, x, steps):
    itin = []
    y = float(x)
    for _ in range(steps):
        itin.append(m.branch_index(y))
        y = evaluate(m, y).value      # raises on an interior boundary
        y = min(max(y, m.lo), m.hi)
    return itin, y


def _scalar_endpoint_track(m, x, approach, itinerary):
    """One-sided jets of one cell end along the itinerary, each step's end
    clamped onto that step's branch: a lower end (approached from the
    right) onto [a, ...), an upper end onto (..., b]."""
    ys = []
    y = float(x)
    s = approach
    for i in itinerary:
        br = m.branches[i]
        y = max(y, br.a) if s > 0 else min(y, br.b)
        jet = m.endpoint_jet(i, y, "+" if s > 0 else "-")
        ys.append(jet)
        y = jet.value
        s *= m.monotone_signs[i]
    return ys


def _invert_branch(m, i, targets):
    """Preimages under branch i: 60 halvings of the whole branch."""
    br = m.branches[i]
    img_lo, img_hi = m.branch_images[i]
    t = np.asarray(targets, dtype=float)
    ok = (t >= img_lo - 1e-12) & (t <= img_hi + 1e-12)
    tt = np.clip(t[ok], img_lo, img_hi)
    lo = np.full(tt.shape, br.a, dtype=float)
    hi = np.full(tt.shape, br.b, dtype=float)
    increasing = m.monotone_signs[i] > 0
    with np.errstate(all="ignore"):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            v = br.values(mid)
            up = (v < tt) if increasing else (v > tt)
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
    out = np.full(t.shape, np.nan)
    out[ok] = 0.5 * (lo + hi)
    return out, ok


def per_cell_stage2(m, cuts, delta, q0, piece_tables):
    """(raw, unresolved) of stage 2, one cell at a time."""
    eps = 1e-14
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    n_cells = mids.size
    entry = np.full(n_cells, -1, dtype=np.int64)
    pos = mids.copy()
    entry[_vec.in_delta(m, pos, delta)] = 0
    for j in range(1, q0):
        live = np.nonzero(entry < 0)[0]
        if live.size == 0:
            break
        stepped = np.clip(_vec.step_values(m, pos[live]), m.lo, m.hi)
        pos[live] = stepped
        hit = _vec.in_delta(m, stepped, delta)
        entry[live[hit]] = j

    raw, unresolved = [], []

    def add_unresolved(a, b, reason):
        if b - a > 0.0:
            unresolved.append((float(a), float(b), reason))

    for k in range(n_cells):
        u, v = float(cuts[k]), float(cuts[k + 1])
        if v - u <= 0.0:
            continue
        l0 = int(entry[k])
        if l0 < 0:
            raw.append((u, v, "free", None, None, None))
            continue
        try:
            itin, y_mid = _scalar_itinerary(m, mids[k], l0)
        except ValueError:
            add_unresolved(u, v, "boundary-unlocated")
            continue
        cp = next((c for c in m.critical_points if c.contains(y_mid, delta)),
                  None)
        if cp is None:
            add_unresolved(u, v, "boundary-unlocated")
            continue
        key = (cp.location, cp.side)
        pieces, gaps = piece_tables[key]
        if l0 == 0:
            j_lo, j_hi = u, v
        else:
            ja = _scalar_endpoint_track(m, u, +1.0, itin)[-1].value
            jb = _scalar_endpoint_track(m, v, -1.0, itin)[-1].value
            j_lo, j_hi = min(ja, jb), max(ja, jb)
        targets = []
        for lo_t, hi_t, _pl in pieces + gaps:
            for t in (lo_t, hi_t):
                if j_lo + eps * max(1.0, abs(j_lo)) < t < \
                        j_hi - eps * max(1.0, abs(j_hi)):
                    targets.append(t)
        targets = sorted(set(targets))
        if targets and l0 > 0:
            xs = np.asarray(targets, dtype=float)
            for i in reversed(itin):
                img_lo, img_hi = m.branch_images[i]
                xs, _ok = _invert_branch(
                    m, i, np.clip(xs, img_lo, img_hi))
            xs = np.clip(np.sort(xs), u, v)
        elif targets:
            xs = np.asarray(targets, dtype=float)
        else:
            xs = np.empty(0)
        sub = np.unique(np.concatenate(([u], xs, [v])))
        table = sorted(
            [(lo_t, hi_t, ("piece", pl)) for lo_t, hi_t, pl in pieces]
            + [(lo_t, hi_t, ("gap", r)) for lo_t, hi_t, r in gaps])
        lows = [t[0] for t in table]
        for su, sv in zip(sub[:-1], sub[1:]):
            if sv - su <= 0.0:
                continue
            ym = 0.5 * (su + sv)
            for i in itin:
                ym = float(m.branches[i].value(ym))
            kk = int(np.searchsorted(lows, ym, side="right")) - 1
            hit_row = None
            for cand in (kk, kk + 1, kk - 1):
                if 0 <= cand < len(table):
                    lo_t, hi_t, payload = table[cand]
                    if lo_t <= ym <= hi_t:
                        hit_row = payload
                        break
            if hit_row is None:
                add_unresolved(su, sv, "boundary-unlocated")
            elif hit_row[0] == "gap":
                add_unresolved(su, sv, hit_row[1])
            else:
                raw.append((float(su), float(sv), "bound", l0,
                            int(hit_row[1]), key))
    return raw, unresolved


# ---------------------------------------------------------------------------
# helpers


def piece_tables(m, delta, p_max=60, resolution=1e-10):
    records = orbit_records(m, p_max + 1)
    return {(cp.location, cp.side): ind._binding_piece_table(
        m, cp, delta, records, p_max, resolution)
        for cp in m.critical_points}


def assert_same_stage2(batched, reference):
    raw, unresolved = batched[:2]
    ref_raw, ref_unresolved = reference

    def start(row):
        return row[0]

    assert sorted(raw, key=start) == sorted(ref_raw, key=start)
    assert sorted(unresolved) == sorted(ref_unresolved)


@pytest.fixture(params=["cheb", "lorenz", "lorenz_a18_s05"])
def partition_case(request):
    if request.param == "lorenz_a18_s05":
        m = mm.lorenz_map(1.8, 0.5, 0.1)
        return m, 0.1, 10, ind.build_partition(m, delta=0.1, q0=10)
    m = request.getfixturevalue(request.param)
    delta, q0 = request.getfixturevalue(request.param + "_scales")
    return m, delta, q0, request.getfixturevalue(request.param + "_partition")


# ---------------------------------------------------------------------------
# tests


def test_batched_stage2_matches_the_per_cell_reference(partition_case,
                                                       monkeypatch):
    m, delta, q0, part = partition_case
    batched = ind._classify_cells
    seen = []

    def reference(m, cuts, delta, q0, tables):
        ref = per_cell_stage2(m, cuts, delta, q0, tables)
        seen.append((batched(m, cuts, delta, q0, tables), ref))
        return ref + (seen[-1][0][2],)

    monkeypatch.setattr(ind, "_classify_cells", reference)
    ref_part = ind.build_partition(m, delta=delta, q0=q0)
    (got, ref), = seen
    assert_same_stage2(got, ref)
    assert part.to_dict() == ref_part.to_dict()
    assert part.unresolved == ref_part.unresolved


def test_a_midpoint_orbit_landing_on_a_boundary_is_unlocated():
    # No partition cell has such a midpoint (the cuts include every
    # preimage of the boundary), so hand-made cuts reach this path.
    m = mm.lorenz_map(1.8, 0.5, 0.1)
    x = 0.30864197530864196           # 1.8 * x^0.5 - 1 is exactly 0.0
    assert m.branches[1].value(x) == 0.0
    assert m.branches[1].values(np.array([x]))[0] == 0.0
    h = 2.0 ** -30
    grid = np.linspace(-1.0, 1.0, 129)
    assert not np.any(np.abs(grid - x) <= h)
    cuts = np.union1d(grid, [x - h, x + h])
    tables = piece_tables(m, 0.1)
    got = ind._classify_cells(m, cuts, 0.1, 10, tables)
    assert got[2]["boundary_landed"] == 1
    assert (x - h, x + h, "boundary-unlocated") in got[1]
    assert_same_stage2(got, per_cell_stage2(m, cuts, 0.1, 10, tables))


def _positional_itinerary(m, x, steps):
    out = []
    for _ in range(steps):
        out.append(m.branch_index(x))
        x = m.branches[out[-1]].value(x)
    return out


def test_sub_cells_follow_their_cells_midpoint_itinerary():
    # Coarse cuts leave preimages of 0 inside cells, so some sub-cell
    # midpoints sit across a boundary from their cell's midpoint orbit.
    # They still follow the cell's itinerary, not positional dispatch.
    m = mm.lorenz_map(1.9, 0.4, 0.1)
    cuts = np.linspace(-1.0, 1.0, 9)
    tables = piece_tables(m, 0.1)
    got = ind._classify_cells(m, cuts, 0.1, 13, tables)
    ref = per_cell_stage2(m, cuts, 0.1, 13, tables)
    assert_same_stage2(got, ref)
    crossing = []
    for a, b, kind, l0, _p0, _key in ref[0]:
        if kind == "bound":
            k = int(np.searchsorted(cuts, a, side="right")) - 1
            cell_mid = 0.5 * (cuts[k] + cuts[k + 1])
            if _positional_itinerary(m, 0.5 * (a + b), l0) != \
                    _positional_itinerary(m, cell_mid, l0):
                crossing.append((a, b))
    assert crossing


def test_cell_ends_where_the_expression_is_undefined_take_one_sided_limits():
    # abs(x + 1)/(x + 1) is 1 inside the branch and 0/0 at its left end, so
    # the array value there is NaN while the one-sided limit exists.
    cfg = mm.family_config("lorenz", {"a": 1.8, "s": 0.5}, delta=0.1)
    cfg["branches"][0]["expr"] = "(1 - a*abs(x)^s)*abs(x + 1)/(x + 1)"
    m = mm.build_map(cfg)
    with np.errstate(invalid="ignore"):
        assert np.isnan(m.branches[0].values(np.array([-1.0]))[0])
    assert m.endpoint_jet(0, -1.0, "+").value == pytest.approx(-0.8)
    cuts = ind._free_breakpoints(m, 0.1, 10)
    tables = piece_tables(m, 0.1)
    got = ind._classify_cells(m, cuts, 0.1, 10, tables)
    assert got[2]["endpoint_fallbacks"] >= 1
    assert_same_stage2(got, per_cell_stage2(m, cuts, 0.1, 10, tables))


def test_build_partition_logs_its_stage_counts(singular, caplog):
    with caplog.at_level(logging.INFO, logger="cusp_induce.inducing"):
        part = ind.build_partition(singular, delta=0.02, q0=8)
    msgs = [r.getMessage() for r in caplog.records
            if r.name == "cusp_induce.inducing"]
    assert len(msgs) == 1
    msg = msgs[0]
    assert "boundary-landed" in msg and "scalar endpoint fallbacks" in msg
    unbounded = sum(br.sup_df == math.inf for br in part.branches)
    assert (f"-> {len(part.branches)} branches ({unbounded} with unbounded "
            "sup |Df-hat|)") in msg
    for reason in part.summary()["unresolved_reasons"]:
        assert repr(reason) in msg
    assert part.unresolved_measure > 0.0
    # stage 4: the end steps that took the scalar one-sided jets (at least
    # those of the first pass over all branches), and the branches finishing
    # at each k; a branch whose infimum bound stays below 4 runs to k = 512
    found = re.search(r"stage 4: (\d+) scalar end jets, branches finishing "
                      r"per refinement k (\{[^}]*\})", msg)
    levels = ast.literal_eval(found[2])
    assert sorted(levels) == [1, 8, 64, 512]
    assert sum(levels.values()) == len(part.branches)
    assert levels[512] >= sum(br.inf_df < 4.0 for br in part.branches) > 0
    first_pass = di.array_end_orbits(
        singular, _vec.itinerary_matrix([br.itinerary for br in part.branches]),
        np.array([br.a for br in part.branches]),
        np.array([br.b for br in part.branches]), lambda *step: None)[2]
    assert int(found[1]) >= first_pass > 0
