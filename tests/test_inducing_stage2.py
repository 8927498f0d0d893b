"""Stages 1 and 2 of build_partition (the cuts, and the first-entry
classification of the cells between them).

The partition must match the design these two stages replaced, kept below
as the reference.  Its stage 1 seeds only the branch and neighborhood ends
and drops cuts within 1e-12 of a smaller one (reference_stage1).  Its stage
2 is a per-cell loop (per_cell_stage2): a scalar itinerary per cell, scalar
one-sided endpoint tracks clamped onto each step's branch, the piece edges
inside each cell's image pulled back by a chain of one-step inversions
(_vec.branch_inverse, which tests/test_vec.py checks on its own), and a
scalar forward walk per sub-cell.
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
# reference: stage 1 without the piece edges, and the per-cell loop


def reference_stage1(m, delta, q0):
    """Branch and neighborhood ends with their pullbacks through fewer than
    q0 steps, none strictly inside a neighborhood, sorted, a cut within
    1e-12 of a smaller one dropped."""
    seeds = {m.lo, m.hi}
    seeds.update(float(t) for t in m.interior_boundaries)
    for cp in m.critical_points:
        seeds.add(cp.location + (delta if cp.side == "+" else -delta))
    level = np.array(sorted(seeds))
    collected = [level]
    for _ in range(1, q0):
        level = _vec.preimages(m, level)[1]
        level = level[~_vec.in_delta(m, level, delta)]
        collected.append(level)
    cuts = np.concatenate(collected)
    cuts = cuts[(cuts >= m.lo) & (cuts <= m.hi)]
    cuts.sort()
    keep = np.concatenate(([True], np.diff(cuts) > 1e-12))
    cuts = cuts[keep]
    cuts[0] = m.lo
    cuts[-1] = m.hi
    return cuts


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
                xs = _vec.branch_inverse(m, np.full(xs.size, i), xs)
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
    return ind._side_tables(m, delta, orbit_records(m, p_max + 1), p_max,
                            resolution)


def untagged(m, tables):
    """The (pieces, gaps) per side that per_cell_stage2 takes."""
    return {(cp.location, cp.side): tuple(
        [(lo, hi, payload) for lo, hi, (kind, payload) in table
         if kind == want] for want in ("piece", "gap"))
        for cp, table in zip(m.critical_points, tables)}


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
        ref = per_cell_stage2(m, cuts, delta, q0, untagged(m, tables))
        seen.append((batched(m, cuts, delta, q0, tables), ref))
        return ref + (seen[-1][0][2],)

    monkeypatch.setattr(ind, "_classify_cells", reference)
    ref_part = ind.build_partition(m, delta=delta, q0=q0)
    (got, ref), = seen
    assert_same_stage2(got, ref)
    assert part.to_dict() == ref_part.to_dict()
    assert part.unresolved == ref_part.unresolved


REFERENCE_CONFIGS = {
    "cheb(0.01, 7)": (mm.chebyshev_map, 0.01, 7),
    "cheb(0.02, 7)": (mm.chebyshev_map, 0.02, 7),
    "cheb(0.05, 5)": (mm.chebyshev_map, 0.05, 5),
    "cheb(0.01, 9)": (mm.chebyshev_map, 0.01, 9),
    "lorenz(1.9, 0.4)": (lambda: mm.lorenz_map(1.9, 0.4, 0.1), 0.1, 13),
    "unimodal(2, 2.3)": (lambda: mm.unimodal_map(2.0, 2.3), 0.02, 8),
    "unimodal(2, 1.5)": (lambda: mm.unimodal_map(2.0, 1.5), 0.005, 5),
    "singular_unimodal": (mm.singular_unimodal_map, 0.005, 14),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
def test_partition_matches_the_two_stage_reference(name, monkeypatch):
    # Stage 1 cuts at the piece edges' pullbacks that the reference's stage
    # 2 found one cell at a time; its dedup must be exact, as a 1e-12 one
    # moves branch ends.
    family, delta, q0 = REFERENCE_CONFIGS[name]
    m = family()
    part = ind.build_partition(m, delta=delta, q0=q0)
    monkeypatch.setattr(ind, "_free_breakpoints",
                        lambda m, delta, q0, tables: reference_stage1(
                            m, delta, q0))
    monkeypatch.setattr(ind, "_classify_cells",
                        lambda m, cuts, delta, q0, tables: per_cell_stage2(
                            m, cuts, delta, q0, untagged(m, tables))
                        + ({"free": 0, "bound": 0, "boundary_landed": 0},))
    assert part.to_dict() == ind.build_partition(m, delta=delta,
                                                 q0=q0).to_dict()


def test_a_midpoint_orbit_landing_on_a_boundary_is_unlocated():
    # No partition cell has such a midpoint (the cuts include every
    # preimage of the boundary), so the cut at x (an ulp off, here) gives
    # way to x - h and x + h: every other cell lies inside a stage-1 cell,
    # as stage 2 requires.
    m = mm.lorenz_map(1.8, 0.5, 0.1)
    x = 0.30864197530864196           # 1.8 * x^0.5 - 1 is exactly 0.0
    assert m.branches[1].value(x) == 0.0
    assert m.branches[1].values(np.array([x]))[0] == 0.0
    h = 2.0 ** -30
    tables = piece_tables(m, 0.1)
    cuts = ind._free_breakpoints(m, 0.1, 10, tables)
    near = np.abs(cuts - x) <= h
    assert near.sum() == 1
    cuts = np.union1d(cuts[~near], [x - h, x + h])
    got = ind._classify_cells(m, cuts, 0.1, 10, tables)
    assert got[2]["boundary_landed"] == 1
    assert (x - h, x + h, "boundary-unlocated") in got[1]
    assert_same_stage2(got, per_cell_stage2(m, cuts, 0.1, 10,
                                            untagged(m, tables)))


def test_cell_ends_where_the_expression_is_undefined_take_one_sided_limits():
    # abs(x + 1)/(x + 1) is 1 inside the branch and 0/0 at its left end, so
    # the array value there is NaN while the one-sided limit exists.
    cfg = mm.family_config("lorenz", {"a": 1.8, "s": 0.5}, delta=0.1)
    cfg["branches"][0]["expr"] = "(1 - a*abs(x)^s)*abs(x + 1)/(x + 1)"
    m = mm.build_map(cfg)
    with np.errstate(invalid="ignore"):
        assert np.isnan(m.branches[0].values(np.array([-1.0]))[0])
    assert m.endpoint_jet(0, -1.0, "+").value == pytest.approx(-0.8)
    tables = piece_tables(m, 0.1)
    cuts = ind._free_breakpoints(m, 0.1, 10, tables)
    assert_same_stage2(ind._classify_cells(m, cuts, 0.1, 10, tables),
                       per_cell_stage2(m, cuts, 0.1, 10, untagged(m, tables)))
    # stage 4 takes the scalar one-sided jet at -1, and every image is finite
    part = ind.build_partition(m, delta=0.1, q0=10)
    assert part.branches[0].a == -1.0
    image, _orient, _inf, _sup, stats = ind._branch_bounds(
        m, np.array([br.a for br in part.branches]),
        np.array([br.b for br in part.branches]),
        _vec.itinerary_matrix([br.itinerary for br in part.branches]))
    assert stats["scalar"] >= 1
    assert np.isfinite(image).all()
    assert image.tolist() == [list(br.image) for br in part.branches]


def test_build_partition_logs_its_stage_counts(singular, caplog):
    with caplog.at_level(logging.INFO, logger="cusp_induce.inducing"):
        part = ind.build_partition(singular, delta=0.02, q0=8)
    msgs = [r.getMessage() for r in caplog.records
            if r.name == "cusp_induce.inducing"]
    assert len(msgs) == 1
    msg = msgs[0]
    # stages 1 and 2: the cuts and the piece-table edges among them, the
    # cells between the cuts by class
    tables = piece_tables(singular, 0.02)
    cuts = ind._free_breakpoints(singular, 0.02, 8, tables)
    counts = re.match(r"build_partition: (\d+) stage-1 cuts \((\d+) "
                      r"piece-table edges\), (\d+) cells \((\d+) free, "
                      r"(\d+) bound, (\d+) boundary-landed\), (\d+) "
                      r"branches \((\d+) with unbounded sup \|Df-hat\|\)",
                      msg)
    cells, free, bound = map(int, counts.group(3, 4, 5))
    assert int(counts[1]) == cuts.size == cells + 1 == free + bound + 1
    assert int(counts[2]) == ind._table_edges(tables).size > 0
    assert free > 0 and bound > 0 and counts[6] == "0"
    assert int(counts[7]) == len(part.branches)
    assert int(counts[8]) == sum(br.sup_df == math.inf
                                 for br in part.branches)
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
