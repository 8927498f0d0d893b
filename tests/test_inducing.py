"""Binding periods, first-entry times, and the induced partition.

binding_period is the one-point case of the batched binding_periods.  A
scalar loop, one jet per step, is kept below as the reference, with the
forward scan and recursive jump bisection that the piece tables' backward
pull replaced, and a per-sample lemma replay on the scalar end_orbits
(reference_end_orbits).  The piece tables are also rated against the
binding rule in long double (reference_binding).  The scalar first-entry
walk and induced-map loop are the reference of the positional walk and of
eval_induced (reference_orbit_walks).
"""

import dataclasses
import logging
import math
import re

import numpy as np
import pytest

from cusp_induce import _vec
from cusp_induce import inducing as ind
from cusp_induce import map_model as mm
from cusp_induce.critical_orbit import compute_orbit, orbit_records
from cusp_induce.expr import EvalDomainError
from cusp_induce.map_model import critical_distance, evaluate
from reference_binding import long_double_edges, long_double_periods
from reference_end_orbits import generalized_distortion
import reference_orbit_walks as ref_walks


# ---------------------------------------------------------------------------
# reference: the scalar binding loop, and the forward piece-table scan with
# a recursive refine of each jump that the backward pull replaced


def scalar_binding_period(m, x, delta, records, p_max=60):
    """(p, truncated, rows, df_p) of x, one scalar jet per step; raises
    ValueError or RuntimeError where the loop met a failure."""
    x = float(x)
    cp = next((c for c in m.critical_points if c.contains(x, delta)), None)
    if cp is None:
        raise ValueError(f"x={x!r} is not inside any critical neighborhood")
    rec = records.get((cp.location, cp.side))
    if rec is None or rec.N < p_max:
        rec = compute_orbit(m, cp, p_max + 1)
    y = x
    log_p = 0.0
    rows = []
    p = p_max
    truncated = True
    for j in range(1, p_max + 1):
        jet = evaluate(m, y)          # raises on an interior boundary
        log_p += math.log(abs(jet.d1))
        y = jet.value
        if y < m.lo - 1e-9 or y > m.hi + 1e-9:
            raise ValueError(f"binding orbit of {x!r} left the domain")
        y = min(max(y, m.lo), m.hi)
        if j - 1 >= rec.n_filled:
            raise RuntimeError("critical orbit reaches the critical set")
        c_j, d_j, g_j = rec.c[j - 1], rec.d[j - 1], rec.gamma[j - 1]
        sep = abs(y - c_j)
        seg_d = min(float(critical_distance(m, y)), d_j)
        rows.append((j, sep, g_j * d_j, seg_d))
        if sep > g_j * d_j:
            p = j
            truncated = False
            break
    return p, truncated, rows, math.exp(log_p)


def recursive_piece_table(m, cp, delta, records, p_max=60, resolution=1e-10):
    """The forward piece table: a scan of 4,095 points and dyadic steps down
    to max(resolution, 1e-13), stopping at a failure or at p_max, with a
    recursive bisection of each jump of p, whose probes take the scalar
    reference.  Its inner gap reads p_max-exceeded, or boundary-unlocated
    where the scan stopped for another reason."""
    c = cp.location
    sgn = 1.0 if cp.side == "+" else -1.0
    if cp.order <= 1.0:
        lo, hi = (c, c + delta) if sgn > 0 else (c - delta, c)
        return [(lo, hi, 1)], []

    def pb(d):
        try:
            return scalar_binding_period(m, c + sgn * d, delta, records,
                                         p_max)[0]
        except (ValueError, RuntimeError):
            return None

    floor = max(resolution, 1e-13)
    samples = [delta * (1.0 - 1e-9)]
    samples.extend(float(d) for d in delta * np.arange(4095, 0, -1) / 4096.0)
    d = delta / 8192.0
    while d > floor:
        samples.append(d)
        d *= 0.5
    ps = ind.binding_periods(m, cp, c + sgn * np.asarray(samples), delta,
                             records, p_max).p
    svals, stop_reason = [], "boundary-unlocated"
    for dcur, p in zip(samples, ps.tolist()):
        if p < 0:
            break
        svals.append((dcur, p))
        if p >= p_max:
            stop_reason = "p_max-exceeded"
            break
    inner_d = svals[-1][0] if svals else delta
    cuts = []

    def refine(d_in, p_in, d_out, p_out):
        if p_in == p_out:
            return
        if p_in is None or p_out is None or d_out - d_in <= 1e-12:
            cuts.append(0.5 * (d_in + d_out))
            return
        dm = 0.5 * (d_in + d_out)
        pm = pb(dm)
        refine(dm, pm, d_out, p_out)
        refine(d_in, p_in, dm, pm)

    for (d_out, p_out), (d_in, p_in) in zip(svals[:-1], svals[1:]):
        refine(d_in, p_in, d_out, p_out)
    cuts.sort()
    pieces, gaps = [], []
    bounds = [inner_d] + cuts + [delta]
    for d_lo, d_hi in zip(bounds[:-1], bounds[1:]):
        if d_hi - d_lo <= 0.0:
            continue
        p = pb(0.5 * (d_lo + d_hi))
        if p is None:
            gaps.append((d_lo, d_hi, "boundary-unlocated"))
        elif p >= p_max:
            gaps.append((d_lo, d_hi, "p_max-exceeded"))
        else:
            pieces.append((d_lo, d_hi, p))
    if inner_d > 0.0:
        gaps.append((0.0, inner_d, stop_reason))

    def oriented(items):
        return sorted(tuple(sorted((c + sgn * lo_d, c + sgn * hi_d)))
                      + (payload,) for lo_d, hi_d, payload in items)

    return oriented(pieces), oriented(gaps)


def _steps_agree(m, x, p):
    """Whether the array step equals the scalar jet (value and Df) at each
    of the first p points of the scalar orbit of x."""
    y = float(x)
    for _ in range(p):
        jet = evaluate(m, y)
        v, d1 = _vec.step_values(m, np.array([y]), 1)
        if v[0] != jet.value or d1[0] != jet.d1:
            return False
        y = min(max(jet.value, m.lo), m.hi)
    return True


def assert_matches_scalar_reference(m, cp, xs, delta, records):
    """binding_periods over xs, and binding_period at every 16th point,
    against the scalar reference.  p, the truncation flag and the exception
    type must agree everywhere; the rows and df_p bit for bit, except on
    orbits where the array step and the scalar jet round differently
    (the power of numpy's ufunc and of libm's pow)."""
    b = ind.binding_periods(m, cp, xs, delta, records)
    for k, x in enumerate(xs.tolist()):
        code = int(b.p[k])
        try:
            p, truncated, rows, df_p = scalar_binding_period(m, x, delta,
                                                             records)
        except RuntimeError:
            assert code == ind.RECORD_SHORT
            continue
        except ValueError:
            assert code < 0 and code != ind.RECORD_SHORT
            continue
        assert (code, bool(b.truncated[k])) == (p, truncated), x
        got = list(zip(range(1, p + 1), b.sep[k, :p].tolist(),
                       b.tube[:p].tolist(), b.seg_d[k, :p].tolist()))
        if got != rows or b.df_p[k] != df_p:
            assert not _steps_agree(m, x, p), x
        if k % 16 == 0:
            res = ind.binding_period(m, x, delta, records)
            assert (res.p, res.truncated, res.trajectory) == (
                code, bool(b.truncated[k]), got)
            assert res.df_p == b.df_p[k] and res.critical_point is cp


REFERENCE_MAPS = {
    "chebyshev": lambda: (mm.chebyshev_map(0.01), 0.01),
    "unimodal(1.9, 2)": lambda: (mm.unimodal_map(1.9, 2.0, 0.05), 0.05),
    "unimodal(2, 3)": lambda: (mm.unimodal_map(2.0, 3.0, 0.05), 0.05),
    "singular_unimodal": lambda: (mm.singular_unimodal_map(delta=0.02), 0.02),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
def test_binding_periods_match_the_scalar_reference(name):
    m, delta = REFERENCE_MAPS[name]()
    records = orbit_records(m, 61)
    rng = np.random.default_rng(11)
    sides = 0
    for cp in m.critical_points:
        if cp.order <= 1.0:
            continue
        # next to the jumps of p: every piece and gap edge of the side's
        # table and the points 1 to 8 ulps to each side of it, those inside
        # the neighborhood
        pieces, gaps = ind._binding_piece_table(m, cp, delta, records, 60,
                                                1e-10)
        edges = np.unique([t for row in pieces + gaps for t in row[:2]])
        ulps = np.arange(-8, 9)
        near = (edges[:, None] + ulps * np.spacing(edges)[:, None]).ravel()
        near = near[_vec.in_side(near, cp.location, cp.side, delta)]
        sgn = 1.0 if cp.side == "+" else -1.0
        grid = cp.location + sgn * np.concatenate(
            [delta * np.arange(1, 32) / 32.0, rng.uniform(0.0, delta, 16),
             delta * 2.0 ** -rng.uniform(0.0, 40.0, 16)])
        assert_matches_scalar_reference(m, cp, np.concatenate([grid, near]),
                                        delta, records)
        sides += 1
    assert sides >= 2


def test_binding_periods_return_the_failure_codes_where_binding_period_raises(
        cheb, cheb_records):
    key = (0.0, "+")
    cp = cheb.declared(*key)
    # a point outside every neighborhood
    with pytest.raises(ValueError, match="not inside"):
        ind.binding_period(cheb, 0.5, delta=0.2, records=cheb_records)
    assert ind.binding_periods(cheb, cp, [0.5, -0.1], 0.2,
                               cheb_records).p.tolist() == [ind.OUTSIDE] * 2
    # an orbit that leaves the domain: here the domain stops short of the
    # critical value 1, which f(1e-3) = 0.999998 passes
    cut = dataclasses.replace(cheb, hi=0.9999)
    with pytest.raises(ValueError, match="escaped"):
        ind.binding_period(cut, 1e-3, delta=0.2, records=cheb_records)
    b = ind.binding_periods(cut, cp, [1e-3], 0.2, cheb_records)
    assert b.p.tolist() == [ind.ESCAPED] and math.isnan(b.df_p[0])
    # a critical record that ends before the binding resolves
    rec = cheb_records[key]
    short = {key: dataclasses.replace(rec, c=rec.c[:3], d=rec.d[:3],
                                      gamma=rec.gamma[:3])}
    assert short[key].n_filled == 3 and short[key].N >= 60
    with pytest.raises(RuntimeError, match="record-short"):
        ind.binding_period(cheb, 1e-6, delta=0.2, records=short)
    assert ind.binding_period(cheb, 0.19, delta=0.2, records=short).p == 3
    b = ind.binding_periods(cheb, cp, [0.19, 1e-6], 0.2, short)
    assert b.p.tolist() == [3, ind.RECORD_SHORT]
    assert b.truncated.tolist() == [False, False]
    with pytest.raises(ValueError):
        scalar_binding_period(cheb, 0.5, 0.2, cheb_records)
    with pytest.raises(ValueError):
        scalar_binding_period(cut, 1e-3, 0.2, cheb_records)
    with pytest.raises(RuntimeError):
        scalar_binding_period(cheb, 1e-6, 0.2, short)


def test_a_separation_equal_to_the_tube_stays_bound(cheb, cheb_records):
    # f(0.5) = 0.5 exactly, so |f(0.5) - c_1| = 0.5 = gamma_1 * d(c_1)
    res = ind.binding_period(cheb, 0.5, delta=0.6, records=cheb_records)
    assert res.trajectory[0][1:3] == (0.5, 0.5)
    assert (res.p, res.truncated) == (2, False)
    assert scalar_binding_period(cheb, 0.5, 0.6, cheb_records)[:2] == (2,
                                                                       False)


def test_an_orbit_within_1e_9_past_the_domain_is_clamped(cheb, cheb_records):
    # f(1e-6) = 1 - 2e-12 lies past hi = 1 - 1e-10, but within 1e-9
    cut = dataclasses.replace(cheb, hi=1.0 - 1e-10)
    res = ind.binding_period(cut, 1e-6, delta=0.2, records=cheb_records)
    p, truncated, rows, df_p = scalar_binding_period(cut, 1e-6, 0.2,
                                                     cheb_records)
    assert rows[0][1] == abs(cut.hi - 1.0)
    assert (res.p, res.truncated, res.trajectory, res.df_p) == (
        p, truncated, rows, df_p)
    # 2e-12 past hi = 1 - 2e-9 is past the tolerance: the orbit escapes
    cut = dataclasses.replace(cheb, hi=1.0 - 2e-9)
    with pytest.raises(ValueError, match="escaped"):
        ind.binding_period(cut, 1e-6, delta=0.2, records=cheb_records)


def reference_lemma_replay(m, delta, p_max, records, n_samples=1000, seed=0):
    """(ratio_max, gamma_hat, margin_ratio, segments, distortion checks,
    witnesses) of verify_binding_lemmas' sample replay, one scalar binding
    and one scalar distortion product per sample; each critical side lists
    its segment-ratio witnesses, then its distortion witnesses."""
    rng = np.random.default_rng(seed)
    crit = [cp for cp in m.critical_points if cp.order > 1.0]
    ratio_max, gamma_hat, margin = 0.0, 1.0, math.inf
    n_segments = n_distortions = 0
    witnesses = []
    per = max(1, n_samples // len(crit))
    for cp in crit:
        side_ratio, side_distortion = [], []
        rec = records[(cp.location, cp.side)]
        sgn = 1.0 if cp.side == "+" else -1.0
        dists = np.concatenate([
            rng.uniform(0.0, delta, per // 2),
            delta * 2.0 ** -rng.uniform(0.0, 30.0, per - per // 2)])
        expo = 1.0 / (2.0 * cp.order - 1.0)
        for d in dists[dists > 0]:
            x = cp.location + sgn * float(d)
            try:
                p, truncated, rows, df_p = scalar_binding_period(
                    m, x, delta, records, p_max)
            except (ValueError, RuntimeError):
                continue
            rows = rows if truncated else rows[:-1]
            n_segments += len(rows)
            for j, sep, _tube, seg_d in rows:
                r = (sep / seg_d) / (2.0 * rec.gamma[j - 1])
                if r > ratio_max and r > 1.0 + 1e-9:
                    side_ratio.append(["segment-ratio", x, j, r])
                ratio_max = max(ratio_max, r)
            if truncated:
                continue
            fx = evaluate(m, x).value
            if p >= 2 and fx != rec.c[0]:
                n_distortions += 1
                try:
                    g = generalized_distortion(
                        m, (min(fx, rec.c[0]), max(fx, rec.c[0])), p - 1)
                    gamma_hat = max(gamma_hat, g.value)
                except ValueError as err:
                    side_distortion.append(["distortion", x, p, str(err)])
            margin = min(margin, df_p / rec.D_at(p - 1) ** expo)
        witnesses += side_ratio + side_distortion
    return (ratio_max, gamma_hat, margin, n_segments, n_distortions,
            witnesses)


def test_binding_lemma_replay_matches_the_per_sample_reference(
        cheb, cheb_partition, cheb_records, caplog):
    with caplog.at_level(logging.INFO, logger="cusp_induce.inducing"):
        rep = ind.verify_binding_lemmas(cheb, cheb_partition, n_samples=300,
                                        records=cheb_records)
    ratio_max, gamma_hat, margin, n_segments, n_distortions, witnesses = \
        reference_lemma_replay(cheb, cheb_partition.delta,
                               cheb_partition.p_max, cheb_records, 300)
    assert (rep.ratio_max, rep.gamma_hat, rep.margin_ratio) == (
        ratio_max, gamma_hat, margin)
    assert rep.witnesses == witnesses == []
    assert n_segments > 0 and n_distortions > 0
    msg, = [r.getMessage() for r in caplog.records
            if r.name == "cusp_induce.inducing"]
    checks = re.findall(r"(\d+) distortion checks", msg)
    assert len(checks) == 2 and sum(map(int, checks)) == n_distortions


def test_binding_lemma_witnesses_match_the_per_sample_reference(
        cheb, cheb_partition, cheb_records):
    # A critical value moved from 1 to 0.7 keeps the bindings going, but
    # the first segment [0.7, f(x)] maps over the turning point at its
    # second step, so f^(p-1) is no diffeomorphism on it when p >= 3.
    records = {key: dataclasses.replace(rec, c=np.concatenate(([0.7],
                                                               rec.c[1:])))
               for key, rec in cheb_records.items()}
    rep = ind.verify_binding_lemmas(cheb, cheb_partition, n_samples=300,
                                    records=records)
    ref = reference_lemma_replay(cheb, cheb_partition.delta,
                                 cheb_partition.p_max, records, 300)
    assert (rep.ratio_max, rep.gamma_hat, rep.margin_ratio) == ref[:3]
    assert rep.witnesses == ref[5]
    assert rep.checks["distortion"] == "failed"
    assert {w[0] for w in rep.witnesses} == {"distortion"}
    # both critical sides find witnesses, listed side by side in the
    # declared order, each side's in the order of its samples
    sides = [cp.side for cp in cheb.critical_points]
    found = ["+" if w[1] > 0 else "-" for w in rep.witnesses]
    assert found == sorted(found, key=sides.index) and len(set(found)) == 2


STAGE2_CONFIGS = {
    "chebyshev": lambda: (mm.chebyshev_map(), 0.01),
    "lorenz": lambda: (mm.lorenz_map(), 0.2),
    "lorenz(1.8, 0.5)": lambda: (mm.lorenz_map(1.8, 0.5, 0.1), 0.1),
    "lorenz(1.9, 0.4)": lambda: (mm.lorenz_map(1.9, 0.4, 0.1), 0.1),
    "lorenz(1.8, 0.5) undefined end": lambda: (_undefined_end_lorenz(), 0.1),
    "singular_unimodal": lambda: (mm.singular_unimodal_map(), 0.02),
}


def _undefined_end_lorenz():
    cfg = mm.family_config("lorenz", {"a": 1.8, "s": 0.5}, delta=0.1)
    cfg["branches"][0]["expr"] = "(1 - a*abs(x)^s)*abs(x + 1)/(x + 1)"
    return mm.build_map(cfg)


def _merged(rows):
    """Rows (lo, hi, payload) with each run of touching rows of one payload
    merged into one."""
    out = []
    for lo, hi, payload in rows:
        if out and out[-1][2] == payload and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi, payload)
        else:
            out.append((lo, hi, payload))
    return out


def _rounding_bound(m, rec, x, d):
    """How far the rounding of f near c_1 = rec.c[0] moves an edge x at
    distance d from c: d * ulp(c_1) / |f(x) - c_1|, the edge's distance
    times the ulps of c_1 over the ulps of its image's offset, plus 4 ulps
    of d."""
    off = abs(_vec.step_values(m, np.array([x]))[0] - rec.c[0])
    return d * np.spacing(abs(rec.c[0])) / off + 4 * np.spacing(d)


@pytest.mark.parametrize("name", sorted(STAGE2_CONFIGS))
def test_piece_tables_match_the_recursive_refine(name):
    # Singular sides are one piece on both routes.  Otherwise both find
    # the same periods in the same order above the rounding floor, the
    # refine's inner p_max-exceeded gap lies inside the pull's floor, and
    # both put each edge within the rounding of f near c_1 of the edge of
    # the binding rule in long double (the refine's also within its 1e-12
    # bisection bracket).
    m, delta = STAGE2_CONFIGS[name]()
    records = orbit_records(m, 61)
    for cp in m.critical_points:
        got = ind._binding_piece_table(m, cp, delta, records, 60, 1e-10)
        ref = recursive_piece_table(m, cp, delta, records)
        if cp.order <= 1.0:
            assert got == ref
            continue
        got_gaps, ref_gaps = _merged(got[1]), _merged(ref[1])
        assert [p for *_, p in got[0]] == [p for *_, p in ref[0]]
        assert len(got_gaps) == len(ref_gaps) == 1
        if got[0]:
            assert got_gaps[0][2] == "rounding-floor"
            assert ref_gaps[0][2] == "p_max-exceeded"
            width = [hi - lo for lo, hi, _r in got_gaps + ref_gaps]
            assert width[0] >= width[1]
        else:           # stays bound for p_max steps: one gap on both
            assert got_gaps == ref_gaps
        c, sgn = cp.location, (1.0 if cp.side == "+" else -1.0)
        edges = long_double_edges(m, cp, records, delta)
        rec = records[(c, cp.side)]
        for (*g, p), (*r, _p) in zip(got[0], ref[0]):
            inner = [min(abs(t - c) for t in ends) for ends in (g, r)]
            bound = _rounding_bound(m, rec, c + sgn * edges[p - 1],
                                    edges[p - 1])
            assert abs(inner[0] - edges[p - 1]) <= bound, p
            assert abs(inner[1] - edges[p - 1]) <= bound + 1e-12, p


def test_piece_tables_pull_back_once_per_step(monkeypatch):
    # One forward binding_periods call, on the one point just beyond the
    # rounding floor, whose period (21 here) ends the table; then one
    # branch_inverse call per step of the critical itinerary up to it, or
    # to p_max - 1, deepest first, each on every target that deep or
    # deeper.
    m, delta = STAGE2_CONFIGS["chebyshev"]()
    records = orbit_records(m, 61)
    sizes, probes = [], []
    inverse, forward = _vec.branch_inverse, ind.binding_periods

    def recording(m, ids, targets, *args):
        sizes.append(len(targets))
        return inverse(m, ids, targets, *args)

    def probing(m, cp, xs, *args):
        probes.append(list(xs))
        return forward(m, cp, xs, *args)

    monkeypatch.setattr(_vec, "branch_inverse", recording)
    monkeypatch.setattr(ind, "binding_periods", probing)
    for cp in m.critical_points:
        rec = records[(cp.location, cp.side)]
        sgn = 1.0 if cp.side == "+" else -1.0
        beyond = cp.location + sgn * np.nextafter(
            _floor_width(m, cp, rec, delta), delta)
        for p_max, rows in ((60, 21), (15, 14)):
            sizes.clear(), probes.clear()
            ind._binding_piece_table(m, cp, delta, records, p_max, 1e-10)
            assert probes == [[beyond]]
            assert sizes == list(range(1, rows + 1))


def _floor_width(m, cp, rec, delta):
    """The largest distance d in (0, delta) from c at which f(c +- d)
    still rounds to c_1, by bisection in double."""
    sgn = 1.0 if cp.side == "+" else -1.0
    lo, hi = 0.0, delta
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        y = _vec.step_values(m, np.array([cp.location + sgn * mid]))[0]
        lo, hi = (mid, hi) if y == rec.c[0] else (lo, mid)


def _chebyshev_without_inverse():
    """chebyshev spelled 1 - 2*x*x, which branch_inverse bisects."""
    cfg = mm.family_config("chebyshev", delta=0.01)
    for br in cfg["branches"]:
        br["expr"] = "1 - 2*x*x"
    return mm.build_map(cfg)


FLOOR_CONFIGS = {
    "chebyshev": (mm.chebyshev_map, 0.01),
    "chebyshev, bisected": (_chebyshev_without_inverse, 0.01),
    "unimodal(2, 2.3)": (lambda: mm.unimodal_map(2.0, 2.3), 0.02),
}


@pytest.mark.parametrize("name", sorted(FLOOR_CONFIGS))
def test_piece_tables_end_at_the_rounding_floor(name):
    # Near c, f rounds to c_1 itself, and no double orbit separates from
    # the critical one: the side's inner gap reads rounding-floor, not
    # p_max-exceeded, it is that floor, and each piece's period is that of
    # the binding rule in long double at its midpoint.
    family, delta = FLOOR_CONFIGS[name]
    m = family()
    records = orbit_records(m, 61)
    tables = ind._side_tables(m, delta, records, 60, 1e-10)
    for cp, table in zip(m.critical_points, tables):
        c, rec = cp.location, records[(cp.location, cp.side)]
        inner = min(table, key=lambda row: min(abs(t - c) for t in row[:2]))
        assert inner[2] == ("gap", "rounding-floor")
        assert [row[2][0] for row in table].count("gap") == 1
        pieces = [row for row in table if row[2][0] == "piece"]
        floor = _floor_width(m, cp, rec, delta)
        sgn = 1.0 if cp.side == "+" else -1.0
        assert floor > 0.0
        assert list(inner[:2]) == sorted((c, c + sgn * floor))
        assert min(abs(t - c) for row in pieces for t in row[:2]) == floor
        mids = np.array([abs(0.5 * (lo + hi) - c) for lo, hi, _ in pieces],
                        dtype=np.longdouble)
        assert long_double_periods(m, cp, records, mids).tolist() == [
            p for *_, (_k, p) in pieces]


@pytest.mark.parametrize("p_max, resolution, reason", [
    (15, 1e-10, "p_max-exceeded"), (60, 1e-6, "below-resolution")])
def test_piece_tables_end_above_the_floor(cheb, p_max, resolution, reason):
    # A table that reaches p_max, or a row whose outer edge is within the
    # resolution, before the rounding floor ends there, under that reason.
    records = orbit_records(cheb, p_max + 1)
    for table in ind._side_tables(cheb, 0.01, records, p_max, resolution):
        inner = min(table, key=lambda row: min(map(abs, row[:2])))
        assert inner[2] == ("gap", reason)
        width = inner[1] - inner[0]
        deepest = max(p for *_, (kind, p) in table if kind == "piece")
        if reason == "p_max-exceeded":
            assert deepest == p_max - 1
            assert width > 1e-6
        else:
            assert width <= resolution < 2.6 * width


def test_piece_tables_map_a_short_record_to_its_gap():
    # c_2 = 1 - a = -1e-14 lies within 1e-13 of the critical point 0, so
    # the record ends at step 2, with a tube of d(c_2) / 2.  Points still
    # bound after it are record-short in binding_periods, and the table's
    # inner gap says so; its pieces and gap agree with binding_periods at
    # their midpoints.
    m = mm.unimodal_map(1.0 + 1e-14, 2.0, 0.05)
    records = orbit_records(m, 61)
    for cp, table in zip(m.critical_points,
                         ind._side_tables(m, 0.05, records, 60, 1e-10)):
        assert records[(cp.location, cp.side)].n_filled == 2
        mids = [0.5 * (lo + hi) for lo, hi, _ in table]
        p = ind.binding_periods(m, cp, mids, 0.05, records).p.tolist()
        want = [ind.RECORD_SHORT if kind == "gap" else q
                for *_, (kind, q) in table]
        assert p == want
        assert [row[2] for row in table if row[2][0] == "gap"] == [
            ("gap", "record-short")]


def quad(x):
    # same arithmetic the benchmark map performs, written out by hand
    return 1.0 - 2.0 * x * x


def test_binding_period_exact_trajectory(cheb, cheb_records):
    res = ind.binding_period(cheb, 0.1, delta=0.2, records=cheb_records)
    assert res.p == 4
    assert not res.truncated

    # shadow orbit by hand: x_j = f^j(0.1), turning-point orbit 1, -1, -1, ...
    x1 = quad(0.1)
    x2 = quad(x1)
    x3 = quad(x2)
    x4 = quad(x3)
    seps = [abs(x1 - 1.0), abs(x2 + 1.0), abs(x3 + 1.0), abs(x4 + 1.0)]
    tubes = [0.5, 0.5, 4.0 ** (-2.0 / 3.0), 0.25]
    dists = [abs(x1), abs(x2), abs(x3), abs(x4)]
    assert len(res.trajectory) == 4
    for row, j, sep, tube, dist in zip(
            res.trajectory, range(1, 5), seps, tubes, dists):
        assert row[0] == j
        assert row[1] == pytest.approx(sep, rel=1e-12)
        assert row[2] == pytest.approx(tube, rel=1e-12)
        assert row[3] == pytest.approx(dist, rel=1e-12)
    # the period ends exactly when the separation leaves the tube
    assert seps[3] > tubes[3]
    assert all(s <= t for s, t in zip(seps[:3], tubes[:3]))


def test_binding_period_truncation_flag(cheb, cheb_records):
    res = ind.binding_period(cheb, 1e-9, delta=0.2, records=cheb_records,
                             p_max=3)
    assert res.truncated
    assert res.p == 3


def test_singular_binding_period_is_one(lorenz, lorenz_records):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-0.2, 0.2, 100)
    xs = xs[xs != 0.0]
    for x in xs:
        assert ind.binding_period(lorenz, float(x), delta=0.2,
                                  records=lorenz_records).p == 1


def test_first_entry(cheb):
    # 0.1 is already inside the delta-neighborhood of the turning point
    assert ind.first_entry(cheb, 0.1, 0.2, 6) == 0
    # 0.9 maps 0.9 -> -0.62 -> 0.2312 -> ... enters |x| < 0.2 later
    l0 = ind.first_entry(cheb, 0.9, 0.2, 10)
    y = 0.9
    for _ in range(l0):
        y = quad(y)
    assert abs(y) < 0.2
    z = 0.9
    for _ in range(l0):
        assert abs(z) >= 0.2
        z = quad(z)


def test_inducing_time_free_and_bound(cheb, cheb_records):
    # 0.9 -> -0.62 -> 0.2312 -> 0.893...: outside |x| < 0.2 for 4 steps
    q0 = 4
    assert ind.first_entry(cheb, 0.9, 0.2, q0) is None
    assert ind.inducing_time(cheb, 0.9, 0.2, q0, records=cheb_records) == q0
    # a point already inside binds immediately: tau = 0 + p
    assert ind.inducing_time(cheb, 0.1, 0.2, q0,
                             records=cheb_records) == 4


def branch_samples(partition, stride, seed):
    """Midpoint and one random interior point of every stride-th branch."""
    rng = np.random.default_rng(seed)
    return [br.a + (br.b - br.a) * t for br in partition.branches[::stride]
            for t in (0.5, rng.uniform(0.01, 0.99))]


def test_the_batched_walk_matches_the_scalar_walk_on_every_branch(
        cheb, cheb_partition, lorenz, lorenz_partition):
    # q0 steps, or up to the entry: the last position is f^l(x) at an
    # entry l < q0 and f^q0(x) without one, as the scalar walk returns
    for m, part in ((cheb, cheb_partition), (lorenz, lorenz_partition)):
        delta, q0 = part.delta, part.q0
        xs = branch_samples(part, 1, 5)
        pos, itin, entry, landed = ind._positional_walk(m, xs, q0, delta)
        want = [ref_walks.free_orbit(m, x, delta, q0) for x in xs]
        assert not landed.any()
        assert [None if e in (-1, q0) else e for e in entry.tolist()] == \
            [w[0] for w in want]
        assert pos.tolist() == [w[1] for w in want]
        assert ((itin >= 0).sum(axis=1) == np.where(entry < 0, q0, entry)
                ).all()


def test_one_point_walks_match_the_scalar_reference(
        cheb, cheb_partition, cheb_records, lorenz, lorenz_partition,
        lorenz_records):
    # bit for bit, at a random point of every lorenz branch and of every
    # 8th chebyshev one (the batched walk above covers them all)
    for m, part, records, stride in (
            (cheb, cheb_partition, cheb_records, 8),
            (lorenz, lorenz_partition, lorenz_records, 1)):
        delta, q0 = part.delta, part.q0
        for x in branch_samples(part, stride, 6)[1::2]:
            assert ind.first_entry(m, x, delta, q0) == \
                ref_walks.first_entry(m, x, delta, q0)
            assert ind.inducing_time(m, x, delta, q0, records) == \
                ref_walks.inducing_time(m, x, delta, q0, records)
            assert ind.eval_induced(m, part, x) == \
                ref_walks.eval_induced(m, part, x)


def test_an_orbit_on_a_boundary_before_entry_raises():
    m = mm.lorenz_map(1.8, 0.5, 0.1)
    x = 0.30864197530864196           # 1.8 * x^0.5 - 1 is exactly 0.0
    for f in (ref_walks.first_entry, ind.first_entry):
        with pytest.raises(EvalDomainError):
            f(m, x, 0.1, 5)
    with pytest.raises(EvalDomainError):
        ind.inducing_time(m, x, 0.1, 5)
    # one step is not enough to stand on the boundary
    assert ind.first_entry(m, x, 0.1, 1) is None
    with pytest.raises(EvalDomainError, match="outside the domain"):
        ind.first_entry(m, 1.5, 0.1, 5)


def test_induced_value_matches_iterated_map(cheb, cheb_records):
    part = ind.build_partition(cheb, delta=0.2, q0=4)
    val, df_hat, tau = ind.eval_induced(cheb, part, 0.1)
    assert tau == 4
    assert val == pytest.approx(0.03187701071544469, abs=1e-12)
    assert df_hat > 2.0
    # agreement with direct iteration at fresh points
    rng = np.random.default_rng(3)
    for x in rng.uniform(-0.95, 0.95, 50):
        try:
            val, _df, tau = ind.eval_induced(cheb, part, float(x))
        except ValueError:
            continue
        y = float(x)
        for _ in range(tau):
            y = evaluate(cheb, y).value
        assert val == pytest.approx(y, abs=1e-9)


def test_partition_covers_domain(cheb_partition, cheb):
    widths = sum(br.width for br in cheb_partition.branches)
    assert widths + cheb_partition.unresolved_measure == pytest.approx(
        cheb.hi - cheb.lo, rel=1e-9)
    # ordered and non-overlapping
    stops = [cheb_partition.lo]
    for br in cheb_partition.branches:
        assert br.a >= stops[-1] - 1e-15
        assert br.b > br.a
        stops.append(br.b)
    assert stops[-1] <= cheb.hi + 1e-15


def test_partition_taus_consistent(cheb_partition, cheb_scales):
    _, q0 = cheb_scales
    for br in cheb_partition.branches:
        assert len(br.itinerary) == br.tau
        if br.kind == "free":
            assert br.tau == q0
            assert br.l0 is None and br.p0 is None
        else:
            assert br.tau == br.l0 + br.p0
            assert br.critical_point is not None


def test_partition_certified_expansion(cheb_partition):
    for br in cheb_partition.branches:
        assert 0 < br.inf_df <= br.sup_df
    assert min(br.inf_df for br in cheb_partition.branches) >= 2.0


def test_partition_unresolved_small(cheb_partition, cheb):
    assert cheb_partition.unresolved_measure <= 1e-3 * (cheb.hi - cheb.lo)


def test_locate_and_unresolved_lookup(cheb_partition):
    br = cheb_partition.locate(0.1234)
    assert br.a < 0.1234 < br.b
    if cheb_partition.unresolved:
        a, b, _reason = cheb_partition.unresolved[0]
        with pytest.raises(ValueError):
            cheb_partition.locate(0.5 * (a + b))


def test_partition_determinism(lorenz, lorenz_scales):
    delta, q0 = lorenz_scales
    p1 = ind.build_partition(lorenz, delta=delta, q0=q0)
    p2 = ind.build_partition(lorenz, delta=delta, q0=q0)
    rows1 = [(br.a, br.b, br.tau, br.kind, br.itinerary)
             for br in p1.branches]
    rows2 = [(br.a, br.b, br.tau, br.kind, br.itinerary)
             for br in p2.branches]
    assert rows1 == rows2


def test_lorenz_partition_binds_for_one_step(lorenz_partition):
    for br in lorenz_partition.bound():
        assert br.p0 == 1


def test_summary_fields(cheb_partition):
    s = cheb_partition.summary()
    assert s["n_branches"] == len(cheb_partition.branches)
    assert s["n_free"] + s["n_bound"] == s["n_branches"]
    assert s["min_inf_df"] >= 2.0
    assert sum(s["tau_histogram"].values()) == s["n_branches"]


def test_binding_lemma_replay(cheb, cheb_partition, cheb_records):
    rep = ind.verify_binding_lemmas(cheb, cheb_partition, n_samples=300,
                                    records=cheb_records)
    assert rep.passed, rep.witnesses
    assert rep.ratio_max <= 1.0 + 1e-9
    assert rep.min_inf_df >= 2.0
    assert 0 < rep.sandwich_c1 <= rep.sandwich_c2


def test_binding_lemma_checks_with_nothing_to_check_are_not_applicable(
        cheb, cheb_partition, cheb_records, lorenz, lorenz_partition,
        lorenz_records):
    names = ["segment_ratio", "distortion", "sandwich", "expansion"]
    cheb_rep = ind.verify_binding_lemmas(cheb, cheb_partition, n_samples=300,
                                         records=cheb_records)
    assert cheb_rep.checks == dict.fromkeys(names, "passed")
    # lorenz has no critical point of order > 1: no binding segment, no
    # first-segment distortion and no constant-binding piece to check
    rep = ind.verify_binding_lemmas(lorenz, lorenz_partition, n_samples=300,
                                    records=lorenz_records)
    assert rep.checks == {"segment_ratio": "not-applicable",
                          "distortion": "not-applicable",
                          "sandwich": "not-applicable",
                          "expansion": "passed"}
    assert rep.passed and rep.to_dict()["checks"] == rep.checks
    # a failed check fails the report; a not-applicable one does not
    failed = dataclasses.replace(rep, checks=dict(rep.checks,
                                                  expansion="failed"))
    assert not failed.passed and failed.to_dict()["passed"] is False


def test_margin_ratio_is_nan_when_no_sample_resolves(singular):
    # on this partition every replayed binding is still bound at p_max = 60
    part = ind.build_partition(singular, delta=0.02, q0=8)
    rep = ind.verify_binding_lemmas(singular, part)
    assert math.isnan(rep.margin_ratio)
    assert rep.checks["distortion"] == "not-applicable"
    records = orbit_records(singular, part.p_max + 1)
    for cp in singular.critical_points:
        if cp.order > 1.0:
            sgn = 1.0 if cp.side == "+" else -1.0
            b = ind.binding_periods(singular, cp, cp.location + sgn * np.array(
                [0.5, 1e-3, 1e-6]) * part.delta, part.delta, records)
            assert b.truncated.all()


def test_binding_lemma_replay_logs_its_sample_counts(
        cheb, cheb_partition, cheb_records, lorenz, lorenz_partition,
        lorenz_records, caplog):
    def replay_log(m, part, records):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="cusp_induce.inducing"):
            ind.verify_binding_lemmas(m, part, n_samples=300,
                                      records=records)
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "cusp_induce.inducing"]
        assert len(msgs) == 1 and msgs[0].startswith("verify_binding_lemmas")
        return msgs[0]

    msg = replay_log(cheb, cheb_partition, cheb_records)
    for side in "-+":
        assert f"(0.0, {side!r}) 150 replayed, dropped {{}}, " in msg
    assert msg.count("distortion checks") == 2
    # a critical record cut after three steps drops every sample whose
    # binding is longer, by its failure code; none is left truncated
    short = {key: dataclasses.replace(rec, c=rec.c[:3], d=rec.d[:3],
                                      gamma=rec.gamma[:3])
             for key, rec in cheb_records.items()}
    delta = cheb_partition.delta
    for cp in cheb.critical_points:
        sgn = 1.0 if cp.side == "+" else -1.0
        b = ind.binding_periods(cheb, cp, [sgn * delta / 2], delta, short)
        assert b.p.tolist() == [ind.RECORD_SHORT]
    msg = replay_log(cheb, cheb_partition, short)
    assert "dropped {'record-short': " in msg and " 0 truncated" in msg
    assert "samples per critical side of order > 1: none" in replay_log(
        lorenz, lorenz_partition, lorenz_records)


def test_write_partition_csv(tmp_path, lorenz_partition):
    import csv

    path = tmp_path / "partition.csv"
    ind.write_partition_csv(lorenz_partition, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(lorenz_partition.branches)
    assert float(rows[0]["a"]) == lorenz_partition.branches[0].a


# ---------------------------------------------------------------------------
# stage 1 cuts only orbits that have not entered, so cells are branches


def stage1_cuts(m, delta, q0):
    """Stage 1's cuts, and the per-side piece tables they were seeded with."""
    tables = ind._side_tables(m, delta, orbit_records(m, 61), 60, 1e-10)
    return ind._free_breakpoints(m, delta, q0, tables), tables


def test_stage1_cuts_nothing_strictly_inside_a_neighborhood():
    # A cut inside a neighborhood splits an orbit after its first entry,
    # which changes neither the entry nor the binding period; the edges
    # c +- delta and the critical points themselves stay cut.  The singular
    # sides of this map have one piece each, with no edge inside.
    m = mm.lorenz_map(1.9, 0.4, 0.1)
    cuts = stage1_cuts(m, 0.1, 13)[0]
    assert not _vec.in_delta(m, cuts, 0.1).any()
    for cp in m.critical_points:
        edge = cp.location + (0.1 if cp.side == "+" else -0.1)
        assert cp.location in cuts and edge in cuts


def test_stage1_cuts_at_every_piece_edge_and_inside_only_there(cheb):
    # Every piece and gap edge is a seed, so a cell that enters does so
    # inside one row of its side's table; the pullbacks past level 0 lie
    # outside the neighborhoods, so a cut strictly inside one is a seed.
    cuts, tables = stage1_cuts(cheb, 0.01, 7)
    edges = ind._table_edges(tables)
    assert np.isin(edges, cuts).all()
    inside = cuts[_vec.in_delta(cheb, cuts, 0.01)]
    assert inside.size == 32
    assert inside.tolist() == edges[_vec.in_delta(cheb, edges, 0.01)].tolist()


@pytest.mark.parametrize("delta, q0", [(0.02, 8), (0.005, 14)])
def test_singular_unimodal_boundaries_end_branches(singular, delta, q0):
    # Stage 1 prunes the preimages inside (-delta, 0) and keeps every
    # distinct cut, so none displaces the singular point 0 (a pullback
    # lands 9.5e-17 left of it at (0.02, 8)).  Each interior boundary is a
    # branch end or lies in the unresolved set (both sides of -x* and x*
    # are gaps).
    part = ind.build_partition(singular, delta=delta, q0=q0)
    ends = {x for br in part.branches for x in (br.a, br.b)}
    for t in singular.interior_boundaries.tolist():
        assert not any(br.a < t < br.b for br in part.branches)
        assert t in ends or any(a <= t <= b for a, b, _r in part.unresolved)
    assert sum(0.0 in (br.a, br.b) for br in part.branches) == 2


MAXIMAL_CONFIGS = {
    "lorenz(1.9, 0.4)": lambda: (mm.lorenz_map(1.9, 0.4, 0.1), 0.1, 13),
    "lorenz(1.8, 0.5)": lambda: (mm.lorenz_map(1.8, 0.5, 0.1), 0.1, 6),
    "singular_unimodal": lambda: (mm.singular_unimodal_map(), 0.02, 8),
}


@pytest.mark.parametrize("name", ["chebyshev"] + sorted(MAXIMAL_CONFIGS))
def test_adjacent_branches_differ_in_class_or_itinerary(name, cheb_partition):
    # Branches are maximal: two that touch differ in their class, entry,
    # binding period, side entered or itinerary.
    if name == "chebyshev":
        part = cheb_partition
        assert (part.delta, part.q0) == (0.01, 7)
    else:
        m, delta, q0 = MAXIMAL_CONFIGS[name]()
        part = ind.build_partition(m, delta=delta, q0=q0)

    def record(br):
        return br.kind, br.l0, br.p0, br.critical_point, br.itinerary

    touching = [(left, right) for left, right
                in zip(part.branches, part.branches[1:]) if left.b == right.a]
    assert touching
    for left, right in touching:
        assert record(left) != record(right), (left.a, left.b, right.b)


def test_build_partition_logs_each_side_table(caplog):
    # per critical side: its pieces, the deepest period, and the width of
    # its rounding-floor gap (0 where the table ends above the floor)
    cheb = mm.chebyshev_map(0.01)
    cp = cheb.critical_points[0]
    width = _floor_width(cheb, cp, compute_orbit(cheb, cp, 61), 0.01)
    assert f"{width:.4g}" == "5.268e-09"         # about 2^-27.5
    for p_max, floor in ((60, width), (15, 0.0)):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="cusp_induce.inducing"):
            ind.build_partition(cheb, delta=0.01, q0=3, p_max=p_max)
        msg, = [r.getMessage() for r in caplog.records
                if r.name == "cusp_induce.inducing"]
        deepest = 21 if p_max == 60 else 14
        sides = "; ".join(f"(0.0, {side!r}) {deepest - 5} pieces to p "
                          f"{deepest}, floor {floor:.4g}" for side in "-+")
        assert msg.endswith(", piece tables per critical side: " + sides)


def test_piece_tables_end_where_a_pullback_is_not_finite(cheb, monkeypatch):
    # a target whose pullback turns non-finite (here every target past the
    # 19th, at every step) ends the table at its row
    inverse = _vec.branch_inverse

    def broken(m, ids, targets, *args):
        out = inverse(m, ids, targets, *args)
        out[19:] = np.nan
        return out

    monkeypatch.setattr(_vec, "branch_inverse", broken)
    for table in ind._side_tables(cheb, 0.01, orbit_records(cheb, 61), 60,
                                  1e-10):
        inner = min(table, key=lambda row: min(map(abs, row[:2])))
        assert inner[2] == ("gap", "boundary-unlocated")
        assert max(p for *_, (kind, p) in table if kind == "piece") == 19
