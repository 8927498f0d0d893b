"""One tracker for the one-sided orbits of interval ends.

distortion.array_end_orbits follows the ends of many intervals at once,
each along a fixed itinerary or positionally (each step on the branch
holding the step interval).  It replaced three trackers: a positional one
with per-step |Df| extrema (behind generalized_distortion, variation_bound
and sup_inf_abs_df), an unclamped one along a known itinerary (behind stage
4 of build_partition), and the scalar end_orbits that first joined the
two.  Their bodies are kept as references, the first two below and
end_orbits in reference_end_orbits.  The positional callers must reproduce
them bit for bit; stage 4 may differ from the unclamped tracker only where
its end orbit crossed the cusp, and must match the per-branch loop on the
scalar end_orbits, kept below too, bit for bit.
"""

import math

import numpy as np
import pytest

from cusp_induce import distortion as di
from cusp_induce import expr as ex
from cusp_induce import inducing as ind
from cusp_induce import map_model as mm
from reference_end_orbits import containing_branch, end_orbits
from reference_variation import inv_distance_integral


# ---------------------------------------------------------------------------
# references: the two trackers end_orbits replaced


def ref_sup_inf_abs_df(m, interval):
    u, v = float(interval[0]), float(interval[1])
    if not u < v:
        raise ValueError("empty interval")
    i = containing_branch(m, u, v)
    br = m.branches[i]
    uu, vv = max(u, br.a), min(v, br.b)
    cands = [
        abs(m.endpoint_jet(i, uu, "+").d1),
        abs(m.endpoint_jet(i, vv, "-").d1),
    ]
    for z in di.branch_d2_zeros(m, i):
        if uu < z < vv:
            cands.append(abs(br.jet(z).d1))
    return max(cands), min(cands)


def ref_interval_orbit(m, interval, n):
    """Steps (u, v, branch, sup, inf) by position, and the final image."""
    u, v = sorted((float(interval[0]), float(interval[1])))
    su, sv = 1.0, -1.0
    steps = []
    for _ in range(n):
        i = containing_branch(m, u, v)
        sup_df, inf_df = ref_sup_inf_abs_df(m, (u, v))
        steps.append((u, v, i, sup_df, inf_df))
        br = m.branches[i]
        ju = m.endpoint_jet(i, max(u, br.a), "+" if su > 0 else "-")
        jv = m.endpoint_jet(i, min(v, br.b), "+" if sv > 0 else "-")
        sgn = m.monotone_signs[i]
        su *= sgn
        sv *= sgn
        u2, v2 = ju.value, jv.value
        if u2 <= v2:
            u, v = u2, v2
        else:
            u, v, su, sv = v2, u2, sv, su
    return steps, (u, v)


def ref_generalized_distortion(m, interval, n):
    if n < 0:
        raise ValueError("n must be >= 0")
    steps, final = ref_interval_orbit(m, interval, n)
    sups = [s[3] for s in steps]
    infs = [s[4] for s in steps]
    ratios = [s / i if i > 0 else math.inf for s, i in zip(sups, infs)]
    value = 1.0
    for r in ratios:
        value *= r
    return di.DistortionResult(
        interval=(float(interval[0]), float(interval[1])), n=n,
        sup_df=sups, inf_df=infs, ratios=ratios, value=value, image=final)


def ref_variation_bound(m, interval, l):
    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return 0.0
    steps, _ = ref_interval_orbit(m, interval, l)
    dist = 1.0
    inf_total = 1.0
    acc = 0.0
    for u, v, _i, sup_df, inf_df in steps:
        if inf_df <= 0.0:
            raise di.InfiniteIntegralError(
                "derivative infimum vanishes on a step")
        dist *= sup_df / inf_df
        inf_total *= inf_df
        acc += inv_distance_integral(m, u, v)
    return (dist / inf_total) * acc


def ref_endpoint_track(m, x, approach, itinerary):
    """Unclamped one-sided jets of one end along the itinerary."""
    ys = []
    y = float(x)
    s = approach
    for i in itinerary:
        jet = m.endpoint_jet(i, y, "+" if s > 0 else "-")
        ys.append(jet)
        y = jet.value
        s *= m.monotone_signs[i]
    return ys


def ref_branch_geometry(m, a, b, itinerary, refine_below, k_start=1,
                        k_cap=512):
    tau = len(itinerary)
    jets_a = ref_endpoint_track(m, a, +1.0, itinerary)
    jets_b = ref_endpoint_track(m, b, -1.0, itinerary)
    orient = 1
    for i in itinerary:
        orient *= 1 if m.monotone_signs[i] > 0 else -1
    image = (min(jets_a[-1].value, jets_b[-1].value),
             max(jets_a[-1].value, jets_b[-1].value))
    end_d1_a = [abs(j.d1) for j in jets_a]
    end_d1_b = [abs(j.d1) for j in jets_b]
    k = k_start
    while True:
        log_inf = np.zeros(k)
        log_sup = np.zeros(k)
        col_pos = np.linspace(a, b, k + 1)
        for j in range(tau):
            br = m.branches[itinerary[j]]
            col = np.empty(k + 1)
            col[0] = end_d1_a[j]
            col[-1] = end_d1_b[j]
            if k > 1:
                with np.errstate(all="ignore"):
                    col[1:-1] = np.abs(br.d1_values(col_pos[1:-1]))
            lo_j = np.fmin(col[:-1], col[1:])
            hi_j = np.fmax(col[:-1], col[1:])
            left = np.fmin(col_pos[:-1], col_pos[1:])
            right = np.fmax(col_pos[:-1], col_pos[1:])
            for z in di.branch_d2_zeros(m, itinerary[j]):
                hit = (left < z) & (z < right)
                if hit.any():
                    dz = abs(br.jet(z).d1)
                    lo_j[hit] = np.fmin(lo_j[hit], dz)
                    hi_j[hit] = np.fmax(hi_j[hit], dz)
            with np.errstate(divide="ignore"):
                log_inf += np.log(lo_j)
                log_sup += np.log(hi_j)
            nxt = np.empty(k + 1)
            nxt[0] = jets_a[j].value
            nxt[-1] = jets_b[j].value
            if k > 1:
                with np.errstate(all="ignore"):
                    nxt[1:-1] = br.values(col_pos[1:-1])
            col_pos = nxt
        inf_bound = float(np.exp(np.min(log_inf)))
        sup_bound = float(np.exp(np.max(log_sup)))
        if inf_bound >= refine_below or k >= k_cap:
            break
        k *= 8
    return image, orient, inf_bound, sup_bound


def ref_abs_df_extrema(m, i, xs, abs_d1):
    """Per-step |Df| extrema between consecutive positions xs on branch i."""
    xs, d = np.asarray(xs, dtype=float), np.asarray(abs_d1, dtype=float)
    lo = np.fmin(d[:-1], d[1:])
    hi = np.fmax(d[:-1], d[1:])
    for z in di.branch_d2_zeros(m, i):
        hit = (np.fmin(xs[:-1], xs[1:]) < z) & (z < np.fmax(xs[:-1], xs[1:]))
        if hit.any():
            dz = abs(m.branches[i].jet(z).d1)
            lo[hit] = np.fmin(lo[hit], dz)
            hi[hit] = np.fmax(hi[hit], dz)
    return lo, hi


def per_branch_stage4(m, a, b, itinerary, refine_below, k_cap=512):
    """The per-branch loop batched stage 4 replaced: clamped one-sided end
    orbits (end_orbits), inner edges by plain evaluation, k eightfold until
    the infimum bound clears refine_below or reaches k_cap."""
    steps, image = end_orbits(m, (a, b), len(itinerary), itinerary)
    orient = math.prod(m.monotone_signs[i] for i in itinerary)
    k = 1
    while True:
        log_inf = np.zeros(k)
        log_sup = np.zeros(k)
        pos = np.linspace(a, b, k + 1)
        for u, v, i, left, right in steps:
            pos[0], pos[-1] = u, v
            col = np.empty(k + 1)
            col[0], col[-1] = abs(left.d1), abs(right.d1)
            nxt = np.empty(k + 1)
            if k > 1:
                with np.errstate(all="ignore"):
                    nxt[1:-1], d1 = m.branches[i].values(pos[1:-1], 1)
                    col[1:-1] = np.abs(d1)
            lo_j, hi_j = ref_abs_df_extrema(m, i, pos, col)
            with np.errstate(divide="ignore"):
                log_inf += np.log(lo_j)
                log_sup += np.log(hi_j)
            pos = nxt
            if m.monotone_signs[i] < 0:
                pos, log_inf, log_sup = pos[::-1], log_inf[::-1], log_sup[::-1]
        inf_bound = float(np.exp(np.min(log_inf)))
        sup_bound = float(np.exp(np.max(log_sup)))
        if inf_bound >= refine_below or k >= k_cap:
            break
        k *= 8
    return image, orient, inf_bound, sup_bound


# ---------------------------------------------------------------------------
# helpers


MAPS = {
    "chebyshev": mm.chebyshev_map,
    "lorenz(1.9,0.4)": lambda: mm.lorenz_map(1.9, 0.4, 0.1),
    "lorenz(1.8,0.5)": lambda: mm.lorenz_map(1.8, 0.5, 0.1),
    "singular_unimodal": mm.singular_unimodal_map,
}


def random_cases(m, n, seed):
    """(interval, steps) pairs: widths from 1e-5 to 0.3 of the domain."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        steps = int(rng.integers(0, 7))
        w = float(10.0 ** rng.uniform(-5.0, -0.5) * (m.hi - m.lo) / 2.0)
        x = float(rng.uniform(m.lo, m.hi - w))
        yield (x, x + w), steps


def positional_itinerary(n):
    """Itinerary matrix whose row k takes n[k] positional steps."""
    return np.where(np.arange(max(n, default=0)) < np.array(n)[:, None],
                    di.POSITIONAL, -1)


def outcome(f, *args):
    """repr of the result, or the exception type."""
    try:
        return repr(f(*args))
    except Exception as err:  # noqa: BLE001 - compared by type
        return type(err)


def _undefined_end_lorenz():
    cfg = mm.family_config("lorenz", {"a": 1.8, "s": 0.5}, delta=0.1)
    cfg["branches"][0]["expr"] = "(1 - a*abs(x)^s)*abs(x + 1)/(x + 1)"
    return mm.build_map(cfg)


def _cubic():
    """x^3 - 0.75 x has D2f = 6x, zero inside its branch: the partition
    branch (-0.5, 0.45) has inf |Df-hat| 0, so stage 4 refines it to
    k = 512, and its sup takes |Df(0)| = 0.75 at the zero."""
    return mm.build_map({
        "name": "cubic", "domain": [-0.5, 1.0], "delta": 0.05,
        "branches": [{"interval": [-0.5, 0.5], "expr": "x^3 - 0.75*x"},
                     {"interval": [0.5, 1.0], "expr": "x - 0.75"}],
        "critical_points": [{"location": 0.5, "side": "-", "order": 2.0},
                            {"location": 0.5, "side": "+", "order": 1.0}]})


# the stage-2 configs besides chebyshev, and a map with an interior D2f
# zero, as (map, delta, q0); "lorenz" is the session fixture's map at its
# pipeline scales
STAGE2_CONFIGS = {
    "lorenz(1.8,0.5)": lambda: (mm.lorenz_map(1.8, 0.5, 0.1), 0.1, 10),
    "lorenz(1.8,0.5) undefined end": lambda: (_undefined_end_lorenz(), 0.1,
                                              10),
    "singular_unimodal": lambda: (mm.singular_unimodal_map(), 0.02, 8),
    "cubic q0=2": lambda: (_cubic(), 0.05, 2),
    "cubic q0=4": lambda: (_cubic(), 0.05, 4),
}


@pytest.fixture(scope="module")
def lorenz_cusp_partition():
    m = mm.lorenz_map(1.9, 0.4, 0.1)
    return m, ind.build_partition(m, delta=0.1, q0=13)


def crossed_the_cusp(m, br):
    """True if an unclamped end orbit of the branch leaves a step's branch."""
    for x, side in ((br.a, 1.0), (br.b, -1.0)):
        ys = [x] + [j.value for j in
                    ref_endpoint_track(m, x, side, br.itinerary)]
        for y, i in zip(ys, br.itinerary):
            if not m.branches[i].a <= y <= m.branches[i].b:
                return True
    return False


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("name", sorted(MAPS))
def test_positional_callers_match_the_reference_bit_for_bit(name):
    m = MAPS[name]()
    raised = 0
    for interval, n in random_cases(m, 300, seed=7):
        pairs = (
            (outcome(lambda: di.generalized_distortion(m, interval, n)
                     .to_dict()),
             outcome(lambda: ref_generalized_distortion(m, interval, n)
                     .to_dict())),
            (outcome(di.variation_bound, m, interval, n),
             outcome(ref_variation_bound, m, interval, n)),
            (outcome(di.sup_inf_abs_df, m, interval),
             outcome(ref_sup_inf_abs_df, m, interval)),
        )
        for got, ref in pairs:
            assert got == ref, (interval, n)
            raised += isinstance(ref, type)
    assert raised > 0      # the cases reach the exception paths too


def test_stage4_matches_the_reference_on_chebyshev(cheb, cheb_partition):
    for br in cheb_partition.branches:
        ref = ref_branch_geometry(cheb, br.a, br.b, br.itinerary, 4.0)
        assert (br.image, br.orientation, br.inf_df, br.sup_df) == ref


def test_stage4_differs_only_where_an_end_orbit_crossed_the_cusp(
        lorenz_cusp_partition):
    m, part = lorenz_cusp_partition
    changed, crossed = 0, 0
    for br in part.branches:
        ref = ref_branch_geometry(m, br.a, br.b, br.itinerary, 4.0)
        got = (br.image, br.orientation, br.inf_df, br.sup_df)
        cross = crossed_the_cusp(m, br)
        crossed += cross
        if repr(got) != repr(ref):
            changed += 1
            assert cross, (br.a, br.b)
            assert (br.orientation, br.inf_df) == ref[1:3]
        if cross:
            # the clamped end sits on the cusp, where |Df| is infinite
            assert br.sup_df == math.inf, (br.a, br.b)
    assert changed > 0 and crossed >= changed


def steps_seen(rows):
    """A visit for array_end_orbits, and the steps it records per row:
    (branch, u, v, |Df(u)|, |Df(v)|)."""
    seen = [[] for _ in range(rows)]

    def visit(live, ids, u, v, du, dv):
        for row in zip(live.tolist(), ids.tolist(), u.tolist(), v.tolist(),
                       du.tolist(), dv.tolist()):
            seen[row[0]].append(row[1:])

    return visit, seen


def reference_steps(steps):
    return [(i, x, y, abs(left.d1), abs(right.d1))
            for x, y, i, left, right in steps]


def test_every_branch_is_followed_along_its_itinerary(lorenz_cusp_partition):
    m, part = lorenz_cusp_partition
    visit, seen = steps_seen(len(part.branches))
    u, v, _scalar, failed = di.array_end_orbits(
        m, ind._vec.itinerary_matrix([br.itinerary for br in part.branches]),
        [br.a for br in part.branches], [br.b for br in part.branches], visit)
    assert failed == {}
    for br, steps, image in zip(part.branches, seen, zip(u.tolist(),
                                                         v.tolist())):
        assert [s[0] for s in steps] == list(br.itinerary)
        for i, lo, hi, _du, _dv in steps:
            assert m.branches[i].a <= lo <= hi <= m.branches[i].b
        assert image == br.image


def test_without_an_itinerary_a_straddling_step_raises(cheb):
    visit, seen = steps_seen(2)
    u, v, _scalar, failed = di.array_end_orbits(
        cheb, positional_itinerary([1, 2]), [-0.1, 0.2], [0.1, 0.3],
        visit)
    assert list(failed) == [0] and seen[0] == []
    with pytest.raises(di.NotDiffeomorphismError):
        di.raise_first(failed)
    with pytest.raises(di.NotDiffeomorphismError):
        di.generalized_distortion(cheb, (-0.1, 0.1), 1)
    assert [s[0] for s in seen[1]] == [1, 1]
    assert (u[1], v[1]) == pytest.approx((-0.6928, -0.3448), rel=1e-12)


def positional_rows(m, seed):
    """(interval, steps) rows for one positional batch: random intervals
    with 0 to 6 steps, intervals that start on a branch end or a domain
    end, and intervals that reach past an interior boundary by 5e-11 (they
    straddle it) or by 5e-13 (within the 1e-12 tolerance)."""
    rows = list(random_cases(m, 400, seed))
    ends = sorted({m.lo, m.hi, *m.interior_boundaries.tolist()})
    for k, e in enumerate(ends):
        w = 0.3 * (m.hi - m.lo) / len(ends)
        if e > m.lo:
            rows.append(((e - w, e), 1 + k % 5))
        if e < m.hi:
            rows.append(((e, e + w), 2 + k % 5))
        if m.lo < e < m.hi:
            rows += [((e - w, e + 5e-11), 2), ((e - 5e-11, e + w), 2),
                     ((e - w, e + 5e-13), 2), ((e - 5e-13, e + w), 2)]
    return rows


@pytest.mark.parametrize("name", sorted(MAPS))
def test_positional_rows_match_the_scalar_reference(name):
    m = MAPS[name]()
    rows = positional_rows(m, seed=11)
    n = [steps for _interval, steps in rows]
    a, b = np.array([sorted(interval) for interval, _n in rows]).T
    visit, seen = steps_seen(len(rows))
    u, v, _scalar, failed = di.array_end_orbits(
        m, positional_itinerary(n), a, b, visit)
    stopped_at = []
    for k, ((interval, steps), got) in enumerate(zip(rows, seen)):
        if k not in failed:
            ref, image = end_orbits(m, interval, steps)
            assert got == reference_steps(ref), interval
            assert (u[k], v[k]) == image, interval
            continue
        # the row stopped where the reference raises, after the same steps
        j = len(got)
        assert got == reference_steps(end_orbits(m, interval, j)[0])
        with pytest.raises(type(failed[k])) as err:
            end_orbits(m, interval, j + 1)
        assert str(err.value) == str(failed[k])
        stopped_at.append(j)
    assert 0 in stopped_at and max(stopped_at) > 0
    assert len(set(n)) > 5
    on_an_end = [k for k, (interval, _n) in enumerate(rows)
                 if set(interval) & {m.lo, m.hi,
                                     *m.interior_boundaries.tolist()}]
    assert any(k not in failed and seen[k] for k in on_an_end)


def test_a_row_whose_one_sided_jet_raises_stops_alone(monkeypatch):
    m = mm.chebyshev_map()
    one_sided = m.endpoint_jet

    def endpoint_jet(i, x, side):
        if (x, side) == (0.0, "+"):
            raise ex.EvalDomainError("no jet at 0+")
        return one_sided(i, x, side)

    monkeypatch.setattr(m, "endpoint_jet", endpoint_jet)
    intervals = [(0.2, 0.3), (0.0, 0.3), (-0.3, 0.0), (0.0, 0.3)]
    visit, seen = steps_seen(4)
    u, v, _scalar, failed = di.array_end_orbits(
        m, np.array([[di.POSITIONAL] * 2, [di.POSITIONAL] * 2, [0, -1],
                     [1, -1]]), *np.array(intervals).T, visit)
    assert list(failed) == [1, 3] and seen[1] == seen[3] == []
    with pytest.raises(ex.EvalDomainError) as err:
        end_orbits(m, intervals[1], 1)
    assert str(failed[1]) == str(failed[3]) == str(err.value)
    with pytest.raises(ex.EvalDomainError):
        di.raise_first(failed)
    for k, n in ((0, 2), (2, 1)):
        ref, image = end_orbits(m, intervals[k], n)
        assert seen[k] == reference_steps(ref) and (u[k], v[k]) == image


@pytest.mark.parametrize("name", ["lorenz", "lorenz(1.9,0.4)"]
                         + sorted(STAGE2_CONFIGS))
def test_stage4_matches_the_per_branch_loop(name, request):
    if name == "lorenz":
        m = request.getfixturevalue("lorenz")
        part = request.getfixturevalue("lorenz_partition")
    elif name == "lorenz(1.9,0.4)":
        m, part = request.getfixturevalue("lorenz_cusp_partition")
    else:
        m, delta, q0 = STAGE2_CONFIGS[name]()
        part = ind.build_partition(m, delta=delta, q0=q0)
    crossed = 0
    for br in part.branches:
        got = repr((br.image, br.orientation, br.inf_df, br.sup_df))
        assert got == repr(per_branch_stage4(m, br.a, br.b, br.itinerary,
                                             4.0)), (br.a, br.b)
        if crossed_the_cusp(m, br):
            crossed += 1
        else:
            assert got == repr(ref_branch_geometry(m, br.a, br.b,
                                                   br.itinerary, 4.0))
    assert crossed < len(part.branches)


def test_array_end_orbits_step_as_end_orbits(lorenz_cusp_partition):
    m, part = lorenz_cusp_partition
    a = np.array([br.a for br in part.branches])
    b = np.array([br.b for br in part.branches])
    itin = ind._vec.itinerary_matrix([br.itinerary for br in part.branches])
    visit, seen = steps_seen(len(part.branches))
    u, v, scalar, failed = di.array_end_orbits(m, itin, a, b, visit)
    assert failed == {}
    for br, lo, hi, steps in zip(part.branches, u.tolist(), v.tolist(), seen):
        ref, image = end_orbits(m, (br.a, br.b), br.tau, br.itinerary)
        assert (lo, hi) == image == br.image
        assert steps == reference_steps(ref)
    # the end orbits that crossed the cusp sit on it, clamped, and take the
    # scalar one-sided jets there
    assert scalar > 0
    assert any(crossed_the_cusp(m, br) for br in part.branches)


def test_array_end_orbits_take_the_scalar_jets_where_the_array_cannot():
    # at the branch end 0 the array rule of abs(x) gives the mean of the
    # one-sided derivatives, 0.25 in place of -0.25 and 0.75; and
    # 0*abs(x - 0.3)^-1 is 0 * inf = NaN at 0.3, inside branch 1
    m = mm.build_map({
        "name": "kinked", "domain": [-1.0, 1.0], "delta": 0.05,
        "branches": [
            {"interval": [-1.0, 0.0], "expr": "0.5*abs(x) + 0.25*x"},
            {"interval": [0.0, 1.0],
             "expr": "0.5*abs(x) + 0.25*x + 0*abs(x - 0.3)^-1"}],
        "critical_points": [{"location": 0.0, "side": "-", "order": 1.0},
                            {"location": 0.0, "side": "+", "order": 1.0}]})
    with np.errstate(all="ignore"):
        value, d1 = m.branches[1].values(np.array([0.0, 0.3]), 1)
    assert d1[0] == 0.25 and np.isnan(value[1])
    intervals = [(-0.5, 0.0), (0.0, 0.5), (0.3, 0.6)]
    itin = np.array([[0], [1], [1]])
    seen = []
    u, v, scalar, failed = di.array_end_orbits(
        m, itin, *np.array(intervals).T,
        lambda live, ids, u, v, du, dv: seen.extend(zip(u, v, du, dv)))
    assert scalar == 3 and failed == {}
    for (a, b), row, got, lo, hi in zip(intervals, itin.tolist(), seen,
                                        u.tolist(), v.tolist()):
        (step,), image = end_orbits(m, (a, b), 1, row)
        assert got == (step[0], step[1], abs(step[3].d1), abs(step[4].d1))
        assert (lo, hi) == image
    assert [d for _u, _v, du, dv in seen for d in (du, dv)][:4] == \
        pytest.approx([0.25, 0.25, 0.75, 0.75])


def test_row_form_abs_df_extrema_takes_in_interior_d2_zeros():
    # x^3 - 0.75 x has D2f = 6x, which vanishes inside its branch; the
    # families' branches have no such zero
    m = mm.build_map({
        "name": "cubic", "domain": [-0.5, 1.0], "delta": 0.05,
        "branches": [{"interval": [-0.5, 0.5], "expr": "x^3 - 0.75*x"},
                     {"interval": [0.5, 1.0], "expr": "x^2 - 0.75"}],
        "critical_points": [{"location": 0.5, "side": "-", "order": 2.0},
                            {"location": 0.5, "side": "+", "order": 1.0}]})
    (z,) = di.branch_d2_zeros(m, 0)
    assert abs(z) < 1e-12 and di.branch_d2_zeros(m, 1) == ()
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 2, 2000)
    ends = np.array([(br.a, br.b) for br in m.branches])[ids]
    u, v = rng.uniform(ends[:, 0], ends[:, 1], (2, ids.size))
    u[:50], v[50:100] = z, z                 # an end on the zero itself
    du, dv = (np.array([abs(m.branches[i].jet(x).d1)
                        for i, x in zip(ids.tolist(), xs.tolist())])
              for xs in (u, v))
    lo, hi = di.abs_df_extrema(m, ids, u, v, du, dv)
    for k in range(ids.size):
        want = ref_abs_df_extrema(m, ids[k], (u[k], v[k]), (du[k], dv[k]))
        assert (lo[k], hi[k]) == (want[0][0], want[1][0])
    inside = (ids == 0) & (np.fmin(u, v) < z) & (z < np.fmax(u, v))
    assert inside.sum() > 100
    assert np.all(hi[inside] == abs(m.branches[0].jet(z).d1))
    assert np.all(hi[~inside] == np.fmax(du, dv)[~inside])
