"""One-step and forced passes of _vec against step-by-step references.

The per-branch bisection and the positional dispatch that the one-step
plans replaced are kept below as references.  Where a branch's formula has
no closed-form inverse, branch_inverse bisects and must match the bisection
bit for bit; elsewhere its preimages must lie no farther from the true
preimages than the bisection's do, by reference_inverse's long-double
yardstick.  The grid-seeded bisection of the forced composition is kept as
the reference for forced_inverse's preimages, by the same yardstick, and
reference_inverse's per-row chain of branch_inverse for their bits.
"""

import errno
import logging
import os
import signal

import numpy as np
import pytest

from cusp_induce import _fastmap, _vec
from cusp_induce import inducing as ind
from cusp_induce import map_model as mm

from reference_inverse import (distance_to_preimage, one_step_distance,
                               per_row_inverse)


# ---------------------------------------------------------------------------
# references: whole-branch bisection one branch at a time, and positional
# dispatch branch by branch


def ref_invert_branch(m, i, targets):
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


def ref_branch_ids(m, x):
    """The branch holding each x, as MapSpec.branch_index."""
    return np.minimum(np.searchsorted(m.interior_boundaries, x,
                                      side="right"), len(m.branches) - 1)


def ref_per_branch(m, x, evaluators):
    x = np.asarray(x, dtype=float)
    outs = [np.empty(x.shape, dtype=float) for _ in evaluators]
    ids = ref_branch_ids(m, x)
    with np.errstate(all="ignore"):
        for i, br in enumerate(m.branches):
            sel = np.flatnonzero(ids == i)
            for out, name in zip(outs, evaluators):
                out[sel] = getattr(br, name)(x[sel])
    return outs


def ref_forward(m, itin, owner, x):
    """The composition along row owner[k] at x[k]: one Branch.values call
    per row and step."""
    y = np.array(x, dtype=float)
    with np.errstate(all="ignore"):
        for r, row in enumerate(itin.tolist()):
            sel = np.flatnonzero(owner == r)
            for i in row:
                if i < 0:
                    break
                y[sel] = m.branches[i].values(y[sel])
    return y


def ref_forced_inverse(m, itin, a, b, increasing, targets):
    """Preimages under the forced compositions: a grid of max(16, 2 n)
    cells per row and thirty halvings of each bracket."""
    grids = [np.linspace(u, v, max(16, 2 * t.size) + 1)
             for u, v, t in zip(a, b, targets)]
    sizes = [g.size for g in grids]
    ys = ref_forward(m, itin, np.repeat(np.arange(len(grids)), sizes),
                     np.concatenate(grids))
    lo, hi = [], []
    for xs, y, t, inc in zip(grids, np.split(ys, np.cumsum(sizes)[:-1]),
                             targets, increasing):
        if not inc:
            xs, y = xs[::-1], y[::-1]
        pos = np.clip(np.searchsorted(y, t), 1, xs.size - 1)
        lo.append(np.minimum(xs[pos - 1], xs[pos]))
        hi.append(np.maximum(xs[pos - 1], xs[pos]))
    counts = [t.size for t in targets]
    owner = np.repeat(np.arange(len(targets)), counts)
    up = np.asarray(increasing, dtype=bool)[owner]
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    t = np.concatenate(targets)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        v = ref_forward(m, itin, owner, mid)
        go_up = np.where(up, v < t, v > t)
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    return 0.5 * (lo + hi)


def four_lines():
    """A config map of four linear branches, each with its own formula,
    on three interior boundaries, one of them 0."""
    exprs = ("4*x + 3", "-4*x - 1", "4*x - 1", "3 - 4*x")
    return mm.build_map({
        "name": "four lines", "domain": [-1.0, 1.0], "delta": 0.05,
        "branches": [{"interval": [a, a + 0.5], "expr": e}
                     for a, e in zip((-1.0, -0.5, 0.0, 0.5), exprs)],
        "critical_points": [{"location": c, "side": side, "order": 1.0}
                            for c in (-0.5, 0.0, 0.5) for side in "-+"]})


ONE_STEP_MAPS = {
    "chebyshev": mm.chebyshev_map,
    "lorenz(1.9,0.4)": lambda: mm.lorenz_map(1.9, 0.4, 0.1),
    "lorenz(1.8,0.5)": lambda: mm.lorenz_map(1.8, 0.5, 0.1),
    "singular_unimodal": mm.singular_unimodal_map,
    "four lines": four_lines,
}


@pytest.fixture(params=sorted(ONE_STEP_MAPS), scope="module")
def one_step_map(request):
    return ONE_STEP_MAPS[request.param]()


def _image_end_targets(m):
    """Each image end, and points 1e-12 (kept) and 2e-12 (dropped)
    outside it."""
    out = []
    for lo, hi in m.branch_images:
        out += [lo, hi, lo - 1e-12, hi + 1e-12, lo - 2e-12, hi + 2e-12]
    return np.array(out)


def assert_one_step_preimages(m, ids, t, got, want):
    """Where the formula group of branch ids[k] has no closed-form inverse,
    got[k] is the bisection's want[k] bit for bit.  Every preimage lies on
    its branch, and the closed forms' lie no farther from the true
    preimages of the targets clamped onto the images than the bisection's
    farthest."""
    bisected = np.array([inv is None for inv in m.group_inverses])[
        m.formula_groups[0][ids]]
    assert got[bisected].tobytes() == want[bisected].tobytes()
    ends = np.array([(br.a, br.b) for br in m.branches])[ids]
    assert np.all((ends[:, 0] <= got) & (got <= ends[:, 1]))
    images = np.array(m.branch_images)[ids]
    closed = np.flatnonzero(~bisected)
    t = np.clip(t, images[:, 0], images[:, 1])[closed]
    dist = one_step_distance(m, ids[closed], got[closed], t)
    assert np.all(np.isfinite(dist))
    if closed.size:
        assert dist.max() <= one_step_distance(m, ids[closed], want[closed],
                                               t).max()


def test_preimages_match_per_branch_bisection(one_step_map):
    m = one_step_map
    rng = np.random.default_rng(11)
    t = np.concatenate((np.linspace(m.lo, m.hi, 1025),
                        rng.uniform(m.lo, m.hi, 2000), _image_end_targets(m)))
    ids, pre = _vec.preimages(m, t)
    ref = [ref_invert_branch(m, i, t) for i in range(len(m.branches))]
    want_ids = np.concatenate([np.full(int(ok.sum()), i)
                               for i, (_sol, ok) in enumerate(ref)])
    want = np.concatenate([sol[ok] for sol, ok in ref])
    assert np.asarray(ids, dtype=np.int64).tobytes() == want_ids.tobytes()
    targets = np.concatenate([t[ok] for _sol, ok in ref])
    assert_one_step_preimages(m, want_ids, targets, pre, want)


def test_branch_inverse_matches_per_branch_bisection_on_mixed_ids(
        one_step_map):
    m = one_step_map
    rng = np.random.default_rng(12)
    n = len(m.branches)
    ends = _image_end_targets(m)
    t = np.concatenate((rng.uniform(m.lo, m.hi, 3000), ends))
    ids = np.concatenate((rng.integers(0, n, 3000),
                          np.repeat(np.arange(n), 6)))
    clamped = np.zeros(t.size, dtype=bool)
    got = _vec.branch_inverse(m, ids, t, clamped)
    want = np.empty_like(t)
    for i in range(n):
        sel = np.flatnonzero(ids == i)
        lo, hi = m.branch_images[i]
        want[sel] = ref_invert_branch(m, i, np.clip(t[sel], lo, hi))[0]
    assert_one_step_preimages(m, ids, t, got, want)
    # clamped marks every target outside its image, and none well inside
    images = np.array(m.branch_images)[ids]
    assert np.all(clamped[(t < images[:, 0]) | (t > images[:, 1])])
    assert not clamped[(t > images[:, 0] + 1e-9)
                       & (t < images[:, 1] - 1e-9)].any()


def test_singular_unimodal_inverts_by_bisection_alone():
    # its formulas hold x twice, so the one-step tests above check every
    # one of its preimages against the bisection bit for bit
    assert mm.singular_unimodal_map().group_inverses == (None, None)


def test_branch_indices_match_searchsorted(one_step_map):
    # NaN goes to the last branch, a point on a boundary to the right-hand
    # branch, -0.0 as 0.0
    m = one_step_map
    b = m.interior_boundaries
    x = np.concatenate((b, -b, np.nextafter(b, -np.inf),
                        np.nextafter(b, np.inf),
                        [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
                         m.lo, m.hi],
                        np.random.default_rng(14).uniform(m.lo - 0.5,
                                                          m.hi + 0.5, 1000)))
    want = np.searchsorted(b, x, side="right")
    got = _vec.branch_indices(m, x)
    assert got.dtype.kind == "i" and np.array_equal(got, want)
    assert [m.branch_index(v) for v in x.tolist()] == want.tolist()


def test_positional_steps_match_per_branch_dispatch(one_step_map):
    m = one_step_map
    rng = np.random.default_rng(13)
    x = np.concatenate((rng.uniform(m.lo, m.hi, 3000),
                        m.interior_boundaries, [m.lo, m.hi, np.nan]))
    v, d1 = _vec.step_values(m, x, 1)
    want_v, want_d1 = ref_per_branch(m, x, ("values", "d1_values"))
    assert _vec.step_values(m, x).tobytes() == want_v.tobytes()
    assert v.tobytes() == want_v.tobytes()
    assert d1.tobytes() == want_d1.tobytes()
    # a point on an interior boundary steps with the right-hand branch
    for i, b in enumerate(m.interior_boundaries, 1):
        right = m.branches[i]
        with np.errstate(all="ignore"):
            assert _vec.step_values(m, np.array([b])).tobytes() == \
                right.values(np.array([b])).tobytes()
            assert _vec.step_values(m, np.array([b]), 1)[1].tobytes() \
                == right.d1_values(np.array([b])).tobytes()


@pytest.fixture(params=["cheb", "lorenz"])
def map_and_branches(request):
    m = request.getfixturevalue(request.param)
    part = request.getfixturevalue(request.param + "_partition")
    by_tau = {}
    for br in part.branches:
        by_tau.setdefault(br.tau, br)
    return m, [by_tau[t] for t in sorted(by_tau)][:6]


def test_forced_forward_matches_step_by_step_composition(map_and_branches):
    m, branches = map_and_branches
    assert len({br.tau for br in branches}) > 1
    itin = _vec.itinerary_matrix([br.itinerary for br in branches])
    xs = [np.linspace(br.a, br.b, 9) for br in branches]
    owner = np.repeat(np.arange(len(branches)), [x.size for x in xs])
    y, d1, d2 = _vec.forced_forward(m, itin, owner, np.concatenate(xs),
                                    order=2)
    assert np.array_equal(_vec.forced_forward(m, itin, owner,
                                              np.concatenate(xs)), y)
    want_y, want_d1, want_d2 = [], [], []
    with np.errstate(all="ignore"):
        for br, x in zip(branches, xs):
            P, S = np.ones_like(x), np.zeros_like(x)
            for i in br.itinerary:
                f = m.branches[i]
                S = f.d2_values(x) * P ** 2 + f.d1_values(x) * S
                P = f.d1_values(x) * P
                x = f.values(x)
            want_y.append(x)
            want_d1.append(P)
            want_d2.append(S)
    np.testing.assert_array_equal(y, np.concatenate(want_y))
    np.testing.assert_array_equal(d1, np.concatenate(want_d1))
    np.testing.assert_array_equal(d2, np.concatenate(want_d2))


def test_forced_forward_keeps_the_itinerary_on_a_branch_boundary(lorenz):
    # positional dispatch would send x = 0 to the right branch, a*|x|^s - 1
    itin = _vec.itinerary_matrix([(0,), (1,)])
    y = _vec.forced_forward(lorenz, itin, np.array([0, 1]), np.zeros(2))
    assert y.tolist() == [1.0, -1.0]


def _ulam_targets(branches, m_cells=4096):
    """(edges, first, count): the Ulam targets of branch k, the edges
    strictly inside its image, are edges[first[k]:first[k] + count[k]]."""
    edges = np.linspace(-1.0, 1.0, m_cells + 1)
    images = np.array([br.image for br in branches])
    first = np.searchsorted(edges, images[:, 0], side="right")
    return edges, first, np.searchsorted(edges, images[:, 1]) - first


def _inverse_args(branches):
    return (_vec.itinerary_matrix([br.itinerary for br in branches]),
            np.array([br.a for br in branches]),
            np.array([br.b for br in branches]),
            [br.orientation > 0 for br in branches])


def _forced_preimages(m, branches):
    """(itin, a, b, up, owner, targets, preimages) of the Ulam targets."""
    edges, first, count = _ulam_targets(branches)
    itin, a, b, up = _inverse_args(branches)
    owner = np.repeat(np.arange(len(branches)), count)
    targets = [edges[j:j + n] for j, n in zip(first, count)]
    return (itin, a, b, up, owner, targets,
            _vec.forced_inverse(m, itin, a, b, edges, first, count))


def test_forced_inverse_brackets_targets_within_1e_12(map_and_branches):
    # the error bound is on the preimage: one ulp of x can move the image
    # of a narrow high-tau branch by far more than 1e-12
    m, branches = map_and_branches
    itin, a, b, _up, owner, targets, sols = _forced_preimages(m, branches)
    t = np.concatenate(targets)
    assert t.size > len(branches)
    assert np.all((a[owner] <= sols) & (sols <= b[owner]))
    y_lo = _vec.forced_forward(m, itin, owner, sols - 1e-12)
    y_hi = _vec.forced_forward(m, itin, owner, sols + 1e-12)
    assert np.all((np.fmin(y_lo, y_hi) <= t) & (t <= np.fmax(y_lo, y_hi)))
    # and within 1e-12 of the true preimage (reference_inverse)
    dist = distance_to_preimage(m, itin, owner, sols, t)
    assert np.all(np.isfinite(dist)) and dist.max() <= 1e-12


def _check_against_reference(m, branches):
    # forced_inverse finds the roots of f^tau(x) - t along each itinerary:
    # on its branch, and no farther from the true roots than the halving
    # reference's farthest
    itin, a, b, up, owner, targets, got = _forced_preimages(m, branches)
    want = ref_forced_inverse(m, itin, a, b, up, targets)
    t = np.concatenate(targets)
    assert np.all((a[owner] <= got) & (got <= b[owner]))
    dist = distance_to_preimage(m, itin, owner, got, t)
    assert np.all(np.isfinite(dist))
    assert dist.max() <= distance_to_preimage(m, itin, owner, want, t).max()


def test_forced_inverse_matches_the_halving_reference(map_and_branches):
    _check_against_reference(*map_and_branches)


def test_forced_inverse_on_decreasing_branches(cheb, cheb_partition):
    # the lorenz compositions all increase; chebyshev has both orientations
    by_tau = {}
    for br in cheb_partition.branches:
        if br.orientation < 0:
            by_tau.setdefault(br.tau, br)
    assert len(by_tau) > 3
    _check_against_reference(cheb, [by_tau[t] for t in sorted(by_tau)])


def test_forced_inverse_does_not_depend_on_the_chunk_size(monkeypatch,
                                                         map_and_branches):
    # chunks of 64 targets, each with its own prefix steps: every preimage
    # and clamp keeps its bits
    m, branches = map_and_branches
    itin, a, b, _up, _owner, _targets, want = _forced_preimages(m, branches)
    args = (m, itin, a, b, *_ulam_targets(branches))
    clamped = [np.zeros(want.size, dtype=bool) for _ in range(2)]
    assert _vec.forced_inverse(*args, clamped[0]).tobytes() == want.tobytes()
    monkeypatch.setattr(_vec, "CHUNK_POINTS", 64)
    got = _vec.forced_inverse(*args, clamped[1])
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(*clamped)


@pytest.mark.parametrize("which", ["cheb", "lorenz", "singular"])
def test_forced_inverse_matches_the_per_row_chain(request, monkeypatch,
                                                  which):
    # every preimage and clamp flag keeps the bits of branch_inverse
    # chained one row at a time (reference_inverse), and the shared pass
    # counts one point-step per itinerary suffix and edge of its hull, on
    # the cheb and lorenz fixtures and on singular_unimodal, whose formulas
    # invert by bisection alone.  Chunks of 64 points end inside a depth.
    # Two rows are added: a copy of the widest row with tau > 1 whose edge
    # range reaches 8 edges past its image on each side, so that clamped
    # points pass through the nodes it shares with that row, and a row with
    # an empty itinerary, which keeps its edges
    m = request.getfixturevalue(which)
    if which == "singular":
        branches = ind.build_partition(m, delta=0.1, q0=5).branches
    else:
        branches = request.getfixturevalue(which + "_partition").branches
    edges, first, count = _ulam_targets(branches, 512)
    itin, a, b, _up = _inverse_args(branches)
    tau = (itin >= 0).sum(1)
    k = int(np.argmax(np.where(tau > 1, count, -1)))
    j = max(first[k] - 8, 0)
    itin = np.vstack((itin, itin[k], np.full(itin.shape[1], -1)))
    a, b = np.append(a, [a[k], -0.1]), np.append(b, [b[k], 0.1])
    first = np.append(first, [j, 200])
    count = np.append(count, [min(first[k] + count[k] + 8, edges.size) - j,
                              100])
    want, want_clamped = per_row_inverse(m, itin, a, b, edges, first, count)
    monkeypatch.setattr(_vec, "CHUNK_POINTS", 64)
    clamped, steps = np.zeros(want.size, dtype=bool), [0, 0]
    got = _vec.forced_inverse(m, itin, a, b, edges, first, count, clamped,
                              steps)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(clamped, want_clamped)
    past = slice(-count[-1] - count[-2], -count[-1])
    assert 0 < clamped[past].sum() < count[-2]
    assert np.array_equal(got[-100:], np.clip(edges[200:300], -0.1, 0.1))
    # the hull of the rows sharing each suffix, in edge numbers
    hulls, bisects = {}, [inv is None for inv in m.group_inverses]
    for row, j, n in zip(itin.tolist(), first.tolist(), count.tolist()):
        row = [i for i in row if i >= 0]
        for d in range(1, len(row) + 1 if n else 0):
            lo, hi = hulls.get(tuple(row[-d:]), (j, j + n))
            hulls[tuple(row[-d:])] = (min(lo, j), max(hi, j + n))
    assert steps == [
        sum(hi - lo for lo, hi in hulls.values()),
        sum(hi - lo for s, (lo, hi) in hulls.items()
            if bisects[m.formula_groups[0][s[0]]])]
    assert steps[0] < count @ (itin >= 0).sum(1)
    if which == "singular":
        assert steps[1] == steps[0]


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    # one process per CPU it may use, at most MAX_WORKERS and at most one
    # per SHARE_POINTS walkers, so that the Birkhoff ensemble's seed
    # streams of WALKERS split from five on; one where the platform cannot
    # tell its CPUs
    share = _fastmap.SHARE_POINTS
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert _vec.MAX_WORKERS == 2
    assert [_vec._worker_count(k * _fastmap.WALKERS, share)
            for k in range(1, 11)] == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]
    monkeypatch.setattr(_vec, "MAX_WORKERS", 3)
    assert [_vec._worker_count(k * share, share) for k in (0, 1, 2, 3)] == [
        1, 1, 2, 3]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _vec._worker_count(9 * share, share) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _vec._worker_count(9 * share, share) == 1


@pytest.fixture(params=["cheb", "lorenz"])
def ensemble_map(request):
    return request.getfixturevalue(request.param)


def _ensemble(m, streams=3):
    """One Birkhoff ensemble stepper call: (histogram, counts)."""
    rng = np.random.default_rng(3)
    starts = rng.uniform(m.lo, m.hi, (streams, _fastmap.WALKERS))
    pools = rng.uniform(m.lo, m.hi, (streams, _fastmap.POOL))
    hist = np.zeros(256, dtype=np.int64)
    counts = _fastmap.get_stepper(m)(starts, pools, 30, 30, hist)
    return hist, counts


@pytest.mark.parametrize("made", [0, 1], ids=["fork-0", "fork-1"])
def test_a_child_that_cannot_be_made_leaves_its_share_here(
        caplog, monkeypatch, ensemble_map, made):
    # the Birkhoff ensemble on three workers, and from call number `made`
    # on, os.fork fails as at a process limit: this process runs the
    # shares left, the histogram and counts keep their bits, and no
    # descriptor or child is left behind
    m = ensemble_map
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want = _ensemble(m)
    monkeypatch.setattr(_fastmap, "SHARE_POINTS", _fastmap.WALKERS)
    monkeypatch.setattr(_vec, "MAX_WORKERS", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    real, calls = os.fork, []

    def limited():
        calls.append(os.getpid())
        if len(calls) > made:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, "fork", limited)
    fds = os.listdir("/proc/self/fd")
    with caplog.at_level(logging.INFO, logger=_fastmap.__name__):
        hist, counts = _ensemble(m)
    assert hist.tobytes() == want[0].tobytes() and counts == want[1]
    assert len(calls) == made + 1
    # three seed streams in three shares, `made` of them finished by children
    assert [r.args for r in caplog.records
            if r.name == _fastmap.__name__] == [(3, 3, made)]
    assert sorted(os.listdir("/proc/self/fd")) == sorted(fds)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_that_dies_leaves_its_share_here(monkeypatch, ensemble_map):
    # the Birkhoff ensemble on two workers, and the child is killed before
    # it writes anything: this process runs its share, and the histogram
    # and counts keep their bits
    m = ensemble_map
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want = _ensemble(m)
    monkeypatch.setattr(_fastmap, "SHARE_POINTS", _fastmap.WALKERS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, walk, finished = os.getpid(), _fastmap._walk, []

    def killed_in_the_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        finished.append(len(args[1]))
        return walk(*args)

    monkeypatch.setattr(_fastmap, "_walk", killed_in_the_child)
    hist, counts = _ensemble(m)
    assert finished == [2, 1]
    assert hist.tobytes() == want[0].tobytes() and counts == want[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("capped", ["parent", "every"])
def test_a_share_that_does_not_converge_raises_here(monkeypatch, capped,
                                                    ensemble_map):
    # the Birkhoff ensemble on two workers, and a share raises in this
    # process alone, while the child finishes its share, or in every
    # process: the error reaches the caller unchanged, and no child is
    # left behind
    m = ensemble_map
    monkeypatch.setattr(_fastmap, "SHARE_POINTS", _fastmap.WALKERS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, walk, calls = os.getpid(), _fastmap._walk, []

    def capped_here(*args):
        calls.append(os.getpid())
        if capped == "every" or os.getpid() == parent:
            raise RuntimeError("share did not converge")
        return walk(*args)

    monkeypatch.setattr(_fastmap, "_walk", capped_here)
    with pytest.raises(RuntimeError, match="^share did not converge$"):
        _ensemble(m, 4)
    assert calls == [parent]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_share_that_does_not_converge_in_its_child_alone_runs_here(
        monkeypatch, ensemble_map):
    # the Birkhoff ensemble on two workers, and the child raises after its
    # share has written its histogram: it exits 1, this process runs its
    # share again, and the histogram and counts are those of one process
    m = ensemble_map
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want = _ensemble(m, 4)
    monkeypatch.setattr(_fastmap, "SHARE_POINTS", _fastmap.WALKERS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, walk, finished = os.getpid(), _fastmap._walk, []

    def capped_in_the_child(*args):
        out = walk(*args)
        if os.getpid() != parent:
            raise RuntimeError("share did not converge")
        finished.append(len(args[1]))
        return out

    monkeypatch.setattr(_fastmap, "_walk", capped_in_the_child)
    hist, counts = _ensemble(m, 4)
    assert finished == [2, 2]
    assert hist.tobytes() == want[0].tobytes() and counts == want[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_chunk_ranges_close_runs_at_the_budget():
    n = _vec.CHUNK_POINTS
    assert _vec.chunk_ranges([n // 2, n // 2, 1, 2 * n, 1]) == [
        (0, 2), (2, 4), (4, 5)]
    assert _vec.chunk_ranges([]) == []
