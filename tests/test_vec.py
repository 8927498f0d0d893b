"""Forced passes along induced-branch itineraries against step-by-step maps."""

import numpy as np
import pytest

from cusp_induce import _vec


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
                                    jets=True)
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


def test_forced_inverse_brackets_targets_within_1e_12(map_and_branches):
    # the error bound is on the preimage: one ulp of x can move the image
    # of a narrow high-tau branch by far more than 1e-12
    m, branches = map_and_branches
    edges = np.linspace(m.lo, m.hi, 4097)
    targets = [edges[(edges > br.image[0]) & (edges < br.image[1])]
               for br in branches]
    itin = _vec.itinerary_matrix([br.itinerary for br in branches])
    sols = np.concatenate(_vec.forced_inverse(
        m, itin, [br.a for br in branches], [br.b for br in branches],
        [br.orientation > 0 for br in branches], targets))
    owner = np.repeat(np.arange(len(branches)), [t.size for t in targets])
    t = np.concatenate(targets)
    assert t.size > len(branches)
    a = np.array([br.a for br in branches])[owner]
    b = np.array([br.b for br in branches])[owner]
    assert np.all((a <= sols) & (sols <= b))
    y_lo = _vec.forced_forward(m, itin, owner, sols - 1e-12)
    y_hi = _vec.forced_forward(m, itin, owner, sols + 1e-12)
    assert np.all((np.fmin(y_lo, y_hi) <= t) & (t <= np.fmax(y_lo, y_hi)))


def test_chunk_ranges_close_runs_at_the_budget():
    n = _vec.CHUNK_POINTS
    assert _vec.chunk_ranges([n // 2, n // 2, 1, 2 * n, 1]) == [
        (0, 2), (2, 4), (4, 5)]
    assert _vec.chunk_ranges([]) == []
