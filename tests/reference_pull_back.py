"""A per-piece scalar pull-back for maps with affine branches, the reference
that density.pull_back is tested against.

Each branch is cut at the edges of the induced density's grid strictly
inside it, and each piece is split in density.PULL_BACK_SPLITS equal parts.
Before every step of its itinerary a part spreads its mass uniformly over
its exact image under the affine composition, one part and one cell at a
time.
"""

import numpy as np

from cusp_induce.density import PULL_BACK_SPLITS


def _spread(out, lo, cw, u, v, mass):
    """Add mass spread uniformly over [u, v] to the cells of out, the cell
    coordinates clamped onto the grid."""
    n = len(out)
    cu = min(max((u - lo) / cw, 0.0), n)
    cv = min(max((v - lo) / cw, 0.0), n)
    if cu == cv:
        out[min(int(cu), n - 1)] += mass
        return
    for j in range(int(cu), min(int(cv) + 1, n)):
        overlap = min(cv, j + 1) - max(cu, j)
        if overlap > 0:
            out[j] += mass * overlap / (cv - cu)


def affine_pull_back(partition, coefficients, h_induced, m_cells):
    """The pulled-back density, branch i of the map being x -> s x + c
    with (s, c) = coefficients[i]."""
    lo, hi = partition.lo, partition.hi
    n_in = len(h_induced)
    edges = np.linspace(lo, hi, n_in + 1).tolist()
    cw = (hi - lo) / m_cells
    out = [0.0] * m_cells
    k = PULL_BACK_SPLITS
    for br in partition.branches:
        cuts = [br.a] + [e for e in edges if br.a < e < br.b] + [br.b]
        for x0, x1 in zip(cuts, cuts[1:]):
            cell = int((0.5 * (x0 + x1) - lo) / (hi - lo) * n_in)
            h = float(h_induced[min(max(cell, 0), n_in - 1)])
            for j in range(k):
                u = x0 + j * (x1 - x0) / k
                v = x0 + (j + 1) * (x1 - x0) / k
                mass = h * (v - u)
                for i in br.itinerary:
                    _spread(out, lo, cw, min(u, v), max(u, v), mass)
                    s, c = coefficients[i]
                    u, v = s * u + c, s * v + c
    total = sum(out)
    return np.array(out) / (total * cw)
