"""Output checks of the benchmark workloads.

Each check runs outside the timed unit and compares the program's output
either with a reference the program does not compute (the arcsine closed
form, an orbit ensemble stepped here in NumPy from the family formula) or
with a property the method must have (nonnegative unit-mass densities, a
partition that tiles the domain up to its unresolved measure, induced
expansion of at least 2).  None compares with a stored copy of an earlier
output.

A check is a dict `{"check", "value", "limit", "ok"}`; a workload's output
is correct when every check is ok.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import workloads as wl

# Criterion 8: pulled-back density within L1 0.05 of the closed form and of
# an orbit histogram; two Birkhoff seeds within 0.02 of each other.
REFERENCE_L1 = 0.05
SEED_AGREEMENT_L1 = 0.02
MASS_TOL = 1e-9
COVER_TOL = 1e-12
EXPANSION_FLOOR = 2.0
LO, HI = -1.0, 1.0              # domain of every workload map

# The ensemble: independent orbits stepped in lockstep.  Two ensembles of
# this size differ by about 0.02 in L1 on 4096 cells, well under the limit.
ENSEMBLE_ORBITS = 4000
ENSEMBLE_STEPS = 2500
ENSEMBLE_BURN_IN = 100


def _check(name: str, value, limit, ok: bool) -> dict:
    return {"check": name, "value": value, "limit": limit, "ok": bool(ok)}


def cell_width(m_cells: int) -> float:
    return (HI - LO) / m_cells


def l1(h1, h2, cw: float) -> float:
    h1, h2 = np.asarray(h1, dtype=float), np.asarray(h2, dtype=float)
    if h1.shape != h2.shape:
        return math.inf
    return float(np.sum(np.abs(h1 - h2)) * cw)


def arcsine_cells(m_cells: int) -> np.ndarray:
    """Cell averages of the chebyshev invariant density 1/(pi sqrt(1-x^2))."""
    e = np.linspace(LO, HI, m_cells + 1)
    return np.diff(np.arcsin(e)) / (math.pi * cell_width(m_cells))


def lorenz_ensemble(a: float, s: float, m_cells: int, seed,
                    n_orbits: int = ENSEMBLE_ORBITS,
                    n_steps: int = ENSEMBLE_STEPS,
                    burn_in: int = ENSEMBLE_BURN_IN) -> np.ndarray:
    """Occupation density of the map 1 - a|x|^s (x < 0), a|x|^s - 1 (x >= 0).

    Stepped directly from the family formula, with no program code.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(LO, HI, n_orbits)
    counts = np.zeros(m_cells, dtype=np.int64)
    for k in range(burn_in + n_steps):
        r = a * np.abs(x) ** s
        x = np.where(x < 0.0, 1.0 - r, r - 1.0)
        if k >= burn_in:
            idx = np.clip(((x - LO) / cell_width(m_cells)).astype(np.int64),
                          0, m_cells - 1)
            counts += np.bincount(idx, minlength=m_cells)
    return counts / (counts.sum() * cell_width(m_cells))


def density_checks(label: str, h) -> list:
    """Nonnegative, finite, and unit mass on the domain."""
    h = np.asarray(h, dtype=float)
    mass = float(np.sum(h) * cell_width(h.size)) if h.size else 0.0
    low = float(np.min(h)) if h.size else math.nan
    return [
        _check(f"{label}.nonnegative", low, 0.0,
               h.size > 0 and np.all(np.isfinite(h)) and low >= 0.0),
        _check(f"{label}.unit_mass", mass, MASS_TOL,
               abs(mass - 1.0) <= MASS_TOL),
    ]


def reference_check(label: str, h, ref, limit: float = REFERENCE_L1) -> dict:
    d = l1(h, ref, cell_width(np.size(ref)))
    return _check(label, d, limit, d <= limit)


def partition_checks(a, b, inf_df, unresolved: float) -> list:
    """Branches are disjoint, tile the domain with the unresolved set, and
    expand by at least 2."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    order = np.argsort(a)
    a, b = a[order], b[order]
    covered = math.fsum((b - a).tolist()) + unresolved
    gap = abs(covered - (HI - LO))
    overlap = float(np.max(b[:-1] - a[1:], initial=0.0))
    low = float(np.min(inf_df)) if np.size(inf_df) else math.nan
    return [
        _check("partition.disjoint", overlap, 0.0,
               a.size > 0 and np.all(b > a) and overlap <= 0.0),
        _check("partition.covers_domain", gap, COVER_TOL, gap <= COVER_TOL),
        _check("partition.min_inf_df", low, EXPANSION_FLOOR,
               low >= EXPANSION_FLOOR),
    ]


def read_pipeline_dir(out: str):
    """(pipeline report, density column, partition columns) from --out."""
    with open(os.path.join(out, "pipeline.json")) as fh:
        report = json.load(fh)
    dens = np.loadtxt(os.path.join(out, "density.csv"), delimiter=",",
                      skiprows=1, ndmin=2)[:, 1]
    with open(os.path.join(out, "partition.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    cols = {k: np.array([float(r[k]) for r in rows])
            for k in ("a", "b", "inf_df")}
    return report, dens, cols


def pipeline_checks(workload: str, out: str, reference) -> list:
    """Checks of one pipeline unit's --out directory.

    `reference` is the arcsine cell density (cheb-pipeline) or an ensemble
    histogram (cusp-pipeline) on the density grid.
    """
    report, dens, cols = read_pipeline_dir(out)
    unresolved = float(report["stages"]["induce"]["unresolved_measure"])
    name = ("density.l1_vs_arcsine" if workload == "cheb-pipeline"
            else "density.l1_vs_ensemble")
    return ([_check("pipeline.passed", report.get("failed_stage"), None,
                    report.get("passed") is True)]
            + density_checks("density", dens)
            + partition_checks(cols["a"], cols["b"], cols["inf_df"],
                               unresolved)
            + [reference_check(name, dens, reference)])


def birkhoff_checks(hists, ensemble) -> list:
    """Checks of the three criterion-8 histograms (chebyshev, lorenz x2)."""
    cheb, lor1, lor2 = hists
    out = []
    for k, h in enumerate(hists):
        out += density_checks(f"hist_{k}", h)
    out.append(reference_check("hist_0.l1_vs_arcsine", cheb,
                               arcsine_cells(np.size(cheb))))
    out.append(reference_check("hist_1.l1_vs_hist_2", lor1, lor2,
                               SEED_AGREEMENT_L1))
    out.append(reference_check("hist_1.l1_vs_ensemble", lor1, ensemble))
    out.append(reference_check("hist_2.l1_vs_ensemble", lor2, ensemble))
    return out


def reference_for(workload: str, seed: int):
    """The independent reference a workload's checks compare against."""
    if workload == "cheb-pipeline":
        return arcsine_cells(wl.PIPELINE_CELLS)
    a, s = wl.ENSEMBLE_PARAMS[workload]
    cells = (wl.PIPELINE_CELLS if workload == "cusp-pipeline"
             else wl.BIRKHOFF_SETS[1][2])
    return lorenz_ensemble(a, s, cells, seed=[seed, 0xE5])
