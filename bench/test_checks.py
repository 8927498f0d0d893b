"""Every output check of the benchmark can fail, and the tracer counts right.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys

import numpy as np

import checks
import tracing
import unit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# small ensembles keep the tests fast; their noise stays far below 0.05
SMALL = dict(n_orbits=2000, n_steps=500, burn_in=50)


def _ok(results, name):
    return next(c["ok"] for c in results if c["check"] == name)


def _lorenz(s, seed, cells=256):
    return checks.lorenz_ensemble(1.9, s, cells, seed=seed, **SMALL)


# ----------------------------------------------------------------- densities


def test_arcsine_cells_have_unit_mass_and_pass_their_own_check():
    ref = checks.arcsine_cells(4096)
    assert all(c["ok"] for c in checks.density_checks("d", ref))
    assert checks.reference_check("a", ref, ref)["ok"]


def test_uniform_density_fails_the_arcsine_check():
    ref = checks.arcsine_cells(4096)
    uniform = np.full(4096, 0.5)
    c = checks.reference_check("a", uniform, ref)
    assert not c["ok"] and c["value"] > 0.1


def test_halved_mass_fails_the_mass_check():
    h = 0.5 * checks.arcsine_cells(1024)
    res = checks.density_checks("d", h)
    assert _ok(res, "d.nonnegative") and not _ok(res, "d.unit_mass")


def test_negative_or_nan_density_fails_nonnegativity():
    h = checks.arcsine_cells(1024)
    for bad in (-1e-3, math.nan):
        g = h.copy()
        g[7] = bad
        assert not _ok(checks.density_checks("d", g), "d.nonnegative")


def test_grid_mismatch_fails_the_reference_check():
    assert not checks.reference_check(
        "a", checks.arcsine_cells(1024), checks.arcsine_cells(4096))["ok"]


# ----------------------------------------------------------------- ensembles


def test_independent_ensembles_agree_and_a_wrong_map_does_not():
    e1, e2 = _lorenz(0.6, seed=1), _lorenz(0.6, seed=2)
    assert checks.reference_check("e", e1, e2)["ok"]
    assert not checks.reference_check("e", _lorenz(0.4, seed=1), e2)["ok"]
    assert not checks.reference_check("e", np.full(256, 0.5), e2)["ok"]


def test_birkhoff_checks_pass_and_each_fault_fails_its_check():
    cheb = checks.arcsine_cells(4096)
    lor1, lor2, ens = (_lorenz(0.6, seed=k) for k in (1, 2, 3))
    assert all(c["ok"] for c in checks.birkhoff_checks([cheb, lor1, lor2],
                                                       ens))
    res = checks.birkhoff_checks([np.full(4096, 0.5), lor1, lor2], ens)
    assert not _ok(res, "hist_0.l1_vs_arcsine")
    res = checks.birkhoff_checks([cheb, lor1, _lorenz(0.4, seed=2)], ens)
    assert not _ok(res, "hist_1.l1_vs_hist_2")
    assert not _ok(res, "hist_2.l1_vs_ensemble")
    assert _ok(res, "hist_1.l1_vs_ensemble")
    res = checks.birkhoff_checks([cheb, 0.5 * lor1, lor2], ens)
    assert not _ok(res, "hist_1.unit_mass")


# ----------------------------------------------------------------- partition


def _tiling(n=64, unresolved=1e-3):
    edges = np.linspace(-1.0, 1.0 - unresolved, n + 1)
    return edges[:-1], edges[1:], np.full(n, 2.5), unresolved


def test_partition_tiling_passes():
    assert all(c["ok"] for c in checks.partition_checks(*_tiling()))


def test_dropped_branch_fails_coverage():
    a, b, inf_df, unres = _tiling()
    res = checks.partition_checks(np.delete(a, 5), np.delete(b, 5),
                                  np.delete(inf_df, 5), unres)
    assert not _ok(res, "partition.covers_domain")
    res = checks.partition_checks(a, b, inf_df, 0.0)
    assert not _ok(res, "partition.covers_domain")


def test_overlapping_branches_fail_disjointness():
    a, b, inf_df, unres = _tiling()
    b = b.copy()
    b[3] += 1e-3
    assert not _ok(checks.partition_checks(a, b, inf_df, unres - 1e-3),
                   "partition.disjoint")


def test_weak_expansion_fails_the_floor():
    a, b, inf_df, unres = _tiling()
    inf_df = inf_df.copy()
    inf_df[10] = 1.99
    res = checks.partition_checks(a, b, inf_df, unres)
    assert not _ok(res, "partition.min_inf_df")


def _write_out(tmp_path, dens, passed=True):
    a, b, inf_df, unres = _tiling()
    report = {"passed": passed, "failed_stage": None if passed else "lemmas",
              "stages": {"induce": {"unresolved_measure": unres}}}
    (tmp_path / "pipeline.json").write_text(json.dumps(report))
    centers = np.linspace(-1, 1, dens.size + 1)
    centers = 0.5 * (centers[1:] + centers[:-1])
    (tmp_path / "density.csv").write_text(
        "cell_center,density\n"
        + "".join(f"{c},{d}\n" for c, d in zip(centers.tolist(),
                                               dens.tolist())))
    (tmp_path / "partition.csv").write_text(
        "a,b,class,l0,p0,tau,inf_df,sup_df\n"
        + "".join(f"{x},{y},free,,,3,{z},9.0\n"
                  for x, y, z in zip(a.tolist(), b.tolist(),
                                     inf_df.tolist())))
    return str(tmp_path)


def test_pipeline_checks_read_the_out_directory(tmp_path):
    ref = checks.arcsine_cells(4096)
    out = _write_out(tmp_path, ref)
    assert all(c["ok"] for c in checks.pipeline_checks("cheb-pipeline", out,
                                                       ref))
    out = _write_out(tmp_path, np.full(4096, 0.5))
    res = checks.pipeline_checks("cheb-pipeline", out, ref)
    assert not _ok(res, "density.l1_vs_arcsine")
    out = _write_out(tmp_path, ref, passed=False)
    assert not _ok(checks.pipeline_checks("cheb-pipeline", out, ref),
                   "pipeline.passed")


# ------------------------------------------------------------------ tracing


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == tracing.PER_LAYER_UNITS


def test_recorder_self_time_subtracts_children():
    # clock readings: origin, then each push and pop in order
    rec = tracing.Recorder(clock=iter([0, 0, 1, 3, 4, 7, 9]).__next__)
    rec.push("outer", "a", True)
    rec.push("inner", "b", False)
    rec.pop()                            # inner: 1 -> 3
    rec.push("inner", "b", False)
    rec.pop()                            # inner: 4 -> 7
    rec.pop()                            # outer: 0 -> 9
    assert rec.calls("inner") == 2 and rec.total_s("inner") == 5
    assert rec.total_s("outer") == 9
    assert rec.layer_self_s() == {"a": 4, "b": 5}
    assert [s["name"] for s in rec.spans] == ["outer"]


def test_install_counts_calls_and_log_records_then_uninstalls():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import cusp_induce
        from cusp_induce import density, map_model
    finally:
        sys.path.pop(0)
    orig = map_model.Branch.values
    rec, uninstall = tracing.install(cusp_induce)
    try:
        m = map_model.build_map({"family": "chebyshev"})
        m.branches[0].values(np.linspace(-1.0, -0.5, 7))
        m.branches[1].jet(0.25)
        density.birkhoff_histogram(m, 2, 500, 16, 10)
        logging.getLogger(density.__name__).info(
            "birkhoff orbits: %d escapes, %d critical restarts", 3, 4)
    finally:
        uninstall()
    metrics = rec.per_layer_metrics()
    assert metrics["expr.array_calls"] >= 1
    assert metrics["expr.array_points"] >= 7
    assert metrics["expr.jet_calls"] >= 1
    assert metrics["density.birkhoff_escapes"] == 3
    assert metrics["density.birkhoff_restarts"] == 4
    assert rec.counters["density.birkhoff_steps"] == 2 * 500
    assert metrics["density.birkhoff_steps_per_s"] > 0
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)
    assert map_model.Branch.values is orig


def test_a_raising_operation_counts_as_failed():
    assert unit._attempt(lambda: 7) == (0, 7)
    assert unit._attempt(lambda: 1 / 0) == (1, None)
